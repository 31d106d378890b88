"""Run the benchmark over several seeds and store a named baseline.

Run from the root of a checkout:

    python3 bench/record.py --label seed-f9aae86 --seeds 1-10 --trace-seeds 1-3

For every workload it runs ``bench/run.py`` once per seed untraced (and
once per trace seed traced), one run at a time, and writes
``bench/baselines/<label>.json`` with every run's metrics and, per metric,
the median, the quartiles and the spread (interquartile distance over the
median). Existing baselines are never overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict]) -> dict:
    values: dict = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], None, vs[0])
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--trace-seeds", type=_seeds, default=_seeds("1-3"))
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    path = os.path.join(BENCH_DIR, "baselines", f"{args.label}.json")
    if os.path.exists(path):
        print(f"record: {path} exists", file=sys.stderr)
        return 2

    doc = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            runs = []
            for seed in seeds:
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
                start = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
                lines = proc.stdout.strip().splitlines()
                env = json.loads(lines[0].removeprefix("env "))
                result = json.loads(lines[-1])
                runs.append({"seed": seed, "elapsed_s": time.perf_counter() - start, "env": env,
                             "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": result["metrics"]})
                print(f"{workload} trace={trace} seed={seed} correct={result['correct']} "
                      f"{time.perf_counter() - start:.1f}s", flush=True)
            entry["traced" if trace else "untraced"] = {"runs": runs, "summary": summarize(runs)}
        doc["workloads"][workload] = entry
        for name, s in entry["untraced"]["summary"].items():
            print(f"  {workload:13s} {name:14s} median {s['median']:.6g} spread {s['spread']}")

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
