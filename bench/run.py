"""Benchmark of the thermosched solver toolkit.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-bnb --seed 1 --seconds 24 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``exact-bnb``: ilp-sm, qp-lr-ub and idle-min through run_method on small
  tight instances, plus ilp-sm on a hard tail at a fixed budget.
* ``ga-loose``: bb-sm and bb-lr through run_method on loose instances.
* ``cli-pipeline``: generate, solve (heur, flow-fixed, idle-max) and
  evaluate (sm, lr, lr-ub) through cli.main in this process.

Every job result passes a correctness gate outside the timed region. Job
and set-up times are scaled to a nominal machine speed by probes taken
next to them (see speed.py); the raw figures go to the context line. With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from a
run that alternates untraced and traced executions of each unit. Details of
each run (environment, percentiles, failures) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

WORKLOADS = ("exact-bnb", "ga-loose", "cli-pipeline")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_REPEATS = 5
REFERENCE_SEED = 0
# job_ms_tail reports the highest of these percentiles with at least ten
# jobs beyond it. The ladder stops at p95: beyond that, exact search times
# are set by a handful of the hardest instances and do not repeat across
# seeds.
TAIL_LADDER = (50, 75, 90, 95)
TAIL_MIN_BEYOND = 10


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help=f"store proven statuses and optima of seed {REFERENCE_SEED} "
                        "as the reference later runs must reproduce")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.record_reference and (args.seed != REFERENCE_SEED or args.trace):
        p.error(f"--record-reference needs --seed {REFERENCE_SEED} --trace 0")
    return args


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError), open(os.path.join(git, ref), encoding="utf-8") as f:
            return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "thermosched")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def _environment(root: str, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "THERMOSCHED_THREADS": os.environ["THERMOSCHED_THREADS"],
    }


def _setup_seconds(root: str, args) -> tuple[float, float]:
    """Set-up time of one fresh interpreter: import plus input building.

    Returns the time as measured and scaled to the nominal machine speed
    by a probe the same interpreter takes right after its set-up.
    """
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    proc = subprocess.run(
        [sys.executable, probe, args.workload, str(args.seed), repr(args.seconds)],
        cwd=root, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    seconds, machine = (float(x) for x in proc.stdout.strip().splitlines()[-1].split())
    return seconds, seconds * speed.NOMINAL_S / machine


def tail_percentile(count: int) -> int:
    """Highest ladder percentile with at least ten jobs beyond it (50 at least)."""
    fits = [p for p in TAIL_LADDER if count * (100 - p) / 100 >= TAIL_MIN_BEYOND]
    return max(fits, default=TAIL_LADDER[0])


def _percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def select_metrics(values: dict, spec: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(records, failed: int, setup_times, peak_rss_mb: float) -> tuple[dict, dict]:
    """The user-facing metrics of one untraced pass, plus context for the log.

    Times are scaled to the nominal machine speed (see speed.py); the
    context keeps the raw figures. ``setup_times`` holds (raw, scaled) pairs.
    """
    ms = [1e3 * r.scaled_seconds for r in records]
    p = tail_percentile(len(ms))
    power = [r for r in records if not r.problems and "power_bound" in r.extra]
    unproven = [r for r in power if r.status != "optimal"]
    values = {
        "setup_s": statistics.median(s for _, s in setup_times),
        "wall_s": sum(r.scaled_seconds for r in records),
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": _percentile(ms, p),
        "ok_share": (len(records) - failed) / len(records),
        # Mean predicted power of every schedule the jobs report, in W.
        "power_w": statistics.fmean(r.objective for r in power) if power else 0.0,
        # Mean gap of results not proven optimal to their best proven bound.
        "gap_pct": statistics.fmean(100 * (r.objective - r.extra["power_bound"]) / r.objective
                                    for r in unproven) if unproven else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    exact = [r for r in records if r.method in ("ilp-sm", "qp-lr-ub", "idle-min", "idle-max")]
    context = {
        "jobs": len(records),
        "job_ms_tail_percentile": p,
        "setup_s_samples": [s for _, s in setup_times],
        "setup_s_raw_samples": [raw for raw, _ in setup_times],
        "wall_s_raw": sum(r.seconds for r in records),
        "job_ms_p50_raw": statistics.median(1e3 * r.seconds for r in records),
        "failed_share": failed / len(records),
        "optimal_share": (sum(r.status == "optimal" for r in exact) / len(exact)) if exact else None,
        "power_figures": len(power),
        "gap_figures": len(unproven),
    }
    return values, context


def _run_pass(workloads, inputs, units, workdir, tracker=None):
    records = []
    for unit in units:
        records += workloads.run_unit(inputs, unit, workdir, tracker=tracker)
    if tracker is not None:
        tracker.flush()
    return records


def _gate(gate, inputs, records, reference) -> int:
    if inputs.workload == "cli-pipeline":
        gate.check_cli_records(records, inputs.units, inputs.coefficients)
    else:
        gate.check_solver_records(records, inputs.units, inputs.coefficients)
    if reference is not None:
        gate.check_reference(records, reference)
    return sum(1 for r in records if r.problems)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thermosched", "__init__.py")):
        print("bench: run from the root of a thermosched checkout "
              "(src/thermosched is missing)", file=sys.stderr)
        return 2
    os.environ["THERMOSCHED_THREADS"] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import gate
    import tracer as tracing
    import workloads

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    env = _environment(root, args)
    setup_times = [] if args.trace else [_setup_seconds(root, args) for _ in range(SETUP_REPEATS)]
    tracer = tracing.Tracer() if args.trace else None

    def traced_by(t):
        return t.installed() if t is not None else contextlib.nullcontext()

    origin = time.perf_counter()
    with traced_by(tracer):
        if tracer is not None:
            tracer.job = "setup"
        inputs = workloads.build(args.workload, args.seed, args.seconds)

    reference_path = os.path.join(BENCH_DIR, "reference", f"{args.workload}.json")
    reference = None
    if args.seed == REFERENCE_SEED and not args.record_reference and os.path.exists(reference_path):
        with open(reference_path, encoding="utf-8") as f:
            reference = json.load(f)

    # The work directory is kept from run to run, and the CLI's files in it
    # exist before the timed jobs rewrite them. Creating a file on ext4 cost
    # several times as much as rewriting one, and the deletions of one run
    # slowed the creations of the next, which moved cli-pipeline's job
    # times from run to run.
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}")
    warmup_dir, plain_dir, traced_dir = (os.path.join(workdir, sub)
                                         for sub in ("warmup", "plain", "traced"))
    for where in (warmup_dir, plain_dir, traced_dir):
        os.makedirs(where, exist_ok=True)
    _run_pass(workloads, inputs, inputs.units[:workloads.WARMUP_UNITS], warmup_dir)
    for where in (plain_dir, traced_dir):
        workloads.prime_files(warmup_dir, inputs.units, where)
    tracker = speed.Tracker()
    if tracer is None:
        plain = _run_pass(workloads, inputs, inputs.units, plain_dir, tracker)
        traced = []
    else:
        # Half the list, each unit once untraced and once traced, in
        # alternating order so drift hits both sides alike.
        plain, traced = [], []
        sides = [(plain, plain_dir, None), (traced, traced_dir, tracer)]
        for i, unit in enumerate(inputs.units[: max(1, len(inputs.units) // 2)]):
            for records, where, t in (sides if i % 2 == 0 else sides[::-1]):
                with traced_by(t):
                    records += workloads.run_unit(inputs, unit, where, t, tracker)
        tracker.flush()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate_start = time.perf_counter()
    failed = _gate(gate, inputs, plain, reference) + _gate(gate, inputs, traced, reference)
    gate_s = time.perf_counter() - gate_start

    attempted = len(plain) + len(traced)
    if tracer is None:
        values, context = end_to_end(plain, failed, setup_times, peak_rss_mb)
        metrics = select_metrics(values, spec["end_to_end"])
    else:
        values = tracing.layer_metrics(tracer.spans)
        wall_plain = sum(r.scaled_seconds for r in plain)
        wall_traced = sum(r.scaled_seconds for r in traced)
        values["trace.overhead_pct"] = 100.0 * (wall_traced / wall_plain - 1.0)
        metrics = select_metrics(values, spec["per_layer"])
        context = {"jobs": attempted, "spans": len(tracer.spans),
                   "wall_s_untraced": wall_plain, "wall_s_traced": wall_traced}
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"), origin)

    problems = [{"job": r.key, "problems": r.problems} for r in plain + traced if r.problems]
    entries = gate.reference_entries(plain) if args.record_reference and not problems else None
    if entries:
        os.makedirs(os.path.dirname(reference_path), exist_ok=True)
        with open(reference_path, "w", encoding="utf-8") as f:
            json.dump(entries, f, indent=0, sort_keys=True)
            f.write("\n")

    context["gate_s"] = gate_s
    context["speed_probes"] = len(tracker.probes)
    context["speed_probe_ms_p50"] = 1e3 * statistics.median(tracker.probes)
    log = {"env": env, "metrics": metrics, "context": context, "problems": problems[:50]}
    log_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(log_path, "w", encoding="utf-8") as f:
        json.dump(log, f, indent=2)
        f.write("\n")

    print("env " + json.dumps(env, sort_keys=True))
    print("context " + json.dumps(context, sort_keys=True))
    for p in problems[:10]:
        print(f"FAILED {p['job']}: {'; '.join(p['problems'])}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
