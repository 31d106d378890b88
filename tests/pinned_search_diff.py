"""Compare the recorded exact-search outcomes with what solve() gives now.

Run from the repository root:

    PYTHONPATH=src python3 tests/pinned_search_diff.py

For every case of tests/data/exact_pinned_search.json and every objective
kind it prints the recorded and the current status, node count and
objective, and whether the placements are the same; moved placements are
printed in full. The last line counts the entries that moved. The file is
only read: an entry that moves on purpose is re-recorded by hand, and this
listing is what a change note quotes.

With --sweep it instead prints one line per generated instance and kind,
to be diffed between two checkouts, each run with its own src on the path:

    PYTHONPATH=src python3 tests/pinned_search_diff.py --sweep > new.txt
    PYTHONPATH=../old/src python3 tests/pinned_search_diff.py --sweep > old.txt
    diff old.txt new.txt

A line holds sweep_seed(base, n, r), the kind, the status, the node count,
the repr of the objective and a digest of the placements. The instances are
exact-bnb's core jobs (n = 12, kappa 3.5, bases 0 and 1, r < 432), solved
for SM and LR-UB power in the window search and for idle-min, idle-max and
feasibility-only in the cluster search: 4,320 searches.

With --ga it prints one line per genetic search in the same way:
sweep_seed(base, n, r), the model, the generation and restart counts, the
repr of the best fitness and digests of the trace and of the best
placements. The runs are ga-loose's jobs (n = 20, 25, 30 by turns,
kappa 1.0, population 50, 10 generations, the instance's seed as the GA's,
bases 0 and 1, r < 32), for SM and LR fitness: 128 runs.

With --cli it prints one line per file that cli-pipeline's session writes:
sweep_seed(base, n, r), the file's suffix and a digest of its bytes. A
session runs `generate`, `solve` with heur, flow-fixed on heur's window
lengths and idle-max, and `evaluate` of heur's assignment under SM, LR and
LR-UB with the imx8-mek coefficients, in a temporary directory, on
instances with n = 30, 40, 50, 60 by turns, kappa 3.5, bases 0 and 1,
r < 8: 16 sessions. Before hashing, the started_at, finished_at and
elapsed_ms lines are dropped and the directory's path becomes "<dir>".

With --ratio it prints criterion 12's timing margin: for n = 20, 25, 30,
35 and 40, the median run_method time of heur and of idle-max on the
criterion's instance (sweep_seed(0, n, 0), default generator settings) and
their ratio. Each median is over 15 interleaved calls after one untimed
warm-up call per method. The criterion needs heur slower than idle-max at
every one of these sizes, so a change to the feasibility oracle reports
this listing before and after.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import tempfile

import helpers
import thermosched as ts
from thermosched import cli
from thermosched.generator import GeneratorConfig, generate_instance, sweep_seed


def _digest(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


def _describe(entry: dict) -> str:
    value = entry["objective_value"]
    shown = "-" if value is None else repr(value)
    return f"{entry['status']} {entry['nodes_explored']} nodes {shown}"


def compare_pinned() -> None:
    moved = 0
    total = 0
    for case in helpers.pinned_search_cases():
        for kind, new in helpers.pinned_search_results(case).items():
            old = case["results"][kind]
            total += 1
            same_placements = old["placements"] == new["placements"]
            changed = not same_placements or any(
                old[k] != new[k] for k in ("status", "nodes_explored", "objective_value")
            )
            moved += changed
            mark = "MOVED" if changed else "same "
            line = f"{mark} {case['case']:<24} {kind:<17} {_describe(old)} -> {_describe(new)}"
            print(line + ("" if same_placements else "  placements differ"))
            if not same_placements:
                print(f"      old placements: {old['placements']}")
                print(f"      new placements: {new['placements']}")
    print(f"{moved} of {total} entries moved")


# exact-bnb's core jobs: n = 12 at kappa 3.5, bases 0 and 1, r < 432.
SWEEP_BASES = (0, 1)
SWEEP_N = 12
SWEEP_KAPPA = 3.5
SWEEP_REPS = 432
SWEEP_KINDS = (
    ts.ObjectiveKind.SM_POWER,
    ts.ObjectiveKind.LR_UB_POWER,
    ts.ObjectiveKind.IDLE_MIN,
    ts.ObjectiveKind.IDLE_MAX,
    ts.ObjectiveKind.FEASIBILITY_ONLY,
)


def list_sweep() -> None:
    specs = [ts.ObjectiveSpec(kind, helpers.MEK_COEFF) for kind in SWEEP_KINDS]
    for base in SWEEP_BASES:
        for r in range(SWEEP_REPS):
            instance = helpers.pinned_instance({"sweep": [base, SWEEP_N, r], "kappa": SWEEP_KAPPA})
            for spec in specs:
                result = ts.solve(instance, spec)
                placements = None if result.assignment is None else result.assignment.placements
                print(
                    sweep_seed(base, SWEEP_N, r), spec.kind.value, result.status.value,
                    result.nodes_explored, repr(result.objective_value), _digest(placements),
                )


# ga-loose's jobs: n = 20, 25, 30 by turns at kappa 1.0, bases 0 and 1, r < 32.
GA_BASES = (0, 1)
GA_N = (20, 25, 30)
GA_KAPPA = 1.0
GA_REPS = 32
GA_MODELS = ("sm", "lr")


def list_ga() -> None:
    for base in GA_BASES:
        for r in range(GA_REPS):
            n = GA_N[r % len(GA_N)]
            seed = sweep_seed(base, n, r)
            instance = helpers.pinned_instance({"sweep": [base, n, r], "kappa": GA_KAPPA})
            config = ts.GaConfig(population_size=50, max_generations=10, rng_seed=seed)
            for model in GA_MODELS:
                result = ts.run_ga(instance, model, config, helpers.MEK_COEFF)
                placements = None if result.assignment is None else result.assignment.placements
                print(
                    seed, model, result.generations, result.restarts, repr(result.fitness),
                    _digest(result.trace), _digest(placements),
                )


# cli-pipeline's sessions: n = 30, 40, 50, 60 by turns at kappa 3.5, bases 0 and 1, r < 8.
CLI_BASES = (0, 1)
CLI_N = (30, 40, 50, 60)
CLI_KAPPA = 3.5
CLI_REPS = 8
CLI_EVAL_MODELS = ("sm", "lr", "lr-ub")
CLI_VOLATILE = (b'"started_at": ', b'"finished_at": ', b'"elapsed_ms": ')


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {argv}")


def _run_session(stem: str, n: int, seed: int) -> None:
    instance, heur = stem + ".instance.json", stem + ".heur.json"
    _cli(["generate", "--n", str(n), "--kappa", str(CLI_KAPPA), "--kernels", "mixed",
          "--platform", "imx8-mek", "--seed", str(seed), "-o", instance])
    _cli(["solve", instance, "--method", "heur", "-o", heur])
    with open(heur, encoding="utf-8") as f:
        lengths = ",".join(map(str, json.load(f)["window_lengths_ms"]))
    _cli(["solve", instance, "--method", "flow-fixed", "--window-lengths", lengths,
          "-o", stem + ".flow-fixed.json"])
    _cli(["solve", instance, "--method", "idle-max", "-o", stem + ".idle-max.json"])
    for model in CLI_EVAL_MODELS:
        _cli(["evaluate", instance, heur, "--model", model, "--coefficients", "imx8-mek",
              "-o", stem + f".evaluate-{model}.json"])


def list_cli() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        token = workdir.encode()
        for base in CLI_BASES:
            for r in range(CLI_REPS):
                n = CLI_N[r % len(CLI_N)]
                seed = sweep_seed(base, n, r)
                _run_session(os.path.join(workdir, str(seed)), n, seed)
                for name in sorted(os.listdir(workdir)):
                    path = os.path.join(workdir, name)
                    with open(path, "rb") as f:
                        kept = b"".join(
                            line.replace(token, b"<dir>") for line in f
                            if not line.lstrip().startswith(CLI_VOLATILE)
                        )
                    os.remove(path)
                    print(seed, name.split(".", 1)[1], hashlib.sha1(kept).hexdigest()[:16])


# criterion 12's timed sizes and budget; heur must be slower than idle-max at each
RATIO_N = (20, 25, 30, 35, 40)
RATIO_METHODS = ("heur", "idle-max")
RATIO_ROUNDS = 15
RATIO_LIMIT_MS = 60000


def list_ratio() -> None:
    print("n heur_ms idle_max_ms ratio")
    for n in RATIO_N:
        config = GeneratorConfig(
            kernel_pool=helpers.MIXED_POOL, n_tasks=n, rng_seed=sweep_seed(0, n, 0)
        )
        instance = generate_instance(config, helpers.MEK)
        for method in RATIO_METHODS:
            ts.run_method(method, instance, time_limit_ms=RATIO_LIMIT_MS)
        times: dict[str, list[float]] = {method: [] for method in RATIO_METHODS}
        for _ in range(RATIO_ROUNDS):
            for method in RATIO_METHODS:
                outcome = ts.run_method(method, instance, time_limit_ms=RATIO_LIMIT_MS)
                times[method].append(outcome.elapsed_ms)
        heur, idle_max = (statistics.median(times[method]) for method in RATIO_METHODS)
        print(f"{n} {heur:.3f} {idle_max:.3f} {heur / idle_max:.2f}")


def main() -> int:
    modes = {"--sweep": list_sweep, "--ga": list_ga, "--cli": list_cli, "--ratio": list_ratio}
    if len(sys.argv) == 2 and sys.argv[1] in modes:
        modes[sys.argv[1]]()
    elif sys.argv[1:]:
        print(f"usage: {sys.argv[0]} [--sweep | --ga | --cli | --ratio]", file=sys.stderr)
        return 64
    else:
        compare_pinned()
    return 0


if __name__ == "__main__":
    sys.exit(main())
