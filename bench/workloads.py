"""Seeded inputs and job lists of the three benchmark workloads.

Every workload is a closed loop with a single client: the next job starts
only after the previous one returned. Jobs run in this process, one at a
time, with no process pool. A workload is a list of units; a unit is one
generated instance and the jobs run on it. The number of units follows
from the measured seconds, so a run at the benchmark's fixed length always
runs the same job list for a given seed.

Instances come from ``sweep_seed(seed, n, unit_index)`` on the ``mixed``
kernel pool and the ``imx8-mek`` platform; LR models use the ``imx8-mek``
regression coefficients.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import time
from dataclasses import dataclass, field

import thermosched.cli as cli
import thermosched.generator as generator
import thermosched.model as model
import thermosched.runners as runners
from thermosched.generator import GeneratorConfig, sweep_seed
from thermosched.heuristics import GaConfig
from thermosched.presets import builtin_coefficients, builtin_kernel_pool, builtin_platform

PLATFORM = "imx8-mek"
KERNELS = "mixed"
COEFFICIENTS = "imx8-mek"
TIGHT_KAPPA = 3.5
LOOSE_KAPPA = 1.0

# exact-bnb: many small tight instances, each proven optimal far below its
# budget, plus a short hard tail that always hits its fixed budget and so
# supplies the gap. Per-instance search time is heavy-tailed (at n=16 one
# instance in ten needs over 5 s); at n=12 the slowest of 60 seeds took
# 0.1 s, so the sum over many instances is steady from seed to seed.
EXACT_CORE_N = 12
EXACT_CORE_METHODS = ("ilp-sm", "qp-lr-ub", "idle-min")
EXACT_CORE_BUDGET_MS = 5000.0
EXACT_TAIL_N = (22, 24)
EXACT_TAIL_BUDGET_MS = 300.0
EXACT_TAIL_EVERY = 30  # one tail job per this many core units

# ga-loose: at kappa 1.0 almost every random genome repairs, so the time
# goes to reconstruct, schedule_power and the GA operators. A fixed
# population and generation count and no time limit make evolution
# seed-deterministic.
GA_N = (20, 25, 30)
GA_METHODS = ("bb-sm", "bb-lr")
GA_POPULATION = 50
GA_GENERATIONS = 10

# cli-pipeline: one user session per instance through cli.main.
CLI_N = (30, 40, 50, 60)
CLI_EVAL_MODELS = ("sm", "lr", "lr-ub")

# Units per measured second, calibrated on a 2-core x86_64 machine so that
# the job list takes about the measured seconds at the commit that
# introduced the benchmark.
UNITS_PER_SECOND = {"exact-bnb": 18.0, "ga-loose": 1.35, "cli-pipeline": 8.5}
WARMUP_UNITS = 3


@dataclass
class Unit:
    key: str
    n: int
    gen_seed: int
    instance: object
    jobs: tuple  # job names, in run order
    budget_ms: float | None = None  # exact search time limit


@dataclass
class Record:
    """One job as the client saw it; the gate fills in ``problems``."""

    key: str
    unit: str
    method: str
    seconds: float
    status: str | None = None
    objective: float | None = None
    bound: float | None = None
    assignment: object = None
    error: str | None = None
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    scale: float = 1.0  # machine-speed factor, see speed.py

    @property
    def scaled_seconds(self) -> float:
        """Job time at the nominal machine speed."""
        return self.seconds * self.scale


@dataclass
class Inputs:
    workload: str
    units: list
    coefficients: object


def unit_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds * UNITS_PER_SECOND[workload]))


def _instance(n: int, gen_seed: int, kappa: float):
    """Generate one instance and pass it through a JSON save/load round trip."""
    config = GeneratorConfig(
        kernel_pool=builtin_kernel_pool(KERNELS),
        n_tasks=n,
        tightness_kappa=kappa,
        rng_seed=gen_seed,
    )
    instance = generator.generate_instance(config, builtin_platform(PLATFORM))
    buf = io.StringIO()
    model.save_instance(instance, buf)
    buf.seek(0)
    loaded = model.load_instance(buf)
    if loaded != instance:
        raise RuntimeError(f"instance n={n} seed={gen_seed} changed in a JSON round trip")
    return loaded


def build(workload: str, seed: int, seconds: float) -> Inputs:
    """Everything a run needs before its first job; this is what setup_s times."""
    count = unit_count(workload, seconds)
    units = []
    if workload == "exact-bnb":
        tail = max(2, count // EXACT_TAIL_EVERY)
        for r in range(count):
            s = sweep_seed(seed, EXACT_CORE_N, r)
            units.append(Unit(f"core-n{EXACT_CORE_N}-r{r}", EXACT_CORE_N, s,
                              _instance(EXACT_CORE_N, s, TIGHT_KAPPA), EXACT_CORE_METHODS,
                              EXACT_CORE_BUDGET_MS))
        # Spread the tail evenly through the list; inserting from the back
        # keeps the earlier positions valid.
        for r in reversed(range(tail)):
            n = EXACT_TAIL_N[r % len(EXACT_TAIL_N)]
            s = sweep_seed(seed, n, r)
            unit = Unit(f"tail-n{n}-r{r}", n, s, _instance(n, s, TIGHT_KAPPA), ("ilp-sm",),
                        EXACT_TAIL_BUDGET_MS)
            units.insert((r + 1) * count // (tail + 1), unit)
    elif workload == "ga-loose":
        for r in range(count):
            n = GA_N[r % len(GA_N)]
            s = sweep_seed(seed, n, r)
            units.append(Unit(f"ga-n{n}-r{r}", n, s, _instance(n, s, LOOSE_KAPPA), GA_METHODS))
    elif workload == "cli-pipeline":
        jobs = ("generate", "heur", "flow-fixed", "idle-max") + tuple(
            f"evaluate-{m}" for m in CLI_EVAL_MODELS
        )
        for r in range(count):
            n = CLI_N[r % len(CLI_N)]
            s = sweep_seed(seed, n, r)
            # The instance is what `generate` must write; the gate compares.
            units.append(Unit(f"cli-n{n}-r{r}", n, s, _instance(n, s, TIGHT_KAPPA), jobs))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, units, builtin_coefficients(COEFFICIENTS))


def run_unit(inputs: Inputs, unit: Unit, workdir: str, tracer=None, tracker=None) -> list:
    """Run the jobs of one unit in order and time each call into the package.

    ``tracker``, a ``speed.Tracker``, sees each solver job as it returns
    and each CLI session as a whole. It also stretches search time limits
    by the machine's current slowdown, so that a search that stops at its
    limit gets as far at any machine speed.
    """
    if inputs.workload == "cli-pipeline":
        records = _run_cli_unit(inputs, unit, workdir, tracer)
        if tracker is not None:
            tracker.add(records)
        return records
    records = []
    for method in unit.jobs:
        slowdown = tracker.slowdown if tracker is not None else 1.0
        records.append(_run_method(inputs, unit, method, tracer, slowdown))
        if tracker is not None:
            tracker.add(records[-1:])
    return records


def _run_method(inputs: Inputs, unit: Unit, method: str, tracer, slowdown: float) -> Record:
    key = f"{unit.key}/{method}"
    if tracer is not None:
        tracer.job = key
    kwargs = {"coefficients": inputs.coefficients}
    if method in GA_METHODS:
        kwargs["ga_config"] = GaConfig(
            population_size=GA_POPULATION,
            max_generations=GA_GENERATIONS,
            rng_seed=unit.gen_seed,
        )
    else:
        kwargs["time_limit_ms"] = unit.budget_ms * slowdown
    t0 = time.perf_counter()
    try:
        outcome = runners.run_method(method, unit.instance, **kwargs)
    except Exception as exc:  # one failed job must not end the run
        return Record(key, unit.key, method, time.perf_counter() - t0, error=repr(exc))
    elapsed = time.perf_counter() - t0
    return Record(key, unit.key, method, elapsed, outcome.status,
                  outcome.objective, outcome.bound, outcome.assignment)


def prime_files(warmup_dir: str, units: list, workdir: str) -> None:
    """Create, empty, each file the CLI writes for a unit that lacks it in ``workdir``.

    The names are those the warm-up units left in ``warmup_dir``. Timed
    jobs then rewrite existing files in every run, the first one in a
    checkout too. Workloads that write no files leave nothing to copy.
    """
    warm = {u.key for u in units[:WARMUP_UNITS]}
    suffixes = {name.split(".", 1)[1] for name in os.listdir(warmup_dir)
                if name.split(".", 1)[0] in warm}
    for unit in units:
        for suffix in suffixes:
            path = os.path.join(workdir, f"{unit.key}.{suffix}")
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8"):
                    pass


def cli_paths(workdir: str, unit: Unit) -> dict:
    base = os.path.join(workdir, unit.key)
    paths = {"instance": base + ".instance.json"}
    for job in unit.jobs[1:]:
        paths[job] = base + f".{job}.json"
    return paths


def _cli_argv(unit: Unit, job: str, paths: dict) -> list:
    if job == "generate":
        return ["generate", "--n", str(unit.n), "--kappa", str(TIGHT_KAPPA),
                "--kernels", KERNELS, "--platform", PLATFORM,
                "--seed", str(unit.gen_seed), "-o", paths["instance"]]
    if job.startswith("evaluate-"):
        return ["evaluate", paths["instance"], paths["heur"],
                "--model", job.removeprefix("evaluate-"),
                "--coefficients", COEFFICIENTS, "-o", paths[job]]
    argv = ["solve", paths["instance"], "--method", job, "-o", paths[job]]
    if job == "flow-fixed":
        # The session feeds heur's window lengths to the flow solver.
        with open(paths["heur"], encoding="utf-8") as f:
            lengths = json.load(f)["window_lengths_ms"]
        argv += ["--window-lengths", ",".join(str(x) for x in lengths)]
    return argv


def _run_cli_unit(inputs: Inputs, unit: Unit, workdir: str, tracer) -> list:
    paths = cli_paths(workdir, unit)
    # An earlier run's files are emptied, not deleted, so that the CLI
    # rewrites them and a job that writes nothing fails the gate.
    for path in glob.glob(glob.escape(os.path.join(workdir, unit.key)) + ".*"):
        os.truncate(path, 0)
    records = []
    upstream_failed = False
    sink = io.StringIO()  # the CLI prints one status line per solve
    for job in unit.jobs:
        key = f"{unit.key}/{job}"
        if upstream_failed:
            records.append(Record(key, unit.key, job, 0.0, error="an earlier job of the session failed"))
            continue
        if tracer is not None:
            tracer.job = key
        try:
            argv = _cli_argv(unit, job, paths)
        except (OSError, ValueError, KeyError) as exc:
            records.append(Record(key, unit.key, job, 0.0, error=repr(exc)))
            upstream_failed = True
            continue
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception as exc:  # one failed job must not end the run
            records.append(Record(key, unit.key, job, time.perf_counter() - t0, error=repr(exc)))
            upstream_failed = True
            continue
        elapsed = time.perf_counter() - t0
        sink.seek(0)
        sink.truncate()
        records.append(Record(key, unit.key, job, elapsed,
                              extra={"exit_code": code, "argv": argv, "paths": paths}))
        if code != 0:
            upstream_failed = True
    return records

