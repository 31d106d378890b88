"""Uniform dispatch for every optimization method the toolkit offers.

The method names mirror the comparison table of the experiment harness:
exact searches (ilp-sm, qp-lr-ub, idle-min, idle-max), the black-box
genetic searches (bb-sm, bb-lr), the greedy heuristic (heur) and the
fixed-window flow solver (flow-fixed). Jobs are plain picklable argument
dicts so independent runs can fan out over processes; THERMOSCHED_THREADS
caps that parallelism.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .exact import ObjectiveKind, ObjectiveSpec, solve
from .flow import build_network, min_cost_assignment
from .heuristics import GaConfig, greedy, run_ga
from .model import Assignment, Instance
from .power import PowerModel, RegressionCoefficients

METHOD_NAMES = (
    "ilp-sm",
    "qp-lr-ub",
    "bb-sm",
    "bb-lr",
    "heur",
    "idle-min",
    "idle-max",
    "flow-fixed",
)

_EXACT_KINDS = {
    "ilp-sm": ObjectiveKind.SM_POWER,
    "qp-lr-ub": ObjectiveKind.LR_UB_POWER,
    "idle-min": ObjectiveKind.IDLE_MIN,
    "idle-max": ObjectiveKind.IDLE_MAX,
}


@dataclass
class MethodOutcome:
    method: str
    status: str
    assignment: Assignment | None
    objective: float | None
    bound: float | None
    elapsed_ms: float
    trace: tuple | None = None  # GA fitness trace; None for other methods
    nodes: int | None = None  # search nodes explored; None for non-exact methods


def max_workers() -> int:
    """Parallelism cap from THERMOSCHED_THREADS; defaults to 1."""
    raw = os.environ.get("THERMOSCHED_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def run_method(
    method: str,
    instance: Instance,
    *,
    time_limit_ms: float | None = None,
    seed: int = 0,
    coefficients: RegressionCoefficients | None = None,
    window_lengths: Sequence[int] | None = None,
    ga_config: GaConfig | None = None,
) -> MethodOutcome:
    """Run one method on one instance and normalize the outcome."""
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHOD_NAMES)}")

    if method in _EXACT_KINDS:
        kind = _EXACT_KINDS[method]
        spec = ObjectiveSpec(kind, coefficients)
        result = solve(instance, spec, time_limit_ms=time_limit_ms)
        return MethodOutcome(
            method=method,
            status=result.status.value,
            assignment=result.assignment,
            objective=result.objective_value,
            bound=result.lower_bound,
            elapsed_ms=result.elapsed_ms,
            nodes=result.nodes_explored,
        )

    if method in ("bb-sm", "bb-lr"):
        model = PowerModel.SM if method == "bb-sm" else PowerModel.LR
        config = ga_config
        if config is None:
            if time_limit_ms is None:
                raise ValueError(f"method {method} needs a time limit")
            config = GaConfig(time_limit_ms=time_limit_ms, rng_seed=seed)
        result = run_ga(instance, model, config, coefficients)
        return MethodOutcome(
            method=method,
            # a search that found nothing proves nothing: no verdict
            status="feasible" if result.feasible else "unknown",
            assignment=result.assignment,
            objective=result.fitness if result.feasible else None,
            bound=None,
            elapsed_ms=result.elapsed_ms,
            trace=result.trace,
        )

    if method == "heur":
        t0 = time.perf_counter()
        assignment = greedy(instance, feasibility_time_limit_ms=time_limit_ms)
        elapsed = (time.perf_counter() - t0) * 1000.0
        return MethodOutcome(
            method=method,
            status="feasible" if assignment is not None else "infeasible",
            assignment=assignment,
            objective=None,
            bound=None,
            elapsed_ms=elapsed,
        )

    # flow-fixed
    if window_lengths is None:
        raise ValueError("method flow-fixed needs fixed window lengths")
    t0 = time.perf_counter()
    network = build_network(instance, window_lengths)
    result = min_cost_assignment(network)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return MethodOutcome(
        method="flow-fixed",
        status="optimal" if result.feasible else "infeasible",
        assignment=result.assignment,
        objective=result.total_cost,
        bound=result.total_cost,
        elapsed_ms=elapsed,
    )


def _run_job(job: dict) -> MethodOutcome:
    return run_method(
        job["method"],
        job["instance"],
        time_limit_ms=job.get("time_limit_ms"),
        seed=job.get("seed", 0),
        coefficients=job.get("coefficients"),
        window_lengths=job.get("window_lengths"),
        ga_config=job.get("ga_config"),
    )


def run_jobs(jobs: Sequence[dict], n_workers: int | None = None) -> list[MethodOutcome]:
    """Run independent jobs, possibly across processes, preserving order."""
    workers = max_workers() if n_workers is None else max(1, n_workers)
    if workers == 1 or len(jobs) <= 1:
        return [_run_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))
