"""One table of every optimization method: ``METHODS``.

Each entry maps a method name to its runner and to what the method needs:
regression coefficients, fixed window lengths, and whether it is randomized
(seeded by its GaConfig's rng_seed; GaConfig() when none is given). The
one place that rejects an unknown method or a missing input is
``check_methods``; ``run_method`` and the CLI's solve, sweep and compare
all call it. Sweep and compare supply no window lengths, so the check
leaves the fixed-window flow out of them. ``run_method`` also refuses a
time limit that exact.deadline_after refuses before any method runs, so
the fixed-window flow, which reads no limit, refuses it too. Runners look
up ``solve``, ``run_ga``, ``greedy``, ``build_network`` and
``min_cost_assignment`` in this module when called, so replacing such a
name here reaches every method that uses it. Every run happens in the
calling process, one at a time, and a time limit bounds the whole run,
whatever the method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .exact import ObjectiveKind, ObjectiveSpec, deadline_after, solve
from .flow import build_network, min_cost_assignment
from .heuristics import GaConfig, greedy, run_ga
from .model import Assignment, Instance
from .power import PowerModel, RegressionCoefficients


@dataclass
class MethodOutcome:
    method: str
    status: str
    assignment: Assignment | None
    objective: float | None
    bound: float | None
    elapsed_ms: float = 0.0  # wall time of the whole run, set by run_method
    trace: tuple | None = None  # GA fitness trace; None for other methods
    nodes: int | None = None  # search nodes explored; None for non-exact methods


def _exact(kind: ObjectiveKind):
    def run(method, instance, *, time_limit_ms, coefficients, **_):
        result = solve(instance, ObjectiveSpec(kind, coefficients), time_limit_ms=time_limit_ms)
        return MethodOutcome(
            method, result.status.value, result.assignment, result.objective_value,
            result.lower_bound, nodes=result.nodes_explored,
        )

    return run


def _genetic(model: PowerModel):
    def run(method, instance, *, time_limit_ms, coefficients, ga_config, **_):
        result = run_ga(instance, model, ga_config or GaConfig(), coefficients, time_limit_ms)
        # a search that found nothing proves nothing: no verdict
        status, objective = ("feasible", result.fitness) if result.feasible else ("unknown", None)
        return MethodOutcome(method, status, result.assignment, objective, None, trace=result.trace)

    return run


def _greedy(method, instance, *, time_limit_ms, **_):
    try:
        assignment = greedy(instance, time_limit_ms=time_limit_ms)
        status = "feasible" if assignment is not None else "infeasible"
    except TimeoutError:  # the time limit ran out: no verdict
        assignment, status = None, "unknown"
    return MethodOutcome(method, status, assignment, None, None)


def _flow(method, instance, *, window_lengths, **_):
    result = min_cost_assignment(build_network(instance, window_lengths))
    status = "optimal" if result.feasible else "infeasible"
    cost = result.total_cost
    return MethodOutcome(method, status, result.assignment, cost, cost)


@dataclass(frozen=True)
class Method:
    """A method's runner and what it needs besides an instance."""

    run: Callable[..., MethodOutcome]
    needs_coefficients: bool = False
    needs_window_lengths: bool = False
    randomized: bool = False


METHODS = {
    "ilp-sm": Method(_exact(ObjectiveKind.SM_POWER)),
    "qp-lr-ub": Method(_exact(ObjectiveKind.LR_UB_POWER), needs_coefficients=True),
    "bb-sm": Method(_genetic(PowerModel.SM), randomized=True),
    "bb-lr": Method(_genetic(PowerModel.LR), needs_coefficients=True, randomized=True),
    "heur": Method(_greedy),
    "idle-min": Method(_exact(ObjectiveKind.IDLE_MIN)),
    "idle-max": Method(_exact(ObjectiveKind.IDLE_MAX)),
    "flow-fixed": Method(_flow, needs_window_lengths=True),
}
METHOD_NAMES = tuple(METHODS)


def check_methods(methods: Sequence[str], coefficients=None, window_lengths=None) -> None:
    """Raise ValueError unless there is a method and each one has its inputs.

    Coefficients are missing when None; window lengths when None or empty.
    """
    if not methods:
        raise ValueError("no method given")
    for name in methods:
        method = METHODS.get(name)
        if method is None:
            raise ValueError(f"unknown method {name!r}; valid: {', '.join(METHODS)}")
        if method.needs_coefficients and coefficients is None:
            raise ValueError(f"method {name} needs regression coefficients")
        if method.needs_window_lengths and not window_lengths:
            raise ValueError(f"method {name} needs fixed window lengths")


def run_method(
    method: str,
    instance: Instance,
    *,
    time_limit_ms: float | None = None,
    coefficients: RegressionCoefficients | None = None,
    window_lengths: Sequence[int] | None = None,
    ga_config: GaConfig | None = None,
) -> MethodOutcome:
    """Run one method on one instance, time the whole run and normalize the outcome.

    Raises ValueError before the method runs when check_methods refuses it
    or time_limit_ms is not None and not positive (NaN included).
    """
    check_methods([method], coefficients, window_lengths)
    deadline_after(time_limit_ms)  # every method refuses a limit by this one rule
    t0 = time.perf_counter()
    outcome = METHODS[method].run(
        method, instance, time_limit_ms=time_limit_ms, coefficients=coefficients,
        window_lengths=window_lengths, ga_config=ga_config,
    )
    outcome.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return outcome

