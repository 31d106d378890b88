"""Correctness gate: every job result is checked outside the timed region.

A job fails the gate when it raised, returned an infeasible assignment,
reported an objective or bound that an independent evaluation does not
reproduce, contradicts another method on the same instance, or (on the
reference seed) differs from the recorded status or optimal value.
"""

from __future__ import annotations

import json
import os

from thermosched.model import check_feasible, load_assignment, load_instance, total_idle_time
from thermosched.power import PowerModel, schedule_power

ABS_TOL = 1e-9
REL_TOL = 1e-12
FLOW_COST_SCALE = 10**9  # networkx network simplex needs integer weights

# Model under which each method's objective is reported.
OBJECTIVE_MODEL = {
    "ilp-sm": PowerModel.SM,
    "bb-sm": PowerModel.SM,
    "qp-lr-ub": PowerModel.LR_UB,
    "bb-lr": PowerModel.LR,
}
IDLE_METHODS = ("idle-min", "idle-max")
EXACT_STATUSES = ("optimal", "feasible_timeout", "infeasible", "unknown_timeout")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def power_lower_bound(instance, model: PowerModel, coefficients) -> float:
    """A proven lower bound on the schedule power of any feasible assignment.

    Every task runs from its window start for its execution time, so LR
    power is exactly idle + sum over tasks of (beta . features) * e / h; the
    cheapest cluster per task bounds it from below, and LR-UB dominates LR
    when every per-task coefficient combination is nonnegative. SM power is
    idle + sum of activity energy / h plus nonnegative offset terms.
    """
    h = instance.major_frame_ms
    total = 0.0
    for task in instance.tasks:
        best = None
        for tc in task.per_cluster:
            if model is PowerModel.SM:
                if tc.offset_coef < 0:
                    raise ValueError("the SM bound needs nonnegative offset coefficients")
                rate = tc.activity_coef
            else:
                beta = coefficients.beta(tc.cluster_id)
                rate = beta[0] * tc.activity_coef + beta[1] * tc.offset_coef
                if rate < 0:
                    raise ValueError("the LR bound needs nonnegative coefficient combinations")
            energy = rate * tc.exec_time_ms
            best = energy if best is None else min(best, energy)
        total += best
    return instance.platform.idle_power_watts + total / h


def _require(rec, ok: bool, message: str) -> bool:
    if not ok:
        rec.problems.append(message)
    return ok


def _check_assignment(rec, instance) -> bool:
    if rec.assignment is None:
        return _require(rec, False, f"status {rec.status} without an assignment")
    try:
        verdict = check_feasible(instance, rec.assignment)
    except ValueError as exc:
        return _require(rec, False, f"malformed assignment: {exc}")
    return _require(rec, verdict.feasible, "infeasible assignment: " + "; ".join(verdict.violations))


def _reevaluate(rec, instance, coefficients):
    """The objective recomputed on a path independent of the method."""
    if rec.method in IDLE_METHODS:
        return float(total_idle_time(instance, rec.assignment))
    return schedule_power(instance, rec.assignment, OBJECTIVE_MODEL[rec.method], coefficients).watts


def check_solver_records(records, units, coefficients) -> None:
    """Gate for exact-bnb and ga-loose records, which come from run_method."""
    by_unit = {u.key: u for u in units}
    groups: dict = {}
    for rec in records:
        if rec.error is not None:
            rec.problems.append(f"raised {rec.error}")
            continue
        instance = by_unit[rec.unit].instance
        if rec.method.startswith("bb-"):
            # At kappa 1.0 random genomes repair, so the GA must find a schedule.
            if not _require(rec, rec.status == "feasible", f"GA status {rec.status}"):
                continue
        elif not _require(rec, rec.status in EXACT_STATUSES, f"unknown status {rec.status}"):
            continue
        if rec.status in ("infeasible", "unknown_timeout"):
            _require(rec, rec.assignment is None, f"status {rec.status} with an assignment")
            continue
        if not _check_assignment(rec, instance):
            continue
        value = _reevaluate(rec, instance, coefficients)
        if not _require(rec, rec.objective is not None and close(rec.objective, value),
                        f"objective {rec.objective!r} but re-evaluation gives {value!r}"):
            continue
        if rec.method in OBJECTIVE_MODEL:
            lb = power_lower_bound(instance, OBJECTIVE_MODEL[rec.method], coefficients)
            _require(rec, rec.objective >= lb - ABS_TOL,
                     f"objective {rec.objective!r} below the proven bound {lb!r}")
            rec.extra["power_bound"] = lb if rec.bound is None else rec.bound
        if rec.status == "optimal":
            _require(rec, rec.bound is not None and close(rec.bound, rec.objective),
                     f"optimal but bound {rec.bound!r} != objective {rec.objective!r}")
        elif rec.status == "feasible_timeout":
            maximize = rec.method == "idle-max"
            ok = rec.bound is not None and (
                rec.bound >= rec.objective - ABS_TOL if maximize else rec.bound <= rec.objective + ABS_TOL
            )
            _require(rec, ok, f"bound {rec.bound!r} on the wrong side of {rec.objective!r}")
        groups.setdefault(rec.unit, []).append(rec)
    for unit_key, recs in groups.items():
        _cross_check(recs, by_unit[unit_key].instance, coefficients)


def _cross_check(recs, instance, coefficients) -> None:
    """A proven optimum may not be beaten by another method's schedule."""
    for best in recs:
        if best.status != "optimal" or best.problems:
            continue
        for other in recs:
            if other is best or other.problems:
                continue
            if best.method in IDLE_METHODS:
                value = float(total_idle_time(instance, other.assignment))
                worse = value > best.objective if best.method == "idle-max" else value < best.objective
                beaten = worse and not close(value, best.objective)
            else:
                value = schedule_power(
                    instance, other.assignment, OBJECTIVE_MODEL[best.method], coefficients
                ).watts
                beaten = value < best.objective and not close(value, best.objective)
            _require(best, not beaten,
                     f"claimed optimum {best.objective!r} beaten by {other.method} ({value!r})")


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _networkx_flow_cost(instance, window_lengths) -> float | None:
    """Min-cost assignment cost for fixed windows by networkx, or None if infeasible."""
    import networkx as nx

    g = nx.DiGraph()
    n = len(instance.tasks)
    g.add_node("sink", demand=n)
    for j, length in enumerate(window_lengths, start=1):
        for c in instance.platform.clusters:
            g.add_edge(("wc", j, c.id), "sink", capacity=c.core_count, weight=0)
    for t in instance.tasks:
        g.add_node(("task", t.id), demand=-1)
        for j, length in enumerate(window_lengths, start=1):
            for tc in t.per_cluster:
                if tc.exec_time_ms <= length:
                    g.add_edge(("task", t.id), ("wc", j, tc.cluster_id), capacity=1,
                               weight=round(tc.effective_energy_cost * FLOW_COST_SCALE))
    try:
        cost, _ = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        return None
    return cost / FLOW_COST_SCALE


def _energy_cost(instance, assignment) -> float:
    return sum(
        instance.task_by_id(p.task_id).on(p.cluster).effective_energy_cost
        for p in assignment.placements
    )


def check_cli_records(records, units, coefficients) -> None:
    """Gate for cli-pipeline records: read back every file the session wrote."""
    by_unit = {u.key: u for u in units}
    sessions: dict = {}
    for rec in records:
        sessions.setdefault(rec.unit, []).append(rec)
    for unit_key, recs in sessions.items():
        try:
            _check_session(recs, by_unit[unit_key], coefficients)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output
            for rec in recs:
                rec.problems.append(f"output unreadable: {exc!r}")


def _unchecked(recs, cause: str) -> None:
    """Jobs that depend on a failed job cannot be verified, so they fail too."""
    for rec in recs:
        if not rec.problems:
            rec.problems.append(f"not checked: {cause}")


def _check_session(recs, unit, coefficients) -> None:
    jobs = {r.method: r for r in recs}
    for rec in recs:
        if rec.error is not None:
            rec.problems.append(rec.error)
        elif rec.extra["exit_code"] != 0:
            rec.problems.append(f"exit code {rec.extra['exit_code']}")
    if any(r.problems for r in recs):
        return
    paths = recs[0].extra["paths"]
    instance = load_instance(paths["instance"])
    gen = jobs["generate"]
    if not _require(gen, instance == unit.instance, "generated instance differs from generate_instance"):
        return _unchecked(recs, "generate failed")

    def solved(rec, path_key):
        doc = _read_json(os.path.splitext(paths[path_key])[0] + ".result.json")
        rec.status, rec.objective, rec.bound = doc["status"], doc["objective_value"], doc["lower_bound"]
        rec.assignment = load_assignment(paths[path_key])
        return _check_assignment(rec, instance)

    heur = jobs["heur"]
    if not (solved(heur, "heur")
            and _require(heur, heur.status == "feasible", f"heur status {heur.status}")):
        return _unchecked(recs, "heur failed")

    flow = jobs["flow-fixed"]
    lengths = [int(x) for x in flow.extra["argv"][flow.extra["argv"].index("--window-lengths") + 1].split(",")]
    flow.extra["window_lengths"] = lengths
    if solved(flow, "flow-fixed") and _require(flow, flow.status == "optimal", f"flow status {flow.status}"):
        cost = _energy_cost(instance, flow.assignment)
        _require(flow, close(flow.objective, cost), f"flow objective {flow.objective!r} but cost {cost!r}")
        _require(flow, close(flow.bound, flow.objective), "flow bound differs from its objective")
        _require(flow, all(a <= b for a, b in zip(flow.assignment.window_lengths_ms, lengths)),
                 "flow assignment exceeds the fixed window lengths")
        heur_cost = _energy_cost(instance, heur.assignment)
        _require(flow, flow.objective <= heur_cost + ABS_TOL,
                 f"flow optimum {flow.objective!r} worse than heur's {heur_cost!r}")
        reference = _networkx_flow_cost(instance, lengths)
        _require(flow, reference is not None and abs(reference - flow.objective) <= 1e-7,
                 f"networkx min-cost flow gives {reference!r}, flow-fixed {flow.objective!r}")

    imax = jobs["idle-max"]
    if solved(imax, "idle-max") and _require(imax, imax.status == "optimal", f"idle-max status {imax.status}"):
        idle = float(total_idle_time(instance, imax.assignment))
        _require(imax, close(imax.objective, idle), f"idle-max objective {imax.objective!r} but idle {idle!r}")
        _require(imax, close(imax.bound, imax.objective), "idle-max bound differs from its objective")
        for other in (heur, flow):
            if other.assignment is not None:
                _require(imax, total_idle_time(instance, other.assignment) <= imax.objective + ABS_TOL,
                         f"idle-max optimum beaten by {other.method}")

    watts = {}
    for m in ("sm", "lr", "lr-ub"):
        rec = jobs[f"evaluate-{m}"]
        model = PowerModel(m)
        doc = _read_json(paths[rec.method])
        rec.objective = watts[m] = doc["watts"]
        expect = schedule_power(instance, heur.assignment, model, coefficients).watts
        _require(rec, close(rec.objective, expect), f"evaluate {m} gives {rec.objective!r}, expected {expect!r}")
        lb = power_lower_bound(instance, model, coefficients)
        _require(rec, rec.objective >= lb - ABS_TOL, f"evaluate {m} below the proven bound {lb!r}")
        rec.extra["power_bound"] = lb
    _require(jobs["evaluate-lr-ub"], watts["lr"] <= watts["lr-ub"] + ABS_TOL, "LR exceeds LR-UB")


def reference_entries(records) -> dict:
    """Facts a later commit must reproduce: proven statuses and optimal values."""
    out = {}
    for rec in records:
        if rec.problems or rec.status is None:
            continue
        if rec.status == "optimal":
            entry = {"status": rec.status, "objective": rec.objective}
            if rec.method == "flow-fixed":
                entry["window_lengths"] = rec.extra["window_lengths"]
            out[rec.key] = entry
        elif rec.status in ("feasible", "infeasible") and not rec.method.startswith("bb-"):
            out[rec.key] = {"status": rec.status}
    return out


def check_reference(records, reference: dict) -> None:
    for rec in records:
        ref = reference.get(rec.key)
        if ref is None or rec.problems:
            continue
        if "window_lengths" in ref and rec.extra.get("window_lengths") != ref["window_lengths"]:
            continue  # flow-fixed ran on other window lengths; nothing to compare
        if not _require(rec, rec.status == ref["status"],
                        f"status {rec.status} but the reference says {ref['status']}"):
            continue
        if "objective" in ref:
            _require(rec, rec.objective is not None and close(rec.objective, ref["objective"]),
                     f"objective {rec.objective!r} but the reference says {ref['objective']!r}")
