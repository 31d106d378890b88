"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite takes several minutes, dominated by the exact-solver
legs of the scalability ordering check. Every test here carries the
`acceptance` marker, so `pytest -m "not acceptance"` runs the fast checks.
"""

import math
import random
import time

import pytest

import helpers
import thermosched as ts
from thermosched.exact import ObjectiveKind, ObjectiveSpec, SearchStatus
from thermosched.flow import build_network, min_cost_assignment
from thermosched.generator import GeneratorConfig, generate_instance, scalability_sweep

pytestmark = pytest.mark.acceptance


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _best_of(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def feasible_pack():
    """Exactly 1000 feasible assignments drawn over 20 random instances."""
    rng = random.Random(2024)
    pack = []
    seed = 500
    instances = 0
    while instances < 20:
        instance = helpers.small_random_instance(
            seed, n_lo=4, n_hi=8, q_max=4, kappa_lo=2.0, kappa_hi=3.2
        )
        seed += 1
        sampled = helpers.random_feasible_assignments(instance, rng, 50, 6000)
        if len(sampled) < 50:
            continue
        instances += 1
        pack.extend((instance, a) for a in sampled)
    assert len(pack) == 1000
    return pack


def test_criterion_01_sm_worked_example():
    instance = helpers.worked_example()
    assignment = helpers.worked_example_assignment(instance)
    tcs = [instance.task_by_id(p.task_id).on(p.cluster) for p in assignment.placements]
    est = ts.sm_window_power(instance.platform, tcs, 700)
    runtime = _best_of(lambda: ts.sm_window_power(instance.platform, tcs, 700))
    ok = abs(est.watts - 8.58) <= 0.01 and runtime < 1e-3
    _report(
        "criterion 1: SM worked example",
        ok,
        f"{est.watts:.4f} W vs 8.58 +/- 0.01, {runtime * 1e6:.0f} us",
    )


def test_criterion_02_lr_worked_example():
    instance = helpers.worked_example()
    assignment = helpers.worked_example_assignment(instance)
    coeff = helpers.MEK_COEFF
    est = ts.schedule_power(instance, assignment, "lr", coeff)
    intervals = ts.decompose_intervals(instance, assignment, 1)
    contribs = [
        (ts.lr_interval_power(instance.platform, coeff, iv, instance).watts
         - instance.platform.idle_power_watts) * iv.length_ms / instance.major_frame_ms
        for iv in intervals
    ]
    runtime = _best_of(lambda: ts.schedule_power(instance, assignment, "lr", coeff))
    ok = (
        abs(est.watts - 8.17) <= 0.01
        and len(contribs) == 3
        and abs(contribs[0] - 1.92) <= 0.01
        and abs(contribs[1] - 0.37) <= 0.01
        and abs(contribs[2] - 0.38) <= 0.01
        and runtime < 1e-3
    )
    _report(
        "criterion 2: LR worked example",
        ok,
        f"{est.watts:.4f} W vs 8.17, intervals "
        + "/".join(f"{c:.4f}" for c in contribs)
        + f", {runtime * 1e6:.0f} us",
    )


def test_criterion_03_exact_solver_optimality():
    kinds = (
        ObjectiveKind.SM_POWER,
        ObjectiveKind.LR_UB_POWER,
        ObjectiveKind.IDLE_MIN,
        ObjectiveKind.IDLE_MAX,
    )
    t0 = time.perf_counter()
    matched = {kind: 0 for kind in kinds}
    for seed in range(50):
        instance = helpers.small_random_instance(seed)
        for kind in kinds:
            spec = ObjectiveSpec(kind, helpers.MEK_COEFF)
            oracle = ts.brute_force_optimum(instance, spec)
            exact = ts.solve(instance, spec)
            if exact.status == oracle.status and (
                oracle.status is not SearchStatus.OPTIMAL
                or abs(exact.objective_value - oracle.objective_value) <= 1e-9
            ):
                matched[kind] += 1
    elapsed = time.perf_counter() - t0
    ok = all(v == 50 for v in matched.values()) and elapsed < 60.0
    _report(
        "criterion 3: exact-solver optimality",
        ok,
        ", ".join(f"{k.value} {v}/50" for k, v in matched.items())
        + f", total {elapsed:.1f} s",
    )


def test_criterion_04_flow_solver():
    rng = random.Random(404)
    matched = 0
    for seed in range(50):
        instance = helpers.small_random_instance(seed + 300, n_lo=3, n_hi=8)
        lengths = tuple(helpers.random_fixed_lengths(instance, rng))
        result = min_cost_assignment(build_network(instance, lengths))
        expected = helpers.flow_oracle_min_cost(instance, lengths)
        if expected is None:
            matched += not result.feasible
        else:
            matched += result.feasible and abs(result.total_cost - expected) <= 1e-9

    big = generate_instance(
        GeneratorConfig(kernel_pool=helpers.MIXED_POOL, n_tasks=60, rng_seed=3),
        helpers.MEK,
    )
    big = helpers.with_windows(big, 30)
    witness = ts.solve(big, ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY))
    assert witness.status is SearchStatus.OPTIMAL
    t0 = time.perf_counter()
    big_result = min_cost_assignment(
        build_network(big, witness.assignment.window_lengths_ms)
    )
    big_elapsed = time.perf_counter() - t0
    ok = matched == 50 and big_result.feasible and big_elapsed < 1.0
    _report(
        "criterion 4: flow-solver correctness and speed",
        ok,
        f"oracle {matched}/50, n=60 q=30 in {big_elapsed * 1e3:.0f} ms",
    )


def test_criterion_05_reconstruction_soundness():
    import numpy as np

    rng = np.random.default_rng(5)
    unsound = 0
    produced = 0
    for seed in range(20):
        instance = helpers.small_random_instance(seed + 700, n_lo=4, n_hi=10, q_max=8)
        n = len(instance.tasks)
        for _ in range(1000):
            assignment = ts.reconstruct(rng.random(n), instance)
            if assignment is None:
                continue
            produced += 1
            if not ts.check_feasible(instance, assignment).feasible:
                unsound += 1
    ok = unsound == 0
    _report(
        "criterion 5: reconstruction soundness",
        ok,
        f"20000 genomes, {produced} feasible outputs, {unsound} unsound",
    )


def test_criterion_06_greedy_completeness():
    feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
    agreed = 0
    infeasible_seen = 0
    for seed in range(100):
        instance = helpers.small_random_instance(
            seed + 900, n_lo=2, n_hi=6, kappa_lo=2.5, kappa_hi=5.5
        )
        oracle = ts.brute_force_optimum(instance, feas)
        assignment = ts.greedy(instance)
        oracle_feasible = oracle.status is SearchStatus.OPTIMAL
        if oracle_feasible == (assignment is not None):
            agreed += 1
        if not oracle_feasible:
            infeasible_seen += 1
    ok = agreed == 100
    _report(
        "criterion 6: greedy completeness",
        ok,
        f"{agreed}/100 agree, {infeasible_seen} infeasible instances in the mix",
    )


def test_criterion_07_ga_quality():
    sm = ObjectiveSpec(ObjectiveKind.SM_POWER)
    instances = []
    seed = 200
    while len(instances) < 10:
        candidate = helpers.small_random_instance(
            seed, n=8, q_max=4, kappa_lo=2.2, kappa_hi=3.2
        )
        seed += 1
        oracle = ts.brute_force_optimum(candidate, sm)
        if oracle.status is SearchStatus.OPTIMAL:
            instances.append((candidate, oracle.objective_value))
    within = 0
    gaps = []
    for i, (instance, optimum) in enumerate(instances):
        result = ts.run_ga(
            instance, "sm", ts.GaConfig(rng_seed=i), time_limit_ms=10000
        )
        gap = math.inf
        if result.feasible:
            gap = (result.fitness - optimum) / optimum
        gaps.append(gap)
        if gap <= 0.02:
            within += 1
    ok = within >= 9
    _report(
        "criterion 7: GA quality",
        ok,
        f"{within}/10 within 2%, gaps "
        + ", ".join("inf" if g == math.inf else f"{100 * g:.2f}%" for g in gaps),
    )


def test_criterion_08_lr_ub_dominance(feasible_pack):
    coeff = helpers.MEK_COEFF
    held = 0
    for instance, assignment in feasible_pack:
        ub = ts.schedule_power(instance, assignment, "lr-ub", coeff).watts
        lr = ts.schedule_power(instance, assignment, "lr", coeff).watts
        if ub >= lr - 1e-9:
            held += 1
    ok = held == len(feasible_pack)
    _report("criterion 8: LR-UB dominance", ok, f"{held}/{len(feasible_pack)}")


def test_criterion_09_sm_aggregation_identity(feasible_pack):
    held = 0
    for instance, assignment in feasible_pack:
        direct = ts.schedule_power(instance, assignment, "sm").watts
        linear = helpers.sm_value(instance, assignment)
        if abs(direct - linear) <= 1e-9:
            held += 1
    ok = held == len(feasible_pack)
    _report("criterion 9: SM aggregation identity", ok, f"{held}/{len(feasible_pack)}")


def test_criterion_10_regression_fitter():
    from test_power import synthetic_samples

    platform = helpers.MEK
    betas = ((1.205, 0.270), (0.969, 0.456))
    clean = ts.fit_regression_coefficients(
        synthetic_samples(platform, betas, 50, 0.0, random.Random(0)), platform
    )
    exact_ok = all(
        abs(got - want) <= 1e-6
        for gb, wb in zip(clean.betas, betas)
        for got, want in zip(gb, wb)
    ) and abs(clean.r_squared - 1.0) <= 1e-9
    noisy = ts.fit_regression_coefficients(
        synthetic_samples(platform, betas, 1000, 0.1, random.Random(1)), platform
    )
    ok = exact_ok and noisy.r_squared > 0.95
    _report(
        "criterion 10: regression-fitter recovery",
        ok,
        f"clean R^2 {clean.r_squared:.9f}, noisy R^2 {noisy.r_squared:.4f}",
    )


def test_criterion_11_idle_identity(feasible_pack):
    held = 0
    for instance, assignment in feasible_pack:
        processing = sum(
            instance.task_by_id(p.task_id).on(p.cluster).exec_time_ms
            for p in assignment.placements
        )
        if (
            ts.total_idle_time(instance, assignment) + processing
            == instance.major_frame_ms * instance.platform.total_cores
        ):
            held += 1
    ok = held == len(feasible_pack)
    _report("criterion 11: idle-time identity", ok, f"{held}/{len(feasible_pack)}")


def test_criterion_12_scalability_ordering():
    # One seeded instance per size; the exact method saturates its budget
    # from n = 25 up, so means are far apart and one repetition suffices.
    sizes = [5, 10, 15, 20, 25, 30, 35, 40]
    cells = scalability_sweep(
        sizes=sizes,
        repetitions=1,
        methods=["ilp-sm", "heur", "idle-max"],
        time_limit_ms=60000,
        platform=helpers.MEK,
        kernel_pool=helpers.MIXED_POOL,
        base_seed=0,
    )
    mean = {}
    for cell in cells:
        mean.setdefault((cell.n, cell.method), []).append(cell.elapsed_ms)
    mean = {k: sum(v) / len(v) for k, v in mean.items()}
    ordered = []
    for n in sizes:
        if n < 20:
            continue
        ordered.append(
            mean[(n, "ilp-sm")] > mean[(n, "heur")] > mean[(n, "idle-max")]
        )
    ok = all(ordered)
    detail = "; ".join(
        f"n={n}: {mean[(n, 'ilp-sm')]:.0f}/{mean[(n, 'heur')]:.1f}/{mean[(n, 'idle-max')]:.1f} ms"
        for n in sizes
        if n >= 20
    )
    _report("criterion 12: scalability ordering", ok, detail)
