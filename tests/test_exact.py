import dataclasses
import json
import random
from pathlib import Path

import pytest

import helpers
import thermosched as ts
from thermosched.exact import ObjectiveKind, ObjectiveSpec, PartialFix, SearchStatus
from thermosched.generator import GeneratorConfig, generate_instance, sweep_seed
from thermosched.power import RegressionCoefficients

PINNED_SEARCH = Path(__file__).parent / "data" / "exact_pinned_search.json"

ALL_KINDS = (
    ObjectiveKind.SM_POWER,
    ObjectiveKind.LR_UB_POWER,
    ObjectiveKind.IDLE_MIN,
    ObjectiveKind.IDLE_MAX,
)


def spec(kind):
    return ObjectiveSpec(kind, helpers.MEK_COEFF)


def single_core_pair_instance():
    """Two tasks, two single-core clusters, one window; e = [[10, 5], [10, 5]]."""
    plat = ts.Platform(
        clusters=(
            ts.Cluster(id=1, core_count=1, label="a", frequency_mhz=1000),
            ts.Cluster(id=2, core_count=1, label="b", frequency_mhz=1000),
        ),
        idle_power_watts=1.0,
    )
    tasks = tuple(
        ts.Task(i, f"t{i}", (
            ts.TaskCharacteristics(1, 10, 0.5, 0.5),
            ts.TaskCharacteristics(2, 5, 0.5, 0.5),
        ))
        for i in (1, 2)
    )
    return ts.Instance(plat, tasks, 10, 1)


class TestSolveBasics:
    def test_feasibility_stops_at_first_feasible(self):
        instance = helpers.small_random_instance(0)
        result = ts.solve(instance, ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY))
        assert result.status is SearchStatus.OPTIMAL
        assert ts.check_feasible(instance, result.assignment).feasible
        assert result.objective_value == 0.0

    def test_seed_ties_go_to_the_lower_cluster_id(self):
        # Equal times on both clusters: the first seed map puts every task
        # on cluster 1, where all three fit, so the witness does too.
        tasks = tuple(
            ts.Task(i, f"t{i}", (
                ts.TaskCharacteristics(1, 50, 0.2, 0.3),
                ts.TaskCharacteristics(2, 50, 0.2, 0.3),
            ))
            for i in (1, 2, 3)
        )
        instance = ts.Instance(helpers.MEK, tasks, 1000, 2)
        result = ts.solve(instance, ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY))
        assert [p.cluster for p in result.assignment.placements] == [1, 1, 1]

    def test_idle_min_picks_longest_feasible_times(self):
        instance = single_core_pair_instance()
        result = ts.solve(instance, spec(ObjectiveKind.IDLE_MIN))
        assert result.status is SearchStatus.OPTIMAL
        # one task per cluster; both task-to-cluster matchings give 10 + 5
        assert result.objective_value == pytest.approx(10 * 2 - 15)
        clusters = sorted(p.cluster for p in result.assignment.placements)
        assert clusters == [1, 2]

    def test_sm_matches_brute_force_on_eight_tasks(self):
        instance = helpers.small_random_instance(100, n=8)
        sm = spec(ObjectiveKind.SM_POWER)
        exact = ts.solve(instance, sm)
        oracle = ts.brute_force_optimum(instance, sm)
        assert exact.status == oracle.status
        if exact.status is SearchStatus.OPTIMAL:
            assert exact.objective_value == pytest.approx(oracle.objective_value, abs=1e-9)

    def test_optimal_bound_equals_objective(self):
        instance = helpers.small_random_instance(4)
        for kind in ALL_KINDS:
            result = ts.solve(instance, spec(kind))
            if result.status is SearchStatus.OPTIMAL:
                assert result.lower_bound == pytest.approx(result.objective_value, abs=1e-9)

    def test_reported_sm_objective_matches_schedule_power(self):
        for seed in range(8):
            instance = helpers.small_random_instance(seed)
            result = ts.solve(instance, spec(ObjectiveKind.SM_POWER))
            if result.status is SearchStatus.OPTIMAL:
                recomputed = ts.schedule_power(instance, result.assignment, "sm").watts
                assert result.objective_value == pytest.approx(recomputed, abs=1e-9)

    def test_invalid_partial_fix(self):
        instance = helpers.small_random_instance(1)
        with pytest.raises(ValueError):
            ts.solve(instance, spec(ObjectiveKind.SM_POWER), PartialFix.of({999: 1}))
        with pytest.raises(ValueError):
            ts.solve(instance, spec(ObjectiveKind.SM_POWER), PartialFix.of({1: 99}))

    def test_lr_ub_requires_coefficients(self):
        instance = helpers.small_random_instance(1)
        with pytest.raises(ValueError):
            ts.solve(instance, ObjectiveSpec(ObjectiveKind.LR_UB_POWER))

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda k: k.value)
    def test_rejects_per_cluster_out_of_order(self, kind):
        # The searches read per_cluster by cluster position, so any other
        # order would give wrong optima and false infeasibility; no solve of
        # any kind ever sees one, because the instance refuses it when built.
        instance = helpers.small_random_instance(5)
        reversed_tasks = tuple(
            dataclasses.replace(t, per_cluster=t.per_cluster[::-1]) for t in instance.tasks
        )
        with pytest.raises(ValueError, match="instance is not usable: .*cluster id order"):
            ts.solve(dataclasses.replace(instance, tasks=reversed_tasks), spec(kind))

    def test_rejects_sub_millisecond_time_limit(self):
        instance = helpers.small_random_instance(1)
        with pytest.raises(ValueError, match="time_limit_ms"):
            ts.solve(instance, spec(ObjectiveKind.SM_POWER), time_limit_ms=0)

    @pytest.mark.parametrize("kind", [ObjectiveKind.SM_POWER, ObjectiveKind.IDLE_MIN])
    def test_accepts_a_sub_millisecond_time_limit(self, kind):
        # the clock is read at every node, so any positive limit can be met
        instance = helpers.small_random_instance(28, n=12, q_max=6)
        result = ts.solve(instance, spec(kind), time_limit_ms=0.5)
        assert result.elapsed_ms < 0.5 + 25.0
        assert result.status in (SearchStatus.OPTIMAL, SearchStatus.FEASIBLE_TIMEOUT)

    def test_timeout_keeps_valid_bound(self):
        # The search needs 14772 nodes, so a 1 ms limit trips at a clock check
        # (one per node) well before it completes.
        instance = helpers.small_random_instance(28, n=12, q_max=6)
        sm = spec(ObjectiveKind.SM_POWER)
        limited = ts.solve(instance, sm, time_limit_ms=1)
        full = ts.solve(instance, sm)
        assert full.status is SearchStatus.OPTIMAL
        assert limited.status is SearchStatus.FEASIBLE_TIMEOUT
        assert limited.nodes_explored < full.nodes_explored
        assert limited.lower_bound <= full.objective_value + 1e-9
        assert limited.objective_value >= full.objective_value - 1e-9


class TestBruteForce:
    def test_single_placement(self):
        plat = ts.Platform(
            clusters=(ts.Cluster(id=1, core_count=1, label="only", frequency_mhz=1000),),
            idle_power_watts=2.0,
        )
        tasks = (ts.Task(1, "t", (ts.TaskCharacteristics(1, 40, 1.0, 0.5),)),)
        instance = ts.Instance(plat, tasks, 100, 1)
        result = ts.brute_force_optimum(instance, ObjectiveSpec(ObjectiveKind.SM_POWER))
        assert result.status is SearchStatus.OPTIMAL
        # unique placement: activity 1.0 * 40 / 100 plus offset 0.5 * 40 / 100
        assert result.objective_value == pytest.approx(2.0 + (40 + 0.5 * 40) / 100)
        assert result.objective_value == pytest.approx(
            ts.schedule_power(instance, result.assignment, "sm").watts, abs=1e-9
        )

    def test_pigeonhole_infeasible(self):
        plat = ts.Platform(
            clusters=(ts.Cluster(id=1, core_count=1, label="only", frequency_mhz=1000),),
            idle_power_watts=0.0,
        )
        tasks = tuple(
            ts.Task(i, f"t{i}", (ts.TaskCharacteristics(1, 10, 0.1, 0.1),))
            for i in (1, 2)
        )
        instance = ts.Instance(plat, tasks, 100, 1)
        result = ts.brute_force_optimum(instance, ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY))
        assert result.status is SearchStatus.INFEASIBLE

    def test_size_guard(self):
        instance = helpers.small_random_instance(5, n=8)
        big = helpers.with_windows(instance, 8)
        with pytest.raises(ValueError, match="guard"):
            ts.brute_force_optimum(big, ObjectiveSpec(ObjectiveKind.SM_POWER))


class TestOracleAgreement:
    def test_all_kinds_match_brute_force(self):
        for seed in range(25):
            instance = helpers.small_random_instance(seed)
            for kind in ALL_KINDS:
                oracle = ts.brute_force_optimum(instance, spec(kind))
                exact = ts.solve(instance, spec(kind))
                assert exact.status == oracle.status, (seed, kind)
                if oracle.status is SearchStatus.OPTIMAL:
                    assert exact.objective_value == pytest.approx(
                        oracle.objective_value, abs=1e-9
                    ), (seed, kind)

    def test_feasibility_with_fixes_matches_brute_force(self):
        rng = random.Random(23)
        feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
        statuses = set()
        for seed in range(25):
            instance = helpers.small_random_instance(seed)
            full = helpers.random_cluster_map(instance, rng)
            fix = dict(rng.sample(sorted(full.items()), rng.randint(0, len(full))))
            partial = PartialFix.of(fix)
            exact = ts.solve(instance, feas, partial)
            oracle = ts.brute_force_optimum(instance, feas, partial)
            assert exact.status == oracle.status, (seed, fix)
            statuses.add(exact.status)
            if exact.status is SearchStatus.OPTIMAL:
                assert ts.check_feasible(instance, exact.assignment).feasible, seed
                placed = {p.task_id: p.cluster for p in exact.assignment.placements}
                assert all(placed[tid] == cid for tid, cid in fix.items()), seed
        assert statuses == {SearchStatus.OPTIMAL, SearchStatus.INFEASIBLE}

    def test_window_symmetry_invariance(self):
        rng = random.Random(9)
        for seed in range(6):
            instance = helpers.small_random_instance(seed)
            result = ts.solve(instance, spec(ObjectiveKind.SM_POWER))
            if result.status is not SearchStatus.OPTIMAL:
                continue
            perm = list(range(1, instance.max_windows + 1))
            rng.shuffle(perm)
            permuted = ts.Assignment.from_placements(
                instance,
                [(p.task_id, perm[p.window - 1], p.cluster) for p in result.assignment.placements],
            )
            assert ts.schedule_power(instance, permuted, "sm").watts == pytest.approx(
                result.objective_value, abs=1e-9
            )


def with_negated_odd_offsets(instance):
    """The instance with the offset coefficients of odd task ids negated."""
    tasks = tuple(
        ts.Task(t.id, t.name, tuple(
            dataclasses.replace(tc, offset_coef=-tc.offset_coef) if t.id % 2 else tc
            for tc in t.per_cluster
        ))
        for t in instance.tasks
    )
    return dataclasses.replace(instance, tasks=tasks)


# Cluster 1's offset rate is negative, so some tasks have a negative LR-UB
# rate and the searches' h-scaled safe terms come into play.
SIGNED_COEFF = RegressionCoefficients(betas=((1.205, -0.9), (0.969, 0.456)))


class TestBoundValidity:
    @staticmethod
    def audit(kind, coefficients, best_completion, transform=lambda instance: instance):
        """Every sampled node bound is at most the best completion of its prefix."""
        checked = 0
        for seed in range(20):
            instance = transform(helpers.small_random_instance(seed, n_hi=7, q_max=3))
            records = []
            ts.solve(
                instance,
                ObjectiveSpec(kind, coefficients),
                node_recorder=lambda trail, bound: records.append((trail, bound)),
            )
            rng = random.Random(13)
            sample = records if len(records) <= 100 else rng.sample(records, 100)
            for trail, bound in sample:
                best = best_completion(instance, trail)
                if best is not None:
                    checked += 1
                    assert bound <= best + 1e-9, (seed, trail)
        assert checked >= 100

    def test_node_bounds_admissible(self):
        self.audit(ObjectiveKind.SM_POWER, None, helpers.best_sm_completion)

    def test_sm_node_bounds_admissible_with_negative_offsets(self):
        self.audit(
            ObjectiveKind.SM_POWER, None, helpers.best_sm_completion,
            with_negated_odd_offsets,
        )

    @pytest.mark.parametrize("coefficients", [helpers.MEK_COEFF, SIGNED_COEFF],
                             ids=["mek", "signed"])
    def test_lr_ub_node_bounds_admissible(self, coefficients):
        self.audit(
            ObjectiveKind.LR_UB_POWER,
            coefficients,
            lambda instance, trail: helpers.best_lrub_completion(
                instance, trail, coefficients
            ),
        )

    @pytest.mark.parametrize("variant", ["plain", "negated-odd-offsets", "partial-fix"])
    def test_sm_root_bound_at_most_brute_force_optimum(self, monkeypatch, variant):
        """The offset-charging SM root bound never exceeds the proven optimum.

        The root bound is what a timeout reports; it is read here from the
        search's _finish call, since these searches complete.
        """
        root_bounds = []
        finish = ts.exact._finish

        def spy(t_start, assignment, value, timeout_bound, nodes, aborted):
            root_bounds.append(timeout_bound)
            return finish(t_start, assignment, value, timeout_bound, nodes, aborted)

        monkeypatch.setattr(ts.exact, "_finish", spy)
        sm = spec(ObjectiveKind.SM_POWER)
        rng = random.Random(31)
        checked = 0
        for seed in range(300):
            if checked == 100:
                break
            instance = helpers.small_random_instance(seed)
            partial = None
            if variant == "negated-odd-offsets":
                instance = with_negated_odd_offsets(instance)
            elif variant == "partial-fix":
                full = helpers.random_cluster_map(instance, rng)
                fix = rng.sample(sorted(full.items()), rng.randint(1, len(full)))
                partial = PartialFix.of(dict(fix))
            oracle = ts.brute_force_optimum(instance, sm, partial)
            if oracle.status is not SearchStatus.OPTIMAL:
                continue
            root_bounds.clear()
            ts.solve(instance, sm, partial)
            checked += 1
            (root_bound,) = root_bounds
            assert root_bound <= oracle.objective_value + 1e-9, seed
        assert checked == 100


def test_timeout_bound_charges_window_offsets():
    """A forced timeout at n=24 reports a bound that charges window offsets.

    The offset charge lifts it 4.5 % above the activity-only bound
    p_idle + sum_t min_k ae_tk / h; an activity-only root bound fails this.
    """
    instance = pinned_instance({"sweep": [0, 24, 0], "kappa": 3.5})
    result = ts.solve(instance, spec(ObjectiveKind.SM_POWER), time_limit_ms=1)
    assert result.status is SearchStatus.FEASIBLE_TIMEOUT
    activity_only = instance.platform.idle_power_watts + sum(
        min(tc.activity_coef * tc.exec_time_ms for tc in t.per_cluster)
        for t in instance.tasks
    ) / instance.major_frame_ms
    assert result.lower_bound >= 1.03 * activity_only
    assert result.lower_bound <= result.objective_value


class TestPartialFix:
    def test_fix_forces_cluster(self):
        instance = helpers.small_random_instance(21)
        fix = {t.id: 1 for t in instance.tasks}
        result = ts.solve(
            instance, ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY), PartialFix.of(fix)
        )
        if result.status is SearchStatus.OPTIMAL:
            assert all(p.cluster == 1 for p in result.assignment.placements)

    def test_full_fix_returns_the_aligned_grouping(self):
        # The assignment is built straight from the grouping's lengths; it
        # must equal the independent rebuild, tight window lengths included.
        rng = random.Random(31)
        feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
        fits = set()
        for seed in range(40):
            instance = helpers.small_random_instance(seed, n_hi=16, q_max=6)
            full = helpers.random_cluster_map(instance, rng)
            expected = helpers.grouped_assignment(instance, full)
            assert ts.solve(instance, feas, PartialFix.of(full)).assignment == expected, seed
            fits.add(expected is not None)
        assert fits == {True, False}

    def test_feasibility_monotone_under_subsets(self):
        rng = random.Random(17)
        feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
        for seed in range(10):
            instance = helpers.small_random_instance(seed, n_hi=6)
            fix = helpers.random_cluster_map(instance, rng)
            if ts.solve(instance, feas, PartialFix.of(fix)).status is not SearchStatus.OPTIMAL:
                continue
            items = list(fix.items())
            for _ in range(3):
                subset = dict(rng.sample(items, rng.randint(0, len(items))))
                sub = ts.solve(instance, feas, PartialFix.of(subset))
                assert sub.status is SearchStatus.OPTIMAL


def pinned_instance(case):
    if "sweep" in case:
        base_seed, n, rep = case["sweep"]
        config = GeneratorConfig(
            kernel_pool=helpers.MIXED_POOL, n_tasks=n,
            rng_seed=sweep_seed(base_seed, n, rep), tightness_kappa=case["kappa"],
        )
        return generate_instance(config, helpers.MEK)
    seed, kwargs = case["small"]
    return helpers.small_random_instance(seed, **kwargs)


@pytest.mark.parametrize(
    "case", json.loads(PINNED_SEARCH.read_text()), ids=lambda c: c["case"]
)
def test_solve_matches_pinned_search(case):
    """Statuses, node counts and optima recorded from the apply-then-bound window search.

    Equal node counts and assignments show that every search still visits
    the same tree in the same order. Three feasibility-only counts were
    re-recorded when feasibility moved into the cluster search, which does
    not count children it rejects on grouping. Objectives are compared to
    1e-12: the recorded values carry the last-bit drift of window
    accumulators that were restored by subtraction.
    """
    instance = pinned_instance(case)
    partial = PartialFix.of(dict(case["fix"])) if case["fix"] else None
    for kind in ObjectiveKind:
        expected = case["results"][kind.value]
        result = ts.solve(instance, spec(kind), partial)
        placements = (
            None if result.assignment is None
            else [[p.task_id, p.window, p.cluster] for p in result.assignment.placements]
        )
        got = (result.status.value, result.nodes_explored, placements)
        assert got == (expected["status"], expected["nodes_explored"], expected["placements"]), kind
        if expected["objective_value"] is None:
            assert result.objective_value is None
        else:
            assert abs(result.objective_value - expected["objective_value"]) <= 1e-12, kind
