import dataclasses
import random
import time

import pytest

import helpers
import thermosched as ts
from thermosched import exact
from thermosched.exact import ObjectiveKind, ObjectiveSpec, SearchStatus, _balanced_cluster_map
from thermosched.generator import GeneratorConfig, generate_instance, sweep_seed
from thermosched.power import RegressionCoefficients

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
            ts.solve(instance, spec(ObjectiveKind.SM_POWER), {999: 1})
        with pytest.raises(ValueError):
            ts.solve(instance, spec(ObjectiveKind.SM_POWER), {1: 99})

    @pytest.mark.parametrize("cid", [1.5, "1", True, None], ids=["float", "str", "bool", "none"])
    @pytest.mark.parametrize("search", [ts.solve, ts.brute_force_optimum], ids=["solve", "brute"])
    def test_fix_to_a_cluster_id_that_is_not_an_int_is_refused(self, search, cid):
        instance = helpers.small_random_instance(1)
        with pytest.raises(ValueError, match=f"^partial fix references unknown cluster {cid}$"):
            search(instance, spec(ObjectiveKind.SM_POWER), {1: cid})

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
        t0 = time.perf_counter()
        result = ts.solve(instance, spec(kind), time_limit_ms=0.5)
        assert (time.perf_counter() - t0) * 1000.0 < 0.5 + 25.0
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
            exact = ts.solve(instance, feas, fix)
            oracle = ts.brute_force_optimum(instance, feas, fix)
            assert exact.status == oracle.status, (seed, fix)
            statuses.add(exact.status)
            if exact.status is SearchStatus.OPTIMAL:
                assert ts.check_feasible(instance, exact.assignment).feasible, seed
                placed = {p.task_id: p.cluster for p in exact.assignment.placements}
                assert all(placed[tid] == cid for tid, cid in fix.items()), seed
        assert statuses == {SearchStatus.OPTIMAL, SearchStatus.INFEASIBLE}

    @pytest.mark.parametrize("variant", ["mek", "signed", "sm", "sm-negated-odd-offsets"])
    def test_lr_ub_with_fixes_matches_brute_force(self, variant):
        # Both window-search objectives read the random partial fixes: each
        # orders its tasks by a key taken over their allowed clusters, and
        # the LR-UB child order prices window growth at the mean cheapest
        # allowed rate. That rate is positive on all 25 cases under MEK;
        # under SIGNED_COEFF it is clamped to 0 on 12 of them.
        objective = {
            "mek": ObjectiveSpec(ObjectiveKind.LR_UB_POWER, helpers.MEK_COEFF),
            "signed": ObjectiveSpec(ObjectiveKind.LR_UB_POWER, SIGNED_COEFF),
        }.get(variant, ObjectiveSpec(ObjectiveKind.SM_POWER))
        rng = random.Random(41)
        statuses = set()
        for seed in range(25):
            instance = helpers.small_random_instance(seed)
            if variant == "sm-negated-odd-offsets":
                instance = helpers.with_negated_odd_offsets(instance)
            full = helpers.random_cluster_map(instance, rng)
            fix = dict(rng.sample(sorted(full.items()), rng.randint(0, len(full))))
            exact = ts.solve(instance, objective, fix)
            oracle = ts.brute_force_optimum(instance, objective, fix)
            assert exact.status == oracle.status, (seed, fix)
            statuses.add(exact.status)
            if exact.status is SearchStatus.OPTIMAL:
                assert exact.objective_value == pytest.approx(
                    oracle.objective_value, abs=1e-9
                ), (seed, fix)
                placed = {p.task_id: p.cluster for p in exact.assignment.placements}
                assert all(placed[tid] == cid for tid, cid in fix.items()), seed
        assert SearchStatus.OPTIMAL in statuses

    @pytest.mark.parametrize("kappa", [3.5, 1.0])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_generated_instances_match_brute_force(self, n, kappa):
        # generated instances have q = n windows, past q <= 5 for n = 6, 7
        optimal = 0
        for rep in range(3):
            config = GeneratorConfig(
                kernel_pool=helpers.MIXED_POOL, n_tasks=n, rng_seed=sweep_seed(0, n, rep),
                tightness_kappa=kappa,
            )
            instance = generate_instance(config, helpers.MEK)
            assert instance.max_windows == n
            for kind in ALL_KINDS:
                oracle = ts.brute_force_optimum(instance, spec(kind))
                exact = ts.solve(instance, spec(kind))
                assert exact.status == oracle.status, (rep, kind)
                if oracle.status is SearchStatus.OPTIMAL:
                    optimal += 1
                    assert exact.objective_value == pytest.approx(
                        oracle.objective_value, abs=1e-9
                    ), (rep, kind)
        assert optimal > 0

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
            helpers.with_negated_odd_offsets,
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

        def spy(assignment, value, timeout_bound, nodes, aborted):
            root_bounds.append(timeout_bound)
            return finish(assignment, value, timeout_bound, nodes, aborted)

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
                instance = helpers.with_negated_odd_offsets(instance)
            elif variant == "partial-fix":
                full = helpers.random_cluster_map(instance, rng)
                fix = rng.sample(sorted(full.items()), rng.randint(1, len(full)))
                partial = dict(fix)
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
    instance = helpers.pinned_instance({"sweep": [0, 24, 0], "kappa": 3.5})
    result = ts.solve(instance, spec(ObjectiveKind.SM_POWER), time_limit_ms=1)
    assert result.status is SearchStatus.FEASIBLE_TIMEOUT
    activity_only = instance.platform.idle_power_watts + sum(
        min(tc.activity_coef * tc.exec_time_ms for tc in t.per_cluster)
        for t in instance.tasks
    ) / instance.major_frame_ms
    assert result.lower_bound >= 1.03 * activity_only
    assert result.lower_bound <= result.objective_value


def six_n16_proof_nodes(kind):
    """Total nodes of proving the six sweep_seed(7, 16, rep) instances optimal."""
    nodes = 0
    for rep in range(6):
        result = ts.solve(helpers.pinned_instance({"sweep": [7, 16, rep], "kappa": 3.5}), spec(kind))
        assert result.status is SearchStatus.OPTIMAL, rep
        nodes += result.nodes_explored
    return nodes


def test_lr_ub_child_order_prices_window_growth():
    """qp-lr-ub proves six n=16 instances within 40,000 nodes in total.

    Ordered by objective change alone, opening a window always sorts first
    under LR-UB, and the same proofs take 181,761 nodes.
    """
    assert six_n16_proof_nodes(ObjectiveKind.LR_UB_POWER) <= 40_000


def test_sm_branches_on_costliest_tasks_first():
    """ilp-sm proves the same six n=16 instances within 60,000 nodes in total.

    Branching on the longest minimum execution time first instead of the
    largest cheapest standalone cost, the same proofs take 393,231 nodes.
    """
    assert six_n16_proof_nodes(ObjectiveKind.SM_POWER) <= 60_000


def _recording(calls, fn):
    def recorded(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    return recorded


def _cheapest_map(instance, score):
    return {t.id: min(t.per_cluster, key=score).cluster_id for t in instance.tasks}


class TestSeedIncumbent:
    """The window search keeps the first seed map that fits and prices it by the closed form."""

    @pytest.mark.parametrize(
        "kind, model", [(ObjectiveKind.SM_POWER, "sm"), (ObjectiveKind.LR_UB_POWER, "lr-ub")],
        ids=["sm", "lr-ub"],
    )
    def test_prices_one_seed_grouping(self, kind, model, monkeypatch):
        # SM tries its activity-energy map first, LR-UB its star-energy map.
        betas = helpers.MEK_COEFF.betas
        own_score = {
            "sm": lambda tc: tc.activity_coef * tc.exec_time_ms,
            "lr-ub": lambda tc: tc.exec_time_ms * (
                tc.activity_coef * betas[tc.cluster_id - 1][0]
                + tc.offset_coef * betas[tc.cluster_id - 1][1]
            ),
        }[model]
        group, closed_form, placed = exact._group, exact._closed_form, exact._placed
        instances = [helpers.small_random_instance(seed) for seed in range(40)] + [
            helpers.pinned_instance({"sweep": [seed, n, 0], "kappa": kappa})
            for seed in range(6) for n in (12, 16) for kappa in (3.5, 5.0)
        ]
        first_fits = later_fits = seed_kept = 0
        for instance in instances:
            groupings, prices, placements = [], [], []
            monkeypatch.setattr(exact, "_group", _recording(groupings, group))
            monkeypatch.setattr(exact, "_closed_form", _recording(prices, closed_form))
            monkeypatch.setattr(exact, "_placed", _recording(placements, placed))
            result = ts.solve(instance, spec(kind))
            monkeypatch.undo()
            # _group takes a map of cluster positions by task index
            (_, first_map), _ = groupings[0]
            first_map = {t.id: ci + 1 for t, ci in zip(instance.tasks, first_map)}
            assert first_map == _cheapest_map(instance, own_score)
            # grouped until the first fit, which alone is priced
            fits = [grouping is not None for _, grouping in groupings]
            assert not any(fits[:-1])
            if not fits[-1]:
                assert prices == []
                continue
            first_fits += len(fits) == 1
            later_fits += len(fits) > 1
            seed = groupings[-1][1]
            (_, seed_power), = prices
            assert seed_power.watts == ts.schedule_power(
                instance, placed(instance, seed), model, helpers.MEK_COEFF
            ).watts
            # placed only when the seed is still the incumbent at the end
            if placements:
                (_, assignment), = placements
                assert result.assignment is assignment
                assert result.objective_value == seed_power.watts
                seed_kept += 1
            else:
                assert result.objective_value < seed_power.watts
        assert first_fits >= 20 and later_fits >= 5 and seed_kept >= 5

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [24, 30, 40, 60])
    def test_returns_an_incumbent_at_once(self, kind, n):
        """Every kind returns the seed when its time runs out at the root.

        The seed is grouped and priced before the search first reads the
        clock, so a 0.5 ms budget still yields a schedule on these tight
        instances, whichever node the deadline cuts.
        """
        for seed in range(12):
            instance = helpers.pinned_instance({"sweep": [seed, n, 0], "kappa": 3.5})
            result = ts.solve(instance, spec(kind), time_limit_ms=0.5)
            assert result.status in (SearchStatus.OPTIMAL, SearchStatus.FEASIBLE_TIMEOUT), seed
            assert ts.check_feasible(instance, result.assignment).feasible, seed


class TestPartialFix:
    def test_fix_forces_cluster(self):
        instance = helpers.small_random_instance(21)
        fix = {t.id: 1 for t in instance.tasks}
        result = ts.solve(
            instance, ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY), fix
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
            assert ts.solve(instance, feas, full).assignment == expected, seed
            fits.add(expected is not None)
        assert fits == {True, False}

    def test_feasibility_monotone_under_subsets(self):
        rng = random.Random(17)
        feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
        for seed in range(10):
            instance = helpers.small_random_instance(seed, n_hi=6)
            fix = helpers.random_cluster_map(instance, rng)
            if ts.solve(instance, feas, fix).status is not SearchStatus.OPTIMAL:
                continue
            items = list(fix.items())
            for _ in range(3):
                subset = dict(rng.sample(items, rng.randint(0, len(items))))
                sub = ts.solve(instance, feas, subset)
                assert sub.status is SearchStatus.OPTIMAL


def test_balanced_seed_map_matches_full_regrouping():
    # The balanced seed map grows one cluster's windows per candidate; it
    # must be the very map that regrouping every cluster gives, including
    # where a cluster overflows its q * cores slots (every later total is
    # then inf and each later task takes its first candidate), not merely a
    # map with the same seed outcome.
    rng = random.Random(5)
    instances = []
    for seed in range(40):
        instance = helpers.small_random_instance(seed, n_hi=12)
        instances += [instance, helpers.with_windows(instance, 1)]
    for n in (30, 45, 60):
        config = GeneratorConfig(
            kernel_pool=helpers.MIXED_POOL, n_tasks=n, rng_seed=sweep_seed(4, n, 0),
            tightness_kappa=3.5,
        )
        instances.append(generate_instance(config, helpers.MEK))
    overflowed = 0
    for instance in instances:
        full = helpers.random_cluster_map(instance, rng)
        partial = dict(rng.sample(sorted(full.items()), len(full) // 3))
        one_cluster = {t.id: 2 for t in instance.tasks[: len(instance.tasks) // 2]}
        for fix in ({}, partial, one_cluster):
            expected = helpers.reference_balanced_map(instance, fix)
            assert _balanced_cluster_map(instance, fix) == expected
            slots = {c.id: instance.max_windows * c.core_count for c in instance.platform.clusters}
            overflowed += any(
                list(expected.values()).count(cid) > cap for cid, cap in slots.items()
            )
    assert overflowed > 20


def _seed_scores(coefficients):
    """Each seed score of the task table as a per-(task, cluster) function."""
    betas = coefficients.betas
    return {
        "fastest": lambda tc: tc.exec_time_ms,
        "activity": lambda tc: tc.activity_coef * tc.exec_time_ms,
        "slowest": lambda tc: -tc.exec_time_ms,
        "star": lambda tc: (
            tc.activity_coef * betas[tc.cluster_id - 1][0]
            + tc.offset_coef * betas[tc.cluster_id - 1][1]
        ) * tc.exec_time_ms,
    }


def tied_scores_instance():
    """Three clusters, where each task ties on some score between two or three clusters.

    Task 1 is the same on every cluster; task 2 ties its slowest time on
    clusters 1 and 3 and its activity energy (0.5 * 10 = 0.25 * 20) on
    clusters 2 and 3; task 3 ties its activity and star energies
    (0.5 * 20 = 1.0 * 10 = 0.25 * 40, with zero offsets) on all three.
    """
    plat = ts.Platform(
        clusters=tuple(
            ts.Cluster(id=k, core_count=2, label=f"c{k}", frequency_mhz=1000) for k in (1, 2, 3)
        ),
        idle_power_watts=1.0,
    )
    tasks = (
        ts.Task(1, "same", tuple(ts.TaskCharacteristics(k, 10, 0.5, 0.25) for k in (1, 2, 3))),
        ts.Task(2, "time-ties", (
            ts.TaskCharacteristics(1, 20, 0.5, 0.25),
            ts.TaskCharacteristics(2, 10, 0.5, 0.25),
            ts.TaskCharacteristics(3, 20, 0.25, 0.5),
        )),
        ts.Task(3, "energy-ties", (
            ts.TaskCharacteristics(1, 20, 0.5, 0.0),
            ts.TaskCharacteristics(2, 10, 1.0, 0.0),
            ts.TaskCharacteristics(3, 40, 0.25, 0.0),
        )),
    )
    coefficients = RegressionCoefficients(betas=((1.0, 1.0),) * 3)
    return ts.Instance(plat, tasks, 100, 3), coefficients


class TestTaskTable:
    """The per-run task table against independent rebuilds of its maps and groupings."""

    def _reference_maps(self, instance, fix, objective):
        """The seed maps as {task id: cluster id}, rebuilt from the tasks in documented order."""
        scores = _seed_scores(objective.coefficients)
        names = {
            ObjectiveKind.SM_POWER: ("activity", "fastest"),
            ObjectiveKind.LR_UB_POWER: ("star", "fastest", "activity"),
            ObjectiveKind.IDLE_MIN: ("slowest", "fastest", "activity"),
        }.get(objective.kind, ("fastest", "activity"))
        maps = [
            {t.id: fix.get(t.id, min(t.per_cluster, key=scores[name]).cluster_id)
             for t in instance.tasks}
            for name in names
        ]
        return maps + [helpers.reference_balanced_map(instance, fix)]

    def _as_dict(self, instance, cluster_of):
        return {t.id: ci + 1 for t, ci in zip(instance.tasks, cluster_of)}

    def test_seed_maps_take_the_first_minimum(self):
        rng = random.Random(23)
        cases = [tied_scores_instance()] + [
            (helpers.small_random_instance(seed, n_hi=12), helpers.MEK_COEFF) for seed in range(30)
        ]
        for instance, coefficients in cases:
            table = exact._TaskTable(instance, coefficients)
            for name, score in _seed_scores(coefficients).items():
                expected = {t.id: min(t.per_cluster, key=score).cluster_id for t in instance.tasks}
                assert self._as_dict(instance, table.seeds[name]) == expected, name
            partial = dict(rng.sample(
                sorted(helpers.random_cluster_map(instance, rng).items()), len(instance.tasks) // 2
            ))
            for fix in ({}, partial):
                fixed = exact._fixed_map(table, fix)
                for kind in ObjectiveKind:
                    objective = ObjectiveSpec(kind, coefficients)
                    maps = [self._as_dict(instance, cluster_of)
                            for cluster_of in exact._seed_maps(table, fixed, objective)]
                    assert maps == self._reference_maps(instance, fix, objective), kind
        # the first minimum wins each tie: clusters 1, 2 and 1 are the first of the tied ones
        instance, coefficients = tied_scores_instance()
        seeds = exact._TaskTable(instance, coefficients).seeds
        assert (seeds["fastest"], seeds["slowest"], seeds["activity"], seeds["star"]) == (
            [0, 1, 1], [0, 0, 2], [0, 1, 0], [0, 1, 0],
        )

    def test_grouping_places_what_the_rebuild_places(self):
        rng = random.Random(29)
        fits = set()
        for seed in range(60):
            instance = helpers.small_random_instance(seed, n_hi=16, q_max=6)
            if seed % 3 == 0:
                instance = helpers.with_windows(instance, 1)
            table = exact._TaskTable(instance, helpers.MEK_COEFF)
            full = helpers.random_cluster_map(instance, rng)
            partial = dict(rng.sample(sorted(full.items()), len(full) // 2))
            maps = [[full[t.id] - 1 for t in instance.tasks]]
            for fix in ({}, partial):
                for kind in ObjectiveKind:
                    maps += exact._seed_maps(table, exact._fixed_map(table, fix), spec(kind))
            for cluster_of in maps:
                grouping = exact._group(table, cluster_of)
                cmap = self._as_dict(instance, cluster_of)
                expected = helpers.grouped_assignment(instance, cmap)
                if expected is None:
                    assert grouping is None
                else:
                    assert exact._placed(instance, grouping) == expected
                fits.add(expected is not None)
        assert fits == {True, False}

    def test_solve_builds_one_table_per_call(self, monkeypatch):
        built = []
        table = exact._TaskTable

        def counted(*args):
            built.append(args[0])
            return table(*args)

        monkeypatch.setattr(exact, "_TaskTable", counted)
        instance = helpers.pinned_instance({"sweep": [2, 12, 0], "kappa": 5.0})
        for kind in ObjectiveKind:
            built.clear()
            ts.solve(instance, spec(kind))
            assert built == [instance], kind


@pytest.mark.parametrize("case", helpers.pinned_search_cases(), ids=lambda c: c["case"])
def test_solve_matches_pinned_search(case):
    """Statuses, node counts and optima recorded from the apply-then-bound window search.

    Equal node counts and assignments show that every search still visits
    the same tree in the same order. Three feasibility-only counts were
    re-recorded when feasibility moved into the cluster search, which does
    not count children it rejects on grouping, ten LR-UB counts when its
    child order began to price window growth, and the SM and LR-UB entries
    when the window search began to branch on each objective's costliest
    tasks first; six SM cases then found another optimum of the same value,
    each checked against the exhaustive enumeration. Two idle-min counts
    were re-recorded when every search began to keep only the first seed
    map that fits. Two cases were then added from that search, before its
    node kernel was rewritten, and none re-recorded: sweep-b7-n16, whose SM
    and LR-UB trees have thousands of nodes, and sweep-b1-n10-negated, whose
    negated odd offsets give windows a negative SM coefficient and so reach
    the h-scaled admissible terms. Objectives are compared to 1e-12: the
    recorded values carry the last-bit drift of window accumulators that
    were restored by subtraction. `PYTHONPATH=src python3
    tests/pinned_search_diff.py` lists what moved.
    """
    for kind, got in helpers.pinned_search_results(case).items():
        expected = case["results"][kind]
        keys = ("status", "nodes_explored", "placements")
        assert [got[k] for k in keys] == [expected[k] for k in keys], kind
        if expected["objective_value"] is None:
            assert got["objective_value"] is None
        else:
            assert abs(got["objective_value"] - expected["objective_value"]) <= 1e-12, kind


RECORDER_CASES = ("sweep-b0-n12", "small-s30-fix", "sweep-b1-n10-negated")


@pytest.mark.parametrize("kind", [ObjectiveKind.SM_POWER, ObjectiveKind.LR_UB_POWER],
                         ids=lambda k: k.value)
def test_node_recorder_sees_every_node_on_its_path(kind):
    """node_recorder is called once per node entered, with the node's placed path.

    The root comes first with an empty prefix, and every later prefix
    extends one recorded before it by exactly one (task, window, cluster)
    placement: its parent's. The cases include a partial fix under which
    no schedule exists, and negated offsets.
    """
    cases = {c["case"]: c for c in helpers.pinned_search_cases()}
    for name in RECORDER_CASES:
        case = cases[name]
        prefixes = []
        result = ts.solve(
            helpers.pinned_instance(case), spec(kind), dict(case["fix"]) or None,
            node_recorder=lambda prefix, bound: prefixes.append(prefix),
        )
        assert len(prefixes) == result.nodes_explored > 1, name
        assert prefixes[0] == (), name
        seen = {()}
        for prefix in prefixes[1:]:
            assert prefix[:-1] in seen, (name, prefix)
            assert len(prefix[-1]) == 3 and all(type(x) is int for x in prefix[-1]), (name, prefix)
            seen.add(prefix)
        assert len(seen) == len(prefixes), name
