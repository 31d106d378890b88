import itertools
import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import thermosched as ts
from thermosched.flow import build_network, min_cost_assignment


def two_task_instance():
    plat = ts.Platform(
        clusters=(
            ts.Cluster(id=1, core_count=1, label="a", frequency_mhz=1000),
            ts.Cluster(id=2, core_count=1, label="b", frequency_mhz=1000),
        ),
        idle_power_watts=0.0,
    )
    tasks = tuple(
        ts.Task(i, f"t{i}", (
            ts.TaskCharacteristics(1, 10, 0.1, 0.1, energy_cost=3.0),
            ts.TaskCharacteristics(2, 10, 0.1, 0.1, energy_cost=7.0),
        ))
        for i in (1, 2)
    )
    return ts.Instance(plat, tasks, 20, 2)


def task_arcs(net):
    return [a for a in net.arcs if a.tail < len(net.instance.tasks)]


def sink_capacity(net, v):
    (arc,) = [a for a in net.arcs if a.tail == v and a.head == net.sink]
    return arc.capacity


def windows_up_the_chain(net, v):
    """Windows a unit entering class node v can reach: its own, then every longer one."""
    core_count = net.instance.platform.clusters[
        (v - len(net.instance.tasks)) // len(net.class_lengths)
    ].core_count
    total = 0
    while v is not None:
        total += sink_capacity(net, v) // core_count
        v = next((a.head for a in net.arcs if a.tail == v and a.head != net.sink), None)
    return total


class TestBuildNetwork:
    def test_construction_counts_and_balances(self):
        instance = two_task_instance()
        net = build_network(instance, [10])
        # 2 tasks + 2 class nodes + sink
        assert net.sink == 4
        sink_arcs = [a for a in net.arcs if a.head == net.sink]
        assert len(task_arcs(net)) == 4 and len(sink_arcs) == 2 and len(net.arcs) == 6
        assert {a.tail for a in task_arcs(net)} == {0, 1}
        assert all(a.capacity == 1 for a in task_arcs(net))
        assert {a.capacity for a in sink_arcs} == {1}

        # a repeated length is one class whose sink arc takes both windows,
        # and a zero length gets no class
        three = ts.Instance(instance.platform, instance.tasks, 40, 4)
        net = build_network(three, [10, 12, 0, 10])
        assert net.class_lengths == (12, 10)
        assert net.sink == 2 + 2 * 2
        for ci in range(2):
            longest, shorter = 2 + 2 * ci, 3 + 2 * ci
            assert sink_capacity(net, longest) == 1 and sink_capacity(net, shorter) == 2
            chain = [a for a in net.arcs if a.tail == shorter and a.head != net.sink]
            assert [(a.head, a.cost) for a in chain] == [(longest, 0.0)]
            assert chain[0].capacity >= len(instance.tasks)
        assert len(net.arcs) == 4 + 2 * 2 + 2
        assert sum(a.capacity for a in net.arcs if a.head == net.sink) == 2 * 3

    def test_fits_in_window_predicate(self):
        instance = two_task_instance()
        net = build_network(instance, [9])
        assert task_arcs(net) == []
        assert not min_cost_assignment(net).feasible
        # exec time 10 fits a length of exactly 10, and only that class
        wide = ts.Instance(instance.platform, instance.tasks, 40, 3)
        net = build_network(wide, [9, 10, 11])
        assert net.class_lengths == (11, 10, 9)
        assert {a.head - 2 for a in task_arcs(net)} == {1, 3 + 1}

    def test_unit_little_times_reach_every_window(self):
        # shape of the hardness reduction: e on cluster 2 is always 1,
        # so every task's cluster-2 arc reaches every window
        plat = ts.Platform(
            clusters=(
                ts.Cluster(id=1, core_count=1, label="a", frequency_mhz=1000),
                ts.Cluster(id=2, core_count=1, label="b", frequency_mhz=1000),
            ),
            idle_power_watts=0.0,
        )
        b_sizes = [5, 3, 4, 2, 6, 4]
        B = sum(b_sizes) // 2
        tasks = tuple(
            ts.Task(i + 1, f"t{i}", (
                ts.TaskCharacteristics(1, b, 0.1, 0.1, energy_cost=B - b),
                ts.TaskCharacteristics(2, 1, 0.1, 0.1, energy_cost=B),
            ))
            for i, b in enumerate(b_sizes)
        )
        q = len(tasks) // 2
        instance = ts.Instance(plat, tasks, B * q, q)
        lengths = [B] * (q - 1) + [B - 1]  # two classes, so the chain shows
        net = build_network(instance, lengths)
        cluster2 = range(len(tasks) + len(net.class_lengths), net.sink)
        for ti in range(len(tasks)):
            arcs_to_c2 = [a for a in net.arcs if a.tail == ti and a.head in cluster2]
            assert len(arcs_to_c2) == 1
            assert windows_up_the_chain(net, arcs_to_c2[0].head) == q

    def test_arcs_end_at_their_class_node(self):
        # three clusters and three lengths, so a misnumbered node shows
        plat = ts.Platform(
            clusters=tuple(ts.Cluster(id=k, core_count=k, label=f"c{k}") for k in (1, 2, 3)),
            idle_power_watts=0.0,
        )
        tasks = tuple(
            ts.Task(i, f"t{i}", tuple(
                ts.TaskCharacteristics(k, 5 * k + i, 0.1, 0.1) for k in (1, 2, 3)
            ))
            for i in range(1, 5)
        )
        lengths = [15, 20, 10]
        net = build_network(ts.Instance(plat, tasks, 60, 3), lengths)
        n, m, d = 4, 3, 3
        assert net.class_lengths == (20, 15, 10)
        assert net.sink == n + m * d
        class_nodes = range(n, net.sink)
        reached = set()
        for arc in net.arcs:
            if arc.tail in class_nodes:
                ci, r = divmod(arc.tail - n, d)
                if arc.head == net.sink:
                    assert arc.capacity == plat.clusters[ci].core_count
                else:
                    assert r > 0 and arc.head == arc.tail - 1 and arc.cost == 0.0
                continue
            t = tasks[arc.tail]
            ci, r = divmod(arc.head - n, d)
            # the class of the shortest length the task fits
            e = t.per_cluster[ci].exec_time_ms
            assert net.class_lengths[r] == min(l for l in lengths if l >= e)
            assert arc.cost == t.per_cluster[ci].effective_energy_cost
            reached.add((ci + 1, net.class_lengths[r]))
        assert reached == {(1, 10), (2, 15), (3, 20)}
        assert len(net.arcs) == n * m + m * d + m * (d - 1)

    def test_budget_precondition(self):
        instance = two_task_instance()
        with pytest.raises(ValueError):
            build_network(instance, [15, 15])

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ([], "at least one window length is required"),
            ([5, 5, 5], "3 window lengths given but the instance allows at most 2 windows"),
            ([10, -1], "window lengths must be nonnegative"),
        ],
        ids=["empty", "more-than-max-windows", "negative"],
    )
    def test_refuses_bad_length_lists(self, lengths, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_network(two_task_instance(), lengths)

    @pytest.mark.parametrize(
        "bad", [10.9, True, math.inf, math.nan, "10", None],
        ids=["float", "bool", "inf", "nan", "str", "none"],
    )
    def test_refuses_a_length_that_is_not_an_integer(self, bad):
        instance = two_task_instance()
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            build_network(instance, [bad, 1])


class TestMinCostAssignment:
    def test_prefers_cheaper_cluster(self):
        instance = two_task_instance()
        single = ts.Instance(instance.platform, instance.tasks[:1], 20, 1)
        result = min_cost_assignment(build_network(single, [10]))
        assert result.feasible
        assert result.assignment.placements[0].cluster == 1
        assert result.total_cost == pytest.approx(3.0)

    def test_capacity_saturated_toy(self):
        plat = ts.Platform(
            clusters=(
                ts.Cluster(id=1, core_count=2, label="a", frequency_mhz=1000),
                ts.Cluster(id=2, core_count=1, label="b", frequency_mhz=1000),
            ),
            idle_power_watts=0.0,
        )
        tasks = tuple(
            ts.Task(i, f"t{i}", (
                ts.TaskCharacteristics(1, 10, 0.1, 0.1, energy_cost=5.0),
                ts.TaskCharacteristics(2, 10, 0.1, 0.1, energy_cost=5.0),
            ))
            for i in (1, 2, 3)
        )
        instance = ts.Instance(plat, tasks, 10, 1)
        result = min_cost_assignment(build_network(instance, [10]))
        assert result.feasible
        assert len(result.assignment.placements) == 3
        assert result.total_cost == pytest.approx(15.0)

    def test_integrality(self):
        rng = random.Random(3)
        feasible = 0
        for seed in range(10):
            instance = helpers.small_random_instance(seed)
            candidates = [helpers.random_fixed_lengths(instance, rng)]
            witness = ts.solve(instance, ts.ObjectiveSpec(ts.ObjectiveKind.FEASIBILITY_ONLY))
            if witness.assignment is not None:
                candidates.append(witness.assignment.window_lengths_ms)
            for lengths in candidates:
                net = build_network(instance, lengths)
                result = min_cost_assignment(net)
                if not result.feasible:
                    continue
                feasible += 1
                # one whole unit per task, on one of the task's arcs: the
                # window has at least the length of the class the arc enters
                n, d = len(instance.tasks), len(net.class_lengths)
                placements = result.assignment.placements
                assert [p.task_id for p in placements] == [t.id for t in instance.tasks]
                for ti, p in enumerate(placements):
                    (arc,) = [a for a in task_arcs(net) if a.tail == ti
                              and (a.head - n) // d == p.cluster - 1]
                    assert lengths[p.window - 1] >= net.class_lengths[(arc.head - n) % d]
        assert feasible >= 5

    def test_matches_exhaustive_minimum(self):
        rng = random.Random(4)
        for seed in range(20):
            instance = helpers.small_random_instance(seed)
            lengths = tuple(helpers.random_fixed_lengths(instance, rng))
            result = min_cost_assignment(build_network(instance, lengths))
            expected = helpers.flow_oracle_min_cost(instance, lengths)
            if expected is None:
                assert not result.feasible
            else:
                assert result.feasible
                assert result.total_cost == pytest.approx(expected, abs=1e-9)
                assert ts.check_feasible(instance, result.assignment).feasible

    def test_matches_exhaustive_minimum_on_witness_lengths(self):
        # lengths a feasibility witness achieves, so the costs get compared
        feasible = 0
        for seed in range(20):
            instance = helpers.small_random_instance(seed)
            witness = ts.solve(instance, ts.ObjectiveSpec(ts.ObjectiveKind.FEASIBILITY_ONLY))
            if witness.assignment is None:
                continue
            lengths = witness.assignment.window_lengths_ms
            result = min_cost_assignment(build_network(instance, lengths))
            assert result.feasible
            expected = helpers.flow_oracle_min_cost(instance, lengths)
            assert result.total_cost == pytest.approx(expected, abs=1e-9)
            assert ts.check_feasible(instance, result.assignment).feasible
            feasible += 1
        assert feasible >= 15

    def test_rerouted_tasks_are_priced_by_updated_potentials(self):
        # Three clusters of two cores; (exec time, energy cost) per cluster.
        # A solver that keeps the starting potentials finds 54 here.
        plat = ts.Platform(
            clusters=tuple(
                ts.Cluster(id=k, core_count=2, label=f"c{k}", frequency_mhz=1000)
                for k in (1, 2, 3)
            ),
            idle_power_watts=0.0,
        )
        table = [
            [(5, 19), (5, 10), (9, 16)], [(1, 14), (6, 0), (3, 15)],
            [(5, 16), (5, 7), (5, 19)], [(2, 20), (6, 11), (9, 11)],
            [(7, 19), (9, 15), (1, 3)], [(7, 2), (1, 16), (8, 0)],
            [(10, 11), (2, 8), (7, 0)],
        ]
        tasks = tuple(
            ts.Task(i + 1, f"t{i}", tuple(
                ts.TaskCharacteristics(k + 1, e, 0.1, 0.1, energy_cost=c)
                for k, (e, c) in enumerate(row)
            ))
            for i, row in enumerate(table)
        )
        instance = ts.Instance(plat, tasks, 10, 2)
        result = min_cost_assignment(build_network(instance, [3, 7]))
        assert helpers.flow_oracle_min_cost(instance, (3, 7)) == 51
        assert result.total_cost == pytest.approx(51)

    def test_infeasible_iff_no_placement_exists(self):
        # exhaustive cross-check of the infeasibility verdict at n <= 6
        rng = random.Random(5)
        for seed in range(8):
            instance = helpers.small_random_instance(seed, n_hi=5, q_max=2)
            lengths = tuple(helpers.random_fixed_lengths(instance, rng))
            result = min_cost_assignment(build_network(instance, lengths))
            exists = self._any_placement(instance, lengths)
            assert result.feasible == exists

    @staticmethod
    def _any_placement(instance, lengths):
        clusters = instance.platform.clusters
        options = []
        for t in instance.tasks:
            opts = [
                (j + 1, c.id)
                for c in clusters
                for j in range(len(lengths))
                if t.on(c.id).exec_time_ms <= lengths[j]
            ]
            if not opts:
                return False
            options.append(opts)
        for combo in itertools.product(*options):
            counts = {}
            for j, cid in combo:
                counts[(j, cid)] = counts.get((j, cid), 0) + 1
            if all(
                counts[(j, cid)] <= clusters[cid - 1].core_count
                for j, cid in counts
            ):
                return True
        return False

    def test_determinism(self):
        instance = helpers.small_random_instance(8)
        lengths = [instance.major_frame_ms // instance.max_windows] * instance.max_windows
        a = min_cost_assignment(build_network(instance, lengths))
        b = min_cost_assignment(build_network(instance, lengths))
        assert a.assignment == b.assignment and a.total_cost == b.total_cost

    def test_scales_to_sixty_tasks(self, mixed_pool, mek_platform):
        from thermosched.generator import GeneratorConfig, generate_instance

        inst = generate_instance(
            GeneratorConfig(kernel_pool=mixed_pool, n_tasks=60, rng_seed=3), mek_platform
        )
        instance = helpers.with_windows(inst, 30)
        witness = ts.solve(instance, ts.ObjectiveSpec(ts.ObjectiveKind.FEASIBILITY_ONLY))
        assert witness.status is ts.SearchStatus.OPTIMAL
        lengths = witness.assignment.window_lengths_ms
        start = time.perf_counter()
        result = min_cost_assignment(build_network(instance, lengths))
        elapsed = time.perf_counter() - start
        assert result.feasible
        assert elapsed < 1.0


def fixed_window_case(cores, times, costs, lengths, extra_windows=0):
    """Tasks with the given per-cluster times and costs, and the fixed lengths."""
    plat = ts.Platform(
        clusters=tuple(ts.Cluster(id=k, core_count=c) for k, c in enumerate(cores, start=1)),
        idle_power_watts=0.0,
    )
    tasks = tuple(
        ts.Task(i, f"t{i}", tuple(
            ts.TaskCharacteristics(k, e, 0.1, 0.1, energy_cost=c)
            for k, (e, c) in enumerate(zip(row, cost_row), start=1)
        ))
        for i, (row, cost_row) in enumerate(zip(times, costs), start=1)
    )
    instance = ts.Instance(plat, tasks, max(1, sum(lengths)), len(lengths) + extra_windows)
    return instance, tuple(lengths)


@st.composite
def fixed_window_cases(draw):
    cores = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    n = draw(st.integers(0, 6))
    row = st.lists(st.integers(1, 9), min_size=len(cores), max_size=len(cores))
    cost_row = st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]), min_size=len(cores), max_size=len(cores)
    )
    times = draw(st.lists(row, min_size=n, max_size=n))
    costs = draw(st.lists(cost_row, min_size=n, max_size=n))
    # few distinct values, so lengths repeat, and zero and short ones occur
    lengths = draw(st.lists(st.sampled_from([0, 1, 3, 5, 9]), min_size=1, max_size=4))
    return fixed_window_case(cores, times, costs, lengths, draw(st.integers(0, 1)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=fixed_window_cases())
@example(case=fixed_window_case([2], [], [], [0, 5]))
@example(case=fixed_window_case([1, 2], [[4, 6], [5, 5]], [[1.0, 0.0], [2.5, 0.5]], [3, 2, 0]))
@example(case=fixed_window_case([2], [[3], [3], [1]], [[1.0], [0.5], [2.5]], [3, 3, 0]))
def test_agrees_with_the_capacity_dp(case):
    instance, lengths = case
    result = min_cost_assignment(build_network(instance, lengths))
    expected = helpers.flow_oracle_min_cost(instance, lengths)
    assert result.feasible == (expected is not None)
    if expected is None:
        return
    assert result.total_cost == pytest.approx(expected, abs=1e-9)
    asg = result.assignment
    assert ts.check_feasible(instance, asg).feasible
    given_lengths = lengths + (0,) * (instance.max_windows - len(lengths))
    assert all(a <= b for a, b in zip(asg.window_lengths_ms, given_lengths, strict=True))
    # rank decode: per cluster, tasks by descending time fill the windows by
    # descending length, core_count per window
    by_length = sorted(range(len(lengths)), key=lambda j: (-lengths[j], j))
    window_of = {p.task_id: p.window for p in asg.placements}
    for c in instance.platform.clusters:
        members = sorted(
            (p.task_id for p in asg.placements if p.cluster == c.id),
            key=lambda tid: (-instance.task_by_id(tid).on(c.id).exec_time_ms, tid),
        )
        for rank, tid in enumerate(members):
            assert window_of[tid] == by_length[rank // c.core_count] + 1


class TestContendedAgainstNetworkx:
    """Witness lengths leave little slack, so tasks compete for the cheaper
    cluster and later augmenting paths move tasks placed earlier."""

    @pytest.mark.parametrize("n", [20, 30, 45, 60])
    @pytest.mark.parametrize("kappa", [1.0, 3.5])
    def test_cost_matches_network_simplex(self, n, kappa, mixed_pool, mek_platform):
        from thermosched.generator import GeneratorConfig, generate_instance

        inst = generate_instance(
            GeneratorConfig(kernel_pool=mixed_pool, n_tasks=n, rng_seed=n, tightness_kappa=kappa),
            mek_platform,
        )
        for q in (n // 6 + 1, n // 3):
            instance = helpers.with_windows(inst, q)
            witness = ts.solve(instance, ts.ObjectiveSpec(ts.ObjectiveKind.FEASIBILITY_ONLY))
            assert witness.status is ts.SearchStatus.OPTIMAL
            lengths = witness.assignment.window_lengths_ms
            result = min_cost_assignment(build_network(instance, lengths))
            assert result.feasible
            expected = helpers.networkx_flow_min_cost(instance, lengths)
            assert result.total_cost == pytest.approx(expected, abs=1e-7)
            assert ts.check_feasible(instance, result.assignment).feasible

    def test_shortened_longest_window_is_infeasible(self, mixed_pool, mek_platform):
        from thermosched.generator import GeneratorConfig, generate_instance

        inst = generate_instance(
            GeneratorConfig(kernel_pool=mixed_pool, n_tasks=30, rng_seed=30), mek_platform
        )
        instance = helpers.with_windows(inst, 10)
        witness = ts.solve(instance, ts.ObjectiveSpec(ts.ObjectiveKind.FEASIBILITY_ONLY))
        lengths = list(witness.assignment.window_lengths_ms)
        lengths[lengths.index(max(lengths))] -= 1
        assert helpers.networkx_flow_min_cost(instance, lengths) is None
        assert not min_cost_assignment(build_network(instance, lengths)).feasible
