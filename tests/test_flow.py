import itertools
import random
import time

import networkx
import pytest

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


class TestBuildNetwork:
    def test_construction_counts_and_balances(self):
        instance = two_task_instance()
        net = build_network(instance, [10])
        # 2 tasks + 2 wc nodes + sink
        assert net.sink == 4
        task_arcs = [a for a, p in zip(net.arcs, net.arc_placements) if p is not None]
        sink_arcs = [a for a, p in zip(net.arcs, net.arc_placements) if p is None]
        assert len(task_arcs) == 4 and len(sink_arcs) == 2
        assert {a.tail for a in task_arcs} == {0, 1}
        assert {a.head for a in sink_arcs} == {net.sink}
        assert all(a.capacity == 1 for a in task_arcs)
        assert {a.capacity for a in sink_arcs} == {1}

    def test_fits_in_window_predicate(self):
        instance = two_task_instance()
        net = build_network(instance, [9])
        assert len([p for p in net.arc_placements if p is not None]) == 0
        assert not min_cost_assignment(net).feasible

    def test_unit_little_times_reach_every_window(self):
        # shape of the hardness reduction: e on cluster 2 is always 1,
        # so every task gets an arc to every (window, cluster-2) node
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
        net = build_network(instance, [B] * q)
        for t in tasks:
            arcs_to_c2 = [
                p for p in net.arc_placements if p is not None and p[0] == t.id and p[2] == 2
            ]
            assert len(arcs_to_c2) == q

    def test_arcs_end_at_their_window_cluster_node(self):
        # three clusters and three windows, so a misnumbered node shows
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
        net = build_network(ts.Instance(plat, tasks, 60, 3), [20, 15, 10])
        n, m = 4, 3
        assert net.sink == n + 3 * m
        wc_nodes = range(n, net.sink)
        reached = set()
        for arc, p in zip(net.arcs, net.arc_placements):
            if p is None:
                assert arc.tail in wc_nodes and arc.head == net.sink
                continue
            tid, j, k = p
            assert arc.tail == tid - 1
            assert arc.head == n + (j - 1) * m + (k - 1)
            reached.add((j, k))
        assert reached == {(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)}

    def test_budget_precondition(self):
        instance = two_task_instance()
        with pytest.raises(ValueError):
            build_network(instance, [15, 15])


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
        for seed in range(10):
            instance = helpers.small_random_instance(seed)
            lengths = helpers.random_fixed_lengths(instance, rng)
            net = build_network(instance, lengths)
            result = min_cost_assignment(net)
            if result.feasible:
                # one whole unit per task, on one of the task's arcs
                chosen = {(p.task_id, p.window, p.cluster) for p in result.assignment.placements}
                assert len(chosen) == len(instance.tasks)
                assert chosen <= set(net.arc_placements)

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


def networkx_min_cost(network):
    """Minimum cost by networkx's network simplex, or None when infeasible.

    Costs are whole hundredths, which the simplex gets as integers: it is
    not guaranteed to terminate on float weights.
    """
    graph = networkx.DiGraph()
    n = len(network.instance.tasks)
    # every task supplies one unit and the sink absorbs all n
    for v in range(network.sink + 1):
        graph.add_node(v, demand=-1 if v < n else n if v == network.sink else 0)
    for a in network.arcs:
        weight = round(a.cost * 100)
        assert weight == pytest.approx(a.cost * 100, abs=1e-6)
        graph.add_edge(a.tail, a.head, capacity=a.capacity, weight=weight)
    try:
        return networkx.network_simplex(graph)[0] / 100
    except networkx.NetworkXUnfeasible:
        return None


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
            net = build_network(instance, witness.assignment.window_lengths_ms)
            result = min_cost_assignment(net)
            assert result.feasible
            assert result.total_cost == pytest.approx(networkx_min_cost(net), abs=1e-7)
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
        net = build_network(instance, lengths)
        assert networkx_min_cost(net) is None
        assert not min_cost_assignment(net).feasible
