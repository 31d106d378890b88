import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import thermosched as ts
from thermosched import heuristics
from thermosched.exact import ObjectiveKind, ObjectiveSpec, SearchResult, SearchStatus
from thermosched.generator import GeneratorConfig, generate_instance
from thermosched.heuristics import _GENE_MAX, _build_children, _PopulationFitness
from thermosched.power import PowerModel
from thermosched.runners import run_method

PINNED_TRACES = Path(__file__).parent / "data" / "ga_pinned_traces.json"


def qm_instance(n_tasks, q, core_counts=(4, 2), frame=1000, exec_times=None):
    """Small hand-built instance with uniform coefficients."""
    clusters = tuple(
        ts.Cluster(id=k + 1, core_count=c, label=f"c{k+1}", frequency_mhz=1000)
        for k, c in enumerate(core_counts)
    )
    plat = ts.Platform(clusters=clusters, idle_power_watts=1.0)
    tasks = []
    for i in range(1, n_tasks + 1):
        per = tuple(
            ts.TaskCharacteristics(
                k + 1,
                exec_times[i - 1][k] if exec_times else 50,
                0.2, 0.3,
            )
            for k in range(len(core_counts))
        )
        tasks.append(ts.Task(i, f"t{i}", per))
    return ts.Instance(plat, tuple(tasks), frame, q)


class TestDecode:
    def test_boundary_of_second_half(self):
        instance = qm_instance(3, 3)
        genes = ts.decode([0.5, 0.0, 0.0], instance)
        assert (genes[0].cluster, genes[0].window) == (2, 1)
        assert genes[0].preference == pytest.approx(0.0)

    def test_quarter_point(self):
        instance = qm_instance(3, 3)
        g = ts.decode([0.25] * 3, instance)[0]
        assert (g.cluster, g.window) == (1, 2)
        assert g.preference == pytest.approx(1.5)

    def test_degenerate_single_cluster_window(self):
        plat = ts.Platform(
            clusters=(ts.Cluster(id=1, core_count=2, label="only", frequency_mhz=1000),),
            idle_power_watts=0.0,
        )
        tasks = (ts.Task(1, "t", (ts.TaskCharacteristics(1, 10, 0.1, 0.1),)),)
        instance = ts.Instance(plat, tasks, 10, 1)
        for x in (0.0, 0.37, 0.999999999):
            g = ts.decode([x], instance)[0]
            assert (g.cluster, g.window) == (1, 1)

    def test_total_near_boundaries(self):
        instance = qm_instance(1, 3)
        m, q = 2, 3
        edges = []
        for k in range(1, m + 1):
            for j in range(q):
                edge = k / m - j / (q * m)
                edges.append(math.nextafter(edge, 0.0))
                edges.append(min(math.nextafter(edge, 1.0), math.nextafter(1.0, 0.0)))
        edges += [0.0, math.nextafter(1.0, 0.0)]
        for x in edges:
            if not 0.0 <= x < 1.0:
                continue
            g = ts.decode([x], instance)[0]
            assert 1 <= g.cluster <= m
            assert 1 <= g.window <= q
            assert 0.0 <= g.preference < q

    def test_rejects_out_of_range(self):
        instance = qm_instance(1, 2)
        with pytest.raises(ValueError):
            ts.decode([1.0], instance)

    def test_bit_identical_to_scalar_formula(self):
        rng = random.Random(3)
        for q in (1, 2, 3, 7, 30):
            instance = qm_instance(1, q)
            genes = [0.0, _GENE_MAX] + special_genes(2, q) + [rng.random() for _ in range(200)]
            for x in genes:
                [got] = ts.decode([x], instance)
                [want] = helpers.reference_decode([x], instance)
                assert (got.cluster, got.window) == (want.cluster, want.window)
                assert got.preference.hex() == want.preference.hex()


def special_genes(m, q):
    """Genes on cluster and window sub-interval boundaries and their neighbours."""
    edges = [(k + j / q) / m for k in range(m) for j in range(q)]
    near = [math.nextafter(x, 1.0) for x in edges] + [math.nextafter(x, 0.0) for x in edges[1:]]
    return [min(x, _GENE_MAX) for x in edges + near]


@st.composite
def few_core_instance(draw):
    """Up to three clusters of one or two cores, so that windows overflow often."""
    cores = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    n = draw(st.integers(1, 12))
    exec_times = [
        tuple(draw(st.integers(1, 100)) for _ in cores) for _ in range(n)
    ]
    return qm_instance(
        n, draw(st.integers(1, 6)), core_counts=tuple(cores),
        frame=draw(st.integers(50, 600)), exec_times=exec_times,
    )


@st.composite
def instance_and_genome(draw):
    instance = draw(st.one_of(
        few_core_instance(),
        st.builds(
            lambda seed, n, q: helpers.small_random_instance(
                seed, n=n, q_max=q, kappa_lo=0.8, kappa_hi=3.0
            ),
            st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 8),
        ),
    ))
    n = len(instance.tasks)
    m = len(instance.platform.clusters)
    genome = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, _GENE_MAX] + special_genes(m, instance.max_windows)),
            st.floats(0.0, _GENE_MAX),
        ),
        min_size=n, max_size=n,
    ))
    return instance, genome


class TestReconstruct:
    @settings(max_examples=300, deadline=None)
    @given(instance_and_genome())
    def test_matches_reference_repair(self, case):
        instance, genome = case
        assert ts.reconstruct(genome, instance) == helpers.reference_reconstruct(genome, instance)

    def test_conflict_free_matches_decode(self):
        instance = qm_instance(3, 3, frame=1000)
        genome = [0.05, 0.40, 0.90]
        genes = ts.decode(genome, instance)
        assignment = ts.reconstruct(genome, instance)
        assert assignment is not None
        placed = {p.task_id: p for p in assignment.placements}
        for task, gene in zip(instance.tasks, genes):
            p = placed[task.id]
            assert (p.window, p.cluster) == (gene.window, gene.cluster)

    def test_overflow_moves_to_next_window(self):
        # cluster 2 has 2 cores; three tasks prefer (window 1, cluster 2)
        instance = qm_instance(3, 2)
        genome = [0.50, 0.51, 0.52]  # all decode to cluster 2, window 1
        assignment = ts.reconstruct(genome, instance)
        assert assignment is not None
        windows = sorted(p.window for p in assignment.placements)
        assert windows == [1, 1, 2]
        bumped = max(assignment.placements, key=lambda p: p.window)
        assert ts.decode(genome, instance)[bumped.task_id - 1].preference == pytest.approx(
            max(g.preference for g in ts.decode(genome, instance))
        )

    def test_frame_budget_failure(self):
        # one single-core cluster: the three 400 ms tasks need three
        # windows, 1200 ms total, busting the 1000 ms frame every time
        instance = qm_instance(
            3, 3, core_counts=(1,), frame=1000,
            exec_times=[(400,), (400,), (400,)],
        )
        assert ts.reconstruct([0.1, 0.5, 0.9], instance) is None

    def test_soundness_on_random_genomes(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            instance = helpers.small_random_instance(seed)
            n = len(instance.tasks)
            for _ in range(200):
                assignment = ts.reconstruct(rng.random(n), instance)
                if assignment is not None:
                    assert ts.check_feasible(instance, assignment).feasible


class TestRunGa:
    def test_single_task_optimum(self):
        # search space is m * q = 2 slots; one generation is enough
        instance = qm_instance(1, 1, frame=200, exec_times=[(120, 60)])
        result = ts.run_ga(instance, "sm", ts.GaConfig(max_generations=3, rng_seed=0, population_size=20))
        oracle = ts.brute_force_optimum(instance, ObjectiveSpec(ObjectiveKind.SM_POWER))
        assert result.feasible
        assert result.fitness == pytest.approx(oracle.objective_value, abs=1e-9)

    def test_seed_determinism(self):
        instance = helpers.small_random_instance(31, n=6, q_max=3)
        config = ts.GaConfig(max_generations=6, rng_seed=42)
        a = ts.run_ga(instance, "sm", config, time_limit_ms=60000)
        b = ts.run_ga(instance, "sm", config, time_limit_ms=60000)
        assert a.fitness == b.fitness
        assert a.assignment == b.assignment
        assert a.trace == b.trace

    def test_trace_monotone_within_restart(self):
        instance = helpers.small_random_instance(32, n=6, q_max=3)
        result = ts.run_ga(
            instance, "sm",
            ts.GaConfig(max_generations=40, rng_seed=7, stall_generations=5, population_size=60),
        )
        by_restart = {}
        for point in result.trace:
            by_restart.setdefault(point.restart, []).append(point.best_fitness)
        for fits in by_restart.values():
            assert all(b <= a + 1e-12 for a, b in zip(fits, fits[1:]))

    def test_lr_model_needs_coefficients(self):
        instance = helpers.small_random_instance(33, n=4)
        with pytest.raises(ValueError):
            ts.run_ga(instance, "lr", ts.GaConfig(max_generations=2))

    def test_lr_fitness_runs(self, mek_coefficients):
        instance = helpers.small_random_instance(34, n=5, q_max=3)
        result = ts.run_ga(
            instance, "lr",
            ts.GaConfig(max_generations=8, rng_seed=1, population_size=80),
            mek_coefficients,
        )
        if result.feasible:
            expected = ts.schedule_power(instance, result.assignment, "lr", mek_coefficients).watts
            assert result.fitness == pytest.approx(expected, abs=1e-9)

    def test_config_document_with_overrides(self, tmp_path):
        import json

        path = tmp_path / "ga.json"
        path.write_text(json.dumps({
            "population_size": 30,
            "mutation_rate": 0.5,
            "comment": "ignored",
        }))
        config = ts.load_ga_config(str(path), rng_seed=9, max_generations=4)
        assert config.population_size == 30
        assert config.mutation_rate == 0.5
        assert config.rng_seed == 9
        assert config.max_generations == 4
        assert config.crossover_rate == 0.8  # untouched default

    def test_trace_csv(self, tmp_path):
        instance = helpers.small_random_instance(35, n=4, q_max=2)
        result = ts.run_ga(
            instance, "sm", ts.GaConfig(max_generations=4, rng_seed=2, population_size=30)
        )
        path = tmp_path / "trace.csv"
        ts.write_fitness_trace_csv(result.trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "generation,restart,best_fitness"
        assert len(lines) == len(result.trace) + 1


def feasible_genomes(instance, rng, count):
    """Random genomes that repair into feasible assignments."""
    out = []
    for _ in range(100 * count):
        genome = rng.random(len(instance.tasks))
        if ts.reconstruct(genome, instance) is not None:
            out.append(genome)
            if len(out) == count:
                break
    return np.array(out)


class TestPopulationFitness:
    def test_sm_equals_schedule_power(self):
        rng = np.random.default_rng(8)
        scored = 0
        for seed in range(10):
            instance = helpers.small_random_instance(seed, n_hi=12, q_max=6, kappa_lo=1.0)
            population = rng.random((100, len(instance.tasks)))
            fitness = _PopulationFitness(instance, PowerModel.SM, None)(population)
            for genome, value in zip(population, fitness):
                assignment = ts.reconstruct(genome, instance)
                if assignment is None:
                    assert value == math.inf
                else:
                    assert value == ts.schedule_power(instance, assignment, "sm").watts
                    scored += 1
        assert scored > 100

    def test_lr_matches_interval_path(self, mek_coefficients):
        rng = np.random.default_rng(9)
        scored = 0
        for seed in range(10):
            instance = helpers.small_random_instance(seed, n_hi=12, q_max=6, kappa_lo=1.0)
            population = feasible_genomes(instance, rng, 20)
            if not len(population):
                continue
            fitness = _PopulationFitness(instance, PowerModel.LR, mek_coefficients)(population)
            for genome, value in zip(population, fitness):
                assignment = ts.reconstruct(genome, instance)
                oracle = helpers.lr_interval_oracle(instance, assignment, mek_coefficients)
                assert abs(value - oracle) <= 1e-12
                scored += 1
        assert scored > 100


def slot_gene(c, j, m, q, jitter=0.5):
    """A gene preferring 0-based cluster c and 1-based window j; jitter in (0, 1)."""
    return (c + (j - 1 + jitter) / q) / m


def overflows(genome, instance):
    """Whether some (window, cluster) slot is preferred by more tasks than it has cores."""
    load = {}
    for g in helpers.reference_decode(genome, instance):
        load[g.window, g.cluster] = load.get((g.window, g.cluster), 0) + 1
    cores = {c.id: c.core_count for c in instance.platform.clusters}
    return any(count > cores[c] for (_, c), count in load.items())


def fast_path_population(instance, rng, size):
    """Random rows, rows packed into one slot, rows spread within capacity, and copies."""
    n = len(instance.tasks)
    m = len(instance.platform.clusters)
    q = instance.max_windows
    capacity = [
        (c, j) for j in range(1, q + 1)
        for c, cl in enumerate(instance.platform.clusters) for _ in range(cl.core_count)
    ]
    rows = []
    for r in range(size):
        kind = r % 4
        if kind == 0:
            rows.append(rng.random(n))
        elif kind == 1:  # every task prefers one slot of the smallest cluster
            c = min(range(m), key=lambda k: instance.platform.clusters[k].core_count)
            j = int(rng.integers(1, q + 1))
            rows.append([slot_gene(c, j, m, q, rng.uniform(0.05, 0.95)) for _ in range(n)])
        elif kind == 2:  # a distinct core per task
            picks = rng.permutation(len(capacity))[:n]
            rows.append([
                slot_gene(*capacity[k], m, q, rng.uniform(0.05, 0.95)) for k in picks
            ])
        else:
            rows.append(rows[int(rng.integers(0, len(rows)))])
    return np.array(rows)


class TestPopulationFitnessFastPaths:
    """Memo hits, rows that skip repair and rows that repair all score as the reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["sm", "lr"]))
    def test_matches_reference_across_generations(self, seed, model):
        rng = np.random.default_rng(seed)
        instance = helpers.small_random_instance(seed, q_max=5, kappa_lo=0.8, kappa_hi=3.0)
        coefficients = helpers.MEK_COEFF if model == "lr" else None
        fitness_of = _PopulationFitness(instance, PowerModel(model), coefficients)
        first = fast_path_population(instance, rng, 24)
        second = np.concatenate([first[::3], fast_path_population(instance, rng, 16)])
        kinds = set()
        for population in (first, second, first):
            fitness = fitness_of(population)
            for genome, value in zip(population, fitness):
                kinds.add(overflows(genome, instance))
                assignment = helpers.reference_reconstruct(genome, instance)
                if assignment is None:
                    assert value == math.inf
                    continue
                want = ts.schedule_power(instance, assignment, model, coefficients).watts
                if model == "sm":
                    assert value == want
                else:
                    assert abs(value - want) <= 1e-12
            # the memo keeps the genomes of the last call only between calls
            assert set(fitness_of._previous) == {row.tobytes() for row in population}
        assert kinds == {True, False}


class TestBuildChildren:
    @pytest.mark.parametrize("n", [1, 2, 30])
    @pytest.mark.parametrize("crossover_rate", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mutation_rate", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("bits", [1, 16, 53])
    def test_matches_per_child_loop(self, n, crossover_rate, mutation_rate, bits):
        for seed in range(4):
            config = ts.GaConfig(
                crossover_rate=crossover_rate, mutation_rate=mutation_rate,
                bga_precision_bits=bits, bga_mutation_range=(0.1, 0.9)[seed % 2],
            )
            parents = np.random.default_rng(seed).random((2, 40, n))
            parents[:, ::5] = _GENE_MAX  # rows of genes at the clip limits
            parents[:, 1::5] = 0.0
            rng = np.random.default_rng(100 + seed)
            oracle = np.random.default_rng(100 + seed)
            children = _build_children(rng, parents[0], parents[1], config)
            want = helpers.reference_children(oracle, parents[0], parents[1], config)
            assert children.tobytes() == want.tobytes()
            assert rng.bit_generator.state == oracle.bit_generator.state


def pinned_cases():
    return json.loads(PINNED_TRACES.read_text())


@pytest.mark.parametrize(
    "case", pinned_cases(), ids=lambda c: f"{c['case']}-{c['model']}"
)
def test_ga_matches_pinned_trace(case, mek_coefficients):
    """Traces and best assignments recorded from the per-genome reconstruct + schedule_power GA."""
    instance = generate_instance(
        GeneratorConfig(
            kernel_pool=helpers.MIXED_POOL, n_tasks=case["n"],
            rng_seed=case["gen_seed"], tightness_kappa=case["kappa"],
        ),
        helpers.MEK,
    )
    config = ts.GaConfig(
        population_size=40, max_generations=14, stall_generations=4, rng_seed=case["rng_seed"]
    )
    result = ts.run_ga(instance, case["model"], config, mek_coefficients)
    tol = 0.0 if case["model"] == "sm" else 1e-12
    assert len(result.trace) == len(case["trace"])
    for point, (generation, restart, best) in zip(result.trace, case["trace"]):
        assert (point.generation, point.restart) == (generation, restart)
        if best == "inf":
            assert point.best_fitness == math.inf
        else:
            assert abs(point.best_fitness - best) <= tol
    assert [[p.task_id, p.window, p.cluster] for p in result.assignment.placements] == case["placements"]


class TestGreedy:
    def test_everything_on_single_capable_cheap_cluster(self):
        # cluster 1 is cheaper for every task and can host everything
        instance = qm_instance(4, 4, core_counts=(4, 4), frame=10000)
        tasks = tuple(
            ts.Task(t.id, t.name, (
                ts.TaskCharacteristics(1, 50, 0.1, 0.1),
                ts.TaskCharacteristics(2, 50, 0.9, 0.1),
            ))
            for t in instance.tasks
        )
        instance = ts.Instance(instance.platform, tasks, 10000, 4)
        assignment = ts.greedy(instance)
        assert assignment is not None
        assert all(p.cluster == 1 for p in assignment.placements)

    def test_overflow_spills_to_second_cheapest(self):
        # cheap cluster 1 has one core and one window: only one task fits
        plat = ts.Platform(
            clusters=(
                ts.Cluster(id=1, core_count=1, label="cheap", frequency_mhz=1000),
                ts.Cluster(id=2, core_count=2, label="fast", frequency_mhz=2000),
            ),
            idle_power_watts=0.0,
        )
        tasks = tuple(
            ts.Task(i, f"t{i}", (
                ts.TaskCharacteristics(1, 90, 0.1, 0.1),
                ts.TaskCharacteristics(2, 50, 0.9, 0.1),
            ))
            for i in (1, 2, 3)
        )
        instance = ts.Instance(plat, tasks, 100, 1)
        assignment = ts.greedy(instance)
        assert assignment is not None
        clusters = sorted(p.cluster for p in assignment.placements)
        assert clusters == [1, 2, 2]

    def test_infeasible_matches_brute_force(self):
        feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
        seen_infeasible = 0
        for seed in range(40):
            instance = helpers.small_random_instance(seed, n_hi=6, kappa_lo=3.5, kappa_hi=6.0)
            oracle = ts.brute_force_optimum(instance, feas)
            assignment = ts.greedy(instance)
            if oracle.status is SearchStatus.INFEASIBLE:
                assert assignment is None
                seen_infeasible += 1
            else:
                assert assignment is not None
                assert ts.check_feasible(instance, assignment).feasible
        assert seen_infeasible > 0

    def test_oracle_timeout_is_not_infeasibility(self, monkeypatch):
        def timed_out(*args, **kwargs):
            return SearchResult(SearchStatus.UNKNOWN_TIMEOUT, None, None, None, 1024, 1.0)

        monkeypatch.setattr(heuristics, "solve", timed_out)
        instance, _ = helpers.seven_task_layout()
        with pytest.raises(TimeoutError):
            ts.greedy(instance, time_limit_ms=1)
        outcome = run_method("heur", instance, time_limit_ms=1)
        assert (outcome.status, outcome.assignment) == ("unknown", None)
