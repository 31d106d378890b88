import dataclasses
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import thermosched as ts
from thermosched import heuristics
from thermosched.exact import ObjectiveKind, ObjectiveSpec, SearchStatus
from thermosched.generator import GeneratorConfig, generate_instance, sweep_seed
from thermosched.heuristics import _GENE_MAX, _build_children, _PopulationFitness
from thermosched.model import Unusable
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


def decoded(genome, instance):
    """The GA's population decode of one genome, as (cluster id, window, preference)."""
    ci, pref, window = heuristics._decode_population(
        np.array([genome], dtype=float), len(instance.platform.clusters), instance.max_windows
    )
    return [
        helpers.Gene(c + 1, w, x)
        for c, w, x in zip(ci[0].tolist(), window[0].tolist(), pref[0].tolist())
    ]


class TestDecode:
    def test_boundary_of_second_half(self):
        instance = qm_instance(3, 3)
        genes = decoded([0.5, 0.0, 0.0], instance)
        assert (genes[0].cluster, genes[0].window) == (2, 1)
        assert genes[0].preference == pytest.approx(0.0)

    def test_quarter_point(self):
        instance = qm_instance(3, 3)
        g = decoded([0.25] * 3, instance)[0]
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
            g = decoded([x], instance)[0]
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
            g = decoded([x], instance)[0]
            assert 1 <= g.cluster <= m
            assert 1 <= g.window <= q
            assert 0.0 <= g.preference < q

    def test_rejects_out_of_range(self):
        instance = qm_instance(1, 2)
        with pytest.raises(ValueError, match=r"^gene 1\.0 outside \[0, 1\)$"):
            ts.reconstruct([1.0], instance)

    def test_rejects_a_genome_of_the_wrong_length(self):
        instance = qm_instance(3, 2)
        with pytest.raises(ValueError, match="^genome length 2 does not match task count 3$"):
            ts.reconstruct([0.1, 0.2], instance)

    def test_bit_identical_to_scalar_formula(self):
        rng = random.Random(3)
        for q in (1, 2, 3, 7, 30):
            instance = qm_instance(1, q)
            genes = [0.0, _GENE_MAX] + special_genes(2, q) + [rng.random() for _ in range(200)]
            for x in genes:
                [got] = decoded([x], instance)
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
        genes = decoded(genome, instance)
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
        assert decoded(genome, instance)[bumped.task_id - 1].preference == pytest.approx(
            max(g.preference for g in decoded(genome, instance))
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

    def test_negative_seed_is_refused(self):
        instance = helpers.small_random_instance(33, n=4)
        with pytest.raises(ValueError, match="^rng_seed must be non-negative, got -5$"):
            ts.run_ga(instance, "sm", ts.GaConfig(max_generations=2, rng_seed=-5))

    def test_lr_model_needs_coefficients(self):
        instance = helpers.small_random_instance(33, n=4)
        with pytest.raises(ValueError):
            ts.run_ga(instance, "lr", ts.GaConfig(max_generations=2))

    def test_lr_ub_model_is_refused(self, mek_coefficients):
        instance = helpers.small_random_instance(33, n=4)
        with pytest.raises(ValueError, match="^the genetic search uses the SM or LR model$"):
            ts.run_ga(instance, "lr-ub", ts.GaConfig(max_generations=2), mek_coefficients)

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


# field: (out-of-range value, its message, value of the wrong type, the type wanted)
_GA_REFUSALS = {
    "crossover_rate": (1.5, "rates must lie in [0, 1]", "0.8", "a number"),
    "mutation_rate": (-0.1, "rates must lie in [0, 1]", None, "a number"),
    "population_size": (1, "population_size must be at least 2", 2.5, "an integer"),
    "elite_discard_fraction": (
        math.nan, "elite_discard_fraction must lie in [0, 1]", True, "a number"
    ),
    "rng_seed": (-5, "rng_seed must be non-negative, got -5", 1.5, "an integer"),
    "bga_mutation_range": (math.inf, "bga_mutation_range must be finite", [0.1], "a number"),
    "bga_precision_bits": (54, "bga_precision_bits must lie in 1..53", True, "an integer"),
    "max_generations": (0, "max_generations must be at least 1", 2.5, "an integer"),
    "stall_generations": (0, "stall_generations must be at least 1", 20.0, "an integer"),
}


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize("wrong", ["range", "type"])
@pytest.mark.parametrize("field", sorted(_GA_REFUSALS))
def test_ga_config_refuses_every_bad_field(field, wrong, build):
    out_of_range, message, wrong_type, kind = _GA_REFUSALS[field]
    value = out_of_range
    if wrong == "type":
        value, message = wrong_type, f"GA config: '{field}' must be {kind}, got {wrong_type!r}"
    with pytest.raises(Unusable, match=f"^{re.escape(message)}$"):
        if build == "replace":
            dataclasses.replace(ts.GaConfig(), **{field: value})
        else:
            ts.GaConfig(**{field: value})


def test_ga_config_accepts_any_integral_or_real_number():
    config = ts.GaConfig(
        crossover_rate=1, mutation_rate=np.float64(0.5), population_size=np.int64(4),
        rng_seed=np.int64(3), max_generations=None,
    )
    assert config.population_size == 4 and config.mutation_rate == 0.5


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
    @given(st.integers(0, 10_000), st.sampled_from(["sm", "lr"]), st.booleans())
    def test_matches_reference_across_generations(self, seed, model, negated):
        rng = np.random.default_rng(seed)
        instance = helpers.small_random_instance(seed, q_max=5, kappa_lo=0.8, kappa_hi=3.0)
        if negated:  # windows whose largest offset is negative
            instance = helpers.with_negated_odd_offsets(instance)
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


class TestPopulationFitnessMemoKeys:
    """Rows are keyed by their bytes in row order, whatever the population's memory layout."""

    @pytest.mark.parametrize(
        "layout", [np.asfortranarray, lambda population: population[:, ::-1]],
        ids=["fortran-order", "reversed-columns"],
    )
    @pytest.mark.parametrize("model", ["sm", "lr"])
    def test_non_contiguous_population_scores_as_its_copy(self, layout, model):
        instance = helpers.small_random_instance(4, n_lo=6, n_hi=12, q_max=6, kappa_lo=1.0)
        coefficients = helpers.MEK_COEFF if model == "lr" else None
        population = layout(fast_path_population(instance, np.random.default_rng(4), 24))
        assert not population.flags.c_contiguous
        with pytest.raises(ValueError, match="the last axis must be contiguous"):
            population.view(f"V{population.itemsize * population.shape[1]}")
        copy = np.ascontiguousarray(population)
        want = _PopulationFitness(instance, PowerModel(model), coefficients)(copy)
        assert 0 < np.isfinite(want).sum() < len(want)
        fitness_of = _PopulationFitness(instance, PowerModel(model), coefficients)
        assert fitness_of(population).tolist() == want.tolist()
        assert set(fitness_of._previous) == {row.tobytes() for row in copy}

    def test_one_row_and_all_hits(self, monkeypatch):
        instance = helpers.small_random_instance(8, n_lo=6, n_hi=12, q_max=6, kappa_lo=1.0)
        population = fast_path_population(instance, np.random.default_rng(8), 16)
        want = _PopulationFitness(instance, PowerModel.SM, None)(population).tolist()
        fitness_of = _PopulationFitness(instance, PowerModel.SM, None)
        assert fitness_of(population[5:6]).tolist() == want[5:6]
        assert list(fitness_of._previous) == [population[5].tobytes()]
        fitness_of(population)
        # every row of the next call was scored in this one or the one before
        monkeypatch.setattr(fitness_of, "_score", lambda rows: pytest.fail("scored a memo hit"))
        again = population[[5, 0, 0, 15, 3]]
        assert fitness_of(again).tolist() == [want[r] for r in (5, 0, 0, 15, 3)]
        assert set(fitness_of._previous) == {row.tobytes() for row in again}


@st.composite
def repair_edge_instance(draw):
    """A few-core instance with q >= 2 and more tasks than its smallest cluster has cores."""
    cores = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    q = draw(st.integers(2, 4))
    n = draw(st.integers(q * min(cores) + 1, 12))
    exec_times = [tuple(draw(st.integers(1, 100)) for _ in cores) for _ in range(n)]
    return qm_instance(
        n, q, core_counts=tuple(cores), frame=draw(st.integers(50, 100 * q)),
        exec_times=exec_times,
    )


def edge_path_population(instance, rng, size):
    """Rows that overfill window q, cascade through full windows, or overload a cluster.

    Each kind pins randomly chosen tasks to slots of the smallest cluster c
    and leaves the other genes random: cores + 1 tasks in (q, c); cores + 1
    in (j, c) and cores in (j + 1, c); or every task on c. Every fourth row
    is random.
    """
    n = len(instance.tasks)
    m = len(instance.platform.clusters)
    q = instance.max_windows
    cores = [cl.core_count for cl in instance.platform.clusters]
    c = cores.index(min(cores))
    rows = []
    for r in range(size):
        kind = r % 4
        if kind == 0:
            pinned = [q] * (cores[c] + 1)
        elif kind == 1:
            j = int(rng.integers(1, q))
            pinned = [j] * (cores[c] + 1) + [j + 1] * cores[c]
        elif kind == 2:
            pinned = rng.integers(1, q + 1, size=n).tolist()
        else:
            pinned = []
        genome = rng.random(n)
        for i, j in zip(rng.permutation(n).tolist(), pinned):
            genome[i] = slot_gene(c, j, m, q, rng.uniform(0.05, 0.95))
        rows.append(genome)
    return np.array(rows)


def edge_paths(genome, instance):
    """The repair paths a genome's preferred slots force, read from its decode alone.

    wrap: a slot of window q is overfull, so a task is carried into the
    second sweep. cascade: an overfull slot's next window is full in the
    same cluster, so the carry bumps one of that window's tasks on in turn.
    unplaced: a cluster is preferred by more tasks than it has cores in all
    windows, so a task is still bumped after both sweeps.
    """
    q = instance.max_windows
    genes = helpers.reference_decode(genome, instance)
    load = Counter((g.window, g.cluster) for g in genes)
    per_cluster = Counter(g.cluster for g in genes)
    cores = {cl.id: cl.core_count for cl in instance.platform.clusters}
    paths = set()
    if any(load[q, c] > k for c, k in cores.items()):
        paths.add("wrap")
    if any(load[j, c] > k and load[j + 1, c] >= k for j in range(1, q) for c, k in cores.items()):
        paths.add("cascade")
    if any(per_cluster[c] > q * k for c, k in cores.items()):
        paths.add("unplaced")
    return paths


class TestRepairEdgePaths:
    """Rows whose repair wraps, cascades or fails score as the reference."""

    @settings(max_examples=80, deadline=None)
    @given(repair_edge_instance(), st.integers(0, 10_000))
    def test_matches_reference(self, instance, seed):
        population = edge_path_population(instance, np.random.default_rng(seed), 32)
        fitness = _PopulationFitness(instance, PowerModel.SM, None)(population)
        kinds = set()
        for genome, value in zip(population, fitness):
            paths = edge_paths(genome, instance)
            kinds |= paths
            assignment = helpers.reference_reconstruct(genome, instance)
            assert ts.reconstruct(genome, instance) == assignment
            if assignment is None:
                assert value == math.inf
            else:
                assert "unplaced" not in paths
                assert value == ts.schedule_power(instance, assignment, "sm").watts
        assert kinds == {"wrap", "cascade", "unplaced"}

    @pytest.mark.parametrize(
        "n, q, cores",
        [(0, 1, (2, 1)), (0, 3, (1,)), (2, 1, (2, 1)), (4, 1, (2, 1)), (3, 1, (3,)),
         (6, 3, (2,)), (4, 4, (1,)), (9, 4, (1,))],
        ids=["n0", "n0-one-cluster", "q1", "q1-too-many", "q1-one-cluster", "one-cluster",
             "one-cluster-one-core", "one-cluster-too-many"],
    )
    def test_reconstruct_at_the_edges(self, n, q, cores):
        instance = qm_instance(n, q, core_counts=cores, frame=50 * n + 50)
        m = len(cores)
        rng = np.random.default_rng(n * 100 + q)
        genomes = [rng.random(n) for _ in range(300)]
        genomes += [[0.0] * n, [_GENE_MAX] * n] + [[x] * n for x in special_genes(m, q)]
        outcomes = set()
        for genome in genomes:
            got = ts.reconstruct(genome, instance)
            assert got == helpers.reference_reconstruct(genome, instance)
            outcomes.add(got is None)
        if n == 0:
            assert outcomes == {False}
        elif n > q * sum(cores):
            assert outcomes == {True}
        else:
            assert False in outcomes


class TestRunGaBuildsOneAssignment:
    @staticmethod
    def counting(monkeypatch):
        calls = []
        real = heuristics.reconstruct

        def spy(genome, instance):
            calls.append(genome)
            return real(genome, instance)

        monkeypatch.setattr(heuristics, "reconstruct", spy)
        return calls

    def test_one_reconstruct_on_a_feasible_run(self, monkeypatch):
        instance = helpers.small_random_instance(36, n=8, q_max=4, kappa_lo=1.0, kappa_hi=1.5)
        calls = self.counting(monkeypatch)
        result = ts.run_ga(
            instance, "sm", ts.GaConfig(max_generations=12, rng_seed=3, population_size=40)
        )
        assert result.feasible
        assert len({p.best_fitness for p in result.trace}) > 1  # the best improved more than once
        assert len(calls) == 1
        assert ts.schedule_power(instance, result.assignment, "sm").watts == result.fitness

    def test_no_reconstruct_when_no_genome_repairs(self, monkeypatch):
        # generate --n 10 --kernels mixed --seed 7 (kappa 3.5, imx8-mek)
        instance = generate_instance(
            GeneratorConfig(kernel_pool=helpers.MIXED_POOL, n_tasks=10, rng_seed=7), helpers.MEK
        )
        calls = self.counting(monkeypatch)
        result = ts.run_ga(instance, "sm", ts.GaConfig(max_generations=5, rng_seed=0))
        assert result.assignment is None and result.fitness == math.inf
        assert calls == []


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

    @pytest.mark.parametrize(
        "mutation_rate, bits", [(0.5, 16), (1.0, 1)], ids=["bits16", "bits1"]
    )
    def test_same_distribution_as_child_by_child_draws(self, mutation_rate, bits):
        """The array builder's children follow the per-child loop's distribution.

        Parent a holds 0.25 and parent b 0.75 in every gene, and a mutation
        moves a gene by at most 0.2, so a child gene above 0.5 came from b and
        its distance to its parent is its delta. With one term (bits=1) every
        picked gene moves, so the changed genes of a mutated row are its picks.
        Each statistic of the two builders, estimated from 24k children each,
        may differ by five standard errors of the difference of two
        independent estimates.
        """
        size, n = 24000, 30
        config = ts.GaConfig(crossover_rate=0.6, mutation_rate=mutation_rate, bga_precision_bits=bits)
        parents_a, parents_b = np.full((size, n), 0.25), np.full((size, n), 0.75)

        def statistics(children):
            from_b = children > 0.5
            delta = children - np.where(from_b, 0.75, 0.25)
            spans = from_b.sum(axis=1)
            first = np.where(spans > 0, from_b.argmax(axis=1), 0)
            block = (np.arange(n) >= first[:, None]) & (np.arange(n) < (first + spans)[:, None])
            assert (block == from_b).all()  # b's genes form one block
            changed = delta != 0.0
            mutated = changed.any(axis=1)
            return {
                "cross": spans > 0,
                **{f"span{k}": spans == k for k in range(n + 1)},
                "mutated": mutated,
                "picks": changed[mutated],
                "abs_delta": np.abs(delta[changed]),
                "negative": delta[changed] < 0.0,
            }

        got = statistics(_build_children(np.random.default_rng(7), parents_a, parents_b, config))
        want = statistics(helpers.children_drawn_per_child(
            np.random.default_rng(8), parents_a, parents_b, config
        ))
        assert want["cross"].mean() == pytest.approx(0.6 * n / (n + 1), abs=0.02)
        for name, sample in want.items():
            mine = got[name]
            se = np.sqrt(sample.var() / sample.size + mine.var() / mine.size)
            assert abs(mine.mean() - sample.mean()) <= 5.0 * se + 1e-12, name

    def test_fixed_number_of_generator_calls(self):
        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def random(self, *args, **kwargs):
                self.calls += 1
                return self.rng.random(*args, **kwargs)

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        config = ts.GaConfig(crossover_rate=0.9, mutation_rate=0.9)
        counts = []
        for size in (2, 50, 1500):
            parents = np.random.default_rng(size).random((2, size, 30))
            rng = CountingGenerator(np.random.default_rng(size))
            _build_children(rng, parents[0], parents[1], config)
            counts.append(rng.calls)
        assert len(set(counts)) == 1 and counts[0] <= 5, counts


def pinned_cases():
    return json.loads(PINNED_TRACES.read_text())


@pytest.mark.parametrize(
    "case", pinned_cases(), ids=lambda c: f"{c['case']}-{c['model']}"
)
def test_ga_matches_pinned_trace(case, mek_coefficients):
    """Traces and best assignments of seeded runs, recorded with the current children builder.

    A seed's evolution depends on the order of _build_children's draws, so
    changing that order re-records this file (and bumps __version__).
    """
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
            return None, None, None, 1024, True  # no witness, cut by the deadline

        monkeypatch.setattr(heuristics, "_cluster_search", timed_out)
        instance, _ = helpers.seven_task_layout()
        with pytest.raises(TimeoutError):
            ts.greedy(instance, time_limit_ms=1)
        outcome = run_method("heur", instance, time_limit_ms=1)
        assert (outcome.status, outcome.assignment) == ("unknown", None)

    def test_deadline_spent_before_the_first_trial(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no trial may start after the deadline")

        monkeypatch.setattr(heuristics, "_cluster_search", never)
        monkeypatch.setattr(heuristics, "deadline_after", lambda ms: 0.0)  # long past
        instance, _ = helpers.seven_task_layout()
        with pytest.raises(TimeoutError):
            ts.greedy(instance, time_limit_ms=1000)
        outcome = run_method("heur", instance, time_limit_ms=1000)
        assert (outcome.status, outcome.assignment) == ("unknown", None)


def _greedy_cases():
    """Small κ 3.5-6 instances, where first-choice fixes are refused and some
    runs find no schedule, and generated n=30 and n=45 instances at κ 3.5."""
    for seed in range(40):
        yield helpers.small_random_instance(seed, n_hi=8, kappa_lo=3.5, kappa_hi=6.0)
    for n in (30, 45):
        for r in range(6):
            config = GeneratorConfig(
                kernel_pool=helpers.MIXED_POOL, n_tasks=n, rng_seed=sweep_seed(3, n, r),
                tightness_kappa=3.5,
            )
            yield generate_instance(config, helpers.MEK)


class TestGreedyMatchesReference:
    """greedy against one solve(FEASIBILITY_ONLY) call per trial."""

    def test_same_result_on_every_case(self):
        refused = none = 0
        cases = list(_greedy_cases())
        for instance in cases:
            expected, calls = helpers.reference_greedy(instance)
            assert ts.greedy(instance) == expected
            refused += expected is not None and calls > len(instance.tasks)
            none += expected is None
        assert (len(cases), refused, none) == (52, 9, 28)

    def test_one_schedule_built_and_one_oracle_call_per_trial(self, monkeypatch):
        # Each trial runs the cluster search, which builds no schedule; only
        # greedy's result is placed. Skipping trials (reusing a witness)
        # makes heur faster than criterion 12 allows.
        from thermosched import exact

        instance = helpers.small_random_instance(5, n_hi=8, kappa_lo=3.5, kappa_hi=6.0)
        expected, reference_calls = helpers.reference_greedy(instance)
        assert (len(instance.tasks), reference_calls) == (7, 11)  # four fixes refused
        calls = []
        for module, name in (
            (exact, "_placed"),
            (heuristics, "_placed"),
            (heuristics, "_cluster_search"),
        ):
            monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
        assert ts.greedy(instance) == expected
        assert calls.count("_placed") == 1
        assert calls.count("_cluster_search") == reference_calls


    @pytest.mark.parametrize("base, n, r", [(1, 12, 7), (3, 16, 0)])
    def test_a_trial_settled_by_its_first_seed_map_groups_once(self, base, n, r, monkeypatch):
        # On these instances every trial's first seed map fits, which proves
        # that its fixes fit, so they are never grouped alone: one grouping
        # per trial and one for the result.
        from thermosched import exact

        config = GeneratorConfig(
            kernel_pool=helpers.MIXED_POOL, n_tasks=n, rng_seed=sweep_seed(base, n, r),
            tightness_kappa=3.5,
        )
        instance = generate_instance(config, helpers.MEK)
        expected, _ = helpers.reference_greedy(instance)
        calls, fits = [], []
        group = exact._group

        def grouped(*args):
            grouping = group(*args)
            fits.append(grouping is not None)
            return grouping

        monkeypatch.setattr(exact, "_group", _counting(calls, "_group", grouped))
        monkeypatch.setattr(heuristics, "_group", _counting(calls, "_group", grouped))
        monkeypatch.setattr(
            heuristics, "_cluster_search",
            _counting(calls, "_cluster_search", heuristics._cluster_search),
        )
        assert ts.greedy(instance) == expected
        assert calls.count("_cluster_search") == n  # no fix is refused
        assert calls.count("_group") == n + 1
        assert all(fits)

    def test_one_table_built_per_run(self, monkeypatch):
        # Every trial of a run reads the one task table; a table per trial
        # would rebuild the seed maps and rank orders that it holds.
        calls = []
        monkeypatch.setattr(
            heuristics, "_TaskTable", _counting(calls, "_TaskTable", heuristics._TaskTable)
        )
        for instance in list(_greedy_cases())[::4]:
            calls.clear()
            expected, _ = helpers.reference_greedy(instance)
            assert ts.greedy(instance) == expected
            assert calls == ["_TaskTable"]


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted
