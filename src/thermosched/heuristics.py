"""Black-box genetic search and a greedy heuristic over task allocations.

The genetic algorithm encodes the whole allocation in one real gene per
task: the unit interval splits evenly into cluster sub-intervals, each of
which splits evenly into window sub-intervals. A repair pass turns a genome
into a feasible assignment where possible (two cyclic sweeps over the
windows, bumping tasks whose preferred slot is full to the next window);
genomes that cannot be repaired are discarded by ranking them worst.
Populations are scored as a whole from per-(task, cluster) tables built
once per run; decode and reconstruct share that decode and repair code.

The greedy heuristic fixes one task at a time, most energy-hungry first, to
the cheapest cluster that still leaves the rest of the instance completable,
using the exact feasibility oracle from the solver.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

from .exact import ObjectiveKind, ObjectiveSpec, PartialFix, SearchStatus, solve
from .model import Assignment, Instance, Placement, _open_for, _read_json_object
from .power import (
    PowerModel,
    RegressionCoefficients,
    _lr_energy,
    _sm_accumulate,
    schedule_power,  # noqa: F401  (re-exported: callers look it up in this module)
)

_GENE_MAX = 1.0 - 1e-12  # genes live in [0, 1)


@dataclass(frozen=True)
class DecodedGene:
    """Preferred (cluster, window) of one task plus its within-window rank."""

    cluster: int
    window: int
    preference: float


@dataclass(frozen=True)
class GaConfig:
    """Knobs of the genetic algorithm.

    population_size defaults to 50 per task when left unset. Mutation picks
    each gene with probability 1/n and perturbs it by a signed sum of
    inverse powers of two scaled by bga_mutation_range (each of
    bga_precision_bits terms participating with probability 1/bits).
    A restart with a fresh random population happens after
    stall_generations generations without improvement. max_generations
    bounds the total generation count across restarts; runs limited only by
    wall-clock time are seed-deterministic in their evolution but may be cut
    at different generations, so reproducibility tests should set
    max_generations.
    """

    crossover_rate: float = 0.8
    mutation_rate: float = 0.2
    population_size: int | None = None
    elite_discard_fraction: float = 0.10
    time_limit_ms: float | None = None
    rng_seed: int = 0
    bga_mutation_range: float = 0.1
    bga_precision_bits: int = 16
    max_generations: int | None = None
    stall_generations: int = 20


def ga_config_from_dict(doc: dict, **overrides) -> GaConfig:
    """Build a GaConfig from a JSON-style document; overrides win.

    Unknown fields are ignored so configs can carry annotations. Override
    values of None are dropped, which lets callers pass through unset CLI
    flags directly.
    """
    fields = {f.name for f in GaConfig.__dataclass_fields__.values()}
    merged = {k: v for k, v in doc.items() if k in fields}
    merged.update({k: v for k, v in overrides.items() if v is not None and k in fields})
    return GaConfig(**merged)


def load_ga_config(path_or_file: Union[str, IO[str]], **overrides) -> GaConfig:
    return ga_config_from_dict(_read_json_object(path_or_file, "GA config"), **overrides)


@dataclass(frozen=True)
class TracePoint:
    generation: int
    restart: int
    best_fitness: float


@dataclass
class GaResult:
    assignment: Assignment | None
    fitness: float
    trace: tuple[TracePoint, ...]
    generations: int
    restarts: int
    elapsed_ms: float

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def _decode_population(
    genomes: np.ndarray, m: int, q: int, task_ids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (population, n) gene array in one pass.

    Returns the 0-based preferred cluster index, the preference, the
    1-based preferred window and, per genome, the task indices by ascending
    (preference, task id). The window is monotone in the preference, so
    that order also groups the tasks by preferred window. The float
    operations are those of the scalar formula in decode, element by
    element, so the values are bit-identical to it.
    """
    ci = np.minimum((genomes * m).astype(np.int64), m - 1)
    pref = (genomes - ci / m) * q * m
    pref = np.minimum(np.maximum(pref, 0.0), math.nextafter(float(q), 0.0))
    window = np.minimum(pref.astype(np.int64), q - 1) + 1
    order = np.lexsort((np.broadcast_to(np.asarray(task_ids), pref.shape), pref))
    return ci, pref, window, order


def _decode_genome(genome: Sequence[float], instance: Instance) -> tuple[list, list, list, list]:
    """Validate one genome and decode it as _decode_population does, as lists."""
    if len(genome) != len(instance.tasks):
        raise ValueError(
            f"genome length {len(genome)} does not match task count "
            f"{len(instance.tasks)}"
        )
    genes = np.array([float(x) for x in genome], dtype=float)
    outside = np.flatnonzero(~((genes >= 0.0) & (genes < 1.0)))
    if outside.size:
        raise ValueError(f"gene {genes[outside[0]]} outside [0, 1)")
    decoded = _decode_population(
        genes[None, :],
        len(instance.platform.clusters),
        instance.max_windows,
        [t.id for t in instance.tasks],
    )
    return tuple(a[0].tolist() for a in decoded)


def decode(genome: Sequence[float], instance: Instance) -> list[DecodedGene]:
    """Map genes in [0, 1) to preferred (cluster, window) pairs.

    cluster = floor(x * m) + 1; the remainder within the cluster
    sub-interval, rescaled by q * m, gives the preference in [0, q) whose
    integer part selects the window. Total on the whole of [0, 1)
    including values within rounding distance of sub-interval boundaries.
    """
    ci, pref, window, _ = _decode_genome(genome, instance)
    return [
        DecodedGene(cluster=c + 1, window=w, preference=x)
        for c, w, x in zip(ci, window, pref)
    ]


def _repair(
    order: Sequence[int],
    cluster: Sequence[int],
    window: Sequence[int],
    task_ids: Sequence[int],
    cores: Sequence[int],
    q: int,
) -> list[int] | None:
    """The repair sweeps of reconstruct; 1-based window per task, or None.

    order lists the task indices by ascending (preference, task id), as
    _decode_population returns it, so each window's own tasks form one run
    of it. A task bumped out of a window re-enters the next one with
    preference zero, ahead of that window's own tasks (whose preferences
    are at least 1 from window 2 on) and ordered by task id among the
    bumped. Costs O(n log n + q) per genome.
    """
    m = len(cores)
    n = len(order)
    free = list(cores) * q  # free cores, indexed (window - 1) * m + cluster
    placed = [0] * n
    carry: list[int] = []  # tasks bumped out of the previous window
    k = 0  # next unvisited position in order
    for sweep in range(2 * q):
        j = sweep % q + 1
        todo = carry
        if len(todo) > 1:
            todo.sort(key=task_ids.__getitem__)
        carry = []
        if sweep < q:
            end = k
            while end < n and window[order[end]] == j:
                end += 1
            if end > k:
                todo += order[k:end]
                k = end
        base = (j - 1) * m
        for i in todo:
            slot = base + cluster[i]
            if free[slot]:
                free[slot] -= 1
                placed[i] = j
            else:
                carry.append(i)
        if not carry and k == n:
            return placed
    return None


def reconstruct(genome: Sequence[float], instance: Instance) -> Assignment | None:
    """Repair a genome into a feasible assignment, or report failure as None.

    Sweeps the windows cyclically twice. In each visited window the still
    unassigned tasks preferring it are processed by ascending preference
    (ties on task id); a task is placed when its preferred cluster has a
    free core there, otherwise its preference moves to the next window with
    preference reset to zero. Fails when a task stays unassigned or the
    derived window lengths exceed the major frame.
    """
    cluster, _, window, order = _decode_genome(genome, instance)
    task_ids = [t.id for t in instance.tasks]
    cores = [c.core_count for c in instance.platform.clusters]
    placed = _repair(order, cluster, window, task_ids, cores, instance.max_windows)
    if placed is None:
        return None
    assignment = Assignment.from_placements(
        instance,
        [Placement(tid, w, c + 1) for tid, w, c in zip(task_ids, placed, cluster)],
    )
    if assignment.total_window_length_ms > instance.major_frame_ms:
        return None
    return assignment


class _PopulationFitness:
    """SM or LR fitness of whole GA populations for one instance.

    Per-(task, cluster) execution times, characteristics and LR energies
    are looked up once per run. A genome is decoded with the rest of its
    population, repaired by _repair and scored without building an
    Assignment: SM through the window accumulation schedule_power uses, LR
    through its per-task closed form. Genomes that do not repair, or whose
    windows overflow the major frame, score inf.
    """

    def __init__(
        self,
        instance: Instance,
        model: PowerModel,
        coefficients: RegressionCoefficients | None,
    ):
        clusters = instance.platform.clusters
        self.m = len(clusters)
        self.q = instance.max_windows
        self.h = instance.major_frame_ms
        self.idle = instance.platform.idle_power_watts
        self.cores = [c.core_count for c in clusters]
        self.task_ids = [t.id for t in instance.tasks]
        # schedule_power visits placements, hence windows, in task-id order
        self.by_id = sorted(range(len(self.task_ids)), key=self.task_ids.__getitem__)
        self.chars = [[t.on(c.id) for c in clusters] for t in instance.tasks]
        self.exec_ms = [[tc.exec_time_ms for tc in row] for row in self.chars]
        self.lr = None
        if model is PowerModel.LR:
            self.lr = [
                [_lr_energy(tc, coefficients.beta(c.id)) for tc, c in zip(row, clusters)]
                for row in self.chars
            ]

    def __call__(self, population: np.ndarray) -> np.ndarray:
        ci, _, window, order = _decode_population(population, self.m, self.q, self.task_ids)
        fitness = np.full(len(population), math.inf)
        for r, (cluster, wins, row_order) in enumerate(
            zip(ci.tolist(), window.tolist(), order.tolist())
        ):
            placed = _repair(row_order, cluster, wins, self.task_ids, self.cores, self.q)
            if placed is not None:
                fitness[r] = self._score(placed, cluster)
        return fitness

    def _score(self, placed: list[int], cluster: list[int]) -> float:
        lengths = [0] * self.q
        for i, (j, c) in enumerate(zip(placed, cluster)):
            e = self.exec_ms[i][c]
            if e > lengths[j - 1]:
                lengths[j - 1] = e
        if sum(lengths) > self.h:
            return math.inf
        if self.lr is not None:
            activity = 0.0
            offset = 0.0
            for i in self.by_id:
                a, b = self.lr[i][cluster[i]]
                activity += a
                offset += b
            return self.idle + activity / self.h + offset / self.h
        by_window: dict[int, list] = {}
        for i in self.by_id:
            by_window.setdefault(placed[i], []).append(self.chars[i][cluster[i]])
        activity, offset = _sm_accumulate(
            ((lengths[j - 1], tcs) for j, tcs in by_window.items()), self.h
        )
        return self.idle + activity + offset


def write_fitness_trace_csv(
    trace: Sequence[TracePoint], path_or_file: Union[str, IO[str]]
) -> None:
    f, owned = _open_for(path_or_file, "w")
    try:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["generation", "restart", "best_fitness"])
        for p in trace:
            writer.writerow([p.generation, p.restart, repr(p.best_fitness)])
    finally:
        if owned:
            f.close()


def _two_point_crossover(rng: np.random.Generator, p1: np.ndarray, p2: np.ndarray):
    n = len(p1)
    a, b = sorted(rng.integers(0, n + 1, size=2))
    child = p1.copy()
    child[a:b] = p2[a:b]
    return child


def _bga_mutate(
    rng: np.random.Generator, vec: np.ndarray, mut_range: float, bits: int
) -> None:
    n = len(vec)
    powers = 2.0 ** -np.arange(bits)
    picked = np.flatnonzero(rng.random(n) < 1.0 / n)
    for idx in picked:
        alpha = rng.random(bits) < 1.0 / bits
        delta = mut_range * float(powers[alpha].sum())
        if rng.random() < 0.5:
            delta = -delta
        vec[idx] = min(max(vec[idx] + delta, 0.0), _GENE_MAX)


def run_ga(
    instance: Instance,
    model: Union[PowerModel, str],
    config: GaConfig,
    coefficients: RegressionCoefficients | None = None,
) -> GaResult:
    """Evolve allocations against the SM or LR power model.

    Each generation is scored as a whole: the population is decoded in one
    array pass, every genome is repaired as reconstruct would repair it,
    and its power is computed from per-(task, cluster) tables built once
    per run, equal to schedule_power of the repaired assignment (SM bit
    for bit, LR through the same closed form). An Assignment is built only
    when a genome improves on the best so far.

    Selection is by uniform ranking: the worst elite_discard_fraction of
    each generation is discarded and parents are drawn uniformly from the
    survivors. Reconstruction failures rank after every finite fitness. On
    stalling the population restarts from fresh random genomes; the best
    assignment ever seen is returned, or a result without an assignment
    when no genome ever reconstructed.
    """
    model = PowerModel(model)
    if model is PowerModel.LR_UB:
        raise ValueError("the genetic search uses the SM or LR model")
    if model is PowerModel.LR and coefficients is None:
        raise ValueError("the LR fitness model requires regression coefficients")
    if config.time_limit_ms is None and config.max_generations is None:
        raise ValueError("set time_limit_ms or max_generations (or both)")
    if not 0.0 <= config.crossover_rate <= 1.0 or not 0.0 <= config.mutation_rate <= 1.0:
        raise ValueError("rates must lie in [0, 1]")

    n = len(instance.tasks)
    pop_size = config.population_size if config.population_size is not None else 50 * n
    if pop_size < 2:
        raise ValueError("population_size must be at least 2")
    keep = max(2, pop_size - int(pop_size * config.elite_discard_fraction))

    rng = np.random.default_rng(config.rng_seed)
    t_start = time.perf_counter()
    deadline = (
        None if config.time_limit_ms is None else t_start + config.time_limit_ms / 1000.0
    )

    fitness_of = _PopulationFitness(instance, model, coefficients)

    best_fitness = math.inf
    best_assignment: Assignment | None = None
    trace: list[TracePoint] = []
    total_generations = 0
    restart = 0
    stop = False

    while not stop:
        population = rng.random((pop_size, n))
        restart_best = math.inf
        stall = 0
        generation = 0
        while True:
            fitness = fitness_of(population)
            i_best = int(np.argmin(fitness))
            if fitness[i_best] < restart_best:
                restart_best = float(fitness[i_best])
                stall = 0
                if restart_best < best_fitness:
                    best_fitness = restart_best
                    best_assignment = reconstruct(population[i_best], instance)
            else:
                stall += 1
            trace.append(TracePoint(generation, restart, restart_best))
            total_generations += 1
            generation += 1

            if config.max_generations is not None and total_generations >= config.max_generations:
                stop = True
            if deadline is not None and time.perf_counter() >= deadline:
                stop = True
            if stop:
                break
            if stall >= config.stall_generations:
                break  # converged; restart from scratch

            order = np.argsort(fitness, kind="stable")
            survivors = population[order[:keep]]
            parents_a = survivors[rng.integers(0, keep, size=pop_size)]
            parents_b = survivors[rng.integers(0, keep, size=pop_size)]
            children = np.empty_like(population)
            for i in range(pop_size):
                if rng.random() < config.crossover_rate:
                    children[i] = _two_point_crossover(rng, parents_a[i], parents_b[i])
                else:
                    children[i] = parents_a[i]
                if rng.random() < config.mutation_rate:
                    _bga_mutate(
                        rng, children[i], config.bga_mutation_range,
                        config.bga_precision_bits,
                    )
            population = children
        restart += 1

    elapsed = (time.perf_counter() - t_start) * 1000.0
    return GaResult(
        assignment=best_assignment,
        fitness=best_fitness,
        trace=tuple(trace),
        generations=total_generations,
        restarts=restart,
        elapsed_ms=elapsed,
    )


def greedy(
    instance: Instance, feasibility_time_limit_ms: float | None = None
) -> Assignment | None:
    """Fix tasks to clusters one by one, cheapest energy first.

    Tasks are processed by non-increasing max-over-clusters expected energy
    (activity_coef * exec_time_ms); for each task the clusters are tried by
    non-decreasing expected energy, and a fix is committed only when the
    feasibility oracle confirms the remaining tasks can still be placed.
    Returns the assignment of the last oracle call, which covers all tasks,
    or None when no complete fixing exists.
    """

    def energy(task, cid):
        tc = task.on(cid)
        return tc.activity_coef * tc.exec_time_ms

    cluster_ids = [c.id for c in instance.platform.clusters]
    order = sorted(
        instance.tasks,
        key=lambda t: (-max(energy(t, cid) for cid in cluster_ids), t.id),
    )
    fixed: dict[int, int] = {}
    last: Assignment | None = None
    feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
    for task in order:
        placed = False
        for cid in sorted(cluster_ids, key=lambda c: (energy(task, c), c)):
            trial = dict(fixed)
            trial[task.id] = cid
            result = solve(
                instance, feas, PartialFix.of(trial),
                time_limit_ms=feasibility_time_limit_ms,
            )
            if result.status is SearchStatus.OPTIMAL:
                fixed[task.id] = cid
                last = result.assignment
                placed = True
                break
        if not placed:
            return None
    return last
