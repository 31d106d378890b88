"""Black-box genetic search and a greedy heuristic over task allocations.

The genetic algorithm encodes the whole allocation in one real gene per
task: the unit interval splits evenly into cluster sub-intervals, each of
which splits evenly into window sub-intervals. A repair pass turns a genome
into a feasible assignment where possible (two cyclic sweeps over the
windows, bumping tasks whose preferred slot is full to the next window);
genomes that cannot be repaired are discarded by ranking them worst.
Populations are scored as a whole from per-(task, cluster) tables built
once per run; decode and reconstruct share that decode and repair code.
Each distinct genome is scored once across two consecutive generations,
and a genome whose preferred slots all have free cores skips the repair
sweeps. Children are built in array passes from the same random draws, in
the same order, as a child-by-child crossover and mutation loop.

The greedy heuristic fixes one task at a time, most energy-hungry first, to
the cheapest cluster that still leaves the rest of the instance completable,
using the exact feasibility oracle from the solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

from .exact import (
    ObjectiveKind, ObjectiveSpec, PartialFix, SearchStatus, _grouped_assignment, deadline_after,
    solve,
)
from .model import Assignment, Instance, ParseError, _load_json, _write_csv
from .power import (
    PowerModel,
    RegressionCoefficients,
    _lr_energy,
    _window_accumulate,
    schedule_power,  # noqa: F401  (unused here; bench/tracer.py wraps this name)
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
    crossover_rate, mutation_rate and elite_discard_fraction lie in [0, 1]
    and bga_precision_bits in 1..53; run_ga raises ValueError otherwise. A
    restart with a fresh random population happens after stall_generations
    generations without improvement. max_generations bounds the total
    generation count across restarts; the time limit is run_ga's argument.
    Runs limited only by wall-clock time are seed-deterministic in their
    evolution but may be cut at different generations, so reproducibility
    tests should set max_generations.
    """

    crossover_rate: float = 0.8
    mutation_rate: float = 0.2
    population_size: int | None = None
    elite_discard_fraction: float = 0.10
    rng_seed: int = 0
    bga_mutation_range: float = 0.1
    bga_precision_bits: int = 16
    max_generations: int | None = None
    stall_generations: int = 20


def ga_config_from_dict(doc: dict, **overrides) -> GaConfig:
    """Build a GaConfig from a JSON-style document; overrides win.

    Unknown fields are ignored so configs can carry annotations. Known fields
    must hold an integer where the field is one, a number otherwise, or null
    where the default is unset; anything else is a ParseError. Override
    values of None are dropped, which lets callers pass through unset CLI
    flags directly.
    """
    fields = GaConfig.__dataclass_fields__
    merged = {k: v for k, v in doc.items() if k in fields}
    for k, v in merged.items():
        numeric = (int,) if fields[k].type.startswith("int") else (int, float)
        if type(v) not in numeric and not (v is None and fields[k].default is None):
            kind = "an integer" if numeric == (int,) else "a number"
            raise ParseError(f"GA config: '{k}' must be {kind}, got {v!r}")
    merged.update({k: v for k, v in overrides.items() if v is not None and k in fields})
    return GaConfig(**merged)


def load_ga_config(path_or_file: Union[str, IO[str]], **overrides) -> GaConfig:
    return _load_json(
        path_or_file, "GA config", lambda doc: ga_config_from_dict(doc, **overrides)
    )


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
    genomes: np.ndarray, m: int, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (population, n) gene array in one pass.

    Returns the 0-based preferred cluster index, the preference, the
    1-based preferred window and, per genome, the task indices by ascending
    (preference, task index); task index order is task-id order. The window
    is monotone in the preference, so that order also groups the tasks by
    preferred window. The float operations are those of the scalar formula
    in decode, element by element, so the values are bit-identical to it.
    """
    ci = np.minimum((genomes * m).astype(np.int64), m - 1)
    pref = (genomes - ci / m) * q * m
    pref = np.minimum(np.maximum(pref, 0.0), math.nextafter(float(q), 0.0))
    window = np.minimum(pref.astype(np.int64), q - 1) + 1
    order = np.argsort(pref, axis=1, kind="stable")
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
        genes[None, :], len(instance.platform.clusters), instance.max_windows
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
    cores: Sequence[int],
    q: int,
) -> list[int] | None:
    """The repair sweeps of reconstruct; 1-based window per task, or None.

    order lists the task indices by ascending (preference, task index), as
    _decode_population returns it, so each window's own tasks form one run
    of it. A task bumped out of a window re-enters the next one with
    preference zero, ahead of that window's own tasks (whose preferences
    are at least 1 from window 2 on) and ordered by task index, which is
    task-id order, among the bumped. Costs O(n log n + q) per genome.
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
        todo.sort()
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
    cores = [c.core_count for c in instance.platform.clusters]
    placed = _repair(order, cluster, window, cores, instance.max_windows)
    if placed is None:
        return None
    assignment = Assignment.from_placements(
        instance, [(t.id, w, c + 1) for t, w, c in zip(instance.tasks, placed, cluster)]
    )
    if assignment.total_window_length_ms > instance.major_frame_ms:
        return None
    return assignment


class _PopulationFitness:
    """SM or LR fitness of whole GA populations for one instance.

    Per-(task, cluster) execution times, characteristics and LR energies
    are looked up once per run. Each distinct genome is scored once: a
    call looks rows up by their bytes among the genomes of this call and of
    the previous one, and keeps only those two generations. The new rows
    are decoded together. A row where no (window, cluster) slot holds more
    tasks than the cluster has cores places every task in its preferred
    window, so only the other rows go through _repair. Window lengths and
    the frame check are array passes; SM is scored through the window
    accumulation schedule_power uses, LR through its per-task closed form
    summed in task order, which is task-id order as in schedule_power.
    Genomes that do not repair, or whose windows overflow the major frame,
    score inf.
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
        # rows in task order: the task-id order schedule_power visits placements in
        self.chars = [t.per_cluster for t in instance.tasks]
        self.exec_ms = np.array([[tc.exec_time_ms for tc in row] for row in self.chars])
        self.lr = None
        if model is PowerModel.LR:
            self.lr = np.array([
                [_lr_energy(tc, coefficients.beta(c.id)) for tc, c in zip(row, clusters)]
                for row in self.chars
            ])
        self._previous: dict[bytes, float] = {}

    def __call__(self, population: np.ndarray) -> np.ndarray:
        keys = [row.tobytes() for row in population]
        previous = self._previous
        current: dict[bytes, float | None] = {}
        new_rows = []
        for r, key in enumerate(keys):
            if key not in current:
                current[key] = value = previous.get(key)
                if value is None:
                    new_rows.append(r)
        if new_rows:
            scores = self._score(population[new_rows])
            for r, value in zip(new_rows, scores.tolist()):
                current[keys[r]] = value
        self._previous = current
        return np.array([current[key] for key in keys])

    def _score(self, population: np.ndarray) -> np.ndarray:
        m, q = self.m, self.q
        ci, _, window, order = _decode_population(population, m, q)
        rows = np.arange(len(population))[:, None]
        load = np.bincount((ci + (rows * q + window - 1) * m).ravel(), minlength=rows.size * q * m)
        placed = window  # rows that _repair changes are overwritten below
        repaired = np.ones(rows.size, dtype=bool)
        for r in np.flatnonzero((load.reshape(-1, q, m) > self.cores).any(axis=(1, 2))).tolist():
            row = _repair(order[r].tolist(), ci[r].tolist(), window[r].tolist(), self.cores, q)
            if row is None:
                repaired[r] = False
            else:
                placed[r] = row
        execs = self.exec_ms[np.arange(ci.shape[1]), ci]
        lengths = np.zeros((rows.size, q), dtype=execs.dtype)
        np.maximum.at(lengths, (rows, placed - 1), execs)
        fits = repaired & (lengths.sum(axis=1) <= self.h)
        ci = ci[fits]
        fitness = np.full(rows.size, math.inf)
        if self.lr is not None:
            # accumulate adds along each row in order, as a running sum would
            energy = self.lr[np.arange(ci.shape[1]), ci]
            activity, offset = np.add.accumulate(energy, axis=1)[:, -1].T
            fitness[fits] = self.idle + activity / self.h + offset / self.h
            return fitness
        for r, wins, cl, lens in zip(
            np.flatnonzero(fits).tolist(),
            placed[fits].tolist(),
            ci.tolist(),
            lengths[fits].tolist(),
        ):
            activity, offset = _window_accumulate(
                wins, list(map(tuple.__getitem__, self.chars, cl)), lens, self.h
            )
            fitness[r] = self.idle + activity + offset
        return fitness


def write_fitness_trace_csv(
    trace: Sequence[TracePoint], path_or_file: Union[str, IO[str]]
) -> None:
    _write_csv(
        path_or_file,
        ["generation", "restart", "best_fitness"],
        ([p.generation, p.restart, repr(p.best_fitness)] for p in trace),
    )


def _build_children(
    rng: np.random.Generator,
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    config: GaConfig,
) -> np.ndarray:
    """Two-point crossover, then BGA mutation, of each row's parent pair.

    The draws per child, in order: rng.random() against crossover_rate and,
    if it crosses, the two cut points; rng.random() against mutation_rate
    and, if it mutates, one draw per gene to pick genes with probability
    1/n and, per picked gene, bga_precision_bits draws for its terms and
    one for its sign. No draw depends on a gene value, so all draws come
    first and the children are then built in array passes: the child takes
    parent b's genes between the cut points and parent a's elsewhere, and
    each picked gene gets its delta added and is clipped to [0, 1). A delta
    is a sum of distinct powers 2**-k with k < bits <= 53, exact in any
    summation order.
    """
    size, n = parents_a.shape
    bits = config.bga_precision_bits
    random, integers = rng.random, rng.integers
    cuts = [(0, 0)] * size
    rows: list[int] = []
    genes: list[np.ndarray] = []
    draws: list[np.ndarray] = []
    for i in range(size):
        if random() < config.crossover_rate:
            # two scalar calls draw what integers(0, n + 1, size=2) draws, faster
            a, b = integers(0, n + 1), integers(0, n + 1)
            cuts[i] = (a, b) if a <= b else (b, a)
        if random() < config.mutation_rate:
            picked = np.flatnonzero(random(n) < 1.0 / n)
            if picked.size:
                rows += [i] * picked.size
                genes.append(picked)
                draws.append(random(picked.size * (bits + 1)))
    lo, hi = np.array(cuts).T
    span = np.arange(n)
    children = np.where(
        (lo[:, None] <= span) & (span < hi[:, None]), parents_b, parents_a
    )
    if rows:
        cols = np.concatenate(genes)
        u = np.concatenate(draws).reshape(-1, bits + 1)
        delta = config.bga_mutation_range * ((u[:, :bits] < 1.0 / bits) @ 2.0 ** -np.arange(bits))
        delta = np.where(u[:, bits] < 0.5, -delta, delta)
        children[rows, cols] = np.clip(children[rows, cols] + delta, 0.0, _GENE_MAX)
    return children


def run_ga(
    instance: Instance,
    model: Union[PowerModel, str],
    config: GaConfig,
    coefficients: RegressionCoefficients | None = None,
    time_limit_ms: float | None = None,
) -> GaResult:
    """Evolve allocations against the SM or LR power model.

    The run stops after config.max_generations generations or after the
    first generation that ends past time_limit_ms (counted from the call),
    whichever comes first; at least one must be set.

    Each generation is scored as a whole by _PopulationFitness: a genome
    already scored in this or the previous generation reuses its value,
    the others are decoded in one array pass, only genomes with an
    overfull preferred slot go through the repair sweeps of reconstruct,
    and the power is computed from per-(task, cluster) tables built once
    per run, equal to schedule_power of the repaired assignment (SM bit
    for bit, LR through the same closed form). An Assignment is built only
    when a genome improves on the best so far. Children come from
    _build_children, which draws from the generator exactly as a
    child-by-child loop would, so a seed gives the same evolution.

    Selection is by uniform ranking: the worst elite_discard_fraction of
    each generation is discarded and parents are drawn uniformly from the
    survivors. Reconstruction failures rank after every finite fitness. On
    stalling the population restarts from fresh random genomes; the best
    assignment ever seen is returned, or a result without an assignment
    when no genome ever reconstructed.
    """
    deadline = deadline_after(time_limit_ms)
    model = PowerModel(model)
    if model is PowerModel.LR_UB:
        raise ValueError("the genetic search uses the SM or LR model")
    if model is PowerModel.LR:
        if coefficients is None:
            raise ValueError("the LR fitness model requires regression coefficients")
        coefficients.check_covers(instance.platform)
    if time_limit_ms is None and config.max_generations is None:
        raise ValueError("the genetic search needs a time limit or max_generations (or both)")
    if not 0.0 <= config.crossover_rate <= 1.0 or not 0.0 <= config.mutation_rate <= 1.0:
        raise ValueError("rates must lie in [0, 1]")
    if not 0.0 <= config.elite_discard_fraction <= 1.0:
        raise ValueError("elite_discard_fraction must lie in [0, 1]")
    if not 1 <= config.bga_precision_bits <= 53:
        raise ValueError("bga_precision_bits must lie in 1..53")

    n = len(instance.tasks)
    pop_size = config.population_size if config.population_size is not None else 50 * n
    if pop_size < 2:
        raise ValueError("population_size must be at least 2")
    keep = max(2, pop_size - int(pop_size * config.elite_discard_fraction))

    rng = np.random.default_rng(config.rng_seed)
    t_start = time.perf_counter()

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

            stop = time.perf_counter() >= deadline or (
                config.max_generations is not None and total_generations >= config.max_generations
            )
            if stop:
                break
            if stall >= config.stall_generations:
                break  # converged; restart from scratch

            order = np.argsort(fitness, kind="stable")
            survivors = population[order[:keep]]
            parents_a = survivors[rng.integers(0, keep, size=pop_size)]
            parents_b = survivors[rng.integers(0, keep, size=pop_size)]
            population = _build_children(rng, parents_a, parents_b, config)
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


def greedy(instance: Instance, time_limit_ms: float | None = None) -> Assignment | None:
    """Fix tasks to clusters one by one, cheapest energy first.

    Tasks are processed by non-increasing max-over-clusters expected energy
    (activity_coef * exec_time_ms); for each task the clusters are tried by
    non-decreasing expected energy, and a fix is committed only when the
    feasibility oracle confirms the remaining tasks can still be placed.
    Returns the aligned grouping of the fixed clusters, which is the witness
    of the final oracle call (every task fixed), or None when the oracle
    proved that a task fits on no cluster.

    time_limit_ms (None: no limit) bounds the whole run, and each oracle
    call gets the time left. Raises TimeoutError once it is spent.
    """
    deadline = deadline_after(time_limit_ms)

    def energy(task, cid):
        tc = task.per_cluster[cid - 1]
        return tc.activity_coef * tc.exec_time_ms

    cluster_ids = [c.id for c in instance.platform.clusters]
    order = sorted(
        instance.tasks,
        key=lambda t: (-max(energy(t, cid) for cid in cluster_ids), t.id),
    )
    fixed: dict[int, int] = {}
    feas = ObjectiveSpec(ObjectiveKind.FEASIBILITY_ONLY)
    for task in order:
        for cid in sorted(cluster_ids, key=lambda c: (energy(task, c), c)):
            trial = dict(fixed)
            trial[task.id] = cid
            left_ms = (deadline - time.perf_counter()) * 1000.0
            status = None  # no time left for this trial
            if left_ms > 0:
                status = solve(instance, feas, PartialFix.of(trial), time_limit_ms=left_ms).status
            if status is SearchStatus.OPTIMAL:
                fixed[task.id] = cid
                break
            if status is not SearchStatus.INFEASIBLE:
                raise TimeoutError(f"the time limit ran out on task {task.id}")
        else:  # the oracle proved that no cluster fits
            return None
    return _grouped_assignment(instance, fixed)
