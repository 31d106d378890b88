"""Black-box genetic search and a greedy heuristic over task allocations.

The genetic algorithm encodes the whole allocation in one real gene per
task: the unit interval splits evenly into cluster sub-intervals, each of
which splits evenly into window sub-intervals. A repair pass turns a genome
into a feasible assignment where possible (two cyclic sweeps over the
windows, bumping tasks whose preferred slot is full to the next window);
genomes that cannot be repaired are discarded by ranking them worst.
Populations are scored as a whole from per-(task, cluster) tables built
once per run; reconstruct, which turns one genome into an assignment,
shares that decode and repair code, and a run calls it once, for the best
genome. numpy is imported inside the functions that use it, so a process
that runs no genetic search never loads it. Each distinct genome is
scored once across two consecutive generations, and the repair sweeps
visit only the windows that hold an overfull slot or receive a bumped
task, so a genome whose preferred slots all have free cores visits none.
Children are built in array passes from a fixed number of
whole-population random draws per generation, so the builder's generator
calls do not grow with the population or the task count.

The greedy heuristic fixes one task at a time, most energy-hungry first, to
the cheapest cluster that still leaves the rest of the instance completable,
using the exact feasibility oracle from the solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import IO, TYPE_CHECKING, Sequence, Union

from .exact import (
    ObjectiveKind,
    ObjectiveSpec,
    _TaskTable,
    _cluster_search,
    _group,
    _placed,
    deadline_after,
    solve,  # noqa: F401  (unused here; bench/tracer.py wraps this name)
)
from .model import Assignment, Instance, Unusable, _load_json, _write_csv
from .power import (
    PowerModel,
    RegressionCoefficients,
    _lr_energy,
    schedule_power,  # noqa: F401  (unused here; bench/tracer.py wraps this name)
)

if TYPE_CHECKING:
    import numpy as np

_GENE_MAX = 1.0 - 1e-12  # genes live in [0, 1)


@dataclass(frozen=True)
class GaConfig:
    """Knobs of the genetic algorithm.

    population_size defaults to 50 per task when left unset, and when set
    is at least 2. Mutation picks
    each gene with probability 1/n and perturbs it by a signed sum of
    inverse powers of two scaled by bga_mutation_range (each of
    bga_precision_bits terms participating with probability 1/bits).
    crossover_rate, mutation_rate and elite_discard_fraction lie in [0, 1],
    bga_mutation_range is finite and bga_precision_bits in 1..53. A restart
    with a fresh random population happens after stall_generations (at
    least 1) generations without improvement. max_generations (unset, or
    at least 1) bounds the total generation count across restarts; the
    time limit is run_ga's argument. rng_seed is non-negative. Building a
    GaConfig, by dataclasses.replace too, raises Unusable unless each field
    lies in its range and holds an integer where it is one, else a number
    (never a bool), or None where the default is unset.
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

    def __post_init__(self):
        for f in fields(self):
            v, integer = getattr(self, f.name), f.type.startswith("int")
            ok = isinstance(v, Integral if integer else Real) and not isinstance(v, bool)
            if not ok and not (v is None and f.default is None):
                kind = "an integer" if integer else "a number"
                raise Unusable(f"GA config: '{f.name}' must be {kind}, got {v!r}")
        if not 0.0 <= self.crossover_rate <= 1.0 or not 0.0 <= self.mutation_rate <= 1.0:
            raise Unusable("rates must lie in [0, 1]")
        if not 0.0 <= self.elite_discard_fraction <= 1.0:
            raise Unusable("elite_discard_fraction must lie in [0, 1]")
        if not 1 <= self.bga_precision_bits <= 53:
            raise Unusable("bga_precision_bits must lie in 1..53")
        if not math.isfinite(self.bga_mutation_range):
            raise Unusable("bga_mutation_range must be finite")
        if self.max_generations is not None and self.max_generations < 1:
            raise Unusable("max_generations must be at least 1")
        if self.stall_generations < 1:
            raise Unusable("stall_generations must be at least 1")
        if self.population_size is not None and self.population_size < 2:
            raise Unusable("population_size must be at least 2")
        if self.rng_seed < 0:
            raise Unusable(f"rng_seed must be non-negative, got {self.rng_seed}")


def load_ga_config(path_or_file: Union[str, IO[str]], **overrides) -> GaConfig:
    """Read a GaConfig from a JSON document; overrides win.

    Unknown fields are ignored so configs can carry annotations. Override
    values of None are dropped, which lets callers pass through unset CLI
    flags directly.
    """
    names = {f.name for f in fields(GaConfig)}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return _load_json(path_or_file, "GA config", lambda doc: GaConfig(
        **{k: v for k, v in {**doc, **overrides}.items() if k in names}
    ))


@dataclass(frozen=True)
class TracePoint:
    generation: int
    restart: int
    best_fitness: float


@dataclass
class GaResult:
    """The best assignment a genetic search saw and how the search went.

    fitness is that assignment's power, inf when no genome reconstructed
    (assignment None). trace holds each generation's best fitness since
    the last restart; generations counts them across restarts.
    """

    assignment: Assignment | None
    fitness: float
    trace: tuple[TracePoint, ...]
    generations: int
    restarts: int

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def _decode_population(
    genomes: np.ndarray, m: int, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (population, n) gene array in one pass.

    A gene x in [0, 1) prefers cluster floor(x * m) + 1; the remainder
    within the cluster sub-interval, rescaled by q * m, gives the
    preference in [0, q) whose integer part selects the window. The decode
    is total on the whole of [0, 1), including values within rounding
    distance of sub-interval boundaries, and element by element its float
    operations are those of this scalar formula.

    Returns the 0-based preferred cluster index, the preference and the
    1-based preferred window.
    """
    import numpy as np

    ci = np.minimum((genomes * m).astype(np.int64), m - 1)
    pref = (genomes - ci / m) * q * m
    pref = np.minimum(np.maximum(pref, 0.0), math.nextafter(float(q), 0.0))
    window = np.minimum(pref.astype(np.int64), q - 1) + 1
    return ci, pref, window


def _repair(
    ci: np.ndarray,
    pref: np.ndarray,
    window: np.ndarray,
    cores: Sequence[int],
    q: int,
) -> tuple[np.ndarray, list[int]]:
    """The repair sweeps of reconstruct, for the decoded rows of a population.

    Returns the 1-based window per task, written over window, and the
    indices of the rows that do not repair, whose windows then lie in
    1..q but make no schedule. Each row's free cores start as cores minus
    its own load per (window, cluster) slot. The first sweep visits only
    the windows that hold an overfull slot (more tasks than the cluster
    has cores) or receive the carry, the tasks bumped out of the window
    before; every other window keeps its tasks where they prefer to be, so
    a row with no overfull slot visits none. A visited window first gives
    back its own tasks' cores, then places the carry, sorted by task
    index, and its own tasks by ascending (preference, task index): a
    bumped task re-enters the next window with preference zero, ahead of
    that window's own tasks (whose preferences are at least 1 from window
    2 on). The second sweep places the carry only, and a row fails when a
    task is still bumped after it. Task index order is task-id order. The
    inputs of the rows that sweep are prepared in a few array passes, so a
    row costs Python work only for the tasks of the windows it visits.
    """
    import numpy as np

    size, n = ci.shape
    m = len(cores)
    qm = q * m
    capacity = np.array(cores * q)  # free cores per (window - 1) * m + cluster slot
    slot = (window - 1) * m + ci + qm * np.arange(size)[:, None]  # row r's slots start at r * qm
    load = np.bincount(slot.ravel(), minlength=size * qm).reshape(size, qm)
    # r * q + window - 1 for each overfull slot, ascending
    over = (np.flatnonzero(load > capacity) // m).tolist()
    if not over:
        return window, []
    rows = list(dict.fromkeys([v // q for v in over]))
    load = load.take(rows, axis=0)
    # task indices by ascending (preference, task index); the window is
    # monotone in the preference, so window j's own tasks form the run
    # starts[(j - 1) * m]:starts[j * m] of it
    order = np.argsort(pref.take(rows, axis=0), axis=1, kind="stable").tolist()
    starts = np.zeros((len(rows), qm + 1), dtype=np.int64)
    np.cumsum(load, axis=1, out=starts[:, 1:])
    free = (capacity - load).tolist()
    failed = []
    at, to = [], []  # flat task index and window of each placement of the sweeps
    p = 0  # next entry of over
    for r, order_r, cluster, free_r, start in zip(
        rows, order, ci.take(rows, axis=0).tolist(), free, starts.tolist()
    ):
        first = r * q  # over holds first + window - 1 for this row's windows
        carry: list[int] = []  # tasks bumped out of the previous window
        j = 0  # the last window visited; q + j is window j of the second sweep
        while True:
            if carry:
                j += 1
                if j > 2 * q:
                    break
            elif j >= q:  # the first sweep is over and nothing is bumped
                break
            else:
                while p < len(over) and over[p] < first + j:
                    p += 1
                if p == len(over) or over[p] >= first + q:
                    break
                j = over[p] - first + 1
            todo = sorted(carry)
            carry = []
            w = (j - 1) % q + 1
            base = (w - 1) * m
            if j <= q:
                free_r[base:base + m] = cores
                todo += order_r[start[base]:start[base + m]]
            for i in todo:
                s = base + cluster[i]
                if free_r[s]:
                    free_r[s] -= 1
                    at.append(r * n + i)
                    to.append(w)
                else:
                    carry.append(i)
        if carry:
            failed.append(r)
    np.put(window, at, to)
    return window, failed


def reconstruct(genome: Sequence[float], instance: Instance) -> Assignment | None:
    """Repair a genome into a feasible assignment, or report failure as None.

    Sweeps the windows cyclically twice. In each visited window the still
    unassigned tasks preferring it are processed by ascending preference
    (ties on task id); a task is placed when its preferred cluster has a
    free core there, otherwise its preference moves to the next window with
    preference reset to zero. Fails when a task stays unassigned or the
    derived window lengths exceed the major frame. Raises ValueError when
    the genome length is not the task count or a gene lies outside [0, 1).
    """
    import numpy as np

    if len(genome) != len(instance.tasks):
        raise ValueError(
            f"genome length {len(genome)} does not match task count "
            f"{len(instance.tasks)}"
        )
    genes = np.array([float(x) for x in genome], dtype=float)
    outside = np.flatnonzero(~((genes >= 0.0) & (genes < 1.0)))
    if outside.size:
        raise ValueError(f"gene {genes[outside[0]]} outside [0, 1)")
    clusters = instance.platform.clusters
    q = instance.max_windows
    ci, pref, window = _decode_population(genes[None, :], len(clusters), q)
    placed, failed = _repair(ci, pref, window, [c.core_count for c in clusters], q)
    if failed:
        return None
    assignment = Assignment.from_placements(
        instance,
        [(t.id, w, c + 1) for t, w, c in zip(instance.tasks, placed[0].tolist(), ci[0].tolist())],
    )
    if assignment.total_window_length_ms > instance.major_frame_ms:
        return None
    return assignment


class _PopulationFitness:
    """SM or LR fitness of whole GA populations for one instance.

    Execution times and energies are tabled once per run, flat over the
    cells of the (task, cluster) grid, and for SM the offset coefficients
    too: task t on 0-based cluster c is cell t * m + c, read from one
    per-run base t * m. Each distinct genome is scored once: a call looks
    rows up by their bytes, read from one view of the population in C
    order, among the genomes of this call and of the previous one, and
    keeps only those two generations. The new rows are decoded and
    repaired together: _repair sweeps only the rows with an overfull
    (window, cluster) slot, and in them only the windows from that slot on
    that the bumped tasks reach. The rest is array passes over all rows
    through two flat indices, each task's cell and its window's slot
    r * q + window - 1 in row r: window lengths and SM's window offset
    peaks as exact maxima over the slots, the frame check, and
    schedule_power's closed form with its additions in the same order
    (tasks in task-id order, SM's window offset terms in window order), so
    SM fitness equals schedule_power bit for bit. Genomes that do not
    repair, or whose windows overflow the major frame, score inf.
    """

    def __init__(
        self,
        instance: Instance,
        model: PowerModel,
        coefficients: RegressionCoefficients | None,
    ):
        import numpy as np

        clusters = instance.platform.clusters
        self.m = len(clusters)
        self.q = instance.max_windows
        self.h = instance.major_frame_ms
        self.idle = instance.platform.idle_power_watts
        self.cores = [c.core_count for c in clusters]
        self.cell0 = np.arange(len(instance.tasks)) * self.m

        def table(term):
            # cells in task order, the task-id order schedule_power visits placements in
            return np.array([term(tc) for t in instance.tasks for tc in t.per_cluster])

        self.exec_ms = table(lambda tc: tc.exec_time_ms)
        # LR: (activity, offset) energies; SM: the activity energy, as its
        # offset energy depends on the windows
        if model is PowerModel.LR:
            beta = coefficients.beta
            self.energy = table(lambda tc: _lr_energy(tc, beta(tc.cluster_id), tc.exec_time_ms))
            self.offset = None
        else:
            self.energy = table(lambda tc: tc.activity_coef * tc.exec_time_ms)
            self.offset = table(lambda tc: tc.offset_coef)
        self._previous: dict[bytes, float] = {}

    def __call__(self, population: np.ndarray) -> np.ndarray:
        import numpy as np

        # one bytes key per row, as row.tobytes() gives it
        population = np.ascontiguousarray(population)
        keys = population.view(f"V{population.itemsize * population.shape[1]}").ravel().tolist()
        previous = self._previous
        current: dict[bytes, float | None] = {}
        new_rows = []
        for r, key in enumerate(keys):
            if key not in current:
                current[key] = value = previous.get(key)
                if value is None:
                    new_rows.append(r)
        if new_rows:
            scores = self._score(population.take(new_rows, axis=0))
            for r, value in zip(new_rows, scores.tolist()):
                current[keys[r]] = value
        self._previous = current
        return np.fromiter(map(current.__getitem__, keys), float, len(keys))

    def _score(self, population: np.ndarray) -> np.ndarray:
        import numpy as np

        q = self.q
        size = len(population)
        ci, pref, window = _decode_population(population, self.m, q)
        placed, failed = _repair(ci, pref, window, self.cores, q)
        cell = ci + self.cell0  # task t on cluster ci is cell t * m + ci
        # window w of row r is slot r * q + w - 1
        slot = (placed + (q * np.arange(size) - 1)[:, None]).ravel()
        execs = self.exec_ms.take(cell)
        lengths = np.zeros(size * q, dtype=execs.dtype)
        np.maximum.at(lengths, slot, execs.ravel())
        lengths = lengths.reshape(size, q)
        fits = lengths.sum(axis=1) <= self.h
        fits[failed] = False
        # accumulate adds along each row in order, as a running sum would
        energy = np.add.accumulate(self.energy.take(cell, axis=0), axis=1)[:, -1]
        if self.offset is None:
            activity, offset = energy.T
        else:  # SM: each used window's length times its largest offset
            activity = energy
            peak = np.full(size * q, -math.inf)
            np.maximum.at(peak, slot, self.offset.take(cell).ravel())
            # mask empty windows before weighting: their peak is -inf and their length 0
            terms = np.where(peak > -math.inf, peak, 0.0).reshape(size, q) * lengths
            offset = np.add.accumulate(terms, axis=1)[:, -1]
        fitness = np.full(size, math.inf)
        fitness[fits] = (self.idle + activity / self.h + offset / self.h)[fits]
        return fitness


def write_fitness_trace_csv(
    trace: Sequence[TracePoint], path_or_file: Union[str, IO[str]]
) -> None:
    _write_csv(
        path_or_file,
        ["generation", "restart", "best_fitness"],
        ([p.generation, p.restart, p.best_fitness] for p in trace),
    )


def _build_children(
    rng: np.random.Generator,
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    config: GaConfig,
) -> np.ndarray:
    """Two-point crossover, then BGA mutation, of each row's parent pair.

    A generation makes five generator calls, whatever its size, in order:

    1. rng.random(size): a row crosses when its draw is below crossover_rate;
    2. rng.integers(0, n + 1, size=(crossing, 2)): the crossing rows' cut
       points, in row order, each pair sorted;
    3. rng.random(size): a row mutates when its draw is below mutation_rate;
    4. rng.random((mutating, n)): a mutating row's gene is picked when its
       draw is below 1/n;
    5. rng.random((picked, bits + 1)): per picked gene, in row-major order,
       bga_precision_bits term draws, each term joining when below 1/bits,
       then the sign, negative when below 0.5.

    The child takes parent b's genes between the cut points and parent a's
    elsewhere, and each picked gene gets its delta added and is clipped to
    [0, 1). A delta is a sum of distinct powers 2**-k with k < bits <= 53,
    exact in any summation order.
    """
    import numpy as np

    size, n = parents_a.shape
    bits = config.bga_precision_bits
    crosses = rng.random(size) < config.crossover_rate
    cuts = np.zeros((size, 2), dtype=np.int64)
    cuts[crosses] = np.sort(rng.integers(0, n + 1, size=(np.count_nonzero(crosses), 2)), axis=1)
    lo, hi = cuts.T
    span = np.arange(n)
    children = np.where(
        (lo[:, None] <= span) & (span < hi[:, None]), parents_b, parents_a
    )
    mutating = np.flatnonzero(rng.random(size) < config.mutation_rate)
    rows, cols = np.nonzero(rng.random((mutating.size, n)) < 1.0 / n)
    rows = mutating[rows]
    u = rng.random((rows.size, bits + 1))
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
    whichever comes first; at least one must be set (GaConfig checks the
    rest of config). An instance without tasks has one schedule, the empty
    one at idle power, which is returned without evolving anything.

    Each generation is scored as a whole by _PopulationFitness: a genome
    already scored in this or the previous generation reuses its value,
    the others are decoded in one array pass, only genomes with an
    overfull preferred slot go through the repair sweeps of reconstruct,
    and the power is computed from per-(task, cluster) tables built once
    per run, equal to schedule_power of the repaired assignment (SM bit
    for bit, LR through the same closed form). A copy of the best genome
    is kept, and its Assignment is built once, at the end of the run, by
    reconstruct. Children come from
    _build_children, whose draws follow the fixed order its docstring
    gives, so a seed gives the same evolution.

    Selection is by uniform ranking: the worst elite_discard_fraction of
    each generation is discarded and parents are drawn uniformly from the
    survivors. Reconstruction failures rank after every finite fitness. On
    stalling the population restarts from fresh random genomes; the best
    assignment ever seen is returned, or a result without an assignment
    when no genome ever reconstructed.
    """
    import numpy as np

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

    n = len(instance.tasks)
    if n == 0:
        empty = reconstruct([], instance)
        return GaResult(empty, instance.platform.idle_power_watts, (), 0, 0)
    pop_size = config.population_size or 50 * n
    keep = max(2, pop_size - int(pop_size * config.elite_discard_fraction))

    rng = np.random.default_rng(config.rng_seed)
    fitness_of = _PopulationFitness(instance, model, coefficients)

    best_fitness = math.inf
    best_genome: np.ndarray | None = None
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
                    best_genome = population[i_best].copy()
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

            survivors = np.argsort(fitness, kind="stable")[:keep]
            rows_a = survivors.take(rng.integers(0, keep, size=pop_size))
            rows_b = survivors.take(rng.integers(0, keep, size=pop_size))
            population = _build_children(
                rng, population.take(rows_a, axis=0), population.take(rows_b, axis=0), config
            )
        restart += 1

    return GaResult(
        assignment=None if best_genome is None else reconstruct(best_genome, instance),
        fitness=best_fitness,
        trace=tuple(trace),
        generations=total_generations,
        restarts=restart,
    )


def greedy(instance: Instance, time_limit_ms: float | None = None) -> Assignment | None:
    """Fix tasks to clusters one by one, cheapest energy first.

    Tasks are processed by non-increasing max-over-clusters expected energy
    (activity_coef * exec_time_ms); for each task the clusters are tried by
    non-decreasing expected energy, and a fix is committed only when the
    feasibility oracle confirms the remaining tasks can still be placed.
    Each trial runs the oracle's cluster search directly: its fixes are
    valid by construction, and it returns the grouping of a fitting cluster
    map without building a schedule. The run builds one task table (each
    task's execution times, seed-map clusters and rank orders) that every
    trial reads, so a trial writes its fixes over the table's seed-map
    clusters and filters rank orders instead of rebuilding and sorting
    them. Every trial runs the oracle; one that its first seed map settles
    groups once, as that map holds the fixes and so proves they fit.
    Returns the aligned grouping of the fixed clusters as an assignment,
    which is the witness of the final trial (every task fixed), or None
    when the oracle proved that a task fits on no cluster.

    time_limit_ms (None: no limit) sets one deadline for the whole run. It
    is checked before every trial, and the oracle search reads it at every
    node. Raises TimeoutError once it is spent; a spent budget never
    returns None.
    """
    deadline = deadline_after(time_limit_ms)
    table = _TaskTable(instance)

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
            if time.perf_counter() >= deadline:
                raise TimeoutError(f"the time limit ran out on task {task.id}")
            witness, *_, aborted = _cluster_search(table, feas, trial, deadline)
            if aborted:
                raise TimeoutError(f"the time limit ran out on task {task.id}")
            if witness is not None:
                fixed[task.id] = cid
                break
        else:  # the oracle proved that no cluster fits
            return None
    return _placed(instance, _group(table, [fixed[t.id] - 1 for t in instance.tasks]))
