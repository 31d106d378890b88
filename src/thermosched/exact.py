"""Exact optimization of task-to-(window, cluster) assignments.

One entry point, solve(), covers five objective kinds: minimizing sum-max
power, minimizing the LR upper-bound power, minimizing or maximizing total
idle time, and plain feasibility with optional per-task cluster fixes.

The power objectives are searched by depth-first branch and bound over
(window, cluster) placements with admissible incremental bounds and window
symmetry breaking (a task may only open the lowest-indexed empty window).
Tasks are placed in order of what they cost the objective being searched,
costliest first, so that the bound cuts branches near the root: under SM by
their cheapest standalone cost (activity energy plus the offset term of a
window of their own length), under LR-UB by their smallest execution time
per core.
Each candidate placement is bounded from its change to the window terms
before it is applied, so a pruned candidate never touches the search state;
only the survivors are applied, searched below and undone, cheapest first by
their change to the objective. Under LR-UB, where every task of a window
pays the window's whole length, a placement's window growth is priced as
well, at the mean cheapest rate of the tasks, so that the search does not
open windows first and spend the frame early. The SM root bound, which a
timeout reports, also charges window offsets: it groups the tasks' cheapest
offset surcharges C = total cores to a window, the argument that makes the
aligned grouping below optimal.
The other kinds branch over cluster choices only: once every task has a
cluster, the cheapest window partition is obtained by sorting each cluster's
tasks by decreasing execution time, cutting them into core-count sized
groups and aligning the groups rank by rank across clusters. That grouping
provably minimizes the total window length, so it decides feasibility
exactly and never affects the idle-time value, which depends on cluster
choices alone. One cluster search minimizes a per-(task, cluster) cost: the
signed execution time for the idle-time kinds, and zero for feasibility, so
that its first witness meets the zero root bound and closes the search. It
keeps the grouping's window lengths up to date as tasks are inserted.

Every search starts from one seed: the first heuristic cluster map whose
aligned grouping fits, the objective's own cheapest map tried first. Seed
maps and groupings are read from one per-task table per run (_TaskTable),
which solve builds once per call and the greedy heuristic once per run,
for all of its trials; none outlives its run. It holds each task's
execution times, the cluster of each seed score's first minimum and, per
cluster, every task in grouping rank order. A seed map is then the table's
list with the fixes written in, and a grouping filters the rank orders
instead of sorting. A grouping decides its map's fit; the cluster search
returns its incumbent's grouping, and the window search prices its seed
grouping through the power model's closed form, without building an
assignment. Placements are built from a grouping only where a caller
receives an assignment: solve's witness (a window-search seed only when no
search leaf beat it) and the greedy heuristic's result. The greedy
heuristic's trial calls, which only ask whether a map fits, build none.

brute_force_optimum() is an independent exhaustive enumerator used as a
testing oracle; it shares no search code with solve().
"""

from __future__ import annotations

import functools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterator, Mapping, Sequence

from .model import Assignment, Instance, Placement
from .power import PowerModel, RegressionCoefficients, _closed_form

_EPS = 1e-12


def deadline_after(time_limit_ms: float | None) -> float:
    """The time.perf_counter() reading that ends a run; inf for no limit (None)."""
    if time_limit_ms is None:
        return math.inf
    if not time_limit_ms > 0:  # NaN as well
        raise ValueError(f"time_limit_ms must be positive, got {time_limit_ms}")
    return time.perf_counter() + time_limit_ms / 1000.0


class ObjectiveKind(str, Enum):
    SM_POWER = "sm-power"
    LR_UB_POWER = "lr-ub-power"
    IDLE_MIN = "idle-min"
    IDLE_MAX = "idle-max"
    FEASIBILITY_ONLY = "feasibility-only"


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to optimize; LR-UB additionally needs regression coefficients.

    Coefficients attached to other kinds are ignored, so one spec value can
    be reused across kinds.
    """

    kind: ObjectiveKind
    coefficients: RegressionCoefficients | None = None


class SearchStatus(str, Enum):
    OPTIMAL = "optimal"
    FEASIBLE_TIMEOUT = "feasible_timeout"
    INFEASIBLE = "infeasible"
    UNKNOWN_TIMEOUT = "unknown_timeout"


@dataclass
class SearchResult:
    status: SearchStatus
    assignment: Assignment | None
    objective_value: float | None
    lower_bound: float | None
    nodes_explored: int


NodeRecorder = Callable[[tuple[tuple[int, int, int], ...], float], None]


# ---------------------------------------------------------------------------
# Shared preparation


def _check_inputs(
    instance: Instance, objective: ObjectiveSpec, fixed_clusters: Mapping[int, int] | None
) -> dict[int, int]:
    """The fixes as a new {task id: cluster id} dict, once the inputs are checked.

    Raises ValueError when the LR-UB objective lacks coefficients that cover
    the platform, or a fix names a task the instance lacks or a cluster id
    that is not an int in 1..m (bools included).
    """
    if objective.kind is ObjectiveKind.LR_UB_POWER:
        if objective.coefficients is None:
            raise ValueError("the LR upper-bound objective requires regression coefficients")
        objective.coefficients.check_covers(instance.platform)
    fix = dict(fixed_clusters or {})
    task_ids = {t.id for t in instance.tasks}
    m = len(instance.platform.clusters)
    for tid, cid in fix.items():
        if tid not in task_ids:
            raise ValueError(f"partial fix references unknown task {tid}")
        if type(cid) is not int or not 1 <= cid <= m:
            raise ValueError(f"partial fix references unknown cluster {cid}")
    return fix


class _TaskTable:
    """One run's per-task rows for the seed maps and the cluster search.

    solve builds one per call and greedy one per run, which each of its
    trials reads; none is kept on the instance. Tasks are indexed by their
    position in instance.tasks, which is task-id order, and clusters by
    position. exec_ms[i] is task i's execution time per cluster.
    seeds[score][i] is the cluster of task i's first minimum of a seed
    score (ties go to the lower cluster id): "fastest" (execution time),
    "activity" (activity energy), "slowest" (negated execution time) and,
    when coefficients are given, "star" (LR-UB star energy). ranked[ci]
    holds every task index in grouping rank order on cluster ci:
    decreasing execution time, ties on increasing index.
    """

    __slots__ = ("instance", "index", "exec_ms", "seeds", "ranked")

    def __init__(
        self, instance: Instance, coefficients: RegressionCoefficients | None = None
    ):
        self.instance = instance
        self.index = {t.id: i for i, t in enumerate(instance.tasks)}
        self.exec_ms = exec_ms = []
        fastest, activity, slowest, star = [], [], [], []
        for t in instance.tasks:
            row = [tc.exec_time_ms for tc in t.per_cluster]
            energy = [tc.activity_coef * tc.exec_time_ms for tc in t.per_cluster]
            exec_ms.append(row)
            fastest.append(row.index(min(row)))
            activity.append(energy.index(min(energy)))
            slowest.append(row.index(max(row)))  # the first maximum is the first minimum of -e
            if coefficients is not None:
                cost = [
                    (tc.activity_coef * beta[0] + tc.offset_coef * beta[1]) * tc.exec_time_ms
                    for tc, beta in zip(t.per_cluster, coefficients.betas)
                ]
                star.append(cost.index(min(cost)))
        self.seeds = {"fastest": fastest, "activity": activity, "slowest": slowest}
        if coefficients is not None:
            self.seeds["star"] = star
        # sorting is stable under reverse=True, so equal times keep index order
        self.ranked = [
            sorted(range(len(exec_ms)), key=[row[ci] for row in exec_ms].__getitem__, reverse=True)
            for ci in range(len(instance.platform.clusters))
        ]


# (task index lists by cluster position in rank order, window lengths)
_Grouping = tuple[list[list[int]], list[int]]


def _group(table: _TaskTable, cluster_of: Sequence[int]) -> _Grouping | None:
    """The aligned grouping of cluster choices, or None when it does not fit.

    cluster_of[i] is task i's cluster position, or -1 to leave task i out
    (the cluster search groups its fixes alone that way). Each cluster's
    tasks are its entries of the table's rank order (decreasing execution
    time, ties on ascending index, which is ascending task id), cut into
    core-count sized groups; window j is as long as the longest group head
    at rank j * cores over the clusters. Returns each cluster's task
    indices in rank order and these minimal window lengths, or None when a
    cluster needs more windows than the instance allows or the windows
    overflow the major frame.
    """
    instance = table.instance
    q = instance.max_windows
    exec_ms = table.exec_ms
    members = []
    lengths: list[int] = []
    for ci, (c, order) in enumerate(zip(instance.platform.clusters, table.ranked)):
        ranked = [i for i in order if cluster_of[i] == ci]
        heads = ranked[:: c.core_count]
        if len(heads) > q:
            return None
        for j, i in enumerate(heads):
            head = exec_ms[i][ci]
            if j == len(lengths):
                lengths.append(head)
            elif head > lengths[j]:
                lengths[j] = head
        members.append(ranked)
    return None if sum(lengths) > instance.major_frame_ms else (members, lengths)


def _cells(instance: Instance, grouping: _Grouping) -> tuple[list[int], list[int]]:
    """Each task's window and cluster id in a grouping, by task index: its ranks cut into windows."""
    windows = [0] * len(instance.tasks)
    clusters = [0] * len(instance.tasks)
    for c, members in zip(instance.platform.clusters, grouping[0]):
        for rank, i in enumerate(members):
            windows[i] = rank // c.core_count + 1
            clusters[i] = c.id
    return windows, clusters


def _placed(instance: Instance, grouping: _Grouping) -> Assignment:
    """The assignment of a grouping that fits.

    The grouping's lengths are the assignment's tight window lengths.
    """
    lengths = grouping[1]
    ids = [t.id for t in instance.tasks]  # task index order is task-id order
    placed = tuple(map(Placement, ids, *_cells(instance, grouping)))
    return Assignment(placed, tuple(lengths + [0] * (instance.max_windows - len(lengths))))


def _balanced_cluster_map(instance: Instance, fix: Mapping[int, int]) -> dict[int, int]:
    """Hardest tasks first, each onto the cluster that keeps the total window length smallest.

    The grouping is kept up to date as in _cluster_search: a task inserted
    at rank pos of its cluster shifts that cluster's group heads from rank
    pos on, and a shifted head can only grow, so only those windows can
    lengthen. Ties go to the first candidate, the lower cluster id. A
    cluster whose q windows have no free core takes no task at a finite
    total; once a task overflows one (every candidate was full, or its fix
    was), every later total is infinite and each later task takes its first
    candidate.
    """
    clusters = instance.platform.clusters
    caps = [c.core_count for c in clusters]
    slots = [instance.max_windows * cap for cap in caps]
    lists: list[list[int]] = [[] for _ in clusters]  # negated times, ascending
    lengths = [0] * instance.max_windows

    def growth(cid: int, e: int) -> float:
        """How much a task of time e on cluster cid lengthens the windows; inf when it is full."""
        neg = lists[cid - 1]
        if len(neg) >= slots[cid - 1]:
            return math.inf
        cap = caps[cid - 1]
        pos = bisect_right(neg, -e)
        grow = 0
        for j in range(-(-pos // cap), len(neg) // cap + 1):
            head = e if j * cap == pos else -neg[j * cap - 1]
            if head > lengths[j]:
                grow += head - lengths[j]
        return grow

    order = sorted(
        instance.tasks,
        key=lambda t: (-min(tc.exec_time_ms for tc in t.per_cluster), t.id),
    )
    balanced: dict[int, int] = {}
    overflow = False
    for t in order:
        candidates = [fix[t.id]] if t.id in fix else [c.id for c in clusters]
        if overflow:
            balanced[t.id] = candidates[0]
            continue
        cid = min(candidates, key=lambda c: growth(c, t.per_cluster[c - 1].exec_time_ms))
        balanced[t.id] = cid
        neg = lists[cid - 1]
        if len(neg) >= slots[cid - 1]:
            overflow = True
            continue
        e = t.per_cluster[cid - 1].exec_time_ms
        pos = bisect_right(neg, -e)
        neg.insert(pos, -e)
        cap = caps[cid - 1]
        for j in range(-(-pos // cap), (len(neg) - 1) // cap + 1):
            head = -neg[j * cap]
            if head > lengths[j]:
                lengths[j] = head
    return balanced


# The seed scores tried per objective kind, its own cheapest map first; the
# other kinds (feasibility, idle-max) start from the fastest-cluster map.
_SEED_SCORES = {
    ObjectiveKind.SM_POWER: ("activity", "fastest"),
    ObjectiveKind.LR_UB_POWER: ("star", "fastest", "activity"),
    ObjectiveKind.IDLE_MIN: ("slowest", "fastest", "activity"),
}


def _fixed_map(table: _TaskTable, fix: Mapping[int, int]) -> list[int]:
    """The fixes as a map of each task's cluster position by task index, -1 where it is free."""
    cluster_of = [-1] * len(table.exec_ms)
    for tid, cid in fix.items():
        cluster_of[table.index[tid]] = cid - 1
    return cluster_of


def _seed_maps(
    table: _TaskTable, fixed: Sequence[int], objective: ObjectiveSpec
) -> Iterator[list[int]]:
    """Cheap complete cluster choices used to seed incumbents, built on demand.

    fixed is the fixes' map from _fixed_map. Each score's map takes the
    table's first minimum wherever fixed leaves a task free: the
    objective's own cheapest map first (activity energy for SM, star energy
    for LR-UB, slowest cluster for idle-min, fastest cluster for
    feasibility and idle-max), then the kind's other scores. The balanced
    map comes last.
    """
    for score in _SEED_SCORES.get(objective.kind, ("fastest", "activity")):
        yield [seed if ci < 0 else ci for ci, seed in zip(fixed, table.seeds[score])]
    tasks = table.instance.tasks
    fix = {t.id: ci + 1 for t, ci in zip(tasks, fixed) if ci >= 0}
    balanced = _balanced_cluster_map(table.instance, fix)
    yield [balanced[t.id] - 1 for t in tasks]


def _seed_incumbent(
    table: _TaskTable, fixed: Sequence[int], objective: ObjectiveSpec
) -> _Grouping | None:
    """The grouping of the first seed map that groups feasibly, or None.

    Each map is grouped once, and the search keeps the first that fits:
    later maps would cost a grouping and a pricing each and, the
    objective's own map coming first, rarely improve on it by enough to
    change the search.
    """
    for cluster_of in _seed_maps(table, fixed, objective):
        grouping = _group(table, cluster_of)
        if grouping is not None:
            return grouping
    return None


def _finish(
    assignment: Assignment | None,
    value: float | None,
    timeout_bound: float | None,
    nodes: int,
    aborted: bool,
) -> SearchResult:
    """Result of a search that ended with the given incumbent, or none.

    A completed search proves its incumbent optimal, or infeasibility when it
    has none; a search cut by its deadline reports timeout_bound.
    """
    if assignment is None:
        status = SearchStatus.UNKNOWN_TIMEOUT if aborted else SearchStatus.INFEASIBLE
        bound = timeout_bound if aborted else None
        return SearchResult(status, None, None, bound, nodes)
    status = SearchStatus.FEASIBLE_TIMEOUT if aborted else SearchStatus.OPTIMAL
    bound = timeout_bound if aborted else value
    return SearchResult(status, assignment, value, bound, nodes)


# ---------------------------------------------------------------------------
# Branch and bound over (window, cluster) placements: SM and LR-UB power


def _window_search(
    table: _TaskTable,
    objective: ObjectiveSpec,
    fix: Mapping[int, int],
    deadline: float,
    node_recorder: NodeRecorder | None,
) -> SearchResult:
    instance = table.instance
    plat = instance.platform
    m = len(plat.clusters)
    q = instance.max_windows
    h = instance.major_frame_ms
    n = len(instance.tasks)
    caps = [c.core_count for c in plat.clusters]
    p_idle = plat.idle_power_watts
    is_lrub = objective.kind is ObjectiveKind.LR_UB_POWER
    betas = objective.coefficients.betas if is_lrub else None

    # One pass over the tasks builds the search table. A task's cells hold,
    # per allowed cluster position ci, (ci, e, c, ae): the execution time,
    # the window coefficient the task brings (its offset for SM, merged by
    # max; its star rate for LR-UB, merged by sum) and the activity energy
    # it adds outside the window terms (zero for LR-UB). Over its cells the
    # task takes four minima, each the first of equal values:
    # - its ordering key: for SM its cheapest standalone cost
    #   min_k(ae + e*off), which the root bound's offset charge reuses; for
    #   LR-UB its smallest time per core min_k(e / cores);
    # - incr, the least a placement adds to the objective: for SM its
    #   activity energy, for LR-UB its star energy, or h times a negative
    #   rate;
    # - neg_b, the h-scaled slack by which its SM offset can still lower the
    #   objective when negative (zero for LR-UB);
    # - its smallest coefficient c.
    # Sorting the rows branches on the tasks that cost the objective most
    # first, so that the bound kills branches near the root (fail first);
    # ties go to the lower task id, and from here on tasks are indexed by
    # depth.
    rows = []
    for t in instance.tasks:
        cells, keys, incrs = [], [], []
        for ci in (fix[t.id] - 1,) if t.id in fix else range(m):
            tc = t.per_cluster[ci]
            e = tc.exec_time_ms
            if is_lrub:
                c = tc.activity_coef * betas[ci][0] + tc.offset_coef * betas[ci][1]
                cells.append((ci, e, c, 0.0))
                keys.append(e / caps[ci])
                incrs.append((c * e) if c >= 0.0 else c * h)
            else:
                c = tc.offset_coef
                ae = tc.activity_coef * e
                cells.append((ci, e, c, ae))
                keys.append(ae + e * c)
                incrs.append(ae)
        c_min = min(cell[2] for cell in cells)
        neg_b = 0.0 if is_lrub else min(0.0, c_min * h)
        rows.append((-min(keys), t.id, min(incrs), neg_b, c_min, cells))
    rows.sort()  # task ids are unique, so the cells are never compared
    neg_key, tid, incr, neg_b, min_coef, cells = zip(*rows) if n else [()] * 6

    # tail[d] bounds what the tasks from depth d on can still add: the sum
    # of their incr and neg_b.
    suffix = list(accumulate(reversed(incr), initial=0.0))[::-1]
    suffix_neg = list(accumulate(reversed(neg_b), initial=0.0))[::-1]
    tail = [a + b for a, b in zip(suffix, suffix_neg)]
    # The child order prices window growth at lam per ms (see the sort):
    # for LR-UB the mean over tasks of the cheapest allowed rate, floored at
    # 0; for SM 0, which leaves its order the plain objective change.
    lam = max(0.0, sum(min_coef) / n) if is_lrub and n else 0.0
    # choices[d] extends each cell of the task at depth d with what the task
    # adds by opening the empty window there: the exact term e*c, the
    # admissible term (e*c, or h*c when c is negative) and the child-order
    # key. That depends on the task and cluster alone: an Instance
    # guarantees e >= 1 ms and at least one core per cluster, so the empty
    # window always has a free core and takes length e and coefficient c.
    choices = [
        tuple(
            (ci, e, c, ae, e * c, e * c if c >= 0.0 else h * c, ae + e * c + lam * e)
            for ci, e, c, ae in row
        )
        for row in cells
    ]

    # Window state. Windows open in index order, so windows below `used` hold
    # at least one task and window `used` is the only empty one a task may
    # take. room[ci][j] is the free core count of cluster ci in window j;
    # wcoef[j] is the window's merged coefficient s (max offset for SM,
    # summed star rate for LR-UB). Each open window also caches its two
    # terms, so that a candidate prices only the window it would change:
    # wtrue[j] = l*s, its exact term, and wsafe[j], its admissible term (l*s,
    # or h*s when s < 0, since the window could still grow). Applying a
    # child updates the five lists and undoing it assigns the saved values
    # back. The placed path is kept per depth, window and cluster position
    # in pick_w and pick_c; placement triples are built only for a new best
    # leaf and for the node recorder.
    room = [[caps[ci]] * q for ci in range(m)]
    wlen = [0] * q
    wcoef = [0.0] * q
    wtrue = [0.0] * q
    wsafe = [0.0] * q
    pick_w = [0] * n
    pick_c = [0] * n

    def placed_path(depth: int) -> tuple[tuple[int, int, int], ...]:
        return tuple((tid[d], pick_w[d] + 1, pick_c[d] + 1) for d in range(depth))

    # The root bound also charges SM window offsets, once per solve. A task p
    # whose allowed offsets are all nonnegative costs, together with the
    # offset term of any window w holding it, at least min_k(ae + e*off) (its
    # ordering key), because l_w >= e and max off >= off >= 0: delta_p above
    # its min ae.
    # So a window costs at least the largest delta among its tasks. A window
    # holds at most C = total cores tasks, so the windows together cost at
    # least every C-th delta in descending order (the aligned-grouping
    # argument of _group). Node bounds do not use it.
    deltas = [] if is_lrub else sorted(
        (-nk - i for nk, i, c in zip(neg_key, incr, min_coef) if c >= 0.0), reverse=True
    )
    offset_charge = sum(deltas[:: plat.total_cores])
    root_bound = p_idle + (tail[0] + offset_charge) / h
    # The seed grouping fits, so it is priced straight from its cells; it is
    # placed only if it is still the incumbent when the search ends.
    seed = _seed_incumbent(table, _fixed_map(table, fix), objective)
    best_placements = None  # the path of the best leaf, once one beats the seed
    best_value = math.inf if seed is None else _closed_form(
        instance, *_cells(instance, seed), seed[1],
        PowerModel.LR_UB if is_lrub else PowerModel.SM, objective.coefficients,
    ).watts
    nodes = 0
    aborted = False

    # A node carries its accumulators as arguments: sum_ae (activity energy,
    # SM only), true (exact window offset or star terms) and safe (their
    # admissible lower bounds). Its bound is
    # p_idle + (safe + tail[depth] + sum_ae) / h.
    def rec(depth: int, used: int, suml: int, sum_ae: float, true: float, safe: float):
        nonlocal nodes, aborted, best_placements, best_value
        nodes += 1
        if time.perf_counter() > deadline:
            aborted = True
            return
        if node_recorder is not None:
            node_recorder(placed_path(depth), p_idle + (safe + tail[depth] + sum_ae) / h)
        if depth == n:
            value = p_idle + (true + sum_ae) / h
            if value < best_value:
                best_placements = placed_path(n)
                best_value = value
            return

        # Generate every placement with its change to the true and safe
        # window terms and bound it, without touching the shared window
        # state; options the incumbent already prunes are dropped here. The
        # incumbent cannot change while they are generated, so its cut is
        # read once. The open windows come first, then the empty one.
        cut = best_value - _EPS
        options = []
        room_left = h - suml
        depth1 = depth + 1
        tail1 = tail[depth1]
        can_open = used < q
        for ci, e, c, ae, o_true, o_safe, o_key in choices[depth]:
            child_ae = sum_ae + ae
            free = room[ci]
            for j in range(used):
                if not free[j]:
                    continue
                wl = wlen[j]
                if e > wl:
                    grow = e - wl
                    if grow > room_left:
                        continue
                    newl = e
                else:  # room_left >= 0: every node's windows fit the frame
                    grow = 0
                    newl = wl
                s = wcoef[j]
                if is_lrub:
                    news = s + c
                else:
                    news = s if s >= c else c
                new_true = newl * news
                dtrue = new_true - wtrue[j]
                child_safe = safe + ((new_true if news >= 0.0 else h * news) - wsafe[j])
                bound = p_idle + (child_safe + tail1 + child_ae) / h
                if bound >= cut:
                    continue
                options.append((
                    ae + dtrue + lam * grow, ci, j, bound, newl, news, true + dtrue,
                    child_safe, child_ae,
                ))
            if can_open and e <= room_left:
                child_safe = safe + o_safe
                bound = p_idle + (child_safe + tail1 + child_ae) / h
                if bound < cut:
                    options.append((
                        o_key, ci, used, bound, e, c, true + o_true, child_safe, child_ae,
                    ))
        if len(options) > 1:
            options.sort()

        # Visit in order of increasing objective change plus lam per ms of
        # window growth. Under LR-UB every task of a window pays the window's
        # whole length, so joining a window costs wl*c >= e*c and opening a
        # new one always looks cheapest: unpriced, the search spends the
        # frame early and backtracks far before it finds the optimum. Growth
        # uses up frame time that the tasks still to come pay for at about
        # lam per ms. The incumbent only improves, so an option bounded out
        # above stays out; the rest are bounded again against the incumbent
        # as it stands now, and only one that survives is applied.
        for _, ci, j, bound, newl, news, child_true, child_safe, child_ae in options:
            if bound >= cut:
                continue
            free = room[ci]
            wl = wlen[j]
            s = wcoef[j]
            old_true = wtrue[j]
            old_safe = wsafe[j]
            new_true = newl * news
            free[j] -= 1
            wlen[j] = newl
            wcoef[j] = news
            wtrue[j] = new_true
            wsafe[j] = new_true if news >= 0.0 else h * news
            pick_w[depth] = j
            pick_c[depth] = ci
            rec(
                depth1,
                used + 1 if j == used else used,
                suml + newl - wl,
                child_ae,
                child_true,
                child_safe,
            )
            free[j] += 1
            wlen[j] = wl
            wcoef[j] = s
            wtrue[j] = old_true
            wsafe[j] = old_safe
            if aborted:
                return
            cut = best_value - _EPS

    rec(0, 0, 0, 0.0, 0.0, 0.0)
    if best_placements is not None:
        assignment = Assignment.from_placements(instance, best_placements)
    else:
        assignment = None if seed is None else _placed(instance, seed)
    return _finish(assignment, best_value, root_bound, nodes, aborted)


# ---------------------------------------------------------------------------
# Branch and bound over cluster choices: idle time and feasibility


def _cluster_search(
    table: _TaskTable,
    objective: ObjectiveSpec,
    fix: Mapping[int, int],
    deadline: float,
) -> tuple[_Grouping | None, float | None, float | None, int, bool]:
    """Cluster-space search: its incumbent's grouping and how the search ended.

    Returns (grouping, value, timeout_bound, nodes, aborted), as _finish
    takes them once the grouping is placed: the incumbent's grouping and
    value (None, None without one), the bound a timeout reports, the node
    count, and whether the deadline cut the search.
    """
    instance = table.instance
    plat = instance.platform
    m = len(plat.clusters)
    q = instance.max_windows
    h = instance.major_frame_ms
    exec_ms = table.exec_ms
    feasibility = objective.kind is ObjectiveKind.FEASIBILITY_ONLY
    # Internal objective: minimize the signed processing time, sign * e per
    # task. Feasibility's zero cost lets the first witness meet the root
    # bound, which prunes the rest of the tree.
    sign = {ObjectiveKind.IDLE_MIN: -1, ObjectiveKind.IDLE_MAX: 1}.get(objective.kind, 0)
    idle_const = 0 if feasibility else h * plat.total_cores

    def to_value(signed_processing: int) -> float:
        return float(idle_const - sign * signed_processing)

    def processing(grouping: _Grouping) -> int:
        return sum(exec_ms[i][ci] for ci, members in enumerate(grouping[0]) for i in members)

    # The fixed tasks alone must fit; with nothing fixed there is nothing to group.
    cluster_of = _fixed_map(table, fix)  # the fixes; the search writes the free tasks' clusters
    fixed = _group(table, cluster_of) if fix else ([[] for _ in range(m)], [])
    if fixed is None:
        return None, None, None, 1, False
    free = [i for i, ci in enumerate(cluster_of) if ci < 0]

    # Seed before building the branching tables: most feasibility calls are
    # settled here, since a seed that meets the root bound prunes every child
    # of the root. The least signed time of a task is sign times its
    # smallest time (idle-max) or its largest (idle-min); feasibility's
    # base, bound and seed value are 0 without a sum.
    base = sign and sign * processing(fixed)
    root_bound = base + (sign and sign * sum(
        map(min if sign > 0 else max, map(exec_ms.__getitem__, free))
    ))
    seed = _seed_incumbent(table, cluster_of, objective)
    best = math.inf if seed is None else sign and sign * processing(seed)
    timeout_bound = None if feasibility else to_value(root_bound)
    if seed is not None and best <= root_bound:
        return seed, to_value(best), timeout_bound, 1, False

    # Feasibility branches on the hardest-to-place tasks first and tries the
    # clusters by time per core; idle time branches on the tasks whose choice
    # matters most and tries the cheapest signed time first. free is in task
    # index order, and the sorts are stable, so ties keep it.
    if feasibility:
        free.sort(key=lambda i: -min(exec_ms[i]))
    else:
        free.sort(key=lambda i: (min(exec_ms[i]) - max(exec_ms[i]), -min(exec_ms[i])))
    n_free = len(free)
    rows = [exec_ms[i] for i in free]
    cost = [[sign * e for e in row] for row in rows]
    caps = [c.core_count for c in plat.clusters]
    rank = [[e / cap for e, cap in zip(row, caps)] for row in rows] if feasibility else cost
    choice_order = [sorted(range(m), key=lambda ci: (row[ci], ci)) for row in rank]
    suffix = [0] * (n_free + 1)
    for p in range(n_free - 1, -1, -1):
        suffix[p] = suffix[p + 1] + min(cost[p])
    caps_total = [q * cap for cap in caps]
    # lists[ci] holds the negated times of the tasks on cluster ci, ascending;
    # lengths[j] is window j's length in the aligned grouping of the tasks
    # placed so far: the largest head (rank j * cap) over the clusters.
    lists = [[-exec_ms[i][ci] for i in members] for ci, members in enumerate(fixed[0])]
    lengths = fixed[1] + [0] * (q - len(fixed[1]))

    # [cluster map of the best leaf found below the root, signed processing]
    incumbent: list = [None, best]
    pick = [0] * n_free  # the cluster position chosen at each depth of the path
    nodes = 0
    aborted = False

    # A child is entered only when its cluster has room, the bound leaves it
    # open and its aligned grouping still fits the frame. The grouping is
    # kept up to date: a task inserted at rank pos of its cluster shifts the
    # heads of that cluster's groups from rank pos on, and a shifted head can
    # only grow, so only those windows can lengthen.
    def rec(depth: int, acc: int, suml: int):
        nonlocal nodes, aborted
        nodes += 1
        if time.perf_counter() > deadline:
            aborted = True
            return
        if depth == n_free:
            if acc < incumbent[1]:
                for i, ci in zip(free, pick):
                    cluster_of[i] = ci
                incumbent[0] = cluster_of.copy()
                incumbent[1] = acc
            return
        exec_row = rows[depth]
        cost_row = cost[depth]
        rest = suffix[depth + 1]
        for ci in choice_order[depth]:
            neg = lists[ci]
            if len(neg) >= caps_total[ci]:
                continue
            c = cost_row[ci]
            if acc + c + rest >= incumbent[1]:
                continue
            e = exec_row[ci]
            pos = bisect_right(neg, -e)
            neg.insert(pos, -e)
            cap = caps[ci]
            lo = -(-pos // cap)
            hi = (len(neg) - 1) // cap + 1
            saved = lengths[lo:hi]
            grow = 0
            for j in range(lo, hi):
                head = -neg[j * cap]
                if head > lengths[j]:
                    grow += head - lengths[j]
                    lengths[j] = head
            if suml + grow <= h:
                pick[depth] = ci
                rec(depth + 1, acc + c, suml + grow)
            lengths[lo:hi] = saved
            del neg[pos]
            if aborted:
                return

    rec(0, base, sum(fixed[1]))
    if incumbent[0] is not None:
        seed = _group(table, incumbent[0])
    return seed, None if seed is None else to_value(incumbent[1]), timeout_bound, nodes, aborted


def solve(
    instance: Instance,
    objective: ObjectiveSpec,
    fixed_clusters: Mapping[int, int] | None = None,
    time_limit_ms: float | None = None,
    node_recorder: NodeRecorder | None = None,
) -> SearchResult:
    """Exact search for the best assignment under the given objective.

    Enforces per-window cluster capacity, window-length dominance, the frame
    budget and fixed_clusters, a {task id: cluster id} mapping whose tasks
    keep their cluster while their windows stay free. Feasibility-only stops at
    the first feasible assignment. The returned lower_bound is proven: it
    equals the objective at optimality and falls back to the root bound on
    timeout (for idle-time maximization it is an upper bound, reported in
    the same field; feasibility-only reports none without a witness). For
    SM power the root bound charges window offsets as well as activity
    energy; for LR-UB power it charges the star energy alone.

    time_limit_ms (None: no limit, else positive) bounds the whole call;
    the search reads the clock at every node it enters.

    nodes_explored counts the nodes the search entered, the root included.
    A child rejected before it is entered, by the capacity, grouping, frame
    or bound checks, is not counted.

    node_recorder, when given, is invoked on every node of the SM / LR-UB
    search with the placed prefix and the node's bound; it exists for bound
    auditing and is ignored by the cluster-space searches.
    """
    deadline = deadline_after(time_limit_ms)
    fix = _check_inputs(instance, objective, fixed_clusters)
    lr_ub = objective.kind is ObjectiveKind.LR_UB_POWER
    table = _TaskTable(instance, objective.coefficients if lr_ub else None)
    if lr_ub or objective.kind is ObjectiveKind.SM_POWER:
        return _window_search(table, objective, fix, deadline, node_recorder)
    grouping, *outcome = _cluster_search(table, objective, fix, deadline)
    return _finish(None if grouping is None else _placed(instance, grouping), *outcome)


# ---------------------------------------------------------------------------
# Exhaustive oracle

# any q at n <= 7: generated instances (q = n, kappa 1.0) take up to 0.25 s
_BRUTE_MAX_TASKS = 10
_BRUTE_MAX_WINDOWS = 5
_BRUTE_MAX_TASKS_ANY_WINDOWS = 7


@functools.lru_cache(maxsize=128)
def _brute_table(
    instance: Instance,
    fixed: tuple[tuple[int, int], ...],
    betas: tuple[tuple[float, ...], ...] | None,
) -> dict:
    """Enumerate every placement (canonical window order) and keep the optima."""
    plat = instance.platform
    m = len(plat.clusters)
    q = instance.max_windows
    h = instance.major_frame_ms
    n = len(instance.tasks)
    caps = [c.core_count for c in plat.clusters]
    p_idle = plat.idle_power_watts
    total_cores = plat.total_cores
    fix = dict(fixed)

    ordered = sorted(
        instance.tasks,
        key=lambda t: (-max(tc.exec_time_ms for tc in t.per_cluster), t.id),
    )
    tid = [t.id for t in ordered]
    allowed = [((fix[t.id] - 1),) if t.id in fix else tuple(range(m)) for t in ordered]
    exec_ms = [[tc.exec_time_ms for tc in t.per_cluster] for t in ordered]
    act_e = [[tc.activity_coef * tc.exec_time_ms for tc in t.per_cluster] for t in ordered]
    off = [[tc.offset_coef for tc in t.per_cluster] for t in ordered]
    unit = None
    if betas is not None:
        unit = [
            [
                tc.activity_coef * betas[ci][0] + tc.offset_coef * betas[ci][1]
                for ci, tc in enumerate(t.per_cluster)
            ]
            for t in ordered
        ]

    cnt = [[0] * m for _ in range(q)]
    wtotal = [0] * q
    wlen = [0] * q
    wmaxb = [0.0] * q
    wstar = [0.0] * q
    trail: list[tuple[int, int, int]] = []

    table = {
        "feasible": None,
        "sm": [math.inf, None],
        "lr_ub": [math.inf, None],
        "idle_min": [math.inf, None],
        "idle_max": [-math.inf, None],
        "leaves": 0,
    }

    def rec(depth, used, suml, sum_ae, sum_e, off_sum, star_sum):
        if depth == n:
            table["leaves"] += 1
            snapshot = None
            if table["feasible"] is None:
                snapshot = tuple(trail)
                table["feasible"] = snapshot
            sm_val = p_idle + (sum_ae + off_sum) / h
            if sm_val < table["sm"][0]:
                snapshot = snapshot or tuple(trail)
                table["sm"] = [sm_val, snapshot]
            if unit is not None:
                lu_val = p_idle + star_sum / h
                if lu_val < table["lr_ub"][0]:
                    snapshot = snapshot or tuple(trail)
                    table["lr_ub"] = [lu_val, snapshot]
            t_idle = float(h * total_cores - sum_e)
            if t_idle < table["idle_min"][0]:
                snapshot = snapshot or tuple(trail)
                table["idle_min"] = [t_idle, snapshot]
            if t_idle > table["idle_max"][0]:
                snapshot = snapshot or tuple(trail)
                table["idle_max"] = [t_idle, snapshot]
            return
        open_limit = used + 1 if used < q else q
        for ci in allowed[depth]:
            e = exec_ms[depth][ci]
            for j in range(open_limit):
                if cnt[j][ci] >= caps[ci]:
                    continue
                grow = e - wlen[j] if e > wlen[j] else 0
                if suml + grow > h:
                    continue
                old_len, old_b, old_star, old_total = wlen[j], wmaxb[j], wstar[j], wtotal[j]
                newb = off[depth][ci] if old_total == 0 else max(old_b, off[depth][ci])
                new_off_sum = off_sum - old_len * (old_b if old_total else 0.0) + (old_len + grow) * newb
                new_star_sum = star_sum
                news = old_star
                if unit is not None:
                    news = old_star + unit[depth][ci]
                    new_star_sum = star_sum - old_len * old_star + (old_len + grow) * news
                cnt[j][ci] += 1
                wtotal[j] += 1
                wlen[j] += grow
                wmaxb[j] = newb
                wstar[j] = news
                trail.append((tid[depth], j + 1, ci + 1))
                rec(
                    depth + 1,
                    used + (1 if j == used else 0),
                    suml + grow,
                    sum_ae + act_e[depth][ci],
                    sum_e + e,
                    new_off_sum,
                    new_star_sum,
                )
                trail.pop()
                cnt[j][ci] -= 1
                wlen[j], wmaxb[j], wstar[j], wtotal[j] = old_len, old_b, old_star, old_total

    rec(0, 0, 0, 0.0, 0, 0.0, 0.0)
    return table


def brute_force_optimum(
    instance: Instance,
    objective: ObjectiveSpec,
    fixed_clusters: Mapping[int, int] | None = None,
) -> SearchResult:
    """Exhaustively enumerate all placements and return the exact optimum.

    Guarded to small instances: at most 10 tasks and 5 windows, or at
    most 7 tasks and any number of windows.
    fixed_clusters is a {task id: cluster id} mapping, checked as solve
    checks it. Windows are enumerated in canonical first-use order, which
    fully removes the window interchange symmetry. The enumeration of the
    last 128 distinct (instance, fixes, coefficients) keys is cached, so
    asking for several objectives on the same instance costs one.
    """
    n = len(instance.tasks)
    q = instance.max_windows
    if n > _BRUTE_MAX_TASKS or (q > _BRUTE_MAX_WINDOWS and n > _BRUTE_MAX_TASKS_ANY_WINDOWS):
        raise ValueError(
            f"brute force is guarded to n <= {_BRUTE_MAX_TASKS} and q <= {_BRUTE_MAX_WINDOWS}, "
            f"or n <= {_BRUTE_MAX_TASKS_ANY_WINDOWS}; got n={n}, q={q}"
        )
    fixed = tuple(sorted(_check_inputs(instance, objective, fixed_clusters).items()))
    betas = objective.coefficients.betas if objective.coefficients else None
    table = _brute_table(instance, fixed, betas)

    def result(status, placements=None, value=None):
        assignment = (
            Assignment.from_placements(instance, placements)
            if placements is not None
            else None
        )
        return SearchResult(status, assignment, value, value, table["leaves"])

    if table["feasible"] is None:
        return result(SearchStatus.INFEASIBLE)
    if objective.kind is ObjectiveKind.FEASIBILITY_ONLY:
        return result(SearchStatus.OPTIMAL, table["feasible"], 0.0)
    slot = {
        ObjectiveKind.SM_POWER: "sm",
        ObjectiveKind.LR_UB_POWER: "lr_ub",
        ObjectiveKind.IDLE_MIN: "idle_min",
        ObjectiveKind.IDLE_MAX: "idle_max",
    }[objective.kind]
    value, placements = table[slot]
    return result(SearchStatus.OPTIMAL, placements, value)
