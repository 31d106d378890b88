"""Exact optimization of task-to-(window, cluster) assignments.

One entry point, solve(), covers five objective kinds: minimizing sum-max
power, minimizing the LR upper-bound power, minimizing or maximizing total
idle time, and plain feasibility with optional per-task cluster fixes.

The power objectives are searched by depth-first branch and bound over
(window, cluster) placements with admissible incremental bounds and window
symmetry breaking (a task may only open the lowest-indexed empty window).
Each candidate placement is bounded from its change to the window terms
before it is applied, so a pruned candidate never touches the search state;
only the survivors are applied, searched below and undone. The SM root
bound, which a timeout reports, also charges window offsets: it groups the
tasks' cheapest offset surcharges C = total cores to a window, the argument
that makes the aligned grouping below optimal.
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

brute_force_optimum() is an independent exhaustive enumerator used as a
testing oracle; it shares no search code with solve().
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

from .model import Assignment, Instance, Placement
from .power import PowerModel, RegressionCoefficients, schedule_power

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


@dataclass(frozen=True)
class PartialFix:
    """Per-task cluster fixes; windows stay free."""

    fixed_clusters: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[int, int]) -> "PartialFix":
        return cls(tuple(sorted(mapping.items())))


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
    elapsed_ms: float


NodeRecorder = Callable[[tuple[tuple[int, int, int], ...], float], None]


# ---------------------------------------------------------------------------
# Shared preparation


def _check_inputs(
    instance: Instance, objective: ObjectiveSpec, partial: PartialFix | None
) -> dict[int, int]:
    if objective.kind is ObjectiveKind.LR_UB_POWER:
        if objective.coefficients is None:
            raise ValueError("the LR upper-bound objective requires regression coefficients")
        objective.coefficients.check_covers(instance.platform)
    fix: dict[int, int] = {}
    if partial is not None:
        task_ids = {t.id for t in instance.tasks}
        m = len(instance.platform.clusters)
        for tid, cid in partial.fixed_clusters:
            if tid not in task_ids:
                raise ValueError(f"partial fix references unknown task {tid}")
            if not 1 <= cid <= m:
                raise ValueError(f"partial fix references unknown cluster {cid}")
            fix[tid] = cid
    return fix


def _grouped_lengths(
    instance: Instance, neg_lists: Sequence[Sequence[int]]
) -> list[int] | None:
    """Minimal window lengths for complete cluster choices.

    neg_lists[ci] holds the negated execution times of the tasks put on
    cluster position ci, in ascending order (so the times themselves are
    non-increasing); the searches keep them sorted as tasks are inserted.
    Returns the per-window lengths of the cheapest partition, or None when
    more windows would be needed than the instance allows.
    """
    q = instance.max_windows
    lengths: list[int] = []
    for ci, cluster in enumerate(instance.platform.clusters):
        cap = cluster.core_count
        neg = neg_lists[ci]
        groups = (len(neg) + cap - 1) // cap
        if groups > q:
            return None
        for j in range(groups):
            head = -neg[j * cap]
            if j == len(lengths):
                lengths.append(head)
            elif head > lengths[j]:
                lengths[j] = head
    return lengths


def _grouped_assignment(
    instance: Instance, cluster_of: Mapping[int, int]
) -> Assignment | None:
    """Feasible assignment for complete cluster choices, or None.

    Windows are filled by the aligned grouping described in the module
    docstring; ties between equal execution times break on ascending task
    index, which is ascending task id, for determinism. The grouping's
    lengths are the assignment's tight window lengths, so the placements
    are built only for a grouping that fits.
    """
    tasks = instance.tasks
    clusters = instance.platform.clusters
    per_cluster: list[list[tuple[int, int]]] = [[] for _ in clusters]
    for i, t in enumerate(tasks):
        cid = cluster_of[t.id]
        per_cluster[cid - 1].append((-t.per_cluster[cid - 1].exec_time_ms, i))
    for entries in per_cluster:
        entries.sort()
    lengths = _grouped_lengths(instance, [[neg_e for neg_e, _ in es] for es in per_cluster])
    if lengths is None or sum(lengths) > instance.major_frame_ms:
        return None
    placed = [None] * len(tasks)  # by task index, which is task-id order
    for c, entries in zip(clusters, per_cluster):
        for rank, (_, i) in enumerate(entries):
            placed[i] = Placement(tasks[i].id, rank // c.core_count + 1, c.id)
    lengths += [0] * (instance.max_windows - len(lengths))
    return Assignment(tuple(placed), tuple(lengths))


def _heuristic_cluster_maps(
    instance: Instance,
    fix: Mapping[int, int],
    objective: ObjectiveSpec,
) -> Iterator[dict[int, int]]:
    """Cheap complete cluster choices used to seed incumbents, built on demand."""
    clusters = instance.platform.clusters
    kind = objective.kind

    def build(score) -> dict[int, int]:
        out = {}
        for t in instance.tasks:
            if t.id in fix:
                out[t.id] = fix[t.id]
            else:
                # per_cluster is in cluster id order: ties go to the lower id
                out[t.id] = min(t.per_cluster, key=score).cluster_id
        return out

    if kind is ObjectiveKind.IDLE_MIN:
        yield build(lambda tc: -tc.exec_time_ms)
    if kind is ObjectiveKind.LR_UB_POWER:
        betas = objective.coefficients

        def star_cost(tc):
            beta = betas.beta(tc.cluster_id)
            return (tc.activity_coef * beta[0] + tc.offset_coef * beta[1]) * tc.exec_time_ms

        yield build(star_cost)
    yield build(lambda tc: tc.exec_time_ms)
    yield build(lambda tc: tc.activity_coef * tc.exec_time_ms)

    # Balance-aware variant: place hardest tasks first, always onto the
    # cluster that keeps the grouped total window length smallest.
    order = sorted(
        instance.tasks,
        key=lambda t: (-min(tc.exec_time_ms for tc in t.per_cluster), t.id),
    )
    lists: list[list[int]] = [[] for _ in clusters]
    balanced: dict[int, int] = {}
    for t in order:
        candidates = [fix[t.id]] if t.id in fix else [c.id for c in clusters]
        best_cid, best_total = None, None
        for cid in candidates:
            ci = cid - 1
            e = t.per_cluster[ci].exec_time_ms
            insort(lists[ci], -e)
            lengths = _grouped_lengths(instance, lists)
            total = math.inf if lengths is None else sum(lengths)
            lists[ci].remove(-e)
            if best_total is None or total < best_total:
                best_cid, best_total = cid, total
        balanced[t.id] = best_cid
        insort(lists[best_cid - 1], -t.per_cluster[best_cid - 1].exec_time_ms)
    yield balanced


def _seed_incumbent(
    instance: Instance,
    fix: Mapping[int, int],
    objective: ObjectiveSpec,
    value_of: Callable[[Assignment], float],
    root_bound: float,
) -> tuple[dict[int, int] | None, Assignment | None, float]:
    """Best heuristic cluster map that groups feasibly, its assignment and value.

    Returns (None, None, inf) when no map groups feasibly. Stops at the first
    map whose value reaches root_bound, which no other map can beat.
    """
    best: tuple[dict[int, int] | None, Assignment | None, float] = (None, None, math.inf)
    for cmap in _heuristic_cluster_maps(instance, fix, objective):
        asg = _grouped_assignment(instance, cmap)
        if asg is None:
            continue
        value = value_of(asg)
        if value < best[2]:
            best = (cmap, asg, value)
            if value <= root_bound:
                break
    return best


def _finish(
    t_start: float,
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
    elapsed = (time.perf_counter() - t_start) * 1000.0
    if assignment is None:
        status = SearchStatus.UNKNOWN_TIMEOUT if aborted else SearchStatus.INFEASIBLE
        bound = timeout_bound if aborted else None
        return SearchResult(status, None, None, bound, nodes, elapsed)
    status = SearchStatus.FEASIBLE_TIMEOUT if aborted else SearchStatus.OPTIMAL
    bound = timeout_bound if aborted else value
    return SearchResult(status, assignment, value, bound, nodes, elapsed)


# ---------------------------------------------------------------------------
# Branch and bound over (window, cluster) placements: SM and LR-UB power


def _window_search(
    instance: Instance,
    objective: ObjectiveSpec,
    fix: Mapping[int, int],
    deadline: float,
    node_recorder: NodeRecorder | None,
) -> SearchResult:
    t_start = time.perf_counter()
    plat = instance.platform
    m = len(plat.clusters)
    q = instance.max_windows
    h = instance.major_frame_ms
    n = len(instance.tasks)
    caps = [c.core_count for c in plat.clusters]
    p_idle = plat.idle_power_watts
    is_lrub = objective.kind is ObjectiveKind.LR_UB_POWER
    betas = objective.coefficients.betas if is_lrub else None

    # Branch on the hardest-to-place tasks first.
    def min_e(t):
        allowed = [fix[t.id] - 1] if t.id in fix else range(m)
        return min(t.per_cluster[ci].exec_time_ms for ci in allowed)

    ordered = sorted(instance.tasks, key=lambda t: (-min_e(t), t.id))
    tid = [t.id for t in ordered]
    allowed = [
        ((fix[t.id] - 1),) if t.id in fix else tuple(range(m)) for t in ordered
    ]
    exec_ms = [[tc.exec_time_ms for tc in t.per_cluster] for t in ordered]
    # Per (task, cluster): the window coefficient the task brings (its offset
    # for SM, merged by max; its star rate for LR-UB, merged by sum) and the
    # activity energy it adds outside the window terms (zero for LR-UB).
    if is_lrub:
        coef = [
            [
                tc.activity_coef * betas[ci][0] + tc.offset_coef * betas[ci][1]
                for ci, tc in enumerate(t.per_cluster)
            ]
            for t in ordered
        ]
        act_e = [[0.0] * m for _ in ordered]
    else:
        coef = [[tc.offset_coef for tc in t.per_cluster] for t in ordered]
        act_e = [
            [tc.activity_coef * tc.exec_time_ms for tc in t.per_cluster]
            for t in ordered
        ]

    # Admissible bound on what the unassigned tasks from depth d on can add:
    # tail[d]. For SM every placement adds at least the smallest activity
    # energy, and offsets of not-yet-placed tasks can only lower the
    # objective when negative, which the h-scaled slack covers. For LR-UB a
    # placement adds at least its star energy, or h times a negative rate.
    if is_lrub:
        incr = [
            min(
                (coef[p][ci] * exec_ms[p][ci]) if coef[p][ci] >= 0.0 else coef[p][ci] * h
                for ci in allowed[p]
            )
            for p in range(n)
        ]
        neg_b = [0.0] * n
    else:
        incr = [min(act_e[p][ci] for ci in allowed[p]) for p in range(n)]
        neg_b = [min(0.0, min(coef[p][ci] for ci in allowed[p]) * h) for p in range(n)]
    suffix = [0.0] * (n + 1)
    suffix_neg = [0.0] * (n + 1)
    for p in range(n - 1, -1, -1):
        suffix[p] = suffix[p + 1] + incr[p]
        suffix_neg[p] = suffix_neg[p + 1] + neg_b[p]
    tail = [suffix[p] + suffix_neg[p] for p in range(n + 1)]

    # Window state. Windows open in index order, so windows below `used` hold
    # at least one task and window `used` is the only empty one a task may
    # take. room[ci][j] is the free core count of cluster ci in window j;
    # wcoef[j] is the window's merged coefficient (max offset for SM, summed
    # star rate for LR-UB).
    room = [[caps[ci]] * q for ci in range(m)]
    wlen = [0] * q
    wcoef = [0.0] * q
    trail: list[tuple[int, int, int]] = []

    # The root bound also charges SM window offsets, once per solve. A task p
    # whose allowed offsets are all nonnegative costs, together with the
    # offset term of any window w holding it, at least min_k(ae + e*off),
    # because l_w >= e and max off >= off >= 0: delta_p above its min ae.
    # So a window costs at least the largest delta among its tasks. A window
    # holds at most C = total cores tasks, so the windows together cost at
    # least every C-th delta in descending order (the aligned-grouping
    # argument of _grouped_lengths). Node bounds do not use it.
    offset_charge = 0.0
    if not is_lrub:
        deltas = sorted(
            (
                min(act_e[p][ci] + exec_ms[p][ci] * coef[p][ci] for ci in allowed[p])
                - incr[p]
                for p in range(n)
                if min(coef[p][ci] for ci in allowed[p]) >= 0.0
            ),
            reverse=True,
        )
        offset_charge = sum(deltas[:: plat.total_cores])
    root_bound = p_idle + (tail[0] + offset_charge) / h
    model = PowerModel.LR_UB if is_lrub else PowerModel.SM
    _, seed, best_value = _seed_incumbent(
        instance, fix, objective,
        lambda asg: schedule_power(instance, asg, model, objective.coefficients).watts,
        root_bound,
    )
    best_placements = None if seed is None else seed.placements
    nodes = 0
    aborted = False

    # A node carries its accumulators as arguments: sum_ae (activity energy,
    # SM only), true (exact window offset or star terms) and safe (their
    # admissible lower bounds, h-scaled where a window's coefficient is
    # negative and the window could still grow). Its bound is
    # p_idle + (safe + tail[depth] + sum_ae) / h.
    def rec(depth: int, used: int, suml: int, sum_ae: float, true: float, safe: float):
        nonlocal nodes, aborted, best_placements, best_value
        nodes += 1
        if time.perf_counter() > deadline:
            aborted = True
            return
        if node_recorder is not None:
            node_recorder(tuple(trail), p_idle + (safe + tail[depth] + sum_ae) / h)
        if depth == n:
            value = p_idle + (true + sum_ae) / h
            if value < best_value:
                best_placements = tuple(trail)
                best_value = value
            return

        # Generate every placement with its change to the true and safe
        # window terms and bound it, without touching the shared window
        # state; options the incumbent already prunes are dropped here.
        options = []
        open_limit = used + 1 if used < q else q
        exec_row = exec_ms[depth]
        coef_row = coef[depth]
        act_row = act_e[depth]
        room_left = h - suml
        depth1 = depth + 1
        tail1 = tail[depth1]
        for ci in allowed[depth]:
            e = exec_row[ci]
            c = coef_row[ci]
            ae = act_row[ci]
            free = room[ci]
            for j in range(open_limit):
                if free[j] == 0:
                    continue
                wl = wlen[j]
                grow = e - wl if e > wl else 0
                if grow > room_left:
                    continue
                newl = wl + grow
                if j == used:  # empty window
                    news = c
                    dtrue = newl * news
                    dsafe = dtrue if news >= 0.0 else h * news
                else:
                    s = wcoef[j]
                    if is_lrub:
                        news = s + c
                    else:
                        news = s if s >= c else c
                    old_true = wl * s
                    new_true = newl * news
                    dtrue = new_true - old_true
                    dsafe = (new_true if news >= 0.0 else h * news) - (
                        old_true if s >= 0.0 else h * s
                    )
                child_safe = safe + dsafe
                child_ae = sum_ae + ae
                bound = p_idle + (child_safe + tail1 + child_ae) / h
                if bound >= best_value - _EPS:
                    continue
                options.append(
                    (ae + dtrue, ci, j, bound, newl, news, true + dtrue, child_safe, child_ae)
                )
        options.sort()

        # Visit in order of increasing objective change. The incumbent only
        # improves, so an option bounded out above stays out; the rest are
        # bounded again against the incumbent as it stands now, and only one
        # that survives is applied. Undo assigns the saved values back.
        for _, ci, j, bound, newl, news, child_true, child_safe, child_ae in options:
            if bound >= best_value - _EPS:
                continue
            free = room[ci]
            wl = wlen[j]
            s = wcoef[j]
            free[j] -= 1
            wlen[j] = newl
            wcoef[j] = news
            trail.append((tid[depth], j + 1, ci + 1))
            rec(
                depth1,
                used + 1 if j == used else used,
                suml + newl - wl,
                child_ae,
                child_true,
                child_safe,
            )
            trail.pop()
            free[j] += 1
            wlen[j] = wl
            wcoef[j] = s
            if aborted:
                return

    rec(0, 0, 0, 0.0, 0.0, 0.0)
    assignment = (
        None if best_placements is None
        else Assignment.from_placements(instance, best_placements)
    )
    return _finish(t_start, assignment, best_value, root_bound, nodes, aborted)


# ---------------------------------------------------------------------------
# Branch and bound over cluster choices: idle time and feasibility


def _cluster_search(
    instance: Instance,
    objective: ObjectiveSpec,
    fix: Mapping[int, int],
    deadline: float,
) -> SearchResult:
    t_start = time.perf_counter()
    plat = instance.platform
    m = len(plat.clusters)
    q = instance.max_windows
    h = instance.major_frame_ms
    feasibility = objective.kind is ObjectiveKind.FEASIBILITY_ONLY
    # Internal objective: minimize the signed processing time, sign * e per
    # task. Feasibility's zero cost lets the first witness meet the root
    # bound, which prunes the rest of the tree.
    sign = {ObjectiveKind.IDLE_MIN: -1, ObjectiveKind.IDLE_MAX: 1}.get(objective.kind, 0)
    idle_const = 0 if feasibility else h * plat.total_cores

    def to_value(signed_processing: int) -> float:
        return float(idle_const - sign * signed_processing)

    lists: list[list[int]] = [[] for _ in range(m)]  # negated times, ascending
    base = 0
    for t in instance.tasks:
        cid = fix.get(t.id)
        if cid is not None:
            e = t.per_cluster[cid - 1].exec_time_ms
            insort(lists[cid - 1], -e)
            base += sign * e
    start_lengths = _grouped_lengths(instance, lists)
    if start_lengths is None or sum(start_lengths) > h:
        return _finish(t_start, None, None, None, 1, False)

    # Seed before building the branching tables: most feasibility calls are
    # settled here, since a seed that meets the root bound prunes every child
    # of the root.
    free = [t for t in instance.tasks if t.id not in fix]
    root_bound = base + (sign and sum(  # feasibility's bound is 0 without a sum
        min(sign * tc.exec_time_ms for tc in t.per_cluster) for t in free
    ))
    best_map, seed, best = _seed_incumbent(
        instance, fix, objective,
        lambda asg: sign and sum(  # feasibility's value is 0 without a sum
            sign * t.per_cluster[p.cluster - 1].exec_time_ms
            for t, p in zip(instance.tasks, asg.placements)
        ),
        root_bound,
    )
    timeout_bound = None if feasibility else to_value(root_bound)
    if seed is not None and best <= root_bound:
        return _finish(t_start, seed, to_value(best), timeout_bound, 1, False)

    # Feasibility branches on the hardest-to-place tasks first and tries the
    # clusters by time per core; idle time branches on the tasks whose choice
    # matters most and tries the cheapest signed time first.
    if feasibility:
        free.sort(key=lambda t: (-min(tc.exec_time_ms for tc in t.per_cluster), t.id))
    else:
        free.sort(
            key=lambda t: (
                -(max(tc.exec_time_ms for tc in t.per_cluster)
                  - min(tc.exec_time_ms for tc in t.per_cluster)),
                -min(tc.exec_time_ms for tc in t.per_cluster),
                t.id,
            )
        )
    n_free = len(free)
    exec_ms = [[tc.exec_time_ms for tc in t.per_cluster] for t in free]
    cost = [[sign * e for e in row] for row in exec_ms]
    rank = (
        [[e / c.core_count for e, c in zip(row, plat.clusters)] for row in exec_ms]
        if feasibility else cost
    )
    choice_order = [sorted(range(m), key=lambda ci: (row[ci], ci)) for row in rank]
    suffix = [0] * (n_free + 1)
    for p in range(n_free - 1, -1, -1):
        suffix[p] = suffix[p + 1] + min(cost[p])
    caps = [c.core_count for c in plat.clusters]
    caps_total = [q * cap for cap in caps]
    # lengths[j] is window j's length in the aligned grouping of the tasks
    # placed so far: the largest head (rank j * cap) over the clusters.
    lengths = start_lengths + [0] * (q - len(start_lengths))

    incumbent: list = [best_map, best]  # [cluster map, signed processing]
    current = dict(fix)
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
                incumbent[0] = dict(current)
                incumbent[1] = acc
            return
        tid = free[depth].id
        exec_row = exec_ms[depth]
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
                current[tid] = ci + 1
                rec(depth + 1, acc + c, suml + grow)
                del current[tid]
            lengths[lo:hi] = saved
            del neg[pos]
            if aborted:
                return

    rec(0, base, sum(start_lengths))
    assignment = value = None
    if incumbent[0] is not None:
        assignment = _grouped_assignment(instance, incumbent[0])
        value = to_value(incumbent[1])
    return _finish(t_start, assignment, value, timeout_bound, nodes, aborted)


def solve(
    instance: Instance,
    objective: ObjectiveSpec,
    partial: PartialFix | None = None,
    time_limit_ms: float | None = None,
    node_recorder: NodeRecorder | None = None,
) -> SearchResult:
    """Exact search for the best assignment under the given objective.

    Enforces per-window cluster capacity, window-length dominance, the frame
    budget and any cluster fixes from the partial. Feasibility-only stops at
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
    fix = _check_inputs(instance, objective, partial)
    if objective.kind in (ObjectiveKind.SM_POWER, ObjectiveKind.LR_UB_POWER):
        return _window_search(instance, objective, fix, deadline, node_recorder)
    return _cluster_search(instance, objective, fix, deadline)


# ---------------------------------------------------------------------------
# Exhaustive oracle

_BRUTE_MAX_TASKS = 10
_BRUTE_MAX_WINDOWS = 5
_brute_cache: dict = {}


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
    partial: PartialFix | None = None,
) -> SearchResult:
    """Exhaustively enumerate all placements and return the exact optimum.

    Guarded to small instances (at most 10 tasks and 5 windows). Windows are
    enumerated in canonical first-use order, which fully removes the window
    interchange symmetry. Results are cached per (instance, partial,
    coefficients), so asking for several objectives on the same instance
    costs one enumeration.
    """
    t_start = time.perf_counter()
    n = len(instance.tasks)
    if n > _BRUTE_MAX_TASKS or instance.max_windows > _BRUTE_MAX_WINDOWS:
        raise ValueError(
            f"brute force is guarded to n <= {_BRUTE_MAX_TASKS} and "
            f"q <= {_BRUTE_MAX_WINDOWS}; got n={n}, q={instance.max_windows}"
        )
    fix = _check_inputs(instance, objective, partial)
    fixed = tuple(sorted(fix.items()))
    betas = objective.coefficients.betas if objective.coefficients else None

    key = (instance, fixed, betas)
    table = _brute_cache.get(key)
    if table is None:
        table = _brute_table(instance, fixed, betas)
        if len(_brute_cache) > 128:
            _brute_cache.clear()
        _brute_cache[key] = table

    def result(status, placements=None, value=None):
        elapsed = (time.perf_counter() - t_start) * 1000.0
        assignment = (
            Assignment.from_placements(instance, placements)
            if placements is not None
            else None
        )
        return SearchResult(
            status, assignment, value, value, table["leaves"], elapsed
        )

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
