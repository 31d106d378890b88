"""Polynomial exact solver for the fixed-window allocation problem.

With window lengths given, choosing clusters and windows to minimize the
summed task energy cost is a minimum-cost flow. A task's cost depends on its
cluster only, and a task that fits a window fits every longer one, so the
windows are grouped by length: the network has one node per (cluster,
distinct nonzero length), a class. A class has a sink arc of capacity
core_count times the number of windows of its length, and a zero-cost chain
arc to the class of the next longer length on the same cluster. A task has
at most one arc per cluster, to the class of the shortest window it fits.
With D distinct lengths that makes n*m + O(m*D) arcs. Integer capacities
make the optimal flow integral.

The flow is computed by successive shortest paths with potentials. A task
starts at minus its cheapest arc cost, so every reduced cost is
nonnegative and a cheapest arc has reduced cost zero. Each task is first
routed along such an arc and up its chain to the first class with a free
sink arc: a path of reduced cost zero is a shortest path, and it leaves the
potentials as they are. The tasks left over are placed by Dijkstra phases
run from all of them at once, each stopping when the sink is settled; the
path found places the task it starts from and may move tasks placed
earlier.

The flow fixes each task's cluster; windows are chosen by rank. Per
cluster, the tasks by descending execution time (ties: task id) fill the
windows by descending length (ties: window index), core_count tasks per
window. The flow respects every class's capacity, which on nested sets is
Hall's condition, so each task lands in a window it fits.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .model import Assignment, Instance, Placement


@dataclass(frozen=True, slots=True)
class FlowArc:
    tail: int
    head: int
    capacity: int
    cost: float


@dataclass(frozen=True)
class FlowNetwork:
    """Flow formulation of one fixed-window instance.

    Node order: the n tasks first (in task order, each supplying one unit),
    then the classes cluster by cluster, each cluster's from the longest
    length to the shortest (class_lengths), then the sink, which absorbs n
    units. The (cluster index ci, length rank r) class is node
    n + ci * len(class_lengths) + r. Arcs: each task's arcs in cluster
    order, then per class in node order its sink arc and, unless it is the
    longest, its chain arc to the next longer class.
    """

    instance: Instance
    window_lengths: tuple[int, ...]
    class_lengths: tuple[int, ...]
    arcs: tuple[FlowArc, ...]

    @property
    def sink(self) -> int:
        return len(self.instance.tasks) + len(self.class_lengths) * len(
            self.instance.platform.clusters
        )


@dataclass
class FlowResult:
    assignment: Assignment | None
    total_cost: float | None

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def build_network(
    instance: Instance, window_lengths: Sequence[int]
) -> FlowNetwork:
    """Build the flow network for the given fixed window lengths.

    Lengths must be nonnegative integers (not bools), at most one per
    available window, and sum to at most the major frame. A task that fits
    no window on a cluster gets no arc to it; the network is still built
    and the solver proves infeasibility.
    """
    lengths = tuple(window_lengths)
    if not lengths:
        raise ValueError("at least one window length is required")
    for l in lengths:
        if not isinstance(l, int) or isinstance(l, bool):
            raise ValueError(f"window length {l!r} is not an integer")
    if len(lengths) > instance.max_windows:
        raise ValueError(
            f"{len(lengths)} window lengths given but the instance allows "
            f"at most {instance.max_windows} windows"
        )
    if any(l < 0 for l in lengths):
        raise ValueError("window lengths must be nonnegative")
    if sum(lengths) > instance.major_frame_ms:
        raise ValueError(
            f"window lengths sum to {sum(lengths)}, exceeding the major "
            f"frame of {instance.major_frame_ms} ms"
        )

    windows_of = Counter(l for l in lengths if l > 0)
    ascending = sorted(windows_of)
    d = len(ascending)
    n = len(instance.tasks)
    sink = n + d * len(instance.platform.clusters)

    arcs: list[FlowArc] = []
    for ti, t in enumerate(instance.tasks):
        for ci, tc in enumerate(t.per_cluster):
            # the shortest length that fits is ascending[i], rank d - 1 - i
            i = bisect_left(ascending, tc.exec_time_ms)
            if i < d:
                arcs.append(FlowArc(ti, n + ci * d + d - 1 - i, 1, tc.effective_energy_cost))
    for ci, c in enumerate(instance.platform.clusters):
        for r in range(d):
            v = n + ci * d + r
            arcs.append(FlowArc(v, sink, c.core_count * windows_of[ascending[d - 1 - r]], 0.0))
            if r:
                arcs.append(FlowArc(v, v - 1, n, 0.0))

    return FlowNetwork(
        instance=instance,
        window_lengths=lengths,
        class_lengths=tuple(reversed(ascending)),
        arcs=tuple(arcs),
    )


def min_cost_assignment(network: FlowNetwork) -> FlowResult:
    """Optimal integral flow decoded into an assignment.

    Infeasible exactly when the maximum flow is smaller than the number of
    tasks. The returned assignment carries tight derived window lengths,
    which never exceed the fixed lengths used to build the network.
    """
    instance = network.instance
    n = len(instance.tasks)
    sink = network.sink

    # Residual graph: network arc i is edge 2i, and edge 2i + 1 its reverse.
    arcs = network.arcs
    heads = [v for a in arcs for v in (a.head, a.tail)]
    caps = [c for a in arcs for c in (a.capacity, 0)]
    costs = [c for a in arcs for c in (a.cost, -a.cost)]
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    sink_edge = [-1] * sink  # per class node, its sink arc
    up_edge = [-1] * sink  # per class node, its chain arc, if any
    for e in range(0, len(heads), 2):
        tail, head = heads[e + 1], heads[e]
        adj[tail].append(e)
        adj[head].append(e + 1)
        if tail >= n:
            if head == sink:
                sink_edge[tail] = e
            else:
                up_edge[tail] = e

    # A task starts at minus its cheapest arc cost and every other node at 0,
    # which makes every reduced cost, cost + pot[tail] - pot[head], nonnegative.
    # A task is routed at once along a cheapest arc and up the chain to the
    # first free sink arc, a path of reduced cost 0.
    pot = [0.0] * (sink + 1)
    roots = []  # tasks not yet placed: each one has excess 1
    for t in range(n):
        if not adj[t]:
            return FlowResult(None, None)  # the task fits no window
        cheapest = min(costs[e] for e in adj[t])
        pot[t] = -cheapest
        for e in adj[t]:
            if costs[e] != cheapest:
                continue
            path = [e]
            v = heads[e]
            while caps[sink_edge[v]] == 0 and up_edge[v] >= 0:
                path.append(up_edge[v])
                v = heads[up_edge[v]]
            if caps[sink_edge[v]]:
                path.append(sink_edge[v])
                for ei in path:
                    caps[ei] -= 1
                    caps[ei ^ 1] += 1
                break
        else:
            roots.append(t)

    INF = math.inf
    dist = [INF] * (sink + 1)
    parent_edge = [-1] * (sink + 1)
    while roots:
        # Dijkstra from every unplaced task at distance 0 until the sink is
        # settled. Entries are (d, -v), so on a tie the sink, the last node,
        # is popped first. Nothing enters an unplaced task, so its parent
        # edge stays -1.
        heap = [(0.0, -r) for r in roots]
        heapq.heapify(heap)
        reached = list(roots)
        for r in roots:
            dist[r] = 0.0
        while heap:
            d, u = heapq.heappop(heap)
            u = -u
            if d > dist[u]:
                continue
            if u == sink:
                break
            pu = pot[u]
            for ei in adj[u]:
                if caps[ei] <= 0:
                    continue
                v = heads[ei]
                reduced = costs[ei] + pu - pot[v]
                if reduced < 0.0:
                    reduced = 0.0  # floating-point noise; exact value is >= 0
                nd = d + reduced
                if nd < dist[v]:
                    if dist[v] == INF:
                        reached.append(v)
                    dist[v] = nd
                    parent_edge[v] = ei
                    heapq.heappush(heap, (nd, -v))
        else:
            return FlowResult(None, None)  # the sink is out of reach
        v = sink
        while parent_edge[v] >= 0:
            ei = parent_edge[v]
            caps[ei] -= 1
            caps[ei ^ 1] += 1
            v = heads[ei ^ 1]
        roots.remove(v)  # the root the path starts from is the task placed
        # pot += min(dist, d_sink) for every node, less the constant d_sink,
        # which no reduced cost sees. Only nodes settled before the sink are
        # closer than d_sink, so the other nodes keep their potential.
        d_sink = dist[sink]
        for u in reached:
            if dist[u] < d_sink:
                pot[u] += dist[u] - d_sink
            dist[u] = INF
            parent_edge[u] = -1

    # a task's cluster is that of the class its spent arc enters
    d = len(network.class_lengths)
    cluster_index = []
    for t in range(n):
        for e in adj[t]:
            if not caps[e]:
                cluster_index.append((heads[e] - n) // d)
                break
    return _decode(instance, network.window_lengths, cluster_index)


def _decode(
    instance: Instance, lengths: tuple[int, ...], cluster_index: list[int]
) -> FlowResult:
    """Windows by rank for the flow's clusters, and the summed energy cost."""
    tasks = instance.tasks
    by_length = sorted(range(len(lengths)), key=lambda j: (-lengths[j], j))
    chars = [t.per_cluster[ci] for t, ci in zip(tasks, cluster_index)]
    times = [tc.exec_time_ms for tc in chars]
    members: list[list[int]] = [[] for _ in instance.platform.clusters]
    for ti, ci in enumerate(cluster_index):
        members[ci].append(ti)
    window = [0] * len(tasks)
    tight = [0] * instance.max_windows
    for cluster, group in zip(instance.platform.clusters, members):
        # the sort is stable, so equal times keep task order, which is id order
        group.sort(key=times.__getitem__, reverse=True)
        for rank, ti in enumerate(group):
            j = by_length[rank // cluster.core_count]
            window[ti] = j + 1
            if times[ti] > tight[j]:
                tight[j] = times[ti]
    placements = map(Placement, [t.id for t in tasks], window, [tc.cluster_id for tc in chars])
    total = sum((tc.effective_energy_cost for tc in chars), 0.0)
    return FlowResult(Assignment(tuple(placements), tuple(tight)), total)
