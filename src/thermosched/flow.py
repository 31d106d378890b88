"""Polynomial exact solver for the fixed-window allocation problem.

With window lengths given, choosing clusters and windows to minimize total
task energy is a minimum-cost flow: one supply node per task, one
transshipment node per (window, cluster) pair reachable by a task arc only
when the task fits the window, and a sink absorbing everything through
capacity-q_k arcs. Integer capacities make the optimal flow integral, so a
unit of flow on a task arc decodes directly into a placement.

The flow itself is computed by successive shortest paths with potentials.
Each phase runs Dijkstra from every unplaced task at once and stops when
the sink is settled; the path found places the task it starts from and may
move tasks placed earlier. A task starts at minus its cheapest arc cost, so
reduced costs are nonnegative from the first phase on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .model import Assignment, Instance


@dataclass(frozen=True)
class FlowArc:
    tail: int
    head: int
    capacity: int
    cost: float


@dataclass(frozen=True)
class FlowNetwork:
    """Flow formulation of one fixed-window instance.

    Node order: the n tasks first (in task order, each supplying one unit),
    then the (window, cluster) nodes (window-major), then the sink, which
    absorbs n units. arc_placements holds the decoded (task_id, window,
    cluster) for task arcs and None for sink arcs.
    """

    instance: Instance
    window_lengths: tuple[int, ...]
    arcs: tuple[FlowArc, ...]
    arc_placements: tuple[tuple[int, int, int] | None, ...]

    @property
    def sink(self) -> int:
        return len(self.instance.tasks) + len(self.window_lengths) * len(
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

    Lengths must be nonnegative, at most one per available window, and sum
    to at most the major frame. A task that fits no (window, cluster) gets
    no arc; the network is still built and the solver proves infeasibility.
    """
    lengths = tuple(int(l) for l in window_lengths)
    if not lengths:
        raise ValueError("at least one window length is required")
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

    clusters = instance.platform.clusters
    tasks = instance.tasks
    n, m = len(tasks), len(clusters)
    n_windows = len(lengths)

    # the (window j, cluster k) node is n + (j - 1) * m + (k - 1)
    sink = n + n_windows * m
    arcs: list[FlowArc] = []
    placements: list[tuple[int, int, int] | None] = []
    for ti, t in enumerate(tasks):
        for ci, tc in enumerate(t.per_cluster):
            exec_ms, cost = tc.exec_time_ms, tc.effective_energy_cost
            for j in range(1, n_windows + 1):
                if exec_ms <= lengths[j - 1]:
                    arcs.append(FlowArc(ti, n + (j - 1) * m + ci, 1, cost))
                    placements.append((t.id, j, ci + 1))
    for j in range(1, n_windows + 1):
        for ci, c in enumerate(clusters):
            arcs.append(FlowArc(n + (j - 1) * m + ci, sink, c.core_count, 0.0))
            placements.append(None)

    return FlowNetwork(
        instance=instance,
        window_lengths=lengths,
        arcs=tuple(arcs),
        arc_placements=tuple(placements),
    )


def min_cost_assignment(network: FlowNetwork) -> FlowResult:
    """Optimal integral flow decoded into an assignment.

    Infeasible exactly when the maximum flow is smaller than the number of
    tasks. The returned assignment carries tight derived window lengths,
    which never exceed the fixed lengths used to build the network.
    """
    instance = network.instance
    n = len(instance.tasks)
    if n == 0:
        return FlowResult(Assignment.from_placements(instance, []), 0.0)

    sink = network.sink
    n_nodes = sink + 1

    # Residual graph: network arc i is edge 2i, and edge 2i + 1 its reverse.
    arcs = network.arcs
    heads = [v for a in arcs for v in (a.head, a.tail)]
    caps = [c for a in arcs for c in (a.capacity, 0)]
    costs = [c for a in arcs for c in (a.cost, -a.cost)]
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for e in range(0, len(heads), 2):
        adj[heads[e + 1]].append(e)
        adj[heads[e]].append(e + 1)
    # A task starts at minus its cheapest arc cost and every other node at 0,
    # which makes every reduced cost, cost + pot[tail] - pot[head], nonnegative.
    pot = [0.0] * n_nodes
    for t in range(n):
        pot[t] = -min((costs[e] for e in adj[t]), default=0.0)

    INF = math.inf
    dist = [INF] * n_nodes
    parent_edge = [-1] * n_nodes
    roots = list(range(n))  # tasks not yet placed: each one has excess 1
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
            break  # the sink is out of reach: the tasks left cannot be placed
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

    if roots:
        return FlowResult(None, None)

    # a task arc carries its unit of flow exactly when its capacity is spent
    chosen = [
        placement
        for placement, cap in zip(network.arc_placements, caps[::2])
        if placement is not None and cap == 0
    ]
    assignment = Assignment.from_placements(instance, chosen)
    total = sum(
        t.per_cluster[p.cluster - 1].effective_energy_cost
        for t, p in zip(instance.tasks, assignment.placements)
    )
    return FlowResult(assignment, total)
