"""Shared fixtures-in-code for the test suite: reference instances, random
instance factories and independent oracles (kept free of solver internals)."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

import networkx
import numpy as np

import thermosched as ts
from thermosched.generator import GeneratorConfig, generate_instance, sweep_seed
from thermosched.presets import builtin_coefficients, builtin_kernel_pool, builtin_platform

MEK = builtin_platform("imx8-mek")
MEK_COEFF = builtin_coefficients("imx8-mek")
MIXED_POOL = builtin_kernel_pool("mixed")


def worked_example() -> ts.Instance:
    """Three tasks in one 700 ms window on an i.MX8-MEK-shaped platform.

    The coefficients of each task on its placed cluster are the reference
    values; the opposite-cluster entries are synthetic fillers that no test
    evaluates.
    """
    tasks = (
        ts.Task(1, "a2time-4K", (
            ts.TaskCharacteristics(1, 450, 0.25, 0.25),
            ts.TaskCharacteristics(2, 161, 0.52, 0.37),
        )),
        ts.Task(2, "canrdr-4M", (
            ts.TaskCharacteristics(1, 550, 0.41, 1.36),
            ts.TaskCharacteristics(2, 239, 0.95, 0.88),
        )),
        ts.Task(3, "membench-1M-RO-S", (
            ts.TaskCharacteristics(1, 980, 0.58, 1.05),
            ts.TaskCharacteristics(2, 700, 1.24, 1.22),
        )),
    )
    return ts.Instance(platform=MEK, tasks=tasks, major_frame_ms=700, max_windows=1)


def with_every_option(instance: ts.Instance) -> ts.Instance:
    """The instance with the thermal parameters and every energy_cost set."""
    platform = dataclasses.replace(
        instance.platform, thermal_b=0.5, thermal_g=0.4, ambient_celsius=25.0
    )
    tasks = tuple(
        dataclasses.replace(t, per_cluster=tuple(
            dataclasses.replace(tc, energy_cost=0.1 * tc.exec_time_ms) for tc in t.per_cluster
        ))
        for t in instance.tasks
    )
    return dataclasses.replace(instance, platform=platform, tasks=tasks)


def worked_example_assignment(instance: ts.Instance) -> ts.Assignment:
    return ts.Assignment.from_placements(instance, [(1, 1, 1), (2, 1, 1), (3, 1, 2)])


def seven_task_layout() -> tuple[ts.Instance, ts.Assignment]:
    """Seven tasks on 4+2 cores across three windows, all windows used."""
    def task(i, e_little, e_big):
        return ts.Task(i, f"t{i}", (
            ts.TaskCharacteristics(1, e_little, 0.3, 0.4),
            ts.TaskCharacteristics(2, e_big, 0.8, 0.6),
        ))

    tasks = (
        task(1, 300, 150), task(2, 150, 60), task(3, 120, 50),
        task(4, 130, 55), task(5, 225, 90), task(6, 250, 100),
        task(7, 145, 60),
    )
    instance = ts.Instance(platform=MEK, tasks=tasks, major_frame_ms=600, max_windows=3)
    assignment = ts.Assignment.from_placements(
        instance,
        [
            (2, 1, 1), (4, 1, 1), (3, 1, 2),   # window 1: lengths 150/130, 50
            (6, 2, 1), (5, 2, 1), (1, 2, 2),   # window 2: 250/225, 150
            (7, 3, 1),                          # window 3: 145
        ],
    )
    return instance, assignment


def with_windows(instance: ts.Instance, q: int) -> ts.Instance:
    return ts.Instance(
        platform=instance.platform,
        tasks=instance.tasks,
        major_frame_ms=instance.major_frame_ms,
        max_windows=q,
    )


def with_negated_odd_offsets(instance: ts.Instance) -> ts.Instance:
    """The instance with the offset coefficients of odd task ids negated."""
    tasks = tuple(
        ts.Task(t.id, t.name, tuple(
            dataclasses.replace(tc, offset_coef=-tc.offset_coef) if t.id % 2 else tc
            for tc in t.per_cluster
        ))
        for t in instance.tasks
    )
    return dataclasses.replace(instance, tasks=tasks)


def small_random_instance(
    seed: int,
    n_lo: int = 3,
    n_hi: int = 8,
    q_max: int = 4,
    kappa_lo: float = 2.0,
    kappa_hi: float = 4.0,
    n: int | None = None,
) -> ts.Instance:
    """Seeded random instance small enough for the exhaustive oracle."""
    rng = random.Random(seed)
    n = n if n is not None else rng.randint(n_lo, n_hi)
    kappa = rng.uniform(kappa_lo, kappa_hi)
    inst = generate_instance(
        GeneratorConfig(kernel_pool=MIXED_POOL, n_tasks=n, rng_seed=seed, tightness_kappa=kappa),
        MEK,
    )
    q_lo = max(1, math.ceil(n / MEK.total_cores))
    q = rng.randint(q_lo, max(q_lo, min(n, q_max)))
    return with_windows(inst, q)


PINNED_SEARCH = Path(__file__).parent / "data" / "exact_pinned_search.json"


def pinned_search_cases() -> list[dict]:
    """The recorded exact-search cases: instance recipe, fixes and per-kind results."""
    return json.loads(PINNED_SEARCH.read_text())


def pinned_instance(case: dict) -> ts.Instance:
    """The instance of a recipe: a sweep or small random instance, offsets negated on request."""
    if "sweep" in case:
        base_seed, n, rep = case["sweep"]
        config = GeneratorConfig(
            kernel_pool=MIXED_POOL, n_tasks=n,
            rng_seed=sweep_seed(base_seed, n, rep), tightness_kappa=case["kappa"],
        )
        instance = generate_instance(config, MEK)
    else:
        seed, kwargs = case["small"]
        instance = small_random_instance(seed, **kwargs)
    if case.get("negated_odd_offsets"):
        instance = with_negated_odd_offsets(instance)
    return instance


def pinned_search_results(case: dict) -> dict[str, dict]:
    """solve's outcome on a pinned case per objective kind, in the recorded form."""
    instance = pinned_instance(case)
    partial = dict(case["fix"]) if case["fix"] else None
    out = {}
    for kind in ts.ObjectiveKind:
        result = ts.solve(instance, ts.ObjectiveSpec(kind, MEK_COEFF), partial)
        out[kind.value] = {
            "status": result.status.value,
            "nodes_explored": result.nodes_explored,
            "objective_value": result.objective_value,
            "placements": None if result.assignment is None else [
                [p.task_id, p.window, p.cluster] for p in result.assignment.placements
            ],
        }
    return out


def random_cluster_map(instance: ts.Instance, rng: random.Random) -> dict[int, int]:
    ids = [c.id for c in instance.platform.clusters]
    return {t.id: rng.choice(ids) for t in instance.tasks}


def grouped_assignment(instance: ts.Instance, cluster_of: dict[int, int]) -> ts.Assignment | None:
    """Independent rebuild of the sorted-grouping window construction."""
    placements = []
    lengths = [0] * instance.max_windows
    for c in instance.platform.clusters:
        members = sorted(
            (tid for tid, cid in cluster_of.items() if cid == c.id),
            key=lambda tid: (-instance.task_by_id(tid).on(c.id).exec_time_ms, tid),
        )
        for rank, tid in enumerate(members):
            j = rank // c.core_count + 1
            if j > instance.max_windows:
                return None
            placements.append((tid, j, c.id))
            e = instance.task_by_id(tid).on(c.id).exec_time_ms
            lengths[j - 1] = max(lengths[j - 1], e)
    if sum(lengths) > instance.major_frame_ms:
        return None
    return ts.Assignment.from_placements(instance, placements)


def reference_greedy(instance: ts.Instance) -> tuple[ts.Assignment | None, int]:
    """Greedy with one solve(FEASIBILITY_ONLY) call per trial, and the call count.

    Tasks by non-increasing max-over-clusters activity energy, clusters by
    non-decreasing energy, a fix kept when the oracle proves the rest
    placeable; the result is the aligned grouping of the fixes, or None when
    a task fits on no cluster.
    """
    feas = ts.ObjectiveSpec(ts.ObjectiveKind.FEASIBILITY_ONLY)

    def energy(task, cid):
        tc = task.on(cid)
        return tc.activity_coef * tc.exec_time_ms

    cluster_ids = [c.id for c in instance.platform.clusters]
    order = sorted(
        instance.tasks, key=lambda t: (-max(energy(t, c) for c in cluster_ids), t.id)
    )
    fixed: dict[int, int] = {}
    calls = 0
    for task in order:
        for cid in sorted(cluster_ids, key=lambda c: (energy(task, c), c)):
            calls += 1
            status = ts.solve(instance, feas, {**fixed, task.id: cid}).status
            if status is ts.SearchStatus.OPTIMAL:
                fixed[task.id] = cid
                break
            assert status is ts.SearchStatus.INFEASIBLE
        else:
            return None, calls
    return grouped_assignment(instance, fixed), calls


def reference_balanced_map(instance: ts.Instance, fix: dict[int, int]) -> dict[int, int]:
    """The balance-aware seed map, regrouping every cluster for each candidate.

    Hardest tasks first (smallest time over the clusters, descending; ties
    on task id), each onto the candidate cluster whose insertion gives the
    smallest total length of the aligned grouping, inf when a cluster needs
    more than q windows; ties go to the first candidate.
    """
    q = instance.max_windows
    members: dict[int, list[int]] = {c.id: [] for c in instance.platform.clusters}

    def total() -> float:
        lengths = [0] * q
        for c in instance.platform.clusters:
            times = sorted(members[c.id], reverse=True)
            heads = times[:: c.core_count]
            if len(heads) > q:
                return math.inf
            for j, head in enumerate(heads):
                lengths[j] = max(lengths[j], head)
        return sum(lengths)

    order = sorted(
        instance.tasks, key=lambda t: (-min(tc.exec_time_ms for tc in t.per_cluster), t.id)
    )
    out = {}
    for t in order:
        candidates = [fix[t.id]] if t.id in fix else [c.id for c in instance.platform.clusters]
        best_cid, best_total = None, None
        for cid in candidates:
            members[cid].append(t.on(cid).exec_time_ms)
            value = total()
            members[cid].pop()
            if best_total is None or value < best_total:
                best_cid, best_total = cid, value
        out[t.id] = best_cid
        members[best_cid].append(t.on(best_cid).exec_time_ms)
    return out


Gene = namedtuple("Gene", "cluster window preference")


def reference_decode(genome, instance: ts.Instance) -> list[Gene]:
    """Scalar, gene-by-gene decode: the formula the population decode must match bit for bit."""
    m = len(instance.platform.clusters)
    q = instance.max_windows
    out = []
    for x in genome:
        x = float(x)
        ci = min(int(x * m), m - 1)
        pref = (x - ci / m) * q * m
        pref = min(max(pref, 0.0), math.nextafter(float(q), 0.0))
        window = min(int(pref), q - 1) + 1
        out.append(Gene(cluster=ci + 1, window=window, preference=pref))
    return out


def reference_reconstruct(genome, instance: ts.Instance) -> ts.Assignment | None:
    """Independent rebuild of the genome repair: two literal cyclic sweeps.

    Each visited window rescans every task, so this costs O(q * n) per
    genome; it is the oracle the solver's bucketed repair is checked
    against and is deliberately kept free of solver internals.
    """
    genes = reference_decode(genome, instance)
    q = instance.max_windows
    tasks = instance.tasks
    n = len(tasks)
    capacity = {
        (j, c.id): c.core_count
        for j in range(1, q + 1)
        for c in instance.platform.clusters
    }
    window = [g.window for g in genes]
    preference = [g.preference for g in genes]
    assigned = [False] * n
    placements = []

    for iteration in range(2 * q):
        current = iteration % q + 1
        todo = [i for i in range(n) if not assigned[i] and window[i] == current]
        todo.sort(key=lambda i: (preference[i], tasks[i].id))
        for i in todo:
            cid = genes[i].cluster
            if capacity[(current, cid)] > 0:
                capacity[(current, cid)] -= 1
                assigned[i] = True
                placements.append((tasks[i].id, current, cid))
            else:
                window[i] = current % q + 1
                preference[i] = 0.0

    if not all(assigned):
        return None
    assignment = ts.Assignment.from_placements(instance, placements)
    if assignment.total_window_length_ms > instance.major_frame_ms:
        return None
    return assignment


def _two_point_crossover(rng, p1, p2):
    n = len(p1)
    a, b = sorted(rng.integers(0, n + 1, size=2))
    child = p1.copy()
    child[a:b] = p2[a:b]
    return child


def _bga_mutate(rng, vec, mut_range, bits):
    n = len(vec)
    powers = 2.0 ** -np.arange(bits)
    picked = np.flatnonzero(rng.random(n) < 1.0 / n)
    for idx in picked:
        alpha = rng.random(bits) < 1.0 / bits
        delta = mut_range * float(powers[alpha].sum())
        if rng.random() < 0.5:
            delta = -delta
        vec[idx] = min(max(vec[idx] + delta, 0.0), 1.0 - 1e-12)


def children_drawn_per_child(rng, parents_a, parents_b, config: ts.GaConfig):
    """The GA's children built one at a time: two-point crossover, then BGA mutation.

    Each child draws, in order, its crossover coin and cut points, then its
    mutation coin, gene picks and per-gene term picks and sign. The GA
    draws in another order, so this loop agrees with it in distribution
    only; it is the independent oracle of that distribution.
    """
    children = np.empty_like(parents_a)
    for i in range(len(parents_a)):
        if rng.random() < config.crossover_rate:
            children[i] = _two_point_crossover(rng, parents_a[i], parents_b[i])
        else:
            children[i] = parents_a[i]
        if rng.random() < config.mutation_rate:
            _bga_mutate(rng, children[i], config.bga_mutation_range, config.bga_precision_bits)
    return children


def reference_children(rng, parents_a, parents_b, config: ts.GaConfig):
    """The GA's children from its documented draws, built child by child.

    A generation draws five arrays, in order: crossover coins per child, a
    sorted pair of cut points per crossing child, mutation coins per child,
    a pick draw per gene of each mutating child (picked below 1/n) and, per
    picked gene in row-major order, bga_precision_bits term draws (joining
    below 1/bits) and a sign draw (negative below 0.5). This is the random
    stream the GA's array builder must reproduce.
    """
    size, n = parents_a.shape
    bits = config.bga_precision_bits
    crosses = (rng.random(size) < config.crossover_rate).tolist()
    cuts = iter(rng.integers(0, n + 1, size=(sum(crosses), 2)).tolist())
    mutates = (rng.random(size) < config.mutation_rate).tolist()
    picks = (rng.random((sum(mutates), n)) < 1.0 / n).tolist()
    terms = iter(rng.random((sum(map(sum, picks)), bits + 1)).tolist())
    pick_rows = iter(picks)
    children = []
    for i, (a, b) in enumerate(zip(parents_a.tolist(), parents_b.tolist())):
        child = a
        if crosses[i]:
            lo, hi = sorted(next(cuts))
            child[lo:hi] = b[lo:hi]
        if mutates[i]:
            for g, picked in enumerate(next(pick_rows)):
                if picked:
                    *alpha, sign = next(terms)
                    delta = config.bga_mutation_range * sum(
                        2.0 ** -k for k, u in enumerate(alpha) if u < 1.0 / bits
                    )
                    if sign < 0.5:
                        delta = -delta
                    child[g] = min(max(child[g] + delta, 0.0), 1.0 - 1e-12)
        children.append(child)
    return np.array(children, dtype=float).reshape(parents_a.shape)


def lr_interval_oracle(
    instance: ts.Instance, assignment: ts.Assignment, coefficients
) -> float:
    """LR schedule power as the length-weighted sum over processing intervals."""
    h = instance.major_frame_ms
    plat = instance.platform
    above_idle = 0.0
    for j in range(1, instance.max_windows + 1):
        for interval in ts.decompose_intervals(instance, assignment, j):
            est = ts.lr_interval_power(plat, coefficients, interval, instance)
            above_idle += interval.length_ms / h * (est.activity_watts + est.offset_watts)
    return plat.idle_power_watts + above_idle


def window_by_window_power(
    instance: ts.Instance, assignment: ts.Assignment, model: str, coefficients=None
) -> float:
    """SM or LR-UB schedule power as the length-weighted sum of window powers.

    Written from the per-window definitions: above idle, a window of length
    l draws sum_t a_t e_t / l + max_t b_t under SM, and sum_t (beta_k0 a_t +
    beta_k1 b_t) under LR-UB; an empty window and the frame time outside
    the windows draw idle power only.
    """
    h = instance.major_frame_ms
    above_idle = 0.0
    for j, length in enumerate(assignment.window_lengths_ms, start=1):
        tcs = [
            instance.task_by_id(p.task_id).on(p.cluster)
            for p in assignment.placements if p.window == j
        ]
        if not tcs:
            continue
        if model == "sm":
            window = sum(tc.activity_coef * tc.exec_time_ms for tc in tcs) / length
            window += max(tc.offset_coef for tc in tcs)
        else:
            window = 0.0
            for tc in tcs:
                beta = coefficients.betas[tc.cluster_id - 1]
                window += beta[0] * tc.activity_coef + beta[1] * tc.offset_coef
        above_idle += length / h * window
    return instance.platform.idle_power_watts + above_idle


def random_feasible_assignments(
    instance: ts.Instance, rng: random.Random, count: int, max_attempts: int = 20000
) -> list[ts.Assignment]:
    """Sample feasible assignments from genome repairs and random groupings."""
    out: list[ts.Assignment] = []
    n = len(instance.tasks)
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        if attempts % 2 == 0:
            asg = ts.reconstruct([rng.random() for _ in range(n)], instance)
        else:
            asg = grouped_assignment(instance, random_cluster_map(instance, rng))
        if asg is not None and ts.check_feasible(instance, asg):
            out.append(asg)
    return out


def sm_value(instance: ts.Instance, assignment: ts.Assignment) -> float:
    """The linearized sum-max schedule objective, written independently."""
    h = instance.major_frame_ms
    total_ae = 0.0
    max_b = {}
    for p in assignment.placements:
        tc = instance.task_by_id(p.task_id).on(p.cluster)
        total_ae += tc.activity_coef * tc.exec_time_ms
        max_b[p.window] = max(max_b.get(p.window, -math.inf), tc.offset_coef)
    off = sum(assignment.window_lengths_ms[j - 1] * b for j, b in max_b.items())
    return instance.platform.idle_power_watts + (total_ae + off) / h


def _best_completion(
    instance: ts.Instance,
    partial: tuple[tuple[int, int, int], ...],
    value,
) -> float | None:
    """Exhaustive minimum of value(members, lengths) over completions of a prefix.

    members[j] lists the characteristics of the tasks in window j + 1 and
    lengths[j] is that window's length. Windows are NOT canonicalized here:
    the prefix already pins window identities, and this checks solver node
    bounds against all genuine completions. Returns None when no feasible
    completion exists.
    """
    q = instance.max_windows
    h = instance.major_frame_ms
    clusters = instance.platform.clusters
    placed_ids = {p[0] for p in partial}
    rest = [t for t in instance.tasks if t.id not in placed_ids]

    counts = {(j, c.id): 0 for j in range(1, q + 1) for c in clusters}
    lengths = [0] * q
    members: list[list[ts.TaskCharacteristics]] = [[] for _ in range(q)]
    for tid, j, cid in partial:
        tc = instance.task_by_id(tid).on(cid)
        counts[(j, cid)] += 1
        lengths[j - 1] = max(lengths[j - 1], tc.exec_time_ms)
        members[j - 1].append(tc)

    best = [None]

    def rec(i):
        if sum(lengths) > h:
            return
        if i == len(rest):
            v = value(members, lengths)
            if best[0] is None or v < best[0]:
                best[0] = v
            return
        t = rest[i]
        for c in clusters:
            tc = t.on(c.id)
            for j in range(1, q + 1):
                if counts[(j, c.id)] >= c.core_count:
                    continue
                old_len = lengths[j - 1]
                lengths[j - 1] = max(old_len, tc.exec_time_ms)
                members[j - 1].append(tc)
                counts[(j, c.id)] += 1
                rec(i + 1)
                counts[(j, c.id)] -= 1
                members[j - 1].pop()
                lengths[j - 1] = old_len
    rec(0)
    return best[0]


def best_sm_completion(
    instance: ts.Instance, partial: tuple[tuple[int, int, int], ...]
) -> float | None:
    """Exhaustive minimum SM objective over completions of a placed prefix."""
    h = instance.major_frame_ms

    def value(members, lengths):
        total_ae = sum(tc.activity_coef * tc.exec_time_ms for tcs in members for tc in tcs)
        off = sum(
            length * max(tc.offset_coef for tc in tcs)
            for tcs, length in zip(members, lengths)
            if tcs
        )
        return instance.platform.idle_power_watts + (total_ae + off) / h

    return _best_completion(instance, partial, value)


def best_lrub_completion(
    instance: ts.Instance, partial: tuple[tuple[int, int, int], ...], coefficients
) -> float | None:
    """Exhaustive minimum LR-UB objective over completions of a placed prefix.

    Every task is charged its cluster's regression rate over the whole
    length of its window: P_idle + sum_j L_j * sum_t (beta0 a_t + beta1 b_t) / h.
    """
    h = instance.major_frame_ms

    def value(members, lengths):
        energy = 0.0
        for tcs, length in zip(members, lengths):
            for tc in tcs:
                beta = coefficients.beta(tc.cluster_id)
                energy += length * (beta[0] * tc.activity_coef + beta[1] * tc.offset_coef)
        return instance.platform.idle_power_watts + energy / h

    return _best_completion(instance, partial, value)


def flow_oracle_min_cost(
    instance: ts.Instance, lengths: tuple[int, ...]
) -> float | None:
    """Exact minimum total energy over fixed windows via capacity-state DP."""
    clusters = instance.platform.clusters
    nw = len(lengths)
    tasks = instance.tasks
    start = tuple(c.core_count for c in clusters for _ in range(nw))

    @lru_cache(maxsize=None)
    def best(t: int, caps: tuple[int, ...]) -> float:
        if t == len(tasks):
            return 0.0
        out = math.inf
        task = tasks[t]
        caps_l = list(caps)
        for ci, c in enumerate(clusters):
            tc = task.on(c.id)
            for j in range(nw):
                idx = ci * nw + j
                if caps_l[idx] > 0 and tc.exec_time_ms <= lengths[j]:
                    caps_l[idx] -= 1
                    v = tc.effective_energy_cost + best(t + 1, tuple(caps_l))
                    caps_l[idx] += 1
                    if v < out:
                        out = v
        return out

    v = best(0, start)
    best.cache_clear()
    return None if v == math.inf else v


FLOW_COST_SCALE = 10**9  # network simplex needs integer weights


def networkx_flow_min_cost(
    instance: ts.Instance, lengths: tuple[int, ...]
) -> float | None:
    """Minimum total energy over fixed windows by networkx's network simplex.

    Built from the instance, one node per (window, cluster) with a
    capacity-1 arc from every task that fits it, so it shares nothing with
    the solver's network. Costs are rounded to whole 1e-9 units, which the
    simplex gets as integers: it is not guaranteed to terminate on float
    weights. None when infeasible.
    """
    graph = networkx.DiGraph()
    graph.add_node("sink", demand=len(instance.tasks))
    for j in range(len(lengths)):
        for c in instance.platform.clusters:
            graph.add_edge(("wc", j, c.id), "sink", capacity=c.core_count, weight=0)
    for t in instance.tasks:
        graph.add_node(("task", t.id), demand=-1)
        for j, length in enumerate(lengths):
            for tc in t.per_cluster:
                if tc.exec_time_ms <= length:
                    graph.add_edge(
                        ("task", t.id), ("wc", j, tc.cluster_id), capacity=1,
                        weight=round(tc.effective_energy_cost * FLOW_COST_SCALE),
                    )
    try:
        return networkx.network_simplex(graph)[0] / FLOW_COST_SCALE
    except networkx.NetworkXUnfeasible:
        return None


def random_fixed_lengths(instance: ts.Instance, rng: random.Random) -> list[int]:
    """Random nonnegative window lengths within the frame budget."""
    q = instance.max_windows
    lengths = []
    remaining = instance.major_frame_ms
    for j in range(q):
        l = rng.randint(0, max(0, remaining // max(1, q - j)))
        lengths.append(l)
        remaining -= l
    return lengths
