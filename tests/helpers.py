"""Shared fixtures-in-code for the test suite: reference instances, random
instance factories and independent oracles (kept free of solver internals)."""

from __future__ import annotations

import math
import random
from functools import lru_cache

import thermosched as ts
from thermosched.generator import GeneratorConfig, generate_instance
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


def reference_decode(genome, instance: ts.Instance) -> list[ts.DecodedGene]:
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
        out.append(ts.DecodedGene(cluster=ci + 1, window=window, preference=pref))
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


def best_sm_completion(
    instance: ts.Instance, partial: tuple[tuple[int, int, int], ...]
) -> float | None:
    """Exhaustive minimum SM objective over completions of a placed prefix.

    Windows are NOT canonicalized here: the prefix already pins window
    identities, and this checks solver node bounds against all genuine
    completions. Returns None when no feasible completion exists.
    """
    q = instance.max_windows
    h = instance.major_frame_ms
    clusters = instance.platform.clusters
    placed_ids = {p[0] for p in partial}
    rest = [t for t in instance.tasks if t.id not in placed_ids]

    counts = {(j, c.id): 0 for j in range(1, q + 1) for c in clusters}
    lengths = [0] * q
    total_ae = 0.0
    max_b = [-math.inf] * q
    for tid, j, cid in partial:
        tc = instance.task_by_id(tid).on(cid)
        counts[(j, cid)] += 1
        lengths[j - 1] = max(lengths[j - 1], tc.exec_time_ms)
        total_ae += tc.activity_coef * tc.exec_time_ms
        max_b[j - 1] = max(max_b[j - 1], tc.offset_coef)

    best = [None]

    def value(ae):
        off = sum(
            lengths[j] * max_b[j] for j in range(q) if max_b[j] > -math.inf
        )
        return instance.platform.idle_power_watts + (ae + off) / h

    def rec(i, ae):
        if sum(lengths) > h:
            return
        if i == len(rest):
            v = value(ae)
            if best[0] is None or v < best[0]:
                best[0] = v
            return
        t = rest[i]
        for c in clusters:
            tc = t.on(c.id)
            for j in range(1, q + 1):
                cap = c.core_count
                if counts[(j, c.id)] >= cap:
                    continue
                old_len, old_b = lengths[j - 1], max_b[j - 1]
                lengths[j - 1] = max(old_len, tc.exec_time_ms)
                max_b[j - 1] = max(old_b, tc.offset_coef)
                counts[(j, c.id)] += 1
                rec(i + 1, ae + tc.activity_coef * tc.exec_time_ms)
                counts[(j, c.id)] -= 1
                lengths[j - 1], max_b[j - 1] = old_len, old_b
    rec(0, total_ae)
    return best[0]


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
