"""Random instance generation and the scalability experiment harness.

Instances are drawn from a kernel pool: every task picks a kernel uniformly
and a big-cluster execution time uniformly from a configured range; times on
the other clusters scale with the kernel's relative speedup, derived from
iterations-per-second measurements and cluster frequencies. The major frame
length is n * mean execution time / tightness, so one knob controls how
tight the generated schedules are.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, replace
from typing import IO, Sequence, Union

from .heuristics import GaConfig
from .model import (
    Instance,
    ParseError,
    Platform,
    Task,
    TaskCharacteristics,
    _read_csv,
    _write_csv,
)
from .power import RegressionCoefficients
from .runners import check_methods, run_method

KERNEL_POOL_HEADER = [
    "kernel",
    "cluster_id",
    "activity_coef",
    "offset_coef",
    "ips",
    "frequency_mhz",
]


@dataclass(frozen=True)
class KernelClusterData:
    """A kernel's data on one cluster: ips and frequency_mhz positive, every number finite."""

    cluster_id: int
    activity_coef: float
    offset_coef: float
    ips: float
    frequency_mhz: int

    def __post_init__(self):
        if not 0 < self.ips < math.inf:  # refuses NaN too, which fails every comparison
            raise ValueError(f"ips must be positive and finite, got {self.ips}")
        if self.frequency_mhz < 1:
            raise ValueError(f"frequency_mhz must be positive, got {self.frequency_mhz}")
        if not (math.isfinite(self.activity_coef) and math.isfinite(self.offset_coef)):
            raise ValueError("activity_coef and offset_coef must be finite")


@dataclass(frozen=True)
class KernelSpec:
    """One benchmarking kernel with per-cluster coefficients and throughput."""

    name: str
    per_cluster: tuple[KernelClusterData, ...]

    def on(self, cluster_id: int) -> KernelClusterData:
        for kc in self.per_cluster:
            if kc.cluster_id == cluster_id:
                return kc
        raise KeyError(f"kernel {self.name} has no data for cluster {cluster_id}")

    def time_scale(self, big_cluster_id: int, cluster_id: int) -> float:
        """Execution-time factor of cluster_id relative to the big cluster.

        The relative speedup of the big cluster over cluster k is
        (IPS_big * f_big) / (IPS_k * f_k); a task running e ms on the big
        cluster runs e * speedup ms on cluster k. Equals 1 for the big
        cluster itself.
        """
        big = self.on(big_cluster_id)
        other = self.on(cluster_id)
        return (big.ips * big.frequency_mhz) / (other.ips * other.frequency_mhz)


def load_kernel_pool(path_or_file: Union[str, IO[str]]) -> tuple[KernelSpec, ...]:
    """Load a kernel pool CSV; every kernel must cover every cluster, once."""
    rows: dict[str, dict[int, KernelClusterData]] = {}

    def parse(row: list[str]) -> None:
        name, cluster_id, activity, offset, ips, frequency = (c.strip() for c in row)
        data = KernelClusterData(
            cluster_id=int(cluster_id),
            activity_coef=float(activity),
            offset_coef=float(offset),
            ips=float(ips),
            frequency_mhz=int(frequency),
        )
        per_cluster = rows.setdefault(name, {})
        if data.cluster_id in per_cluster:
            raise ValueError(f"kernel {name} has a second row for cluster {data.cluster_id}")
        per_cluster[data.cluster_id] = data

    _read_csv(path_or_file, KERNEL_POOL_HEADER, "kernel pool", parse)
    if not rows:
        raise ParseError("kernel pool CSV holds no kernels")
    all_clusters = sorted({cid for data in rows.values() for cid in data})
    for name in rows:
        missing = [cid for cid in all_clusters if cid not in rows[name]]
        if missing:
            raise ParseError(
                f"kernel {name} is missing rows for cluster(s) "
                + ", ".join(str(c) for c in missing)
            )
    return tuple(
        KernelSpec(
            name=name,
            per_cluster=tuple(rows[name][cid] for cid in all_clusters),
        )
        for name in rows
    )


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the random instance generator.

    tightness_kappa scales the major frame: larger values pack the same
    work into a shorter frame. big_cluster_id overrides the default choice
    of the highest-frequency cluster as the big one. Building a config
    checks it: a non-empty pool, 1 <= big_exec_min_ms <= big_exec_max_ms,
    a positive finite kappa and at least one task; a breach raises
    ValueError. resolve_big_cluster checks it against a platform.
    """

    kernel_pool: tuple[KernelSpec, ...]
    n_tasks: int = 20
    big_exec_min_ms: int = 40
    big_exec_max_ms: int = 160
    tightness_kappa: float = 3.5
    rng_seed: int = 0
    big_cluster_id: int | None = None

    def __post_init__(self):
        if not self.kernel_pool:
            raise ValueError("kernel pool must not be empty")
        if self.big_exec_min_ms > self.big_exec_max_ms:
            raise ValueError("big_exec_min_ms must not exceed big_exec_max_ms")
        if self.big_exec_min_ms < 1:
            raise ValueError("big_exec_min_ms must be positive")
        if not 0 < self.tightness_kappa < math.inf:
            raise ValueError("tightness_kappa must be positive and finite")
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be at least 1")


def pick_big_cluster(platform: Platform) -> int:
    """The designated big cluster: highest frequency, ties on highest id."""
    return max(platform.clusters, key=lambda c: (c.frequency_mhz, c.id)).id


def resolve_big_cluster(config: GeneratorConfig, platform: Platform) -> int:
    """The big cluster config draws on platform, once its kernel pool covers the platform.

    Raises ValueError when the pool's clusters are not the platform's or
    config.big_cluster_id is not a platform cluster.
    """
    platform_ids = sorted(c.id for c in platform.clusters)
    pool_ids = sorted(kc.cluster_id for kc in config.kernel_pool[0].per_cluster)
    if platform_ids != pool_ids:
        raise ValueError(
            f"kernel pool covers clusters {pool_ids} but the platform has "
            f"{platform_ids}"
        )
    big = config.big_cluster_id if config.big_cluster_id is not None else pick_big_cluster(platform)
    if big not in platform_ids:
        raise ValueError(f"big cluster {big} is not a platform cluster")
    return big


def generate_instance(config: GeneratorConfig, platform: Platform) -> Instance:
    """Draw a random instance; identical seeds yield identical instances.

    Per task: a kernel drawn uniformly from the pool, a big-cluster
    execution time drawn uniformly from [big_exec_min_ms, big_exec_max_ms],
    and times on other clusters scaled by the kernel speedup (rounded to
    the nearest ms, at least 1). The major frame is round(n * mean exec
    time across all tasks and clusters / kappa); the window budget is n.
    """
    big = resolve_big_cluster(config, platform)
    rng = random.Random(config.rng_seed)
    tasks = []
    all_times: list[int] = []
    for i in range(1, config.n_tasks + 1):
        kernel = config.kernel_pool[rng.randrange(len(config.kernel_pool))]
        e_big = rng.randint(config.big_exec_min_ms, config.big_exec_max_ms)
        entries = []
        for c in platform.clusters:
            kc = kernel.on(c.id)
            if c.id == big:
                e = e_big
            else:
                e = max(1, round(e_big * kernel.time_scale(big, c.id)))
            entries.append(
                TaskCharacteristics(
                    cluster_id=c.id,
                    exec_time_ms=e,
                    activity_coef=kc.activity_coef,
                    offset_coef=kc.offset_coef,
                )
            )
            all_times.append(e)
        tasks.append(Task(id=i, name=kernel.name, per_cluster=tuple(entries)))

    mean_exec = statistics.fmean(all_times)
    h = max(1, round(config.n_tasks * mean_exec / config.tightness_kappa))
    return Instance(
        platform=platform,
        tasks=tuple(tasks),
        major_frame_ms=h,
        max_windows=config.n_tasks,
    )


# ---------------------------------------------------------------------------
# Scalability harness


@dataclass(frozen=True)
class SweepCell:
    n: int
    method: str
    rep: int
    status: str
    elapsed_ms: float
    objective: float | None
    bound: float | None


def sweep_seed(base_seed: int, n: int, rep: int) -> int:
    return base_seed * 1_000_003 + n * 1009 + rep


def scalability_sweep(
    sizes: Sequence[int],
    repetitions: int,
    methods: Sequence[str],
    time_limit_ms: float,
    platform: Platform,
    kernel_pool: tuple[KernelSpec, ...],
    coefficients: RegressionCoefficients | None = None,
    base_seed: int = 0,
    tightness_kappa: float = 3.5,
    max_generations: int | None = None,
) -> list[SweepCell]:
    """Run every method on seeded random instances of the given sizes.

    Timeouts are recorded in the status column, never raised. Cells run one
    at a time in this process, in (n, rep, method) order. A cell depends
    only on sweep_seed(base_seed, n, rep), so sweeps over disjoint sizes give
    the same rows as one sweep over all of them. The methods, their inputs
    and base_seed (non-negative) are checked, and all instances generated,
    before the first cell runs, so bad input is refused before any work.
    max_generations (None: no cap; otherwise at least 1) bounds the
    generations of each genetic search, which otherwise runs until
    time_limit_ms.
    """
    check_methods(methods, coefficients)
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")
    ga_config = GaConfig(max_generations=max_generations)
    runs = []
    for n in sizes:
        for rep in range(repetitions):
            seed = sweep_seed(base_seed, n, rep)
            config = GeneratorConfig(
                kernel_pool=kernel_pool,
                n_tasks=n,
                rng_seed=seed,
                tightness_kappa=tightness_kappa,
            )
            runs.append((n, rep, seed, generate_instance(config, platform)))
    cells = []
    for n, rep, seed, instance in runs:
        for method in methods:
            o = run_method(
                method, instance, time_limit_ms=time_limit_ms, coefficients=coefficients,
                ga_config=replace(ga_config, rng_seed=seed),
            )
            cells.append(SweepCell(n, method, rep, o.status, o.elapsed_ms, o.objective, o.bound))
    return cells


def write_sweep_csv(cells: Sequence[SweepCell], path_or_file: Union[str, IO[str]]) -> None:
    _write_csv(
        path_or_file,
        ["n", "method", "rep", "status", "elapsed_ms", "objective", "bound"],
        ([c.n, c.method, c.rep, c.status, c.elapsed_ms, c.objective, c.bound] for c in cells),
    )
