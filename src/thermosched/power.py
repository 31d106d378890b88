"""Average-power predictors for windowed multi-core schedules.

Three predictors are implemented:

* sum-max (SM): window power is the sum of per-task activity terms weighted
  by core occupancy, plus the largest offset coefficient in the window, plus
  idle power.
* linear regression (LR): a window is cut into processing-idling intervals
  (no task starts or ends strictly inside an interval); interval power is a
  per-cluster dot product of regression coefficients with the summed task
  feature vectors. Every task starts at its window start and is active in
  intervals summing to its execution time, so schedule-level LR reduces to
  a per-task closed form; the interval view remains for fitting.
* LR upper bound (LR-UB): LR under the assumption that every task occupies
  its window completely, which over-approximates LR whenever the per-task
  coefficient combination is nonnegative.

Schedule-level power averages the above-idle contributions over the major
frame; frame time not covered by any window contributes idle power only.

One validity rule holds for every model: schedule_power evaluates only an
assignment that check_feasible accepts and otherwise raises ValueError
naming the violations. The single-window predictors check their window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .model import (
    IDLE,
    Assignment,
    Instance,
    ParseError,
    Platform,
    TaskCharacteristics,
    Unusable,
    _load_json,
    _read_csv,
    _write_csv,
    _write_json,
    check_feasible,
    derive_core_schedule,
)

#: Feature vector of a task on its cluster: (activity_coef, offset_coef).
FEATURE_DIM = 2


class PowerModel(str, Enum):
    SM = "sm"
    LR = "lr"
    LR_UB = "lr-ub"


@dataclass(frozen=True)
class RegressionCoefficients:
    """Per-cluster regression coefficients, one beta vector per cluster.

    betas[k-1] pairs with the feature vector (activity_coef, offset_coef)
    of tasks on cluster k. All cores of a cluster share the same vector.
    """

    betas: tuple[tuple[float, ...], ...]
    r_squared: float | None = None

    def __post_init__(self):
        for k, beta in enumerate(self.betas, start=1):
            if len(beta) != FEATURE_DIM:
                raise Unusable(
                    f"cluster {k}: expected beta of dimension {FEATURE_DIM}, got {len(beta)}"
                )
            if not all(math.isfinite(b) for b in beta):
                raise Unusable(f"cluster {k}: beta must be finite, got {beta}")

    def beta(self, cluster_id: int) -> tuple[float, ...]:
        return self.betas[cluster_id - 1]

    def check_covers(self, platform: Platform) -> None:
        """Raise ValueError unless there is one beta per platform cluster."""
        if len(self.betas) != len(platform.clusters):
            raise ValueError(
                f"coefficients give {len(self.betas)} beta vector(s) for a platform "
                f"of {len(platform.clusters)} cluster(s)"
            )


@dataclass(frozen=True)
class ProcessingInterval:
    """A sub-window during which every core runs one task fully or idles fully.

    active[ci][r] is the occupying task id or IDLE, where ci indexes the
    platform's cluster list and r the core slot.
    """

    length_ms: int
    active: tuple[tuple[int | None, ...], ...]


@dataclass(frozen=True)
class PowerEstimate:
    """A power prediction in watts with its idle/activity/offset decomposition."""

    watts: float
    idle_watts: float
    activity_watts: float
    offset_watts: float

    @classmethod
    def compose(cls, idle: float, activity: float, offset: float) -> "PowerEstimate":
        return cls(
            watts=idle + activity + offset,
            idle_watts=idle,
            activity_watts=activity,
            offset_watts=offset,
        )


def _window_accumulate(
    windows: Sequence[int],
    tasks: Sequence[TaskCharacteristics],
    lengths: Sequence[int],
    h: int,
    coefficients: RegressionCoefficients | None = None,
) -> tuple[float, float]:
    """Frame-weighted (activity, offset) above idle in one pass over the tasks.

    windows[i] is the 1-based window of the task whose characteristics on
    its cluster are tasks[i], and lengths[j - 1] is the length of window j.
    SM without coefficients, LR-UB with them. Nothing is checked: lengths
    must be positive and valid. Each window sums its tasks' terms in the
    order given, and the windows are then summed in order of first
    appearance; schedule_power and the genetic search both pass the tasks
    in instance order, which is task-id order, so their SM values agree bit
    for bit.
    """
    q = len(lengths)
    act = [0.0] * (q + 1)
    if coefficients is None:
        off = [-math.inf] * (q + 1)
        for j, tc in zip(windows, tasks):
            act[j] += tc.activity_coef * (tc.exec_time_ms / lengths[j - 1])
            if tc.offset_coef > off[j]:
                off[j] = tc.offset_coef
    else:
        off = [0.0] * (q + 1)
        for j, tc in zip(windows, tasks):
            beta = coefficients.beta(tc.cluster_id)
            act[j] += tc.activity_coef * beta[0]
            off[j] += tc.offset_coef * beta[1]
    activity = 0.0
    offset = 0.0
    for j in dict.fromkeys(windows):
        w = lengths[j - 1] / h
        activity += w * act[j]
        offset += w * off[j]
    return activity, offset


def _window_power(
    platform: Platform,
    window_tasks: Sequence[TaskCharacteristics],
    window_length_ms: int,
    coefficients: RegressionCoefficients | None = None,
) -> PowerEstimate:
    """One window's SM (no coefficients) or LR-UB power; the one window check.

    A non-empty window needs a positive length no shorter than its longest task.
    """
    if not window_tasks:
        return PowerEstimate.compose(platform.idle_power_watts, 0.0, 0.0)
    if window_length_ms < 1:
        raise ValueError("a non-empty window must have positive length")
    longest = max(tc.exec_time_ms for tc in window_tasks)
    if longest > window_length_ms:
        raise ValueError(
            f"window of {window_length_ms} ms is shorter than a contained "
            f"task of {longest} ms"
        )
    activity, offset = _window_accumulate(
        [1] * len(window_tasks), window_tasks, (window_length_ms,), window_length_ms,
        coefficients,
    )
    return PowerEstimate.compose(platform.idle_power_watts, activity, offset)


def sm_window_power(
    platform: Platform,
    window_tasks: Sequence[TaskCharacteristics],
    window_length_ms: int,
) -> PowerEstimate:
    """Sum-max prediction of the average power of one window.

    The window must be at least as long as each contained task. An empty
    window predicts exactly the idle power (the max term is defined as 0).
    """
    return _window_power(platform, window_tasks, window_length_ms)


def _lr_energy(tc: TaskCharacteristics, beta: Sequence[float]) -> tuple[float, float]:
    """LR (activity, offset) energy of one task on its cluster, in W*ms per frame.

    A task contributes its beta-weighted features for exactly its execution
    time, so schedule-level LR power is idle power plus the sum of these
    terms over all tasks divided by the major frame.
    """
    return (
        beta[0] * tc.activity_coef * tc.exec_time_ms,
        beta[1] * tc.offset_coef * tc.exec_time_ms,
    )


def lr_ub_window_power(
    platform: Platform,
    coefficients: RegressionCoefficients,
    window_tasks: Sequence[TaskCharacteristics],
    window_length_ms: int,
) -> PowerEstimate:
    """LR prediction assuming every task runs for the whole window.

    Given the window membership the value is independent of execution times;
    the length argument is only validated against the precondition.
    """
    return _window_power(platform, window_tasks, window_length_ms, coefficients)


def decompose_intervals(
    instance: Instance, assignment: Assignment, window: int
) -> list[ProcessingInterval]:
    """Cut one window into processing-idling intervals.

    All tasks of the window start at the window start, so the interval
    boundaries are the sorted distinct task end times plus the window end.
    The interval lengths sum to the window length; an empty window yields
    no intervals.
    """
    schedule = derive_core_schedule(instance, assignment)
    length = assignment.window_lengths_ms[window - 1]
    if length == 0:
        return []
    slots = schedule.window(window)

    end_time: dict[int, int] = {}
    for t, p in zip(instance.tasks, assignment.placements):
        if p.window == window:
            end_time[p.task_id] = t.per_cluster[p.cluster - 1].exec_time_ms

    boundaries = sorted(set(end_time.values()) | {length})
    intervals = []
    start = 0
    for end in boundaries:
        active = tuple(
            tuple(
                tid if tid is not IDLE and end_time[tid] >= end else IDLE
                for tid in cluster_slots
            )
            for cluster_slots in slots
        )
        intervals.append(ProcessingInterval(length_ms=end - start, active=active))
        start = end
    return intervals


def lr_interval_power(
    platform: Platform,
    coefficients: RegressionCoefficients,
    interval: ProcessingInterval,
    instance: Instance,
) -> PowerEstimate:
    """LR prediction of the average power of one processing-idling interval."""
    activity = 0.0
    offset = 0.0
    for ci, cluster in enumerate(platform.clusters):
        beta = coefficients.beta(cluster.id)
        for tid in interval.active[ci]:
            if tid is IDLE:
                continue
            tc = instance.task_by_id(tid).on(cluster.id)
            activity += beta[0] * tc.activity_coef
            offset += beta[1] * tc.offset_coef
    return PowerEstimate.compose(platform.idle_power_watts, activity, offset)


def schedule_power(
    instance: Instance,
    assignment: Assignment,
    model: Union[PowerModel, str],
    coefficients: RegressionCoefficients | None = None,
) -> PowerEstimate:
    """Average power of a whole schedule under the selected model.

    Raises ValueError naming the violations when check_feasible rejects the
    assignment, whatever the model. Window (SM, LR-UB) contributions above
    idle are weighted by their lengths and divided by the major frame
    length, so frame time not covered by any window contributes idle power
    only. LR uses its per-task closed form, which equals the length-weighted
    sum over processing-idling intervals (decompose_intervals,
    lr_interval_power).
    """
    model = PowerModel(model)
    if model is not PowerModel.SM:
        if coefficients is None:
            raise ValueError(f"model {model.value} requires regression coefficients")
        coefficients.check_covers(instance.platform)
    verdict = check_feasible(instance, assignment)
    if not verdict:
        raise ValueError(
            f"cannot evaluate {model.value.upper()} power of an infeasible assignment: "
            + "; ".join(verdict.violations)
        )

    h = instance.major_frame_ms
    idle = instance.platform.idle_power_watts
    if model is PowerModel.LR:
        activity = 0.0
        offset = 0.0
        for t, p in zip(instance.tasks, assignment.placements):
            tc = t.per_cluster[p.cluster - 1]
            a, b = _lr_energy(tc, coefficients.beta(p.cluster))
            activity += a
            offset += b
        return PowerEstimate.compose(idle, activity / h, offset / h)

    placements = assignment.placements
    activity, offset = _window_accumulate(
        [p.window for p in placements],
        [t.per_cluster[p.cluster - 1] for t, p in zip(instance.tasks, placements)],
        assignment.window_lengths_ms,
        h,
        coefficients if model is PowerModel.LR_UB else None,
    )
    return PowerEstimate.compose(idle, activity, offset)


def power_to_temperature(platform: Platform, power_watts: float) -> float:
    """Steady-state temperature for an average power draw.

    T = P / B + (G / B) * T_ambient. Raises ValueError when the platform
    carries no thermal parameters.
    """
    if not platform.has_thermal_parameters:
        raise ValueError(
            "platform has no thermal parameters (thermal_b, thermal_g, ambient_celsius)"
        )
    b = platform.thermal_b
    g = platform.thermal_g
    return power_watts / b + (g / b) * platform.ambient_celsius


# ---------------------------------------------------------------------------
# Coefficient identification


@dataclass(frozen=True)
class FitSample:
    """One measured interval: summed per-cluster features and measured power."""

    interval_length_ms: int
    measured_power_watts: float
    features: tuple[tuple[float, ...], ...]


def fit_regression_coefficients(
    samples: Sequence[FitSample], platform: Platform
) -> RegressionCoefficients:
    """Ordinary least squares for the per-cluster beta vectors.

    The idle power is the known intercept, not a fitted parameter: the
    regression runs on (measured - idle power) against the per-cluster
    summed feature vectors. Returns the coefficients together with the
    coefficient of determination. Raises ValueError when the design matrix
    is rank deficient or there are too few samples.
    """
    m = len(platform.clusters)
    n_params = m * FEATURE_DIM
    if len(samples) < 2 * n_params:
        raise ValueError(
            f"need at least {2 * n_params} samples to fit {n_params} "
            f"coefficients, got {len(samples)}"
        )
    rows = []
    for s in samples:
        if len(s.features) != m or any(len(f) != FEATURE_DIM for f in s.features):
            raise ValueError(
                f"each sample must carry {m} feature vectors of dimension {FEATURE_DIM}"
            )
        rows.append([x for f in s.features for x in f])
    design = np.asarray(rows, dtype=float)
    y = np.array(
        [s.measured_power_watts - platform.idle_power_watts for s in samples],
        dtype=float,
    )
    rank = np.linalg.matrix_rank(design)
    if rank < n_params:
        raise ValueError(
            f"design matrix is rank deficient (rank {rank} of {n_params}); "
            "the samples do not excite every cluster feature"
        )
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ beta
    ss_res = float(residual @ residual)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    betas = tuple(
        tuple(float(b) for b in beta[ci * FEATURE_DIM : (ci + 1) * FEATURE_DIM])
        for ci in range(m)
    )
    return RegressionCoefficients(betas=betas, r_squared=r_squared)


# ---------------------------------------------------------------------------
# Document I/O


def coefficients_from_dict(doc: dict) -> RegressionCoefficients:
    entries = doc.get("clusters")
    if entries is None:
        raise ParseError("coefficients document: missing field 'clusters'")
    if not isinstance(entries, list):
        raise ParseError("coefficients document: 'clusters' must be a list")
    by_id = {}
    for pos, cd in enumerate(entries):
        where = f"clusters[{pos}]"
        if not isinstance(cd, dict) or "cluster_id" not in cd or "beta" not in cd:
            raise ParseError(f"{where}: needs 'cluster_id' and 'beta'")
        by_id[int(cd["cluster_id"])] = tuple(float(x) for x in cd["beta"])
    ids = sorted(by_id)
    if ids != list(range(1, len(entries) + 1)):  # a duplicate id leaves a gap
        raise ParseError(
            f"coefficients document: cluster ids must be unique and contiguous from 1, "
            f"got {ids} for {len(entries)} entries"
        )
    betas = tuple(by_id[k] for k in ids)
    r2 = doc.get("r_squared")
    return RegressionCoefficients(
        betas=betas, r_squared=float(r2) if r2 is not None else None
    )


def coefficients_to_dict(coefficients: RegressionCoefficients) -> dict:
    doc: dict = {
        "clusters": [
            {"cluster_id": ci + 1, "beta": list(beta)}
            for ci, beta in enumerate(coefficients.betas)
        ]
    }
    if coefficients.r_squared is not None:
        doc["r_squared"] = coefficients.r_squared
    return doc


def load_coefficients(path_or_file: Union[str, IO[str]]) -> RegressionCoefficients:
    return _load_json(path_or_file, "coefficients", coefficients_from_dict)


def save_coefficients(
    coefficients: RegressionCoefficients, path_or_file: Union[str, IO[str]]
) -> None:
    _write_json(coefficients_to_dict(coefficients), path_or_file)


def _fit_sample_header(n_clusters: int) -> list[str]:
    cols = ["interval_length_ms", "measured_power_watts"]
    for k in range(1, n_clusters + 1):
        cols += [f"sum_a_k{k}", f"sum_b_k{k}"]
    return cols


def read_fit_samples_csv(
    path_or_file: Union[str, IO[str]], n_clusters: int
) -> list[FitSample]:
    """Read fitting samples: per-cluster summed features plus measured power."""

    def parse(row: list[str]) -> FitSample:
        return FitSample(
            interval_length_ms=int(row[0]),
            measured_power_watts=float(row[1]),
            features=tuple(
                (float(row[2 + 2 * k]), float(row[3 + 2 * k])) for k in range(n_clusters)
            ),
        )

    return _read_csv(path_or_file, _fit_sample_header(n_clusters), "fitting-sample", parse)


def write_fit_samples_csv(
    samples: Iterable[FitSample], path_or_file: Union[str, IO[str]]
) -> None:
    samples = list(samples)
    if not samples:
        raise ValueError("cannot write an empty sample set")
    _write_csv(
        path_or_file,
        _fit_sample_header(len(samples[0].features)),
        (
            [s.interval_length_ms, repr(s.measured_power_watts)]
            + [repr(x) for feat in s.features for x in (feat[0], feat[1])]
            for s in samples
        ),
    )
