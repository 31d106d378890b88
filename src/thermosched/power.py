"""Average-power predictors for windowed multi-core schedules.

Schedule-level power is idle power plus the above-idle energy divided by
the major frame h, so frame time not covered by any window contributes
idle power only. Every task t starts at its window's start, so each of the
three predictors is a closed form over the tasks, with activity a_t,
offset b_t and execution time e_t on the task's cluster k and l_w the
length of its window w:

* sum-max (SM): window power is the sum of per-task activity terms weighted
  by core occupancy, plus the largest offset coefficient in the window, plus
  idle power: idle + (sum_t a_t e_t + sum_w l_w max_{t in w} b_t) / h.
* linear regression (LR): a window is cut into processing-idling intervals
  (no task starts or ends strictly inside an interval); interval power is a
  per-cluster dot product of regression coefficients with the summed task
  feature vectors: idle + sum_t (beta_k0 a_t + beta_k1 b_t) e_t / h. The
  interval view (decompose_intervals, lr_interval_power) is the definition
  that this closed form is checked against.
* LR upper bound (LR-UB): LR under the assumption that every task occupies
  its window completely, idle + sum_t (beta_k0 a_t + beta_k1 b_t) l_w / h,
  which over-approximates LR whenever the per-task coefficient combination
  is nonnegative.

One validity rule holds for every model: schedule_power evaluates only an
assignment that check_feasible accepts and otherwise raises ValueError
naming the violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import IO, Iterable, Sequence, Union

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

    idle_watts: float
    activity_watts: float
    offset_watts: float

    @property
    def watts(self) -> float:
        return self.idle_watts + self.activity_watts + self.offset_watts


def _lr_energy(
    tc: TaskCharacteristics, beta: Sequence[float], duration_ms: int
) -> tuple[float, float]:
    """(activity, offset) energy in W*ms of one task on its cluster over duration_ms.

    LR charges a task its beta-weighted features for its execution time,
    LR-UB for the length of its window.
    """
    return (
        beta[0] * tc.activity_coef * duration_ms,
        beta[1] * tc.offset_coef * duration_ms,
    )


def decompose_intervals(
    instance: Instance, assignment: Assignment, window: int
) -> list[ProcessingInterval]:
    """Cut one window into processing-idling intervals.

    All tasks of the window start at the window start, so the interval
    boundaries are the sorted distinct task end times plus the window end.
    The interval lengths sum to the window length; an empty window yields
    no intervals. Raises ValueError for a window outside 1..max_windows.
    """
    if not 1 <= window <= instance.max_windows:
        raise ValueError(f"window {window} is outside 1..{instance.max_windows}")
    slots = derive_core_schedule(instance, assignment)[window - 1]
    length = assignment.window_lengths_ms[window - 1]
    if length == 0:
        return []

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
    """LR power of one processing-idling interval; needs one beta per platform cluster."""
    coefficients.check_covers(platform)
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
    return PowerEstimate(platform.idle_power_watts, activity, offset)


def schedule_power(
    instance: Instance,
    assignment: Assignment,
    model: Union[PowerModel, str],
    coefficients: RegressionCoefficients | None = None,
) -> PowerEstimate:
    """Average power of a whole schedule under the selected model.

    Raises ValueError naming the violations when check_feasible rejects the
    assignment, whatever the model. Each model is then evaluated through its
    closed form, _closed_form.
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
    placements = assignment.placements
    return _closed_form(
        instance,
        [p.window for p in placements],
        [p.cluster for p in placements],
        assignment.window_lengths_ms,
        model,
        coefficients,
    )


def _closed_form(
    instance: Instance,
    windows: Sequence[int],
    clusters: Sequence[int],
    lengths: Sequence[int],
    model: PowerModel,
    coefficients: RegressionCoefficients | None,
) -> PowerEstimate:
    """A model's closed form (see the module docstring) over a feasible schedule.

    windows[i] and clusters[i] are the 1-based window and cluster of
    instance.tasks[i], and lengths[j - 1] the length of every window j that
    holds a task. The caller has checked feasibility and the coefficients.
    One pass over the tasks in task-id order; SM then adds the used windows'
    offset terms in window order. A window without tasks adds nothing,
    whatever its length.
    """
    h = instance.major_frame_ms
    sm, ub = model is PowerModel.SM, model is PowerModel.LR_UB  # looked up once, not per task
    activity = offset = 0.0
    peak: dict[int, float] = {}  # SM: largest offset per used window
    for t, w, k in zip(instance.tasks, windows, clusters):
        tc = t.per_cluster[k - 1]
        if sm:
            activity += tc.activity_coef * tc.exec_time_ms
            if tc.offset_coef > peak.get(w, -math.inf):
                peak[w] = tc.offset_coef
        else:
            duration = lengths[w - 1] if ub else tc.exec_time_ms
            a, b = _lr_energy(tc, coefficients.beta(k), duration)
            activity += a
            offset += b
    for j in sorted(peak):
        offset += lengths[j - 1] * peak[j]
    return PowerEstimate(instance.platform.idle_power_watts, activity / h, offset / h)


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
    """Least squares for the per-cluster beta vectors, weighted by interval length.

    The idle power is the known intercept, not a fitted parameter: the
    regression runs on (measured - idle power) against the per-cluster
    summed feature vectors. Each sample weighs as much as its interval is
    long (its row and target are scaled by the square root of its length
    over the mean length), so one interval of length 2l fits like two equal
    intervals of length l, and equal lengths give the ordinary fit bit for
    bit. Returns the coefficients together with the weighted coefficient of
    determination, taken about the weighted mean. Raises ValueError when
    the design matrix is rank deficient, there are too few samples, or a
    length is not positive.
    """
    import numpy as np

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
        if not s.interval_length_ms > 0:
            raise ValueError(f"interval_length_ms must be positive, got {s.interval_length_ms}")
        rows.append([x for f in s.features for x in f])
    lengths = np.array([s.interval_length_ms for s in samples], dtype=float)
    weights = lengths / lengths.mean()  # equal lengths weigh exactly 1: the ordinary fit
    scale = np.sqrt(weights)
    design = np.asarray(rows, dtype=float) * scale[:, None]
    target = np.array(
        [s.measured_power_watts - platform.idle_power_watts for s in samples],
        dtype=float,
    )
    y = target * scale
    rank = np.linalg.matrix_rank(design)
    if rank < n_params:
        raise ValueError(
            f"design matrix is rank deficient (rank {rank} of {n_params}); "
            "the samples do not excite every cluster feature"
        )
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ beta
    ss_res = float(residual @ residual)
    centered = (target - np.average(target, weights=weights)) * scale
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
    """Read fitting samples: intervals of at least 1 ms, finite power and features."""
    header = _fit_sample_header(n_clusters)

    def parse(row: list[str]) -> FitSample:
        length = int(row[0])
        if length < 1:
            raise ValueError(f"interval_length_ms must be >= 1, got {length}")
        numbers = [float(x) for x in row[1:]]
        for column, x in zip(header[1:], numbers):
            if not math.isfinite(x):
                raise ValueError(f"{column} must be finite, got {x}")
        return FitSample(
            interval_length_ms=length,
            measured_power_watts=numbers[0],
            features=tuple(zip(numbers[1::2], numbers[2::2])),
        )

    return _read_csv(path_or_file, header, "fitting-sample", parse)


def write_fit_samples_csv(
    samples: Iterable[FitSample], path_or_file: Union[str, IO[str]]
) -> None:
    samples = list(samples)
    if not samples:
        raise ValueError("cannot write an empty sample set")
    m = len(samples[0].features)
    for pos, s in enumerate(samples):
        if len(s.features) != m:
            raise ValueError(
                f"sample {pos} has {len(s.features)} cluster(s), sample 0 has {m}"
            )
    _write_csv(
        path_or_file,
        _fit_sample_header(m),
        ([s.interval_length_ms, s.measured_power_watts, *chain(*s.features)] for s in samples),
    )
