"""Machine-speed probe that rescales measured times to a nominal machine speed.

The benchmark shares a host with other work. On a 2-core x86_64 machine,
a fixed pure-Python loop switched between two speeds about 2x apart from
one second to the next, and its share of slow time changed from minute to
minute, so that separate runs of the same code moved their time metrics
by more than the regressions the benchmark has to catch. The probe times
a fixed reference kernel, which is benchmark code and never changes with
the package, right next to the timed jobs. A job's time is then
multiplied by ``NOMINAL_S / probe``: the time it would have taken at the
speed at which the kernel takes ``NOMINAL_S``. A faster or slower package
moves the scaled time as much as the raw one; a faster or slower machine
moves both the job and the kernel, and mostly cancels.

The kernel resembles the package's own hot code: a recursive depth-first
search with a bound in closures, dict and list work, sorting, and small
numpy array operations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time on a 2-core x86_64 machine. It only fixes
# the unit in which scaled times read; changing it breaks comparison with
# earlier runs.
NOMINAL_S = 0.003
REPEATS = 3  # kernel runs per probe; the probe is their median
MIN_GAP_S = 0.05  # job time between two probes, at least

_WEIGHTS = [3 + (7 * i) % 11 for i in range(24)]
_VALUES = [5 + (13 * i) % 17 for i in range(24)]
_CAPACITIES = range(30, 230, 8)
_MATRIX = np.arange(64, dtype=float).reshape(8, 8) / 64.0


def kernel() -> float:
    """A fixed amount of interpreter and numpy work; returns a checksum."""
    order = sorted(range(len(_WEIGHTS)), key=lambda i: -_VALUES[i] / _WEIGHTS[i])
    weights = [_WEIGHTS[i] for i in order]
    values = [_VALUES[i] for i in order]
    best = [0]
    visits: dict[int, int] = {}

    def bound(depth, room, value):
        for w, v in zip(weights[depth:], values[depth:]):
            if w > room:
                return value + v * room / w
            room -= w
            value += v
        return value

    def rec(depth, room, value):
        visits[depth] = visits.get(depth, 0) + 1
        if value > best[0]:
            best[0] = value
        if depth == len(weights) or bound(depth, room, value) <= best[0]:
            return
        if weights[depth] <= room:
            rec(depth + 1, room - weights[depth], value + values[depth])
        rec(depth + 1, room, value)

    for capacity in _CAPACITIES:
        best[0] = 0
        rec(0, capacity, 0)
    vector = np.ones(8)
    for _ in range(40):
        vector = _MATRIX @ vector
        vector /= vector.sum()
    return best[0] + float(vector[0]) + sum(visits.values())


def probe() -> float:
    """Seconds of one kernel run at this moment: the median of a few runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tracker:
    """Probes the machine between jobs and scales each job by the speed around it.

    Call ``add`` with records as their jobs return, outside the timed
    region. Once at least ``MIN_GAP_S`` of job time has passed since
    the last probe, the tracker probes again and sets ``scale`` on the
    pending records to ``NOMINAL_S`` over the mean of the probes before and
    after them. Call ``flush`` after the last unit.
    """

    def __init__(self):
        self.probes = [probe()]
        self.pending: list = []
        self.since = 0.0

    @property
    def slowdown(self) -> float:
        """The last probe against ``NOMINAL_S``: above 1 on a slow machine."""
        return self.probes[-1] / NOMINAL_S

    def add(self, records) -> None:
        self.pending += records
        self.since += sum(r.seconds for r in records)
        if self.since >= MIN_GAP_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        self.probes.append(probe())
        scale = NOMINAL_S / ((self.probes[-2] + self.probes[-1]) / 2)
        for record in self.pending:
            record.scale = scale
        self.pending = []
        self.since = 0.0
