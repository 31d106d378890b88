"""Domain model for allocating periodic tasks to clusters and isolation windows.

A platform groups identical cores into clusters. All tasks share one major
frame of length h (integer milliseconds); the frame is partitioned into at
most q non-overlapping windows. Every task runs in exactly one window on one
core of one cluster, starts at the window start, and must finish within the
window. Window lengths are always kept tight: the length of a window equals
the longest execution time placed inside it, since any slack solution is
dominated by the tight one.

All types are immutable values; operations are pure functions, so everything
here is safe to share between concurrent solver runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Union


class ParseError(ValueError):
    """Raised when an instance, assignment or CSV document is malformed."""


#: Core-slot marker for a slot with no task.
IDLE = None


@dataclass(frozen=True)
class Cluster:
    """A group of identical cores sharing one architecture and clock frequency."""

    id: int
    core_count: int
    label: str = ""
    frequency_mhz: int = 1


@dataclass(frozen=True)
class Platform:
    """Clusters plus platform-level idle power and optional thermal parameters.

    The thermal parameters (thermal_b, thermal_g, ambient_celsius) convert
    average power to steady-state temperature; they must be given together
    or not at all.
    """

    clusters: tuple[Cluster, ...]
    idle_power_watts: float
    thermal_b: float | None = None
    thermal_g: float | None = None
    ambient_celsius: float | None = None

    @property
    def total_cores(self) -> int:
        return sum(c.core_count for c in self.clusters)

    @property
    def has_thermal_parameters(self) -> bool:
        return (
            self.thermal_b is not None
            and self.thermal_g is not None
            and self.ambient_celsius is not None
        )

    def cluster_by_id(self, cluster_id: int) -> Cluster:
        for c in self.clusters:
            if c.id == cluster_id:
                return c
        raise KeyError(f"no cluster with id {cluster_id}")


@dataclass(frozen=True)
class TaskCharacteristics:
    """Execution time and power coefficients of one task on one cluster.

    activity_coef scales with core occupancy, offset_coef is the static
    contribution of which only the window maximum counts in the sum-max
    model. energy_cost is only consumed by the fixed-window flow solver;
    when absent it defaults to activity_coef * exec_time_ms.
    """

    cluster_id: int
    exec_time_ms: int
    activity_coef: float
    offset_coef: float
    energy_cost: float | None = None

    @property
    def effective_energy_cost(self) -> float:
        if self.energy_cost is not None:
            return self.energy_cost
        return self.activity_coef * self.exec_time_ms


@dataclass(frozen=True)
class Task:
    id: int
    name: str
    per_cluster: tuple[TaskCharacteristics, ...]

    def on(self, cluster_id: int) -> TaskCharacteristics:
        """Characteristics of this task on the given cluster."""
        for tc in self.per_cluster:
            if tc.cluster_id == cluster_id:
                return tc
        raise KeyError(f"task {self.id} has no data for cluster {cluster_id}")


@dataclass(frozen=True)
class Instance:
    """A full problem input: platform, tasks, frame length and window budget."""

    platform: Platform
    tasks: tuple[Task, ...]
    major_frame_ms: int
    max_windows: int

    def __post_init__(self):
        # id lookup cache; not a field, so equality and hashing ignore it
        object.__setattr__(self, "_task_map", {t.id: t for t in self.tasks})

    def task_by_id(self, task_id: int) -> Task:
        try:
            return self._task_map[task_id]
        except KeyError:
            raise KeyError(f"no task with id {task_id}") from None


@dataclass(frozen=True)
class Placement:
    """One task mapped to a window index and a cluster index (both 1-based)."""

    task_id: int
    window: int
    cluster: int


@dataclass(frozen=True)
class Assignment:
    """A complete solution: one placement per task plus derived window lengths.

    window_lengths_ms always has max_windows entries; windows without tasks
    have length 0.
    """

    placements: tuple[Placement, ...]
    window_lengths_ms: tuple[int, ...]

    @classmethod
    def from_placements(
        cls,
        instance: Instance,
        placements: Iterable[Union[Placement, tuple[int, int, int]]],
    ) -> "Assignment":
        """Build an assignment with tight derived window lengths.

        Accepts Placement objects or (task_id, window, cluster) triples.
        """
        normalized = tuple(
            sorted(
                (p if isinstance(p, Placement) else Placement(*p) for p in placements),
                key=lambda p: p.task_id,
            )
        )
        lengths = derive_window_lengths(instance, normalized)
        return cls(placements=normalized, window_lengths_ms=lengths)

    def placement_of(self, task_id: int) -> Placement:
        for p in self.placements:
            if p.task_id == task_id:
                return p
        raise KeyError(f"no placement for task {task_id}")

    @property
    def total_window_length_ms(self) -> int:
        return sum(self.window_lengths_ms)


@dataclass(frozen=True)
class CoreSchedule:
    """Per (window, cluster) core slots holding task ids, IDLE for free slots.

    slots[j-1][ci] is a tuple of length core_count for window j and the
    cluster at position ci in the platform's cluster list.
    """

    slots: tuple[tuple[tuple[int | None, ...], ...], ...]

    def window(self, window_index: int) -> tuple[tuple[int | None, ...], ...]:
        return self.slots[window_index - 1]


@dataclass(frozen=True)
class Feasibility:
    """Feasibility verdict together with the violated constraints."""

    feasible: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.feasible


def structural_violations(instance: Instance) -> list[str]:
    """Violations that make an instance unusable for any computation.

    Solvers refuse instances with structural violations; the extra checks
    of validate_instance merely flag modeling oddities (window budget out
    of the useful range, frame too short for any task) that a solver can
    still prove infeasible.
    """
    v: list[str] = []
    plat = instance.platform

    if not plat.clusters:
        v.append("platform has no clusters")
        return v

    ids = [c.id for c in plat.clusters]
    if ids != list(range(1, len(ids) + 1)):
        v.append(f"cluster ids must be unique and contiguous from 1, got {ids}")
        return v
    for c in plat.clusters:
        if c.core_count < 1:
            v.append(f"cluster {c.id}: core_count must be >= 1, got {c.core_count}")

    if instance.major_frame_ms < 1:
        v.append("major_frame_ms must be a positive integer")
    if instance.max_windows < 1:
        v.append("max_windows must be a positive integer")

    task_ids = [t.id for t in instance.tasks]
    if len(set(task_ids)) != len(task_ids):
        v.append("task ids must be unique")

    cluster_ids = sorted(ids)
    for t in instance.tasks:
        seen = sorted(tc.cluster_id for tc in t.per_cluster)
        if seen != cluster_ids:
            v.append(
                f"task {t.id}: per_cluster must cover every platform cluster "
                f"exactly once, got cluster ids {seen}"
            )
            continue
        for tc in t.per_cluster:
            if tc.exec_time_ms < 1:
                v.append(
                    f"task {t.id}: exec_time_ms on cluster {tc.cluster_id} "
                    f"must be >= 1, got {tc.exec_time_ms}"
                )
            if tc.energy_cost is not None and tc.energy_cost < 0:
                v.append(
                    f"task {t.id}: energy_cost on cluster {tc.cluster_id} "
                    "must be nonnegative"
                )
    return v


def validate_instance(instance: Instance) -> list[str]:
    """Check all type invariants and return human-readable violations.

    An empty list means the instance is well formed. Violations are data,
    not failures; nothing is raised here.
    """
    v = structural_violations(instance)
    plat = instance.platform
    if not plat.clusters:
        return v

    for c in plat.clusters:
        if c.frequency_mhz < 1:
            v.append(f"cluster {c.id}: frequency_mhz must be positive")
    if plat.idle_power_watts < 0:
        v.append("idle_power_watts must be nonnegative")

    thermal = (plat.thermal_b, plat.thermal_g, plat.ambient_celsius)
    if any(x is not None for x in thermal) and not plat.has_thermal_parameters:
        v.append("thermal_b, thermal_g and ambient_celsius must be given together")
    if plat.thermal_b is not None and plat.thermal_b <= 0:
        v.append("thermal_b must be positive")
    if plat.thermal_g is not None and plat.thermal_g <= 0:
        v.append("thermal_g must be positive")

    n = len(instance.tasks)
    total_cores = plat.total_cores
    lower = math.ceil(n / total_cores) if total_cores else 0
    if not (lower <= instance.max_windows <= max(n, 0)):
        v.append(
            f"max_windows must satisfy ceil(n / total cores) <= q <= n, "
            f"i.e. {lower} <= q <= {n}, got {instance.max_windows}"
        )

    structurally_ok_tasks = all(
        sorted(tc.cluster_id for tc in t.per_cluster) == sorted(c.id for c in plat.clusters)
        for t in instance.tasks
    )
    if instance.tasks and structurally_ok_tasks:
        shortest = min(min(tc.exec_time_ms for tc in t.per_cluster) for t in instance.tasks)
        if instance.major_frame_ms < shortest:
            v.append(
                f"major_frame_ms {instance.major_frame_ms} is shorter than the "
                f"smallest execution time {shortest}; no task can be scheduled"
            )
    return v


def derive_window_lengths(
    instance: Instance, placements: Iterable[Placement]
) -> tuple[int, ...]:
    """Tight window lengths: max execution time per window, 0 for empty windows."""
    lengths = [0] * instance.max_windows
    for p in placements:
        if not 1 <= p.window <= instance.max_windows:
            raise ValueError(
                f"placement of task {p.task_id} uses window {p.window}, "
                f"valid range is 1..{instance.max_windows}"
            )
        e = instance.task_by_id(p.task_id).on(p.cluster).exec_time_ms
        if e > lengths[p.window - 1]:
            lengths[p.window - 1] = e
    return tuple(lengths)


def check_feasible(instance: Instance, assignment: Assignment) -> Feasibility:
    """Verdict on the four problem constraints.

    Checks complete assignment, per-window cluster capacity, window-length
    dominance over every contained task, and the frame budget. A mismatch
    between the assignment's task set and the instance's task set is an
    input error and raises ValueError instead of producing a verdict.
    """
    inst_ids = sorted(t.id for t in instance.tasks)
    asg_ids = sorted(p.task_id for p in assignment.placements)
    if inst_ids != asg_ids:
        raise ValueError(
            "assignment task set does not match instance task set "
            f"(instance has {len(inst_ids)} tasks, assignment has {len(asg_ids)})"
        )
    q = instance.max_windows
    if len(assignment.window_lengths_ms) != q:
        raise ValueError(
            f"assignment must carry {q} window lengths, "
            f"got {len(assignment.window_lengths_ms)}"
        )

    violations: list[str] = []
    counts: dict[tuple[int, int], int] = {}
    for p in assignment.placements:
        if not 1 <= p.window <= q:
            violations.append(
                f"task {p.task_id}: window {p.window} outside 1..{q}"
            )
            continue
        try:
            cluster = instance.platform.cluster_by_id(p.cluster)
        except KeyError:
            violations.append(f"task {p.task_id}: unknown cluster {p.cluster}")
            continue
        counts[(p.window, p.cluster)] = counts.get((p.window, p.cluster), 0) + 1
        e = instance.task_by_id(p.task_id).on(p.cluster).exec_time_ms
        if e > assignment.window_lengths_ms[p.window - 1]:
            violations.append(
                f"window {p.window} is shorter than task {p.task_id} "
                f"({assignment.window_lengths_ms[p.window - 1]} < {e} ms)"
            )
    for (j, k), cnt in sorted(counts.items()):
        cap = instance.platform.cluster_by_id(k).core_count
        if cnt > cap:
            violations.append(
                f"window {j}, cluster {k}: {cnt} tasks exceed {cap} cores"
            )
    total = sum(assignment.window_lengths_ms)
    if total > instance.major_frame_ms:
        violations.append(
            f"window lengths sum to {total} ms, exceeding the major frame "
            f"of {instance.major_frame_ms} ms"
        )
    return Feasibility(feasible=not violations, violations=tuple(violations))


def derive_core_schedule(instance: Instance, assignment: Assignment) -> CoreSchedule:
    """Assign each placed task to one core slot of its (window, cluster).

    Tasks sharing a (window, cluster) occupy slots in ascending task id,
    which makes the schedule deterministic. Raises ValueError when the
    assignment is infeasible.
    """
    verdict = check_feasible(instance, assignment)
    if not verdict:
        raise ValueError(
            "cannot derive a core schedule from an infeasible assignment: "
            + "; ".join(verdict.violations)
        )
    windows = []
    for j in range(1, instance.max_windows + 1):
        per_cluster = []
        for c in instance.platform.clusters:
            members = sorted(
                p.task_id
                for p in assignment.placements
                if p.window == j and p.cluster == c.id
            )
            slots = tuple(members) + (IDLE,) * (c.core_count - len(members))
            per_cluster.append(slots)
        windows.append(tuple(per_cluster))
    return CoreSchedule(slots=tuple(windows))


def total_idle_time(instance: Instance, assignment: Assignment) -> int:
    """Total idle time in ms*cores: h * total cores - total processing time.

    Exact integer arithmetic; together with the processing time this always
    sums back to h * total cores.
    """
    processing = sum(
        instance.task_by_id(p.task_id).on(p.cluster).exec_time_ms
        for p in assignment.placements
    )
    return instance.major_frame_ms * instance.platform.total_cores - processing


# ---------------------------------------------------------------------------
# Document I/O
#
# Instance documents are JSON; unknown fields are ignored so the schema can
# grow without breaking older files.


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field '{key}'")
    return obj[key]


def _platform_from_dict(doc: dict) -> Platform:
    clusters = []
    for pos, cd in enumerate(_require(doc, "clusters", "platform")):
        where = f"platform.clusters[{pos}]"
        clusters.append(
            Cluster(
                id=int(_require(cd, "id", where)),
                core_count=int(_require(cd, "core_count", where)),
                label=str(cd.get("label", "")),
                frequency_mhz=int(cd.get("frequency_mhz", 1)),
            )
        )
    clusters.sort(key=lambda c: c.id)

    def opt_float(key):
        return float(doc[key]) if doc.get(key) is not None else None

    return Platform(
        clusters=tuple(clusters),
        idle_power_watts=float(_require(doc, "idle_power_watts", "platform")),
        thermal_b=opt_float("thermal_b"),
        thermal_g=opt_float("thermal_g"),
        ambient_celsius=opt_float("ambient_celsius"),
    )


def instance_from_dict(doc: dict) -> Instance:
    platform = _platform_from_dict(_require(doc, "platform", "instance"))
    tasks = []
    for pos, td in enumerate(_require(doc, "tasks", "instance")):
        where = f"tasks[{pos}]"
        entries = []
        for cpos, cd in enumerate(_require(td, "per_cluster", where)):
            cwhere = f"{where}.per_cluster[{cpos}]"
            energy = cd.get("energy_cost")
            entries.append(
                TaskCharacteristics(
                    cluster_id=int(_require(cd, "cluster_id", cwhere)),
                    exec_time_ms=int(_require(cd, "exec_time_ms", cwhere)),
                    activity_coef=float(_require(cd, "activity_coef", cwhere)),
                    offset_coef=float(_require(cd, "offset_coef", cwhere)),
                    energy_cost=float(energy) if energy is not None else None,
                )
            )
        entries.sort(key=lambda tc: tc.cluster_id)
        tasks.append(
            Task(
                id=int(_require(td, "id", where)),
                name=str(td.get("name", "")),
                per_cluster=tuple(entries),
            )
        )
    return Instance(
        platform=platform,
        tasks=tuple(tasks),
        major_frame_ms=int(_require(doc, "major_frame_ms", "instance")),
        max_windows=int(_require(doc, "max_windows", "instance")),
    )


def instance_to_dict(instance: Instance) -> dict:
    plat = instance.platform
    pdoc: dict = {
        "idle_power_watts": plat.idle_power_watts,
        "clusters": [
            {
                "id": c.id,
                "core_count": c.core_count,
                "label": c.label,
                "frequency_mhz": c.frequency_mhz,
            }
            for c in plat.clusters
        ],
    }
    if plat.thermal_b is not None:
        pdoc["thermal_b"] = plat.thermal_b
    if plat.thermal_g is not None:
        pdoc["thermal_g"] = plat.thermal_g
    if plat.ambient_celsius is not None:
        pdoc["ambient_celsius"] = plat.ambient_celsius
    tasks = []
    for t in instance.tasks:
        entries = []
        for tc in t.per_cluster:
            entry = {
                "cluster_id": tc.cluster_id,
                "exec_time_ms": tc.exec_time_ms,
                "activity_coef": tc.activity_coef,
                "offset_coef": tc.offset_coef,
            }
            if tc.energy_cost is not None:
                entry["energy_cost"] = tc.energy_cost
            entries.append(entry)
        tasks.append({"id": t.id, "name": t.name, "per_cluster": entries})
    return {
        "platform": pdoc,
        "tasks": tasks,
        "major_frame_ms": instance.major_frame_ms,
        "max_windows": instance.max_windows,
    }


def _open_for(path_or_file, mode: str):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


def _read_json_object(path_or_file: Union[str, IO[str]], what: str) -> dict:
    """Parse a JSON document that must be an object; raises ParseError otherwise."""
    f, owned = _open_for(path_or_file, "r")
    try:
        doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    finally:
        if owned:
            f.close()
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    return doc


def _write_json(doc: dict, path_or_file: Union[str, IO[str]]) -> None:
    """Write a document as indented JSON with sorted keys and a final newline."""
    f, owned = _open_for(path_or_file, "w")
    try:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    finally:
        if owned:
            f.close()


def load_instance(path_or_file: Union[str, IO[str]]) -> Instance:
    """Load an instance document; raises ParseError on malformed input."""
    return instance_from_dict(_read_json_object(path_or_file, "instance"))


def save_instance(instance: Instance, path_or_file: Union[str, IO[str]]) -> None:
    _write_json(instance_to_dict(instance), path_or_file)


def assignment_from_dict(doc: dict) -> Assignment:
    placements = []
    for pos, pd in enumerate(_require(doc, "placements", "assignment")):
        where = f"placements[{pos}]"
        placements.append(
            Placement(
                task_id=int(_require(pd, "task_id", where)),
                window=int(_require(pd, "window", where)),
                cluster=int(_require(pd, "cluster", where)),
            )
        )
    lengths = tuple(int(x) for x in _require(doc, "window_lengths_ms", "assignment"))
    placements.sort(key=lambda p: p.task_id)
    return Assignment(placements=tuple(placements), window_lengths_ms=lengths)


def assignment_to_dict(assignment: Assignment) -> dict:
    return {
        "placements": [
            {"task_id": p.task_id, "window": p.window, "cluster": p.cluster}
            for p in assignment.placements
        ],
        "window_lengths_ms": list(assignment.window_lengths_ms),
    }


def load_assignment(path_or_file: Union[str, IO[str]]) -> Assignment:
    return assignment_from_dict(_read_json_object(path_or_file, "assignment"))


def save_assignment(assignment: Assignment, path_or_file: Union[str, IO[str]]) -> None:
    _write_json(assignment_to_dict(assignment), path_or_file)


CHARACTERISTICS_HEADER = ["kernel", "cluster_id", "exec_time_ms", "activity_coef", "offset_coef"]


def read_characteristics_csv(
    path_or_file: Union[str, IO[str]],
) -> dict[str, dict[int, TaskCharacteristics]]:
    """Read a per-(kernel, cluster) characteristics table.

    Returns {kernel name: {cluster_id: TaskCharacteristics}}.
    """
    f, owned = _open_for(path_or_file, "r")
    try:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != CHARACTERISTICS_HEADER:
            raise ParseError(
                "characteristics CSV must have header "
                + ",".join(CHARACTERISTICS_HEADER)
            )
        table: dict[str, dict[int, TaskCharacteristics]] = {}
        for lineno, row in enumerate(reader, start=2):
            try:
                kernel = row["kernel"].strip()
                cluster_id = int(row["cluster_id"])
                tc = TaskCharacteristics(
                    cluster_id=cluster_id,
                    exec_time_ms=int(row["exec_time_ms"]),
                    activity_coef=float(row["activity_coef"]),
                    offset_coef=float(row["offset_coef"]),
                )
            except (TypeError, KeyError, ValueError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            table.setdefault(kernel, {})[cluster_id] = tc
        return table
    finally:
        if owned:
            f.close()
