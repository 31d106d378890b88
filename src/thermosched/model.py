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

import contextlib
import csv
import functools
import json
import math
import operator
from dataclasses import dataclass, fields
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar, Union

_T = TypeVar("_T")


class ParseError(ValueError):
    """Raised when an instance, assignment or CSV document is malformed."""


class Unusable(ValueError):
    """Raised when a value is built with fields that break its rules."""


#: Core-slot marker for a slot with no task.
IDLE = None


@dataclass(frozen=True, slots=True)
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
    or not at all. Building a platform checks it: cluster ids 1..m in order,
    at least one core and a positive frequency per cluster, nonnegative idle
    power, positive thermal_b and thermal_g, and every number finite. Any
    breach raises ValueError("platform is not usable: ...").
    """

    clusters: tuple[Cluster, ...]
    idle_power_watts: float
    thermal_b: float | None = None
    thermal_g: float | None = None
    ambient_celsius: float | None = None

    def __post_init__(self):
        _refuse("platform", _platform_violations(self))

    @property
    def total_cores(self) -> int:
        return sum(c.core_count for c in self.clusters)

    @property
    def has_thermal_parameters(self) -> bool:
        return self.thermal_b is not None  # the three are given together or not at all


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Task:
    """per_cluster holds one entry per platform cluster, in cluster id order.

    Solvers read it by cluster position; an Instance refuses any other order.
    """

    id: int
    name: str
    per_cluster: tuple[TaskCharacteristics, ...]

    def on(self, cluster_id: int) -> TaskCharacteristics:
        """Characteristics of this task on the given cluster: entry cluster_id - 1."""
        if 1 <= cluster_id <= len(self.per_cluster):
            return self.per_cluster[cluster_id - 1]
        raise KeyError(f"task {self.id} has no data for cluster {cluster_id}")


@dataclass(frozen=True)
class Instance:
    """A full problem input: platform, tasks, frame length and window budget.

    Building an instance checks it: a positive frame and window budget,
    tasks in strictly ascending id order (unique ids), every task's
    per_cluster in platform cluster order, execution times of at least
    1 ms, finite coefficients and a finite, nonnegative energy_cost. Any
    breach raises ValueError("instance is not usable: ..."), so every
    Instance a solver or command receives is usable.
    A window budget outside ceil(n / total cores)..n or a frame shorter than
    every task is accepted: the solvers prove such an instance infeasible or
    leave the spare windows empty.
    """

    platform: Platform
    tasks: tuple[Task, ...]
    major_frame_ms: int
    max_windows: int

    def __post_init__(self):
        # id lookup cache; not a field, so equality and hashing ignore it
        object.__setattr__(self, "_task_map", {t.id: t for t in self.tasks})
        _refuse("instance", _instance_violations(self))

    def task_by_id(self, task_id: int) -> Task:
        try:
            return self._task_map[task_id]
        except KeyError:
            raise KeyError(f"no task with id {task_id}") from None


@dataclass(frozen=True, slots=True)
class Placement:
    """One task mapped to a window index and a cluster index (both 1-based)."""

    task_id: int
    window: int
    cluster: int


@dataclass(frozen=True)
class Assignment:
    """A complete solution: one placement per task plus derived window lengths.

    Placements are in strictly ascending task id order, so once the task
    ids match an instance's, placement i belongs to instance.tasks[i];
    building an assignment in any other order raises ValueError
    ("assignment is not usable: ..."). window_lengths_ms always has
    max_windows entries; windows without tasks have length 0.
    """

    placements: tuple[Placement, ...]
    window_lengths_ms: tuple[int, ...]

    def __post_init__(self):
        ids = [p.task_id for p in self.placements]
        if any(map(operator.ge, ids, ids[1:])):
            _refuse("assignment", [f"task ids must be strictly ascending, got {ids}"])

    @classmethod
    def from_placements(
        cls,
        instance: Instance,
        placements: Iterable[Union[Placement, tuple[int, int, int]]],
    ) -> "Assignment":
        """Build an assignment with tight window lengths: each window's longest task, or 0.

        Accepts Placement objects or (task_id, window, cluster) triples, in
        any order; they are sorted by task id. Raises ValueError for a
        window outside 1..max_windows.
        """
        normalized = tuple(
            sorted(
                (p if isinstance(p, Placement) else Placement(*p) for p in placements),
                key=lambda p: p.task_id,
            )
        )
        lengths = [0] * instance.max_windows
        for p in normalized:
            if not 1 <= p.window <= instance.max_windows:
                raise ValueError(
                    f"placement of task {p.task_id} uses window {p.window}, "
                    f"valid range is 1..{instance.max_windows}"
                )
            e = instance.task_by_id(p.task_id).on(p.cluster).exec_time_ms
            if e > lengths[p.window - 1]:
                lengths[p.window - 1] = e
        return cls(placements=normalized, window_lengths_ms=tuple(lengths))

    @property
    def total_window_length_ms(self) -> int:
        return sum(self.window_lengths_ms)


@dataclass(frozen=True)
class Feasibility:
    """Feasibility verdict: the violated constraints, none when feasible."""

    violations: tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return not self.violations


def _refuse(what: str, violations: list[str]) -> None:
    if violations:
        raise Unusable(f"{what} is not usable: " + "; ".join(violations))


def _platform_violations(plat: Platform) -> list[str]:
    if not plat.clusters:
        return ["platform has no clusters"]
    ids = [c.id for c in plat.clusters]
    if ids != list(range(1, len(ids) + 1)):
        return [f"cluster ids must be unique and contiguous from 1, got {ids}"]
    v: list[str] = []
    for c in plat.clusters:
        if c.core_count < 1:
            v.append(f"cluster {c.id}: core_count must be >= 1, got {c.core_count}")
        if c.frequency_mhz < 1:
            v.append(f"cluster {c.id}: frequency_mhz must be >= 1, got {c.frequency_mhz}")
    # a range test with math.inf refuses NaN too, which fails every comparison
    if not 0 <= plat.idle_power_watts < math.inf:
        v.append(f"idle_power_watts must be nonnegative and finite, got {plat.idle_power_watts}")
    thermal = (plat.thermal_b, plat.thermal_g, plat.ambient_celsius)
    if thermal.count(None) not in (0, 3):
        v.append("thermal_b, thermal_g and ambient_celsius must be given together")
    for name, value in zip(("thermal_b", "thermal_g"), thermal):
        if value is not None and not 0 < value < math.inf:
            v.append(f"{name} must be positive and finite, got {value}")
    if plat.ambient_celsius is not None and not math.isfinite(plat.ambient_celsius):
        v.append(f"ambient_celsius must be finite, got {plat.ambient_celsius}")
    return v


def _instance_violations(instance: Instance) -> list[str]:
    v: list[str] = []
    if instance.major_frame_ms < 1:
        v.append("major_frame_ms must be a positive integer")
    if instance.max_windows < 1:
        v.append("max_windows must be a positive integer")
    if len(instance._task_map) != len(instance.tasks):
        v.append("task ids must be unique")
    elif list(instance._task_map) != sorted(instance._task_map):
        v.append(f"tasks must be in ascending id order, got ids {list(instance._task_map)}")

    ids = [c.id for c in instance.platform.clusters]
    for t in instance.tasks:
        seen = [tc.cluster_id for tc in t.per_cluster]
        if seen != ids:
            v.append(
                f"task {t.id}: per_cluster must list every platform cluster once, "
                f"in cluster id order, got cluster ids {seen}"
            )
            continue
        for tc in t.per_cluster:
            if tc.exec_time_ms < 1:
                v.append(
                    f"task {t.id}: exec_time_ms on cluster {tc.cluster_id} "
                    f"must be >= 1, got {tc.exec_time_ms}"
                )
            if not (math.isfinite(tc.activity_coef) and math.isfinite(tc.offset_coef)):
                v.append(
                    f"task {t.id}: activity_coef and offset_coef on cluster "
                    f"{tc.cluster_id} must be finite"
                )
            if tc.energy_cost is not None and not 0 <= tc.energy_cost < math.inf:
                v.append(
                    f"task {t.id}: energy_cost on cluster {tc.cluster_id} "
                    "must be nonnegative and finite"
                )
    return v


def check_feasible(instance: Instance, assignment: Assignment) -> Feasibility:
    """Verdict on the four problem constraints.

    Checks complete assignment, per-window cluster capacity, window-length
    dominance over every contained task, and the frame budget. A mismatch
    between the assignment's task set and the instance's task set is an
    input error and raises ValueError instead of producing a verdict. Both
    list their tasks in ascending id order, so the sets match when the id
    lists are equal, and placement i then belongs to instance.tasks[i].
    """
    inst_ids = [t.id for t in instance.tasks]
    asg_ids = [p.task_id for p in assignment.placements]
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

    clusters = instance.platform.clusters
    violations: list[str] = []
    counts: dict[tuple[int, int], int] = {}
    for t, p in zip(instance.tasks, assignment.placements):
        if not 1 <= p.window <= q:
            violations.append(
                f"task {p.task_id}: window {p.window} outside 1..{q}"
            )
            continue
        if not 1 <= p.cluster <= len(clusters):
            violations.append(f"task {p.task_id}: unknown cluster {p.cluster}")
            continue
        counts[(p.window, p.cluster)] = counts.get((p.window, p.cluster), 0) + 1
        e = t.per_cluster[p.cluster - 1].exec_time_ms
        if e > assignment.window_lengths_ms[p.window - 1]:
            violations.append(
                f"window {p.window} is shorter than task {p.task_id} "
                f"({assignment.window_lengths_ms[p.window - 1]} < {e} ms)"
            )
    for (j, k), cnt in sorted(counts.items()):
        cap = clusters[k - 1].core_count
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
    return Feasibility(tuple(violations))


def derive_core_schedule(
    instance: Instance, assignment: Assignment
) -> tuple[tuple[tuple[int | None, ...], ...], ...]:
    """Assign each placed task to one core slot of its (window, cluster).

    The result is indexed [window - 1][cluster position][slot] and holds a
    task id, or IDLE for a free slot, per core of the cluster. Tasks sharing
    a (window, cluster) occupy slots in ascending task id, the order of the
    placements, which makes the schedule deterministic. Raises ValueError
    when the assignment is infeasible.
    """
    verdict = check_feasible(instance, assignment)
    if not verdict:
        raise ValueError(
            "cannot derive a core schedule from an infeasible assignment: "
            + "; ".join(verdict.violations)
        )
    clusters = instance.platform.clusters
    members = [[[] for _ in clusters] for _ in range(instance.max_windows)]
    for p in assignment.placements:
        members[p.window - 1][p.cluster - 1].append(p.task_id)
    return tuple(
        tuple(tuple(ids) + (IDLE,) * (c.core_count - len(ids)) for ids, c in zip(row, clusters))
        for row in members
    )


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


def _require(obj: dict, key: str, where: str, *where_args):
    """obj[key]; a ParseError naming the location where % where_args if it is missing."""
    if key not in obj:
        raise ParseError(f"{where % where_args}: missing field '{key}'")
    return obj[key]


def _platform_from_dict(doc: dict) -> Platform:
    clusters = []
    for pos, cd in enumerate(_require(doc, "clusters", "platform")):
        clusters.append(
            Cluster(
                id=int(_require(cd, "id", "platform.clusters[%d]", pos)),
                core_count=int(_require(cd, "core_count", "platform.clusters[%d]", pos)),
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
    """The instance a document describes; its tasks and their entries are sorted by id."""
    platform = _platform_from_dict(_require(doc, "platform", "instance"))
    tasks = []
    for pos, td in enumerate(_require(doc, "tasks", "instance")):
        entries = []
        for cpos, cd in enumerate(_require(td, "per_cluster", "tasks[%d]", pos)):
            # .get first, so an entry that is not an object fails with AttributeError
            energy = cd.get("energy_cost")
            try:
                entries.append(
                    TaskCharacteristics(
                        int(cd["cluster_id"]),
                        int(cd["exec_time_ms"]),
                        float(cd["activity_coef"]),
                        float(cd["offset_coef"]),
                        float(energy) if energy is not None else None,
                    )
                )
            except KeyError as exc:
                raise ParseError(
                    f"tasks[{pos}].per_cluster[{cpos}]: missing field '{exc.args[0]}'"
                ) from None
        entries.sort(key=lambda tc: tc.cluster_id)
        tasks.append(
            Task(
                id=int(_require(td, "id", "tasks[%d]", pos)),
                name=str(td.get("name", "")),
                per_cluster=tuple(entries),
            )
        )
    tasks.sort(key=lambda t: t.id)
    return Instance(
        platform=platform,
        tasks=tuple(tasks),
        major_frame_ms=int(_require(doc, "major_frame_ms", "instance")),
        max_windows=int(_require(doc, "max_windows", "instance")),
    )


@contextlib.contextmanager
def _opened(path_or_file: Union[str, IO[str]], mode: str) -> Iterator[IO[str]]:
    """The caller's open file as it is, or the named file opened here and closed on exit."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, mode, encoding="utf-8") as f:
            yield f


def _load_json(
    path_or_file: Union[str, IO[str]], what: str, from_dict: Callable[[dict], _T]
) -> _T:
    """Parse a JSON object with from_dict; raises ParseError on malformed input.

    A field of the wrong shape or type, such as a number where a list or an
    object belongs, makes from_dict raise TypeError or AttributeError; a
    value int() or float() cannot convert, such as "abc" or NaN where an
    integer belongs, makes it raise ValueError, and an infinite one (JSON's
    1e400 reads as inf) OverflowError. Each is reported as a ParseError; a
    ParseError or an Unusable refusal of a built value passes through.
    """
    with _opened(path_or_file, "r") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    try:
        return from_dict(doc)
    except (ParseError, Unusable):
        raise
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{what} document has a field of the wrong type: {exc}") from exc


_encode_str = json.encoder.encode_basestring_ascii
# None, bools, int and float subclasses, NaN and the infinities, and a
# TypeError for any value json cannot serialize
_encode_scalar = json.JSONEncoder().encode
_INF = float("inf")


def _json_key(key) -> str:
    """A dict key that is not a str, as json's encoder converts it before quoting it."""
    if isinstance(key, (int, float)) or key is None:
        return _encode_scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


@functools.cache
def _member_heads(kind: type, newline: str) -> tuple[tuple[tuple[str, str, str], ...], str]:
    """The members of a dataclass written at newline's indent, and their own newline.

    Each member is a field name, in sorted order (the order the document
    lists them), with its opening text as the object's first member and as
    a later member: "{" or ",", then the line break and indent, the quoted
    key and ": ".
    """
    inner = newline + "  "
    members = []
    for name in sorted(f.name for f in fields(kind)):
        key = inner + _encode_str(name) + ": "
        members.append((name, "{" + key, "," + key))
    return tuple(members), inner


def _append_json(value, newline: str, parts: list[str]) -> None:
    """Append value's JSON text; newline is a line break plus value's own indent.

    A dataclass is written from its cached _member_heads: each field that is
    not None gets its head, and an exact int, a finite float or a str is
    written inline after it; any other value (a container, a bool, an int or
    float subclass, NaN or an infinity) is written by recursion, so it still
    goes through json's own encoder.
    """
    kind = type(value)
    if kind is str:
        parts.append(_encode_str(value))
    elif kind is int or (kind is float and -_INF < value < _INF):
        parts.append(repr(value))  # json's own text for an exact int or a finite float
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            sep = "," + inner
            _append_json(item, inner, parts)
        parts.append(newline + "]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            text = key if isinstance(key, str) else _json_key(key)
            parts.append(sep + _encode_str(text) + ": ")
            sep = "," + inner
            _append_json(item, inner, parts)
        parts.append(newline + "}" if value else "{}")
    elif hasattr(kind, "__dataclass_fields__"):
        members, inner = _member_heads(kind, newline)
        opened = False
        for name, first, later in members:
            item = getattr(value, name)
            if item is None:
                continue
            head = later if opened else first
            opened = True
            item_kind = type(item)
            if item_kind is int or (item_kind is float and -_INF < item < _INF):
                parts.append(head + repr(item))
            elif item_kind is str:
                parts.append(head + _encode_str(item))
            else:
                parts.append(head)
                _append_json(item, inner, parts)
        parts.append(newline + "}" if opened else "{}")
    else:
        parts.append(_encode_scalar(value))


def _write_json(value, path_or_file: Union[str, IO[str]]) -> None:
    """Write a document as indented JSON with sorted keys and a final newline.

    The text is json.dumps(doc, indent=2, sort_keys=True) plus "\n", byte
    for byte, where doc is value with each dataclass in it replaced by a
    dict of its fields that are not None, keyed by field name. json.dump is
    not used because json's C encoder does not indent, so with indent=2
    every token goes through its pure-Python encoder and its own write call.
    Here scalars go through json's own functions, a dataclass's keys,
    separators and indents come from heads cached per (type, indent) by
    _member_heads, and the document is joined into one string before the
    file is opened, so a value json cannot serialize raises TypeError and
    leaves the file as it was.
    """
    parts: list[str] = []
    _append_json(value, "\n", parts)
    parts.append("\n")
    text = "".join(parts)
    with _opened(path_or_file, "w") as f:
        f.write(text)


def _read_csv(
    path_or_file: Union[str, IO[str]],
    header: list[str],
    what: str,
    parse: Callable[[list[str]], _T],
) -> list[_T]:
    """parse() of every row of a CSV document that has exactly the given header.

    Blank rows are skipped. A row with another number of columns, or one
    whose parse raises ValueError, is a ParseError naming its line.
    """
    with _opened(path_or_file, "r") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first is None or [c.strip() for c in first] != header:
            raise ParseError(f"{what} CSV must have header " + ",".join(header))
        parsed = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"line {reader.line_num}: expected {len(header)} columns")
            try:
                parsed.append(parse(row))
            except ValueError as exc:
                raise ParseError(f"line {reader.line_num}: {exc}") from exc
        return parsed


def _write_csv(
    path_or_file: Union[str, IO[str]], header: list[str], rows: Iterable[Sequence]
) -> None:
    with _opened(path_or_file, "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def load_instance(path_or_file: Union[str, IO[str]]) -> Instance:
    """Load an instance document; raises ParseError on malformed input."""
    return _load_json(path_or_file, "instance", instance_from_dict)


def save_instance(instance: Instance, path_or_file: Union[str, IO[str]]) -> None:
    _write_json(instance, path_or_file)


def assignment_from_dict(doc: dict) -> Assignment:
    placements = []
    for pos, pd in enumerate(_require(doc, "placements", "assignment")):
        # through _require, so a list or string entry reads as a missing field
        task_id = int(_require(pd, "task_id", "placements[%d]", pos))
        try:
            placements.append(
                Placement(task_id, int(pd["window"]), int(pd["cluster"]))
            )
        except KeyError as exc:
            raise ParseError(f"placements[{pos}]: missing field '{exc.args[0]}'") from None
    lengths = tuple(int(x) for x in _require(doc, "window_lengths_ms", "assignment"))
    placements.sort(key=lambda p: p.task_id)
    return Assignment(placements=tuple(placements), window_lengths_ms=lengths)


def load_assignment(path_or_file: Union[str, IO[str]]) -> Assignment:
    return _load_json(path_or_file, "assignment", assignment_from_dict)


def save_assignment(assignment: Assignment, path_or_file: Union[str, IO[str]]) -> None:
    _write_json(assignment, path_or_file)
