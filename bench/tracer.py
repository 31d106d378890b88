"""Spans around the calls into each package layer, and the per-layer metrics.

The package imports names directly (``from .power import schedule_power``),
so a call is traced by replacing the name in the module that looks it up,
not in the module that defines it. Spans live in memory; ``write`` stores
them as JSON lines when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

import thermosched.cli as cli
import thermosched.generator as generator
import thermosched.heuristics as heuristics
import thermosched.model as model
import thermosched.power as power
import thermosched.runners as runners

WINDOW_KINDS = ("sm-power", "lr-ub-power")
CLUSTER_KINDS = ("idle-min", "idle-max")
FEASIBILITY_KIND = "feasibility-only"


@dataclass
class Span:
    id: int
    parent: int | None
    job: str | None
    layer: str
    name: str
    start: float
    end: float
    self_s: float
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(args, kwargs, result):
    objective = args[1] if len(args) > 1 else kwargs["objective"]
    return {"kind": objective.kind.value, "status": result.status.value,
            "nodes": result.nodes_explored}


def _power_attrs(args, kwargs, result):
    model_arg = args[2] if len(args) > 2 else kwargs["model"]
    return {"model": power.PowerModel(model_arg).value}


def _ga_attrs(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    population = config.population_size or 50 * len(args[0].tasks)
    return {"evals": result.generations * population}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def wrap(self, layer, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                extra = attrs(args, kwargs, result) if attrs is not None and result is not None else {}
                self.spans.append(Span(frame[0], None if parent is None else parent[0], self.job,
                                       layer, span_name, start, end, end - start - frame[1], extra))

        return traced

    def _targets(self):
        """(module, attribute, layer, span name, attrs) for every traced lookup."""
        io_names = ("load_instance", "save_instance", "load_assignment", "save_assignment")
        return [
            (cli, "main", "cli", lambda args: "main." + args[0][0], None),
            (cli, "run_method", "runners", "run_method", None),
            (runners, "run_method", "runners", "run_method", None),
            (runners, "solve", "exact", "solve", _solve_attrs),
            (heuristics, "solve", "exact", "solve", _solve_attrs),
            (runners, "run_ga", "heuristics", "run_ga", _ga_attrs),
            (runners, "greedy", "heuristics", "greedy", None),
            (heuristics, "reconstruct", "heuristics", "reconstruct",
             lambda a, k, r: {"ok": r is not None}),
            (heuristics, "schedule_power", "power", "schedule_power", _power_attrs),
            (cli, "schedule_power", "power", "schedule_power", _power_attrs),
            (power, "derive_core_schedule", "model", "derive_core_schedule", None),
            (model, "check_feasible", "model", "check_feasible", None),
            (runners, "build_network", "flow", "build_network",
             lambda a, k, r: {"arcs": len(r.arcs)}),
            (runners, "min_cost_assignment", "flow", "min_cost_assignment", None),
            (cli, "generate_instance", "generator", "generate_instance", None),
            (generator, "generate_instance", "generator", "generate_instance", None),
        ] + [(mod, fn, "model", "io", None) for mod in (cli, model) for fn in io_names]

    @contextlib.contextmanager
    def installed(self):
        """Trace every target while the block runs; restore the originals after."""
        saved = []
        try:
            for module, attr, layer, name, attrs in self._targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, name, original, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "job": s.job, "layer": s.layer,
                    "name": s.name, "start_s": s.start - origin, "end_s": s.end - origin,
                    "self_s": s.self_s, "attrs": s.attrs,
                }) + "\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _rate(numerator: float, seconds: float) -> float:
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures; a layer the workload does not reach reads 0."""
    by = {}
    for s in spans:
        by.setdefault((s.layer, s.name), []).append(s)

    def get(layer, name):
        return by.get((layer, name), [])

    solves = get("exact", "solve")
    window = [s for s in solves if s.attrs.get("kind") in WINDOW_KINDS]
    cluster = [s for s in solves if s.attrs.get("kind") in CLUSTER_KINDS]
    feas = [s for s in solves if s.attrs.get("kind") == FEASIBILITY_KIND]
    searches = window + cluster
    power_spans = get("power", "schedule_power")
    recon = get("heuristics", "reconstruct")
    run_ga = get("heuristics", "run_ga")
    greedy_ids = {s.id for s in get("heuristics", "greedy")}
    oracle = [s for s in feas if s.parent in greedy_ids]
    main = [s for (layer, _), group in by.items() if layer == "cli" for s in group]

    m = {
        "exact.window.nodes": sum(s.attrs["nodes"] for s in window if s.attrs["status"] == "optimal"),
        "exact.window.nodes_per_s": _rate(sum(s.attrs.get("nodes", 0) for s in window),
                                          sum(s.duration for s in window)),
        "exact.cluster.nodes": sum(s.attrs["nodes"] for s in cluster if s.attrs["status"] == "optimal"),
        "exact.cluster.nodes_per_s": _rate(sum(s.attrs.get("nodes", 0) for s in cluster),
                                           sum(s.duration for s in cluster)),
        "exact.feasibility.calls": len(feas),
        "exact.feasibility.us_per_call": 1e6 * _mean(s.duration for s in feas),
        "exact.optimal_share": _rate(sum(s.attrs.get("status") == "optimal" for s in searches),
                                     len(searches)),
    }
    for model_name, key in (("sm", "sm"), ("lr", "lr"), ("lr-ub", "lr_ub")):
        calls = [s for s in power_spans if s.attrs.get("model") == model_name]
        m[f"power.schedule_power.{key}.us"] = 1e6 * _mean(s.duration for s in calls)
        m[f"power.schedule_power.{key}.calls"] = len(calls)
    m.update({
        "model.derive_core_schedule.us": 1e6 * _mean(s.duration for s in get("model", "derive_core_schedule")),
        "model.check_feasible.us": 1e6 * _mean(s.duration for s in get("model", "check_feasible")),
        "model.io.ms": 1e3 * _mean(s.duration for s in get("model", "io")),
        "heuristics.reconstruct.us": 1e6 * _mean(s.duration for s in recon),
        "heuristics.reconstruct.ok_share": _rate(sum(s.attrs.get("ok", False) for s in recon), len(recon)),
        "heuristics.ga.evals_per_s": _rate(sum(s.attrs.get("evals", 0) for s in run_ga),
                                           sum(s.duration for s in run_ga)),
        "heuristics.run_ga.self_ms": 1e3 * _mean(s.self_s for s in run_ga),
        "heuristics.greedy.ms": 1e3 * _mean(s.duration for s in get("heuristics", "greedy")),
        "heuristics.greedy.accept_share": _rate(sum(s.attrs.get("status") == "optimal" for s in oracle),
                                                len(oracle)),
        "flow.build_network.ms": 1e3 * _mean(s.duration for s in get("flow", "build_network")),
        "flow.min_cost_assignment.ms": 1e3 * _mean(s.duration for s in get("flow", "min_cost_assignment")),
        "flow.arcs": sum(s.attrs.get("arcs", 0) for s in get("flow", "build_network")),
        "generator.generate_instance.ms": 1e3 * _mean(s.duration for s in get("generator", "generate_instance")),
        "runners.run_method.self_ms": 1e3 * _mean(s.self_s for s in get("runners", "run_method")),
        "cli.main.self_ms": 1e3 * _mean(s.self_s for s in main),
    })
    for sub in ("generate", "solve", "evaluate"):
        m[f"cli.main.{sub}.self_ms"] = 1e3 * _mean(s.self_s for s in get("cli", "main." + sub))
    return m
