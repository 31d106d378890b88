"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/selftest.py

They check that the printed metric names match BENCHMARK.json, that the
correctness gate counts tampered or stale results as failed, that the
speed tracker scales jobs by the probes around them, and that a tiny
configuration of every workload finishes in seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from thermosched.model import Assignment  # noqa: E402

WORKLOADS = ("exact-bnb", "ga-loose", "cli-pipeline")
SMOKE_SECONDS = "0.1"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (name, m["unit"]) for name, m in result["metrics"].items()
    ]
    assert elapsed < 60


def test_end_to_end_metrics_are_never_zero_on_a_smoke_run():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-bnb", "--seed", "2",
         "--seconds", SMOKE_SECONDS],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "exact-bnb"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _solver_records(workload):
    inputs = workloads.build(workload, 3, 0.1)
    unit = next(u for u in inputs.units if len(u.jobs) > 1)  # not a one-job hard-tail unit
    records = workloads.run_unit(inputs, unit, workdir="")
    return inputs, records


def _gate_solver(inputs, records):
    for r in records:
        r.problems.clear()
        r.extra.clear()
    gate.check_solver_records(records, inputs.units, inputs.coefficients)
    return [r.problems for r in records]


def _crowded(assignment: Assignment) -> Assignment:
    """Every task in window 1: exceeds the cluster capacity there."""
    placements = tuple(dataclasses.replace(p, window=1) for p in assignment.placements)
    return Assignment(placements, assignment.window_lengths_ms)


@pytest.mark.parametrize("workload", ["exact-bnb", "ga-loose"])
def test_gate_counts_tampered_solver_results_as_failed(workload):
    inputs, records = _solver_records(workload)
    assert not any(_gate_solver(inputs, records))

    for i in range(len(records)):
        tampered = copy.deepcopy(records)
        tampered[i].objective += 1e-6
        assert _gate_solver(inputs, tampered)[i], f"objective of {records[i].key} off by 1e-6"

        tampered = copy.deepcopy(records)
        tampered[i].assignment = _crowded(tampered[i].assignment)
        assert _gate_solver(inputs, tampered)[i], f"infeasible assignment of {records[i].key}"


def test_gate_counts_a_wrong_optimal_status_as_failed():
    inputs, records = _solver_records("exact-bnb")
    reference = gate.reference_entries(records)
    assert reference
    tampered = copy.deepcopy(records)
    key = next(iter(reference))
    rec = next(r for r in tampered if r.key == key)
    rec.status = "feasible_timeout"  # still a valid answer, but not the recorded fact
    for r in tampered:
        r.problems.clear()
    gate.check_reference(tampered, reference)
    assert rec.problems


def _cli_session(tmp_path):
    inputs = workloads.build("cli-pipeline", 3, 0.1)
    unit = inputs.units[0]
    records = workloads.run_unit(inputs, unit, str(tmp_path))
    return inputs, unit, records


def _gate_cli(inputs, records):
    for r in records:
        r.problems.clear()
    gate.check_cli_records(records, inputs.units, inputs.coefficients)
    return {r.method: r.problems for r in records}


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def test_gate_counts_tampered_cli_outputs_as_failed(tmp_path):
    inputs, unit, records = _cli_session(tmp_path)
    assert not any(_gate_cli(inputs, records).values())
    paths = workloads.cli_paths(str(tmp_path), unit)

    _edit_json(paths["evaluate-lr"], lambda d: d.update(watts=d["watts"] + 1e-6))
    assert _gate_cli(inputs, records)["evaluate-lr"]

    flow_result = os.path.splitext(paths["flow-fixed"])[0] + ".result.json"
    _edit_json(flow_result, lambda d: d.update(objective_value=d["objective_value"] + 1e-6))
    assert _gate_cli(inputs, records)["flow-fixed"]


def test_gate_fails_a_cli_job_that_leaves_an_earlier_runs_output(tmp_path, monkeypatch):
    inputs, unit, _ = _cli_session(tmp_path)
    real_main = workloads.cli.main
    monkeypatch.setattr(workloads.cli, "main",
                        lambda argv: 0 if argv[0] == "evaluate" else real_main(argv))
    problems = _gate_cli(inputs, workloads.run_unit(inputs, unit, str(tmp_path)))
    assert problems["evaluate-sm"]


def test_gate_counts_an_infeasible_cli_assignment_as_failed(tmp_path):
    inputs, unit, records = _cli_session(tmp_path)
    paths = workloads.cli_paths(str(tmp_path), unit)

    def crowd(doc):
        for p in doc["placements"]:
            p["window"] = 1

    _edit_json(paths["idle-max"], crowd)
    assert _gate_cli(inputs, records)["idle-max"]


def test_speed_tracker_scales_jobs_by_the_probes_around_them():
    short = workloads.Record("u/a", "u", "ilp-sm", speed.MIN_GAP_S / 4, status="optimal")
    longer = workloads.Record("u/b", "u", "ilp-sm", speed.MIN_GAP_S, status="optimal")
    tracker = speed.Tracker()
    tracker.add([short])
    assert len(tracker.probes) == 1 and tracker.pending == [short]
    tracker.add([longer])
    assert len(tracker.probes) == 2 and not tracker.pending
    factor = speed.NOMINAL_S / ((tracker.probes[0] + tracker.probes[1]) / 2)
    assert short.scale == longer.scale == factor
    assert longer.scaled_seconds == speed.MIN_GAP_S * factor
    assert tracker.slowdown == tracker.probes[-1] / speed.NOMINAL_S
