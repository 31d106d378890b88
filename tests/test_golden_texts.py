"""The exact text of every document writer, pinned to files under data/golden.

The determinism tests compare two runs of the same code; these compare one
run with text recorded once, so a rewrite of a writer must keep its bytes.
"""

import io
import math
import pathlib

import pytest

import helpers
import thermosched as ts
from thermosched import cli
from thermosched.generator import SweepCell
from thermosched.heuristics import TracePoint
from thermosched.runners import MethodOutcome

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"


def written(write, value) -> str:
    buf = io.StringIO()
    write(value, buf)
    return buf.getvalue()


def instance_text() -> str:
    return written(ts.save_instance, helpers.worked_example())


def instance_with_options_text() -> str:
    return written(ts.save_instance, helpers.with_every_option(helpers.worked_example()))


def assignment_text() -> str:
    return written(ts.save_assignment, helpers.worked_example_assignment(helpers.worked_example()))


def sweep_text() -> str:
    cells = [
        SweepCell(6, "ilp-sm", 0, "optimal", 12.5, 0.1 + 0.2, 0.30000000000000004),
        SweepCell(6, "bb-sm", 0, "unknown", 0.0625, None, None),
        SweepCell(12, "heur", 1, "feasible", 3e-05, 6.25, None),
    ]
    return written(ts.write_sweep_csv, cells)


def trace_text() -> str:
    trace = [TracePoint(0, 0, math.inf), TracePoint(1, 0, 6.2833), TracePoint(2, 1, 1e-7)]
    return written(ts.write_fitness_trace_csv, trace)


def fit_samples_text() -> str:
    samples = [
        ts.FitSample(1000, 6.1, ((0.1 + 0.2, 1e-07), (2.0, 0.0))),
        ts.FitSample(500, 5.5, ((0.0, 0.0), (1.5, 3e20))),
    ]
    return written(ts.write_fit_samples_csv, samples)


def compare_bytes(tmp_path, monkeypatch) -> bytes:
    instance = helpers.worked_example()
    solved = MethodOutcome(
        "heur", "feasible", helpers.worked_example_assignment(instance), 6.5, None, 12.5
    )
    unsolved = MethodOutcome("idle-min", "unknown", None, None, None, 0.25)
    outcomes = {"heur": solved, "idle-min": unsolved}
    monkeypatch.setattr(cli, "run_method", lambda method, *a, **k: outcomes[method])
    inst, out = tmp_path / "inst.json", tmp_path / "cmp.csv"
    ts.save_instance(instance, str(inst))
    assert cli.main(
        ["compare", str(inst), "--methods", "idle-min,heur", "--model", "sm", "-o", str(out)]
    ) == 0
    return out.read_bytes()


TEXTS = {
    "instance.json": instance_text,
    "instance_with_options.json": instance_with_options_text,
    "assignment.json": assignment_text,
    "sweep.csv": sweep_text,
    "trace.csv": trace_text,
    "fit_samples.csv": fit_samples_text,
}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_writer_text_is_pinned(name):
    assert TEXTS[name]().encode() == (GOLDEN / name).read_bytes()


def test_compare_text_is_pinned(tmp_path, monkeypatch):
    assert compare_bytes(tmp_path, monkeypatch) == (GOLDEN / "compare.csv").read_bytes()
