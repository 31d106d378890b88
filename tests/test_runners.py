import importlib.util
import sys
import time
from pathlib import Path

import pytest

import helpers
import thermosched.model as model
import thermosched.runners as runners
from thermosched.generator import GeneratorConfig, generate_instance, sweep_seed
from thermosched.heuristics import GaConfig, greedy
from thermosched.model import check_feasible
from thermosched.presets import builtin_coefficients
from thermosched.runners import METHOD_NAMES, METHODS, run_method

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
EXACT_METHODS = ("ilp-sm", "qp-lr-ub", "idle-min", "idle-max")
# The name each method must call in `runners`; a tracer that replaces
# these names there sees every solver call.
SOLVER_NAMES = {
    "ilp-sm": ["solve"],
    "qp-lr-ub": ["solve"],
    "bb-sm": ["run_ga"],
    "bb-lr": ["run_ga"],
    "heur": ["greedy"],
    "idle-min": ["solve"],
    "idle-max": ["solve"],
    "flow-fixed": ["build_network", "min_cost_assignment"],
}


class TestRunMethod:
    def test_unknown_method(self):
        instance = helpers.small_random_instance(0)
        with pytest.raises(ValueError, match="unknown method"):
            run_method("simplex", instance)

    def test_heur_checks_each_instance_once(self, monkeypatch, tmp_path):
        # the check runs once, when load_instance builds the instance; the
        # method adds none
        path = str(tmp_path / "inst.json")
        model.save_instance(helpers.small_random_instance(3, n=12), path)
        checked = []
        real = model._instance_violations

        def spy(inst):
            checked.append(inst)
            return real(inst)

        monkeypatch.setattr(model, "_instance_violations", spy)
        instance = model.load_instance(path)
        assert len(checked) == 1 and checked[0] is instance
        outcome = run_method("heur", instance)
        assert outcome.assignment is not None
        assert len(checked) == 1

    def test_exact_outcome_shape(self):
        instance = helpers.small_random_instance(1)
        outcome = run_method("ilp-sm", instance, time_limit_ms=60000)
        assert outcome.method == "ilp-sm"
        assert outcome.status in ("optimal", "infeasible")
        if outcome.status == "optimal":
            assert outcome.objective == pytest.approx(outcome.bound, abs=1e-9)

    def test_ga_needs_time_limit(self):
        instance = helpers.small_random_instance(2)
        with pytest.raises(ValueError, match="time limit"):
            run_method("bb-sm", instance)

    def test_flow_needs_lengths(self):
        instance = helpers.small_random_instance(3)
        with pytest.raises(ValueError, match="window lengths"):
            run_method("flow-fixed", instance)

    def test_heur_on_a_task_free_instance(self):
        # nothing to fix: the empty assignment is feasible, as ilp-sm proves
        instance = model.Instance(helpers.MEK, (), 100, 3)
        outcome = run_method("heur", instance)
        assert outcome.status == "feasible"
        assert outcome.assignment == model.Assignment((), (0, 0, 0))
        assert check_feasible(instance, outcome.assignment)
        assert run_method("ilp-sm", instance).status == "optimal"

    def test_heuristic_statuses(self):
        instance = helpers.small_random_instance(4)
        outcome = run_method("heur", instance)
        assert outcome.status in ("feasible", "infeasible")
        assert outcome.objective is None


# The README promises that every run returns within its limit plus this.
# Measured overruns are at most 3.5 ms; the rest leaves room for a loaded host.
LIMIT_SLACK_MS = 25.0


@pytest.mark.parametrize(
    "method, n, kappa, seed, limit_ms, ga_config",
    [
        # without a limit heur needs about 0.4 s (n=30) and 1.2-1.5 s (n=60)
        ("heur", 30, 5.0, 3, 10, None),
        ("heur", 60, 5.0, 2, 100, None),
        # one generation takes about 1 ms
        ("bb-sm", 20, 1.0, 5, 100, GaConfig(population_size=50, max_generations=1000)),
        ("ilp-sm", 24, 3.5, sweep_seed(0, 24, 0), 50, None),
    ],
)
def test_run_ends_within_its_time_limit(method, n, kappa, seed, limit_ms, ga_config):
    config = GeneratorConfig(
        kernel_pool=helpers.MIXED_POOL, n_tasks=n, rng_seed=seed, tightness_kappa=kappa
    )
    instance = generate_instance(config, helpers.MEK)
    t0 = time.perf_counter()
    outcome = run_method(method, instance, time_limit_ms=limit_ms, ga_config=ga_config)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert limit_ms <= outcome.elapsed_ms <= wall_ms <= limit_ms + LIMIT_SLACK_MS
    if method == "heur":  # a spent budget is no verdict
        assert (outcome.status, outcome.assignment) == ("unknown", None)
    elif method == "bb-sm":
        assert outcome.status == "feasible" and len(outcome.trace) < 1000
    else:
        assert outcome.status == "feasible_timeout"


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_method_table_entry(method, monkeypatch):
    instance = helpers.small_random_instance(5)  # n=7; every method finds a schedule
    lengths = greedy(instance).window_lengths_ms
    calls = []
    for name in ("solve", "run_ga", "greedy", "build_network", "min_cost_assignment"):
        monkeypatch.setattr(runners, name, _counting(calls, name, getattr(runners, name)))
    outcome = run_method(
        method,
        instance,
        time_limit_ms=30000,
        coefficients=builtin_coefficients("imx8-mek"),
        window_lengths=lengths,
        ga_config=GaConfig(population_size=30, max_generations=10, rng_seed=0),
    )
    assert calls == SOLVER_NAMES[method]
    assert outcome.method == method
    assert isinstance(outcome.nodes, int) == (method in EXACT_METHODS)
    assert (outcome.trace is not None) == METHODS[method].randomized
    assert (outcome.bound is None) == (method in ("bb-sm", "bb-lr", "heur"))
    assert outcome.assignment is not None
    assert check_feasible(instance, outcome.assignment).feasible



def test_tracer_targets_exist(monkeypatch):
    # The benchmark tracer wraps package names by (module, attribute); a
    # renamed or deleted name makes every traced benchmark run fail.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in tracer.Tracer()._targets()
        if not hasattr(module, attr)
    ]
    assert missing == []
