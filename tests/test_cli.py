import csv
import json

import pytest

import helpers
import thermosched as ts
from thermosched.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNKNOWN_TIMEOUT,
    EXIT_USAGE,
    _STATUS_EXIT,
    main,
)


def test_exit_code_contract():
    assert _STATUS_EXIT["optimal"] == EXIT_OK
    assert _STATUS_EXIT["feasible"] == EXIT_OK
    assert _STATUS_EXIT["feasible_timeout"] == EXIT_OK
    assert _STATUS_EXIT["infeasible"] == EXIT_INFEASIBLE
    assert _STATUS_EXIT["unknown_timeout"] == EXIT_UNKNOWN_TIMEOUT
    assert _STATUS_EXIT["unknown"] == EXIT_UNKNOWN_TIMEOUT


def infeasible_instance():
    plat = ts.Platform(
        clusters=(
            ts.Cluster(id=1, core_count=1, label="a", frequency_mhz=1000),
            ts.Cluster(id=2, core_count=1, label="b", frequency_mhz=1000),
        ),
        idle_power_watts=1.0,
    )
    tasks = tuple(
        ts.Task(i, f"t{i}", (
            ts.TaskCharacteristics(1, 900, 0.5, 0.5),
            ts.TaskCharacteristics(2, 900, 0.5, 0.5),
        ))
        for i in (1, 2, 3)
    )
    return ts.Instance(plat, tasks, 1000, 3)


@pytest.fixture
def example_files(tmp_path):
    instance = helpers.worked_example()
    assignment = helpers.worked_example_assignment(instance)
    inst_path = tmp_path / "inst.json"
    asg_path = tmp_path / "asg.json"
    ts.save_instance(instance, str(inst_path))
    ts.save_assignment(assignment, str(asg_path))
    return str(inst_path), str(asg_path)


class TestGenerate:
    def test_writes_valid_instance_and_manifest(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main([
            "generate", "--n", "10", "--kappa", "3.5", "--kernels", "mixed",
            "--seed", "7", "-o", str(out),
        ])
        assert code == EXIT_OK
        instance = ts.load_instance(str(out))
        assert ts.validate_instance(instance) == []
        manifest = json.loads((tmp_path / "inst.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["rng_seed"] == 7
        assert manifest["outputs"] == [str(out)]

    def test_missing_kernels_is_usage_error(self, tmp_path):
        code = main(["generate", "--n", "5", "-o", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["generate", "--n", "12", "--kernels", "mixed", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_replay_reproduces_output(self, tmp_path):
        out = tmp_path / "inst.json"
        main(["generate", "--n", "8", "--kernels", "cpu", "--seed", "11", "-o", str(out)])
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "inst.manifest.json").read_text())
        out.unlink()
        assert main(manifest["argv"]) == EXIT_OK
        assert out.read_bytes() == first


class TestSolve:
    def test_dispatch_and_exit_code(self, tmp_path, example_files):
        inst_path, _ = example_files
        out = tmp_path / "sol.json"
        code = main([
            "solve", inst_path, "--method", "ilp-sm", "--time-limit", "300000",
            "-o", str(out),
        ])
        assert code == EXIT_OK
        assignment = ts.load_assignment(str(out))
        instance = ts.load_instance(inst_path)
        assert ts.check_feasible(instance, assignment).feasible
        result = json.loads((tmp_path / "sol.result.json").read_text())
        assert result["status"] == "optimal"
        assert isinstance(result["nodes_explored"], int) and result["nodes_explored"] >= 1

    def test_flow_fixed_needs_lengths(self, tmp_path, example_files):
        inst_path, _ = example_files
        code = main([
            "solve", inst_path, "--method", "flow-fixed", "-o", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE

    def test_unknown_method(self, tmp_path, example_files):
        inst_path, _ = example_files
        code = main([
            "solve", inst_path, "--method", "magic", "-o", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE

    def test_infeasible_exit_code(self, tmp_path):
        inst_path = tmp_path / "bad.json"
        ts.save_instance(infeasible_instance(), str(inst_path))
        code = main([
            "solve", str(inst_path), "--method", "ilp-sm", "-o", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_INFEASIBLE
        result = json.loads((tmp_path / "x.result.json").read_text())
        assert result["status"] == "infeasible"

    @pytest.mark.parametrize("document", ["[]", '{"clusters": 5}'], ids=["list", "scalar-clusters"])
    def test_malformed_coefficients_are_an_error(self, tmp_path, capsys, example_files, document):
        inst_path, _ = example_files
        coeff_path = tmp_path / "c.json"
        coeff_path.write_text(document)
        code = main([
            "solve", inst_path, "--method", "qp-lr-ub", "--coefficients", str(coeff_path),
            "-o", str(tmp_path / "x.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bb_sm_seed_determinism(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "6", "--kernels", "mixed", "--seed", "5", "-o", str(inst_path)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "solve", str(inst_path), "--method", "bb-sm", "--seed", "1",
            "--max-generations", "6", "--time-limit", "600000",
        ]
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bb_sm_without_schedule_reports_unknown(self, tmp_path, capsys):
        # q = n windows: no random genome of this instance repairs within
        # five generations, yet ilp-sm proves an optimum, so the GA's
        # empty result must not claim infeasibility
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "10", "--kernels", "mixed", "--seed", "7", "-o", str(inst_path)])
        code = main([
            "solve", str(inst_path), "--method", "bb-sm", "--seed", "1",
            "--max-generations", "5", "--time-limit", "600000",
            "-o", str(tmp_path / "ga.json"),
        ])
        assert code == EXIT_UNKNOWN_TIMEOUT
        assert "bb-sm: unknown" in capsys.readouterr().out
        result = json.loads((tmp_path / "ga.result.json").read_text())
        assert result["status"] == "unknown" and result["objective_value"] is None
        assert result["nodes_explored"] is None  # the GA explores no search tree
        assert not (tmp_path / "ga.json").exists()
        assert main([
            "solve", str(inst_path), "--method", "ilp-sm", "-o", str(tmp_path / "ilp.json"),
        ]) == EXIT_OK
        exact = json.loads((tmp_path / "ilp.result.json").read_text())
        assert exact["status"] == "optimal"
        assert exact["objective_value"] == pytest.approx(7.660336, abs=1e-6)

    def test_flow_fixed_runs(self, tmp_path, example_files):
        inst_path, _ = example_files
        out = tmp_path / "flow.json"
        code = main([
            "solve", inst_path, "--method", "flow-fixed",
            "--window-lengths", "700", "-o", str(out),
        ])
        assert code == EXIT_OK

    def test_bb_sm_writes_trace_and_honors_config_file(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main([
            "generate", "--n", "5", "--kappa", "1.2", "--kernels", "mixed",
            "--seed", "8", "-o", str(inst_path),
        ])
        config_path = tmp_path / "ga.json"
        config_path.write_text(json.dumps({"population_size": 40, "stall_generations": 3}))
        out = tmp_path / "sol.json"
        code = main([
            "solve", str(inst_path), "--method", "bb-sm", "--seed", "2",
            "--max-generations", "5", "--ga-config", str(config_path),
            "--time-limit", "600000", "-o", str(out),
        ])
        assert code == EXIT_OK
        trace = (tmp_path / "sol.trace.csv").read_text().splitlines()
        assert trace[0] == "generation,restart,best_fitness"
        assert len(trace) == 6  # 5 generations recorded


class TestEvaluate:
    def test_sm_worked_example(self, capsys, example_files):
        inst_path, asg_path = example_files
        assert main(["evaluate", inst_path, asg_path, "--model", "sm"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["watts"] - 8.58) < 0.01

    def test_lr_worked_example(self, capsys, example_files):
        inst_path, asg_path = example_files
        code = main([
            "evaluate", inst_path, asg_path, "--model", "lr",
            "--coefficients", "imx8-mek",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["watts"] - 8.17) < 0.01

    def test_temperature_without_parameters(self, example_files):
        inst_path, asg_path = example_files
        code = main(["evaluate", inst_path, asg_path, "--temperature"])
        assert code not in (EXIT_OK,)

    def test_matches_solver_objective(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "7", "--kernels", "mixed", "--seed", "2", "-o", str(inst_path)])
        out = tmp_path / "sol.json"
        main(["solve", str(inst_path), "--method", "ilp-sm", "-o", str(out)])
        result = json.loads((tmp_path / "sol.result.json").read_text())
        capsys.readouterr()
        main(["evaluate", str(inst_path), str(out), "--model", "sm"])
        report = json.loads(capsys.readouterr().out)
        assert abs(report["watts"] - result["objective_value"]) < 1e-9


class TestFit:
    def test_noise_free_fit(self, tmp_path):
        import random
        from test_power import synthetic_samples

        samples = synthetic_samples(
            helpers.MEK, ((1.205, 0.270), (0.969, 0.456)), 50, 0.0, random.Random(0)
        )
        samples_path = tmp_path / "samples.csv"
        ts.write_fit_samples_csv(samples, str(samples_path))
        out = tmp_path / "coeff.json"
        code = main(["fit", str(samples_path), "--platform", "imx8-mek", "-o", str(out)])
        assert code == EXIT_OK
        fit = ts.load_coefficients(str(out))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.betas[0][0] == pytest.approx(1.205, abs=1e-6)


class TestExportGantt:
    def test_seven_bars_three_boundaries(self, tmp_path):
        instance, assignment = helpers.seven_task_layout()
        inst_path, asg_path = tmp_path / "i.json", tmp_path / "a.json"
        ts.save_instance(instance, str(inst_path))
        ts.save_assignment(assignment, str(asg_path))
        out = tmp_path / "g.svg"
        code = main(["export-gantt", str(inst_path), str(asg_path), "-o", str(out)])
        assert code == EXIT_OK
        svg = out.read_text()
        assert svg.count('class="task-bar"') == 7
        assert svg.count('class="window-boundary"') == 3

    def test_empty_schedule_outline_only(self, tmp_path):
        instance = ts.Instance(helpers.MEK, (), 100, 1)
        assignment = ts.Assignment((), (0,))
        inst_path, asg_path = tmp_path / "i.json", tmp_path / "a.json"
        ts.save_instance(instance, str(inst_path))
        ts.save_assignment(assignment, str(asg_path))
        out = tmp_path / "g.svg"
        assert main(["export-gantt", str(inst_path), str(asg_path), "-o", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert svg.count('class="task-bar"') == 0
        assert svg.count('class="window-boundary"') == 0
        assert svg.count('class="frame"') == 1

    def test_byte_identical(self, tmp_path):
        instance, assignment = helpers.seven_task_layout()
        inst_path, asg_path = tmp_path / "i.json", tmp_path / "a.json"
        ts.save_instance(instance, str(inst_path))
        ts.save_assignment(assignment, str(asg_path))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["export-gantt", str(inst_path), str(asg_path), "-o", str(a)])
        main(["export-gantt", str(inst_path), str(asg_path), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCompare:
    def _read_rows(self, path):
        with open(path) as f:
            return list(csv.DictReader(f))

    def test_exact_method_has_minimum_predicted_power(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "8", "--kernels", "mixed", "--seed", "4", "-o", str(inst_path)])
        out = tmp_path / "cmp.csv"
        code = main([
            "compare", str(inst_path),
            "--methods", "ilp-sm,qp-lr-ub,bb-sm,bb-lr,heur,idle-min,idle-max",
            "--model", "sm", "--coefficients", "imx8-mek",
            "--time-limit", "1200", "--seed", "1", "-o", str(out),
        ])
        assert code == EXIT_OK
        rows = self._read_rows(out)
        assert len(rows) == 7
        powers = {r["method"]: float(r["predicted_power_watts"]) for r in rows if r["predicted_power_watts"]}
        assert powers["ilp-sm"] == pytest.approx(min(powers.values()), abs=1e-9)

    def test_single_method(self, tmp_path, example_files):
        inst_path, _ = example_files
        out = tmp_path / "cmp.csv"
        assert main([
            "compare", inst_path, "--methods", "heur", "-o", str(out),
        ]) == EXIT_OK
        rows = self._read_rows(out)
        assert len(rows) == 1 and rows[0]["method"] == "heur"

    def test_infeasible_instance_all_rows_infeasible(self, tmp_path):
        inst_path = tmp_path / "bad.json"
        ts.save_instance(infeasible_instance(), str(inst_path))
        out = tmp_path / "cmp.csv"
        assert main([
            "compare", str(inst_path), "--methods", "ilp-sm,heur,idle-min",
            "--time-limit", "5000", "-o", str(out),
        ]) == EXIT_OK
        rows = self._read_rows(out)
        assert all(r["status"] == "infeasible" for r in rows)


class TestSweepCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--sizes", "5", "--reps", "1", "--methods", "heur,idle-max",
            "--time-limit", "10000", "--kernels", "mixed", "--seed", "0",
            "-o", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,method,rep,status,elapsed_ms,objective,bound"
        assert len(lines) == 3

    def test_flow_fixed_not_sweepable(self, tmp_path):
        code = main([
            "sweep", "--sizes", "5", "--methods", "flow-fixed", "--kernels", "mixed",
            "--seed", "0", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE
