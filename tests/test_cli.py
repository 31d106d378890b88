import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import xml.dom.minidom

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from thermosched.presets import kernel_pool_text

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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


# Well-formed coefficient documents that do not fit the two-cluster platform.
MISMATCHED_COEFFICIENTS = {
    "cluster-1-only": '{"clusters": [{"cluster_id": 1, "beta": [1.2, 0.3]}]}',
    "cluster-ids-1-3": (
        '{"clusters": [{"cluster_id": 1, "beta": [1.2, 0.3]},'
        ' {"cluster_id": 3, "beta": [1.0, 0.5]}]}'
    ),
    "short-beta": (
        '{"clusters": [{"cluster_id": 1, "beta": [1.0]},'
        ' {"cluster_id": 2, "beta": [1.0, 0.5]}]}'
    ),
}
# Each command reads the coefficients: argv from (instance path, assignment path).
COEFFICIENT_COMMANDS = {
    "qp-lr-ub": lambda inst, asg: ["solve", inst, "--method", "qp-lr-ub"],
    "bb-lr": lambda inst, asg: [
        "solve", inst, "--method", "bb-lr", "--seed", "1", "--max-generations", "2",
    ],
    "evaluate-lr-ub": lambda inst, asg: ["evaluate", inst, asg, "--model", "lr-ub"],
}


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
        assert math.ceil(10 / instance.platform.total_cores) <= instance.max_windows <= 10
        manifest = json.loads((tmp_path / "inst.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["rng_seed"] == 7
        assert manifest["outputs"] == [str(out)]

    def test_missing_kernels_is_usage_error(self, tmp_path):
        code = main(["generate", "--n", "5", "-o", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n", "0"],
            ["generate", "--n", "-3"],
            ["sweep", "--sizes", "0", "--methods", "heur"],
            ["sweep", "--sizes", "-4", "--methods", "heur"],
        ],
        ids=["generate-n-zero", "generate-n-negative", "sweep-size-zero", "sweep-size-negative"],
    )
    def test_size_below_one_is_an_error(self, tmp_path, capsys, argv):
        code = main(argv + ["--kernels", "mixed", "--seed", "1", "-o", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: n_tasks must be at least 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_kappa_must_be_positive_and_finite(self, tmp_path, capsys, command, kappa):
        argv = [command, f"--kappa={kappa}", "--kernels", "mixed", "--seed", "1"]
        if command == "generate":
            argv += ["--n", "3"]
        else:
            argv += ["--sizes", "3", "--methods", "heur"]
        code = main(argv + ["-o", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: tightness_kappa must be positive and finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("ips", "0", "ips must be positive and finite, got 0.0"),
            ("ips", "-5", "ips must be positive and finite, got -5.0"),
            ("ips", "nan", "ips must be positive and finite, got nan"),
            ("ips", "inf", "ips must be positive and finite, got inf"),
            ("frequency_mhz", "0", "frequency_mhz must be positive, got 0"),
            ("frequency_mhz", "-5", "frequency_mhz must be positive, got -5"),
            ("activity_coef", "nan", "activity_coef and offset_coef must be finite"),
            ("offset_coef", "-inf", "activity_coef and offset_coef must be finite"),
        ],
        ids=["ips-zero", "ips-negative", "ips-nan", "ips-inf", "frequency-zero",
             "frequency-negative", "activity-nan", "offset-inf"],
    )
    def test_kernel_pool_number_out_of_range_names_the_line(
        self, tmp_path, capsys, column, value, message
    ):
        rows = list(csv.reader(io.StringIO(kernel_pool_text("mixed"))))
        for row in rows[1:]:
            if row[1] == "1":
                row[rows[0].index(column)] = value
        pool = tmp_path / "pool.csv"
        pool.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "inst.json"
        code = main(["generate", "--n", "5", "--kernels", str(pool), "--seed", "1", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["pool.csv"]

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["generate", "--n", "12", "--kernels", "mixed", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_calls_share_no_parsed_state(self, tmp_path):
        args = ["generate", "--kernels", "mixed", "--seed", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--n", "7", "-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert json.loads((tmp_path / "b.manifest.json").read_text())["flags"]["n"] == 20
        assert len(ts.load_instance(str(b)).tasks) == 20

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

    def test_heur_oracle_timeout_reports_unknown(self, tmp_path):
        # heur finds a schedule without a limit, but the oracle needs about
        # 87k nodes to rule out the first task's cheapest cluster
        inst = tmp_path / "i.json"
        main([
            "generate", "--n", "30", "--kappa", "5.0", "--kernels", "mixed",
            "--platform", "imx8-mek", "--seed", "3", "-o", str(inst),
        ])
        out = tmp_path / "x.json"
        code = main(["solve", str(inst), "--method", "heur", "--time-limit", "1", "-o", str(out)])
        assert code == EXIT_UNKNOWN_TIMEOUT
        assert json.loads((tmp_path / "x.result.json").read_text())["status"] == "unknown"
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["0", "-5", "nan"])
    @pytest.mark.parametrize("method", ["ilp-sm", "idle-max", "heur", "bb-sm", "flow-fixed"])
    def test_time_limit_that_is_not_positive_is_an_error(
        self, tmp_path, capsys, example_files, method, limit
    ):
        # the fixed-window flow reads no limit, yet refuses one like the others
        inst_path, _ = example_files
        code = main([
            "solve", inst_path, "--method", method, "--time-limit", limit,
            "--max-generations", "2", "--window-lengths", "700", "-o", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "time_limit_ms must be positive" in capsys.readouterr().err
        assert list(tmp_path.glob("*.result.json")) == []

    def test_heur_on_a_task_free_instance(self, tmp_path):
        inst, out = tmp_path / "i.json", tmp_path / "x.json"
        ts.save_instance(ts.Instance(helpers.MEK, (), 100, 3), str(inst))
        assert main(["solve", str(inst), "--method", "heur", "-o", str(out)]) == EXIT_OK
        assert json.loads((tmp_path / "x.result.json").read_text())["status"] == "feasible"
        assert ts.load_assignment(str(out)) == ts.Assignment((), (0, 0, 0))

    def test_integer_too_large_for_a_float_is_a_parse_error(self, tmp_path, capsys):
        # json reads 1e400 as inf, which int() cannot convert
        inst = tmp_path / "i.json"
        ts.save_instance(helpers.worked_example(), str(inst))
        text, count = re.subn(r'"exec_time_ms": \d+', '"exec_time_ms": 1e400', inst.read_text(), 1)
        assert count == 1
        inst.write_text(text)
        code = main(["solve", str(inst), "--method", "heur", "-o", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: instance document has a field of the wrong type: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, message",
        [
            pytest.param("NaN", "cannot convert float NaN to integer", id="nan"),
            pytest.param('"abc"', "invalid literal for int()", id="string"),
        ],
    )
    def test_integer_field_int_cannot_read_is_a_parse_error(
        self, tmp_path, capsys, value, message
    ):
        inst = tmp_path / "i.json"
        main(["generate", "--n", "6", "--kappa", "3.5", "--seed", "3", "--kernels", "mixed",
              "-o", str(inst)])
        text, count = re.subn(
            r'"exec_time_ms": \d+', f'"exec_time_ms": {value}', inst.read_text(), 1
        )
        assert count == 1
        inst.write_text(text)
        capsys.readouterr()
        code = main(["solve", str(inst), "--method", "heur", "-o", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: instance document has a field of the wrong type: " + message)
        assert "Traceback" not in err

    def test_task_order_in_the_document_does_not_matter(self, tmp_path):
        inst, rev = tmp_path / "i.json", tmp_path / "r.json"
        main(["generate", "--n", "12", "--kappa", "1.0", "--seed", "3", "--kernels", "mixed",
              "-o", str(inst)])
        doc = json.loads(inst.read_text())
        doc["tasks"].reverse()
        rev.write_text(json.dumps(doc))
        assert ts.load_instance(str(rev)) == ts.load_instance(str(inst))
        for name, path in (("a", inst), ("b", rev)):
            assert main([
                "solve", str(path), "--method", "bb-sm", "--seed", "1",
                "--max-generations", "30", "-o", str(tmp_path / f"{name}.json"),
            ]) == EXIT_OK
        for suffix in (".json", ".trace.csv"):
            assert (tmp_path / f"a{suffix}").read_text() == (tmp_path / f"b{suffix}").read_text()

    @pytest.mark.parametrize(
        "document, command",
        [
            pytest.param("[]", "qp-lr-ub", id="list"),
            pytest.param('{"clusters": 5}', "qp-lr-ub", id="scalar-clusters"),
            pytest.param(
                '{"clusters": [{"cluster_id": 1, "beta": 5}]}', "qp-lr-ub", id="scalar-beta"
            ),
        ] + [
            pytest.param(document, command, id=f"{name}-{command}")
            for name, document in MISMATCHED_COEFFICIENTS.items()
            for command in COEFFICIENT_COMMANDS
        ],
    )
    def test_malformed_coefficients_are_an_error(
        self, tmp_path, capsys, example_files, document, command
    ):
        inst_path, asg_path = example_files
        coeff_path = tmp_path / "c.json"
        coeff_path.write_text(document)
        argv = COEFFICIENT_COMMANDS[command](inst_path, asg_path)
        code = main(argv + ["--coefficients", str(coeff_path), "-o", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "document", ['{"crossover_rate": "x"}', '{"population_size": 40.5}'],
        ids=["string-rate", "fractional-population"],
    )
    def test_ga_config_field_of_wrong_type_is_an_error(
        self, tmp_path, capsys, example_files, document
    ):
        inst_path, _ = example_files
        config_path = tmp_path / "ga.json"
        config_path.write_text(document)
        code = main([
            "solve", inst_path, "--method", "bb-sm", "--seed", "1", "--max-generations", "2",
            "--ga-config", str(config_path), "-o", str(tmp_path / "x.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: GA config: ") and "Traceback" not in err
        assert not (tmp_path / "x.result.json").exists()

    @pytest.mark.parametrize(
        "document, generations, message",
        [
            ('{"elite_discard_fraction": -0.5}', "5", "elite_discard_fraction must lie in [0, 1]"),
            ('{"bga_precision_bits": 0, "mutation_rate": 1.0}', "5", "bga_precision_bits must lie in 1..53"),
            ('{"max_generations": 0}', None, "max_generations must be at least 1"),
            ("{}", "0", "max_generations must be at least 1"),
            ("{}", "-5", "max_generations must be at least 1"),
            ('{"stall_generations": 0}', "5", "stall_generations must be at least 1"),
            ('{"population_size": 1}', "5", "population_size must be at least 2"),
            ('{"bga_mutation_range": NaN, "mutation_rate": 1.0}', "5",
             "bga_mutation_range must be finite"),
            ('{"bga_mutation_range": Infinity, "mutation_rate": 1.0}', "5",
             "bga_mutation_range must be finite"),
        ],
        ids=[
            "negative-discard-fraction", "zero-precision-bits", "zero-max-generations",
            "zero-max-generations-flag", "negative-max-generations-flag",
            "zero-stall-generations", "one-genome-population", "nan-mutation-range",
            "infinite-mutation-range",
        ],
    )
    def test_ga_config_field_out_of_range_is_an_error(
        self, tmp_path, capsys, document, generations, message
    ):
        inst_path = tmp_path / "inst.json"
        main([
            "generate", "--n", "10", "--kappa", "1.0", "--kernels", "mixed", "--seed", "3",
            "-o", str(inst_path),
        ])
        config_path = tmp_path / "ga.json"
        config_path.write_text(document)
        flag = [] if generations is None else ["--max-generations", generations]
        code = main([
            "solve", str(inst_path), "--method", "bb-sm", *flag,
            "--ga-config", str(config_path), "-o", str(tmp_path / "x.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "x.result.json").exists()

    @pytest.mark.parametrize("file_seed", [5, -1])
    def test_ga_config_seed_is_replaced_by_the_command_seed(self, tmp_path, file_seed):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "6", "--kappa", "1.0", "--kernels", "mixed", "--seed", "5",
              "-o", str(inst_path)])
        config_path = tmp_path / "ga.json"
        config_path.write_text(json.dumps({"rng_seed": file_seed}))
        args = [
            "solve", str(inst_path), "--method", "bb-sm", "--seed", "1", "--max-generations", "4",
        ]
        with_file = args + ["--ga-config", str(config_path), "-o", str(tmp_path / "a.json")]
        assert main(with_file) == EXIT_OK
        assert main(args + ["-o", str(tmp_path / "b.json")]) == EXIT_OK
        assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()

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


@pytest.mark.parametrize("document", ["platform", "instance", "assignment"])
def test_document_field_of_wrong_type_is_an_error(tmp_path, capsys, example_files, document):
    inst_path, asg_path = example_files
    bad = tmp_path / "bad.json"
    if document == "platform":
        bad.write_text('{"clusters": 5, "idle_power_watts": 1}')
        argv = ["generate", "--kernels", "mixed", "--platform", str(bad), "-o", str(tmp_path / "g.json")]
    else:
        path, field = (inst_path, "tasks") if document == "instance" else (asg_path, "placements")
        doc = json.loads(pathlib.Path(path).read_text())
        doc[field] = 3
        bad.write_text(json.dumps(doc))
        pair = [str(bad), asg_path] if document == "instance" else [inst_path, str(bad)]
        argv = ["evaluate", *pair]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {document} document has a field of the wrong type")
    assert "Traceback" not in err


# One field of a generated instance broken: each breakage edits its tasks.
BROKEN_TASKS = {
    "exec-time-zero": lambda tasks: tasks[0]["per_cluster"][0].update(exec_time_ms=0),
    "exec-time-negative": lambda tasks: tasks[0]["per_cluster"][0].update(exec_time_ms=-50),
    "duplicate-task-id": lambda tasks: tasks[1].update(id=tasks[0]["id"]),
}


@pytest.mark.parametrize("breakage", sorted(BROKEN_TASKS))
def test_flow_fixed_refuses_a_broken_instance(tmp_path, capsys, breakage):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--n", "6", "--kernels", "mixed", "--seed", "1", "-o", str(inst_path)])
    heur = tmp_path / "heur.json"
    assert main(["solve", str(inst_path), "--method", "heur", "-o", str(heur)]) == EXIT_OK
    lengths = ",".join(str(l) for l in ts.load_assignment(str(heur)).window_lengths_ms)
    doc = json.loads(inst_path.read_text())
    BROKEN_TASKS[breakage](doc["tasks"])
    inst_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "solve", str(inst_path), "--method", "flow-fixed", "--window-lengths", lengths,
        "-o", str(tmp_path / "flow.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: instance is not usable: ")


@pytest.mark.parametrize("method", ["bb-sm", "bb-lr"])
@pytest.mark.parametrize("breakage", sorted(BROKEN_TASKS))
def test_ga_refuses_a_broken_instance(tmp_path, capsys, method, breakage):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--n", "6", "--kernels", "mixed", "--seed", "1", "-o", str(inst_path)])
    doc = json.loads(inst_path.read_text())
    BROKEN_TASKS[breakage](doc["tasks"])
    inst_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "solve", str(inst_path), "--method", method, "--coefficients", "imx8-mek",
        "--time-limit", "1000", "-o", str(tmp_path / "ga.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: instance is not usable: ")


# A generated n=6 instance on an imx8-mek platform that carries thermal
# parameters, and the fields the refusal property mutates in it.
THERMAL_PLATFORM = {
    "clusters": [
        {"id": 1, "core_count": 4, "label": "A53", "frequency_mhz": 1200},
        {"id": 2, "core_count": 2, "label": "A72", "frequency_mhz": 1600},
    ],
    "idle_power_watts": 5.5,
    "thermal_b": 0.5,
    "thermal_g": 0.4,
    "ambient_celsius": 25.0,
}
N_TASKS, N_CLUSTERS = 6, 2
MUTABLE_FIELDS = (
    [("platform", key) for key in ("idle_power_watts", "thermal_b", "thermal_g", "ambient_celsius")]
    + [
        ("platform", "clusters", c, key)
        for c in range(N_CLUSTERS)
        for key in ("id", "core_count", "frequency_mhz")
    ]
    + [("tasks", t, "id") for t in range(N_TASKS)]
    + [
        ("tasks", t, "per_cluster", c, key)
        for t in range(N_TASKS)
        for c in range(N_CLUSTERS)
        for key in ("cluster_id", "exec_time_ms", "activity_coef", "offset_coef", "energy_cost")
    ]
    + [("major_frame_ms",), ("max_windows",)]
)
MUTATION_VALUES = (-10, -1, 0, 0.5, 1, 2, 3, 7, 1000, None)
# Per mutable field: the object that refuses a bad value, and whether a
# value (not null) is bad, given the field's path and the unmutated document.
# The loader truncates integer fields with int(); float fields must be finite.
REFUSAL_RULES = {
    "idle_power_watts": ("platform", lambda v, *_: not 0 <= v < math.inf),
    "thermal_b": ("platform", lambda v, *_: not 0 < v < math.inf),
    "thermal_g": ("platform", lambda v, *_: not 0 < v < math.inf),
    "ambient_celsius": ("platform", lambda v, *_: not math.isfinite(v)),
    "cluster id": ("platform", lambda v, field, _: int(v) != field[2] + 1),
    "core_count": ("platform", lambda v, *_: int(v) < 1),
    "frequency_mhz": ("platform", lambda v, *_: int(v) < 1),
    "task id": (
        "instance",
        lambda v, field, doc: int(v) in [
            t["id"] for pos, t in enumerate(doc["tasks"]) if pos != field[1]
        ],
    ),
    "cluster_id": ("instance", lambda v, field, _: int(v) != field[3] + 1),
    "exec_time_ms": ("instance", lambda v, *_: int(v) < 1),
    "activity_coef": ("instance", lambda v, *_: not math.isfinite(v)),
    "offset_coef": ("instance", lambda v, *_: not math.isfinite(v)),
    "energy_cost": ("instance", lambda v, *_: not 0 <= v < math.inf),
    "major_frame_ms": ("instance", lambda v, *_: int(v) < 1),
    "max_windows": ("instance", lambda v, *_: int(v) < 1),
}


def expected_refusal(doc, field, value):
    """The start of the error every command must print, or None for a usable instance.

    doc is the unmutated document. null reads as absent for the optional
    fields (the thermal ones must then all be absent) and is a type error
    for the others.
    """
    key = field[-1]
    if key == "id":
        key = "cluster id" if field[0] == "platform" else "task id"
    if value is None:
        if key == "energy_cost":
            return None
        if key in ("thermal_b", "thermal_g", "ambient_celsius"):
            return "platform is not usable: "
        return "instance document has a field of the wrong type"
    owner, breaks = REFUSAL_RULES[key]
    try:
        broken = breaks(value, field, doc)
    except OverflowError:  # int() of an infinity, as in the loader
        return "instance document has a field of the wrong type"
    return f"{owner} is not usable: " if broken else None


@pytest.fixture(scope="module")
def refusal_base(tmp_path_factory):
    """(instance document, heur assignment path, heur window lengths)."""
    root = tmp_path_factory.mktemp("refusal-base")
    platform = root / "platform.json"
    platform.write_text(json.dumps(THERMAL_PLATFORM))
    inst, heur = root / "inst.json", root / "heur.json"
    assert main([
        "generate", "--n", str(N_TASKS), "--kappa", "3.5", "--kernels", "mixed",
        "--platform", str(platform), "--seed", "3", "-o", str(inst),
    ]) == EXIT_OK
    assert main(["solve", str(inst), "--method", "heur", "-o", str(heur)]) == EXIT_OK
    lengths = ",".join(str(l) for l in ts.load_assignment(str(heur)).window_lengths_ms)
    return json.loads(inst.read_text()), str(heur), lengths


def refusal_commands(inst, heur, lengths, out):
    """(argv, path of the assignment the command writes or reads, or None)."""
    solve = ["solve", inst, "--time-limit", "100", "--seed", "1", "--max-generations", "2",
             "--coefficients", "imx8-mek"]
    commands = [
        (solve + ["--method", method, "-o", f"{out}/{method}.json"], f"{out}/{method}.json")
        for method in ("ilp-sm", "qp-lr-ub", "bb-sm", "bb-lr", "heur", "idle-min", "idle-max")
    ]
    commands.append((
        solve + ["--method", "flow-fixed", "--window-lengths", lengths, "-o", f"{out}/flow.json"],
        f"{out}/flow.json",
    ))
    for model in ("sm", "lr", "lr-ub"):
        commands.append((
            ["evaluate", inst, heur, "--model", model, "--coefficients", "imx8-mek",
             "-o", f"{out}/{model}.json"],
            heur,
        ))
    commands.append(
        (["evaluate", inst, heur, "--temperature", "-o", f"{out}/temperature.json"], heur)
    )
    commands.append((["export-gantt", inst, heur, "-o", f"{out}/gantt.svg"], heur))
    commands.append((
        ["compare", inst, "--time-limit", "50", "--seed", "1", "--coefficients", "imx8-mek",
         "-o", f"{out}/compare.csv"],
        None,
    ))
    return commands


@settings(max_examples=25, derandomize=True, deadline=None)
@given(field=st.sampled_from(MUTABLE_FIELDS), value=st.sampled_from(MUTATION_VALUES))
@example(field=("tasks", 0, "per_cluster", 0, "exec_time_ms"), value=0)
@example(field=("platform", "idle_power_watts"), value=-10)
@example(field=("platform", "thermal_b"), value=0)
@example(field=("tasks", 0, "per_cluster", 0, "exec_time_ms"), value=-50)
@example(field=("tasks", 1, "id"), value=1)
@example(field=("platform", "idle_power_watts"), value=math.nan)
@example(field=("tasks", 0, "per_cluster", 0, "activity_coef"), value=math.nan)
@example(field=("tasks", 0, "per_cluster", 0, "offset_coef"), value=math.inf)
@example(field=("tasks", 0, "per_cluster", 0, "energy_cost"), value=math.nan)
@example(field=("tasks", 0, "per_cluster", 0, "exec_time_ms"), value=math.inf)
def test_every_command_refuses_or_stays_feasible(tmp_path_factory, refusal_base, field, value):
    """One field of a valid instance mutated: each command refuses it or stays sound.

    A refused instance makes every command exit 1 with the refusal. A
    usable one may still make a command exit 1 with "error: ", for a
    mismatch with the assignment or the window lengths; otherwise the
    command exits 0, 2 or 3 and any assignment it writes or evaluates
    passes check_feasible against the mutated instance.
    """
    base, heur, lengths = refusal_base
    doc = json.loads(json.dumps(base))
    *parents, key = field
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    refusal = expected_refusal(base, field, value)
    out = tmp_path_factory.mktemp("refusal")
    inst = out / "inst.json"
    inst.write_text(json.dumps(doc))
    instance = ts.load_instance(str(inst)) if refusal is None else None

    for argv, assignment in refusal_commands(str(inst), heur, lengths, out):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        err = err.getvalue()
        if refusal is not None:
            assert code == 1 and err.startswith("error: " + refusal), (argv, code, err)
        elif code == 1:
            assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
        else:
            assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_UNKNOWN_TIMEOUT), (argv, code, err)
            if assignment is not None and pathlib.Path(assignment).exists():
                asg = ts.load_assignment(assignment)
                assert ts.check_feasible(instance, asg), (argv, asg)


def test_output_path_that_is_a_directory_is_an_error(tmp_path, capsys):
    code = main(["generate", "--n", "5", "--kernels", "mixed", "--seed", "1", "-o", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def crowded_files(tmp_path):
    """The seven-task layout with every task in window 1, over capacity."""
    instance, assignment = helpers.seven_task_layout()
    crowded = ts.Assignment.from_placements(
        instance, [(p.task_id, 1, p.cluster) for p in assignment.placements]
    )
    inst_path, asg_path = str(tmp_path / "i.json"), str(tmp_path / "a.json")
    ts.save_instance(instance, inst_path)
    ts.save_assignment(crowded, asg_path)
    return inst_path, asg_path


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

    @pytest.mark.parametrize("k", [0, 3])
    def test_cluster_outside_1_to_m_is_an_error(self, tmp_path, capsys, example_files, k):
        inst_path, asg_path = example_files
        doc = json.loads(pathlib.Path(asg_path).read_text())
        doc["placements"][0]["cluster"] = k
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["evaluate", inst_path, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot evaluate SM power of an infeasible assignment: ")
        assert f"unknown cluster {k}" in err and "Traceback" not in err

    @pytest.mark.parametrize("model", ["sm", "lr", "lr-ub"])
    def test_infeasible_assignment_is_an_error(self, tmp_path, capsys, model):
        inst_path, asg_path = crowded_files(tmp_path)
        code = main([
            "evaluate", inst_path, asg_path, "--model", model,
            "--coefficients", "imx8-mek", "-o", str(tmp_path / "rep.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot evaluate {model.upper()} power of an infeasible")
        assert "tasks exceed 4 cores" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "i.json"]


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

    @pytest.mark.parametrize(
        "column, value",
        [("measured_power_watts", "nan"), ("measured_power_watts", "inf"),
         ("sum_a_k1", "nan"), ("sum_b_k2", "-inf")],
    )
    def test_sample_that_is_not_finite_names_the_line(self, tmp_path, capsys, column, value):
        import random
        from test_power import synthetic_samples

        samples = synthetic_samples(
            helpers.MEK, ((1.205, 0.270), (0.969, 0.456)), 10, 0.0, random.Random(0)
        )
        samples_path = tmp_path / "samples.csv"
        ts.write_fit_samples_csv(samples, str(samples_path))
        rows = list(csv.reader(io.StringIO(samples_path.read_text())))
        rows[3][rows[0].index(column)] = value
        samples_path.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "coeff.json"
        code = main(["fit", str(samples_path), "--platform", "imx8-mek", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: line 4: {column} must be finite, got {float(value)}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["samples.csv"]

    @pytest.mark.parametrize("row, value", [(1, "0"), (3, "-5")])
    def test_interval_shorter_than_1_ms_names_the_line(self, tmp_path, capsys, row, value):
        import random
        from test_power import synthetic_samples

        samples = synthetic_samples(
            helpers.MEK, ((1.205, 0.270), (0.969, 0.456)), 10, 0.0, random.Random(0)
        )
        samples_path = tmp_path / "samples.csv"
        ts.write_fit_samples_csv(samples, str(samples_path))
        rows = list(csv.reader(io.StringIO(samples_path.read_text())))
        rows[row][0] = value
        samples_path.write_text("".join(",".join(cells) + "\n" for cells in rows))
        out = tmp_path / "coeff.json"
        code = main(["fit", str(samples_path), "--platform", "imx8-mek", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: line {row + 1}: interval_length_ms must be >= 1, got {value}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["samples.csv"]


class TestExportGantt:
    def test_infeasible_assignment_is_an_error(self, tmp_path, capsys):
        inst_path, asg_path = crowded_files(tmp_path)
        code = main(["export-gantt", inst_path, asg_path, "-o", str(tmp_path / "g.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot derive a core schedule from an infeasible")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "i.json"]

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

    def test_cluster_label_is_escaped(self, tmp_path):
        instance, assignment = helpers.seven_task_layout()
        little, big = instance.platform.clusters
        platform = dataclasses.replace(
            instance.platform, clusters=(little, dataclasses.replace(big, label="big & <fast>"))
        )
        instance = dataclasses.replace(instance, platform=platform)
        inst_path, asg_path = tmp_path / "i.json", tmp_path / "a.json"
        ts.save_instance(instance, str(inst_path))
        ts.save_assignment(assignment, str(asg_path))
        out = tmp_path / "g.svg"
        assert main(["export-gantt", str(inst_path), str(asg_path), "-o", str(out)]) == EXIT_OK
        texts = xml.dom.minidom.parse(str(out)).getElementsByTagName("text")
        labels = [t.firstChild.data for t in texts]
        assert "big & <fast> core 0" in labels and "big & <fast> core 1" in labels

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

    def test_max_generations_caps_the_genetic_search(self, tmp_path, example_files):
        inst_path, _ = example_files
        out = tmp_path / "cmp.csv"
        code = main([
            "compare", inst_path, "--methods", "ilp-sm,bb-sm", "--max-generations", "2",
            "--time-limit", "60000", "--seed", "5", "-o", str(out),
        ])
        assert code == EXIT_OK
        rows = {r["method"]: r for r in self._read_rows(out)}
        assert sorted(rows) == ["bb-sm", "ilp-sm"]
        assert float(rows["bb-sm"]["elapsed_ms"]) < 10000.0
        # the same run as solve with the same seed and generation cap
        sol = tmp_path / "sol.json"
        assert main([
            "solve", inst_path, "--method", "bb-sm", "--max-generations", "2", "--seed", "5",
            "-o", str(sol),
        ]) == EXIT_OK
        result = json.loads((tmp_path / "sol.result.json").read_text())
        assert float(rows["bb-sm"]["objective"]) == result["objective_value"]
        manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
        assert manifest["flags"]["max_generations"] == 2

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

    def test_max_generations_caps_the_genetic_search(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--sizes", "5", "--reps", "1", "--methods", "bb-sm,heur",
            "--max-generations", "2", "--time-limit", "60000", "--kernels", "mixed",
            "--seed", "0", "-o", str(out),
        ])
        assert code == EXIT_OK
        rows = {r["method"]: r for r in csv.DictReader(io.StringIO(out.read_text()))}
        assert sorted(rows) == ["bb-sm", "heur"]
        assert float(rows["bb-sm"]["elapsed_ms"]) < 10000.0

    def test_flow_fixed_not_sweepable(self, tmp_path):
        code = main([
            "sweep", "--sizes", "5", "--methods", "flow-fixed", "--kernels", "mixed",
            "--seed", "0", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE


def _manifest_cases(tmp_path, inst_path, asg_path):
    """(argv, manifest path, rng_seed, inputs, outputs, flags) per command."""
    import random
    from test_power import synthetic_samples

    samples = str(tmp_path / "samples.csv")
    ts.write_fit_samples_csv(
        synthetic_samples(helpers.MEK, ((1.2, 0.3), (1.0, 0.5)), 20, 0.0, random.Random(0)),
        samples,
    )
    out = lambda name: str(tmp_path / name)  # noqa: E731
    return {
        "generate": (
            ["generate", "--n", "6", "--kernels", "mixed", "--seed", "7", "-o", out("gen.json")],
            "gen.manifest.json", 7, ["mixed"], [out("gen.json")],
            {"big_cluster": None, "exec_max": 160, "exec_min": 40, "kappa": 3.5,
             "kernels": "mixed", "n": 6, "output": out("gen.json"),
             "platform": "imx8-mek", "seed": 7},
        ),
        "solve": (
            ["solve", inst_path, "--method", "ilp-sm", "-o", out("sol.json")],
            "sol.manifest.json", 0, [inst_path], [out("sol.json"), out("sol.result.json")],
            {"coefficients": None, "ga_config": None, "instance": inst_path,
             "max_generations": None, "method": "ilp-sm", "output": out("sol.json"),
             "seed": 0, "time_limit": 300000.0, "window_lengths": None},
        ),
        "evaluate": (
            ["evaluate", inst_path, asg_path, "-o", out("rep.json")],
            "rep.manifest.json", None, [inst_path, asg_path], [out("rep.json")],
            {"assignment": asg_path, "coefficients": None, "instance": inst_path,
             "model": "sm", "output": out("rep.json"), "temperature": False},
        ),
        "fit": (
            ["fit", samples, "--platform", "imx8-mek", "-o", out("coeff.json")],
            "coeff.manifest.json", None, [samples], [out("coeff.json")],
            {"output": out("coeff.json"), "platform": "imx8-mek", "samples": samples},
        ),
        "sweep": (
            ["sweep", "--sizes", "4", "--reps", "1", "--methods", "heur",
             "--kernels", "mixed", "--seed", "3", "-o", out("sweep.csv")],
            "sweep.manifest.json", 3, ["mixed"], [out("sweep.csv")],
            {"coefficients": None, "kappa": 3.5, "kernels": "mixed", "methods": "heur",
             "max_generations": None, "output": out("sweep.csv"), "platform": "imx8-mek",
             "reps": 1, "seed": 3, "sizes": "4", "time_limit": 300000.0},
        ),
        "export-gantt": (
            ["export-gantt", inst_path, asg_path, "-o", out("g.svg")],
            "g.manifest.json", None, [inst_path, asg_path], [out("g.svg")],
            {"assignment": asg_path, "instance": inst_path, "output": out("g.svg")},
        ),
        "compare": (
            ["compare", inst_path, "--methods", "heur", "--seed", "2", "-o", out("cmp.csv")],
            "cmp.manifest.json", 2, [inst_path], [out("cmp.csv")],
            {"coefficients": None, "instance": inst_path, "max_generations": None,
             "methods": "heur", "model": "sm", "output": out("cmp.csv"), "seed": 2,
             "time_limit": 300000.0},
        ),
    }


@pytest.mark.parametrize(
    "command", ["generate", "solve", "evaluate", "fit", "sweep", "export-gantt", "compare"]
)
def test_manifest_records_the_run(tmp_path, example_files, command):
    argv, name, seed, inputs, outputs, flags = _manifest_cases(tmp_path, *example_files)[command]
    assert main(argv) == EXIT_OK
    manifest = json.loads((tmp_path / name).read_text())
    assert manifest["command"] == command
    assert manifest["argv"] == argv
    assert manifest["rng_seed"] == seed
    assert manifest["inputs"] == inputs
    assert manifest["outputs"] == outputs
    assert manifest["flags"] == flags
    assert manifest["tool_version"] == ts.__version__
    assert manifest["started_at"] <= manifest["finished_at"]


# A fresh interpreter imports the package, runs the argv lists it reads
# from stdin through cli.main and reports whether numpy was loaded.
_SESSION = """
import json, sys
import thermosched, thermosched.cli
after_import = "numpy" in sys.modules
codes = [thermosched.cli.main(argv) for argv in json.load(sys.stdin)]
print(json.dumps([after_import, "numpy" in sys.modules, codes]))
"""


def _fresh_session(argvs, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SESSION], input=json.dumps(argvs), cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_ga_or_fit_never_import_numpy(tmp_path, example_files):
    # a fresh process: pytest and hypothesis import numpy into this one
    inst, asg = example_files
    lengths = ",".join(
        str(l) for l in helpers.worked_example_assignment(helpers.worked_example()).window_lengths_ms
    )
    out = lambda name: str(tmp_path / name)  # noqa: E731
    argvs = [["generate", "--n", "6", "--kernels", "mixed", "--seed", "1", "-o", out("gen.json")]]
    for method in ("ilp-sm", "qp-lr-ub", "heur", "flow-fixed", "idle-min", "idle-max"):
        argvs.append([
            "solve", inst, "--method", method, "--coefficients", "imx8-mek",
            "--window-lengths", lengths, "-o", out(f"{method}.json"),
        ])
    for model in ("sm", "lr", "lr-ub"):
        argvs.append([
            "evaluate", inst, asg, "--model", model, "--coefficients", "imx8-mek",
            "-o", out(f"{model}.json"),
        ])
    argvs += [
        ["export-gantt", inst, asg, "-o", out("gantt.svg")],
        ["compare", inst, "--methods", "ilp-sm,heur", "--seed", "0", "-o", out("cmp.csv")],
        ["sweep", "--sizes", "5", "--reps", "1", "--methods", "ilp-sm,idle-min,idle-max",
         "--kernels", "mixed", "--seed", "0", "-o", out("sweep.csv")],
    ]
    after_import, after_commands, codes = _fresh_session(argvs, tmp_path)
    assert not after_import
    assert not after_commands
    assert codes == [EXIT_OK] * len(argvs)


def test_ga_and_fit_import_numpy(tmp_path, example_files):
    import random
    from test_power import synthetic_samples

    inst, _ = example_files
    samples = str(tmp_path / "samples.csv")
    ts.write_fit_samples_csv(
        synthetic_samples(helpers.MEK, ((1.2, 0.3), (1.0, 0.5)), 20, 0.0, random.Random(0)),
        samples,
    )
    argvs = [
        ["solve", inst, "--method", "bb-sm", "--max-generations", "2", "--seed", "0",
         "-o", str(tmp_path / "ga.json")],
        ["fit", samples, "--platform", "imx8-mek", "-o", str(tmp_path / "coeff.json")],
    ]
    after_import, after_commands, codes = _fresh_session(argvs, tmp_path)
    assert not after_import
    assert after_commands
    assert codes == [EXIT_OK, EXIT_OK]


def test_evaluate_to_stdout_writes_no_manifest(tmp_path, monkeypatch, capsys, example_files):
    monkeypatch.chdir(tmp_path)
    assert main(["evaluate", *example_files]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["model"] == "sm"
    assert list(tmp_path.glob("*.manifest.json")) == []


_SWEEP = ["sweep", "--sizes", "4", "--reps", "1", "--kernels", "mixed", "--seed", "0"]


@pytest.mark.parametrize("generations", ["0", "-3"])
@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_max_generations_below_one_is_refused_before_any_work(
    tmp_path, capsys, example_files, command, generations
):
    # ilp-sm comes first: a refusal that waited for bb-sm would follow a full search
    head = _SWEEP if command == "sweep" else ["compare", example_files[0], "--seed", "0"]
    out = tmp_path / "out.csv"
    code = main(head + [
        "--methods", "ilp-sm,bb-sm", "--max-generations", generations, "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: max_generations must be at least 1\n"
    assert not out.exists()
_USAGE_ERRORS = {
    "solve-qp-lr-ub-no-coefficients": lambda i, a: ["solve", i, "--method", "qp-lr-ub"],
    "solve-bb-lr-no-coefficients": lambda i, a: ["solve", i, "--method", "bb-lr", "--seed", "0"],
    "sweep-flow-fixed": lambda i, a: _SWEEP + ["--methods", "flow-fixed"],
    "compare-flow-fixed": lambda i, a: ["compare", i, "--methods", "heur,flow-fixed"],
    "sweep-qp-lr-ub-no-coefficients": lambda i, a: _SWEEP + ["--methods", "heur,qp-lr-ub"],
    "compare-qp-lr-ub-no-coefficients": lambda i, a: ["compare", i, "--methods", "qp-lr-ub"],
    "sweep-unknown-method": lambda i, a: _SWEEP + ["--methods", "heur,simplex"],
    "compare-unknown-method": lambda i, a: ["compare", i, "--methods", "simplex"],
    "evaluate-lr-no-coefficients": lambda i, a: ["evaluate", i, a, "--model", "lr"],
    "compare-lr-no-coefficients": lambda i, a: ["compare", i, "--methods", "heur", "--model", "lr"],
}


@pytest.mark.parametrize("case", sorted(_USAGE_ERRORS))
def test_missing_method_input_is_a_usage_error(tmp_path, example_files, case):
    argv = _USAGE_ERRORS[case](*example_files) + ["-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["asg.json", "inst.json"]


_EMPTY_LISTS = {
    "solve-flow-fixed-empty-window-lengths": lambda i: [
        "solve", i, "--method", "flow-fixed", "--window-lengths", "",
    ],
    "sweep-methods-comma": lambda i: _SWEEP + ["--methods", ","],
    "sweep-sizes-empty": lambda i: [
        "sweep", "--sizes", "", "--methods", "heur", "--kernels", "mixed", "--seed", "0",
    ],
    "compare-methods-empty": lambda i: ["compare", i, "--methods", ""],
    # no repetition leaves the sweep without a cell, like an empty --sizes
    "sweep-reps-zero": lambda i: [
        "sweep", "--sizes", "4", "--reps", "0", "--methods", "heur", "--kernels", "mixed",
        "--seed", "0",
    ],
    "sweep-reps-negative": lambda i: [
        "sweep", "--sizes", "4", "--reps", "-1", "--methods", "heur", "--kernels", "mixed",
        "--seed", "0",
    ],
}


@pytest.mark.parametrize("case", sorted(_EMPTY_LISTS))
def test_empty_list_is_a_usage_error(tmp_path, example_files, case):
    argv = _EMPTY_LISTS[case](example_files[0]) + ["-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["asg.json", "inst.json"]


_NEGATIVE_SEED = {
    "generate": lambda i: ["generate", "--n", "4", "--kernels", "mixed"],
    "solve": lambda i: ["solve", i, "--method", "bb-sm"],
    "sweep": lambda i: [
        "sweep", "--sizes", "4", "--reps", "1", "--methods", "ilp-sm,bb-sm", "--kernels", "mixed",
    ],
    "compare": lambda i: ["compare", i, "--methods", "ilp-sm,qp-lr-ub,bb-sm", "--coefficients",
                          "imx8-mek"],
}


@pytest.mark.parametrize("case", sorted(_NEGATIVE_SEED))
def test_negative_seed_is_a_usage_error_before_any_work(
    tmp_path, example_files, monkeypatch, capsys, case
):
    calls = []
    spy = lambda *args, **kwargs: calls.append(args)  # noqa: E731
    monkeypatch.setattr(ts.cli, "run_method", spy)
    monkeypatch.setattr(ts.generator, "run_method", spy)
    argv = _NEGATIVE_SEED[case](example_files[0]) + ["--seed", "-1", "-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: --seed must be a non-negative integer, got -1\n"
    )
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["asg.json", "inst.json"]


# Calls without --seed that a usage check or an input read refuses, with their exit codes.
_REFUSED_BEFORE_THE_SEED = {
    "sweep-sizes-not-integers": (EXIT_USAGE, lambda i: [
        "sweep", "--sizes", "20,x", "--methods", "heur", "--kernels", "mixed",
    ]),
    "sweep-reps-zero": (EXIT_USAGE, lambda i: [
        "sweep", "--sizes", "4", "--reps", "0", "--methods", "heur", "--kernels", "mixed",
    ]),
    "sweep-unknown-method": (EXIT_USAGE, lambda i: [
        "sweep", "--sizes", "4", "--methods", "nope", "--kernels", "mixed",
    ]),
    "sweep-missing-kernel-pool": (1, lambda i: [
        "sweep", "--sizes", "4", "--methods", "heur", "--kernels", i + ".missing.csv",
    ]),
    "compare-lr-no-coefficients": (EXIT_USAGE, lambda i: [
        "compare", i, "--methods", "heur", "--model", "lr",
    ]),
    "compare-unknown-method": (EXIT_USAGE, lambda i: ["compare", i, "--methods", "nope"]),
    "compare-missing-instance": (1, lambda i: ["compare", i + ".missing", "--methods", "heur"]),
    "compare-max-generations-zero": (1, lambda i: [
        "compare", i, "--methods", "heur", "--max-generations", "0",
    ]),
    "generate-missing-kernel-pool": (1, lambda i: [
        "generate", "--n", "4", "--kernels", i + ".missing.csv",
    ]),
    "generate-n-zero": (1, lambda i: ["generate", "--n", "0", "--kernels", "mixed"]),
    "generate-kappa-zero": (1, lambda i: ["generate", "--kappa", "0", "--kernels", "mixed"]),
    "generate-kappa-nan": (1, lambda i: ["generate", "--kappa", "nan", "--kernels", "mixed"]),
    "generate-exec-min-zero": (1, lambda i: ["generate", "--exec-min", "0", "--kernels", "mixed"]),
    "generate-exec-min-above-max": (1, lambda i: [
        "generate", "--exec-min", "100", "--exec-max", "50", "--kernels", "mixed",
    ]),
    "generate-unknown-big-cluster": (1, lambda i: [
        "generate", "--big-cluster", "9", "--kernels", "mixed",
    ]),
    "sweep-size-zero": (1, lambda i: [
        "sweep", "--sizes", "0", "--methods", "heur", "--kernels", "mixed",
    ]),
    "sweep-kappa-zero": (1, lambda i: [
        "sweep", "--sizes", "4", "--kappa", "0", "--methods", "heur", "--kernels", "mixed",
    ]),
    "sweep-max-generations-zero": (1, lambda i: [
        "sweep", "--sizes", "4", "--max-generations", "0", "--methods", "heur",
        "--kernels", "mixed",
    ]),
    "solve-missing-instance": (1, lambda i: ["solve", i + ".missing", "--method", "bb-sm"]),
    "solve-ga-config-out-of-range": (1, lambda i: [
        "solve", i, "--method", "bb-sm", "--max-generations", "0",
    ]),
    "solve-time-limit-zero": (1, lambda i: ["solve", i, "--method", "bb-sm", "--time-limit", "0"]),
    "solve-time-limit-negative": (1, lambda i: [
        "solve", i, "--method", "bb-sm", "--time-limit", "-5",
    ]),
    "solve-time-limit-nan": (1, lambda i: [
        "solve", i, "--method", "bb-sm", "--time-limit", "nan",
    ]),
    "solve-lr-time-limit-zero": (1, lambda i: [
        "solve", i, "--method", "bb-lr", "--coefficients", "imx8-mek", "--time-limit", "0",
    ]),
    "compare-time-limit-zero": (1, lambda i: [
        "compare", i, "--methods", "heur", "--time-limit", "0",
    ]),
    "sweep-time-limit-zero": (1, lambda i: [
        "sweep", "--sizes", "4", "--methods", "heur", "--kernels", "mixed", "--time-limit", "0",
    ]),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_BEFORE_THE_SEED))
def test_refused_call_prints_no_seed(tmp_path, capsys, example_files, case):
    code, argv = _REFUSED_BEFORE_THE_SEED[case]
    assert main(argv(example_files[0]) + ["-o", str(tmp_path / "out")]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: " if code == EXIT_USAGE else "error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["asg.json", "inst.json"]


class TestInputRefusals:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["sweep", "--sizes", "20,x", "--methods", "heur", "--kernels", "mixed"],
                "--sizes expects a comma-separated integer list",
            ),
            (
                ["solve", "{inst}", "--method", "flow-fixed", "--window-lengths", "5,a"],
                "--window-lengths expects a comma-separated integer list",
            ),
        ],
        ids=["sweep-sizes", "solve-window-lengths"],
    )
    def test_non_integer_list_is_a_usage_error(self, tmp_path, capsys, example_files, argv, message):
        argv = [a.format(inst=example_files[0]) for a in argv]
        code = main(argv + ["-o", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_assignment_with_window_zero_is_refused(self, tmp_path, capsys, example_files):
        inst_path, asg_path = example_files
        document = json.loads(pathlib.Path(asg_path).read_text())
        document["placements"][0]["window"] = 0
        bad = tmp_path / "window0.json"
        bad.write_text(json.dumps(document))
        code = main(["evaluate", inst_path, str(bad)])
        assert code == 1
        assert "window 0 outside 1..1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (",".join(ts.generator.KERNEL_POOL_HEADER) + "\n", "kernel pool CSV holds no kernels"),
            (
                "kernel,cluster,activity_coef,offset_coef,ips,frequency_mhz\nk,1,0.1,0.1,1,1\n",
                "kernel pool CSV must have header",
            ),
        ],
        ids=["header-only", "wrong-header"],
    )
    def test_bad_kernel_pool_is_refused(self, tmp_path, capsys, text, message):
        pool = tmp_path / "pool.csv"
        pool.write_text(text)
        code = main(["generate", "--kernels", str(pool), "--seed", "1", "-o", str(tmp_path / "i.json")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_instance_that_is_not_json_is_refused(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text("not json{")
        code = main(["solve", str(inst), "--method", "heur", "-o", str(tmp_path / "x.json")])
        assert code == 1
        assert "error: invalid JSON" in capsys.readouterr().err
