import io
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import thermosched as ts
import thermosched.cli as cli


def make_instance(max_windows=3, frame=600):
    instance, _ = helpers.seven_task_layout()
    return helpers.with_windows(
        ts.Instance(instance.platform, instance.tasks, frame, instance.max_windows),
        max_windows,
    )


def _cluster(core_count=4, frequency_mhz=1200, id=1):
    return ts.Cluster(id=id, core_count=core_count, label="c", frequency_mhz=frequency_mhz)


# Each platform a constructor refuses, and a phrase of its message.
BROKEN_PLATFORMS = {
    "no-clusters": (dict(clusters=()), "no clusters"),
    "ids-from-2": (dict(clusters=(_cluster(id=2),)), "contiguous from 1"),
    "ids-out-of-order": (dict(clusters=(_cluster(id=2), _cluster(id=1))), "contiguous from 1"),
    "zero-cores": (dict(clusters=(_cluster(core_count=0),)), "core_count must be >= 1"),
    "zero-frequency": (dict(clusters=(_cluster(frequency_mhz=0),)), "frequency_mhz must be >= 1"),
    "negative-idle": (dict(idle_power_watts=-10.0), "idle_power_watts must be nonnegative"),
    "thermal-b-only": (dict(thermal_b=0.5), "must be given together"),
    "thermal-b-zero": (
        dict(thermal_b=0.0, thermal_g=0.4, ambient_celsius=25.0), "thermal_b must be positive"
    ),
    "thermal-g-negative": (
        dict(thermal_b=0.5, thermal_g=-0.4, ambient_celsius=25.0), "thermal_g must be positive"
    ),
    "nan-idle": (
        dict(idle_power_watts=math.nan), "idle_power_watts must be nonnegative and finite"
    ),
    "minus-inf-idle": (
        dict(idle_power_watts=-math.inf), "idle_power_watts must be nonnegative and finite"
    ),
    "thermal-b-inf": (
        dict(thermal_b=math.inf, thermal_g=0.4, ambient_celsius=25.0),
        "thermal_b must be positive and finite",
    ),
    "thermal-g-nan": (
        dict(thermal_b=0.5, thermal_g=math.nan, ambient_celsius=25.0),
        "thermal_g must be positive and finite",
    ),
    "ambient-nan": (
        dict(thermal_b=0.5, thermal_g=0.4, ambient_celsius=math.nan),
        "ambient_celsius must be finite",
    ),
}

# Each instance a constructor refuses: (frame, window budget, tasks), message phrase.
_TASK = ts.Task(1, "t", (ts.TaskCharacteristics(1, 10, 0.2, 0.2),))
BROKEN_INSTANCES = {
    "zero-frame": ((0, 1, (_TASK,)), "major_frame_ms must be a positive integer"),
    "zero-windows": ((100, 0, (_TASK,)), "max_windows must be a positive integer"),
    "duplicate-ids": ((100, 2, (_TASK, _TASK)), "task ids must be unique"),
    "ids-out-of-order": (
        (100, 2, (ts.Task(2, "t", _TASK.per_cluster), _TASK)),
        "tasks must be in ascending id order, got ids [2, 1]",
    ),
    "missing-cluster": (
        (100, 1, (ts.Task(1, "t", ()),)), "task 1: per_cluster must list every platform cluster"
    ),
    "negative-energy": (
        (100, 1, (ts.Task(1, "t", (ts.TaskCharacteristics(1, 10, 0.2, 0.2, -1.0),)),)),
        "task 1: energy_cost on cluster 1 must be nonnegative",
    ),
    "nan-activity": (
        (100, 1, (ts.Task(1, "t", (ts.TaskCharacteristics(1, 10, math.nan, 0.2),)),)),
        "task 1: activity_coef and offset_coef on cluster 1 must be finite",
    ),
    "inf-offset": (
        (100, 1, (ts.Task(1, "t", (ts.TaskCharacteristics(1, 10, 0.2, math.inf),)),)),
        "task 1: activity_coef and offset_coef on cluster 1 must be finite",
    ),
    "nan-energy": (
        (100, 1, (ts.Task(1, "t", (ts.TaskCharacteristics(1, 10, 0.2, 0.2, math.nan),)),)),
        "task 1: energy_cost on cluster 1 must be nonnegative and finite",
    ),
}


class TestValidateInstance:
    """Platforms and instances are checked once, when they are built."""

    def test_well_formed(self):
        instance = helpers.worked_example()
        n, q = len(instance.tasks), instance.max_windows
        assert math.ceil(n / instance.platform.total_cores) <= q <= n

    def test_window_budget_above_n_still_solves(self):
        # more windows than tasks is accepted; the spare windows stay empty
        instance, _ = helpers.seven_task_layout()
        n = len(instance.tasks)
        sm = ts.ObjectiveSpec(ts.ObjectiveKind.SM_POWER)
        spare = ts.solve(helpers.with_windows(instance, n + 1), sm)
        exact = ts.solve(helpers.with_windows(instance, n), sm)
        assert spare.status is ts.SearchStatus.OPTIMAL
        assert spare.objective_value == pytest.approx(exact.objective_value, abs=1e-12)
        assert spare.assignment.window_lengths_ms[n] == 0

    def test_zero_exec_time_names_task_and_cluster(self):
        instance = helpers.worked_example()
        bad_task = ts.Task(1, "bad", (
            ts.TaskCharacteristics(1, 0, 0.2, 0.2),
            ts.TaskCharacteristics(2, 10, 0.2, 0.2),
        ))
        with pytest.raises(
            ValueError,
            match=r"^instance is not usable: task 1: exec_time_ms on cluster 1 must be >= 1",
        ):
            ts.Instance(instance.platform, (bad_task,) + instance.tasks[1:], 700, 1)

    def test_thermal_parameters_all_or_none(self):
        with pytest.raises(ValueError, match=r"^platform is not usable: .*given together"):
            ts.Platform(clusters=helpers.MEK.clusters, idle_power_watts=5.5, thermal_b=0.5)

    def test_frame_shorter_than_every_task(self):
        # accepted when built, then proven infeasible
        instance = helpers.worked_example()
        tiny = ts.Instance(instance.platform, instance.tasks, 100, 1)
        assert all(tc.exec_time_ms > 100 for t in tiny.tasks for tc in t.per_cluster)
        for kind in ts.ObjectiveKind:
            result = ts.solve(tiny, ts.ObjectiveSpec(kind, helpers.MEK_COEFF))
            assert result.status is ts.SearchStatus.INFEASIBLE

    @pytest.mark.parametrize("case", sorted(BROKEN_PLATFORMS))
    def test_platform_refuses(self, case):
        fields, phrase = BROKEN_PLATFORMS[case]
        with pytest.raises(ValueError, match=r"^platform is not usable: .*" + re.escape(phrase)):
            ts.Platform(**(dict(clusters=(_cluster(),), idle_power_watts=1.0) | fields))

    @pytest.mark.parametrize("case", sorted(BROKEN_INSTANCES))
    def test_instance_refuses(self, case):
        (frame, q, tasks), phrase = BROKEN_INSTANCES[case]
        platform = ts.Platform(clusters=(_cluster(),), idle_power_watts=1.0)
        with pytest.raises(ValueError, match=r"^instance is not usable: .*" + re.escape(phrase)):
            ts.Instance(platform, tasks, frame, q)


class TestTaskOn:
    def test_reads_entry_k_minus_1(self, seven_tasks):
        instance, _ = seven_tasks
        for t in instance.tasks:
            for k in range(1, len(instance.platform.clusters) + 1):
                assert t.on(k) is t.per_cluster[k - 1] and t.on(k).cluster_id == k

    @pytest.mark.parametrize("k", [0, 3])
    def test_cluster_outside_1_to_m_is_a_key_error(self, seven_tasks, k):
        instance, _ = seven_tasks
        assert len(instance.platform.clusters) == 2
        with pytest.raises(KeyError, match=f"has no data for cluster {k}"):
            instance.tasks[0].on(k)


class TestCheckFeasible:
    def test_seven_task_layout_is_feasible(self, seven_tasks):
        instance, assignment = seven_tasks
        verdict = ts.check_feasible(instance, assignment)
        assert verdict.feasible and verdict.violations == ()

    @pytest.mark.parametrize("k", [0, 3])
    def test_cluster_outside_1_to_m_is_unknown(self, seven_tasks, k):
        # cluster 0 must not read as per_cluster[-1], the last cluster
        instance, assignment = seven_tasks
        first = assignment.placements[0]
        placements = (ts.Placement(first.task_id, first.window, k),) + assignment.placements[1:]
        verdict = ts.check_feasible(
            instance, ts.Assignment(placements, assignment.window_lengths_ms)
        )
        assert not verdict
        assert verdict.violations == (f"task {first.task_id}: unknown cluster {k}",)

    def test_capacity_violation(self):
        # five tasks forced into one window on the 4-core cluster
        tasks = tuple(
            ts.Task(i, f"t{i}", (
                ts.TaskCharacteristics(1, 50, 0.1, 0.1),
                ts.TaskCharacteristics(2, 20, 0.1, 0.1),
            ))
            for i in range(1, 6)
        )
        instance = ts.Instance(helpers.MEK, tasks, 1000, 1)
        assignment = ts.Assignment.from_placements(
            instance, [(i, 1, 1) for i in range(1, 6)]
        )
        verdict = ts.check_feasible(instance, assignment)
        assert not verdict
        assert any("cores" in v for v in verdict.violations)

    def test_frame_budget_violation(self):
        tasks = (
            ts.Task(1, "a", (
                ts.TaskCharacteristics(1, 600, 0.1, 0.1),
                ts.TaskCharacteristics(2, 600, 0.1, 0.1),
            )),
            ts.Task(2, "b", (
                ts.TaskCharacteristics(1, 500, 0.1, 0.1),
                ts.TaskCharacteristics(2, 500, 0.1, 0.1),
            )),
        )
        instance = ts.Instance(helpers.MEK, tasks, 1000, 2)
        assignment = ts.Assignment.from_placements(instance, [(1, 1, 1), (2, 2, 1)])
        assert assignment.window_lengths_ms == (600, 500)
        verdict = ts.check_feasible(instance, assignment)
        assert not verdict
        assert any("major frame" in v for v in verdict.violations)

    def test_task_set_mismatch_is_input_error(self, seven_tasks):
        instance, assignment = seven_tasks
        with pytest.raises(ValueError):
            ts.check_feasible(instance, ts.Assignment(assignment.placements[:-1], assignment.window_lengths_ms))

    @pytest.mark.parametrize("change", ["missing", "extra", "renamed"])
    def test_missing_extra_or_renamed_task_is_input_error(self, seven_tasks, change):
        instance, assignment = seven_tasks
        placements = {
            "missing": assignment.placements[1:],
            "extra": assignment.placements + (ts.Placement(8, 1, 1),),
            "renamed": assignment.placements[:-1] + (ts.Placement(9, 3, 1),),
        }[change]
        with pytest.raises(ValueError, match="assignment task set does not match instance task set"):
            ts.check_feasible(instance, ts.Assignment(placements, assignment.window_lengths_ms))

    def test_window_permutation_invariance(self, seven_tasks):
        instance, assignment = seven_tasks
        rng = random.Random(7)
        for _ in range(10):
            perm = list(range(1, instance.max_windows + 1))
            rng.shuffle(perm)
            placements = [
                (p.task_id, perm[p.window - 1], p.cluster) for p in assignment.placements
            ]
            permuted = ts.Assignment.from_placements(instance, placements)
            assert ts.check_feasible(instance, permuted).feasible


class TestAssignmentOrder:
    """An Assignment lists its placements in strictly ascending task id order."""

    @pytest.mark.parametrize(
        "ids", [(2, 1), (1, 1), (1, 3, 2)], ids=["reversed", "repeated", "swapped"]
    )
    def test_refuses_other_orders(self, ids):
        placements = tuple(ts.Placement(i, 1, 1) for i in ids)
        with pytest.raises(ValueError, match=r"^assignment is not usable: task ids must be strictly"):
            ts.Assignment(placements, (10,))

    def test_from_placements_and_loader_sort(self, seven_tasks):
        instance, assignment = seven_tasks
        shuffled = list(reversed(assignment.placements))
        assert ts.Assignment.from_placements(instance, shuffled) == assignment
        doc = ts.model.assignment_to_dict(assignment)
        doc["placements"].reverse()
        assert ts.load_assignment(io.StringIO(json.dumps(doc))) == assignment

    def test_loader_refuses_a_repeated_task(self, seven_tasks):
        _, assignment = seven_tasks
        doc = ts.model.assignment_to_dict(assignment)
        doc["placements"].append(doc["placements"][0])
        with pytest.raises(ValueError, match=r"^assignment is not usable: "):
            ts.load_assignment(io.StringIO(json.dumps(doc)))


class TestWindowLengths:
    def test_max_of_window(self, example_window):
        instance, assignment = example_window
        assert assignment.window_lengths_ms == (700,)

    def test_empty_window_is_zero(self, seven_tasks):
        instance, assignment = seven_tasks
        placements = [p for p in assignment.placements if p.window != 3]
        lengths = ts.derive_window_lengths(instance, placements)
        assert lengths[2] == 0

    def test_singleton(self):
        instance = make_instance()
        lengths = ts.derive_window_lengths(
            instance, [ts.Placement(3, 2, 2)]
        )
        assert lengths == (0, 50, 0)

    def test_tightness(self, seven_tasks):
        # decreasing any used window by 1 ms must violate dominance
        instance, assignment = seven_tasks
        for j, length in enumerate(assignment.window_lengths_ms, start=1):
            if length == 0:
                continue
            shorter = list(assignment.window_lengths_ms)
            shorter[j - 1] = length - 1
            tampered = ts.Assignment(assignment.placements, tuple(shorter))
            verdict = ts.check_feasible(instance, tampered)
            assert any("shorter than task" in v for v in verdict.violations)


class TestCoreSchedule:
    def test_ascending_task_id_order(self):
        instance = make_instance(max_windows=1, frame=600)
        # tasks 7 and 3 together on cluster 2 (2 cores)
        assignment = ts.Assignment.from_placements(
            instance,
            [(7, 1, 2), (3, 1, 2)]
            + [(i, 1, 1) for i in (1, 2, 4, 5)]
            + [(6, 1, 1)],
        )
        # cluster 1 has only 4 cores; place task 6 elsewhere
        assignment = ts.Assignment.from_placements(
            instance, [(7, 1, 2), (3, 1, 2), (1, 1, 1), (2, 1, 1), (4, 1, 1), (5, 1, 1), (6, 1, 1)]
        )
        with pytest.raises(ValueError):
            ts.derive_core_schedule(instance, assignment)

    def test_bijection_and_idle_slots(self, seven_tasks):
        instance, assignment = seven_tasks
        schedule = ts.derive_core_schedule(instance, assignment)
        seen = []
        idle = 0
        for j in range(1, instance.max_windows + 1):
            for cluster_slots in schedule.window(j):
                for tid in cluster_slots:
                    if tid is None:
                        idle += 1
                    else:
                        seen.append(tid)
        assert sorted(seen) == [t.id for t in instance.tasks]
        assert idle == instance.max_windows * instance.platform.total_cores - len(seen)

    def test_slot_order(self):
        instance = make_instance(max_windows=1, frame=600)
        assignment = ts.Assignment.from_placements(
            instance, [(7, 1, 2), (3, 1, 2), (1, 1, 1), (2, 1, 1), (4, 1, 1), (5, 1, 1), (6, 1, 2)]
        )
        # cluster 2 has 2 cores but got 3 tasks: infeasible
        with pytest.raises(ValueError):
            ts.derive_core_schedule(instance, assignment)
        assignment = ts.Assignment.from_placements(
            instance, [(7, 1, 2), (3, 1, 2), (1, 1, 1), (2, 1, 1), (4, 1, 1), (6, 1, 1)]
        )
        instance6 = ts.Instance(instance.platform, tuple(t for t in instance.tasks if t.id != 5), 600, 1)
        schedule = ts.derive_core_schedule(instance6, assignment)
        assert schedule.window(1)[1] == (3, 7)


class TestTotalIdleTime:
    def test_empty_task_set(self):
        instance = ts.Instance(helpers.MEK, (), 100, 1)
        assignment = ts.Assignment((), (0,))
        assert ts.total_idle_time(instance, assignment) == 600

    def test_single_task(self):
        tasks = (ts.Task(1, "t", (
            ts.TaskCharacteristics(1, 40, 0.1, 0.1),
            ts.TaskCharacteristics(2, 40, 0.1, 0.1),
        )),)
        instance = ts.Instance(helpers.MEK, tasks, 100, 1)
        assignment = ts.Assignment.from_placements(instance, [(1, 1, 1)])
        assert ts.total_idle_time(instance, assignment) == 560

    def test_example_window_as_frame(self, example_window):
        instance, assignment = example_window
        assert ts.total_idle_time(instance, assignment) == 2500

    def test_idle_identity_random(self):
        rng = random.Random(42)
        checked = 0
        for seed in range(12):
            instance = helpers.small_random_instance(seed)
            for assignment in helpers.random_feasible_assignments(instance, rng, 20, 2000):
                processing = sum(
                    instance.task_by_id(p.task_id).on(p.cluster).exec_time_ms
                    for p in assignment.placements
                )
                assert (
                    ts.total_idle_time(instance, assignment) + processing
                    == instance.major_frame_ms * instance.platform.total_cores
                )
                checked += 1
        assert checked >= 100


class TestInstanceIO:
    def test_round_trip(self, seven_tasks, tmp_path):
        instance, _ = seven_tasks
        path = tmp_path / "inst.json"
        ts.save_instance(instance, str(path))
        assert ts.load_instance(str(path)) == instance

    @pytest.mark.parametrize(
        "kind, breakage, message",
        [
            ("instance", lambda d: d.pop("major_frame_ms"),
             "instance: missing field 'major_frame_ms'"),
            ("instance", lambda d: d["tasks"][1]["per_cluster"][0].pop("exec_time_ms"),
             "tasks[1].per_cluster[0]: missing field 'exec_time_ms'"),
            ("assignment", lambda d: d["placements"][2].pop("window"),
             "placements[2]: missing field 'window'"),
            ("instance", lambda d: d["tasks"][1]["per_cluster"].__setitem__(0, [1, 450]),
             "instance document has a field of the wrong type: "
             "'list' object has no attribute 'get'"),
            ("instance", lambda d: d["tasks"][1]["per_cluster"].__setitem__(0, "cluster_id"),
             "instance document has a field of the wrong type: "
             "'str' object has no attribute 'get'"),
            ("instance", lambda d: d["tasks"][1]["per_cluster"].__setitem__(0, 3),
             "instance document has a field of the wrong type: "
             "'int' object has no attribute 'get'"),
        ],
        ids=["major_frame_ms", "per_cluster-field", "placement-field",
             "per_cluster-list", "per_cluster-string", "per_cluster-number"],
    )
    def test_missing_field_named(self, kind, breakage, message):
        instance = helpers.worked_example()
        if kind == "instance":
            doc, load = ts.model.instance_to_dict(instance), ts.load_instance
        else:
            asg = helpers.worked_example_assignment(instance)
            doc, load = ts.model.assignment_to_dict(asg), ts.load_assignment
        breakage(doc)
        with pytest.raises(ts.ParseError, match=f"^{re.escape(message)}$"):
            load(io.StringIO(json.dumps(doc)))

    def test_unknown_fields_ignored(self):
        doc = ts.model.instance_to_dict(helpers.worked_example())
        doc["comment"] = "extra"
        doc["platform"]["vendor"] = "acme"
        doc["tasks"][0]["priority"] = 3
        assert ts.model.instance_from_dict(doc) == helpers.worked_example()

    def test_assignment_round_trip(self, seven_tasks, tmp_path):
        _, assignment = seven_tasks
        path = tmp_path / "asg.json"
        ts.save_assignment(assignment, str(path))
        assert ts.load_assignment(str(path)) == assignment

    def test_thermal_fields_round_trip(self, tmp_path):
        plat = ts.Platform(
            clusters=helpers.MEK.clusters,
            idle_power_watts=5.5,
            thermal_b=0.5,
            thermal_g=0.4,
            ambient_celsius=25.0,
        )
        instance = ts.Instance(plat, helpers.worked_example().tasks, 700, 1)
        buf = io.StringIO()
        ts.save_instance(instance, buf)
        buf.seek(0)
        assert ts.load_instance(buf) == instance


class _Int(int):
    pass


class _Float(float):
    def __repr__(self):
        return "not JSON"


def stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def written_text(doc) -> str:
    buf = io.StringIO()
    ts.model._write_json(doc, buf)
    return buf.getvalue()


JSON_TEXT = st.text() | st.sampled_from(['', '"', "\\", "\x00\x1f\n\t\x7f", "é", "\u2028", "😀"])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.integers().map(_Int)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.floats().map(_Float)
    | JSON_TEXT
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(JSON_TEXT, children, max_size=4)
        | st.dictionaries(st.integers() | st.floats() | st.booleans(), children, max_size=3)
    ),
    max_leaves=25,
)


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    def test_matches_the_stdlib(self, doc):
        assert written_text(doc) == stdlib_text(doc)

    def test_empty_and_nested_containers(self):
        doc = {"a": {}, "b": [], "c": (), "d": [{}, [[]], {"e": ({"f": None},)}]}
        assert written_text(doc) == stdlib_text(doc)

    def test_every_document_kind_matches_the_stdlib(self, tmp_path, monkeypatch, capsys):
        written = []
        real = ts.model._write_json

        def spy(doc, path_or_file):
            real(doc, path_or_file)
            written.append((doc, path_or_file))

        for module in (ts.model, cli, ts.power):
            monkeypatch.setattr(module, "_write_json", spy)
        inst, heur = str(tmp_path / "inst.json"), str(tmp_path / "heur.json")
        report, coeff = str(tmp_path / "report.json"), str(tmp_path / "coeff.json")
        assert cli.main(["generate", "--n", "6", "--kernels", "mixed", "--seed", "1", "-o", inst]) == 0
        assert cli.main(["solve", inst, "--method", "heur", "-o", heur]) == 0
        evaluate = ["evaluate", inst, heur, "--model", "lr", "--coefficients", "imx8-mek"]
        assert cli.main(evaluate + ["-o", report]) == 0
        ts.save_coefficients(ts.builtin_coefficients("imx8-mek"), coeff)
        capsys.readouterr()
        assert cli.main(evaluate) == 0  # the report goes to standard output
        stdout_report, _ = written.pop()
        assert capsys.readouterr().out == stdlib_text(stdout_report)
        paths = [path for _, path in written]
        assert sorted(paths) == sorted([
            inst, str(tmp_path / "inst.manifest.json"),
            heur, str(tmp_path / "heur.result.json"), str(tmp_path / "heur.manifest.json"),
            report, str(tmp_path / "report.manifest.json"), coeff,
        ])
        for doc, path in written:
            with open(path, encoding="utf-8") as f:
                assert f.read() == stdlib_text(doc), path

    def test_unserializable_value_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"kept": true}\n')
        with pytest.raises(TypeError, match="not JSON serializable"):
            ts.model._write_json({"a": 1, "b": object()}, str(path))
        assert path.read_text() == '{"kept": true}\n'


class TestCharacteristicsCsv:
    def test_round_trip_shape(self):
        text = (
            "kernel,cluster_id,exec_time_ms,activity_coef,offset_coef\n"
            "a2time-4K,1,450,0.25,0.25\n"
            "a2time-4K,2,161,0.52,0.37\n"
        )
        table = ts.read_characteristics_csv(io.StringIO(text))
        assert table["a2time-4K"][1].activity_coef == 0.25
        assert table["a2time-4K"][2].exec_time_ms == 161

    def test_bad_header(self):
        with pytest.raises(ts.ParseError):
            ts.read_characteristics_csv(io.StringIO("kernel,exec_time_ms\nx,1\n"))

    @pytest.mark.parametrize(
        "row", ["a,1,450,0.25,0.25,extra", "a,1,450,0.25"], ids=["extra-column", "short-row"]
    )
    def test_row_must_have_the_header_columns(self, row):
        text = (
            "kernel,cluster_id,exec_time_ms,activity_coef,offset_coef\n"
            "a,2,161,0.52,0.37\n"
            "\n"
            f"{row}\n"
        )
        with pytest.raises(ts.ParseError, match="^line 4: expected 5 columns$"):
            ts.read_characteristics_csv(io.StringIO(text))
