import io
import math
import random

import pytest

import helpers
import thermosched as ts
from thermosched.power import FitSample


class TestSmWindowPower:
    def test_worked_example(self, example_window):
        instance, assignment = example_window
        tcs = [instance.task_by_id(p.task_id).on(p.cluster) for p in assignment.placements]
        est = ts.sm_window_power(instance.platform, tcs, 700)
        assert est.watts == pytest.approx(8.58, abs=0.01)
        assert est.offset_watts == pytest.approx(1.36, abs=1e-12)

    def test_empty_window_is_idle(self, mek_platform):
        est = ts.sm_window_power(mek_platform, [], 0)
        assert est.watts == mek_platform.idle_power_watts
        assert est.activity_watts == 0.0 and est.offset_watts == 0.0

    def test_unit_occupancy(self):
        plat = ts.Platform(clusters=helpers.MEK.clusters, idle_power_watts=0.0)
        tc = ts.TaskCharacteristics(1, 100, 1.0, 1.0)
        assert ts.sm_window_power(plat, [tc], 100).watts == pytest.approx(2.0)

    def test_window_shorter_than_task_errors(self, mek_platform):
        tc = ts.TaskCharacteristics(1, 100, 1.0, 1.0)
        with pytest.raises(ValueError):
            ts.sm_window_power(mek_platform, [tc], 99)

    def test_breakdown_sums(self, example_window):
        instance, assignment = example_window
        tcs = [instance.task_by_id(p.task_id).on(p.cluster) for p in assignment.placements]
        est = ts.sm_window_power(instance.platform, tcs, 700)
        assert est.watts == pytest.approx(
            est.idle_watts + est.activity_watts + est.offset_watts, abs=1e-9
        )

    def test_monotone_when_window_unchanged(self):
        # Adding a task that does not stretch the window can only add power
        # (nonnegative coefficients). With a re-derived longer window the
        # shortening of occupancies can outweigh the newcomer, so the
        # guarantee holds only in this form.
        rng = random.Random(3)
        plat = helpers.MEK
        for _ in range(200):
            base = [
                ts.TaskCharacteristics(1, rng.randint(50, 200), rng.uniform(0, 2), rng.uniform(0, 2))
                for _ in range(rng.randint(1, 3))
            ]
            length = max(tc.exec_time_ms for tc in base)
            extra = ts.TaskCharacteristics(
                2, rng.randint(1, length), rng.uniform(0, 2), rng.uniform(0, 2)
            )
            before = ts.sm_window_power(plat, base, length).watts
            after = ts.sm_window_power(plat, base + [extra], length).watts
            assert after >= before - 1e-12


class TestIntervals:
    def test_worked_example_decomposition(self, example_window):
        instance, assignment = example_window
        intervals = ts.decompose_intervals(instance, assignment, 1)
        assert [iv.length_ms for iv in intervals] == [450, 100, 150]
        active_sets = [
            {tid for cluster in iv.active for tid in cluster if tid is not None}
            for iv in intervals
        ]
        assert active_sets == [{1, 2, 3}, {2, 3}, {3}]

    def test_single_task_full_window(self):
        tasks = (ts.Task(1, "t", (
            ts.TaskCharacteristics(1, 100, 0.5, 0.5),
            ts.TaskCharacteristics(2, 100, 0.5, 0.5),
        )),)
        instance = ts.Instance(helpers.MEK, tasks, 100, 1)
        assignment = ts.Assignment.from_placements(instance, [(1, 1, 1)])
        intervals = ts.decompose_intervals(instance, assignment, 1)
        assert len(intervals) == 1 and intervals[0].length_ms == 100

    def test_equal_end_times_on_different_clusters(self):
        tasks = (
            ts.Task(1, "a", (
                ts.TaskCharacteristics(1, 60, 0.5, 0.5),
                ts.TaskCharacteristics(2, 60, 0.5, 0.5),
            )),
            ts.Task(2, "b", (
                ts.TaskCharacteristics(1, 60, 0.5, 0.5),
                ts.TaskCharacteristics(2, 60, 0.5, 0.5),
            )),
        )
        instance = ts.Instance(helpers.MEK, tasks, 200, 1)
        assignment = ts.Assignment.from_placements(instance, [(1, 1, 1), (2, 1, 2)])
        # both end at 60 = window length: one interval only
        intervals = ts.decompose_intervals(instance, assignment, 1)
        assert [iv.length_ms for iv in intervals] == [60]

    def test_partition_preserves_busy_time(self):
        rng = random.Random(11)
        for seed in range(8):
            instance = helpers.small_random_instance(seed)
            for assignment in helpers.random_feasible_assignments(instance, rng, 5, 1000):
                for j in range(1, instance.max_windows + 1):
                    intervals = ts.decompose_intervals(instance, assignment, j)
                    assert sum(iv.length_ms for iv in intervals) == assignment.window_lengths_ms[j - 1]
                    busy = {}
                    for iv in intervals:
                        for cluster in iv.active:
                            for tid in cluster:
                                if tid is not None:
                                    busy[tid] = busy.get(tid, 0) + iv.length_ms
                    for p in assignment.placements:
                        if p.window == j:
                            e = instance.task_by_id(p.task_id).on(p.cluster).exec_time_ms
                            assert busy[p.task_id] == e


class TestLrPower:
    def test_worked_example_first_interval(self, example_window, mek_coefficients):
        instance, assignment = example_window
        interval = ts.decompose_intervals(instance, assignment, 1)[0]
        est = ts.lr_interval_power(instance.platform, mek_coefficients, interval, instance)
        assert est.watts - instance.platform.idle_power_watts == pytest.approx(2.99, abs=0.01)

    def test_all_idle_interval(self, mek_platform, mek_coefficients):
        interval = ts.ProcessingInterval(
            length_ms=100,
            active=((None,) * 4, (None,) * 2),
        )
        instance = helpers.worked_example()
        est = ts.lr_interval_power(mek_platform, mek_coefficients, interval, instance)
        assert est.watts == mek_platform.idle_power_watts

    def test_single_feature_term(self):
        plat = ts.Platform(clusters=helpers.MEK.clusters, idle_power_watts=0.0)
        coeff = ts.RegressionCoefficients(betas=((1.205, 0.270), (0.969, 0.456)))
        tasks = (ts.Task(1, "t", (
            ts.TaskCharacteristics(1, 10, 1.0, 0.0),
            ts.TaskCharacteristics(2, 10, 1.0, 0.0),
        )),)
        instance = ts.Instance(plat, tasks, 10, 1)
        interval = ts.ProcessingInterval(length_ms=10, active=((None,) * 4, (1, None)))
        est = ts.lr_interval_power(plat, coeff, interval, instance)
        assert est.watts == pytest.approx(0.969)


class TestSchedulePower:
    def test_worked_example_sm_and_lr(self, example_window, mek_coefficients):
        instance, assignment = example_window
        assert ts.schedule_power(instance, assignment, "sm").watts == pytest.approx(8.58, abs=0.01)
        assert ts.schedule_power(instance, assignment, "lr", mek_coefficients).watts == pytest.approx(8.17, abs=0.01)

    def test_no_tasks_gives_idle_for_all_models(self, mek_coefficients):
        instance = ts.Instance(helpers.MEK, (), 100, 1)
        assignment = ts.Assignment((), (0,))
        for model in ("sm", "lr", "lr-ub"):
            est = ts.schedule_power(instance, assignment, model, mek_coefficients)
            assert est.watts == instance.platform.idle_power_watts

    def test_doubling_frame_halves_above_idle(self, example_window, mek_coefficients):
        instance, assignment = example_window
        doubled = ts.Instance(instance.platform, instance.tasks, 1400, 1)
        for model in ("sm", "lr", "lr-ub"):
            full = ts.schedule_power(instance, assignment, model, mek_coefficients)
            half = ts.schedule_power(doubled, assignment, model, mek_coefficients)
            idle = instance.platform.idle_power_watts
            assert half.watts - idle == pytest.approx((full.watts - idle) / 2, abs=1e-9)

    def test_lr_requires_coefficients(self, example_window):
        instance, assignment = example_window
        with pytest.raises(ValueError):
            ts.schedule_power(instance, assignment, "lr")

    def test_lr_closed_form_matches_interval_path(self, mek_coefficients):
        rng = random.Random(17)
        checked = 0
        for seed in range(12):
            instance = helpers.small_random_instance(seed, n_hi=10, q_max=5)
            for assignment in helpers.random_feasible_assignments(instance, rng, 8, 2000):
                lr = ts.schedule_power(instance, assignment, "lr", mek_coefficients).watts
                oracle = helpers.lr_interval_oracle(instance, assignment, mek_coefficients)
                assert abs(lr - oracle) <= 1e-12
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("case", ["over-capacity", "frame-overflow", "short-window"])
    @pytest.mark.parametrize("model", ["sm", "lr", "lr-ub"])
    def test_rejects_infeasible_assignment(self, mek_coefficients, model, case):
        instance, assignment = helpers.seven_task_layout()
        if case == "over-capacity":
            # all seven tasks in window 1 overflow the 4 + 2 cores
            assignment = ts.Assignment.from_placements(
                instance, [(p.task_id, 1, p.cluster) for p in assignment.placements]
            )
            violation = "tasks exceed 4 cores"
        elif case == "frame-overflow":
            # the windows sum to 545 ms
            instance = ts.Instance(instance.platform, instance.tasks, 544, instance.max_windows)
            violation = "exceeding the major frame"
        else:
            lengths = (149,) + assignment.window_lengths_ms[1:]
            assignment = ts.Assignment(assignment.placements, lengths)
            violation = "window 1 is shorter than task 2"
        with pytest.raises(ValueError, match=f"infeasible assignment: .*{violation}"):
            ts.schedule_power(instance, assignment, model, mek_coefficients)

    def test_sm_aggregation_identity(self):
        rng = random.Random(5)
        checked = 0
        for seed in range(10):
            instance = helpers.small_random_instance(seed)
            for assignment in helpers.random_feasible_assignments(instance, rng, 20, 2000):
                direct = ts.schedule_power(instance, assignment, "sm").watts
                linear = helpers.sm_value(instance, assignment)
                assert direct == pytest.approx(linear, abs=1e-9)
                checked += 1
        assert checked >= 100

    def test_lr_ub_dominates_lr(self, mek_coefficients):
        rng = random.Random(6)
        checked = 0
        for seed in range(10):
            instance = helpers.small_random_instance(seed)
            for assignment in helpers.random_feasible_assignments(instance, rng, 10, 1000):
                ub = ts.schedule_power(instance, assignment, "lr-ub", mek_coefficients).watts
                lr = ts.schedule_power(instance, assignment, "lr", mek_coefficients).watts
                assert ub >= lr - 1e-9
                checked += 1
        assert checked >= 50


class TestLrUbWindowPower:
    def test_worked_example(self, example_window, mek_coefficients):
        instance, assignment = example_window
        tcs = [instance.task_by_id(p.task_id).on(p.cluster) for p in assignment.placements]
        est = ts.lr_ub_window_power(instance.platform, mek_coefficients, tcs, 700)
        assert est.watts == pytest.approx(8.49, abs=0.01)

    def test_empty_window(self, mek_platform, mek_coefficients):
        est = ts.lr_ub_window_power(mek_platform, mek_coefficients, [], 0)
        assert est.watts == mek_platform.idle_power_watts

    def test_unit_star(self, mek_coefficients):
        plat = ts.Platform(clusters=helpers.MEK.clusters, idle_power_watts=5.5)
        beta = mek_coefficients.beta(1)
        # choose a, b with a*beta1 + b*beta2 == 1
        a = 0.5
        b = (1.0 - a * beta[0]) / beta[1]
        tc = ts.TaskCharacteristics(1, 10, a, b)
        est = ts.lr_ub_window_power(plat, mek_coefficients, [tc], 10)
        assert est.watts == pytest.approx(6.5)

    def test_independent_of_exec_time(self, mek_coefficients, mek_platform):
        short = ts.TaskCharacteristics(1, 10, 0.4, 0.6)
        long = ts.TaskCharacteristics(1, 500, 0.4, 0.6)
        a = ts.lr_ub_window_power(mek_platform, mek_coefficients, [short], 500)
        b = ts.lr_ub_window_power(mek_platform, mek_coefficients, [long], 500)
        assert a.watts == b.watts


class TestTemperature:
    def _thermal_platform(self, b, g, amb):
        return ts.Platform(
            clusters=helpers.MEK.clusters,
            idle_power_watts=5.5,
            thermal_b=b,
            thermal_g=g,
            ambient_celsius=amb,
        )

    def test_unit_parameters(self):
        plat = self._thermal_platform(1.0, 1.0, 25.0)
        assert ts.power_to_temperature(plat, 10.0) == pytest.approx(35.0)

    def test_zero_power(self):
        plat = self._thermal_platform(0.8, 0.6, 20.0)
        assert ts.power_to_temperature(plat, 0.0) == pytest.approx((0.6 / 0.8) * 20.0)

    def test_hand_evaluated(self):
        plat = self._thermal_platform(0.5, 0.4, 25.0)
        assert ts.power_to_temperature(plat, 8.0) == pytest.approx(36.0)

    def test_missing_parameters_error(self, mek_platform):
        with pytest.raises(ValueError, match="thermal"):
            ts.power_to_temperature(mek_platform, 10.0)

    def test_affine(self):
        plat = self._thermal_platform(0.7, 0.5, 22.0)
        rng = random.Random(1)
        for _ in range(50):
            p1, p2 = rng.uniform(0, 20), rng.uniform(0, 20)
            alpha = rng.random()
            mixed = ts.power_to_temperature(plat, alpha * p1 + (1 - alpha) * p2)
            combined = alpha * ts.power_to_temperature(plat, p1) + (1 - alpha) * ts.power_to_temperature(plat, p2)
            assert mixed == pytest.approx(combined, abs=1e-9)


def synthetic_samples(platform, betas, count, noise_sigma, rng):
    samples = []
    for _ in range(count):
        feats = []
        watts = platform.idle_power_watts
        for beta in betas:
            sa = rng.uniform(0, 4)
            sb = rng.uniform(0, 4)
            feats.append((sa, sb))
            watts += beta[0] * sa + beta[1] * sb
        if noise_sigma:
            watts += rng.gauss(0.0, noise_sigma)
        samples.append(FitSample(1000, watts, tuple(feats)))
    return samples


class TestRegressionCoefficients:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_beta(self, bad):
        with pytest.raises(ValueError, match=r"^cluster 2: beta must be finite"):
            ts.RegressionCoefficients(betas=((1.205, 0.270), (0.969, bad)))


class TestFitRegression:
    def test_noise_free_recovery(self, mek_platform):
        rng = random.Random(0)
        betas = ((1.205, 0.270), (0.969, 0.456))
        samples = synthetic_samples(mek_platform, betas, 40, 0.0, rng)
        fit = ts.fit_regression_coefficients(samples, mek_platform)
        for got, want in zip(fit.betas, betas):
            assert got == pytest.approx(want, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_all_idle_samples_rank_deficient(self, mek_platform):
        samples = [
            FitSample(1000, mek_platform.idle_power_watts, ((0.0, 0.0), (0.0, 0.0)))
            for _ in range(20)
        ]
        with pytest.raises(ValueError, match="rank"):
            ts.fit_regression_coefficients(samples, mek_platform)

    def test_too_few_samples(self, mek_platform):
        rng = random.Random(0)
        samples = synthetic_samples(mek_platform, ((1.0, 1.0), (1.0, 1.0)), 7, 0.0, rng)
        with pytest.raises(ValueError, match="samples"):
            ts.fit_regression_coefficients(samples, mek_platform)

    def test_noisy_recovery(self, mek_platform):
        rng = random.Random(1)
        betas = ((1.205, 0.270), (0.969, 0.456))
        samples = synthetic_samples(mek_platform, betas, 1000, 0.1, rng)
        fit = ts.fit_regression_coefficients(samples, mek_platform)
        assert fit.r_squared > 0.95

    def test_samples_csv_round_trip(self, tmp_path, mek_platform):
        rng = random.Random(2)
        samples = synthetic_samples(mek_platform, ((1.0, 0.5), (0.9, 0.4)), 12, 0.05, rng)
        path = tmp_path / "samples.csv"
        ts.write_fit_samples_csv(samples, str(path))
        back = ts.read_fit_samples_csv(str(path), 2)
        assert back == samples


class TestCoefficientsIO:
    def test_round_trip(self, tmp_path, mek_coefficients):
        path = tmp_path / "coeff.json"
        ts.save_coefficients(mek_coefficients, str(path))
        assert ts.load_coefficients(str(path)) == mek_coefficients

    def test_missing_clusters_field(self):
        with pytest.raises(ts.ParseError, match="clusters"):
            ts.power.coefficients_from_dict({"r_squared": 1.0})

    def test_beta_float_cannot_read_is_a_parse_error(self):
        doc = '{"clusters": [{"cluster_id": 1, "beta": ["abc", 1]}]}'
        with pytest.raises(
            ts.ParseError, match=r"^coefficients document has a field of the wrong type: "
        ):
            ts.load_coefficients(io.StringIO(doc))

    def test_non_finite_beta_keeps_its_refusal(self):
        # a refusal of the built value is not relabelled as a parse error
        doc = '{"clusters": [{"cluster_id": 1, "beta": [NaN, 1]}]}'
        with pytest.raises(ValueError, match=r"^cluster 1: beta must be finite") as info:
            ts.load_coefficients(io.StringIO(doc))
        assert not isinstance(info.value, ts.ParseError)
