import io
import math

import pytest

import helpers
import thermosched as ts
from thermosched.generator import (
    GeneratorConfig,
    generate_instance,
    load_kernel_pool,
    pick_big_cluster,
    scalability_sweep,
    write_sweep_csv,
)
from thermosched.presets import (
    KERNEL_POOL_NAMES,
    builtin_coefficients,
    builtin_kernel_pool,
    builtin_platform,
    kernel_pool_text,
)


def flat_pool(speedup=1.0):
    """Single-kernel pool with a chosen big-over-little slowdown factor."""
    ips_little = 100.0
    ips_big = speedup * ips_little * (1200 / 1600)
    text = (
        "kernel,cluster_id,activity_coef,offset_coef,ips,frequency_mhz\n"
        f"flat,1,0.3,0.4,{ips_little},1200\n"
        f"flat,2,0.8,0.6,{ips_big},1600\n"
    )
    return load_kernel_pool(io.StringIO(text))


class TestLoadKernelPool:
    def test_reference_row_loads_verbatim(self, mixed_pool):
        a2time = next(k for k in mixed_pool if k.name == "a2time-4K")
        little = a2time.on(1)
        assert (little.activity_coef, little.offset_coef) == (0.25, 0.25)

    def test_equal_ips_and_frequency_means_speedup_one(self):
        text = (
            "kernel,cluster_id,activity_coef,offset_coef,ips,frequency_mhz\n"
            "k,1,0.1,0.1,500,1000\n"
            "k,2,0.2,0.2,500,1000\n"
        )
        pool = load_kernel_pool(io.StringIO(text))
        assert pool[0].time_scale(2, 1) == pytest.approx(1.0)

    def test_missing_cluster_row_names_kernel(self):
        text = (
            "kernel,cluster_id,activity_coef,offset_coef,ips,frequency_mhz\n"
            "lonely,1,0.1,0.1,500,1000\n"
            "full,1,0.1,0.1,500,1000\n"
            "full,2,0.1,0.1,500,1000\n"
        )
        with pytest.raises(ts.ParseError, match="lonely"):
            load_kernel_pool(io.StringIO(text))

    def test_second_row_for_a_kernel_cluster_is_refused(self):
        text = (
            "kernel,cluster_id,activity_coef,offset_coef,ips,frequency_mhz\n"
            "k1,1,0.1,0.1,500,1000\n"
            "k1,2,0.2,0.2,500,1000\n"
            "k1,1,0.3,0.3,700,1000\n"
        )
        with pytest.raises(ts.ParseError, match="^line 4: kernel k1 has a second row for cluster 1$"):
            load_kernel_pool(io.StringIO(text))

    @pytest.mark.parametrize(
        "row", ["k,2,0.2,0.2,500,1000,extra", "k,2,0.2,0.2,500"], ids=["extra-column", "short-row"]
    )
    def test_row_must_have_the_header_columns(self, row):
        text = (
            "kernel,cluster_id,activity_coef,offset_coef,ips,frequency_mhz\n"
            "k,1,0.1,0.1,500,1000\n"
            f"{row}\n"
        )
        with pytest.raises(ts.ParseError, match="^line 3: expected 6 columns$"):
            load_kernel_pool(io.StringIO(text))
        # a blank row is skipped but still counted in the line number
        blank = text.replace(f"{row}\n", f"\n{row}\n")
        with pytest.raises(ts.ParseError, match="^line 4: expected 6 columns$"):
            load_kernel_pool(io.StringIO(blank))

    @pytest.mark.parametrize("name", KERNEL_POOL_NAMES)
    def test_builtin_pool_is_parsed_once(self, name):
        pool = builtin_kernel_pool(name)
        assert builtin_kernel_pool(name) is pool
        assert pool == load_kernel_pool(io.StringIO(kernel_pool_text(name)))

    def test_unknown_builtin_pool_is_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(KeyError, match="^\"unknown kernel pool 'gpu'; available: mixed, cpu\"$"):
                builtin_kernel_pool("gpu")

    @pytest.mark.parametrize("lookup", [builtin_platform, builtin_coefficients])
    def test_unknown_builtin_preset_is_refused(self, lookup):
        with pytest.raises(KeyError, match="unknown .* 'gpu'; available: "):
            lookup("gpu")

    def test_known_speedup(self, mixed_pool):
        a2time = next(k for k in mixed_pool if k.name == "a2time-4K")
        assert a2time.time_scale(2, 1) == pytest.approx(2.8)


class TestGenerateInstance:
    def test_frame_length_rule(self):
        # all execution times exactly 100 ms on both clusters
        config = GeneratorConfig(
            kernel_pool=flat_pool(1.0),
            n_tasks=20,
            big_exec_min_ms=100,
            big_exec_max_ms=100,
            tightness_kappa=3.5,
            rng_seed=0,
        )
        inst = generate_instance(config, helpers.MEK)
        assert inst.major_frame_ms == 571  # round(20 * 100 / 3.5)
        assert inst.max_windows == 20

    def test_speedup_one_equalizes_times(self):
        config = GeneratorConfig(kernel_pool=flat_pool(1.0), n_tasks=10, rng_seed=1)
        inst = generate_instance(config, helpers.MEK)
        for t in inst.tasks:
            assert t.on(1).exec_time_ms == t.on(2).exec_time_ms

    def test_seed_determinism(self, mixed_pool):
        config = GeneratorConfig(kernel_pool=mixed_pool, n_tasks=15, rng_seed=9)
        assert generate_instance(config, helpers.MEK) == generate_instance(config, helpers.MEK)

    def test_generated_instances_validate(self, mixed_pool):
        for seed in range(20):
            config = GeneratorConfig(kernel_pool=mixed_pool, n_tasks=12, rng_seed=seed)
            inst = generate_instance(config, helpers.MEK)
            assert math.ceil(12 / inst.platform.total_cores) <= inst.max_windows <= 12

    def test_big_cluster_is_highest_frequency(self):
        assert pick_big_cluster(helpers.MEK) == 2

    def test_big_cluster_override(self, mixed_pool):
        config = GeneratorConfig(
            kernel_pool=mixed_pool, n_tasks=5, rng_seed=2, big_cluster_id=1,
            big_exec_min_ms=100, big_exec_max_ms=100,
        )
        inst = generate_instance(config, helpers.MEK)
        for t in inst.tasks:
            assert t.on(1).exec_time_ms == 100

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kernel_pool": ()}, "kernel pool must not be empty"),
            ({"big_exec_min_ms": 50, "big_exec_max_ms": 40}, "must not exceed big_exec_max_ms"),
            ({"big_exec_min_ms": 0}, "big_exec_min_ms must be positive"),
            ({"big_cluster_id": 3}, "big cluster 3 is not a platform cluster"),
        ],
        ids=["empty-pool", "min-above-max", "min-below-one", "unknown-big-cluster"],
    )
    def test_bad_config_is_refused(self, mixed_pool, fields, message):
        with pytest.raises(ValueError, match=message):
            config = GeneratorConfig(**{"kernel_pool": mixed_pool, "n_tasks": 5, **fields})
            generate_instance(config, helpers.MEK)

    def test_pool_on_other_clusters_is_refused(self):
        text = (
            "kernel,cluster_id,activity_coef,offset_coef,ips,frequency_mhz\n"
            "k,1,0.3,0.4,100,1200\n"
            "k,3,0.8,0.6,150,1600\n"
        )
        config = GeneratorConfig(kernel_pool=load_kernel_pool(io.StringIO(text)), n_tasks=5)
        with pytest.raises(ValueError, match=r"covers clusters \[1, 3\] but the platform has \[1, 2\]"):
            generate_instance(config, helpers.MEK)

    def test_uniform_big_times(self, mixed_pool):
        import scipy.stats

        config = GeneratorConfig(kernel_pool=mixed_pool, n_tasks=10000, rng_seed=3)
        inst = generate_instance(config, helpers.MEK)
        times = [t.on(2).exec_time_ms for t in inst.tasks]
        counts = [0] * 121
        for e in times:
            counts[e - 40] += 1
        result = scipy.stats.chisquare(counts)
        assert result.pvalue > 0.01


class TestSweep:
    def test_smoke_single_row(self, mixed_pool):
        cells = scalability_sweep(
            sizes=[5],
            repetitions=1,
            methods=["heur"],
            time_limit_ms=10000,
            platform=helpers.MEK,
            kernel_pool=mixed_pool,
            base_seed=0,
        )
        assert len(cells) == 1
        assert cells[0].n == 5 and cells[0].method == "heur"
        assert cells[0].status in ("feasible", "infeasible")

    def test_csv_shape(self, mixed_pool, tmp_path):
        cells = scalability_sweep(
            sizes=[5, 6],
            repetitions=2,
            methods=["heur", "idle-max"],
            time_limit_ms=10000,
            platform=helpers.MEK,
            kernel_pool=mixed_pool,
            base_seed=1,
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(cells, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,method,rep,status,elapsed_ms,objective,bound"
        assert len(lines) == 1 + 2 * 2 * 2

    def test_ga_consumes_entire_budget(self, mixed_pool):
        cells = scalability_sweep(
            sizes=[5],
            repetitions=1,
            methods=["bb-sm"],
            time_limit_ms=1500,
            platform=helpers.MEK,
            kernel_pool=mixed_pool,
            base_seed=2,
        )
        assert cells[0].elapsed_ms >= 1500

    def test_seed_determinism(self, mixed_pool):
        kwargs = dict(
            repetitions=2,
            methods=["idle-min"],
            time_limit_ms=10000,
            platform=helpers.MEK,
            kernel_pool=mixed_pool,
            base_seed=4,
        )

        def rows(*size_lists):
            return [
                (c.n, c.method, c.rep, c.status, c.objective)
                for sizes in size_lists
                for c in scalability_sweep(sizes=sizes, **kwargs)
            ]

        assert rows([5]) == rows([5])
        # a cell depends only on its seed, so disjoint sizes may run apart
        assert rows([5], [6]) == rows([5, 6])

    @pytest.mark.parametrize(
        "methods, base_seed, message",
        [
            (["ilp-sm", "bogus"], 0, "^unknown method 'bogus'"),
            (["ilp-sm", "qp-lr-ub"], 0, "^method qp-lr-ub needs regression coefficients$"),
            (["ilp-sm", "bb-sm"], -1, "^base_seed must be non-negative, got -1$"),
        ],
        ids=["unknown-method", "missing-coefficients", "negative-seed"],
    )
    def test_bad_input_is_refused_before_the_first_cell(
        self, mixed_pool, monkeypatch, methods, base_seed, message
    ):
        calls = []
        monkeypatch.setattr(
            ts.generator, "run_method", lambda *args, **kwargs: calls.append(args)
        )
        with pytest.raises(ValueError, match=message):
            scalability_sweep(
                sizes=[5], repetitions=1, methods=methods, time_limit_ms=10000,
                platform=helpers.MEK, kernel_pool=mixed_pool, base_seed=base_seed,
            )
        assert calls == []

    @pytest.mark.parametrize("sizes", [[5, 0], [5, -2]])
    def test_bad_size_is_refused_before_the_first_cell(self, mixed_pool, monkeypatch, sizes):
        calls = []
        monkeypatch.setattr(
            ts.generator, "run_method", lambda *args, **kwargs: calls.append(args)
        )
        with pytest.raises(ValueError, match="^n_tasks must be at least 1$"):
            scalability_sweep(
                sizes=sizes, repetitions=2, methods=["heur"], time_limit_ms=10000,
                platform=helpers.MEK, kernel_pool=mixed_pool,
            )
        assert calls == []
