"""Command-line surface of the toolkit.

Subcommands: generate, solve, evaluate, fit, sweep, export-gantt, compare.
Every file-producing command writes a run manifest (flags, seed, version,
timestamps, input and output paths) next to its primary output, so a run
can be replayed byte-identically for the deterministic commands.

Exit codes: 0 for optimal or feasible outcomes, 2 for proven infeasibility,
3 for no verdict (a timeout, a genetic search that found no schedule, or a
greedy run whose feasibility oracle ran out of time), 64 for usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import os
import secrets
import sys

from . import __version__
from .exact import deadline_after
from .gantt import render_gantt_svg
from .generator import (
    GeneratorConfig,
    generate_instance,
    load_kernel_pool,
    resolve_big_cluster,
    scalability_sweep,
    write_sweep_csv,
)
from .heuristics import GaConfig, load_ga_config, write_fitness_trace_csv
from .model import (
    ParseError,
    Platform,
    load_assignment,
    load_instance,
    save_assignment,
    save_instance,
    _load_json,
    _platform_from_dict,
    _write_csv,
    _write_json,
)
from .power import (
    PowerModel,
    fit_regression_coefficients,
    load_coefficients,
    power_to_temperature,
    read_fit_samples_csv,
    save_coefficients,
    schedule_power,
)
from .presets import (
    KERNEL_POOL_NAMES,
    PLATFORM_NAMES,
    builtin_coefficients,
    builtin_kernel_pool,
    builtin_platform,
)
from .runners import METHOD_NAMES, METHODS, check_methods, run_method

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNKNOWN_TIMEOUT = 3
EXIT_USAGE = 64

_STATUS_EXIT = {
    "optimal": EXIT_OK,
    "feasible": EXIT_OK,
    "feasible_timeout": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "unknown_timeout": EXIT_UNKNOWN_TIMEOUT,
    "unknown": EXIT_UNKNOWN_TIMEOUT,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means infeasible here
        raise _UsageError(message)


#: What a command returns to main: exit code, the seed it used (None when
#: it draws no random numbers), and its input and output paths.
_Run = tuple[int, int | None, list[str], list[str]]


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(
    args, argv: list[str], seed: int | None, inputs: list[str], outputs: list[str],
    started_at: str,
) -> None:
    """Write <output stem>.manifest.json; a --seed flag records the seed used."""
    flags = vars(args)
    if "seed" in flags:
        flags = flags | {"seed": seed}
    doc = {
        "command": args.command,
        "argv": argv,
        "flags": {
            k: v
            for k, v in sorted(flags.items())
            if not k.startswith("_") and k not in ("func", "command")
        },
        "rng_seed": seed,
        "tool_version": __version__,
        "started_at": started_at,
        "finished_at": _now(),
        "inputs": inputs,
        "outputs": outputs,
    }
    _write_json(doc, os.path.splitext(args.output)[0] + ".manifest.json")


def _resolve_platform(value: str) -> Platform:
    if value in PLATFORM_NAMES:
        return builtin_platform(value)
    return _load_json(value, "platform", _platform_from_dict)


def _resolve_kernels(value: str):
    if value in KERNEL_POOL_NAMES:
        return builtin_kernel_pool(value)
    return load_kernel_pool(value)


def _resolve_coefficients(value: str | None):
    if value is None:
        return None
    if value in PLATFORM_NAMES:
        return builtin_coefficients(value)
    return load_coefficients(value)


def _resolve_seed(args) -> int:
    """--seed, or a fresh seed, printed; called after every check and read that can refuse."""
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed: {seed}")
    return seed


def _check_time_limit(args) -> None:
    """Refuse a --time-limit that every run's deadline_after refuses, before the seed is drawn."""
    deadline_after(args.time_limit)


def _parse_int_list(raw: str | None, flag: str) -> list[int] | None:
    if raw is None:
        return None
    try:
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated integer list") from None


def _check_methods(methods: list[str], coefficients, window_lengths=None) -> list[str]:
    """check_methods, with its ValueError turned into a usage error."""
    try:
        check_methods(methods, coefficients, window_lengths)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return methods


def _parse_methods(args) -> list[str]:
    """The --methods list of sweep and compare, which supply no window lengths."""
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    return _check_methods(methods, args.coefficients)


def _power_model(args) -> PowerModel:
    """The --model of evaluate and compare; the LR models need --coefficients."""
    model = PowerModel(args.model)
    if model in (PowerModel.LR, PowerModel.LR_UB) and args.coefficients is None:
        raise _UsageError(f"--model {model.value} requires --coefficients")
    return model


def _cmd_generate(args) -> _Run:
    platform = _resolve_platform(args.platform)
    pool = _resolve_kernels(args.kernels)
    config = GeneratorConfig(
        kernel_pool=pool,
        n_tasks=args.n,
        big_exec_min_ms=args.exec_min,
        big_exec_max_ms=args.exec_max,
        tightness_kappa=args.kappa,
        big_cluster_id=args.big_cluster,
    )
    resolve_big_cluster(config, platform)
    seed = _resolve_seed(args)
    instance = generate_instance(dataclasses.replace(config, rng_seed=seed), platform)
    save_instance(instance, args.output)
    return EXIT_OK, seed, [args.kernels], [args.output]


def _cmd_solve(args) -> _Run:
    lengths = _parse_int_list(args.window_lengths, "--window-lengths")
    _check_methods([args.method], args.coefficients, lengths)
    instance = load_instance(args.instance)
    coefficients = _resolve_coefficients(args.coefficients)
    seed = args.seed or 0
    ga_config = None
    if METHODS[args.method].randomized:
        # the seed drawn once the file is read replaces any rng_seed it holds
        overrides = dict(rng_seed=0, max_generations=args.max_generations)
        ga_config = (
            load_ga_config(args.ga_config, **overrides) if args.ga_config else GaConfig(**overrides)
        )
        _check_time_limit(args)
        seed = _resolve_seed(args)
        ga_config = dataclasses.replace(ga_config, rng_seed=seed)
    outcome = run_method(
        args.method,
        instance,
        time_limit_ms=args.time_limit,
        coefficients=coefficients,
        window_lengths=lengths,
        ga_config=ga_config,
    )
    outputs = []
    if outcome.assignment is not None:
        save_assignment(outcome.assignment, args.output)
        outputs.append(args.output)
    stem, _ = os.path.splitext(args.output)
    if outcome.trace is not None:
        trace_path = stem + ".trace.csv"
        write_fitness_trace_csv(outcome.trace, trace_path)
        outputs.append(trace_path)
    result_path = stem + ".result.json"
    result_doc = {
        "method": outcome.method,
        "status": outcome.status,
        "objective_value": outcome.objective,
        "lower_bound": outcome.bound,
        "elapsed_ms": outcome.elapsed_ms,
        "nodes_explored": outcome.nodes,
    }
    _write_json(result_doc, result_path)
    outputs.append(result_path)
    print(f"{outcome.method}: {outcome.status}", end="")
    if outcome.objective is not None:
        print(f", objective {outcome.objective:.6f}", end="")
    print()
    return _STATUS_EXIT[outcome.status], seed, [args.instance], outputs


def _cmd_evaluate(args) -> _Run:
    model = _power_model(args)
    instance = load_instance(args.instance)
    assignment = load_assignment(args.assignment)
    coefficients = _resolve_coefficients(args.coefficients)
    estimate = schedule_power(instance, assignment, model, coefficients)
    report = {
        "model": model.value,
        "watts": estimate.watts,
        "idle_watts": estimate.idle_watts,
        "activity_watts": estimate.activity_watts,
        "offset_watts": estimate.offset_watts,
    }
    if args.temperature:
        report["temperature_celsius"] = power_to_temperature(
            instance.platform, estimate.watts
        )
    _write_json(report, args.output or sys.stdout)
    return EXIT_OK, None, [args.instance, args.assignment], [args.output]


def _cmd_fit(args) -> _Run:
    platform = _resolve_platform(args.platform)
    samples = read_fit_samples_csv(args.samples, len(platform.clusters))
    coefficients = fit_regression_coefficients(samples, platform)
    save_coefficients(coefficients, args.output)
    print(f"r_squared: {coefficients.r_squared:.6f}")
    return EXIT_OK, None, [args.samples], [args.output]


def _cmd_sweep(args) -> _Run:
    sizes = _parse_int_list(args.sizes, "--sizes")
    if not sizes:
        raise _UsageError("--sizes needs at least one size")
    if args.reps < 1:
        raise _UsageError("--reps must be at least 1")
    methods = _parse_methods(args)
    platform = _resolve_platform(args.platform)
    pool = _resolve_kernels(args.kernels)
    coefficients = _resolve_coefficients(args.coefficients)
    # built here only so that a value they refuse is refused before the seed is drawn
    GaConfig(max_generations=args.max_generations)
    for n in sizes:
        resolve_big_cluster(
            GeneratorConfig(kernel_pool=pool, n_tasks=n, tightness_kappa=args.kappa), platform
        )
    _check_time_limit(args)
    seed = _resolve_seed(args)
    cells = scalability_sweep(
        sizes=sizes,
        repetitions=args.reps,
        methods=methods,
        time_limit_ms=args.time_limit,
        platform=platform,
        kernel_pool=pool,
        coefficients=coefficients,
        base_seed=seed,
        tightness_kappa=args.kappa,
        max_generations=args.max_generations,
    )
    write_sweep_csv(cells, args.output)
    return EXIT_OK, seed, [args.kernels], [args.output]


def _cmd_export_gantt(args) -> _Run:
    instance = load_instance(args.instance)
    assignment = load_assignment(args.assignment)
    svg = render_gantt_svg(instance, assignment)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(svg)
    return EXIT_OK, None, [args.instance, args.assignment], [args.output]


def _cmd_compare(args) -> _Run:
    model = _power_model(args)
    methods = _parse_methods(args)
    instance = load_instance(args.instance)
    coefficients = _resolve_coefficients(args.coefficients)
    ga_config = GaConfig(max_generations=args.max_generations)
    _check_time_limit(args)
    seed = _resolve_seed(args)
    ga_config = dataclasses.replace(ga_config, rng_seed=seed)
    rows = []
    for method in methods:
        outcome = run_method(
            method, instance, time_limit_ms=args.time_limit, coefficients=coefficients,
            ga_config=ga_config,
        )
        predicted = None
        if outcome.assignment is not None:
            predicted = schedule_power(
                instance, outcome.assignment, model, coefficients
            ).watts
        rows.append((method, outcome.status, predicted, outcome.objective, outcome.elapsed_ms))
    rows.sort(key=lambda r: (r[2] is None, r[2] if r[2] is not None else 0.0, r[0]))
    _write_csv(
        args.output, ["method", "status", "predicted_power_watts", "objective", "elapsed_ms"], rows
    )
    return EXIT_OK, seed, [args.instance], [args.output]


@functools.cache  # built once per process; each parse_args starts from a fresh namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="thermosched", description=__doc__)
    parser.add_argument("--version", action="version", version=f"thermosched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--kappa", type=float, default=3.5)
    p.add_argument("--kernels", required=True, help="kernel pool CSV or preset name")
    p.add_argument("--platform", default="imx8-mek", help="platform preset or JSON file")
    p.add_argument("--exec-min", type=int, default=40)
    p.add_argument("--exec-max", type=int, default=160)
    p.add_argument("--big-cluster", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="solve an instance with one method")
    p.add_argument("instance")
    p.add_argument("--method", required=True, help=", ".join(METHOD_NAMES))
    p.add_argument("--time-limit", type=float, default=300000.0, help="milliseconds per run")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--coefficients", default=None, help="coefficients JSON or preset name")
    p.add_argument("--window-lengths", default=None, help="l1,l2,... for flow-fixed")
    p.add_argument("--max-generations", type=int, default=None)
    p.add_argument("--ga-config", default=None, help="GA config JSON; flags override")
    p.add_argument("-o", "--output", required=True, help="assignment JSON path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="predict the power of an assignment")
    p.add_argument("instance")
    p.add_argument("assignment")
    p.add_argument("--model", default="sm", choices=[m.value for m in PowerModel])
    p.add_argument("--coefficients", default=None)
    p.add_argument("--temperature", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("fit", help="fit regression coefficients from samples")
    p.add_argument("samples", help="fitting-sample CSV")
    p.add_argument("--platform", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sweep", help="scalability sweep over instance sizes")
    p.add_argument("--sizes", required=True, help="comma-separated task counts")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--methods", required=True)
    p.add_argument("--time-limit", type=float, default=300000.0, help="milliseconds per run")
    p.add_argument("--kernels", required=True)
    p.add_argument("--platform", default="imx8-mek")
    p.add_argument("--kappa", type=float, default=3.5)
    p.add_argument("--coefficients", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-generations", type=int, default=None, help="GA generation cap")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-gantt", help="render an assignment as SVG")
    p.add_argument("instance")
    p.add_argument("assignment")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_gantt)

    p = sub.add_parser("compare", help="rank methods by predicted power")
    p.add_argument("instance")
    p.add_argument("--methods", default="ilp-sm,qp-lr-ub,bb-sm,bb-lr,heur,idle-min,idle-max")
    p.add_argument("--model", default="sm", choices=[m.value for m in PowerModel])
    p.add_argument("--coefficients", default=None)
    p.add_argument("--time-limit", type=float, default=300000.0, help="milliseconds per run")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-generations", type=int, default=None, help="GA generation cap")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        started_at = _now()
        code, seed, inputs, outputs = args.func(args)
        if args.output:
            _write_manifest(args, argv, seed, inputs, outputs, started_at)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
