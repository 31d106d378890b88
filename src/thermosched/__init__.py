"""Thermally efficient allocation of periodic tasks to clusters and windows.

A solver toolkit for the offline problem of placing periodic tasks onto the
clusters and temporal-isolation windows of a heterogeneous multi-core
platform while minimizing predicted average power (and with it steady-state
temperature). It bundles empirical power models, exact search, a polynomial
min-cost-flow solver for fixed window lengths, a genetic algorithm, a
greedy heuristic, an instance generator and a command-line front end.
"""

__version__ = "0.2.0"

from .exact import (
    ObjectiveKind,
    ObjectiveSpec,
    SearchResult,
    SearchStatus,
    brute_force_optimum,
    solve,
)
from .flow import FlowArc, FlowNetwork, FlowResult, build_network, min_cost_assignment
from .gantt import render_gantt_svg
from .generator import (
    GeneratorConfig,
    KernelSpec,
    SweepCell,
    generate_instance,
    load_kernel_pool,
    scalability_sweep,
    write_sweep_csv,
)
from .heuristics import (
    GaConfig,
    GaResult,
    greedy,
    load_ga_config,
    reconstruct,
    run_ga,
    write_fitness_trace_csv,
)
from .model import (
    Assignment,
    Cluster,
    Feasibility,
    Instance,
    ParseError,
    Placement,
    Platform,
    Task,
    TaskCharacteristics,
    check_feasible,
    derive_core_schedule,
    load_assignment,
    load_instance,
    save_assignment,
    save_instance,
    total_idle_time,
)
from .power import (
    FitSample,
    PowerEstimate,
    PowerModel,
    ProcessingInterval,
    RegressionCoefficients,
    decompose_intervals,
    fit_regression_coefficients,
    load_coefficients,
    lr_interval_power,
    power_to_temperature,
    read_fit_samples_csv,
    save_coefficients,
    schedule_power,
    write_fit_samples_csv,
)
from .presets import (
    builtin_coefficients,
    builtin_kernel_pool,
    builtin_platform,
)
from .runners import METHOD_NAMES, MethodOutcome, run_method
