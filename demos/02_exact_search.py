"""Exact search on a small random instance, cross-checked by enumeration.

Runs the four optimization objectives (sum-max power, LR upper-bound power,
idle-time minimization and maximization) through the branch-and-bound
solver and confirms each optimum against the exhaustive oracle.
"""

import thermosched as ts
from thermosched.generator import GeneratorConfig, generate_instance
from thermosched.presets import builtin_coefficients, builtin_kernel_pool, builtin_platform

platform = builtin_platform("imx8-mek")
coeff = builtin_coefficients("imx8-mek")
pool = builtin_kernel_pool("mixed")

base = generate_instance(
    GeneratorConfig(kernel_pool=pool, n_tasks=7, rng_seed=42, tightness_kappa=2.8),
    platform,
)
instance = ts.Instance(platform, base.tasks, base.major_frame_ms, max_windows=3)
print(f"instance: {len(instance.tasks)} tasks, frame {instance.major_frame_ms} ms, "
      f"{instance.max_windows} windows")

for kind in (
    ts.ObjectiveKind.SM_POWER,
    ts.ObjectiveKind.LR_UB_POWER,
    ts.ObjectiveKind.IDLE_MIN,
    ts.ObjectiveKind.IDLE_MAX,
):
    spec = ts.ObjectiveSpec(kind, coeff)
    result = ts.solve(instance, spec)
    oracle = ts.brute_force_optimum(instance, spec)
    agree = abs(result.objective_value - oracle.objective_value) <= 1e-9
    print(f"{kind.value:13s}: {result.objective_value:10.4f} "
          f"({result.status.value}, {result.nodes_explored} nodes) oracle agrees: {agree}")

spec = ts.ObjectiveSpec(ts.ObjectiveKind.SM_POWER)
best = ts.solve(instance, spec)
print("\nbest sum-max assignment:")
for p in best.assignment.placements:
    task = instance.task_by_id(p.task_id)
    print(f"  task {p.task_id} ({task.name}) -> window {p.window}, cluster {p.cluster}")

# fixing a task to the little cluster constrains the search
fixed = ts.solve(instance, spec, {1: 1})
print(f"\nwith task 1 fixed to cluster 1: {fixed.objective_value:.4f} "
      f"(unconstrained {best.objective_value:.4f})")
