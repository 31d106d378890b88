"""The genetic search and the greedy heuristic against the exact optimum.

The genetic algorithm packs the whole allocation into one real gene per
task and repairs capacity conflicts after decoding; the greedy heuristic
fixes tasks to their cheapest cluster whenever the feasibility oracle
confirms the rest still fits.
"""

import thermosched as ts
from thermosched.generator import GeneratorConfig, generate_instance
from thermosched.presets import builtin_kernel_pool, builtin_platform

platform = builtin_platform("imx8-mek")
pool = builtin_kernel_pool("mixed")

base = generate_instance(
    GeneratorConfig(kernel_pool=pool, n_tasks=8, rng_seed=11, tightness_kappa=2.8),
    platform,
)
instance = ts.Instance(platform, base.tasks, base.major_frame_ms, max_windows=4)

exact = ts.solve(instance, ts.ObjectiveSpec(ts.ObjectiveKind.SM_POWER))
print(f"exact sum-max optimum: {exact.objective_value:.4f} W")

ga = ts.run_ga(instance, "sm", ts.GaConfig(rng_seed=1), time_limit_ms=4000)
gap = 100 * (ga.fitness - exact.objective_value) / exact.objective_value
print(f"genetic search:        {ga.fitness:.4f} W "
      f"({gap:.2f}% above optimum, {ga.generations} generations, "
      f"{ga.restarts} restarts)")

print("first improvements of the trace:")
last = None
for point in ga.trace:
    if last is None or point.best_fitness < last - 1e-12:
        print(f"  restart {point.restart}, generation {point.generation}: "
              f"{point.best_fitness:.4f} W")
        last = point.best_fitness

greedy_assignment = ts.greedy(instance)
greedy_power = ts.schedule_power(instance, greedy_assignment, "sm").watts
print(f"greedy heuristic:      {greedy_power:.4f} W "
      f"({100 * (greedy_power - exact.objective_value) / exact.objective_value:.2f}% above optimum)")
