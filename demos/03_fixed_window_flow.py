"""Fixed window lengths turn the allocation into a min-cost flow.

When every window length is pinned, the only decision left is which
(window, cluster) pair hosts each task, and minimizing the summed task
energy cost becomes a polynomial flow problem. A task's cost depends on its
cluster alone and a task that fits a window fits every longer one, so the
network needs one node per cluster and distinct length, not per window.
This runs a 60-task, 30-window case and shows the network shape and the
optimal placements.
"""

import time

import thermosched as ts
from thermosched.flow import build_network, min_cost_assignment
from thermosched.generator import GeneratorConfig, generate_instance
from thermosched.presets import builtin_kernel_pool, builtin_platform

platform = builtin_platform("imx8-mek")
pool = builtin_kernel_pool("mixed")

base = generate_instance(
    GeneratorConfig(kernel_pool=pool, n_tasks=60, rng_seed=3), platform
)
instance = ts.Instance(platform, base.tasks, base.major_frame_ms, max_windows=30)

# Any feasible assignment donates usable fixed lengths.
witness = ts.solve(instance, ts.ObjectiveSpec(ts.ObjectiveKind.FEASIBILITY_ONLY))
lengths = witness.assignment.window_lengths_ms
print(f"fixed lengths: {sum(1 for l in lengths if l)} nonempty windows, "
      f"{sum(lengths)} of {instance.major_frame_ms} ms used")

t0 = time.perf_counter()
network = build_network(instance, lengths)
result = min_cost_assignment(network)
elapsed = (time.perf_counter() - t0) * 1000

per_window = sum(
    tc.exec_time_ms <= l for t in instance.tasks for tc in t.per_cluster for l in lengths
)
print(f"network: {len(network.class_lengths)} distinct lengths x "
      f"{len(platform.clusters)} clusters, {network.sink + 1} nodes, "
      f"{len(network.arcs)} arcs (a node per window and cluster would need "
      f"{per_window} task arcs)")
print(f"optimal flow in {elapsed:.1f} ms, summed energy cost {result.total_cost:.2f}")
print("still feasible:", bool(ts.check_feasible(instance, result.assignment)))

by_cluster = {}
for p in result.assignment.placements:
    by_cluster[p.cluster] = by_cluster.get(p.cluster, 0) + 1
for cid, count in sorted(by_cluster.items()):
    label = platform.clusters[cid - 1].label
    print(f"  cluster {cid} ({label}): {count} tasks")
