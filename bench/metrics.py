"""Names, units, directions and bounds of every metric the benchmark reports.

``BENCHMARK.json`` is generated from this file (``run.py --manifest``);
the smoke test fails if the two disagree.

End-to-end metrics are what a user of the simulator waits for or pays
for.  ``bound`` is the share of the parent's median by which a later PR
may worsen the metric before it is rejected; bounds were set from the
measured run-to-run spread (README, "how the bounds were chosen").

Per-layer metrics are named ``<layer>.<what>``, the layer being the
``repro`` module (or the bench itself) whose work they measure.  ``moves``
records, ahead of any optimisation, which end-to-end metric a change to
that number should move and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

WORKLOADS: List[Tuple[str, str]] = [
    (
        "sycamore_plan",
        "Sycamore-53 m=12 abstract network through plan_circuit: path search is ~95% "
        "of the work, execution none; headline plan_s, seconds cells it lacks mirror it",
    ),
    (
        "slicing_sweep",
        "Fig. 10 protocol: 16 randomised trees sliced by lifetime finder+SA refiner at "
        "peak-7; core does all timed work, paths and execution none; headline slice_s",
    ),
    (
        "large_subtasks",
        "5x7 grid m=9, 16 subtasks of ~45 ms: GEMM-bound, so kernels, buffers and worker "
        "parallelism show and dispatch overhead does not; headline execute_s",
    ),
    (
        "small_subtasks",
        "4x5 grid m=10, 512 subtasks of ~0.5 ms: dispatch-bound, so fusion, batching, chunk "
        "dispatch and pool overhead show and GEMM speed does not; headline execute_s",
    ),
    (
        "correlated_sampling",
        "CorrelatedSampler, 4x5 grid m=8, 8 open qubits, 256 amplitudes per batch: the "
        "paper's deliverable, planning and compile sit inside the serving loop",
    ),
]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "everything before the first subtask can run (oracle excluded)"),
    EndToEnd("plan_s", "s", "lower", 0.25, "SimulationPlanner.plan_circuit wall"),
    EndToEnd("slice_s", "s", "lower", 0.25, "finder + refiner over all sweep trees"),
    EndToEnd("time_to_amplitude_s", "s", "lower", 0.25,
             "fresh planner: plan_circuit(concrete) + execute_plan, cold"),
    EndToEnd("execute_s", "s", "lower", 0.25,
             "steady-state full sliced contraction, default executor, serial"),
    EndToEnd("execute_fused_s", "s", "lower", 0.25, "same with fused=True"),
    EndToEnd("execute_batched_s", "s", "lower", 0.25, 'same with batch_indices="auto"'),
    EndToEnd("execute_threads_s", "s", "lower", 0.25, "same on ThreadPoolBackend"),
    EndToEnd("execute_distributed_s", "s", "lower", 0.25,
             "same on DistributedBackend, spawned localhost workers, warm session"),
    EndToEnd("execute_pool_s", "s", "lower", 0.25,
             "same on SharedMemoryProcessPoolBackend, warm session"),
    EndToEnd("samples_per_s", "1/s", "higher", 0.25,
             "results delivered per second (amplitudes; plans or trees where no amplitude exists)"),
    EndToEnd("peak_bytes", "bytes", "lower", 0.02,
             "tracemalloc peak over one steady-state pass (never timed)"),
    EndToEnd("slicing_overhead", "ratio", "lower", 0.01,
             "sliced total cost / unsliced cost of the chosen slicing"),
    EndToEnd("log10_sliced_flops", "log10", "lower", 0.001,
             "log10 of the delivered plan's total sliced cost"),
]

#: The timing a workload is mainly about; seconds cells the workload does
#: not exercise repeat it (README, "cells a workload does not exercise").
HEADLINE: Dict[str, str] = {
    "sycamore_plan": "plan_s",
    "slicing_sweep": "slice_s",
    "large_subtasks": "execute_s",
    "small_subtasks": "execute_s",
    "correlated_sampling": "batch_s",
}


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str


def _layer(rows: str) -> List[PerLayer]:
    out = []
    for line in rows.strip().splitlines():
        name, unit, better, moves = (part.strip() for part in line.split("|"))
        out.append(PerLayer(name, unit, better, moves))
    return out


PER_LAYER: List[PerLayer] = _layer(
    """
circuits.build_s | s | lower | setup_s everywhere
tensornet.convert_s | s | lower | setup_s everywhere; samples_per_s on correlated_sampling (rebuilt per bitstring)
tensornet.simplify_s | s | lower | setup_s everywhere; samples_per_s on correlated_sampling
tensornet.num_tensors | count | lower | paths.search_s, hence plan_s and setup_s
paths.search_s | s | lower | plan_s on sycamore_plan; time_to_amplitude_s and setup_s on both exec workloads; samples_per_s (sampling.plan_share); no execute_*
paths.search_s_per_trial | s | lower | as paths.search_s
paths.greedy_s | s | lower | as paths.search_s
paths.partition_s | s | lower | as paths.search_s
paths.anneal_s | s | lower | as paths.search_s
paths.max_rank | count | lower | slicing_overhead, log10_sliced_flops
paths.log10_flops | log10 | lower | log10_sliced_flops on sycamore_plan; execute_s on large_subtasks
core.stem_s | s | lower | slice_s on slicing_sweep; <5% of plan_s
core.slice_find_s | s | lower | slice_s on slicing_sweep
core.slice_refine_s | s | lower | slice_s on slicing_sweep (about 90% of it)
core.greedy_baseline_s | s | lower | none (the comparison slicer)
core.secondary_plan_s | s | lower | plan_s, setup_s (small)
core.num_sliced | count | lower | execute_s on small_subtasks (subtask count)
core.overhead_finder | ratio | lower | slicing_overhead before refinement
core.overhead_refined | ratio | lower | slicing_overhead; execute_s on large_subtasks in proportion
core.overhead_greedy | ratio | lower | none (the comparison slicer)
core.extra_edges_by_greedy | count | higher | none (paper Fig. 10, red points)
core.win_fraction_vs_greedy | ratio | higher | none (paper: >98% of paths)
core.predicted_peak_bytes | bytes | lower | peak_bytes
costs.predicted_subtask_s | s | lower | none (predicted-vs-measured column)
costs.prediction_ratio | ratio | lower | none (predicted / measured plan.subtask_s)
plan.compile_s | s | lower | setup_s; samples_per_s (recompiled per batch)
plan.warm_cache_s | s | lower | setup_s
plan.subtask_s | s | lower | execute_s on both exec workloads
plan.subtask_p90_s | s | lower | execute_threads_s, execute_pool_s (slowest chunk sets the wall)
plan.steps_per_subtask | count | lower | execute_s on small_subtasks
plan.cache_hits | count | higher | execute_s (invariant work not repeated)
plan.slot_writes | count | higher | peak_bytes (outputs written into reused slots)
plan.useful_gflops | GF/s | higher | execute_s on large_subtasks
plan.peak_over_predicted | ratio | lower | peak_bytes
engine.reference.execute_s | s | lower | none (the einsum oracle path)
engine.stepwise.execute_s | s | lower | execute_s
engine.fused.execute_s | s | lower | execute_fused_s on small_subtasks; per-layer only on large_subtasks
engine.batched.execute_s | s | lower | execute_batched_s on small_subtasks
engine.fused.compile_s | s | lower | setup_s when fused
engine.fused.fused_steps | count | higher | execute_fused_s
engine.fused.breaks | count | lower | execute_fused_s
engine.fused.native | flag | higher | execute_fused_s (1 = numba tape ran; 0 = numba absent, Python walker)
engine.reference.peak_bytes | bytes | lower | none
engine.stepwise.peak_bytes | bytes | lower | peak_bytes
engine.fused.peak_bytes | bytes | lower | peak_bytes when fused
engine.batched.peak_bytes | bytes | lower | peak_bytes when batched
backend.serial.execute_s | s | lower | execute_s
backend.threads.execute_s | s | lower | execute_threads_s on large_subtasks; crossover only on small_subtasks
backend.pool.execute_s | s | lower | execute_pool_s on small_subtasks; crossover only on large_subtasks
backend.distributed.execute_s | s | lower | execute_distributed_s on large_subtasks
backend.threads.speedup_vs_serial | ratio | higher | execute_threads_s (base backend.serial.execute_s)
backend.pool.speedup_vs_serial | ratio | higher | execute_pool_s (base backend.serial.execute_s)
backend.distributed.speedup_vs_serial | ratio | higher | execute_distributed_s (base backend.serial.execute_s)
backend.serial.busy_fraction | ratio | higher | execute_s (1 - dispatch share)
backend.threads.busy_fraction | ratio | higher | execute_threads_s
backend.pool.busy_fraction | ratio | higher | execute_pool_s
backend.distributed.busy_fraction | ratio | higher | execute_distributed_s
backend.pool.session_open_s | s | lower | none today (sessions are opened outside setup_s)
backend.distributed.session_open_s | s | lower | none today
distributed.comms_s | s | lower | execute_distributed_s
distributed.comms_bytes | bytes | lower | execute_distributed_s
distributed.chunk_roundtrips | count | lower | execute_distributed_s
distributed.broadcast_bytes | bytes | lower | backend.distributed.session_open_s
checkpoint.execute_s | s | lower | none: demoted from end-to-end, its spread is disk fsync latency (README)
checkpoint.overhead_ratio | ratio | lower | checkpoint.execute_s on small_subtasks; <1% of execute_s on large_subtasks
checkpoint.flush_s_per_slot | s | lower | checkpoint.execute_s
checkpoint.resume_s | s | lower | none (recovery path)
checkpoint.resumed_slots | count | higher | none (recovery path)
sampling.batch_s | s | lower | samples_per_s
sampling.plan_share | ratio | lower | samples_per_s
sampling.build_share | ratio | lower | samples_per_s
sampling.execute_share | ratio | higher | samples_per_s
sampling.xeb | ratio | higher | none (correctness of the samples)
pipeline.plan_circuit_s | s | lower | time_to_amplitude_s, plan_s
pipeline.execute_plan_s | s | lower | time_to_amplitude_s
pipeline.front_door_overhead_s | s | lower | time_to_amplitude_s, plan_s
bench.probe_s | s | lower | none (qualifies every timing)
bench.probe_drift | ratio | lower | none (max/min probe over the run)
bench.trace_overhead | ratio | lower | none (traced / untraced wall of the same pass)
"""
)


def manifest(run_seconds: int) -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
