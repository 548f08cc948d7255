"""The planning pipeline, one public call per span.

``SimulationPlanner.plan_circuit`` does all of this behind one call; here
the benchmark makes the same calls itself, in the same order and with the
same seeds, so each layer's share is timed from outside and the front
door's own overhead is what is left over.  Used by the traced pass of the
planning and execution workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from . import api
from .harness import Checks, Value, timed
from .trace import Recorder

#: Spans of :func:`staged_plan` that ``plan_circuit`` covers.
FRONT_DOOR_SPANS = (
    "tensornet.convert",
    "tensornet.simplify",
    "paths.search",
    "core.stem",
    "core.slice_find",
    "core.slice_refine",
    "core.secondary_plan",
    "execution.thread_sim",
)


@dataclass
class Staged:
    circuit: object
    network: object
    prefactor: complex
    tree: object
    stem: object
    model: object
    target: int
    found: object
    slicing: object


def staged_plan(
    rec: Recorder,
    make_circuit: Callable[[], object],
    bitstring: List[int],
    concrete: bool,
    target_rank: int,
    max_trials: int,
    planner_seed: int,
) -> Staged:
    """Circuit to slicing decision, layer by layer (mirrors ``plan_circuit``)."""
    front_door = api.planner(target_rank, max_trials, planner_seed)
    with rec.span("circuits.build", "circuits"):
        circuit = make_circuit()
    with rec.span("tensornet.convert", "tensornet"):
        network = api.network_of(circuit, bitstring, concrete)
    with rec.span("tensornet.simplify", "tensornet") as span:
        report = api.simplify_network(network)
        span.counts["num_tensors"] = network.num_tensors
    with rec.span("paths.search", "paths") as span:
        tree = api.hyper_optimizer(target_rank, max_trials, planner_seed).search(network)
        span.counts.update(trials=max_trials, max_rank=tree.max_rank())
    with rec.span("core.stem", "core"):
        stem = api.extract_stem(tree)
    with rec.span("core.slice_find", "core") as span:
        model = api.SlicingCostModel(tree)
        target = min(target_rank, model.max_rank(frozenset()))
        found = api.LifetimeSliceFinder(target).find(tree, stem=stem, cost_model=model)
        span.counts["num_sliced"] = found.num_sliced
    with rec.span("core.slice_refine", "core") as span:
        slicing = found
        if found.sliced:
            slicing = api.slice_refiner(planner_seed).refine(
                tree, found.sliced, target, cost_model=model
            )
        span.counts["num_sliced"] = slicing.num_sliced
    with rec.span("core.secondary_plan", "core"):
        fused_plan = api.SecondarySlicer(
            ldm_rank=front_door.ldm_rank, spec=front_door.spec
        ).plan(stem, process_sliced=slicing.sliced)
    with rec.span("execution.thread_sim", "execution"):
        simulator = api.ThreadLevelSimulator(spec=front_door.spec)
        simulator.simulate_step_by_step(stem, slicing.sliced)
        simulator.simulate_fused(fused_plan, slicing.sliced)
    return Staged(
        circuit, network, report.scalar_prefactor, tree, stem, model, target, found, slicing
    )


def check_plan(checks: Checks, slicing, network, target_rank: int, what: str) -> None:
    """A plan must meet its target rank by slicing inner indices only."""
    checks.expect(slicing.max_rank <= target_rank, f"{what}: rank {slicing.max_rank} > {target_rank}")
    checks.expect(
        set(slicing.sliced) <= set(network.inner_indices()),
        f"{what}: sliced a non-inner index",
    )


def planning_layers(
    rec: Recorder,
    staged: Staged,
    max_trials: int,
    planner_seed: int,
    front_door_s: float,
    factor: float,
) -> Dict[str, Value]:
    """Per-layer metrics every planned workload shares (from ``rec``'s spans).

    ``factor`` is the traced pass's drift factor, applied to every span;
    ``front_door_s`` arrives already corrected by its own.
    """

    def span_s(name: str) -> float:
        return factor * sum(rec.seconds(name))

    tree, network, slicing = staged.tree, staged.network, staged.slicing
    with rec.span("paths.greedy", "paths"):
        greedy_tree = api.GreedyOptimizer(seed=planner_seed).tree(network)
    with rec.span("paths.partition", "paths"):
        api.PartitionOptimizer(seed=planner_seed).tree(network)
    with rec.span("paths.anneal", "paths"):
        api.TreeAnnealer(seed=planner_seed).refine(greedy_tree)
    with rec.span("core.greedy_baseline", "core"):
        baseline = api.GreedySliceBaseline(staged.target).find(tree, cost_model=staged.model)

    covered = sum(span_s(name) for name in FRONT_DOOR_SPANS)
    won = (
        baseline.num_sliced >= slicing.num_sliced
        and baseline.overhead >= 0.99 * slicing.overhead
    )
    out = {
        "circuits.build_s": span_s("circuits.build"),
        "tensornet.convert_s": span_s("tensornet.convert"),
        "tensornet.simplify_s": span_s("tensornet.simplify"),
        "paths.search_s": span_s("paths.search"),
        "paths.search_s_per_trial": span_s("paths.search") / max_trials,
        "paths.greedy_s": span_s("paths.greedy"),
        "paths.partition_s": span_s("paths.partition"),
        "paths.anneal_s": span_s("paths.anneal"),
        "core.stem_s": span_s("core.stem"),
        "core.slice_find_s": span_s("core.slice_find"),
        "core.slice_refine_s": span_s("core.slice_refine"),
        "core.greedy_baseline_s": span_s("core.greedy_baseline"),
        "core.secondary_plan_s": span_s("core.secondary_plan"),
        "pipeline.plan_circuit_s": front_door_s,
        "pipeline.front_door_overhead_s": front_door_s - covered,
    }
    values = {name: Value.exact("s", seconds) for name, seconds in out.items()}
    values.update(
        {
            "tensornet.num_tensors": Value.exact("count", network.num_tensors),
            "paths.max_rank": Value.exact("count", tree.max_rank()),
            "paths.log10_flops": Value.exact("log10", tree.log10_total_cost()),
            "core.num_sliced": Value.exact("count", slicing.num_sliced),
            "core.overhead_finder": Value.exact("ratio", staged.found.overhead),
            "core.overhead_refined": Value.exact("ratio", slicing.overhead),
            "core.overhead_greedy": Value.exact("ratio", baseline.overhead),
            "core.extra_edges_by_greedy": Value.exact(
                "count", baseline.num_sliced - slicing.num_sliced
            ),
            "core.win_fraction_vs_greedy": Value.exact("ratio", 1.0 if won else 0.0),
        }
    )
    return values


def bench_layers(probe, traced_s: float, untraced_s: float) -> Dict[str, Value]:
    """The numbers that qualify every other number of a traced run.

    Both walls are drift-corrected seconds of the same pass.
    """
    samples = probe.samples
    return {
        "bench.probe_s": Value.of("s", samples),
        "bench.probe_drift": Value.exact("ratio", max(samples) / min(samples)),
        "bench.trace_overhead": Value.exact("ratio", traced_s / untraced_s),
    }


def time_front_door(target_rank, max_trials, planner_seed, circuit, bitstring, concrete):
    """``(seconds, plan, planner)`` of a cold ``plan_circuit``."""
    front_door = api.planner(target_rank, max_trials, planner_seed)
    seconds, plan = timed(lambda: front_door.plan_circuit(circuit, bitstring, concrete=concrete))
    return seconds, plan, front_door
