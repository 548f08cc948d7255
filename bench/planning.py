"""The two planning-only workloads: ``sycamore_plan`` and ``slicing_sweep``.

Both plan the abstract 53-qubit Sycamore network, which nothing can
execute, so they isolate the ``paths`` and ``core`` layers.  The network
is abstract, so ``--seed`` (gate draws, bitstring) changes nothing the
planner can see; the optimiser seeds are pinned because plan quality at
this trial count is a lottery over seeds (README, "why optimiser seeds
are pinned") and a benchmark number must repeat.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from . import api
from .base import Workload
from .harness import Probe, Value, geomean, probed, run_rounds, traced_peak_bytes
from .stages import (
    bench_layers,
    check_plan,
    planning_layers,
    staged_plan,
    time_front_door,
)
from .trace import Recorder


class SycamorePlan(Workload):
    """Sycamore-53 through the ``plan_circuit`` front door."""

    name = "sycamore_plan"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        # target = tree peak - 7 at the pinned planner seed (peak 41)
        self.cycles, self.target, self.trials, self.planner_seed = (
            (4, 8, 2, 0) if smoke else (12, 34, 8, 0)
        )
        self.bitstring = self.bits(53)

    def _circuit(self):
        return api.sycamore_circuit(cycles=self.cycles, seed=self.seed)

    def _plan(self, circuit, trials=None):
        seconds, plan, _ = time_front_door(
            self.target, trials or self.trials, self.planner_seed, circuit, self.bitstring, False
        )
        return seconds, plan

    def measure(self, seconds: float, probe: Probe) -> Dict[str, Value]:
        holder = {}
        # input construction only: the front door converts and simplifies itself
        setup = self.time_setup(
            probe, lambda: holder.update(circuit=self._circuit()), repeats=3 * self.setup_repeats
        )
        circuit = holder["circuit"]
        self._plan(circuit, trials=1)  # warm code paths, untimed

        def one_round():
            plan_s, plan = self._plan(circuit)
            check_plan(self.checks, plan.slicing, plan.network, self.target, "plan_circuit")
            holder["plan"] = plan
            return {"plan_s": plan_s}

        timings = run_rounds(probe, one_round, seconds, self.min_rounds)
        self.raw_rounds = timings.dump()
        plan = holder["plan"]
        sliced = plan.slicing.sliced
        peak = traced_peak_bytes(lambda: self._plan(circuit, trials=min(2, self.trials)))
        headline = timings.value("plan_s")
        self.sizes = {
            "tensors": plan.network.num_tensors,
            "peak_rank": plan.tree.max_rank(),
            "sliced_edges": plan.slicing.num_sliced,
            "log2_subtasks": len(sliced),
            "rounds": len(timings),
        }
        return self.fill(
            {
                "setup_s": setup,
                "plan_s": headline,
                "peak_bytes": Value.exact("bytes", peak),
                "slicing_overhead": Value.exact("ratio", plan.slicing.overhead),
                "log10_sliced_flops": Value.exact("log10", plan.tree.log10_total_cost(sliced)),
            },
            headline,
        )

    def trace(self, seconds: float, probe: Probe, recorder: Recorder) -> Dict[str, Value]:
        args = (self._circuit, self.bitstring, False, self.target, self.trials, self.planner_seed)
        # the front door first: it warms every code path the staged passes use
        _, front_f, (front_door_s, plan) = probed(probe, lambda: self._plan(self._circuit()))
        off = Recorder(self.name, enabled=False)
        untraced_s, untraced_f, _ = probed(probe, lambda: staged_plan(off, *args))

        def traced_pass():
            with recorder.span("staged_plan", "bench"):
                return staged_plan(recorder, *args)

        traced_s, traced_f, staged = probed(probe, traced_pass)
        self.checks.expect(
            plan.slicing.sliced == staged.slicing.sliced, "staged plan differs from plan_circuit"
        )
        check_plan(self.checks, staged.slicing, staged.network, self.target, "staged plan")
        values = planning_layers(
            recorder, staged, self.trials, self.planner_seed, front_door_s * front_f, traced_f
        )
        values["core.predicted_peak_bytes"] = Value.exact("bytes", 16.0 * 2.0 ** staged.slicing.max_rank)
        self.sizes = {"tensors": staged.network.num_tensors, "peak_rank": staged.tree.max_rank()}
        values.update(bench_layers(probe, traced_s * traced_f, untraced_s * untraced_f))
        return values


class SlicingSweep(Workload):
    """The paper's Fig. 10 protocol over pre-built randomised trees."""

    name = "slicing_sweep"
    #: Retuned once from the issue's 24 so a whole run takes about 18 s.
    NUM_TREES = 16
    TREE_SEED_BASE = 1000

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.cycles, self.num_trees, self.offset = (4, 3, 2) if smoke else (12, self.NUM_TREES, 7)
        self.results_per_headline = self.num_trees
        self.bitstring = self.bits(53)
        self.network = None
        self.trees: List[object] = []

    def _tree_seeds(self) -> List[int]:
        return [self.TREE_SEED_BASE + k for k in range(self.num_trees)]

    def _build(self, rec: Recorder) -> None:
        with rec.span("circuits.build", "circuits"):
            circuit = api.sycamore_circuit(cycles=self.cycles, seed=self.seed)
        with rec.span("tensornet.convert", "tensornet"):
            self.network = api.network_of(circuit, self.bitstring, False)
        with rec.span("tensornet.simplify", "tensornet"):
            api.simplify_network(self.network)
        self.trees = []
        for tree_seed in self._tree_seeds():
            with rec.span(f"paths.search[{tree_seed}]", "paths"):
                self.trees.append(api.randomised_tree(self.network, tree_seed))

    def _slice(self, rec: Recorder, tree, tree_seed: int, baseline: bool) -> dict:
        """Slice one tree at peak - offset; returns results and span seconds."""
        target = max(tree.max_rank() - self.offset, 4)
        with rec.span(f"core.stem[{tree_seed}]", "core") as stem_span:
            model = api.SlicingCostModel(tree)
            stem = api.extract_stem(tree)
        with rec.span(f"core.slice_find[{tree_seed}]", "core") as find_span:
            found = api.LifetimeSliceFinder(target).find(tree, stem=stem, cost_model=model)
        with rec.span(f"core.slice_refine[{tree_seed}]", "core") as refine_span:
            refined = api.slice_refiner(tree_seed).refine(
                tree, found.sliced, target, cost_model=model
            )
        out = {
            "target": target,
            "found": found,
            "refined": refined,
            "slice_s": stem_span.seconds + find_span.seconds + refine_span.seconds,
            "find_refine_s": find_span.seconds + refine_span.seconds,
        }
        if baseline:
            with rec.span(f"core.greedy_baseline[{tree_seed}]", "core") as span:
                out["greedy"] = api.GreedySliceBaseline(target).find(tree, cost_model=model)
            out["find_refine_s"] += span.seconds
        return out

    def _sweep(self, rec: Recorder, baseline: bool) -> List[dict]:
        return [
            self._slice(rec, tree, tree_seed, baseline)
            for tree, tree_seed in zip(self.trees, self._tree_seeds())
        ]

    def _check(self, rows: List[dict]) -> None:
        for row in rows:
            check_plan(self.checks, row["refined"], self.network, row["target"], "sweep tree")

    def measure(self, seconds: float, probe: Probe) -> Dict[str, Value]:
        off = Recorder(self.name, enabled=False)
        setup = self.time_setup(probe, lambda: self._build(off), repeats=1)
        self._check(self._sweep(off, baseline=False))  # warms the per-tree stem memo
        holder = {}

        def one_round():
            holder["rows"] = self._sweep(off, baseline=False)
            return {"slice_s": sum(row["slice_s"] for row in holder["rows"])}

        timings = run_rounds(probe, one_round, seconds, self.min_rounds)
        self.raw_rounds = timings.dump()
        rows = holder["rows"]
        self._check(rows)
        few = list(zip(self.trees, self._tree_seeds()))[:4]
        peak = traced_peak_bytes(lambda: [self._slice(off, t, s, False) for t, s in few])
        headline = timings.value("slice_s")
        self.sizes = {
            "tensors": self.network.num_tensors,
            "trees": self.num_trees,
            "peak_rank_median": statistics.median(t.max_rank() for t in self.trees),
            "sliced_edges_mean": statistics.mean(r["refined"].num_sliced for r in rows),
            "rounds": len(timings),
        }
        return self.fill(
            {
                "setup_s": setup,
                "slice_s": headline,
                "peak_bytes": Value.exact("bytes", peak),
                "slicing_overhead": Value.exact(
                    "ratio", geomean(r["refined"].overhead for r in rows)
                ),
                "log10_sliced_flops": Value.exact(
                    "log10", statistics.mean(r["refined"].log10_total_cost for r in rows)
                ),
            },
            headline,
        )

    def trace(self, seconds: float, probe: Probe, recorder: Recorder) -> Dict[str, Value]:
        def build():
            with recorder.span("build", "bench"):
                self._build(recorder)

        # traced first, on cold trees, so core.stem_s is the real extraction;
        # the overhead ratio compares only the spans no memo shortens
        def traced_sweep():
            with recorder.span("sweep", "bench"):
                return self._sweep(recorder, baseline=True)

        _, build_f, _ = probed(probe, build)
        _, traced_f, rows = probed(probe, traced_sweep)
        off = Recorder(self.name, enabled=False)
        _, untraced_f, untraced = probed(probe, lambda: self._sweep(off, baseline=True))
        self._check(rows)
        self.sizes = {"tensors": self.network.num_tensors, "trees": self.num_trees}

        def span_s(name: str, factor: float = traced_f) -> float:
            return factor * sum(recorder.seconds(name))

        wins = sum(
            1
            for r in rows
            if r["greedy"].num_sliced >= r["refined"].num_sliced
            and r["greedy"].overhead >= 0.99 * r["refined"].overhead
        )
        seconds_of = {
            "circuits.build_s": span_s("circuits.build", build_f),
            "tensornet.convert_s": span_s("tensornet.convert", build_f),
            "tensornet.simplify_s": span_s("tensornet.simplify", build_f),
            "paths.search_s": span_s("paths.search", build_f),
            "paths.search_s_per_trial": span_s("paths.search", build_f) / self.num_trees,
            "core.stem_s": span_s("core.stem"),
            "core.slice_find_s": span_s("core.slice_find"),
            "core.slice_refine_s": span_s("core.slice_refine"),
            "core.greedy_baseline_s": span_s("core.greedy_baseline"),
        }
        values = {name: Value.exact("s", s) for name, s in seconds_of.items()}
        values.update(
            {
                "tensornet.num_tensors": Value.exact("count", self.network.num_tensors),
                "paths.max_rank": Value.of("count", [t.max_rank() for t in self.trees]),
                "paths.log10_flops": Value.of("log10", [t.log10_total_cost() for t in self.trees]),
                "core.num_sliced": Value.of("count", [r["refined"].num_sliced for r in rows]),
                "core.overhead_finder": Value.exact("ratio", geomean(r["found"].overhead for r in rows)),
                "core.overhead_refined": Value.exact("ratio", geomean(r["refined"].overhead for r in rows)),
                "core.overhead_greedy": Value.exact("ratio", geomean(r["greedy"].overhead for r in rows)),
                "core.extra_edges_by_greedy": Value.exact(
                    "count",
                    statistics.mean(r["greedy"].num_sliced - r["refined"].num_sliced for r in rows),
                ),
                "core.win_fraction_vs_greedy": Value.exact("ratio", wins / len(rows)),
                "core.predicted_peak_bytes": Value.of(
                    "bytes", [16.0 * 2.0 ** r["refined"].max_rank for r in rows]
                ),
            }
        )
        values.update(
            bench_layers(
                probe,
                traced_f * sum(r["find_refine_s"] for r in rows),
                untraced_f * sum(r["find_refine_s"] for r in untraced),
            )
        )
        return values
