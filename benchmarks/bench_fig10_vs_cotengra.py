"""FIG10 / OVHD — Slicing-set size and overhead versus the cotengra-style baseline.

Paper artifact: Fig. 10, "Slicing size and overhead compared with cotengra".
The paper draws 400 contraction paths with cotengra, slices each with both
its lifetime pipeline (Alg. 1 + Alg. 2) and cotengra's greedy slicer, and
reports (a) how many *extra* edges the baseline slices relative to the
lifetime method (red points, ≥ 0 in most cases) and (b) the overhead ratio
(green points, ≥ 100 % in most cases); the text claims the lifetime method
wins on more than 98 % of paths and reaches a best overhead below 1.05.

Here the same protocol runs over ``REPRO_BENCH_PATHS`` independently
randomised contraction paths of the benchmark workload.  The default is 200:
since the slicers score their moves in batches (``SlicingState``) a path costs
about 0.18 s, and 200 paths take 37 s — the most that fits in the 42 s the
file took at 40 paths before.  The paper's 400 take about 73 s
(``REPRO_BENCH_PATHS=400``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import format_table, summarize_distribution
from repro.core import (
    GreedySliceBaseline,
    LifetimeSliceFinder,
    SimulatedAnnealingSliceRefiner,
    SlicingCostModel,
    extract_stem,
)
from repro.paths import GreedyOptimizer, PartitionOptimizer, TreeAnnealer

NUM_PATHS = int(os.environ.get("REPRO_BENCH_PATHS", "200"))
TARGET_OFFSET = int(os.environ.get("REPRO_BENCH_FIG10_OFFSET", "7"))


def _compare_one_path(network, seed):
    """Slice one randomised contraction path with both strategies.

    Paths are generated the way the paper generates its 400: independent
    randomised runs of the strongest available path optimizer (recursive
    bisection here, cotengra there), each refined by simulated annealing.
    """
    if seed % 2 == 0:
        tree = PartitionOptimizer(seed=seed).tree(network)
    else:
        tree = GreedyOptimizer(temperature=0.3, seed=seed).tree(network)
    tree = TreeAnnealer(seed=seed, initial_temperature=0.1, cooling=0.8).refine(tree).tree
    target = max(tree.max_rank() - TARGET_OFFSET, 4)
    model = SlicingCostModel(tree)
    stem = extract_stem(tree)

    ours = LifetimeSliceFinder(target).find(tree, stem=stem, cost_model=model)
    refiner = SimulatedAnnealingSliceRefiner(
        seed=seed, moves_per_temperature=24, max_candidates=32, cooling=0.9
    )
    ours = refiner.refine(tree, ours.sliced, target, cost_model=model)
    baseline = GreedySliceBaseline(target).find(tree, cost_model=model)
    return {
        "path": float(seed),
        "target_rank": float(target),
        "ours_sliced": float(ours.num_sliced),
        "baseline_sliced": float(baseline.num_sliced),
        "extra_edges_by_baseline": float(baseline.num_sliced - ours.num_sliced),
        "ours_overhead": ours.overhead,
        "baseline_overhead": baseline.overhead,
        "overhead_ratio_pct": 100.0 * baseline.overhead / ours.overhead,
    }


def test_fig10_slicing_vs_cotengra_baseline(benchmark, sycamore_network, record_result):
    rows = []

    def sweep():
        rows.clear()
        for seed in range(NUM_PATHS):
            rows.append(_compare_one_path(sycamore_network, seed))
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    # a path counts as a win when our set is no larger and our overhead is no
    # higher than the baseline's to within 1 % (the paper plots exact ties as
    # "performing equally")
    wins = sum(
        1
        for row in rows
        if row["extra_edges_by_baseline"] >= 0 and row["overhead_ratio_pct"] >= 99.0
    )
    not_worse = sum(1 for row in rows if row["overhead_ratio_pct"] >= 99.0)
    best_overhead = min(row["ours_overhead"] for row in rows)

    summary_rows = rows + [
        {
            "path": -1.0,
            "target_rank": 0.0,
            "ours_sliced": float(np.mean([r["ours_sliced"] for r in rows])),
            "baseline_sliced": float(np.mean([r["baseline_sliced"] for r in rows])),
            "extra_edges_by_baseline": float(
                np.mean([r["extra_edges_by_baseline"] for r in rows])
            ),
            "ours_overhead": float(np.mean([r["ours_overhead"] for r in rows])),
            "baseline_overhead": float(np.mean([r["baseline_overhead"] for r in rows])),
            "overhead_ratio_pct": float(np.mean([r["overhead_ratio_pct"] for r in rows])),
        }
    ]
    text = format_table(
        summary_rows,
        columns=[
            "path",
            "target_rank",
            "ours_sliced",
            "baseline_sliced",
            "extra_edges_by_baseline",
            "ours_overhead",
            "baseline_overhead",
            "overhead_ratio_pct",
        ],
        title=(
            f"FIG10: lifetime pipeline vs greedy baseline over {len(rows)} paths "
            f"(last row = mean; win rate {100.0 * wins / len(rows):.1f}%, "
            f"overhead-not-worse rate {100.0 * not_worse / len(rows):.1f}%, "
            f"best overhead {best_overhead:.4g}; paper: >98% wins, best overhead <1.05)"
        ),
        precision=4,
    )
    record_result("fig10_vs_cotengra", text)

    # paper-shaped expectations, relaxed for the scaled-down sweep (200 paths,
    # weaker trees, short SA schedules — see EXPERIMENTS.md): the lifetime
    # pipeline must win in aggregate even if not on every single path.
    mean_extra = float(np.mean([r["extra_edges_by_baseline"] for r in rows]))
    mean_ratio = float(np.mean([r["overhead_ratio_pct"] for r in rows]))
    assert mean_extra >= 0.0, "on average the baseline must not slice fewer edges than us"
    assert mean_ratio >= 99.0, "on average our overhead must not exceed the baseline's"
    assert not_worse / len(rows) >= 0.4
