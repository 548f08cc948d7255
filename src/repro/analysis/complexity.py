"""Complexity summaries of contraction trees and slicing decisions.

Thin analysis layer used by the examples and the benchmark harness to turn
planning artefacts into the numbers the paper reports (log10 complexity,
overhead, subtask counts, stem statistics).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Sequence

from ..core.slicing import SlicingCostModel, SlicingResult
from ..core.stem import Stem, extract_stem, stem_profile
from ..tensornet.contraction_tree import ContractionTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs.model import CostModel
    from ..execution.plan import PlanStats

__all__ = [
    "tree_summary",
    "slicing_summary",
    "stem_summary",
    "compare_slicers",
    "cost_model_summary",
    "predicted_vs_measured",
]


def tree_summary(tree: ContractionTree) -> Dict[str, float]:
    """Headline complexity metrics of a contraction tree."""
    return {
        "num_leaves": float(tree.num_leaves),
        "num_contractions": float(len(tree.internal_nodes())),
        "log10_flops": tree.log10_total_cost(),
        "log2_flops": tree.log10_total_cost() / math.log10(2.0),
        "max_rank": float(tree.max_rank()),
        "max_intermediate_log2_size": tree.max_intermediate_log2_size(),
        "arithmetic_intensity": tree.arithmetic_intensity(),
    }


def slicing_summary(result: SlicingResult) -> Dict[str, float]:
    """Flat-dict view of a slicing decision."""
    return {
        "num_sliced": float(result.num_sliced),
        "num_subtasks": result.num_subtasks,
        "overhead": result.overhead,
        "log10_total_cost": result.log10_total_cost,
        "max_rank": float(result.max_rank),
        "satisfies_target": float(result.satisfies_target),
        "target_rank": float(result.target_rank),
    }


def stem_summary(stem: Stem) -> Dict[str, float]:
    """Headline stem statistics (length, cost share, peak rank)."""
    return {
        "length": float(stem.length),
        "cost_fraction": stem.cost_fraction(),
        "max_rank": float(stem.max_rank()),
        "num_candidate_edges": float(len(stem.edges())),
    }


def compare_slicers(
    tree: ContractionTree,
    results: Dict[str, SlicingResult],
) -> List[Dict[str, float]]:
    """Side-by-side comparison rows for several slicing strategies on one tree."""
    rows: List[Dict[str, float]] = []
    for name, result in results.items():
        row = {"method": name}  # type: ignore[dict-item]
        row.update(slicing_summary(result))
        rows.append(row)  # type: ignore[arg-type]
    return rows


def cost_model_summary(
    cost_model: "CostModel",
    tree: ContractionTree,
    sliced: AbstractSet[str] = frozenset(),
    backends: Optional[Sequence[str]] = None,
) -> List[Dict[str, float]]:
    """Per-backend predicted subtask/total seconds of one workload.

    One row per backend (default: the single default prediction), the
    tabular form of the unified cost model's view of a tree + slicing
    pair.
    """
    sliced = frozenset(sliced)
    names: Sequence[Optional[str]] = list(backends) if backends else [None]
    rows: List[Dict[str, float]] = []
    for name in names:
        subtask = cost_model.subtask_seconds(tree, sliced, backend=name)
        rows.append(
            {
                "backend": name or "default",  # type: ignore[dict-item]
                "subtask_seconds": subtask,
                "total_seconds": cost_model.total_seconds(tree, sliced, backend=name),
                "subtask_flops": cost_model.subtask_work_flops(tree, sliced),
            }
        )
    return rows


def predicted_vs_measured(
    cost_model: "CostModel",
    stats: "PlanStats",
    tree: ContractionTree,
    sliced: AbstractSet[str] = frozenset(),
    backend: Optional[str] = None,
) -> Dict[str, float]:
    """Predicted subtask seconds against a run's measured wall times.

    ``ratio`` is measured over predicted — 1.0 means the model nailed it.
    Raises ``ValueError`` when the stats carry no timing samples.
    """
    if not stats.subtask_seconds:
        raise ValueError("stats carry no subtask timings; run the workload first")
    predicted = cost_model.subtask_seconds(tree, frozenset(sliced), backend=backend)
    measured = stats.mean_subtask_seconds
    return {
        "predicted_subtask_seconds": predicted,
        "measured_subtask_seconds": measured,
        "measured_samples": float(
            getattr(stats, "timed_subtasks", 0) or len(stats.subtask_seconds)
        ),
        "ratio": measured / predicted if predicted else math.inf,
    }
