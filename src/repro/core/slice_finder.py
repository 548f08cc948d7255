"""Lifetime-based slice finder (Algorithm 1 of the paper).

The finder works on the *stem* of a contraction tree.  Walking inwards from
the two ends of the stem, it repeatedly takes the end tensor with the
smaller dimension, slices its ``dim - t`` indices of longest lifetime
(measured as the number of stem tensors the index lives on), prunes every
stem tensor that now fits the target dimension ``t``, and recomputes the
lifetimes of the remaining region.  Because an index of maximal lifetime at
an end of the stem *contains* the lifetime of every other candidate
(leaf-node argument of §4.2), this produces a slicing set that is as small
as possible for the given tree — the precondition of Theorem 1 that lets
the SA refiner then lower the overhead at fixed set size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Optional, Set

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from .slicing import SlicingCostModel, SlicingResult, SlicingState
from .stem import Stem, extract_stem

__all__ = ["LifetimeSliceFinder", "find_slices"]


@dataclass
class _StemState:
    """Mutable view of the stem tensors during the Algorithm 1 loop."""

    tensors: List[FrozenSet[str]]

    def dims(self, sliced: AbstractSet[str]) -> List[int]:
        return [len(t - sliced) for t in self.tensors]

    def lifetime_length(self, index: str) -> int:
        """Number of surviving stem tensors whose index set contains ``index``."""
        return sum(1 for t in self.tensors if index in t)


class LifetimeSliceFinder:
    """Algorithm 1: in-place, lifetime-guided slicing-set search.

    Parameters
    ----------
    target_rank:
        The target dimension ``t`` — the largest allowed intermediate rank
        after slicing (e.g. 30 for a tensor that must fit in one Sunway CG's
        main memory at single precision).
    ensure_full_tree:
        After the stem pass, verify the memory bound on the *whole* tree and
        greedily add longest-lifetime edges from any offending off-stem
        intermediate.  The paper assumes branches are cheap enough that this
        never triggers; keeping the check makes the finder safe on arbitrary
        trees.
    """

    def __init__(self, target_rank: int, ensure_full_tree: bool = True) -> None:
        if target_rank < 1:
            raise ValueError("target_rank must be at least 1")
        self.target_rank = int(target_rank)
        self.ensure_full_tree = bool(ensure_full_tree)

    # ------------------------------------------------------------------
    def find(
        self,
        tree: ContractionTree,
        stem: Optional[Stem] = None,
        cost_model: Optional[SlicingCostModel] = None,
    ) -> SlicingResult:
        """Run Algorithm 1 on ``tree`` and evaluate the result on the full tree.

        Parameters
        ----------
        tree:
            The contraction tree to slice.
        stem:
            Pre-extracted stem (computed on demand otherwise).
        cost_model:
            Pre-built cost model of ``tree`` (built on demand otherwise).
        """
        if stem is None:
            stem = extract_stem(tree)
        if cost_model is None:
            cost_model = SlicingCostModel(tree)

        sliced = self.find_on_stem(stem)

        if self.ensure_full_tree:
            sliced = self._patch_full_tree(cost_model, sliced)

        return cost_model.result(sliced, self.target_rank, method="lifetime-finder")

    def find_on_stem(self, stem: Stem) -> FrozenSet[str]:
        """The raw Algorithm 1 loop; returns the slicing set."""
        t = self.target_rank
        state = _StemState(tensors=list(stem.stem_tensor_indices))
        sliced: Set[str] = set()

        while state.tensors:
            dims = state.dims(sliced)
            # pick the end tensor with the smaller (current) dimension
            if dims[0] <= dims[-1]:
                position = 0
            else:
                position = len(state.tensors) - 1
            end_tensor = state.tensors[position]
            need = dims[position] - t

            if need > 0:
                candidates = sorted(
                    (ix for ix in end_tensor if ix not in sliced),
                    key=lambda ix: (-state.lifetime_length(ix), ix),
                )
                sliced.update(candidates[:need])

            # prune every stem tensor that now fits the target
            state.tensors = [
                tensor for tensor in state.tensors if len(tensor - sliced) > t
            ]

        return frozenset(sliced)

    # ------------------------------------------------------------------
    def _patch_full_tree(
        self, cost_model: SlicingCostModel, sliced: FrozenSet[str]
    ) -> FrozenSet[str]:
        """Greedy fallback: enforce the memory bound on off-stem intermediates."""
        target = self.target_rank
        state = SlicingState(cost_model, sliced)
        for _ in range(len(cost_model.indices)):
            if state.satisfies_target(target):
                break
            # the unsliced edge carried by the most over-target intermediates
            # (first in label order on ties)
            counts = state.unsliced_counts(state.ranks > target)
            state.add(cost_model.indices[int(np.argmax(counts))])
        return frozenset(state.edges)


def find_slices(
    tree: ContractionTree, target_rank: int, refine: bool = False, seed: Optional[int] = None
) -> SlicingResult:
    """Convenience entry point: Algorithm 1, optionally followed by Algorithm 2.

    Parameters
    ----------
    tree:
        Contraction tree to slice.
    target_rank:
        Memory target ``t``.
    refine:
        Whether to run the simulated-annealing refiner on the found set.
    seed:
        PRNG seed for the refiner.
    """
    finder = LifetimeSliceFinder(target_rank)
    model = SlicingCostModel(tree)
    result = finder.find(tree, cost_model=model)
    if refine:
        from .slice_refiner import SimulatedAnnealingSliceRefiner

        refiner = SimulatedAnnealingSliceRefiner(seed=seed)
        result = refiner.refine(tree, result.sliced, target_rank, cost_model=model)
    return result
