"""cotengra-style greedy slicing baseline.

cotengra's built-in ``SliceFinder`` repeatedly chooses the single dimension
whose slicing causes the smallest increase of the total contraction cost,
until the memory demand is satisfied.  The paper uses this strategy as its
baseline in Fig. 10 (slicing-set size and overhead comparison over 400
contraction paths).  This module reimplements it faithfully on top of the
shared :class:`~repro.core.slicing.SlicingCostModel`:

* at every step the candidate edges are the unsliced indices carried by the
  currently-largest intermediates (slicing anything else cannot reduce the
  peak memory),
* among those, the edge minimising the resulting total cost (equivalently,
  the overhead) is chosen — a purely greedy, one-step-lookahead rule that
  is exactly the local-minimum-prone behaviour Theorem 1 improves on,
* optionally, a limited number of restarts with randomised tie-breaking
  emulate cotengra's repeated trials.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Optional

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from .slicing import SlicingCostModel, SlicingResult, SlicingState

__all__ = ["GreedySliceBaseline", "cotengra_style_slices"]


class GreedySliceBaseline:
    """Greedy ("cotengra-style") slicing-set search.

    Parameters
    ----------
    target_rank:
        Target maximum intermediate rank ``t``.
    restarts:
        Number of randomised restarts; the best (lowest-cost) run wins.
        With ``restarts=1`` the search is fully deterministic.
    temperature:
        Relative amount of noise added to the per-candidate scores on
        restarts beyond the first, emulating cotengra's trial randomness.
    seed:
        PRNG seed.
    """

    def __init__(
        self,
        target_rank: int,
        restarts: int = 1,
        temperature: float = 0.02,
        seed: Optional[int] = None,
    ) -> None:
        if target_rank < 1:
            raise ValueError("target_rank must be at least 1")
        if restarts < 1:
            raise ValueError("restarts must be at least 1")
        self.target_rank = int(target_rank)
        self.restarts = int(restarts)
        self.temperature = float(temperature)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def find(
        self,
        tree: ContractionTree,
        cost_model: Optional[SlicingCostModel] = None,
    ) -> SlicingResult:
        """Run the greedy search and return the best slicing found."""
        if cost_model is None:
            cost_model = SlicingCostModel(tree)
        best: Optional[FrozenSet[str]] = None
        best_cost = math.inf
        for restart in range(self.restarts):
            noisy = restart > 0
            sliced = self._single_run(cost_model, noisy)
            cost = cost_model.total_cost(sliced)
            if cost < best_cost:
                best_cost = cost
                best = sliced
        assert best is not None
        return cost_model.result(best, self.target_rank, method="greedy-baseline")

    # ------------------------------------------------------------------
    def _single_run(self, model: SlicingCostModel, noisy: bool) -> FrozenSet[str]:
        target = self.target_rank
        state = SlicingState(model)
        for _ in range(len(model.indices)):
            if state.satisfies_target(target):
                break
            # candidates: the unsliced edges carried by the currently-largest
            # intermediates, in label order; all scored in one batch
            cols = np.flatnonzero(state.unsliced_counts(state.ranks == state.ranks.max()))
            scores = state.costs(cols)
            if noisy and self.temperature > 0:
                scores *= 1.0 + self.temperature * self._rng.standard_normal(cols.size)
            state.add(model.indices[cols[int(np.argmin(scores))]])
        return frozenset(state.edges)


def cotengra_style_slices(
    tree: ContractionTree,
    target_rank: int,
    restarts: int = 1,
    seed: Optional[int] = None,
) -> SlicingResult:
    """One-shot greedy-baseline slicing for ``tree``."""
    return GreedySliceBaseline(
        target_rank=target_rank, restarts=restarts, seed=seed
    ).find(tree)
