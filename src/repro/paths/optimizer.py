"""Hyper-optimizer driver.

cotengra's headline feature is an "anytime" driver that runs many
randomised trials of several path-finding methods and keeps the best tree
according to a target score.  :class:`HyperOptimizer` reproduces that
workflow on top of the methods in this package:

* ``greedy``  — randomised greedy (:class:`~repro.paths.greedy.GreedyOptimizer`),
* ``partition`` — recursive Kernighan–Lin bisection,
* ``community`` — Girvan–Newman style community contraction,
* ``dp`` — exact dynamic programming (only attempted on small networks).

Each trial's tree is optionally polished by the simulated-annealing refiner,
and the winner is chosen by total flops, peak intermediate size, or the
paper-style combined score (flops subject to a memory bound).

When a :class:`~repro.costs.CostModel` is supplied, trees are ranked by
its predicted seconds (:meth:`~repro.costs.CostModel.tree_cost`) instead
of raw flop counts, so a model calibrated from measured backend timings
steers the search toward trees that are fast *on the measured machine*,
not merely cheap on paper.  Without a model the scoring is bit-identical
to the historical flop-count behaviour.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs.model import CostModel

from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from .anneal import TreeAnnealer
from .dynamic import DynamicProgrammingOptimizer
from .greedy import GreedyOptimizer
from .partition import CommunityOptimizer, PartitionOptimizer

__all__ = ["HyperOptimizer", "TrialRecord", "find_tree"]

_LOG = logging.getLogger("repro.paths")


@dataclass
class TrialRecord:
    """Bookkeeping for a single optimizer trial.

    ``cost`` is the cost model's predicted seconds for the trial's tree;
    it is ``None`` when the search ran without a model, in which case
    scoring falls back to ``log10_flops`` (the historical behaviour).
    """

    method: str
    log10_flops: float
    max_rank: int
    seed: int
    cost: Optional[float] = None

    def _time_key(self) -> float:
        """The time-like criterion: predicted seconds, else log10 flops."""
        return self.cost if self.cost is not None else self.log10_flops

    def score(self, minimize: str, memory_target_rank: Optional[int]) -> Tuple[float, ...]:
        """Sort key for trial comparison under the requested objective."""
        if minimize == "flops":
            return (self._time_key(), self.max_rank)
        if minimize == "size":
            return (self.max_rank, self._time_key())
        # "combo": respect the memory bound first, then time/flops
        over = 0.0
        if memory_target_rank is not None:
            over = max(0, self.max_rank - memory_target_rank)
        return (over, self._time_key(), self.max_rank)


class HyperOptimizer:
    """Multi-trial, multi-method contraction-tree search.

    Parameters
    ----------
    methods:
        Subset of ``{"greedy", "partition", "community", "dp"}``.
    max_trials:
        Total number of trials across all methods.
    minimize:
        ``"flops"``, ``"size"`` or ``"combo"`` (flops subject to the memory
        target).
    memory_target_rank:
        Target maximum intermediate rank used by the ``combo`` objective.
    refine:
        Whether to run the SA tree refiner on each trial's result.
    seed:
        Master seed; per-trial seeds are derived from it.
    cost_model:
        Optional :class:`~repro.costs.CostModel`; when given, trials are
        ranked by its predicted tree seconds instead of raw flop counts.
        ``None`` keeps the scoring bit-identical to the flop-count
        behaviour.
    """

    def __init__(
        self,
        methods: Sequence[str] = ("greedy", "partition", "community"),
        max_trials: int = 16,
        minimize: str = "flops",
        memory_target_rank: Optional[int] = None,
        refine: bool = True,
        seed: Optional[int] = None,
        cost_model: Optional["CostModel"] = None,
    ) -> None:
        valid = {"greedy", "partition", "community", "dp"}
        unknown = set(methods) - valid
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if minimize not in ("flops", "size", "combo"):
            raise ValueError("minimize must be 'flops', 'size' or 'combo'")
        self.methods = tuple(methods)
        self.max_trials = int(max_trials)
        self.minimize = minimize
        self.memory_target_rank = memory_target_rank
        self.refine = bool(refine)
        self.cost_model = cost_model
        self._rng = np.random.default_rng(seed)
        self.trials: List[TrialRecord] = []

    # ------------------------------------------------------------------
    def search(self, network: TensorNetwork) -> ContractionTree:
        """Run all trials and return the best tree found."""
        best_tree: Optional[ContractionTree] = None
        best: Optional[TrialRecord] = None
        self.trials = []

        for trial in range(self.max_trials):
            method = self.methods[trial % len(self.methods)]
            seed = int(self._rng.integers(0, 2**31 - 1))
            started = time.perf_counter()
            tree = self._run_trial(network, method, seed)
            built = time.perf_counter()
            if tree is None:
                continue
            if self.refine:
                annealer = TreeAnnealer(seed=seed)
                tree = annealer.refine(tree).tree
            annealed = time.perf_counter()
            record = TrialRecord(
                method=method,
                log10_flops=tree.log10_total_cost(),
                max_rank=tree.max_rank(),
                seed=seed,
                cost=(
                    float(self.cost_model.tree_cost(tree))
                    if self.cost_model is not None
                    else None
                ),
            )
            self.trials.append(record)
            _LOG.debug(
                "trial %d: method=%s seed=%d log10_flops=%.4f max_rank=%d "
                "build_s=%.4f anneal_s=%.4f",
                trial,
                method,
                seed,
                record.log10_flops,
                record.max_rank,
                built - started,
                annealed - built,
            )
            if best is None or self._key(record) < self._key(best):
                best, best_tree = record, tree

        if best is not None:
            _LOG.info(
                "best of %d trials: method=%s seed=%d log10_flops=%.4f max_rank=%d",
                len(self.trials),
                best.method,
                best.seed,
                best.log10_flops,
                best.max_rank,
            )
        if best_tree is None:
            # all trials failed (e.g. single-tensor network): fall back to greedy
            best_tree = GreedyOptimizer(seed=0).tree(network)
        return best_tree

    # ------------------------------------------------------------------
    def _run_trial(
        self, network: TensorNetwork, method: str, seed: int
    ) -> Optional[ContractionTree]:
        try:
            if method == "greedy":
                temperature = float(self._rng.uniform(0.0, 1.0))
                costmod = float(self._rng.uniform(0.5, 2.0))
                return GreedyOptimizer(
                    costmod=costmod, temperature=temperature, seed=seed
                ).tree(network)
            if method == "partition":
                cutoff = int(self._rng.integers(4, 12))
                return PartitionOptimizer(cutoff=cutoff, seed=seed).tree(network)
            if method == "community":
                resolution = float(self._rng.uniform(0.6, 1.6))
                return CommunityOptimizer(seed=seed, resolution=resolution).tree(network)
            if method == "dp":
                if network.num_tensors > 16:
                    return None
                return DynamicProgrammingOptimizer().tree(network)
        except (ValueError, RuntimeError):
            return None
        return None

    # ------------------------------------------------------------------
    def _key(self, record: TrialRecord) -> Tuple[float, ...]:
        return record.score(self.minimize, self.memory_target_rank)

    def best_record(self) -> Optional[TrialRecord]:
        """The record of the winning trial of the last search."""
        return min(self.trials, key=self._key, default=None)

    def trial_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-method aggregate statistics of the last search."""
        summary: Dict[str, Dict[str, float]] = {}
        for method in set(r.method for r in self.trials):
            records = [r for r in self.trials if r.method == method]
            costs = [r.log10_flops for r in records]
            summary[method] = {
                "trials": float(len(costs)),
                "best_log10_flops": min(costs),
                "mean_log10_flops": float(np.mean(costs)),
            }
            predicted = [r.cost for r in records if r.cost is not None]
            if predicted:
                summary[method]["best_predicted_seconds"] = min(predicted)
        return summary


def find_tree(
    network: TensorNetwork,
    max_trials: int = 16,
    minimize: str = "flops",
    memory_target_rank: Optional[int] = None,
    seed: Optional[int] = None,
    cost_model: Optional["CostModel"] = None,
) -> ContractionTree:
    """One-shot helper: run a :class:`HyperOptimizer` search and return the tree."""
    optimizer = HyperOptimizer(
        max_trials=max_trials,
        minimize=minimize,
        memory_target_rank=memory_target_rank,
        seed=seed,
        cost_model=cost_model,
    )
    return optimizer.search(network)
