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

Where the trials run
--------------------
A search first draws every trial's ``(method, seed, hyper-parameters)``
from the master RNG — seed, then that method's parameters, trial by trial —
so each trial is a pure function of ``(network, trial)``.  Trial 0 runs
inline and is timed.  The others run on a ``fork``-started process pool
when all of these hold, and inline one after another otherwise:

* at least two trials remain;
* the platform can ``fork`` and the process may run on at least two CPUs;
* the process runs no other thread (forking beside a live thread can
  deadlock the child; an open shared-memory pool session has one);
* trial 0's seconds times the remaining trials exceed the work below
  which a pool does not pay for itself (:data:`_FORK_SECONDS`).

Workers inherit the network through the fork and send back each trial's
record, SSA path and timings.  The parent logs the trials in order, keeps
the first best one and rebuilds only the winner's tree, so trees, records
and winner are bit-identical wherever the trials ran.  A pool that breaks (a
worker killed, a failed fork) logs one ``WARNING`` and the unfinished trials
run inline; a trial's own exception is raised as it would be inline.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

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

#: Inline seconds the remaining trials must be expected to take (trial 0's
#: seconds times their count) before they go to a fork pool; 0.2 s sits
#: between the bench plans that pool and those that stay inline.  Forced
#: inline/pool pairs on a 2-vCPU VM (bench runs, seed 3, medians), with the
#: spread of 7 x trial 0's seconds: Sycamore-53 m=12 (0.28-0.51 s) plans in
#: 0.645 s inline, 0.440 s pooled (6/6 pairs); the 5x7 grid m=9
#: (0.24-0.37 s) sets up in 0.295 s / 0.229 s (6/6); the 4x5 grid m=10
#: (0.13-0.18 s) in 0.158 s / 0.139 s (6/6) -- but an earlier series there
#: lost 5/5 on the pool (+29 %), when two busy workers delivered well under
#: twice one core's trial rate, so that plan and the cheaper sampling plan
#: (0.10-0.15 s) stay inline.  The pool's own life costs about 20 ms.
_FORK_SECONDS = 0.2

#: The methods whose optimizer takes a seed and the drawn parameters.
_SEEDED = {
    "greedy": GreedyOptimizer,
    "partition": PartitionOptimizer,
    "community": CommunityOptimizer,
}


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


@dataclass(frozen=True)
class _Trial:
    """One trial's drawn inputs: with the network, all it depends on."""

    method: str
    seed: int
    params: Mapping[str, float]


@dataclass(frozen=True)
class _Outcome:
    """What a trial produced: its record (``None``: no tree), path and timings."""

    record: Optional[TrialRecord]
    ssa_path: Tuple[Tuple[int, int], ...]
    build_s: float
    anneal_s: float
    worker: str = "inline"


class HyperOptimizer:
    """Multi-trial, multi-method contraction-tree search.

    Parameters
    ----------
    methods:
        Subset of ``{"greedy", "partition", "community", "dp"}``.
    max_trials:
        Total number of trials across all methods; at least 1.
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
        if not methods:
            raise ValueError("methods must name at least one method")
        if minimize not in ("flops", "size", "combo"):
            raise ValueError("minimize must be 'flops', 'size' or 'combo'")
        if int(max_trials) < 1:
            raise ValueError(f"max_trials must be at least 1, got {max_trials}")
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
        self.trials = []
        best: Optional[_Outcome] = None
        for index, outcome in enumerate(self._run_trials(network, self._draw_trials())):
            record = outcome.record
            if record is None:
                continue
            self.trials.append(record)
            _LOG.debug(
                "trial %d: method=%s seed=%d log10_flops=%.4f max_rank=%d "
                "build_s=%.4f anneal_s=%.4f worker=%s",
                index,
                record.method,
                record.seed,
                record.log10_flops,
                record.max_rank,
                outcome.build_s,
                outcome.anneal_s,
                outcome.worker,
            )
            if best is None or self._key(record) < self._key(best.record):
                best = outcome

        if best is None:
            # all trials failed (e.g. single-tensor network): fall back to greedy
            return GreedyOptimizer(seed=0).tree(network)
        _LOG.info(
            "best of %d trials: method=%s seed=%d log10_flops=%.4f max_rank=%d",
            len(self.trials),
            best.record.method,
            best.record.seed,
            best.record.log10_flops,
            best.record.max_rank,
        )
        return ContractionTree.from_network(network, best.ssa_path)

    # ------------------------------------------------------------------
    def _draw_trials(self) -> List[_Trial]:
        """Every trial's inputs, drawn from the master RNG in trial order."""
        rng, trials = self._rng, []
        for index in range(self.max_trials):
            method = self.methods[index % len(self.methods)]
            seed = int(rng.integers(0, 2**31 - 1))
            params: Dict[str, float] = {}
            if method == "greedy":
                params["temperature"] = float(rng.uniform(0.0, 1.0))
                params["costmod"] = float(rng.uniform(0.5, 2.0))
            elif method == "partition":
                params["cutoff"] = int(rng.integers(4, 12))
            elif method == "community":
                params["resolution"] = float(rng.uniform(0.6, 1.6))
            trials.append(_Trial(method, seed, params))
        return trials

    def _run_trials(self, network: TensorNetwork, trials: List[_Trial]) -> List[_Outcome]:
        """Every trial's outcome in trial order: the first inline, the rest where they pay."""
        started = time.perf_counter()
        outcomes = [_run_trial(network, trials[0], self.refine, self.cost_model)]
        if _pool_pays(time.perf_counter() - started, len(trials) - 1):
            outcomes += self._run_pooled(network, trials[1:])
        for trial in trials[len(outcomes):]:
            outcomes.append(_run_trial(network, trial, self.refine, self.cost_model))
        return outcomes

    def _run_pooled(self, network: TensorNetwork, trials: List[_Trial]) -> List[_Outcome]:
        """Run ``trials`` on a fork pool; the outcomes of the finished prefix, in order.

        A pool that breaks logs one warning and returns what it finished,
        for the caller to run the rest inline.
        """
        finished: List[_Outcome] = []
        if any(trial.method == "community" for trial in trials):
            # a community trial imports networkx: once here, not once per forked worker
            import networkx  # noqa: F401
        try:
            with ProcessPoolExecutor(
                max_workers=min(_usable_cpus(), len(trials)),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt,
                initargs=(network, self.refine, self.cost_model),
            ) as pool:
                futures = [pool.submit(_pooled_trial, trial) for trial in trials]
                try:
                    for future in futures:
                        finished.append(future.result())
                finally:
                    for future in futures:
                        future.cancel()
        except (BrokenProcessPool, OSError) as exc:
            _LOG.warning(
                "trial pool failed after %d of %d trials (%s: %s); running the rest inline",
                len(finished),
                len(trials),
                type(exc).__name__,
                exc,
            )
        return finished

    # ------------------------------------------------------------------
    def _key(self, record: TrialRecord) -> Tuple[float, ...]:
        return record.score(self.minimize, self.memory_target_rank)

    def best_record(self) -> Optional[TrialRecord]:
        """The record of the winning trial of the last search."""
        return min(self.trials, key=self._key, default=None)

    def trial_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-method aggregate statistics of the last search, in ``methods`` order."""
        summary: Dict[str, Dict[str, float]] = {}
        for method in self.methods:
            records = [r for r in self.trials if r.method == method]
            if not records:
                continue
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


# ----------------------------------------------------------------------
# One trial, wherever it runs
# ----------------------------------------------------------------------
def _build(network: TensorNetwork, trial: _Trial) -> Optional[ContractionTree]:
    """The trial's unrefined tree; ``None`` when its method cannot handle the network."""
    try:
        if trial.method == "dp":
            if network.num_tensors > 16:
                return None
            return DynamicProgrammingOptimizer().tree(network)
        return _SEEDED[trial.method](seed=trial.seed, **trial.params).tree(network)
    except (ValueError, RuntimeError):
        return None


def _run_trial(
    network: TensorNetwork,
    trial: _Trial,
    refine: bool,
    cost_model: Optional["CostModel"],
) -> _Outcome:
    """Build, anneal and score one trial."""
    started = time.perf_counter()
    tree = _build(network, trial)
    built = time.perf_counter()
    if tree is None:
        return _Outcome(None, (), built - started, 0.0)
    if refine:
        tree = TreeAnnealer(seed=trial.seed).refine(tree).tree
    annealed = time.perf_counter()
    record = TrialRecord(
        method=trial.method,
        log10_flops=tree.log10_total_cost(),
        max_rank=tree.max_rank(),
        seed=trial.seed,
        cost=float(cost_model.tree_cost(tree)) if cost_model is not None else None,
    )
    return _Outcome(record, tree.ssa_path, built - started, annealed - built)


def _usable_cpus() -> int:
    """The CPUs this process may run on (1 where the platform cannot say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _pool_pays(first_s: float, remaining: int) -> bool:
    """Whether the ``remaining`` trials after one of ``first_s`` seconds go to a fork pool."""
    return (
        remaining >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and _usable_cpus() >= 2
        and threading.active_count() == 1
        and first_s * remaining > _FORK_SECONDS
    )


#: A pool worker's copy of the search inputs, inherited through the fork;
#: set by :func:`_adopt` in worker processes only.
_ADOPTED: Optional[Tuple[TensorNetwork, bool, Optional["CostModel"]]] = None


def _adopt(network: TensorNetwork, refine: bool, cost_model: Optional["CostModel"]) -> None:
    """Pool initializer: keep the inherited search inputs; workers log nothing."""
    global _ADOPTED
    _ADOPTED = (network, refine, cost_model)
    logging.disable(logging.CRITICAL)


def _pooled_trial(trial: _Trial) -> _Outcome:
    """Run one trial in a pool worker."""
    network, refine, cost_model = _ADOPTED
    return replace(_run_trial(network, trial, refine, cost_model), worker=str(os.getpid()))


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
