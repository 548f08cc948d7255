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

A trial stays in masks
----------------------
A search builds the network's :class:`~repro.paths.indexspace.IndexSpace`
and its tensor graph once, before trial 0, so forked twins inherit them.
A trial hands both to its method's ``_ssa_path(space, graph)``, anneals the
path as a mask tree (:class:`~repro.paths.anneal._MutableTree`) and scores
that: its ``log10_flops`` sums the node costs in the order the emitted path
creates the nodes, which is the order
:meth:`~repro.tensornet.ContractionTree.log10_total_cost` sums them, and
its ``max_rank`` is the largest boundary popcount.  On a network whose
indices all have one integer log2 size (every qubit network) the record is
bitwise the tree's; on mixed sizes the masks sum each node's log2 sizes in
ascending bit order, so the ranking does not depend on string hashing, as
the tree's own frozenset-order sums do.  Only the winner becomes a
:class:`~repro.tensornet.ContractionTree`, and a trial builds one of its
own only for a cost model.

Where the trials run
--------------------
A search draws every trial's ``(method, seed, hyper-parameters)`` from the
master RNG up front, so each trial is a pure function of ``(network,
trial)``.  Trial 0 runs inline and is timed; where
:func:`repro.forking.pool_pays` says the rest pay for a fork, forked twins
(:class:`repro.forking.Twin`) split them with this process, which keeps the
first best trial in trial order, so trees, records and winner are
bit-identical wherever the trials ran.  A twin that fails to fork or dies
logs one ``WARNING`` and its trials run inline; a trial's own exception is
raised, the first in trial order, as inline.
"""

from __future__ import annotations

import gc
import logging
import os
import pickle
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs.model import CostModel

from ..forking import Twin, pool_pays, usable_cpus
from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from .anneal import TreeAnnealer, _MutableTree
from .dynamic import DynamicProgrammingOptimizer
from .greedy import GreedyOptimizer
from .indexspace import IndexSpace
from .partition import CommunityOptimizer, PartitionOptimizer, _Adjacency, _tensor_graph

__all__ = ["HyperOptimizer", "TrialRecord", "find_tree"]

_LOG = logging.getLogger("repro.paths")

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
class _Inputs:
    """What every trial of a search reads, built once before trial 0."""

    network: TensorNetwork
    space: IndexSpace
    graph: _Adjacency


@dataclass(frozen=True)
class _Outcome:
    """What a trial produced: its record (``None``: no tree), path and timings."""

    record: Optional[TrialRecord]
    ssa_path: Tuple[Tuple[int, int], ...]
    build_s: float
    anneal_s: float
    worker: str = "inline"


#: One trial of a search, its network and settings bound.
_RunTrial = Callable[[_Trial], _Outcome]


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
        inputs = _Inputs(network, IndexSpace.of_network(network), _tensor_graph(network))
        run_trial = partial(_run_trial, inputs, refine=self.refine, cost_model=self.cost_model)
        started = time.perf_counter()
        outcomes = [run_trial(trials[0])]
        if pool_pays(time.perf_counter() - started, len(trials) - 1):
            return outcomes + _run_twinned(run_trial, trials[1:])
        return outcomes + [run_trial(trial) for trial in trials[1:]]

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
def _build(inputs: _Inputs, trial: _Trial) -> Optional[List[Tuple[int, int]]]:
    """The trial's unrefined path; ``None`` when its method cannot handle the network."""
    try:
        if trial.method == "dp":
            if inputs.network.num_tensors > 16:
                return None
            return DynamicProgrammingOptimizer().ssa_path(inputs.network)
        optimizer = _SEEDED[trial.method](seed=trial.seed, **trial.params)
        return optimizer._ssa_path(inputs.space, inputs.graph)
    except (ValueError, RuntimeError):
        return None


def _run_trial(
    inputs: _Inputs,
    trial: _Trial,
    refine: bool,
    cost_model: Optional["CostModel"],
) -> _Outcome:
    """Build, anneal and score one trial, on masks: only a cost model needs a tree."""
    started = time.perf_counter()
    ssa = _build(inputs, trial)
    built = time.perf_counter()
    if ssa is None:
        return _Outcome(None, (), built - started, 0.0)
    mutable = _MutableTree(inputs.space, ssa)
    created = range(mutable.num_leaves, mutable.root + 1)  # the path's own node order
    if refine:
        TreeAnnealer(seed=trial.seed)._anneal(mutable)
        ssa, created = mutable.emit()
    annealed = time.perf_counter()
    log10_flops, max_rank = mutable.score(created)
    cost = None
    if cost_model is not None:
        cost = float(cost_model.tree_cost(ContractionTree.from_network(inputs.network, ssa)))
    record = TrialRecord(trial.method, log10_flops, max_rank, trial.seed, cost)
    return _Outcome(record, tuple(ssa), built - started, annealed - built)


def _run_share(run: _RunTrial, trials: List[_Trial], worker: str = "inline") -> List[object]:
    """``trials``' outcomes in order, ending at the first exception a trial
    raises (no later trial can matter)."""
    outcomes: List[object] = []
    for trial in trials:
        try:
            outcomes.append(replace(run(trial), worker=worker))
        except Exception as exc:
            return outcomes + [exc]
    return outcomes


def _run_twinned(run: _RunTrial, trials: List[_Trial]) -> List[_Outcome]:
    """``trials``' outcomes in order: of ``P = min(usable CPUs, len(trials))``
    processes, process ``k`` runs trials ``k, k + P, ...``; this one is
    process 0, which takes the longest share (a twin pays for its fork and
    its first touch of each page), and ``P - 1`` forked twins the others."""
    processes = min(usable_cpus(), len(trials))
    shares = [trials[k::processes] for k in range(processes)]
    # trial scratch is acyclic, freed as it goes: collections during the
    # parent's share would only promote it and, now and then, sweep the heap
    collecting = gc.isenabled()
    gc.disable()
    twins: List[Twin] = []
    try:
        started = time.perf_counter()
        try:
            for share in shares[1:]:
                twins.append(Twin(partial(_serve_share, run, share)))
                twins[-1].send(b"")
        except OSError as exc:  # (a failed fork: its share and the rest run inline)
            _lost(exc, sum(map(len, shares[1 + len(twins) :])))
        forked_ms = 1e3 * (time.perf_counter() - started)
        _LOG.debug("forked %d trial children in %.2f ms", len(twins), forked_ms)
        done = [_run_share(run, shares[0])]
        for twin, share in zip(twins, shares[1:]):
            try:
                done.append(pickle.loads(twin.wait()))
            except (EOFError, OSError) as exc:
                _lost(exc, len(share))
                done.append(_run_share(run, share))
        done += [_run_share(run, share) for share in shares[len(done) :]]
    finally:
        if collecting:
            gc.enable()
        for twin in twins:
            twin.close()
    outcomes = []
    for index in range(len(trials)):  # (a share's first error is raised before its end)
        outcomes.append(done[index % processes][index // processes])
        if isinstance(outcomes[-1], Exception):
            raise outcomes[-1]
    return outcomes


def _serve_share(run: _RunTrial, share: List[_Trial], request: bytes) -> bytes:
    """A twin's reply: its share's outcomes, pickled."""
    return pickle.dumps(_run_share(run, share, str(os.getpid())))


def _lost(exc: BaseException, trials: int) -> None:
    _LOG.warning("trial twin lost (%r); running its %d trials inline", exc, trials)


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
