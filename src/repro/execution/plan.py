"""Compiled contraction plans: plan once, execute ``prod w(e)`` times.

The sliced execution model of the paper runs the *same* contraction tree for
every subtask — only the values assigned to the sliced indices change.  The
reference executor (:class:`~repro.execution.contract.TreeExecutor`'s einsum
walker) rebuilds einsum spec strings, re-slices every leaf and re-contracts
the entire tree for each subtask; all of that work is slice-invariant and
can be hoisted out of the subtask loop.  This module performs that hoisting:

* :func:`compile_plan` turns a (network, tree, slicing set) triple into a
  :class:`CompiledPlan` — per-leaf slicing instructions plus one
  :class:`ContractStep` per internal tree node holding an explicit GEMM
  layout (or, for the rare hyper-index cases, a precompiled einsum spec)
  and the output index order.  Nothing about the
  plan depends on the *values* assigned to the sliced indices, so one plan
  serves every subtask.
* The compiler *plans the sweep* (:func:`repro.core.lifetime.plan_sweep`):
  it chooses the enumeration order of the sliced indices — the plan's
  :attr:`CompiledPlan.sliced`, which the executors decode subtask ids in —
  and the *open* subtrees, small enough to be contracted once with the
  sliced indices reaching them left on as ordinary axes.  Both are chosen
  to minimise the executed steps without exceeding the flops or the
  resident bytes of sorted-label order with nothing open.
* The compiler stamps every tree node with its *level*
  (:func:`repro.core.lifetime.slice_dependency_levels` over that order):
  level 0 is contracted once — *slice-invariant* (no sliced edge's lifetime
  reaches a leaf of its subtree) or open — and a level-``j`` node changes
  only when one of the first ``j`` sliced indices does.  The plan derives
  from this a static free/reuse schedule: a child is freed at its parent
  only when both share a level; a lower-level child is *retained*.  The
  maximal level-0 subtrees (the *frontier*) are computed once by
  :meth:`CompiledPlan.warm_cache`; per subtask an open root costs one
  basic-index view of its cache entry (:attr:`CompiledPlan.fetches`), and
  the retained partials of levels ``>= 1`` let a sweep over consecutive
  assignments *resume* from the first changed level instead of
  recontracting the whole dependent part (see :meth:`CompiledPlan.execute`).
* The sweep planner picks where the sums over sliced values are taken,
  the *fold stack* ``((X, M), ..., (sigma, 0))``, innermost first
  (:func:`repro.core.lifetime.plan_folded_sweep`).  Summation is linear,
  so wherever no sibling on the chain above a node changes after position
  ``M``, ``sum_a chain(S(a)) == chain(sum_a S(a))`` over the assignments
  that agree on the first ``M`` positions.  An inner fold
  (:attr:`CompiledPlan.inner_fold`) sums ``X``'s arrays over such a
  *block* and runs its chain once per block
  (:meth:`CompiledPlan.execute_block`); the outermost,
  :attr:`CompiledPlan.fold_node`, is the array a block contributes, the
  sweep loops fold those in assignment order, and its chain — the *tail*
  — runs once per run over the sum (:meth:`CompiledPlan.finish`).  Every
  chain runs through one flush.
* The compiler *lays out* the cached subtask (:func:`_lay_out`): it walks
  the dependent part once, freeing exactly as the walker frees, and gives
  every buffer that walk writes — GEMM outputs, operand copies,
  producer-side staged copies, staged leaf loads — one byte offset in an
  arena of :attr:`CompiledPlan.arena_bytes`, by greedy first-fit interval
  colouring over those lifetimes.  Retained partials are pinned for the
  whole sweep, so a resumed subtask never overwrites them.  Each worker's
  :class:`StemSlots` holds one arena for as long as the worker lives, so
  a cached sweep's resident bytes are the cache, the arena and the fold
  accumulator — a number the plan states before it runs: the paper's
  lifetime memory bound, true by construction.

Two loops execute the compiled step list, one per kind of run.  A cached
subtask on a worker's arena runs the walk :class:`StemSlots` bound to it
once per plan (:meth:`CompiledPlan.arena_views`): per resume position a
flat list of ``np.copyto`` and ``np.dot(out=)`` calls on views made at
binding (:func:`_run_bound`), so a step costs its copies and its GEMM.
Everything else — cache warming, the tail, stateless calls — runs
:func:`_walk_steps` in fresh arrays, the bound walk's bitwise oracle.
The state a resumed sweep carries from one subtask to the next (the
previous assignment's values and the retained partials) lives on the
:class:`StemSlots` arena and its lifetime is one run of consecutive
assignments — one serial sweep or one worker chunk
(:meth:`StemSlots.sweep`); nothing survives a ``run_subtasks`` call, so no
tensor replacement or plan recompile can fall inside it.
Every GEMM-shaped step carries one explicit layout (operand permutations,
the three GEMM shapes, identity flags) and runs as ``transpose →
reshape → dot(out=)`` on C-contiguous operands; on a cached subtask with
an arena every copy and output lands at its region, elsewhere in fresh
arrays (and einsum outputs always are).  Lifetimes govern the
permutations as they govern the contractions: *when an operand's producer
runs less often than its consumer, the permutation moves to the producer*
(:func:`_stage_at_producers`).  A frontier entry is staged by the warm
pass, an open root keeps the sliced axes it carries in front of its
consumer's layout (the per-subtask fetch is then the contiguous operand),
a retained partial or leaf load is staged by its own step — and the
consumer reads the buffer as is, byte for byte the one it would have
staged itself.

:class:`PlanStats` instruments execution with per-node step counters; the
benchmark and the equivalence tests use it to assert that the cached path
performs each slice-invariant contraction exactly once, and a full ordered
sweep exactly the :meth:`CompiledPlan.sweep_cost` the levels predict.
"""

from __future__ import annotations

import logging
import math
import operator
import time
from array import array
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, replace
from functools import lru_cache, partial
from types import MappingProxyType
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.lifetime import SweepPlan, plan_folded_sweep, slice_dependency_levels
from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from ..tensornet.tensor import Tensor

__all__ = [
    "CompiledPlan",
    "ContractStep",
    "LeafStep",
    "PlanError",
    "PlanStats",
    "StemSlots",
    "SweepCost",
    "compile_plan",
]

logger = logging.getLogger(__name__)


class PlanError(ValueError):
    """Raised when a plan cannot be compiled or is executed inconsistently."""


#: In-memory cap on retained per-subtask timing samples.  Aggregates
#: (sum, count) stay exact beyond it; only the raw sample list is bounded,
#: so stats stay O(1) per worker chunk and per long-running session.
MAX_TIMING_SAMPLES = 256

#: An axis a load leaves alone (the rest are fixed to the subtask's values).
_WHOLE_AXIS = slice(None)


@dataclass
class PlanStats:
    """Execution counters for a :class:`CompiledPlan`.

    Attributes
    ----------
    node_counts:
        How many times the contraction at each internal node actually ran.
        On the cached path every slice-invariant node must stay at 1 no
        matter how many subtasks execute — the benchmark asserts this.
    cache_hits:
        Number of operand fetches served from the invariant cache.
    executions:
        Number of ``execute`` calls (subtasks).
    slot_writes:
        Number of step outputs written into the worker's arena instead of
        a freshly allocated buffer.
    subtask_seconds:
        Wall-time samples of ``execute`` calls (cache warming excluded) —
        the measured per-subtask samples the calibrated cost model fits.
        An ``array('d')``: a sequence of floats, unboxed (8 bytes a sample).
        Bounded at :data:`MAX_TIMING_SAMPLES`; ``subtask_seconds_sum`` /
        ``timed_subtasks`` keep the exact aggregates beyond the cap.
        Sample order across pool workers is completion order, which is
        fine: the fit treats them as an unordered sample.
    subtask_seconds_sum:
        Exact total of every timed ``execute`` call (uncapped).
    timed_subtasks:
        Exact count of timed ``execute`` calls (uncapped).
    stage_seconds:
        Accumulated wall time per execution stage (``"warm_cache"``,
        ``"execute"``).
    retries:
        Chunk re-submissions performed by the resilience layer (see
        :mod:`repro.execution.resilience`): every time a failed chunk was
        queued again — on the rebuilt pool or the same one — this counts
        one.  Zero on a fault-free run.
    faults:
        Failure events observed: worker deaths (a process-pool child or a
        distributed worker gone, :exc:`~repro.execution.resilience.WorkerLost`),
        chunk timeouts, and chunk exceptions, one count each.
    degraded_to:
        Name of the substrate a degrading run fell back to (``"threads"``
        or ``"serial"``), ``None`` when the primary backend completed the
        run itself.
    recovery_seconds:
        Wall time spent inside recovery actions — pool rebuilds, segment
        republication, retry backoff — excluded from the per-subtask
        timing samples so calibration never fits fault overhead.
    comms_seconds:
        Wall time of chunk round-trips *not* covered by the workers' own
        per-subtask compute samples — serialization, transfer, dispatch
        — as measured by the distributed coordinator.  Zero on the
        in-process backends.  The calibrated cost model turns this into
        a per-subtask communication term.
    comms_bytes:
        Steady-state bytes shipped for chunks (chunk frames out plus
        result frames back).  One-time broadcast payloads are *not*
        counted here — they are session state, not per-chunk cost — the
        session tracks them separately (``broadcast_bytes``).
    chunk_roundtrips:
        Number of completed coordinator→worker→coordinator chunk
        round-trips the comms aggregates cover.
    checkpointed_slots:
        Ordered slots write-ahead-recorded into a durable chunk ledger
        (:mod:`repro.execution.checkpoint`) during this run.  Zero when
        no checkpoint is armed.
    resumed_slots:
        Ordered slots pre-filled from a ledger persisted by a previous
        (interrupted) run instead of being re-executed.  The resilience
        counters (``retries``/``faults``/``recovery_seconds``) of those
        previous runs are merged in alongside, so a resumed run reports
        the cumulative job, not just its own restart.
    """

    node_counts: Dict[int, int] = field(default_factory=dict)
    cache_hits: int = 0
    executions: int = 0
    slot_writes: int = 0
    subtask_seconds: array[float] = field(default_factory=lambda: array("d"))
    subtask_seconds_sum: float = 0.0
    timed_subtasks: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    retries: int = 0
    faults: int = 0
    degraded_to: Optional[str] = None
    recovery_seconds: float = 0.0
    comms_seconds: float = 0.0
    comms_bytes: int = 0
    chunk_roundtrips: int = 0
    checkpointed_slots: int = 0
    resumed_slots: int = 0

    # Constants, not fields: the benchmark's fused variant still reads
    # them.  The next benchmark change retires them with execute_fused_s.
    fused_steps = 0
    tape_engine = None
    fusion_breaks = MappingProxyType({})

    def record_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def record_subtask_time(self, seconds: float) -> None:
        """Record one ``execute`` wall time (sample list bounded)."""
        self.subtask_seconds_sum += seconds
        self.timed_subtasks += 1
        if len(self.subtask_seconds) < MAX_TIMING_SAMPLES:
            self.subtask_seconds.append(seconds)

    @property
    def steps_executed(self) -> int:
        """Total pair contractions performed."""
        return sum(self.node_counts.values())

    @property
    def mean_subtask_seconds(self) -> float:
        """Mean measured wall time per ``execute`` call (NaN when unmeasured).

        Exact over every timed call, including those beyond the retained
        sample cap.
        """
        if self.timed_subtasks:
            return self.subtask_seconds_sum / self.timed_subtasks
        if self.subtask_seconds:  # hand-built stats without the aggregates
            return sum(self.subtask_seconds) / len(self.subtask_seconds)
        return float("nan")

    #: What :meth:`to_words` carries besides the node counts and samples.
    _WORD_COUNTERS = (
        "cache_hits", "executions", "slot_writes", "timed_subtasks", "subtask_seconds_sum"
    )
    _WORD_STAGES = ("warm_cache", "execute")
    _WORD_HEAD = 2 + len(_WORD_COUNTERS) + len(_WORD_STAGES)

    @classmethod
    def words(cls, nodes: int) -> int:
        """The float64 words :meth:`to_words` needs for ``nodes`` node counts."""
        return cls._WORD_HEAD + 2 * nodes + MAX_TIMING_SAMPLES

    def to_words(self, words: np.ndarray) -> None:
        """A sweep's counters as float64 words, for a process that reads them
        in place (:meth:`merge_words`): the node and sample counts, the
        counters, the stage seconds, then the node ids, their counts and
        the timing samples (every count exact: far below 2**53).  The
        resilience counters are not carried: a sweep has none."""
        nodes, samples = len(self.node_counts), len(self.subtask_seconds)
        head = self._WORD_HEAD
        words[:head] = [
            nodes,
            samples,
            *(getattr(self, name) for name in self._WORD_COUNTERS),
            *(self.stage_seconds.get(stage, 0.0) for stage in self._WORD_STAGES),
        ]
        words[head : head + nodes] = list(self.node_counts)
        words[head + nodes : head + 2 * nodes] = list(self.node_counts.values())
        words[head + 2 * nodes : head + 2 * nodes + samples] = self.subtask_seconds

    def merge_words(self, words: np.ndarray) -> None:
        """:meth:`merge` the stats :meth:`to_words` wrote, read in place:
        nothing the size of the other stats is built."""
        nodes, samples, head = int(words[0]), int(words[1]), self._WORD_HEAD
        for index, name in enumerate(self._WORD_COUNTERS, 2):
            value = getattr(self, name)
            setattr(self, name, value + type(value)(words[index]))
        for index, stage in enumerate(self._WORD_STAGES, 2 + len(self._WORD_COUNTERS)):
            if words[index]:
                self.record_stage(stage, float(words[index]))
        for node, count in zip(words[head : head + nodes], words[head + nodes : head + 2 * nodes]):
            self.node_counts[int(node)] = self.node_counts.get(int(node), 0) + int(count)
        room = min(MAX_TIMING_SAMPLES - len(self.subtask_seconds), samples)
        if room > 0:
            self.subtask_seconds.extend(words[head + 2 * nodes : head + 2 * nodes + room])

    def merge(self, other: "PlanStats") -> None:
        """Fold another stats object into this one (used by worker pools)."""
        for node, count in other.node_counts.items():
            self.node_counts[node] = self.node_counts.get(node, 0) + count
        self.cache_hits += other.cache_hits
        self.executions += other.executions
        self.slot_writes += other.slot_writes
        room = MAX_TIMING_SAMPLES - len(self.subtask_seconds)
        if room > 0:
            self.subtask_seconds.extend(other.subtask_seconds[:room])
        self.subtask_seconds_sum += other.subtask_seconds_sum
        self.timed_subtasks += other.timed_subtasks
        for stage, seconds in other.stage_seconds.items():
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        self.retries += other.retries
        self.faults += other.faults
        if self.degraded_to is None:
            self.degraded_to = other.degraded_to
        self.recovery_seconds += other.recovery_seconds
        self.comms_seconds += other.comms_seconds
        self.comms_bytes += other.comms_bytes
        self.chunk_roundtrips += other.chunk_roundtrips
        self.checkpointed_slots += other.checkpointed_slots
        self.resumed_slots += other.resumed_slots


class StemSlots:
    """A worker's reusable arena: the buffer a compiled plan lays its
    cached subtask out in, and the plan's walk bound to it.

    The arena is one grow-only byte buffer (:attr:`CompiledPlan.arena_bytes`):
    every GEMM output, operand copy and staged copy of the dependent part
    has a compile-time offset in it.  :meth:`views` binds the plan's cached
    walk to those regions once (:meth:`CompiledPlan.arena_views`): every
    step becomes copies and GEMMs over views made at binding, so a subtask
    runs a prebound op list and never builds a view, a transpose or a
    reshape of an arena region.

    The object also carries the *resume state* of the sweep in progress:
    which plan and cache last ran here, the values that run assigned (a
    list updated in place), its ``live`` table of the arrays the binding
    does not hold — cache entries, leaf loads, fetches — and the binding
    itself, whose pinned regions hold the retained partials.
    :meth:`CompiledPlan.execute` trusts it for exactly "same plan, same
    cache object", so its lifetime is one run of consecutive assignments,
    scoped by :meth:`sweep`: the serial loops and the chunk body open one
    around their loop, and nothing that can change tensor data or recompile
    a plan happens inside.

    The arena is grown (never shrunk) on demand, so one instance serves
    plans of any size, and it lives as long as its worker.  An instance is
    *not* thread-safe — every executor thread / pool worker owns its own
    (the backends arrange this).
    """

    __slots__ = ("_arena", "_views", "_resume")

    def __init__(self) -> None:
        self._arena: Optional[np.ndarray] = None
        #: ``(plan, dtypes, binding)``: the last plan's walk over the arena
        self._views: Optional[Tuple] = None
        #: ``(plan, cache, values, live, binding)`` of the last cached execute
        self._resume: Optional[Tuple] = None

    def views(self, plan: "CompiledPlan", dtypes: Tuple[np.dtype, ...]) -> "_Binding":
        """``plan``'s cached walk bound to the arena (:meth:`CompiledPlan.arena_views`)
        for operands of ``dtypes``.

        Built once per plan and operand dtypes: leaf data rebound in place
        and a re-warmed cache reuse it.  Another plan's binding is dropped —
        its views pin the buffer they view — before the arena grows to this
        one's size.  The outgrown arena is released *before* its successor
        is allocated: its content is dead, and two generations side by side
        were the peak of a large plan's first subtask.
        """
        held = self._views
        if held is not None and held[0] is plan and held[1] == dtypes:
            return held[2]
        self._views = held = None
        nbytes, arena = plan.arena_bytes, self._arena
        if arena is None or arena.size < nbytes:
            self._arena = arena = None
            self._arena = arena = np.empty(max(nbytes, 1), np.uint8)
        binding = plan.arena_views(arena[:nbytes], dtypes)
        self._views = (plan, dtypes, binding)
        return binding

    @contextmanager
    def sweep(self) -> Iterator["StemSlots"]:
        """Scope one run of consecutive assignments on this arena.

        The resume state starts empty and is dropped on the way out (also
        on an exception), so retained partials never outlive the loop that
        produced them.
        """
        self._resume = None
        try:
            yield self
        finally:
            self._resume = None

    def release(self) -> None:
        """Drop the arena, its binding and the resume state; the next
        :meth:`views` allocates afresh."""
        self._arena = self._views = self._resume = None

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently held by the arena."""
        return 0 if self._arena is None else self._arena.nbytes


@dataclass(frozen=True)
class SweepCost:
    """Predicted work of one full ordered sweep, additive over steps.

    ``steps`` and ``leaf_loads`` count pair contractions and leaf
    loads/slices (fetches from open cache entries included) over all
    ``prod w(e)`` subtasks, the one-off cache warm included; ``flops``
    weighs each step by its scalar multiply-adds (an open step's are its
    *unsliced* ones, once).  ``stagings`` counts the GEMM operands a
    consumer brings into GEMM layout itself, once per use (``transpose →
    reshape → ascontiguousarray``) — not an identity layout of another
    step's output in the arena, which the cached walk reads as it is — and
    ``producer_stagings`` the ones a producer that runs less often wrote in
    that layout instead — at the warm pass or when a retained partial is
    produced.  ``cache_bytes`` is what the frontier cache holds for the
    whole sweep and ``retained_bytes`` what the retained partials (levels
    ``>= 1``) hold between subtasks, the staged copies of leaves included;
    other leaf loads and fetches are views and hold nothing (a ``dtype``
    override, or a leaf that is not C-contiguous, copies more than is
    counted).
    ``fold_bytes`` is the accumulators of the folds with a chain above
    them: the sum of the :attr:`CompiledPlan.fold_node`'s arrays below the
    root, and an inner fold's block accumulator.
    """

    steps: int = 0
    leaf_loads: int = 0
    flops: float = 0.0
    retained_bytes: int = 0
    cache_bytes: int = 0
    stagings: int = 0
    producer_stagings: int = 0
    fold_bytes: int = 0

    def __add__(self, other: "SweepCost") -> "SweepCost":
        return SweepCost(*map(operator.add, astuple(self), astuple(other)))


#: A producer-side staging: ``(axis permutation, target shape)`` — the
#: array is written once as ``transpose(perm).reshape(shape)``, C-contiguous.
Staging = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: Where a buffer of the cached subtask lives in the arena:
#: ``(byte offset, elements)``, sized at the plan dtype's itemsize.
Region = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class LeafStep:
    """Load (and slice) one leaf tensor, or fetch from an open cache entry.

    ``takes`` lists the ``(index, axis)`` pairs a subtask fixes, ``axis``
    being the position in the *source* array: the load is one basic-index
    expression over all of them, hence a view.  ``source_indices`` records
    the axis order of the source the step was compiled against — the
    network tensor ``tid`` (so staleness is detectable), or, when ``tid``
    is ``None``, the cache entry of the open node ``node``, which carries
    the sliced indices reaching it as ordinary axes.  ``level`` is the
    position (1-based, 0 = none) of the fastest-varying enumerated index
    among ``takes``: a resumed sweep repeats the load only when an index
    at or before that position changed.

    ``stage`` is set on a leaf whose load runs less often than the GEMM
    that consumes it (see :class:`ContractStep`): the load then yields the
    operand in that GEMM's layout.  A fetch never stages — its open root's
    step wrote the entry with the taken axes leading and the rest in
    consumer layout, so the view *is* the contiguous operand.  ``region``
    is where a cached subtask writes that staged copy in the arena, when
    it is one (:func:`_lay_out`).

    ``index`` is the load's basic-index expression with a whole axis
    where each taken value goes, derived from ``takes``: a load fills in
    the values only.
    """

    node: int
    tid: Optional[int]
    takes: Tuple[Tuple[str, int], ...]
    out_indices: Tuple[str, ...]
    source_indices: Tuple[str, ...]
    level: int = 0
    stage: Optional[Staging] = None
    region: Optional[Region] = None
    index: Tuple[object, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = self.takes[-1][1] + 1 if self.takes else 0
        whole = len(self.takes) == len(self.source_indices)
        object.__setattr__(self, "index", _index_template(width, whole))


@lru_cache(maxsize=None)
def _index_template(width: int, whole: bool) -> Tuple[object, ...]:
    """Whole axes up to the last taken one, shared by every load of that
    shape; an Ellipsis keeps a load that takes every axis an array."""
    return (*[_WHOLE_AXIS] * width, *[Ellipsis] * whole)


@dataclass(frozen=True, slots=True)
class ContractStep:
    """One precompiled pair contraction.

    ``kind`` names the shape of the step:

    * ``"tensordot"`` — a plain GEMM: the operands are permuted to
      ``(m, k)`` / ``(k, n)`` and contracted with ``np.dot``;
    * ``"einsum"`` — precompiled integer-sublist einsum (no symbol-table
      size limit, unlike spec strings); fallback for hyper indices kept on
      the output and for axes summed out of a single operand.

    A GEMM step carries one layout: ``lhs_perm`` / ``rhs_perm`` bring
    the operands into GEMM order, ``shapes`` holds the three GEMM shapes
    (lhs, rhs, output; ``None`` on einsum steps), and the identity flags
    mark permutations the walker skips.  ``regions`` places the buffers a
    step of the cached subtask writes in the arena (:func:`_lay_out`):
    ``(lhs copy, rhs copy, output, staged copy)``, each ``None`` where there
    is no such buffer — an operand read as is, an einsum output (which
    always allocates), no ``stage``.  Steps outside the cached subtask —
    the warm pass, the tail — have no ``regions`` at all.

    *Staging moves to the producer that runs less often.*  When an
    operand's producer has a lower level than this step — a frontier
    entry, an open root, a retained partial or leaf load — the producer
    writes it once, C-contiguous, in the layout this step reads, and the
    operand's ``*_perm`` here is ``None``: it is taken as is.  The
    producer carries the permutation as ``stage`` (an open root's also
    moves the sliced axes it carries to the front, where its fetch takes
    them).  Every node has one consumer, so one layout.

    ``level`` is the node's :func:`~repro.core.lifetime.slice_dependency_levels`
    entry (0 = slice-invariant, or *open*: contracted once by the warm pass
    with the sliced indices reaching it left on as axes).  ``free_cached``
    drops a child only when it shares the step's level; a lower-level
    child stays in the live table for the subtasks that do not change it.
    """

    node: int
    lhs: int
    rhs: int
    kind: str
    out_indices: Tuple[str, ...]
    out_shape: Tuple[int, ...]
    level: int
    free_cached: Tuple[int, ...]
    log2_flops: float
    lhs_perm: Optional[Tuple[int, ...]] = None
    rhs_perm: Optional[Tuple[int, ...]] = None
    shapes: Optional[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]] = None
    lhs_identity: bool = False
    rhs_identity: bool = False
    stage: Optional[Staging] = None
    sub_lhs: Optional[Tuple[int, ...]] = None
    sub_rhs: Optional[Tuple[int, ...]] = None
    sub_out: Optional[Tuple[int, ...]] = None
    regions: Optional[Tuple[Optional[Region], ...]] = None

    @property
    def invariant(self) -> bool:
        """Whether the step's output is the same in every subtask."""
        return self.level == 0



def _staged(data: np.ndarray, stage: Staging) -> np.ndarray:
    """``data`` written once in its consumer's GEMM layout (C-contiguous)."""
    return np.ascontiguousarray(data.transpose(stage[0]).reshape(stage[1]))


def _above(items: Tuple, level: int) -> Tuple:
    """``items`` without the ones at ``level`` — ``items`` itself when none is."""
    if any(item.level == level for item in items):
        return tuple(item for item in items if item.level != level)
    return items


def _walk_steps(
    steps: Sequence[ContractStep],
    live: Dict[int, np.ndarray],
    stats: Optional["PlanStats"],
    cached: bool,
) -> None:
    """Execute ``steps`` over ``live``, every buffer a fresh array: the warm
    pass, :meth:`CompiledPlan.finish`'s tail and stateless calls, and the
    bitwise oracle of the bound walk (:func:`_run_bound`).

    GEMM operands are always staged C-contiguously: when a transposed
    reshape happens to be expressible as a *view* (e.g. an F-contiguous
    ``(m, k)``) — or an unpermuted operand arrives non-contiguous, as
    einsum outputs and user-supplied leaves may — BLAS would take its
    transposed-GEMM dispatch, whose accumulation grouping differs from
    the C-contiguous one by ulps.  Forcing C order makes every step's
    GEMM independent of how its operands happen to be laid out, which is
    what keeps every execution path bit-identical.  An operand whose
    ``*_perm`` is ``None`` was written in exactly that form by its producer
    (``stage``) and is read as is: same buffer contents, staged once per
    lifetime instead of once per use.

    ``cached`` selects the free schedule (the warm pass and the walks keep
    frontier operands and lower-level partials; a flush frees every
    operand).  A GEMM operand's lifetime ends the moment its staged copy
    exists — before the other operand is staged and before the output is
    allocated — so an operand never coexists with its own copy *and* the
    output (a staged *view* keeps the buffer alive by itself); likewise a
    step that stages its own output releases its staged operands first.
    """
    counts = stats.node_counts if stats is not None else None
    for step in steps:
        lhs, rhs, node = step.lhs, step.rhs, step.node
        frees = step.free_cached if cached else (lhs, rhs)
        shapes = step.shapes
        if shapes is None:
            a, b = live[lhs], live[rhs]
            out = np.einsum(a, step.sub_lhs, b, step.sub_rhs, step.sub_out)
            del a, b
            for child in frees:
                del live[child]
        else:
            lhs_shape, rhs_shape, gemm_shape = shapes
            a = live[lhs]
            if lhs in frees:
                del live[lhs]
            dtype = a.dtype
            if step.lhs_perm is not None:
                if not step.lhs_identity:
                    a = a.transpose(step.lhs_perm)
                a = np.ascontiguousarray(a.reshape(lhs_shape))
            b = live[rhs]
            if rhs in frees:
                del live[rhs]
            if b.dtype != dtype:
                dtype = np.result_type(dtype, b.dtype)
            if step.rhs_perm is not None:
                if not step.rhs_identity:
                    b = b.transpose(step.rhs_perm)
                b = np.ascontiguousarray(b.reshape(rhs_shape))
            out = np.empty(gemm_shape, dtype)
            np.dot(a, b, out=out)
            # drop the staged operands now: staging this step's own output,
            # or the next step's allocations, would otherwise sit on top
            del a, b
            out = out.reshape(step.out_shape)
        if step.stage is not None:
            out = _staged(out, step.stage)
        live[node] = out
        del out
        if counts is not None:
            counts[node] = counts.get(node, 0) + 1


#: What a bound walk runs for ``steps`` (:meth:`CompiledPlan.arena_views`):
#: ``(ops, number of GEMMs)``.  An op is a GEMM ``(lhs, rhs, out)``, a copy
#: ``(destination, source)`` or a 1-tuple ``(call,)``, run as ``call(live)``;
#: a GEMM operand that is not an array is read per walk — an ``int`` is the
#: node ``live`` holds, a ``(node, shape)`` pair an identity layout of it.
BoundSuffix = Tuple[Tuple[Tuple, ...], int]


def _run_bound(
    bound: BoundSuffix,
    steps: Sequence[ContractStep],
    live: Dict[int, np.ndarray],
    stats: Optional["PlanStats"],
) -> None:
    """Run ``steps`` as bound: the cached walk's one loop — per step its
    ``np.copyto`` and ``np.dot`` calls on views made at binding, and a
    ``live`` lookup per operand from the cache, a load or a fetch — then
    count them at once."""
    ops, writes = bound
    dot, copyto, ndarray = np.dot, np.copyto, np.ndarray
    for op in ops:
        if len(op) == 3:
            a, b, out = op
            if a.__class__ is not ndarray:
                a = live[a] if a.__class__ is int else _read_in_place(a, live)
            if b.__class__ is not ndarray:
                b = live[b] if b.__class__ is int else _read_in_place(b, live)
            dot(a, b, out)
        elif len(op) == 2:
            into, source = op
            copyto(into.reshape(source.shape), source)
        else:
            op[0](live)
    if stats is not None:
        counts = stats.node_counts
        for step in steps:
            counts[step.node] = counts.get(step.node, 0) + 1
        stats.slot_writes += writes


def _read_in_place(operand: Tuple, live: Dict[int, np.ndarray]) -> np.ndarray:
    """An identity layout of ``live[node]`` for ``(node, shape)``, staged
    C-contiguously as the fresh walk stages it (one of
    ``sweep_cost().stagings``): a copy only when it is not contiguous.  (An
    arena array is bound as its reshaped view: it is contiguous already.)"""
    node, shape = operand
    return np.ascontiguousarray(live[node].reshape(shape))


def _copy_live(into: np.ndarray, node: int, perm: Optional[Tuple[int, ...]], live) -> None:
    """Copy ``live[node]``, transposed by ``perm``, into its region."""
    data = live[node] if perm is None else live[node].transpose(perm)
    np.copyto(into.reshape(data.shape), data)


def _einsum(node: int, a, sub_a, b, sub_b, sub_out, live) -> None:
    """An einsum step, its output a fresh array in ``live``."""
    a, b = (live[x] if x.__class__ is int else x for x in (a, b))
    live[node] = np.einsum(a, sub_a, b, sub_b, sub_out)


def _merged(shape: Tuple[int, ...], perm: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
    """``(source shape, permutation)`` of the same transpose with every run of
    source axes that stays adjacent and in order merged: the same copy with
    a shallower iterator and smaller views."""
    runs: List[List[int]] = []
    for axis in perm:
        if runs and runs[-1][-1] + 1 == axis:
            runs[-1].append(axis)
        else:
            runs.append([axis])
    order = sorted(range(len(runs)), key=lambda run: runs[run][0])
    merged = [math.prod(shape[axis] for axis in runs[run]) for run in order]
    return merged, [order.index(run) for run in range(len(runs))]


def _leaf_data(network: TensorNetwork, tid: int) -> np.ndarray:
    """Tensor ``tid``'s data, which a walk needs concrete."""
    data = network.tensor(tid).data
    if data is None:
        raise ValueError(f"tensor {tid} is abstract; the executor needs concrete data")
    return data


class _Binding(NamedTuple):
    """A plan's cached walk bound to one arena (:meth:`CompiledPlan.arena_views`):
    per resume position the flat ops of ``_resume_suffixes[p]``'s steps
    (equal suffixes share an entry, every suffix the ops), the inner fold's
    flush over its block sum ``accumulator``, the staged copy of each leaf
    load with a region, and the arena arrays of the walk's and the flush's
    last nodes, which the caller reads from ``live``."""

    suffixes: Tuple[BoundSuffix, ...]
    flush: Optional[BoundSuffix]
    accumulator: Optional[np.ndarray]
    stagings: Dict[int, np.ndarray]
    tops: Tuple[Tuple[int, np.ndarray], ...]


class CompiledPlan:
    """A contraction tree compiled against one network and slicing set.

    Instances are produced by :func:`compile_plan`; they are immutable and
    safe to share between threads once :meth:`warm_cache` has completed.
    """

    def __init__(
        self,
        tree: ContractionTree,
        enumerated: Tuple[str, ...],
        dtype: Optional[np.dtype],
        leaf_steps: Tuple[LeafStep, ...],
        fetches: Tuple[LeafStep, ...],
        steps: Tuple[ContractStep, ...],
        frontier: FrozenSet[int],
        dependent: FrozenSet[int],
        out_indices: Tuple[str, ...],
        out_sizes: Dict[str, int],
        derived_dtype: Optional[np.dtype] = None,
        arena_bytes: int = 0,
        folds: Sequence[Tuple[int, int, Optional[Region]]] = (),
    ) -> None:
        self._tree = tree
        self._arena_bytes = arena_bytes
        # dtype inferred from the network's leaf tensors at compile time
        # (satellite of the explicit _dtype override); drives arena and
        # pre-calibration sizing, never leaf casting
        self._derived_dtype = derived_dtype
        self._enumerated = enumerated
        #: size of every enumerated index, in sweep order: its keys are what
        #: an assignment must name, its values what theirs must stay below
        self._enumerated_sizes: Dict[str, Optional[int]] = {}
        for ix in enumerated:
            try:
                self._enumerated_sizes[ix] = tree.index_size(ix)
            except Exception:
                # index unknown to the tree: fixing it is a no-op (matches
                # the reference walker), so no range to enforce
                self._enumerated_sizes[ix] = None
        self._dtype = dtype
        self._leaf_steps = leaf_steps
        self._fetches = fetches
        self._steps = steps
        self._frontier = frontier
        self._dependent = dependent
        self._out_indices = out_indices
        self._out_sizes = dict(out_sizes)
        self._invariant_steps = tuple(s for s in steps if s.level == 0)
        # the fold stack, innermost first, ``(node, level, chain steps,
        # accumulator region)`` per fold: a subtask's walk ends at the
        # innermost node, and a fold's chain — up to the next fold's node,
        # or the root — runs once per block of it (:meth:`_flush`)
        folds = tuple(folds) or ((tree.root, 0, None),)
        chains = _fold_chains(tree, [node for node, _, _ in folds])
        self._folds = tuple(
            (node, level, tuple(s for s in steps if s.node in chain), region)
            for (node, level, region), chain in zip(folds, chains)
        )
        # the cache entries a subtask reads: the frontier less the tail's
        # operands (finish reads those, once)
        self._subtask_frontier = tuple(
            node
            for node in sorted(frontier)
            if not any(node in (s.lhs, s.rhs) for s in self._folds[-1][2])
        )
        # what a cached execute re-runs when position ``p`` of the
        # enumeration order is the first whose value changed: the leaf
        # loads, fetches and steps of level > p on no fold's chain.  Entry 0
        # is the whole dependent part, entry len(enumerated) is empty; a
        # position no load or step sits at shares its predecessor's tuples
        # (the plan sits in every sweep's footprint).
        loads = (*leaf_steps, *fetches)
        folded = frozenset().union(*chains)
        work = tuple(s for s in steps if s.node not in folded)
        suffixes: List[Tuple[Tuple[LeafStep, ...], Tuple[ContractStep, ...]]] = []
        for p in range(len(enumerated) + 1):
            loads, work = _above(loads, p), _above(work, p)
            if suffixes and suffixes[-1][0] is loads and suffixes[-1][1] is work:
                suffixes.append(suffixes[-1])
            else:
                suffixes.append((loads, work))
        self._resume_suffixes = tuple(suffixes)
        # dependent nodes a resumed sweep keeps between subtasks: the
        # children no step frees, the cached frontier aside
        self._retained = frozenset(
            child
            for step in steps
            for child in (step.lhs, step.rhs)
            if child not in step.free_cached and child not in frontier
        )
        # what a bound walk reads from ``live``, whose dtypes key its
        # binding: the cache entries (fetches view theirs), the leaf loads
        self._cache_operands = tuple(
            sorted({*self._subtask_frontier, *(fetch.node for fetch in fetches)})
        )
        self._leaf_operands = tuple(ls for ls in leaf_steps if ls.level)
    # ------------------------------------------------------------------
    @property
    def tree(self) -> ContractionTree:
        """The tree this plan was compiled from."""
        return self._tree

    @property
    def sliced(self) -> Tuple[str, ...]:
        """The sliced indices in sweep order, slowest-varying first."""
        return self._enumerated

    @property
    def dtype(self) -> Optional[np.dtype]:
        """The dtype execution runs in.

        The explicit compile-time override when one was given, else the
        dtype derived from the network's concrete leaf tensors
        (``np.result_type`` over all of them), else ``None`` when every
        leaf was abstract at compile time.  Arena and pre-calibration
        sizing read this instead of assuming complex128,
        so complex64 circuits run end-to-end at half the working set.
        """
        if self._dtype is not None:
            return self._dtype
        return self._derived_dtype

    @property
    def contract_steps(self) -> Tuple[ContractStep, ...]:
        """Every compiled pair-contraction step, in execution order."""
        return self._steps

    @property
    def out_indices(self) -> Tuple[str, ...]:
        """Index order of the result."""
        return self._out_indices

    @property
    def out_sizes(self) -> Dict[str, int]:
        """Copy of the result's index → size mapping."""
        return dict(self._out_sizes)

    @property
    def leaf_steps(self) -> Tuple[LeafStep, ...]:
        """The per-leaf load/slice instructions (backends ship these)."""
        return self._leaf_steps

    @property
    def fetches(self) -> Tuple[LeafStep, ...]:
        """The per-subtask views of open cache entries, one per open root."""
        return self._fetches

    @property
    def num_steps(self) -> int:
        """Number of pair contractions in the tree, warm pass included."""
        return len(self._steps)

    @property
    def invariant_nodes(self) -> FrozenSet[int]:
        """Internal nodes contracted once, by the warm pass: no sliced index
        reaches them, or they are open and carry the ones that do."""
        return frozenset(s.node for s in self._invariant_steps)

    @property
    def dependent_nodes(self) -> FrozenSet[int]:
        """Nodes (leaves and internals) loaded or contracted per subtask:
        a sliced index reaches them and they are not inside an open subtree."""
        return self._dependent

    @property
    def frontier(self) -> FrozenSet[int]:
        """Roots of the maximal subtrees the warm pass contracts — invariant
        or open — whose tensors the cache retains."""
        return self._frontier

    @property
    def retained_nodes(self) -> FrozenSet[int]:
        """Dependent nodes (leaves and internals) of a lower level than their
        parent: the partials a resumed sweep keeps between subtasks."""
        return self._retained

    @property
    def fold_node(self) -> int:
        """The outermost fold: the node whose array a block contributes
        (:meth:`execute_array`).

        Summation is linear, so contributions can be summed below the root
        wherever nothing above depends on a sliced index
        (:func:`~repro.core.lifetime.plan_folded_sweep`), and the ancestors
        of the fold node — the *tail* — run once per run, in :meth:`finish`.
        """
        return self._folds[-1][0]

    @property
    def inner_fold(self) -> Optional[Tuple[int, int]]:
        """The inner fold ``(node, level)`` below the fold node, or ``None``.

        No sibling on the chain from ``node`` up to the :attr:`fold_node`
        changes after position ``level``, so the subtasks of a *block* —
        consecutive assignments that agree on the first ``level`` positions
        (:meth:`blocks`) — walk to ``node`` only and add its arrays into one
        accumulator, and the chain runs once per block over the sum
        (:meth:`execute_block`).  ``None`` on plans with no inner fold: a
        block is then one subtask.
        """
        return self._folds[0][:2] if len(self._folds) > 1 else None

    def blocks(
        self, assignments: Iterable[Mapping[str, int]]
    ) -> Iterator[List[Mapping[str, int]]]:
        """``assignments`` cut into blocks, in order and lazily: the maximal
        runs of consecutive ones that agree on the first ``level`` positions
        of the :attr:`inner_fold` — one assignment each without one.  Any
        sequence is valid; a sweep in enumeration order has ``runs[level]``
        blocks.
        """
        if self.inner_fold is None:
            for assignment in assignments:
                yield [assignment]
            return
        head = self._enumerated[: self._folds[0][1]]
        block: List[Mapping[str, int]] = []
        previous: Optional[Tuple] = None
        for assignment in assignments:
            key = tuple(map(assignment.get, head))
            if block and key != previous:
                yield block
                block = []
            block.append(assignment)
            previous = key
        if block:
            yield block

    @property
    def contribution_shape(self) -> Tuple[int, ...]:
        """Shape of the array :meth:`execute_array` returns."""
        node, _, tail, _ = self._folds[-1]
        if tail:
            return self._node_shape(node)
        return tuple(self._out_sizes[ix] for ix in self._out_indices)

    @property
    def arena_bytes(self) -> int:
        """Bytes of the arena a cached subtask runs in (:func:`_lay_out`).

        Every buffer the dependent part writes — GEMM outputs, operand
        copies, staged copies, the retained partials and the fold node's
        array, and with an :attr:`inner_fold` the block accumulator and the
        flush's buffers — sits at a compile-time offset inside it, at the
        plan dtype's itemsize.  A cached sweep's resident bytes are
        therefore at most ``cache_bytes + arena_bytes + fold_bytes`` of
        :meth:`sweep_cost` (whose ``fold_bytes`` also counts the block
        accumulator the arena holds).
        """
        return self._arena_bytes

    def arena_views(self, buffer: np.ndarray, dtypes: Sequence[np.dtype]) -> _Binding:
        """The cached walk bound to the byte ``buffer`` (:class:`_Binding`).

        Each step of the dependent part and of the inner fold's chain
        becomes, once: a copy ``(destination, source)`` per operand it
        permutes out of the arena (:func:`_merged`), its GEMM ``(lhs, rhs,
        out)`` and a copy for a staged output, whose destination is then the
        node's array — a retained partial's region is pinned, so its views
        hold across subtasks.  Einsum steps and copies of ``live`` arrays are
        ``(call,)`` ops.  A step's output is its operands' ``np.result_type``
        (``dtypes``: :meth:`_operand_dtypes`) in a region sized at the plan
        dtype's itemsize; a wider one — leaf data replaced after compiling —
        gets a buffer of its own.  The copies and GEMMs are
        :func:`_walk_steps`' on the same C-contiguous layouts: the same bits.
        """
        nodes = (*self._cache_operands, *(ls.node for ls in self._leaf_operands))
        typed_of = dict(zip(nodes, dtypes))
        itemsize = _arena_dtype(self.dtype).itemsize
        resident: Dict[int, np.ndarray] = {}  # node -> its array in the arena
        written: Set[int] = set()  # einsum outputs an op puts in live
        ops_of: Dict[int, List[Tuple]] = {}

        def flat(region: Region, dtype: np.dtype, shape) -> np.ndarray:
            offset, elements = region
            if dtype.itemsize > itemsize:
                return np.empty(shape, dtype)
            return buffer[offset : offset + elements * dtype.itemsize].view(dtype).reshape(shape)

        def copy(source: np.ndarray, perm: Tuple[int, ...], into: np.ndarray) -> Tuple:
            shape, order = _merged(source.shape, perm)
            return (into, source.reshape(shape).transpose(order))

        def operand(child, perm, identity, shape, region, ops) -> Any:
            source = resident.get(child)
            if perm is None:  # staged by its producer
                return int(child) if source is None else source
            if region is None:  # an identity layout, read in place
                return (int(child), shape) if source is None else source.reshape(shape)
            into = flat(region, typed_of[child], shape)
            if source is None:
                ops.append((partial(_copy_live, into, child, None if identity else perm),))
            else:
                ops.append(copy(source, perm, into))
            return into

        def bind(step: ContractStep, frees: Iterable[int]) -> None:
            ops = ops_of[step.node] = []
            node, regions = step.node, step.regions or (None,) * 4
            typed_of[node] = dtype = np.result_type(typed_of[step.lhs], typed_of[step.rhs])
            if step.shapes is None:
                a, b = (resident.get(c, int(c)) for c in (step.lhs, step.rhs))
                einsum = partial(_einsum, node, a, step.sub_lhs, b, step.sub_rhs, step.sub_out)
                ops.append((einsum,))
                out = None
                written.add(node)
            else:
                lhs_shape, rhs_shape, gemm_shape = step.shapes
                a = operand(step.lhs, step.lhs_perm, step.lhs_identity, lhs_shape, regions[0], ops)
                b = operand(step.rhs, step.rhs_perm, step.rhs_identity, rhs_shape, regions[1], ops)
                out = flat(regions[2], dtype, gemm_shape)
                ops.append((a, b, out))
                out = resident[node] = out.reshape(step.out_shape)
            if step.stage is not None:
                staged = flat(regions[3], dtype, step.stage[1])
                if out is None:
                    ops.append((partial(_copy_live, staged, node, step.stage[0]),))
                    frees = (*frees, node)
                else:
                    ops.append(copy(out, step.stage[0], staged))
                resident[node] = staged
            for child in frees:
                if child in written:
                    written.discard(child)
                    ops.append((operator.methodcaller("pop", child),))  # its lifetime ends

        def suffix(steps: Sequence[ContractStep]) -> BoundSuffix:
            ops = tuple(op for step in steps for op in ops_of[step.node])
            return ops, sum(step.shapes is not None for step in steps)

        stagings = {
            ls.node: flat(ls.region, typed_of[ls.node], ls.stage[1])
            for ls in self._leaf_operands
            if ls.region is not None
        }
        for step in self._resume_suffixes[0][1]:
            bind(step, step.free_cached)
        suffixes: List[BoundSuffix] = []
        for p, (_, steps) in enumerate(self._resume_suffixes):
            shared = p and steps is self._resume_suffixes[p - 1][1]
            suffixes.append(suffixes[-1] if shared else suffix(steps))
        node, _, chain, region = self._folds[0]
        tops = [(node, resident[node])] if node in resident else []
        flush = accumulator = None
        if self.inner_fold is not None:
            # the chain reads the block sum where the walk left the node
            walked = resident.get(node)
            shape = self._node_shape(node) if walked is None else walked.shape
            resident[node] = accumulator = flat(region, typed_of[node], shape)
            inside = {step.node for step in chain}
            for step in chain:  # (what the walk left, siblings included, stays)
                bind(step, [c for c in (step.lhs, step.rhs) if c in inside])
            flush = suffix(chain)
            if chain[-1].node in resident:
                tops.append((chain[-1].node, resident[chain[-1].node]))
        return _Binding(tuple(suffixes), flush, accumulator, stagings, tuple(tops))

    def _node_shape(self, node: int) -> Tuple[int, ...]:
        """The shape of an internal node's array (its step's output)."""
        return self._steps[node - self._tree.num_leaves].out_shape

    def _level_runs(self) -> List[int]:
        """How often a level-``j`` step or load runs in one full sweep."""
        runs = [1]
        for ix in self._enumerated:
            runs.append(runs[-1] * (self._enumerated_sizes[ix] or 1))
        return runs

    def _step_runs(self) -> List[int]:
        """How often each step runs in one full sweep, in step order."""
        runs = self._level_runs()
        # (a step on the chain of fold ``(node, M)`` runs once per block)
        level = {s.node: m for _, m, chain, _ in self._folds for s in chain}
        return [runs[level.get(s.node, s.level)] for s in self._steps]

    def sweep_cost(self) -> SweepCost:
        """Predicted cost of one full sweep in enumeration order.

        Computed from the levels alone: a level-``j`` step, leaf load or
        fetch runs ``prod_{i <= j} w(e_i)`` times (once for level 0, in the
        cache warm, and once per block for a step on the chain of a fold at
        level ``M``: ``prod_{i <= M} w(e_i)`` times, once for the tail, in
        :meth:`finish`), which is exactly what ``stats.steps_executed``
        counts after one serial ``run()`` with an invariant cache — and each
        run stages the operands its step still permutes itself, plus its own
        output when a less frequent consumer reads it staged.
        ``fold_bytes`` counts the accumulator of every fold with a chain.
        """
        runs = self._level_runs()
        itemsize = np.dtype(self.dtype or np.complex128).itemsize
        # what a node's own buffer holds; loads and fetches are views,
        # except a leaf staged through a real permutation (a copy)
        held = {s.node: itemsize * math.prod(s.out_shape) for s in self._steps}
        loads = (*self._leaf_steps, *self._fetches)
        for ls in self._leaf_steps:
            if ls.stage is not None and ls.stage[0] != tuple(range(len(ls.stage[0]))):
                held[ls.node] = itemsize * math.prod(ls.stage[1])
        cost = SweepCost(
            leaf_loads=sum(runs[ls.level] for ls in loads),
            cache_bytes=sum(held.get(node, 0) for node in self._frontier),
            producer_stagings=sum(runs[ls.level] for ls in loads if ls.stage is not None),
            fold_bytes=sum(held[node] for node, _, chain, _ in self._folds if chain),
        )
        leaves = self._tree.num_leaves

        def staged(step: ContractStep, child: int, perm, identity: bool) -> bool:
            if perm is None:
                return False
            if not identity or step.regions is None or child < leaves:
                return True
            # an arena array is contiguous: the bound walk reads it in place
            regions = self._steps[child - leaves].regions
            return regions is None or regions[2] is None

        for step, count in zip(self._steps, self._step_runs()):
            cost += SweepCost(
                steps=count,
                flops=count * 2.0**step.log2_flops,
                retained_bytes=sum(
                    held.get(child, 0)
                    for child in (step.lhs, step.rhs)
                    if child in self._retained
                ),
                stagings=count * (
                    staged(step, step.lhs, step.lhs_perm, step.lhs_identity)
                    + staged(step, step.rhs, step.rhs_perm, step.rhs_identity)
                ),
                producer_stagings=count * (step.stage is not None),
            )
        return cost

    def matches_network(self, network: TensorNetwork) -> bool:
        """Whether the network's leaf index orders still match the plan.

        The plan bakes in each leaf's axis order; if a tensor was replaced
        with a permuted or re-indexed one, the plan must be recompiled.
        """
        try:
            return all(
                network.tensor(ls.tid).indices == ls.source_indices
                for ls in self._leaf_steps
            )
        except Exception:
            return False

    # ------------------------------------------------------------------
    def new_cache(self) -> Dict[int, np.ndarray]:
        """A fresh (empty) invariant-intermediate cache."""
        return {}

    def cache_is_warm(self, cache: Mapping[int, np.ndarray]) -> bool:
        """Whether every frontier intermediate is present in ``cache``."""
        return cache.keys() >= self._frontier

    def warm_cache(
        self,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats] = None,
    ) -> None:
        """Compute every slice-invariant and open intermediate once into ``cache``.

        Runs only the level-0 portion of the plan (which fixes no sliced
        index, hence needs no assignment) with the cache-warm free schedule,
        so interior buffers are freed as soon as they are consumed and only
        the frontier survives.  No arena: cache entries outlive the
        subtask, so they must not sit in reused bytes.
        """
        start = time.perf_counter()
        live = {
            ls.node: self._load_leaf(network, ls, None)
            for ls in self._leaf_steps
            if ls.node not in self._dependent
        }
        _walk_steps(self._invariant_steps, live, stats, True)
        for node in self._frontier:
            cache[node] = live[node]
        if stats is not None:
            stats.record_stage("warm_cache", time.perf_counter() - start)

    # ------------------------------------------------------------------
    def execute(
        self,
        network: TensorNetwork,
        assignment: Optional[Mapping[str, int]] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        stats: Optional[PlanStats] = None,
        slots: Optional[StemSlots] = None,
    ) -> Tensor:
        """Contract the network for one slice assignment.

        Parameters
        ----------
        network:
            The concrete network the plan was compiled against.
        assignment:
            Value of every enumerated sliced index.
        cache:
            The invariant cache (from :meth:`new_cache`), warmed on first
            use; only the slice-dependent part of the tree is recontracted
            over it.  ``None`` warms a private one for this call.
        stats:
            Optional instrumentation counters.
        slots:
            Optional :class:`StemSlots` arena.  The subtask then writes
            every buffer its layout places (:attr:`arena_bytes`) into the
            arena instead of allocating — the returned tensor may alias the
            arena, so it is only valid until the next ``execute`` with the
            same arena (the execution backends accumulate it immediately).

        With an arena the call *resumes*: the assignment is compared, by
        value and in enumeration order, with the one the arena last ran
        for this plan and cache, and only the leaf loads and steps at or
        above the first differing position's level run — the whole
        dependent part when the arena holds no state for this plan and
        cache, nothing but the root fetch when no value differs.  Any
        sequence of assignments is therefore correct, not only ``id + 1``.
        The state is trusted for "same plan, same cache object" only: the
        caller scopes it with :meth:`StemSlots.sweep` so that no tensor
        replacement falls between two resumed calls.  Without an arena the
        call is stateless.

        The call runs the plan's tail (:meth:`finish`) on its own
        contribution, so the tensor is the one subtask's, computed in the
        same order as any single-subtask contraction.
        """
        cache = {} if cache is None else cache
        data = self.execute_array(network, assignment, cache, stats, slots)
        data = self.finish(network, data, cache, stats)
        return Tensor(self._out_indices, data=data, sizes=self._out_sizes)

    def execute_array(
        self,
        network: TensorNetwork,
        assignment: Optional[Mapping[str, int]] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        stats: Optional[PlanStats] = None,
        slots: Optional[StemSlots] = None,
    ) -> np.ndarray:
        """One subtask's contribution: the :attr:`fold_node`'s array.

        :meth:`execute` without the tail and the :class:`Tensor` wrapper —
        a one-subtask block (:meth:`execute_block`).  Its shape is
        :attr:`contribution_shape`; on a plan that folds at its root it is
        the result, axes in :attr:`out_indices` order.
        """
        return self.execute_block(
            network,
            ({} if assignment is None else assignment,),
            {} if cache is None else cache,
            stats,
            slots,
        )

    def execute_block(
        self,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats] = None,
        slots: Optional[StemSlots] = None,
    ) -> np.ndarray:
        """One block's contribution: the :attr:`fold_node`'s array, summed over it.

        ``assignments`` is one block of :meth:`blocks` — what the sweep
        loops fold, in order, before handing the sum to :meth:`finish`.
        Without an :attr:`inner_fold` a block is one subtask and this is
        its array.  With one, each subtask walks up to the inner node only
        (resuming as :meth:`execute` describes), its array is added to the
        block accumulator in order, and at the block's end the chain above
        runs once — the *flush* — over the accumulator and the chain
        siblings, which no subtask of the block changed and which the
        walk of the next block's first subtask would overwrite.  A
        one-subtask block is bitwise the subtask the fold-free plan runs.
        """
        if len(self._folds) == 1:
            if len(assignments) != 1:
                raise PlanError(f"a block of this plan is one subtask, not {len(assignments)}")
            live, _ = self._walk(network, assignments[0], cache, stats, slots)
            node = self._folds[0][0]
            # (the root itself is cached when nothing is slice-dependent: a
            # copy keeps callers off the cache buffer)
            return live[node].copy() if node in self._frontier else live[node]
        if not assignments:
            raise PlanError("an empty block contributes nothing")
        fold = self._folds[0]
        node, level = fold[:2]
        head = self._enumerated[:level]
        key = tuple(map(assignments[0].get, head))
        accumulator = None
        for assignment in assignments:
            if tuple(map(assignment.get, head)) != key:
                raise PlanError(
                    f"the subtasks of one block must agree on the first {level} "
                    f"sliced indices {list(head)}"
                )
            live, binding = self._walk(network, assignment, cache, stats, slots)
            if accumulator is None:
                if binding is None:
                    accumulator = live[node].copy()
                else:
                    accumulator = binding.accumulator
                    np.copyto(accumulator, live[node])
            else:
                accumulator += live[node]
        start = time.perf_counter()
        if binding is None:
            data = self._flush(fold, accumulator, live, stats)
        else:
            _run_bound(binding.flush, fold[2], live, stats)
            data = live[fold[2][-1].node]
        if stats is not None:
            stats.record_stage("execute", time.perf_counter() - start)
        return data

    def _walk(
        self,
        network: TensorNetwork,
        assignment: Mapping[str, int],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
        slots: Optional[StemSlots],
    ) -> Tuple[Dict[int, np.ndarray], Optional[_Binding]]:
        """One subtask's walk up to the fold node — or to the inner fold's
        node: ``(live, binding)``, the binding ``None`` without ``slots``."""
        enumerated = self._enumerated
        sizes = self._enumerated_sizes
        if assignment.keys() != sizes.keys():
            raise PlanError(
                f"assignment keys {sorted(assignment)} do not match the "
                f"plan's sliced indices {sorted(enumerated)}"
            )
        state = None
        if slots is not None:
            # taken off the arena for the duration of the call: an execute
            # that raises leaves the arena without state
            state, slots._resume = slots._resume, None
        if not self.cache_is_warm(cache):
            self.warm_cache(network, cache, stats)
            state = None  # its partials came from the previous cache contents
        # one pass over the order validates the values and finds the first
        # position that differs from the assignment the arena last ran (a
        # value equal to a validated one needs no range check)
        first = 0
        if state is not None and state[0] is self and state[1] is cache:
            values, live = state[2], state[3]
            for ix in enumerated:
                if values[first] != assignment[ix]:
                    break
                first += 1
        else:
            state = None
            values = [None] * len(enumerated)
        for position in range(first, len(enumerated)):
            ix = enumerated[position]
            values[position] = value = assignment[ix]
            size = sizes[ix]
            # a basic index would silently wrap negative values
            if size is not None and not 0 <= value < size:
                raise PlanError(f"slice value {value} out of range for index {ix!r}")
        if stats is not None:
            stats.executions += 1
            stats.cache_hits += len(self._subtask_frontier)

        start = time.perf_counter()
        if state is None:
            live = {node: cache[node] for node in self._subtask_frontier}
            if slots is not None:
                # (after the state check: a stale state was dropped above, so
                # the arena may grow to this plan's size)
                binding = slots.views(self, self._operand_dtypes(network, cache))
                live.update(binding.tops)
                state = (self, cache, values, live, binding)
        loads, steps = self._resume_suffixes[first]
        binding = None if state is None else state[4]
        stagings = {} if binding is None else binding.stagings
        for ls in loads:
            live[ls.node] = self._load_leaf(network, ls, assignment, cache, stagings.get(ls.node))
        if binding is None:
            _walk_steps(steps, live, stats, True)
        else:
            _run_bound(binding.suffixes[first], steps, live, stats)
            slots._resume = state

        if stats is not None:
            elapsed = time.perf_counter() - start
            stats.record_subtask_time(elapsed)
            stats.record_stage("execute", elapsed)
        return live, binding

    def _operand_dtypes(self, network: TensorNetwork, cache: Mapping[int, np.ndarray]) -> Tuple:
        """What keys a binding: the dtypes of what the walk reads from
        ``live`` — the cache entries, then the leaves as loaded."""
        cast = self._dtype
        loaded = (
            _leaf_data(network, ls.tid).dtype if cast is None else cast
            for ls in self._leaf_operands
        )
        return (*(cache[node].dtype for node in self._cache_operands), *loaded)

    def finish(
        self,
        network: TensorNetwork,
        folded: np.ndarray,
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats] = None,
    ) -> np.ndarray:
        """Run the tail once over ``folded``: the root's array.

        ``folded`` is a sum of :meth:`execute_array` contributions.
        Nothing above the :attr:`fold_node` depends on a sliced index, so
        ``sum_a tail(S(a)) == tail(sum_a S(a))`` and the tail's steps run
        once per run instead of once per subtask, with their
        slice-invariant operands taken from ``cache`` (warmed here if it
        is cold).  Their counts go to ``stats``.  Returns ``folded``
        itself on a plan that folds at its root.
        """
        fold = self._folds[-1]
        if not fold[2]:
            return folded
        if not self.cache_is_warm(cache):
            self.warm_cache(network, cache, stats)
        if stats is not None:  # (the tail's operands among the entries)
            stats.cache_hits += len(self._frontier) - len(self._subtask_frontier)
        return self._flush(fold, folded, cache, stats)

    def _flush(
        self,
        fold: Tuple,
        accumulator: np.ndarray,
        siblings: Mapping[int, np.ndarray],
        stats: Optional[PlanStats],
    ) -> np.ndarray:
        """Run ``fold``'s chain once over its ``accumulator`` in fresh arrays,
        its other operands taken from ``siblings`` as they are: the array at
        the chain's top (the next fold's node, or the root)."""
        node, _, chain, _ = fold
        live = {
            child: siblings[child]
            for step in chain
            for child in (step.lhs, step.rhs)
            if child in siblings
        }
        live[node] = accumulator
        _walk_steps(chain, live, stats, False)
        return live[chain[-1].node]

    # ------------------------------------------------------------------
    def _load_leaf(
        self,
        network: TensorNetwork,
        step: LeafStep,
        assignment: Optional[Mapping[str, int]],
        cache: Optional[Mapping[int, np.ndarray]] = None,
        staged: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The array a load or fetch yields: a view of its source when it can
        be, a copy into its arena region ``staged`` when it has one."""
        if step.tid is None:
            data = cache[step.node]  # type: ignore[index]
        else:
            data = _leaf_data(network, step.tid)
        if step.takes:
            index = list(step.index)
            for ix, axis in step.takes:
                index[axis] = assignment[ix]  # type: ignore[index]
            data = data[tuple(index)]
        if self._dtype is not None and step.tid is not None:
            # convert after slicing so the cast copies only the slice
            data = np.asarray(data, dtype=self._dtype)
        if step.stage is not None:
            if staged is None:
                data = _staged(data, step.stage)
            else:
                data = data.transpose(step.stage[0])
                np.copyto(staged.reshape(data.shape), data)
                data = staged
        return data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledPlan(steps={len(self._steps)}, "
            f"invariant={len(self._invariant_steps)}, "
            f"sliced={list(self._enumerated)})"
        )


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------
def compile_plan(
    network: TensorNetwork,
    tree: ContractionTree,
    sliced: AbstractSet[str] = frozenset(),
    dtype: Optional[np.dtype] = None,
) -> CompiledPlan:
    """Compile ``tree`` over ``network`` for a fixed slicing set.

    Parameters
    ----------
    network:
        The network whose leaf tensors will be contracted.  Only the index
        *structure* is baked into the plan; the numerical data is read fresh
        from the network at execution time.
    tree:
        Contraction tree whose ``leaf_tids`` refer to ``network``.
    sliced:
        The slicing set.  Every index in it is removed from the leaves; at
        execution time an assignment supplies the value of each one.
    dtype:
        Optional dtype override applied to every leaf at load time.
    """
    enumerated = frozenset(sliced)

    # derive the execution dtype from the concrete leaves when no
    # explicit override was given: arena and pre-calibration sizing
    # then follow the leaves (complex64 circuits run end-to-end
    # at half the working set) instead of assuming complex128
    derived_dtype: Optional[np.dtype] = None
    if dtype is None:
        # reduce pairwise over the distinct dtypes (np.result_type caps
        # its argument count at NPY_MAXARGS; leaf counts do not)
        for tid in tree.leaf_tids:
            data = network.tensor(tid).data
            if data is None:
                continue
            if derived_dtype is None:
                derived_dtype = data.dtype
            elif data.dtype != derived_dtype:
                derived_dtype = np.result_type(derived_dtype, data.dtype)

    # the sweep plan: the enumeration order (slowest-varying first — the
    # executors decode subtask ids in it), the open subtrees, which the
    # warm pass contracts once with the sliced indices reaching them left
    # on as axes, and the fold stack
    sweep = plan_folded_sweep(tree, enumerated)
    ordered, open_nodes = sweep.order, sweep.open_nodes
    levels = slice_dependency_levels(tree, ordered)
    carried: Set[int] = set()
    for node in reversed(tree.internal_nodes()):
        if node in open_nodes or node in carried:
            carried.add(node)
            carried.update(tree.children(node))  # type: ignore[arg-type]
    dependent = frozenset(
        node for node, level in levels.items() if level and node not in carried
    )

    orders: Dict[int, Tuple[str, ...]] = {}
    leaf_steps: List[LeafStep] = []
    for leaf, tid in enumerate(tree.leaf_tids):
        tensor = network.tensor(tid)
        if frozenset(tensor.indices) != tree.node_indices(leaf):
            raise PlanError(
                f"leaf {leaf} (tensor {tid}) carries indices "
                f"{sorted(tensor.indices)} but the tree expects "
                f"{sorted(tree.node_indices(leaf))}; recompile the plan "
                "against the current network"
            )
        leaf_steps.append(
            _load_step(
                leaf,
                tid,
                tensor.indices,
                frozenset() if leaf in carried else enumerated,
                levels[leaf],
            )
        )
        orders[leaf] = leaf_steps[-1].out_indices

    # frontier: roots of the maximal subtrees the warm pass contracts
    # (invariant or open) — the nodes whose tensors the cache retains
    frontier: Set[int] = set()
    for node in tree.internal_nodes():
        if node in dependent:
            for child in tree.children(node):  # type: ignore[union-attr]
                if child not in dependent:
                    frontier.add(child)
    if tree.root not in dependent:
        # the whole tree is invariant (empty enumerated set): the cache
        # retains the root itself
        frontier.add(tree.root)

    size = tree.index_size
    # one record of ContractStep fields per internal node, in node order;
    # the steps are built from them once the staging pass has edited them
    specs: List[Dict[str, Any]] = []
    # equal shape and permutation tuples share one object: a plan's steps
    # repeat a handful of them, and the plan sits in every sweep's footprint
    shared_tuples: Dict[Tuple, Tuple] = {}

    def share(value: Tuple) -> Tuple:
        return shared_tuples.setdefault(value, value)

    fetches: List[LeafStep] = []
    for node in tree.internal_nodes():
        lhs, rhs = tree.children(node)  # type: ignore[misc]
        a_ixs, b_ixs = orders[lhs], orders[rhs]
        a_set, b_set = set(a_ixs), set(b_ixs)
        fixed = frozenset() if node in carried else enumerated
        out_set = {ix for ix in tree.node_indices(node) if ix not in fixed}

        shared = a_set & b_set
        contracted = [ix for ix in a_ixs if ix in shared and ix not in out_set]
        kept_shared = [ix for ix in a_ixs if ix in shared and ix in out_set]
        solo_summed = [
            ix for ix in (*a_ixs, *b_ixs) if ix not in shared and ix not in out_set
        ]
        out_order = [ix for ix in a_ixs if ix in out_set] + [
            ix for ix in b_ixs if ix in out_set and ix not in a_set
        ]

        spec: Dict[str, Any] = {}
        if not kept_shared and not solo_summed:
            kind = "tensordot"
            # the explicit transpose → reshape → dot layout: the kept axes
            # of each operand around the contracted block — np.tensordot's
            # own order, so the GEMM output needs no transpose
            m_ixs = [ix for ix in a_ixs if ix in out_set]
            n_ixs = [ix for ix in b_ixs if ix in out_set]
            lhs_perm = share(tuple(a_ixs.index(ix) for ix in (*m_ixs, *contracted)))
            rhs_perm = share(tuple(b_ixs.index(ix) for ix in (*contracted, *n_ixs)))
            spec["lhs_perm"] = lhs_perm
            spec["rhs_perm"] = rhs_perm
            m, k, n = (math.prod(size(ix) for ix in group) for group in (m_ixs, contracted, n_ixs))
            spec["shapes"] = share((share((m, k)), share((k, n)), share((m, n))))
            spec["lhs_identity"] = lhs_perm == tuple(range(len(a_ixs)))
            spec["rhs_identity"] = rhs_perm == tuple(range(len(b_ixs)))
            out_order = [*m_ixs, *n_ixs]
        else:
            kind = "einsum"
            # integer axis labels (einsum's interleaved form): unlike spec
            # strings these are not limited to 52 ASCII symbols
            labels: Dict[str, int] = {}

            def label(ix: str) -> int:
                return labels.setdefault(ix, len(labels))

            spec["sub_lhs"] = tuple(label(ix) for ix in a_ixs)
            spec["sub_rhs"] = tuple(label(ix) for ix in b_ixs)
            spec["sub_out"] = tuple(label(ix) for ix in out_order)

        orders[node] = tuple(out_order)
        spec.update(
            node=node,
            lhs=lhs,
            rhs=rhs,
            kind=kind,
            out_indices=orders[node],
            out_shape=share(tuple(size(ix) for ix in out_order)),
            level=0 if node in carried else levels[node],
            free_cached=tuple(
                c for c in (lhs, rhs) if node in carried or levels[c] == levels[node]
            ),
            log2_flops=tree.node_log2_flops(node, fixed),
        )
        specs.append(spec)
        if node in carried and node in frontier and levels[node]:
            # an open root: its consumer sees, per subtask, a view of the
            # cache entry with the sliced indices fixed
            fetches.append(
                _load_step(node, None, orders[node], enumerated, levels[node])
            )
            orders[node] = fetches[-1].out_indices

    _stage_at_producers(specs, leaf_steps, fetches, size)
    steps = [ContractStep(**spec) for spec in specs]
    del specs

    out_order = orders[tree.root]
    itemsize = _arena_dtype(derived_dtype if dtype is None else dtype).itemsize
    arena_bytes, accumulator = _lay_out(tree, steps, leaf_steps, fetches, sweep.folds, itemsize)
    plan = CompiledPlan(
        tree=tree,
        enumerated=ordered,
        dtype=np.dtype(dtype) if dtype is not None else None,
        leaf_steps=tuple(leaf_steps),
        fetches=tuple(fetches),
        steps=tuple(steps),
        frontier=frozenset(frontier),
        dependent=dependent,
        out_indices=out_order,
        out_sizes={ix: tree.index_size(ix) for ix in out_order},
        derived_dtype=derived_dtype,
        arena_bytes=arena_bytes,
        # (the outermost fold's accumulator is the sweep loops')
        folds=[(node, level, accumulator if level else None) for node, level in sweep.folds],
    )
    if logger.isEnabledFor(logging.DEBUG):
        _log_sweep_plan(plan, open_nodes, carried, sweep)
    return plan


def _stage_at_producers(
    specs: List[Dict[str, Any]],
    leaf_steps: List[LeafStep],
    fetches: List[LeafStep],
    size: Callable[[str], int],
) -> None:
    """Move each GEMM operand's permutation to a producer that runs less often.

    Edits the step records, leaf loads and fetches in place.  An operand
    whose producer has a lower level than its (GEMM) consumer — a frontier
    entry, an open root, a retained partial or leaf load — is staged by
    the producer: the consumer's ``*_perm`` becomes ``None`` and the
    producer's ``stage`` takes the permutation and the consumer's operand
    shape.  An open root additionally moves the sliced axes it carries to
    the front, and its fetch takes them there, so the fetched view is the
    contiguous operand.  Einsum consumers keep their operands as they are.
    """
    num_leaves = len(leaf_steps)
    fetch_at = {fetch.node: position for position, fetch in enumerate(fetches)}
    for spec in specs:
        if spec["kind"] == "einsum":
            continue
        for side, shape in zip(("lhs", "rhs"), spec["shapes"]):
            child = spec[side]
            # (internal node ids follow the leaves, in step order)
            if child < num_leaves:
                level = leaf_steps[child].level
            else:
                level = specs[child - num_leaves]["level"]
            if level >= spec["level"]:
                continue
            perm = spec[side + "_perm"]
            spec[side + "_perm"], spec[side + "_identity"] = None, True
            if child in fetch_at:
                fetch = fetches[fetch_at[child]]
                taken = [axis for _, axis in fetch.takes]
                rest = [a for a in range(len(fetch.source_indices)) if a not in taken]
                moved = (*taken, *(rest[p] for p in perm))
                specs[child - num_leaves]["stage"] = (
                    moved,
                    (*(size(ix) for ix, _ in fetch.takes), *shape),
                )
                fetches[fetch_at[child]] = LeafStep(
                    node=child,
                    tid=None,
                    takes=tuple((ix, axis) for axis, (ix, _) in enumerate(fetch.takes)),
                    out_indices=tuple(fetch.out_indices[p] for p in perm),
                    source_indices=tuple(fetch.source_indices[a] for a in moved),
                    level=fetch.level,
                )
            elif child < num_leaves:
                leaf_steps[child] = replace(leaf_steps[child], stage=(perm, shape))
            else:
                specs[child - num_leaves]["stage"] = (perm, shape)


#: Byte alignment of every arena region (a cache line).
_ALIGN = 64


def _arena_dtype(dtype: Optional[np.dtype]) -> np.dtype:
    """The dtype a plan's regions are sized and viewed in: the plan's, or
    complex128 when every leaf was abstract at compile time."""
    return np.dtype(np.complex128 if dtype is None else dtype)


def _strided(load: Optional[LeafStep]) -> bool:
    """Whether a load's view is strided: a taken axis follows a kept one."""
    return load is not None and any(axis != i for i, (_, axis) in enumerate(load.takes))


def _fold_chains(tree: ContractionTree, nodes: Sequence[int]) -> List[FrozenSet[int]]:
    """The chain of every fold of a stack, innermost first: the nodes above
    its node up to the next fold's node, or to the root."""
    chains = []
    for node, top in zip(nodes, (*nodes[1:], tree.root)):
        path = tree.path_to_root(node)
        chains.append(frozenset(path[1 : path.index(top) + 1]))
    return chains


def _lay_out(
    tree: ContractionTree,
    steps: List[ContractStep],
    leaf_steps: List[LeafStep],
    fetches: Sequence[LeafStep],
    folds: Sequence[Tuple[int, int]],
    itemsize: int,
) -> Tuple[int, Optional[Region]]:
    """Give every buffer a cached subtask writes an arena offset: the arena's
    bytes and the block accumulator's region.

    Walks the dependent part below the fold stack as the executor does — the
    loads of level ``>= 1``, then the steps — on a clock that ticks per
    operand copy, GEMM and staging, freeing exactly as :func:`_walk_steps`
    frees.  A region is born at the tick that writes it and dies at its
    last reader's: a GEMM operand copy (a real transpose, or an identity
    load whose taken axes do not lead) at the GEMM; a GEMM output at its
    staging or its consumer; a staged copy (a producer-side ``stage``, a
    leaf load staged through a permutation) at its consumer.  An operand
    that is copied dies at its copy, so the output can reuse its bytes.
    What the walk leaves alive is the fold node's array, which lives to the
    end of the subtask, and the retained partials, pinned for the whole
    sweep: a resumed subtask re-runs a suffix of the walk, whose steps must
    not overwrite them.  With an inner fold the walk ends at its node and
    the flush follows on the same clock: the chain up to the fold node
    over the block accumulator, pinned like a retained partial, and the
    chain siblings, which it reads as they are.  The inner node's array
    lives to the flush's end: a resumed subtask that changes nothing below
    it adds it again.

    Offsets come from greedy first-fit at :data:`_ALIGN` bytes over three
    orders — by size (equal sizes earliest- or latest-born first) and by
    birth — keeping the smallest arena; all are sorted lists, so the
    layout never depends on hash order.  Edits ``steps`` and ``leaf_steps``
    in place (their ``regions`` / ``region``).
    """
    fold = folds[-1][0]
    chains = _fold_chains(tree, [node for node, _ in folds])
    folded = frozenset().union(*chains)
    loads = {ls.node: ls for ls in (*leaf_steps, *fetches) if ls.level}
    #: per region ``[(list, position, index), birth, death, elements]``:
    #: list 0 is ``leaf_steps`` (index 0), list 1 ``steps`` (the index into
    #: :attr:`ContractStep.regions`), list 2 the block accumulator
    regions: List[List] = []
    holder: Dict[int, int] = {}  # node -> the region its live array sits in

    def born(owner: Tuple[int, int, int], tick: int, elements: int) -> int:
        regions.append([owner, tick, None, elements])
        return len(regions) - 1

    def dies(node: int, tick: int) -> None:
        index = holder.pop(node, None)
        if index is not None:
            regions[index][2] = tick

    def run(position: int, step: ContractStep, frees: Tuple[int, ...]) -> None:
        nonlocal tick
        gemm = tick + 3
        if step.shapes is not None:
            sides = (
                (step.lhs, step.lhs_perm, step.lhs_identity),
                (step.rhs, step.rhs_perm, step.rhs_identity),
            )
            for side, (child, perm, identity) in enumerate(sides):
                tick += 1
                if perm is not None and (not identity or _strided(loads.get(child))):
                    copy = born((1, position, side), tick, math.prod(step.shapes[side]))
                    regions[copy][2] = gemm
                    if child in frees:
                        dies(child, tick)
        tick = gemm
        for child in frees:
            dies(child, tick)
        if step.shapes is not None:
            holder[step.node] = born((1, position, 2), tick, math.prod(step.shapes[2]))
        if step.stage is not None:
            tick += 1
            dies(step.node, tick)
            holder[step.node] = born((1, position, 3), tick, math.prod(step.stage[1]))

    for position, ls in enumerate(leaf_steps):
        if ls.level and ls.stage is not None:
            if ls.stage[0] != tuple(range(len(ls.stage[0]))) or _strided(ls):
                holder[ls.node] = born((0, position, 0), 0, math.prod(ls.stage[1]))
    tick = 0
    for position, step in enumerate(steps):
        if step.level and step.node not in folded:
            run(position, step, step.free_cached)
    if len(folds) > 1:
        inner, chain = folds[0][0], chains[0]
        # the inner node's array is added into the accumulator, and read
        # again by a later subtask that changes nothing below it: it lives
        # through the flush, whose buffers must not take its bytes
        walked = holder.pop(inner, None)
        shape = steps[inner - len(leaf_steps)].out_shape
        holder[inner] = born((2, 0, 0), 0, math.prod(shape))
        tick += 1
        for position, step in enumerate(steps):
            if step.node in chain:
                run(position, step, tuple(c for c in (step.lhs, step.rhs) if c in chain))
        if walked is not None:
            regions[walked][2] = tick + 1
    for node, index in holder.items():
        regions[index][2] = tick + 1
        if node != fold:
            regions[index][1] = 0  # a retained partial: pinned for the sweep

    sizes = [region[3] * itemsize for region in regions]
    indices = range(len(regions))
    orders = (
        sorted(indices, key=lambda r: (-sizes[r], regions[r][1], r)),
        # (equal sizes latest-born first: on small_subtasks this one packs
        # three equal columns where earliest-born-first needs a fourth)
        sorted(indices, key=lambda r: (-sizes[r], -regions[r][1], r)),
        sorted(indices, key=lambda r: (regions[r][1], -sizes[r], r)),
    )
    top, offsets = min(
        (_first_fit(regions, sizes, order) for order in orders), key=lambda fit: fit[0]
    )
    placed: Dict[Tuple[int, int], List[Optional[Region]]] = {}
    for ((which, position, index), _, _, elements), offset in zip(regions, offsets):
        placed.setdefault((which, position), [None] * 4)[index] = (offset, elements)
    accumulator = placed.pop((2, 0), [None])[0]
    for (which, position), found in placed.items():
        if which:
            steps[position] = replace(steps[position], regions=tuple(found))
        else:
            leaf_steps[position] = replace(leaf_steps[position], region=found[0])
    return top, accumulator


def _first_fit(
    regions: Sequence[List], sizes: Sequence[int], order: Sequence[int]
) -> Tuple[int, List[int]]:
    """Place ``regions`` in ``order``, each at the lowest aligned offset free
    over its lifetime: ``(arena bytes, offset per region)``."""
    placed: List[Tuple[int, int, int, int]] = []  # (birth, death, start, stop)
    offsets = [0] * len(regions)
    top = 0
    for r in order:
        birth, death, nbytes = regions[r][1], regions[r][2], sizes[r]
        offset = 0
        for start, stop in sorted((s, e) for b, d, s, e in placed if b <= death and birth <= d):
            if offset + nbytes <= start:
                break
            if stop > offset:
                offset = -(-stop // _ALIGN) * _ALIGN
        placed.append((birth, death, offset, offset + nbytes))
        offsets[r] = offset
        top = max(top, offset + nbytes)
    return top, offsets


def _load_step(
    node: int,
    tid: Optional[int],
    source_indices: Tuple[str, ...],
    fixed: AbstractSet[str],
    level: int,
) -> LeafStep:
    """The load of ``node`` from a source laid out as ``source_indices``,
    with the indices in ``fixed`` taken per subtask (level 0 when none is)."""
    takes = tuple(
        (ix, axis) for axis, ix in enumerate(source_indices) if ix in fixed
    )
    return LeafStep(
        node=node,
        tid=tid,
        takes=takes,
        # (nothing taken: the source's own tuple, not a copy of it)
        out_indices=(
            tuple(ix for ix in source_indices if ix not in fixed)
            if takes
            else source_indices
        ),
        source_indices=source_indices,
        level=level if takes else 0,
    )


def _log_sweep_plan(
    plan: CompiledPlan,
    open_nodes: AbstractSet[int],
    carried: AbstractSet[int],
    sweep: SweepPlan,
) -> None:
    """The per-compile ``DEBUG`` line: the chosen sweep beside label order,
    and the fold stack — the inner fold taken, or the product of the
    candidate refused, or the least lower bound when none was worth
    searching."""
    tree = plan.tree
    *inner, (fold, _, tail, _) = plan._folds
    cost = plan.sweep_cost()
    per_level: Dict[int, int] = {}
    for step in plan.contract_steps:
        if step.level:
            per_level[step.level] = per_level.get(step.level, 0) + 1
    itemsize = np.dtype(plan.dtype or np.complex128).itemsize
    label_steps, label_work, label_held = sweep.ceiling
    threshold = max(
        (math.prod(map(tree.index_size, tree.node_indices(n))) for n in carried),
        default=0,
    )
    logger.debug(
        "compiled %d steps, %d dependent: sweep order %s, %d open nodes under "
        "threshold %d (%d fetches); a full sweep runs %d steps / %.4g flops / "
        "%d resident bytes (label order, nothing open: %d / %.4g / %d), "
        "retains %d partials / %d bytes, steps per level %s, "
        "stagings per sweep: %d (per-use layout: %d); folds at node %d "
        "(%d bytes); tail of %d steps runs once per run; %s; arena of %d bytes",
        len(plan.contract_steps),
        sum(per_level.values()),
        list(plan.sliced),
        len(open_nodes),
        threshold,
        len(plan.fetches),
        cost.steps,
        cost.flops,
        cost.cache_bytes + cost.retained_bytes,
        label_steps,
        float(label_work),
        itemsize * label_held,
        len(plan.retained_nodes),
        cost.retained_bytes,
        dict(sorted(per_level.items())),
        cost.stagings + cost.producer_stagings,
        2 * sum(
            count
            for step, count in zip(plan.contract_steps, plan._step_runs())
            if step.shapes is not None
        ),
        fold,
        cost.fold_bytes,
        len(tail),
        (
            f"inner fold at node {inner[0][0]} over positions > "
            f"{inner[0][1]} ({inner[0][3][1] * itemsize} "
            f"bytes, product {sweep.product:.3g})"
            if inner
            else "no inner fold"
            + (
                ""
                if sweep.product is None
                else f" (product {'>= ' if sweep.bound else ''}{sweep.product:.3g})"
            )
        ),
        plan.arena_bytes,
    )
