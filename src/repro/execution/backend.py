"""Pluggable execution backends: *what* to contract vs *how* to run it.

The paper's process-level strategy farms the ``prod w(e)`` slicing subtasks
across workers while keeping each worker's footprint under the memory
target.  Which *scheduling substrate* runs the subtasks — in-process serial,
a thread pool, a process pool — is orthogonal to the compiled plan that
describes them, so this module separates the two behind a small protocol
(the split used by engines such as QTensor's backend objects):

``ExecutionBackend.run_subtasks(plan, network, assignments, ...)`` executes
one :class:`~repro.execution.plan.CompiledPlan` for every assignment in the
given order and returns the accumulated result tensor.

Every backend honours the same **ordered-accumulation contract**: the
contributions of the plan's blocks
(:meth:`~repro.execution.plan.CompiledPlan.blocks` — one subtask each
unless the plan folds inside) are summed strictly in assignment order, and
no chunk splits a block, so all backends — any worker count, any chunk
size — produce **bit-identical** results.  The parallel backends exploit
this by shipping per-block contributions back to the caller (cheap: a
contribution is the plan's fold-node array, no larger than the resident
budget left it; the expensive part is the contraction) and folding them in
order.  The caller then runs the plan's slice-invariant tail once over the
sum (:meth:`~repro.execution.plan.CompiledPlan.finish`).

Backends:

* :class:`SerialBackend` — in-process loop; the baseline substrate.
* The executors' default (:func:`resolve_backend` with ``None``,
  :class:`_HandOffBackend`) — the serial loop until block 1 shows that
  forked twins pay for the rest, then the rest split into contiguous
  ranges between the parent and the twins (:class:`_RangeCrew`), their
  rows folded in position order; inside a session the twins stay forked
  across runs (:class:`_CrewSession`).
* :class:`ThreadPoolBackend` — ``concurrent.futures`` threads over subtask
  chunks; numpy releases the GIL inside the contraction kernels, so this
  wins for few large subtasks.
* :class:`SharedMemoryProcessPoolBackend` — children forked once the
  slice-invariant cache is warm (:class:`ExecutionSession`), so each
  inherits the plan, the leaves and the cache copy-on-write and nothing is
  shipped but the chunks; the parent sweeps its own range beside them and
  the children's contributions come back through memory the processes
  share.  This sidesteps the interpreter entirely and wins for many small
  subtasks whose per-task Python overhead would serialize a thread pool.
* :class:`~repro.execution.distributed.DistributedBackend` (in
  :mod:`repro.execution.distributed`) — the multi-node generalization:
  subtask chunks stream over sockets to remote worker processes
  after a one-time plan/leaf/cache broadcast; also reachable through the
  ``"distributed"`` / ``"distributed:host:port,..."`` string specs of
  :func:`resolve_backend`.

The three chunked backends share one scheduler: ``run_subtasks`` cuts
the assignments into chunks and hands them to
:func:`repro.execution.resilience.run_chunks`, which drives the
backend's transport (:class:`LocalTransport`, :class:`ExecutionSession`,
:class:`~repro.execution.distributed.DistributedSession`) and owns every
retry, deadline, rebuild and degradation decision — see that module for
the recovery model.  :func:`execute_chunk` is the one chunk body all
worker kinds run.

Each worker (and each backend's serial loop) owns a private
:class:`~repro.execution.plan.StemSlots` for as long as it lives, so a
cached subtask writes every output and copy at its compile-time offset in
one arena instead of hitting the allocator once per step.
"""

from __future__ import annotations

import logging
import math
import mmap
import operator
import pickle
import select
import struct
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import forking
from ..tensornet.network import TensorNetwork
from ..tensornet.tensor import Tensor
from .checkpoint import CheckpointJob, payload_checksums
from .faultinject import (
    Directive,
    FaultInjector,
    apply_coordinator_directive,
    apply_directive,
    corrupt_payload,
)
from .plan import CompiledPlan, PlanStats, StemSlots
from .resilience import (
    FAIL_FAST,
    Chunk,
    ChunkResult,
    ChunkTransport,
    FaultPolicy,
    WorkerLost,
    run_chunks,
)

__all__ = [
    "ExecutionBackend",
    "ExecutionSession",
    "LocalTransport",
    "NullExecutionSession",
    "SerialBackend",
    "SharedMemoryProcessPoolBackend",
    "ThreadPoolBackend",
    "execute_chunk",
    "resolve_backend",
    "validate_execution_args",
]

_LOG = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Shared validation (SlicedExecutor, CorrelatedSampler)
# ----------------------------------------------------------------------
def _backend_from_spec(spec: str) -> "ExecutionBackend":
    """Build a backend from a string spec.

    ``"distributed"`` spawns the default localhost worker set;
    ``"distributed:hostA:9001,hostB:9001"`` connects to pre-started
    workers at the listed addresses (see
    :mod:`repro.execution.distributed`).  Imported lazily so the plain
    in-process backends never load the distributed machinery.
    """
    name, _, rest = spec.partition(":")
    if name == "distributed":
        from .distributed import DistributedBackend

        if not rest:
            return DistributedBackend()
        addresses = [entry.strip() for entry in rest.split(",") if entry.strip()]
        if not addresses:
            raise ValueError(f"backend spec {spec!r} lists no worker addresses")
        return DistributedBackend(addresses=addresses)
    raise ValueError(
        f"unknown backend spec {spec!r} (expected 'distributed' or "
        "'distributed:host:port,...'; in-process backends are passed as "
        "instances)"
    )


def validate_execution_args(
    mode: str,
    backend: Union["ExecutionBackend", str, None] = None,
) -> None:
    """Validate the mode/backend combination uniformly.

    Every entry point (sliced executor, tree executor, sampler, planner)
    funnels through this so that the reference mode rejects a backend
    with the same ``ValueError`` everywhere.  String backend specs are
    validated by building the backend they name (construction is lazy: no
    worker is spawned until the first run).
    """
    if mode not in ("compiled", "reference"):
        raise ValueError(f"unknown execution mode {mode!r}")
    if isinstance(backend, str):
        backend = _backend_from_spec(backend)
    if mode == "reference" and backend is not None:
        raise ValueError("backend requires the compiled mode")


def resolve_backend(
    backend: Union["ExecutionBackend", str, None] = None,
) -> "ExecutionBackend":
    """Resolve ``backend=`` to a backend instance.

    ``None`` gives the executors' default, :class:`_HandOffBackend`: serial
    until a timed block shows that forked twins pay for the rest.

    ``backend`` may be a string spec: ``"distributed"`` builds a
    :class:`~repro.execution.distributed.DistributedBackend` spawning the
    default localhost worker set, and ``"distributed:host:port,..."`` one
    connecting to pre-started workers at the listed addresses.
    """
    if backend is None:
        return _HandOffBackend()
    if isinstance(backend, str):
        backend = _backend_from_spec(backend)
    return backend


# ----------------------------------------------------------------------
# Helpers shared by the backends and the pool workers
# ----------------------------------------------------------------------
def _owned_contribution(data: np.ndarray) -> np.ndarray:
    """A contribution buffer the caller may keep and mutate.

    The plan's output may alias the invariant cache or the worker's arena,
    so it is copied out.
    """
    return np.array(data, copy=True)


def execute_chunk(
    plan: CompiledPlan,
    network: TensorNetwork,
    cache: Dict[int, np.ndarray],
    slots: StemSlots,
    items: Chunk,
) -> ChunkResult:
    """Execute one chunk: ``(contributions, crc32s, stats)``.

    The one chunk body every worker kind runs — pool threads, pool
    children, socket workers and the degradation chain.  An item is
    one block (:meth:`~repro.execution.plan.CompiledPlan.blocks`) and
    contributes one array.  The CRC-32s are computed here, where the chunk
    was executed, so the coordinator can verify the payload survived the
    trip back intact (:func:`~repro.execution.checkpoint.verify_payload`).
    """
    contributions, stats = _chunk_contributions(plan, network, cache, slots, items)
    return contributions, payload_checksums(contributions), stats


def _chunk_contributions(
    plan: CompiledPlan,
    network: TensorNetwork,
    cache: Dict[int, np.ndarray],
    slots: StemSlots,
    items: Chunk,
) -> Tuple[List[np.ndarray], PlanStats]:
    """One chunk's owned contributions and stats.  The chunk is one resumed
    sweep on the worker's arena: consecutive subtasks recontract only what
    their changed indices reach, and no state outlives the chunk."""
    stats = PlanStats()
    with slots.sweep():
        contributions = [
            _owned_contribution(plan.execute_block(network, block, cache, stats, slots))
            for _, block in items
        ]
    return contributions, stats


def _result_tensor(plan: CompiledPlan, accumulated: np.ndarray) -> Tensor:
    """Wrap the finished array with the plan's indices."""
    return Tensor(plan.out_indices, data=accumulated, sizes=plan.out_sizes)


def _swept_blocks(
    plan: CompiledPlan,
    network: TensorNetwork,
    assignments: Iterable[Mapping[str, int]],
    cache: Dict[int, np.ndarray],
    stats: Optional[PlanStats],
    slots: StemSlots,
    start: int = 0,
    stop: Optional[int] = None,
    checkpoint: Optional[CheckpointJob] = None,
    injector: Optional[FaultInjector] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Blocks ``[start, stop)`` of ``assignments`` as one resumed sweep on
    ``slots``: ``(position, contribution)`` in position order, the blocks cut
    lazily, never listed.  A contribution may alias the invariant cache or
    the arena, so it holds only until the next one is drawn (:func:`_folded`
    takes an owned copy).  The one ordered loop of the serial backend, of
    both halves of a split sampling batch and of every range of the
    default's crew (:class:`_RangeCrew`).  ``assignments`` are read from
    their first (cutting a block reads one assignment past it, so an
    iterator shared between calls would lose that one).

    With a ``checkpoint`` ledger a slot is one block: slots persisted by a
    previous (interrupted) run come from the ledger instead of being
    executed — skipped slots are just gaps in the resumed sweep, which
    compares assignments by value — and freshly computed slots are recorded
    *before* they are yielded.  Each computed slot is one harvest ordinal
    for an armed injector's coordinator-side faults.
    """
    blocks = islice(plan.blocks(assignments), start, stop)
    with slots.sweep():
        for position, block in enumerate(blocks, start):
            # (the loop keeps no reference to the contribution it yields)
            yield position, (
                plan.execute_block(network, block, cache, stats, slots)
                if checkpoint is None
                else _checkpointed_block(
                    plan, network, position, block, cache, stats, slots, checkpoint, injector
                )
            )


def _checkpointed_block(
    plan: CompiledPlan,
    network: TensorNetwork,
    position: int,
    block: List[Mapping[str, int]],
    cache: Dict[int, np.ndarray],
    stats: Optional[PlanStats],
    slots: StemSlots,
    checkpoint: CheckpointJob,
    injector: Optional[FaultInjector],
) -> np.ndarray:
    """Block ``position``'s contribution from the ledger, or computed and
    recorded."""
    data = checkpoint.loaded.get(position)
    if data is None:
        data = plan.execute_block(network, block, cache, stats, slots)
        checkpoint.record(position, data)
        if injector is not None:
            apply_coordinator_directive(injector.coordinator_directive_for_next_harvest())
    return data


def _folded(accumulated: Optional[np.ndarray], data: np.ndarray) -> np.ndarray:
    """The serial loop's addition: an owned copy of the first contribution,
    which may alias the invariant cache or the arena (both overwritten by
    later subtasks), then ``+=`` each next one."""
    if accumulated is None:
        return _owned_contribution(data)
    accumulated += data
    return accumulated


def _serial_accumulate(
    plan: CompiledPlan,
    network: TensorNetwork,
    assignments: Sequence[Mapping[str, int]],
    cache: Dict[int, np.ndarray],
    stats: Optional[PlanStats],
    slots: StemSlots,
    checkpoint: Optional[CheckpointJob] = None,
    injector: Optional[FaultInjector] = None,
) -> np.ndarray:
    """In-order, in-process accumulation — the reduction all backends match.

    The loop is :func:`_swept_blocks` folded by :func:`_folded`; position
    order is the same with a ledger or without, so the result is
    bit-identical to the ledger-free loop.
    """
    accumulated: Optional[np.ndarray] = None
    for _, data in _swept_blocks(
        plan, network, assignments, cache, stats, slots, 0, None, checkpoint, injector
    ):
        accumulated = _folded(accumulated, data)
    assert accumulated is not None
    return accumulated


def _block_count(plan: CompiledPlan, assignments: Sequence[Mapping[str, int]]) -> int:
    """How many blocks :meth:`~repro.execution.plan.CompiledPlan.blocks`
    cuts ``assignments`` into: counted, never listed."""
    if plan.inner_fold is None:
        return len(assignments)
    return sum(1 for _ in plan.blocks(assignments))


def _even_chunks(blocks: List[List], count: int) -> List[List]:
    """Positioned chunks of whole ``blocks``, at most ``count``: block ``p``
    goes to chunk ``count * s // total``, ``s`` the subtasks before it, so
    chunks of equal blocks differ by at most one block."""
    total = sum(map(len, blocks))
    chunks: List[List] = [[] for _ in range(count)]
    done = 0
    for position, block in enumerate(blocks):
        chunks[done * count // total].append((position, block))
        done += len(block)
    return [chunk for chunk in chunks if chunk]


def _chunked(blocks: List[List], chunk_size: int) -> List[List]:
    """Positioned chunks of whole ``blocks``: each takes blocks in order
    until it holds ``chunk_size`` subtasks or more (``chunk_size`` blocks
    where a block is one subtask)."""
    chunks: List[List] = []
    held = chunk_size
    for position, block in enumerate(blocks):
        if held >= chunk_size:
            chunks.append([])
            held = 0
        chunks[-1].append((position, block))
        held += len(block)
    return chunks


class NullExecutionSession:
    """No-op stand-in for :class:`ExecutionSession` on poolless backends.

    In-process backends have no pool to keep alive, so their :meth:`ExecutionBackend.session` returns this object:
    a context manager with the same idempotent :meth:`close` surface,
    letting callers write one session-scoped loop for every backend.
    """

    def __init__(self, backend: Optional["ExecutionBackend"] = None) -> None:
        self._backend = backend
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Idempotent no-op close."""
        self._closed = True

    def reset(self) -> None:
        """No resident state to drop."""

    def __enter__(self) -> "NullExecutionSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NullExecutionSession(backend={self._backend!r})"


class ExecutionBackend:
    """Protocol for subtask scheduling substrates.

    A backend executes a compiled plan over a sequence of slicing
    assignments and returns the accumulated result.  Implementations must
    sum contributions strictly in assignment order (the ordered-accumulation
    contract) so that every backend is bit-identical to
    :class:`SerialBackend`.

    Backends are reusable across runs and executors but are not safe for
    *concurrent* ``run_subtasks`` calls on the same instance.  Backends
    with resident state (the process pool, the distributed cluster) expose it
    through :meth:`session`; the base implementations below make session
    scoping a no-op everywhere else, so callers can uniformly write::

        with backend.session(plan, network, cache):
            for batch in batches:
                backend.run_subtasks(plan, network, batch, cache=cache)

    Fault handling is policy-driven, opt-in and run-scoped: pass a
    :class:`~repro.execution.resilience.FaultPolicy` (and, for tests, a
    :class:`~repro.execution.faultinject.FaultInjector`) to
    :meth:`run_subtasks` — which is what the executors' ``fault_policy=`` /
    ``fault_injector=`` arguments do, so a shared backend is never
    reconfigured behind another caller's back.  Without a policy every
    backend fails fast.  :mod:`repro.execution.resilience` describes the
    recovery model and why recovered runs stay bit-identical.
    """

    #: Short name used in benchmark tables and reprs.
    name = "base"

    def session(
        self,
        plan: Optional[CompiledPlan] = None,
        network: Optional[TensorNetwork] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        stats: Optional[PlanStats] = None,
    ):
        """Open (or reuse) this backend's persistent execution session.

        The in-process backends hold no resident scheduling state, so the
        base implementation pre-warms the invariant cache (when a plan,
        its network and its cache are supplied) and returns a
        :class:`NullExecutionSession`.
        :class:`SharedMemoryProcessPoolBackend` overrides this with a real
        :class:`ExecutionSession` that keeps the pool's forked children
        alive across ``run_subtasks`` calls.
        """
        if plan is not None:
            self.warm(plan, network, cache, stats)
        return NullExecutionSession(self)

    def close(self) -> None:
        """Release resident backend state (idempotent; no-op by default)."""

    def reset_session(self) -> None:
        """Invalidate the active session's resident state, if any."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def run_subtasks(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> Optional[Tensor]:
        """Execute ``plan`` for every assignment and sum the results.

        Parameters
        ----------
        plan:
            The compiled plan (shared, read-only).
        network:
            The concrete network the plan was compiled against.
        assignments:
            Slicing assignments, one per subtask, in accumulation order.
        cache:
            The slice-invariant cache.  Warmed here (in the caller's
            process) if cold, so pool workers always receive it warm and
            every invariant contraction still runs exactly once.
        stats:
            Optional counters; worker-local stats are merged in.
        policy / injector:
            Run-scoped fault policy (``None``: fail-fast) and fault
            injector (``None``: no injection) — see
            :mod:`repro.execution.resilience`.
        checkpoint:
            Optional open :class:`~repro.execution.checkpoint.CheckpointJob`
            (the durable chunk ledger).  Ordered slots it already holds —
            persisted by a previous, interrupted run — are folded from
            disk instead of re-executed, and every slot harvested by this
            run is write-ahead-recorded before the final fold, so a
            coordinator crash at any point leaves a resumable ledger.
            ``None`` (the default) is the ledger-free hot path.

        Returns the accumulated :class:`Tensor` (a fresh buffer owned by
        the caller), or ``None`` when ``assignments`` is empty.
        """
        raise NotImplementedError

    def warm(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
    ) -> None:
        """Warm the invariant cache once, in the calling process."""
        if not plan.cache_is_warm(cache):
            plan.warm_cache(network, cache, stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every subtask in the calling thread, in order."""

    name = "serial"

    def __init__(self) -> None:
        self._slots = StemSlots()

    def run_subtasks(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> Optional[Tensor]:
        # policy is accepted for protocol uniformity: the serial substrate
        # has no workers to crash or chunks to time out.  The injector only
        # matters for coordinator-side faults on the checkpointed path.
        if not assignments:
            return None
        self.warm(plan, network, cache, stats)
        if checkpoint is not None:
            checkpoint.require_slot_shape(plan.contribution_shape)
        accumulated = self._accumulate(
            plan, network, assignments, cache, stats, checkpoint, injector
        )
        return _result_tensor(plan, plan.finish(network, accumulated, cache, stats))

    def _accumulate(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
        checkpoint: Optional[CheckpointJob],
        injector: Optional[FaultInjector],
    ) -> np.ndarray:
        return _serial_accumulate(
            plan, network, assignments, cache, stats, self._slots, checkpoint, injector
        )


class _HandOffBackend(SerialBackend):
    """The executors' default (:func:`resolve_backend` with ``None``): serial
    until block 1, the first warm one, shows that forked twins pay for the
    rest — then the rest is split with them.

    The rule is :func:`repro.forking.pool_pays` plus no native thread (a
    multi-threaded BLAS already has the cores).  The parent then forks
    ``P - 1`` twins (:class:`_RangeCrew`), cuts the blocks after block 1 into
    ``P`` contiguous ranges in sweep order, sweeps the leading one itself on
    the arena it keeps while each twin sweeps one of the others, and adds
    every contribution to its running sum in position order — the
    additions the serial loop performs, so the bits are serial's.  A run
    with a checkpoint ledger or a fault injector stays one ordered loop.

    Outside a session the twins live for one run.  Inside :meth:`session`
    (a :class:`_CrewSession`) they stay forked across runs, so every later
    run is split from its first block, and runs too short to pay one by one
    add up their seconds until the session forks a crew for the next.
    """

    def __init__(self) -> None:
        super().__init__()
        self._session: Optional[_CrewSession] = None

    def run_subtasks(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> Optional[Tensor]:
        result = super().run_subtasks(
            plan, network, assignments, cache, stats, policy, injector, checkpoint
        )
        session = self._session
        if session is not None and session.crew is not None:
            session.crew.pin(plan, network, cache)
        return result

    def session(
        self,
        plan: Optional[CompiledPlan] = None,
        network: Optional[TensorNetwork] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        stats: Optional[PlanStats] = None,
    ) -> "_CrewSession":
        """Open (or reuse) the session the crew lives in; opening forks nothing."""
        if plan is not None:
            self.warm(plan, network, cache, stats)
        session = self._session
        if session is None or session.closed:
            session = self._session = _CrewSession(self)
        return session

    def close(self) -> None:
        session, self._session = self._session, None
        if session is not None:
            session.close()

    def reset_session(self) -> None:
        if self._session is not None:
            self._session.drop()

    def warm(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
    ) -> None:
        # a crew pins what it was forked from: drop a stale one before a
        # re-warm allocates the new cache beside the old
        session = self._session
        if session is not None and session.crew is not None:
            if not session.crew.holds(plan, network, cache):
                session.drop()
        super().warm(plan, network, cache, stats)

    def _accumulate(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
        checkpoint: Optional[CheckpointJob],
        injector: Optional[FaultInjector],
    ) -> np.ndarray:
        if checkpoint is not None or injector is not None:
            # every slot is recorded, or counted as a harvest, in order
            return super()._accumulate(
                plan, network, assignments, cache, stats, checkpoint, injector
            )
        session = self._session
        if session is not None and not session.closed:
            return session.accumulate(plan, network, assignments, cache, stats)
        with _CrewSession(self, resident=False) as scratch:
            return scratch.accumulate(plan, network, assignments, cache, stats)


class _RangeCrew:
    """``P - 1`` forked twins (:class:`repro.forking.Twin`) of the warm parent
    and the anonymous mapping, made before the fork, they answer in.

    A split run's blocks from ``first`` on are cut into ``P`` contiguous
    ranges in sweep order (:meth:`send`): the parent keeps the leading one,
    twin ``i`` sweeps the ``i``-th after it with :func:`_swept_blocks` on the
    arena it inherited, writes each block's contribution to the row of its
    position past the parent's range, and its stats to slot ``i`` after the
    rows (:meth:`~repro.execution.plan.PlanStats.to_words`).  A request is
    ``start, stop, first row, slot`` — followed by the pickled assignments
    only when they are not the ones the twin holds — and a reply is empty.  Nothing is listed or
    pickled per block, and the parent reads rows and stats in place: no
    per-run buffer of the parent's grows with the twins' share.
    """

    __slots__ = (
        "_held", "_assignments", "_shape", "_capacity", "_stats_words", "_rows_bytes",
        "_mapping", "_ranges", "twins",
    )

    def __init__(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        slots: StemSlots,
        assignments: Sequence[Mapping[str, int]],
        processes: int,
    ) -> None:
        #: what the twins were forked from (:meth:`pin`)
        self._held: Tuple = ()
        self._assignments = assignments
        self._shape = plan.contribution_shape
        # rows for every subtask of a full sweep, at complex128's width
        width = math.prod(self._shape) * np.dtype(np.complex128).itemsize
        rows = math.prod(plan.tree.index_size(ix) for ix in plan.sliced)
        self._capacity = min(rows, _MAPPING_BYTES // width)
        # (room for every node of the tree, leaves included)
        self._stats_words = PlanStats.words(2 * plan.tree.num_leaves)
        self._rows_bytes = self._capacity * width
        self._mapping = mmap.mmap(-1, self._rows_bytes + 8 * self._stats_words * (processes - 1))
        #: ``(twin or the error that lost it, start, stop)`` of the ranges out
        self._ranges: List[Tuple[Union[forking.Twin, OSError], int, int]] = []
        self.twins: List[forking.Twin] = []
        job = (plan, network, cache, slots)
        try:
            for _ in range(processes - 1):
                self.twins.append(forking.Twin(lambda request: _serve_range(job, self, request)))
        except OSError:
            self.close()
            raise

    def pin(
        self, plan: CompiledPlan, network: TensorNetwork, cache: Dict[int, np.ndarray]
    ) -> None:
        """Record what the twins were forked from — the plan, its leaf
        tensors, the cache and its buffers — pinned so no identity is
        recycled.  Taken once the run that forked them has finished, so
        the record is not part of that run's peak."""
        if not self._held:
            self._held = _snapshot(plan, network, cache)

    def holds(
        self, plan: CompiledPlan, network: TensorNetwork, cache: Dict[int, np.ndarray]
    ) -> bool:
        """Whether the twins hold ``plan``, ``network``'s leaves and ``cache``'s buffers."""
        now = _snapshot(plan, network, cache)
        return len(now) == len(self._held) and all(map(operator.is_, now, self._held))

    def rows(self, dtype: np.dtype) -> np.ndarray:
        """Every row of the mapping, at ``dtype``."""
        size = math.prod(self._shape) * self._capacity
        return np.frombuffer(self._mapping, dtype, size).reshape(self._capacity, *self._shape)

    def stats_slot(self, slot: int) -> np.ndarray:
        """Twin ``slot``'s stats words, in the mapping after the rows."""
        offset = self._rows_bytes + 8 * self._stats_words * slot
        return np.frombuffer(self._mapping, np.float64, self._stats_words, offset)

    def send(
        self, assignments: Sequence[Mapping[str, int]], first: int, count: int
    ) -> Optional[int]:
        """Start the twins on their ranges of blocks ``[first, count)``; the
        end of the parent's range, or ``None`` when the run is too short for
        the crew or its rows would not fit the mapping."""
        processes = len(self.twins) + 1
        cuts = [first + (count - first) * k // processes for k in range(processes + 1)]
        if cuts[1] == first or count - cuts[1] > self._capacity:
            return None
        held = b"" if assignments is self._assignments else pickle.dumps(assignments)
        self._assignments = assignments
        self._ranges = []
        for slot, (twin, start, stop) in enumerate(zip(self.twins, cuts[1:], cuts[2:])):
            try:
                twin.send(struct.pack("<4q", start, stop, cuts[1], slot) + held)
            except OSError as exc:
                twin = exc  # (lost: its range runs inline at the fold)
            self._ranges.append((twin, start, stop))
        return cuts[1]

    def fold(
        self,
        accumulated: np.ndarray,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
        slots: StemSlots,
    ) -> Tuple[np.ndarray, bool]:
        """Add the twins' rows to the parent's running sum in position order:
        ``(the sum, whether a twin was lost)``.  A lost twin's range runs
        inline on the parent's arena, with the same bits."""
        rows, lost = self.rows(accumulated.dtype), False
        ranges, self._ranges = self._ranges, []
        row0 = ranges[0][1]
        for slot, (twin, start, stop) in enumerate(ranges):
            try:
                if isinstance(twin, OSError):
                    raise twin
                twin.wait()
            except (EOFError, OSError) as exc:
                lost = True
                # (the text, not the exception: a kept record must not pin its frames)
                _LOG.warning(
                    "sweep twin lost (%s: %s); running blocks %d-%d inline",
                    type(exc).__name__, str(exc), start, stop - 1,
                )
                if stats is not None:
                    stats.faults += 1
                for _, data in _swept_blocks(
                    plan, network, self._assignments, cache, stats, slots, start, stop
                ):
                    accumulated += data
                continue
            if stats is not None:
                stats.merge_words(self.stats_slot(slot))
            for data in rows[start - row0 : stop - row0]:
                accumulated += data
        return accumulated, lost

    def close(self) -> None:
        """Kill and reap every twin (idempotent)."""
        twins, self.twins = self.twins, []
        for twin in twins:
            twin.close()


def _snapshot(
    plan: CompiledPlan, network: TensorNetwork, cache: Dict[int, np.ndarray]
) -> Tuple:
    """What a forked twin holds of a run: the plan, its leaf tensors, the
    cache and the cache's buffers (compared by identity)."""
    leaves = (network.tensor(ls.tid) for ls in plan.leaf_steps)
    return (plan, cache, *leaves, *cache.values())


def _serve_range(job: Tuple, crew: _RangeCrew, request: bytes) -> bytes:
    """A twin's side of one run: its range's blocks, each into its row, and
    its stats into its slot."""
    plan, network, cache, slots = job
    start, stop, row0, slot = struct.unpack_from("<4q", request)
    if len(request) > 32:
        crew._assignments = pickle.loads(memoryview(request)[32:])
    stats, rows = PlanStats(), None
    for position, data in _swept_blocks(
        plan, network, crew._assignments, cache, stats, slots, start, stop
    ):
        if rows is None:
            rows = crew.rows(data.dtype)
        np.copyto(rows[position - row0, ...], data)
    stats.to_words(crew.stats_slot(slot))
    return b""


class _CrewSession(NullExecutionSession):
    """A session of the executors' default backend: the crew of twins that
    splits its runs (:class:`_RangeCrew`), kept across runs.

    A run without a crew is serial; block 1's seconds decide whether twins
    forked there take the rest (:class:`_HandOffBackend`).  A run too
    short for that adds its seconds up, and once :func:`repro.forking.
    pool_pays` accepts the mean run over the runs so far, the session forks
    a crew for the next run.  A crew re-forks only when what it was forked
    from changed: another plan, a rebound leaf, new cache buffers.  Unless
    one of its first two warm split runs (after the first) beats the
    fastest inline run, it retires with one ``INFO`` line and the session
    stays inline.  A lost twin costs one ``WARNING`` and ``stats.faults +=
    1``; its range runs inline and the session stays inline.  Opening a
    session forks nothing; closing it, garbage collection and interpreter
    exit retire the crew.

    With ``resident=False`` it serves one run outside a session and keeps
    nothing (the caller closes it).
    """

    def __init__(self, backend: _HandOffBackend, resident: bool = True) -> None:
        super().__init__(None)
        # (no reference back: an unclosed session dies with its backend)
        self._owner = weakref.ref(backend)
        self._slots = backend._slots
        self._resident = resident
        self.crew: Optional[_RangeCrew] = None
        self.inline_seconds, self.inline_runs, self.fastest_inline = 0.0, 0, math.inf
        #: split runs since the session first forked, and whether one paid
        self.split_runs, self.paid = 0, False
        #: a crew was dropped as stale: fork its successor at the next run
        self.refork = False
        self.stay_inline = False

    def accumulate(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
    ) -> np.ndarray:
        """One run's sum: split with the crew, or inline with an offer after block 1."""
        slots = self._slots
        started = time.perf_counter()
        stop: Optional[int] = None
        if self.refork and not self.stay_inline:
            self.refork = False
            count = _block_count(plan, assignments)
            self._fork(plan, network, cache, slots, assignments, count)
        crew = self.crew
        if crew is not None:
            stop = crew.send(assignments, 0, _block_count(plan, assignments))
            if stop is None:  # (the crew sits this run out)
                return _serial_accumulate(plan, network, assignments, cache, stats, slots)
        offer = crew is None and not self.stay_inline
        accumulated: Optional[np.ndarray] = None
        try:
            blocks = _swept_blocks(plan, network, assignments, cache, stats, slots, 0, stop)
            mark = started
            for position, data in blocks:
                accumulated = _folded(accumulated, data)
                if position + 1 == stop:
                    break
                if position == 1 and offer:
                    count = _block_count(plan, assignments)
                    crew = self._offer(
                        plan, network, cache, slots, assignments, count,
                        time.perf_counter() - mark,
                    )
                    stop = None if crew is None else crew.send(assignments, 2, count)
                    if stop is None:
                        crew = None
                mark = time.perf_counter()
            blocks.close()
            assert accumulated is not None
            if crew is None:
                if self._resident:
                    self._ran_inline(
                        plan, network, cache, slots, assignments, time.perf_counter() - started
                    )
                return accumulated
            accumulated, lost = crew.fold(accumulated, plan, network, cache, stats, slots)
        except BaseException:
            if crew is not None:
                self.retire()  # (its twins may be in the middle of the run)
            raise
        if lost:
            self.retire()
            self.stay_inline = True
        elif self._resident:
            self._ran_split(time.perf_counter() - started)
        return accumulated

    def _offer(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        slots: StemSlots,
        assignments: Sequence[Mapping[str, int]],
        count: int,
        block_s: float,
    ) -> Optional[_RangeCrew]:
        """A crew for the ``count - 2`` blocks after block 1, forked now if
        they pay for it."""
        left = count - 2
        # a multi-threaded BLAS already spreads every GEMM over the cores
        # the twins would take, and they would fight it for them
        if not forking.pool_pays(block_s, left) or forking.native_threads() > 1:
            return None
        return self._fork(plan, network, cache, slots, assignments, left)

    def _ran_inline(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        slots: StemSlots,
        assignments: Sequence[Mapping[str, int]],
        seconds: float,
    ) -> None:
        """Count an inline run; fork a crew for the next once the sum pays."""
        self.inline_seconds += seconds
        self.inline_runs += 1
        self.fastest_inline = min(self.fastest_inline, seconds)
        if self.stay_inline or not (
            forking.pool_pays(self.inline_seconds / self.inline_runs, self.inline_runs)
            and forking.native_threads() == 1
        ):
            return
        count = _block_count(plan, assignments)
        if count >= 2:
            self._fork(plan, network, cache, slots, assignments, count)

    def _ran_split(self, seconds: float) -> None:
        """Judge the first two warm split runs (the crew's first run copies
        the pages it writes): unless one of them beat the fastest inline
        run, the crew retires for the rest of the session.  Fastest against
        either of two, since noise only ever slows a run down."""
        self.split_runs += 1
        if self.paid or self.split_runs == 1:
            return
        if seconds < self.fastest_inline:
            self.paid = True
        elif self.split_runs == 3:
            _LOG.info(
                "sweep crew retired: neither of two warm split runs beat the fastest "
                "inline one, %.2f ms (the last took %.2f ms); every later run of this "
                "session runs inline",
                self.fastest_inline * 1e3,
                seconds * 1e3,
            )
            self.retire()
            self.stay_inline = True

    def _fork(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        slots: StemSlots,
        assignments: Sequence[Mapping[str, int]],
        blocks: int,
    ) -> Optional[_RangeCrew]:
        """Fork a crew of ``min(CPUs, blocks)`` processes, the parent included."""
        processes = min(forking.usable_cpus(), blocks)
        if processes < 2:
            return None
        try:
            self.crew = _RangeCrew(plan, network, cache, slots, assignments, processes)
        except OSError as exc:
            _LOG.warning(
                "sweep twins could not fork (%s: %s); the session runs inline",
                type(exc).__name__, str(exc),
            )
            self.stay_inline = True
        return self.crew

    def drop(self) -> None:
        """Retire a crew that no longer holds the run's state; its successor
        is forked at the next run."""
        if self.crew is not None:
            self.retire()
            self.refork = True

    def retire(self) -> None:
        """Kill and reap the crew's twins, if any."""
        crew, self.crew = self.crew, None
        if crew is not None:
            crew.close()

    def reset(self) -> None:
        self.drop()

    def close(self) -> None:
        self.retire()
        super().close()
        owner = self._owner()
        if owner is not None and owner._session is self:
            owner._session = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        twins = 0 if self.crew is None else len(self.crew.twins)
        return f"_CrewSession({twins} twins, closed={self.closed})"


class LocalTransport(ChunkTransport):
    """In-process :class:`~repro.execution.resilience.ChunkTransport`.

    With ``workers >= 1`` chunks run on a thread pool (numpy releases the
    GIL inside the contraction kernels), each thread owning a private
    :class:`~repro.execution.plan.StemSlots` arena; with ``workers == 0``
    they run inline in the calling thread, one at a time.  This is both
    :class:`ThreadPoolBackend`'s substrate and what every pooled backend
    degrades to (``"threads"`` / ``"serial"``).  Threads cannot be
    killed, so the transport is not preemptible (chunk deadlines do not
    apply) and an injected worker death raises inside the chunk instead.
    """

    def __init__(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        workers: int,
    ) -> None:
        self.name = "threads" if workers else "serial"
        self._job = (plan, network, cache)
        self._pool = ThreadPoolExecutor(max_workers=workers) if workers else None
        self._arenas = threading.local()

    def slots(self) -> Optional[int]:
        return None if self._pool is not None else 1

    def _work(self, chunk: Chunk, directive: Optional[Directive]) -> ChunkResult:
        apply_directive(directive, in_process=True)
        arena = getattr(self._arenas, "slots", None)
        if arena is None:
            arena = self._arenas.slots = StemSlots()
        result = execute_chunk(*self._job, arena, chunk)
        # corruption (if injected) after the checksums were taken over the
        # honest results — the driver's verification must catch it
        corrupt_payload(directive, result[0])
        return result

    def submit(
        self, index: int, chunk: Chunk, directive: Optional[Directive], retry: bool
    ) -> Future:
        if self._pool is not None:
            return self._pool.submit(self._work, chunk, directive)
        future: Future = Future()
        try:
            future.set_result(self._work(chunk, directive))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def wait(
        self, handles: Sequence[Future], timeout: Optional[float]
    ) -> List[Tuple[Future, object]]:
        done, _ = futures_wait(handles, timeout=timeout, return_when=FIRST_COMPLETED)
        # the exception travels back as data: the driver decides whether
        # to retry, degrade, or re-raise
        return [(future, future.exception() or future.result()) for future in done]

    def abort(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "LocalTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.abort()


class _PooledBackend(ExecutionBackend):
    """What the chunked backends share: chunking, scheduling, the fold.

    ``run_subtasks`` cuts the assignments into positioned chunks, hands
    them to the one scheduler (:func:`~repro.execution.resilience.
    run_chunks`) over this backend's transport, and folds the returned
    per-position contributions strictly in assignment order.  A backend
    with resident workers names its session class in :attr:`session_type`
    (the session *is* its transport); without one the chunks run on an
    ephemeral :class:`LocalTransport`.
    """

    #: Resident-session class (``None``: nothing resident — threads).
    session_type: Optional[Callable[["_PooledBackend"], "_ResidentSession"]] = None
    #: Whether one-assignment / one-worker runs skip the transport and run
    #: inline on the serial path.
    inline_small_runs = True
    #: Default chunks per worker (:meth:`_chunks`).
    chunks_per_worker = 4

    def __init__(self, max_workers: int, chunk_size: Optional[int] = None) -> None:
        self.max_workers = int(max_workers)
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.chunk_size = int(chunk_size) if chunk_size is not None else None
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._serial = SerialBackend()
        self._session: Optional["_ResidentSession"] = None

    def _chunks(self, blocks: List[List[Mapping[str, int]]]) -> List[List]:
        """Positioned chunks of whole blocks.  By default
        :attr:`chunks_per_worker` per worker, their count a multiple of the
        worker count and their subtask counts at most one block apart, so
        the workers' shares stay even; an explicit ``chunk_size`` rounds up
        to whole blocks.  A block never splits, so every backend folds the
        contributions serial folds."""
        if self.chunk_size is not None:
            return _chunked(blocks, self.chunk_size)
        count = min(self.chunks_per_worker * self.max_workers, len(blocks))
        if count > self.max_workers:
            count -= count % self.max_workers
        return _even_chunks(blocks, count)

    # ------------------------------------------------------------------
    def session(
        self,
        plan: Optional[CompiledPlan] = None,
        network: Optional[TensorNetwork] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        stats: Optional[PlanStats] = None,
    ):
        """Open (or reuse) the backend's persistent session.

        With ``plan``, ``network`` and ``cache`` supplied the session is
        eagerly warmed: the invariant cache is computed and the workers
        brought up to date (forked from the warm parent, or sent the
        state) before the first ``run_subtasks`` call.
        Without them the session starts idle and materializes on first
        use — the form long-lived callers that build their plan later
        (e.g. a sampling run) use.
        """
        if self.session_type is None:
            return super().session(plan, network, cache, stats)
        session = self._session
        if session is None or session.closed:
            session = self._session = self.session_type(self)
        if plan is not None:
            if network is None or cache is None:
                raise ValueError("session(plan=...) also requires network= and cache=")
            self.warm(plan, network, cache, stats)
            session.ensure(plan, network, cache)
        return session

    def close(self) -> None:
        """Close the active session (idempotent)."""
        session, self._session = self._session, None
        if session is not None:
            session.close()

    def reset_session(self) -> None:
        """Rebuild path for axis-order mutations: drop the resident state."""
        session = self._session
        if session is not None and not session.closed:
            session.reset()

    # ------------------------------------------------------------------
    def run_subtasks(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> Optional[Tensor]:
        if not assignments:
            return None
        blocks = list(plan.blocks(assignments))
        if self.inline_small_runs and (len(blocks) == 1 or self.max_workers == 1):
            return self._serial.run_subtasks(
                plan, network, assignments, cache, stats, policy, injector, checkpoint
            )
        self.warm(plan, network, cache, stats)
        if checkpoint is not None:
            checkpoint.require_slot_shape(plan.contribution_shape)
        job = (plan, network, cache)

        def fallback(substrate: str) -> LocalTransport:
            # what a degrading policy falls back to once this backend's
            # own recovery is exhausted: local threads, then inline
            return LocalTransport(*job, self.max_workers if substrate == "threads" else 0)

        def drive(transport: ChunkTransport) -> List[Optional[np.ndarray]]:
            return run_chunks(
                transport, self._chunks(blocks), policy or FAIL_FAST,
                injector, checkpoint, stats, fallback,
            )

        session = self._session
        if self.session_type is None:
            with LocalTransport(*job, self.max_workers) as transport:
                contributions = drive(transport)
        elif session is not None and not session.closed:
            contributions = session.run(*job, drive)
        else:
            with self.session_type(self) as scratch:
                contributions = scratch.run(*job, drive)
        # the ordered fold: filled slots hold bit-exact contributions no
        # matter which worker, retry or degraded substrate computed them
        accumulated = contributions[0]
        for contribution in contributions[1:]:
            accumulated += contribution
        return _result_tensor(plan, plan.finish(network, accumulated, cache, stats))


class ThreadPoolBackend(_PooledBackend):
    """Distribute subtask chunks over a thread pool.

    numpy releases the GIL inside the contraction kernels, so threads
    amortize well when each subtask is large; per-subtask Python overhead
    is still serialized, which is where the process pool takes over.
    A degrading policy falls back to inline serial execution.

    Under a multi-threaded BLAS (numpy's default OpenBLAS starts a thread
    per core) the threads oversubscribe the cores: each thread's GEMMs run
    on the BLAS library's threads too.  Pin BLAS to one thread per worker
    (``OPENBLAS_NUM_THREADS=1``, or ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS``,
    set before numpy is imported), as ``bench/run.py`` does.

    Parameters
    ----------
    max_workers:
        Thread count.
    chunk_size:
        Subtasks per work item; default streams ~4 chunks per thread.
    """

    name = "threads"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadPoolBackend(max_workers={self.max_workers})"


class _ResidentSession(ChunkTransport):
    """What the resident sessions share: lifetime, healing, staleness.

    A session keeps a backend's workers and their state alive across
    ``run_subtasks`` calls, and *is* the backend's
    :class:`~repro.execution.resilience.ChunkTransport` while a run is in
    progress.  Subclasses supply ``_ensure`` (bringing the workers' state
    up to date) and the transport mechanics; this base owns

    * the resources object and the ``weakref.finalize`` releasing it — at
      :meth:`close`, at garbage collection or at interpreter exit — without
      keeping the session alive;
    * the leaf-data snapshot fingerprint (identity of the plan, of every
      leaf tensor and of the cache buffers) that decides what the workers
      must be sent again (or forked from again);
    * healing: a run or an update that raises marks the session
      *broken*, and the next :meth:`ensure` resets it transparently
      instead of crashing on stale state.
    """

    def __init__(self, backend: "_PooledBackend", resources, release) -> None:
        self._backend = backend
        self._resources = resources
        self._release = release
        self._finalizer = weakref.finalize(self, release, resources)
        #: ``(plan, network, cache)`` of the run in progress.
        self._job: Optional[Tuple] = None
        self._drop_fingerprint()

    @property
    def closed(self) -> bool:
        """Whether the session has been closed."""
        return not self._finalizer.alive

    @property
    def broken(self) -> bool:
        """Whether the last run failed (healed transparently on next use)."""
        return self._broken

    def close(self) -> None:
        """Release the workers and their state; safe to call twice."""
        self._finalizer()  # runs the release at most once
        self._drop_fingerprint()
        if self._backend._session is self:
            self._backend._session = None

    def reset(self) -> None:
        """Tear the resident state down but keep the session usable.

        The next run brings everything up from scratch — the full-rebuild
        path for axis-order mutations
        (:meth:`ExecutionBackend.reset_session`).
        """
        if not self.closed:
            self._release(self._resources)
            self._drop_fingerprint()

    def abort(self) -> None:
        self.reset()

    def _drop_fingerprint(self) -> None:
        self._broken = False
        self._plan: Optional[CompiledPlan] = None
        self._leaf_tensors: Tuple[Tensor, ...] = ()
        self._cache_token: Optional[Tuple] = None
        # pinned so ``id``-based tokens cannot collide with recycled buffers
        self._cache_buffers: Tuple[np.ndarray, ...] = ()

    def _refingerprint(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> Tuple[bool, bool]:
        """Take the new snapshot: ``(plan changed, plan or data changed)``."""
        leaf_tensors = tuple(network.tensor(ls.tid) for ls in plan.leaf_steps)
        items = sorted(cache.items())
        cache_token = (id(cache), tuple((node, id(buffer)) for node, buffer in items))
        plan_changed = plan is not self._plan
        changed = (
            plan_changed
            or leaf_tensors != self._leaf_tensors
            or cache_token != self._cache_token
        )
        self._plan = plan
        self._leaf_tensors = leaf_tensors
        self._cache_token = cache_token
        self._cache_buffers = tuple(buffer for _, buffer in items)
        return plan_changed, changed

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> None:
        """Bring the resident state up to date for ``plan``/``network``.

        No-op when the fingerprint matches (the steady state).  A session
        whose previous run failed (worker crash, timeout,
        ``KeyboardInterrupt``, a raised chunk) is **broken**: its workers
        may be dead and their state stale, so it is reset first and
        rebuilt from scratch.
        """
        if self.closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._broken:
            self.reset()
        try:
            self._ensure(plan, network, cache)
        except BaseException:
            # a partially updated session must not be reused as-is
            self._broken = True
            raise

    def _ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> None:
        raise NotImplementedError

    def run(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        drive: Callable[[ChunkTransport], List[Optional[np.ndarray]]],
    ) -> List[Optional[np.ndarray]]:
        """One run over the resident workers: ``drive(self)``'s ordered slots.

        Publishes what changed, then hands itself — as the transport — to
        ``drive`` (the backend's :func:`~repro.execution.resilience.
        run_chunks` call).  The caller folds the returned contributions
        strictly in assignment order, so session reuse and recovery
        cannot perturb the ordered-accumulation contract.
        """
        self.ensure(plan, network, cache)
        self._job = (plan, network, cache)
        try:
            return drive(self)
        except BaseException:
            self._broken = True
            raise
        finally:
            self._job = None


# ----------------------------------------------------------------------
# The process pool: a crew of children forked from the warm parent
# ----------------------------------------------------------------------
#: Largest row mapping a crew makes before its fork; a chunk whose rows lie
#: past its end sends its contributions through the pipe instead.
_MAPPING_BYTES = 1 << 28


class _Crew:
    """The forked children of one session and the mapping they write their
    rows to, released together.

    Kept on a separate object so a ``weakref.finalize`` on the session can
    release them at garbage collection / interpreter exit without keeping
    the session itself alive.
    """

    __slots__ = ("members", "mapping")

    def __init__(self) -> None:
        self.members: List[forking.Twin] = []
        self.mapping: Optional[mmap.mmap] = None


def _release_crew(crew: _Crew) -> None:
    """Kill and reap every child; drop the mapping."""
    members, crew.members = crew.members, []
    for member in members:
        member.close()
    crew.mapping = None


class _Order:
    """One chunk in flight on the crew, and the child running it (``None``
    while the parent holds it)."""

    __slots__ = ("chunk", "directive", "member")

    def __init__(self, chunk: Chunk, directive: Optional[Directive]) -> None:
        self.chunk, self.directive = chunk, directive
        self.member: Optional[forking.Twin] = None


def _rows(
    mapping: mmap.mmap, dtype: np.dtype, shape: Tuple[int, ...], count: int
) -> Optional[np.ndarray]:
    """The first ``count`` rows of ``shape`` and ``dtype`` in ``mapping``
    (``None`` past its end): row ``p`` holds position ``p``'s contribution."""
    size = math.prod(shape) * count
    if size * dtype.itemsize > len(mapping):
        return None
    return np.frombuffer(mapping, dtype, size).reshape(count, *shape)


def _serve_chunk(job: Tuple, mapping: mmap.mmap, request: bytes) -> bytes:
    """A child's side of one chunk: run it, write each contribution to its
    position's row and answer ``(crc32s, stats, dtype, shape, None)`` — or
    the contributions in place of ``None`` when their rows lie past the
    mapping's end; a chunk that raised answers its exception."""
    chunk, directive = pickle.loads(request)
    try:
        apply_directive(directive)
        contributions, checksums, stats = execute_chunk(*job, chunk)
        # corruption (if injected) after the checksums were taken over the
        # honest results — the parent's verification must catch it
        corrupt_payload(directive, contributions)
    except Exception as exc:
        try:
            return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return pickle.dumps(RuntimeError(repr(exc)), protocol=pickle.HIGHEST_PROTOCOL)
    first = contributions[0]
    rows = _rows(mapping, first.dtype, first.shape, max(position for position, _ in chunk) + 1)
    if rows is not None:
        for (position, _), data in zip(chunk, contributions):
            rows[position] = data
        contributions = None
    reply = (checksums, stats, first.dtype.str, first.shape, contributions)
    return pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)


class ExecutionSession(_ResidentSession):
    """The resident crew of a :class:`SharedMemoryProcessPoolBackend`:
    ``max_workers - 1`` forked children, and the parent beside them.

    The children are forked (:class:`repro.forking.Twin`) once the
    invariant cache is warm, so each inherits the plan, the leaves and the
    warm cache copy-on-write: nothing is pickled or published.  A
    fingerprint change — another plan, a rebound leaf, new cache buffers —
    re-forks the crew from the parent's current state; an axis-order
    mutation is recompiled upstream and arrives as
    :meth:`~ExecutionBackend.reset_session`, after which the next run
    forks afresh.

    As a transport, a chunk goes to an idle child, else to the parent,
    which runs it inside :meth:`wait` on its own arena while the children
    sweep theirs.  A request carries only the chunk (its positions and
    assignments) and a fault directive; the child writes each contribution
    to the row of its position in an anonymous mapping made before the
    fork and answers with their CRC-32s and its stats.  A chunk carrying an
    injected fault always runs in a child.  A dead child (the end of its
    pipe) or a severed one (SIGKILLed at a missed deadline) is lost with
    its chunk while the others carry on; with no child left
    :meth:`rebuild` re-forks the crew.  What happens next is
    :mod:`repro.execution.resilience`'s decision.
    """

    name = "process-pool"
    preemptible = True
    rebuildable = True

    def __init__(self, backend: "SharedMemoryProcessPoolBackend") -> None:
        super().__init__(backend, _Crew(), _release_crew)
        #: The parent's arena, which sweeps its own share of every run.
        self._slots = backend._serial._slots
        #: How many times this session forked its crew.
        self.forks = 0

    @property
    def pids(self) -> List[int]:
        """The live children's pids."""
        return [member.pid for member in self._resources.members]

    def _drop_fingerprint(self) -> None:
        super()._drop_fingerprint()
        #: the chunk each busy child runs
        self._busy: Dict[forking.Twin, _Order] = {}
        #: the parent's own chunk, run inside the next wait
        self._own: Optional[_Order] = None
        #: an injected chunk waiting for a child to come free
        self._held: Optional[_Order] = None

    # ------------------------------------------------------------------
    def _ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> None:
        if self._backend.max_workers == 1:
            return  # (its runs stay inline)
        _, changed = self._refingerprint(plan, network, cache)
        members = self._resources.members
        dead = [member for member in members if not member.alive]
        for member in dead:
            _LOG.warning("process pool child %d died between runs; re-forking", member.pid)
        if members and not changed and not dead:
            return
        self._fork(plan, network, cache)

    def _fork(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> None:
        """Replace the crew with ``max_workers - 1`` children forked now."""
        started = time.perf_counter()
        crew = self._resources
        _release_crew(crew)
        # rows for every subtask of a full sweep, at complex128's width
        # (anything longer or wider goes through the pipe)
        rows = math.prod(plan.tree.index_size(ix) for ix in plan.sliced)
        width = math.prod(plan.contribution_shape) * np.dtype(np.complex128).itemsize
        crew.mapping = mapping = mmap.mmap(-1, max(1, min(rows * width, _MAPPING_BYTES)))
        job = (plan, network, cache, self._slots)
        for _ in range(self._backend.max_workers - 1):
            crew.members.append(
                forking.Twin(lambda request: _serve_chunk(job, mapping, request))
            )
        self.forks += 1
        _LOG.debug(
            "forked %d process pool children in %.2f ms",
            len(crew.members), 1e3 * (time.perf_counter() - started),
        )

    # ------------------------------------------------------------------
    # ChunkTransport
    # ------------------------------------------------------------------
    def slots(self) -> int:
        members = len(self._resources.members)
        return members + 1 if members else 0

    def submit(
        self, index: int, chunk: Chunk, directive: Optional[Directive], retry: bool
    ) -> _Order:
        order = _Order(chunk, directive)
        idle = self._idle()
        if idle is not None:
            self._dispatch(idle, order)
        elif directive is None and self._own is None:
            self._own = order
        else:
            self._held = order
        return order

    def started(self, order: _Order) -> bool:
        return order.member is not None

    def wait(
        self, handles: Sequence[_Order], timeout: Optional[float]
    ) -> List[Tuple[Optional[_Order], object]]:
        events: List[Tuple[Optional[_Order], object]] = []
        self._release_held(events)
        if self._own is not None:
            order, self._own = self._own, None
            plan, network, cache = self._job
            try:
                contributions, stats = _chunk_contributions(
                    plan, network, cache, self._slots, order.chunk
                )
            except Exception as exc:
                events.append((order, exc))
            else:
                # (computed here: no trip to verify)
                events.append((order, (contributions, None, stats)))
            timeout = 0.0
        if self._busy:
            ready, _, _ = select.select(list(self._busy), [], [], timeout)
            events.extend(map(self._reply, ready))
            self._release_held(events)
        return events

    def sever(self, order: _Order) -> List[_Order]:
        return self._lose(order.member)

    def rebuild(self) -> None:
        # a re-fork from the parent's warm state: recovery cannot diverge
        # from a clean start
        self._fork(*self._job)

    # ------------------------------------------------------------------
    def _idle(self) -> Optional[forking.Twin]:
        return next((m for m in self._resources.members if m not in self._busy), None)

    def _dispatch(self, member: forking.Twin, order: _Order) -> None:
        """Send ``order`` to the idle ``member``; :exc:`WorkerLost` if it died."""
        order.member = member
        self._busy[member] = order
        try:
            member.send(pickle.dumps((order.chunk, order.directive), pickle.HIGHEST_PROTOCOL))
        except OSError as exc:
            raise WorkerLost(exc, self._lose(member)) from exc

    def _release_held(self, events: List) -> None:
        """Hand the held injected chunk to a child that came free."""
        idle = self._idle() if self._held is not None else None
        if idle is not None:
            order, self._held = self._held, None
            try:
                self._dispatch(idle, order)
            except WorkerLost as lost:
                events.append((None, lost))

    def _reply(self, member: forking.Twin) -> Tuple[Optional[_Order], object]:
        """``member``'s answer as an outcome for the scheduler."""
        order = self._busy[member]
        try:
            reply = pickle.loads(member.wait())
        except (EOFError, OSError) as exc:
            return None, WorkerLost(exc, self._lose(member))
        del self._busy[member]
        if isinstance(reply, Exception):
            return order, reply
        checksums, stats, dtype, shape, contributions = reply
        if contributions is None:
            positions = [position for position, _ in order.chunk]
            rows = _rows(self._resources.mapping, np.dtype(dtype), shape, max(positions) + 1)
            contributions = [np.array(rows[position]) for position in positions]
        return order, (contributions, checksums, stats)

    def _lose(self, member: forking.Twin) -> List[_Order]:
        """Kill and reap ``member``; the chunks lost with it: its own, and
        one held for the next free child."""
        self._resources.members.remove(member)
        member.close()
        lost = [order for order in (self._busy.pop(member, None), self._held) if order]
        self._held = None
        return lost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else f"{len(self._resources.members)} children"
        return f"ExecutionSession({state}, forks={self.forks})"


class SharedMemoryProcessPoolBackend(_PooledBackend):
    """Distribute subtask chunks over processes forked from the warm parent.

    The invariant cache is warmed once in the parent, then ``max_workers -
    1`` children are forked (:class:`ExecutionSession`): each inherits the
    plan, the leaves and the warm cache copy-on-write, and the parent
    sweeps beside them.  By default a run is one contiguous range of blocks
    per process, their subtask counts at most one block apart.  The
    children write their contributions to memory shared with the parent,
    which folds every contribution strictly in assignment order, so the
    result is bit-identical to :class:`SerialBackend` for every worker
    count and chunk size.

    The crew's lifetime is an :class:`ExecutionSession`'s: inside ``with
    backend.session(plan, network, cache): ...`` (or any session opened
    through :meth:`session`) consecutive ``run_subtasks`` calls reuse the
    children, forking them again only when the leaf-data fingerprint
    changes.  Without an open session each call forks and reaps its own.

    Wins over threads for many-small-subtask workloads, where per-subtask
    interpreter overhead (plan bookkeeping, leaf slicing) dominates the
    GIL-free GEMM time.

    Under a multi-threaded BLAS the pool oversubscribes the cores: each
    worker keeps the parent's BLAS thread count (numpy's default OpenBLAS
    starts one per core).  On a 2-vCPU VM the 5x7-grid, m = 9 bench plan
    (16 subtasks of ~45 ms) took 2.5 s on two workers against 0.55 s
    serial; with one BLAS thread, 0.45 s against 0.75 s.  Pin BLAS to one
    thread per worker (``OPENBLAS_NUM_THREADS=1``, or ``OMP_NUM_THREADS`` /
    ``MKL_NUM_THREADS``, set before numpy is imported), as ``bench/run.py``
    does; the default front door and a sampling session stay inline beside
    a native thread for this reason.

    Parameters
    ----------
    max_workers:
        Process count, the parent included.
    chunk_size:
        Subtasks per work item; default one contiguous range per process.
    """

    name = "process-pool"
    session_type = ExecutionSession
    chunks_per_worker = 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedMemoryProcessPoolBackend(max_workers={self.max_workers})"
