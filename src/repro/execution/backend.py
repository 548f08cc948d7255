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
* :class:`ThreadPoolBackend` — ``concurrent.futures`` threads over subtask
  chunks; numpy releases the GIL inside the contraction kernels, so this
  wins for few large subtasks.
* :class:`SharedMemoryProcessPoolBackend` — a process pool that ships the
  slice-invariant cached intermediates and the leaf buffers to workers via
  ``multiprocessing.shared_memory`` *once*, then streams subtask chunks;
  this sidesteps the interpreter entirely and wins for many small subtasks
  whose per-task Python overhead would serialize a thread pool.
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

import atexit
import logging
import os
import pickle
import threading
import time
import warnings
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from itertools import islice
from multiprocessing import shared_memory
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
    """Resolve ``backend=`` to a backend instance (default: serial).

    ``backend`` may be a string spec: ``"distributed"`` builds a
    :class:`~repro.execution.distributed.DistributedBackend` spawning the
    default localhost worker set, and ``"distributed:host:port,..."`` one
    connecting to pre-started workers at the listed addresses.
    """
    if backend is None:
        return SerialBackend()
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
    network: Union[TensorNetwork, "_LeafStore"],
    cache: Dict[int, np.ndarray],
    slots: StemSlots,
    items: Chunk,
) -> ChunkResult:
    """Execute one chunk: ``(contributions, crc32s, stats)``.

    The one chunk body every worker kind runs — pool threads, pool
    processes, socket workers and the degradation chain.  An item is
    one block (:meth:`~repro.execution.plan.CompiledPlan.blocks`) and
    contributes one array.  The CRC-32s are computed here, where the chunk
    was executed, so the coordinator can verify the payload survived the
    trip back intact (:func:`~repro.execution.checkpoint.verify_payload`).
    The chunk is one resumed sweep on the worker's arena: consecutive
    subtasks recontract only what their changed indices reach, and no
    state outlives the chunk.
    """
    stats = PlanStats()
    with slots.sweep():
        contributions = [
            _owned_contribution(plan.execute_block(network, block, cache, stats, slots))
            for _, block in items
        ]
    return contributions, payload_checksums(contributions), stats


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
    takes an owned copy).  The one ordered loop of the serial backend and of
    both halves of a split sampling batch.  ``assignments`` are read from
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
    hand_off: Optional[Callable[..., bool]] = None,
) -> np.ndarray:
    """In-order, in-process accumulation — the reduction all backends match.

    The loop is :func:`_swept_blocks` folded by :func:`_folded`; position
    order is the same with a ledger or without, so the result is
    bit-identical to the ledger-free loop.

    A ``hand_off`` is offered the blocks after block 1 (block 0 binds the
    arena), with block 1's seconds and the running sum; the loop stops
    where it folded them in itself (:class:`_HandOffBackend`).
    """
    accumulated: Optional[np.ndarray] = None
    started = time.perf_counter()
    for position, data in _swept_blocks(
        plan, network, assignments, cache, stats, slots, 0, None, checkpoint, injector
    ):
        accumulated = _folded(accumulated, data)
        if position == 1 and hand_off is not None:
            data = None  # (a view of the arena the hand-off may drop)
            block_s = time.perf_counter() - started
            rest = list(islice(plan.blocks(assignments), 2, None))
            if hand_off(plan, network, cache, stats, block_s, rest, accumulated):
                break
        started = time.perf_counter()
    assert accumulated is not None
    return accumulated


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

    In-process backends have no pool or shared-memory segments to keep
    alive, so their :meth:`ExecutionBackend.session` returns this object:
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
    with resident state (today: the shared-memory process pool) expose it
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
        :class:`ExecutionSession` that keeps the process pool and the
        published shared-memory segments alive across ``run_subtasks``
        calls.
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

    #: Where the sweep may send its blocks after the first warm one.
    _hand_off: Optional[Callable[..., bool]] = None

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
        accumulated = _serial_accumulate(
            plan, network, assignments, cache, stats, self._slots, checkpoint, injector,
            self._hand_off,
        )
        return _result_tensor(plan, plan.finish(network, accumulated, cache, stats))


class _HandOffBackend(SerialBackend):
    """:meth:`repro.SimulationPlanner.execute_plan`'s default: serial until
    block 1, the first warm one, shows that a process pool pays for the rest.

    The rule is :func:`repro.forking.pool_pays` plus no native thread (a
    multi-threaded BLAS already has the cores).  The parent then drops its
    arena, runs the rest on an ephemeral shared-memory pool session and
    adds their contributions to its running sum in position order — the
    additions the serial loop performs, so the bits are serial's.  A pool
    that breaks logs one ``WARNING`` and the rest run inline; a chunk's own
    exception is raised as it would be inline.
    """

    def _hand_off(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
        stats: Optional[PlanStats],
        block_s: float,
        rest: List[List[Mapping[str, int]]],
        accumulated: np.ndarray,
    ) -> bool:
        # a multi-threaded BLAS already spreads every GEMM over the cores
        # the pool would take, and pooled workers would fight it for them
        if forking.native_threads() > 1 or not forking.pool_pays(block_s, len(rest)):
            return False
        self._slots.release()
        pooled = PlanStats()
        pool = SharedMemoryProcessPoolBackend(min(forking.usable_cpus(), len(rest)))

        def drive(transport: ChunkTransport) -> List[Optional[np.ndarray]]:
            return run_chunks(transport, pool._chunks(rest), FAIL_FAST, stats=pooled)

        try:
            with ExecutionSession(pool) as session:
                contributions = session.run(plan, network, cache, drive)
        except (BrokenExecutor, OSError) as exc:
            _LOG.warning(
                "sweep pool failed (%s: %s); running the %d remaining blocks inline",
                type(exc).__name__, exc, len(rest),
            )
            if stats is not None:
                stats.faults += 1
            return False
        for contribution in contributions:
            accumulated += contribution
        if stats is not None:
            stats.merge(pooled)
        return True


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
        """Positioned chunks of whole blocks.  By default ~4 per worker,
        their count a multiple of the worker count and their subtask
        counts at most one block apart, so the workers' shares stay even;
        an explicit ``chunk_size`` rounds up to whole blocks.  A block
        never splits, so every backend folds the contributions serial
        folds."""
        if self.chunk_size is not None:
            return _chunked(blocks, self.chunk_size)
        count = min(4 * self.max_workers, len(blocks))
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
        eagerly warmed: the invariant cache is computed, the state
        published and the workers brought up before the first
        ``run_subtasks`` call.
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


# ----------------------------------------------------------------------
# Shared-memory process pool — worker side
# ----------------------------------------------------------------------
#: Per-worker state installed by the pool initializer (or a chunk payload).
_WORKER_STATE: Optional["_WorkerState"] = None
#: Whether this worker registered its exit-time segment teardown yet.
_WORKER_TEARDOWN_REGISTERED = False


class _LeafStore:
    """Minimal stand-in for :class:`TensorNetwork` inside pool workers.

    The compiled plan only ever calls ``network.tensor(tid)`` while
    executing, so workers rebuild just that mapping from the shared-memory
    leaf buffers.
    """

    def __init__(self, tensors: Dict[int, Tensor]) -> None:
        self._tensors = tensors

    def tensor(self, tid: int) -> Tensor:
        return self._tensors[tid]


class _WorkerState:
    """Plan + shared-memory views held by a pool worker for one generation."""

    def __init__(
        self,
        generation: int,
        plan: CompiledPlan,
        network: _LeafStore,
        cache: Dict[int, np.ndarray],
        segments: List[shared_memory.SharedMemory],
    ) -> None:
        self.generation = generation
        self.plan = plan
        self.network: Optional[_LeafStore] = network
        self.cache = cache
        # keep the SharedMemory handles alive: the ndarray views above
        # borrow their buffers
        self.segments = segments
        self.slots = StemSlots()

    def close(self) -> None:
        """Drop the shared-memory views and close the attachments.

        The ndarray views borrow the segments' buffers, so they must be
        released first — closing a segment with a live export raises
        ``BufferError`` (tolerated below: a still-borrowed segment is
        better leaked than crashed over during teardown).
        """
        self.network = None
        self.cache = {}
        segments, self.segments = self.segments, []
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - defensive
                pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment the parent owns (and will unlink).

    On Python >= 3.13 the attachment opts out of resource tracking; before
    that the worker's re-registration lands in the tracker process the
    pool shares with the parent, where it is an idempotent set-add that
    the parent's single ``unlink`` cleans up.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track= keyword
        return shared_memory.SharedMemory(name=name)


def _shm_view(meta: Tuple[str, Tuple[int, ...], str], segments: List) -> np.ndarray:
    name, shape, dtype = meta
    segment = _attach_segment(name)
    segments.append(segment)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)


def _attach_state(payload: Tuple) -> "_WorkerState":
    """Build a :class:`_WorkerState` from a session payload, atomically.

    If any attachment fails the already-attached segments are closed
    before the error propagates, so a half-initialized worker never leaks
    attachments.
    """
    generation, plan, leaf_meta, cache_meta = payload
    segments: List[shared_memory.SharedMemory] = []
    try:
        tensors: Dict[int, Tensor] = {}
        for tid, (name, shape, dtype, indices) in leaf_meta.items():
            tensors[tid] = Tensor(
                indices, data=_shm_view((name, shape, dtype), segments)
            )
        cache = {node: _shm_view(meta, segments) for node, meta in cache_meta.items()}
    except BaseException:
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - defensive
                pass
        raise
    return _WorkerState(generation, plan, _LeafStore(tensors), cache, segments)


def _install_worker_state(payload: Tuple) -> "_WorkerState":
    """Replace this worker's state, closing the previous attachments."""
    global _WORKER_STATE
    state = _attach_state(payload)
    old, _WORKER_STATE = _WORKER_STATE, state
    if old is not None:
        old.close()
    return state


def _teardown_worker() -> None:
    """Worker exit hook: close every shared-memory attachment."""
    global _WORKER_STATE
    state, _WORKER_STATE = _WORKER_STATE, None
    if state is not None:
        state.close()


def _init_worker(blob: bytes) -> None:
    """Pool initializer: install the session's spawn-time state.

    The pickled plan and segment metadata arrive through the initializer
    once per worker.  A worker spawned lazily *after* the session
    republished its segments may find the spawn-time segment names already
    unlinked; that is tolerated here — every post-republish chunk carries
    the current payload, so the first chunk installs the state instead.
    """
    global _WORKER_STATE, _WORKER_TEARDOWN_REGISTERED
    if not _WORKER_TEARDOWN_REGISTERED:
        atexit.register(_teardown_worker)
        _WORKER_TEARDOWN_REGISTERED = True
    try:
        _install_worker_state(pickle.loads(blob))
    except FileNotFoundError:
        _WORKER_STATE = None


def _run_chunk(
    task: Tuple[int, Optional[bytes], Chunk, Optional[Directive]]
) -> Tuple[List[np.ndarray], List[int], PlanStats, int]:
    """Execute one chunk in a worker.

    Returns ``(results, checksums, stats, pid)``.  ``task`` carries
    the session generation the chunk belongs to and — for post-republish
    generations — the pickled payload a stale (or freshly spawned) worker
    needs to re-initialize itself.  The pid lets the parent track which
    workers hold the current generation, so it can stop attaching the
    payload once all of them do.  The optional fourth element is a
    fault-injection directive (:mod:`repro.execution.faultinject`),
    applied before the chunk runs; ``None`` on every production chunk.
    Injected payload corruption happens after :func:`execute_chunk` took
    the checksums, so the parent's verification must catch it.
    """
    generation, blob, chunk, directive = task
    apply_directive(directive)
    state = _WORKER_STATE
    if state is None or state.generation != generation:
        if blob is None:
            raise RuntimeError(
                f"worker has no shared-memory state for session generation "
                f"{generation}"
            )
        state = _install_worker_state(pickle.loads(blob))
    results, checksums, local_stats = execute_chunk(
        state.plan, state.network, state.cache, state.slots, chunk
    )
    corrupt_payload(directive, results)
    return results, checksums, local_stats, os.getpid()


# ----------------------------------------------------------------------
# Shared-memory process pool — parent side
# ----------------------------------------------------------------------
class _SessionResources:
    """The pool and published segments of one session, released together.

    Kept on a separate object so a ``weakref.finalize`` on the session can
    release them at garbage collection / interpreter exit without keeping
    the session itself alive.
    """

    __slots__ = ("pool", "segments")

    def __init__(self) -> None:
        self.pool: Optional[ProcessPoolExecutor] = None
        self.segments: List[shared_memory.SharedMemory] = []


def _release_session_resources(resources: _SessionResources) -> None:
    """Shut the pool down, then close and unlink every published segment.

    The pool is drained first so workers run their exit hooks (closing
    their attachments) before the parent unlinks the names.  Segment
    unlinking runs even if the pool shutdown raises (it is the parent's
    unlink — not the workers' exit hooks — that prevents ``/dev/shm``
    leaks: a SIGKILLed worker never runs teardown, and this release also
    runs at interpreter shutdown via the session finalizer, including
    after a ``KeyboardInterrupt``), and a name that is already gone is
    tolerated so release is idempotent under crash recovery.
    """
    pool, resources.pool = resources.pool, None
    segments, resources.segments = resources.segments, []
    try:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    finally:
        _unlink_segments(segments)


def _unlink_segments(segments: Sequence[shared_memory.SharedMemory]) -> None:
    """Close and unlink segments, tolerating already-gone names."""
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _abort_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Hard-stop a broken or stuck pool without waiting on its workers.

    ``shutdown(wait=False)`` alone would leave a hung worker running (and
    holding its shared-memory attachments); terminating the worker
    processes guarantees the rebuild path starts from zero live
    attachments, so the parent's subsequent unlink really removes the
    segments.
    """
    if pool is None:
        return
    # _processes is a CPython implementation detail; if it ever disappears
    # say so loudly instead of silently degrading to shutdown(wait=False),
    # which would leave hung workers (and their attachments) alive
    if not hasattr(pool, "_processes"):  # pragma: no cover - cpython guard
        warnings.warn(
            "ProcessPoolExecutor no longer exposes _processes; cannot "
            "terminate pool workers — a hung worker may keep its "
            "shared-memory attachments alive",
            RuntimeWarning,
        )
    # snapshot before shutdown(): a draining shutdown clears the attributes
    processes = dict(getattr(pool, "_processes", None) or {})
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - defensive
            pass
    for process in list(processes.values()):
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - defensive
            pass
    if manager is not None:
        # with its workers gone the pool's manager thread winds down; a
        # run that gave up leaves no thread behind either
        manager.join(timeout=5.0)


class _ResidentSession(ChunkTransport):
    """What the resident sessions share: lifetime, healing, staleness.

    A session keeps a backend's workers and published state alive across
    ``run_subtasks`` calls, and *is* the backend's
    :class:`~repro.execution.resilience.ChunkTransport` while a run is in
    progress.  Subclasses supply ``_ensure`` (publication) and the
    transport mechanics; this base owns

    * the resources object and the ``weakref.finalize`` releasing it — at
      :meth:`close`, at garbage collection or at interpreter exit — without
      keeping the session alive;
    * the leaf-data snapshot fingerprint (identity of the plan, of every
      leaf tensor and of the cache buffers) that decides what must be republished;
    * healing: a run or publication that raises marks the session
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
        """Release workers and published state; safe to call twice."""
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
        may be dead and its published names stale, so it is reset first
        and rebuilt from scratch.
        """
        if self.closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._broken:
            self.reset()
        try:
            self._ensure(plan, network, cache)
        except BaseException:
            # a partially-republished session must not be reused as-is
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


class ExecutionSession(_ResidentSession):
    """Resident process-pool state of a :class:`SharedMemoryProcessPoolBackend`.

    A session keeps three things alive across ``run_subtasks`` calls that
    the per-call lifecycle used to rebuild every time: the
    ``ProcessPoolExecutor`` itself, the compiled plan shipped (pickled) to
    each worker through the pool initializer, and the shared-memory
    segments holding the leaf buffers and the warm invariant cache.

    Staleness: a data-only tensor replacement or a plan recompilation
    *republishes* the segments and re-initializes the workers in place —
    the pool survives — while an axis-order mutation is recompiled
    upstream and surfaces here as
    :meth:`~ExecutionBackend.reset_session`, which rebuilds the session
    from scratch.  Republished state travels to workers via
    generation-tagged chunk payloads, so even a worker spawned lazily
    after a republish initializes correctly.

    As a transport the pool is all-or-nothing: a dead worker or a severed
    (timed-out) chunk poisons the whole ``ProcessPoolExecutor``, so every
    unfinished chunk is reported lost, and :meth:`rebuild` republishes and
    respawns through the same :meth:`ensure` path a cold session uses.
    What happens next is :mod:`repro.execution.resilience`'s decision.
    """

    name = "process-pool"
    preemptible = True
    rebuildable = True

    def __init__(self, backend: "SharedMemoryProcessPoolBackend") -> None:
        super().__init__(backend, _SessionResources(), _release_session_resources)
        #: How many times this session launched a process pool.
        self.pool_launches = 0
        #: How many times segments were (re)published.
        self.publications = 0

    # ------------------------------------------------------------------
    @property
    def pool_is_live(self) -> bool:
        """Whether a process pool is currently spawned."""
        return self._resources.pool is not None

    @property
    def generation(self) -> int:
        """The current publish generation (0 = spawn-time state)."""
        return self._generation

    def _drop_fingerprint(self) -> None:
        super()._drop_fingerprint()
        self._generation = 0
        # the republish payload fresh chunks carry until every worker
        # confirmed holding the current generation (None: spawn-time state)
        self._blob: Optional[bytes] = None
        # the current generation's full payload, always retained: retried
        # chunks carry it so a worker whose state died (or was never
        # installed) can self-initialize during recovery
        self._payload_blob: Optional[bytes] = None
        self._confirmed_pids: set = set()
        # submitted futures not yet reported by wait(), in submission order
        self._outstanding: Dict[Future, None] = {}

    # ------------------------------------------------------------------
    def _ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> None:
        _, changed = self._refingerprint(plan, network, cache)
        if self._resources.pool is not None and not changed:
            return

        # republish: retire the previous generation's segments first
        old_segments, self._resources.segments = self._resources.segments, []
        _unlink_segments(old_segments)
        leaf_meta, cache_meta = self._publish(plan, network, cache)
        self.publications += 1

        self._confirmed_pids = set()
        if self._resources.pool is None:
            self._generation = 0
            self._blob = None
            blob = pickle.dumps(
                (0, plan, leaf_meta, cache_meta),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._payload_blob = blob
            self._resources.pool = ProcessPoolExecutor(
                max_workers=self._backend.max_workers,
                initializer=_init_worker,
                initargs=(blob,),
            )
            self.pool_launches += 1
        else:
            self._generation += 1
            self._blob = self._payload_blob = pickle.dumps(
                (self._generation, plan, leaf_meta, cache_meta),
                protocol=pickle.HIGHEST_PROTOCOL,
            )

    def _publish(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> Tuple[Dict, Dict]:
        """Copy the needed buffers into fresh shared-memory segments."""
        segments = self._resources.segments

        def publish(array: np.ndarray) -> Tuple[str, Tuple[int, ...], str]:
            array = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
            segments.append(segment)
            np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
            return segment.name, array.shape, array.dtype.str

        # ship only what the workers will read: the warm invariant cache
        # and the slice-dependent leaves it does not cover
        cache_meta = {node: publish(buffer) for node, buffer in cache.items()}
        leaf_meta = {}
        for ls in plan.leaf_steps:
            if ls.node not in plan.dependent_nodes:
                continue
            tensor = network.tensor(ls.tid)
            name, shape, dtype = publish(tensor.require_data())
            leaf_meta[ls.tid] = (name, shape, dtype, tensor.indices)
        return leaf_meta, cache_meta

    # ------------------------------------------------------------------
    # ChunkTransport
    # ------------------------------------------------------------------
    def slots(self) -> Optional[int]:
        return None if self._resources.pool is not None else 0

    def submit(
        self, index: int, chunk: Chunk, directive: Optional[Directive], retry: bool
    ) -> Future:
        if self._blob is not None and len(self._confirmed_pids) >= self._backend.max_workers:
            # every worker the pool will ever have (it never respawns dead
            # ones — it breaks instead) holds this generation: chunks no
            # longer need to carry the republish payload
            self._blob = None
        # a retried chunk may land on a worker whose state died with the
        # fault (or on a freshly respawned pool): always carry the payload
        # so the worker can self-initialize
        blob = self._payload_blob if retry else self._blob
        try:
            future = self._resources.pool.submit(
                _run_chunk, (self._generation, blob, chunk, directive)
            )
        except BrokenExecutor as exc:
            raise WorkerLost(exc, self._lose()) from exc
        self._outstanding[future] = None
        return future

    def started(self, future: Future) -> bool:
        return future.running() or future.done()

    def wait(
        self, handles: Sequence[Future], timeout: Optional[float]
    ) -> List[Tuple[Optional[Future], object]]:
        done, _ = futures_wait(handles, timeout=timeout, return_when=FIRST_COMPLETED)
        events: List[Tuple[Optional[Future], object]] = []
        broken: Optional[BrokenExecutor] = None
        for future in done:
            try:
                results, checksums, worker_stats, pid = future.result()
            except BrokenExecutor as exc:
                broken = exc
                continue
            except Exception as exc:
                # the chunk raised; the worker and the pool survive
                events.append((future, exc))
            else:
                self._confirmed_pids.add(pid)
                events.append((future, (results, checksums, worker_stats)))
            del self._outstanding[future]
        if broken is not None:
            events.append((None, WorkerLost(broken, self._lose())))
        return events

    def sever(self, future: Future) -> List[Future]:
        # ProcessPoolExecutor cannot cancel a running task, so a wedged
        # chunk takes the whole pool with it
        return self._lose()

    def _lose(self) -> List[Future]:
        """Hard-stop the poisoned pool; the outstanding chunks it took along.

        Chunks that already completed cleanly are kept (the next
        :meth:`wait` reports them): only still-empty slots re-run.
        """
        _abort_pool(self._resources.pool)
        self._resources.pool = None
        lost = [
            future
            for future in self._outstanding
            if not future.done() or future.cancelled() or future.exception() is not None
        ]
        for future in lost:
            del self._outstanding[future]
        return lost

    def rebuild(self) -> None:
        # the pool is gone, so ensure republishes the segments under a new
        # generation and spawns a fresh pool — recovery cannot diverge
        # from a clean start
        self._ensure(*self._job)

    def abort(self) -> None:
        # reset() drains the pool (shutdown(wait=True)), which a wedged
        # worker would block forever — hard-stop the workers first
        self._lose()
        self.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else ("live" if self.pool_is_live else "idle")
        return (
            f"ExecutionSession({state}, generation={self._generation}, "
            f"pool_launches={self.pool_launches})"
        )


class SharedMemoryProcessPoolBackend(_PooledBackend):
    """Distribute subtask chunks over a shared-memory process pool.

    The invariant cache is warmed once in the parent, then the warm cache
    and the needed leaf buffers are published to workers through
    ``multiprocessing.shared_memory`` — copied into the segments once, not
    per subtask — and subtask chunks are streamed to the pool.  Workers
    return per-subtask contributions which the parent folds strictly in
    assignment order, so the result is bit-identical to
    :class:`SerialBackend` for every worker count and chunk size.

    Pool and segment lifetime is governed by an :class:`ExecutionSession`:
    inside ``with backend.session(plan, network, cache): ...`` (or any
    session opened through :meth:`session`) consecutive ``run_subtasks``
    calls reuse the spawned pool and the published segments, republishing
    only when the leaf-data fingerprint changes.  Without an open session
    each call runs in an ephemeral session (spawn, run, drain, unlink).

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
        Process count.
    chunk_size:
        Subtasks per work item; default streams ~4 chunks per worker.
    """

    name = "process-pool"
    session_type = ExecutionSession

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedMemoryProcessPoolBackend(max_workers={self.max_workers})"
