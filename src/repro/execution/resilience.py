"""Fault tolerance for the execution stack: one policy, one chunk scheduler.

The paper's sliced decomposition (§6) is naturally restartable: every
subtask assignment is an independent, deterministic unit, and the pooled
backends keep one *ordered slot* per assignment that is folded strictly
in assignment order *after* every slot is filled.  Recovery therefore
never perturbs the ordered-accumulation contract: a chunk that crashed,
timed out or arrived corrupt is simply run again — on the same workers,
on rebuilt ones, or on a slower local substrate — until its slots are
filled, and the final fold is bit-identical to a clean
:class:`~repro.execution.backend.SerialBackend` run.

This module is the single description, and the single implementation, of
that recovery model.  :class:`FaultPolicy` says *what is allowed*;
:func:`run_chunks` is the one driver that *does* it, for every pooled
backend, over the small :class:`ChunkTransport` protocol that threads
(:class:`~repro.execution.backend.LocalTransport`), the shared-memory
process pool (:class:`~repro.execution.backend.ExecutionSession`) and
sockets (:class:`~repro.execution.distributed.DistributedSession`)
each implement.  The transports own mechanics only — publication, wire
frames, killing a process; every decision below is taken here.

The recovery model
------------------
*Ledger pre-fill.*  With a durable :class:`~repro.execution.checkpoint.
CheckpointJob` armed, slots it already holds are folded from disk; only
chunks with at least one empty slot are *pending* (a partially covered
chunk re-runs whole — deterministic subtasks make the overwrite
bit-identical, and already-durable slots are skipped by the ledger).

*Dispatch.*  Pending chunks are submitted in queue order, as many as the
transport takes in flight.  Each submission consumes one
:class:`~repro.execution.faultinject.FaultInjector` submission ordinal,
so injector ordinals equal dispatch order.

*Harvest*, in completion order, is one path: verify the payload's
CRC-32s (:exc:`ChunkIntegrityError` on mismatch — the payload is
discarded *before* it can reach a slot or the ledger) → write the ordered
slots → merge the worker's stats → write-ahead-record the chunk in the
ledger → only then consult the injector's coordinator directive.  Slots
finished on the degradation chain go through the same path, so they are
durable too.

*Chunk faults* (the chunk raised, or failed its CRC; its worker
survived) are charged to that chunk's own retry budget
(``policy.chunk_retry_budget``).  **The backoff rule:** re-submission
``k`` of a chunk gets a *not-before* time ``policy.backoff(k)`` after its
failure and goes to the back of the queue; nothing sleeps on its behalf
while other chunks are in flight or ready — harvesting and dispatch
continue — and the backoff is accrued to ``stats.recovery_seconds`` when
it is scheduled.  The driver only sleeps when every queued chunk is
waiting out a backoff and nothing is in flight.

*Deadlines.*  On a preemptible transport a chunk's clock
(``policy.chunk_timeout``) starts when the transport reports it started,
not when it was queued.  Expiry severs the worker running it
(:exc:`ChunkTimeoutError`) and is handled as a worker loss.

*Worker loss* (dead process, cut link, severed wedge) is not the chunk's
fault: the chunks the worker took with it go back to the *front* of the
queue without consuming their retry budgets.  Survivors carry on; when
no worker is left the transport is rebuilt (respawn, republish) after
``policy.backoff(rebuild)``, at most ``policy.pool_rebuild_budget`` times
per run.

*Giving up.*  When a budget runs out the driver aborts the transport and
maps the failure by mode: ``fail-fast`` re-raises the original error
(budgets are zero, so this is the first fault), ``retry`` raises
:exc:`RecoveryExhaustedError` carrying the partial contributions, and
``degrade`` re-runs the driver — fail-fast, no injected worker faults —
over the local transports named by ``policy.degradation_chain`` on the
still-empty slots, raising only if the whole chain fails.

Every decision is logged once, here, on ``repro.execution.resilience``:
``WARNING`` for a chunk fault, CRC discard, deadline expiry, worker loss,
degradation and exhaustion; ``INFO`` for a retry, a rebuild and the
ledger pre-fill count.  The fault-free path logs nothing per chunk.

Deterministic fault *injection* lives in
:mod:`repro.execution.faultinject`; surviving the coordinator itself
dying is the durable ledger of :mod:`repro.execution.checkpoint`
(``FaultPolicy.checkpoint_dir`` / ``SlicedExecutor.run(resume=...)``).
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .checkpoint import CheckpointJob, verify_payload
from .faultinject import Directive, FaultInjector, apply_coordinator_directive
from .plan import PlanStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs.model import CostModel
    from ..tensornet.contraction_tree import ContractionTree

__all__ = [
    "ChunkIntegrityError",
    "ChunkTimeoutError",
    "ChunkTransport",
    "FaultError",
    "FaultPolicy",
    "RecoveryClock",
    "RecoveryExhaustedError",
    "WorkerLost",
    "run_chunks",
]

logger = logging.getLogger(__name__)

#: The substrates a degrading pool run falls back to, in order.
DEFAULT_DEGRADATION_CHAIN: Tuple[str, ...] = ("threads", "serial")

_MODES = ("fail-fast", "retry", "degrade")


class FaultError(RuntimeError):
    """Base class for execution-fault errors raised by the backends."""


class ChunkTimeoutError(FaultError):
    """A subtask chunk exceeded its per-chunk timeout budget."""


class ChunkIntegrityError(FaultError):
    """A harvested chunk payload failed its end-to-end checksum.

    Raised by the coordinator's harvest paths when a contribution does
    not match the CRC its chunk runner shipped with it (silent data
    corruption in transit — or the injected ``"corrupt-result"`` fault).
    Routed through the same per-chunk retry budget as any other chunk
    failure; the poisoned payload is discarded before it can reach an
    ordered slot or the durable ledger."""


class RecoveryExhaustedError(FaultError):
    """Retries/rebuilds ran out with ordered slots still empty.

    Attributes
    ----------
    contributions:
        The per-position contribution list at the moment recovery gave
        up: filled slots hold bit-exact results that a degrading caller
        keeps; ``None`` slots are the assignments still to be re-run.
    """

    def __init__(
        self, message: str, contributions: Optional[List[Optional[np.ndarray]]] = None
    ) -> None:
        super().__init__(message)
        self.contributions: List[Optional[np.ndarray]] = (
            contributions if contributions is not None else []
        )


@dataclass(frozen=True)
class FaultPolicy:
    """How a backend responds to worker crashes, timeouts and bad chunks.

    The default-constructed policy is **fail-fast**: the first fault marks
    the session broken and propagates — exactly the pre-resilience
    behaviour, so the zero-fault hot path pays nothing.  Use
    :meth:`retrying` or :meth:`degrading` (or construct explicitly) to opt
    into recovery.

    Parameters
    ----------
    mode:
        ``"fail-fast"`` raises on the first fault; ``"retry"`` re-runs
        failed chunks (rebuilding a broken pool) up to the bounds below
        and raises :exc:`RecoveryExhaustedError` when they run out;
        ``"degrade"`` additionally falls back down
        :attr:`degradation_chain` once pool recovery is exhausted, so the
        run still completes (bit-identically) on a slower substrate.
    max_retries:
        Re-submissions allowed per chunk before recovery gives up.
    max_pool_rebuilds:
        Pool respawn + segment republish cycles allowed per run; ``None``
        defaults to ``max_retries``.
    backoff_seconds / backoff_multiplier:
        Deterministic exponential backoff: re-submission attempt ``k``
        (0-based) sleeps ``backoff_seconds * backoff_multiplier**k``.
    chunk_timeout_seconds:
        Hard wall-time budget for waiting on one chunk; ``None`` disables
        chunk timeouts (unless :attr:`subtask_timeout_seconds` is set).
    subtask_timeout_seconds:
        Per-subtask budget; a chunk of ``n`` subtasks gets
        ``max(min_timeout_seconds, n * subtask_timeout_seconds)``.
        Usually derived from the cost model via :meth:`derived_from`.
    min_timeout_seconds:
        Floor under any derived chunk timeout (predictions for tiny
        subtasks would otherwise produce hair-trigger budgets).
    timeout_safety:
        Multiplier applied to the cost model's predicted subtask seconds
        when :meth:`derived_from` fills :attr:`subtask_timeout_seconds`.
    degradation_chain:
        Substrate names tried, in order, after pool recovery is exhausted
        in ``"degrade"`` mode (subset of ``("threads", "serial")``).
    checkpoint_dir:
        Root directory of a durable
        :class:`~repro.execution.checkpoint.CheckpointStore`.  When set,
        executors arm the write-ahead chunk ledger automatically: every
        run persists harvested slots there and resumes from a matching
        ledger on restart.  Fail-fast semantics — an unwritable root
        raises :exc:`~repro.execution.checkpoint.CheckpointError` at run
        start rather than silently running without durability.  ``None``
        (the default) keeps the hot path ledger-free.
    checkpoint_every:
        Flush the ledger every this many completed slots (>= 1).  A crash
        loses at most ``checkpoint_every - 1`` unflushed slots; raising
        it amortises the fsync cost on small-chunk workloads.
    """

    mode: str = "fail-fast"
    max_retries: int = 2
    max_pool_rebuilds: Optional[int] = None
    backoff_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    chunk_timeout_seconds: Optional[float] = None
    subtask_timeout_seconds: Optional[float] = None
    min_timeout_seconds: float = 1.0
    timeout_safety: float = 50.0
    degradation_chain: Tuple[str, ...] = DEFAULT_DEGRADATION_CHAIN
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_pool_rebuilds is not None and self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.backoff_seconds < 0 or self.backoff_multiplier <= 0:
            raise ValueError("backoff must be non-negative with a positive multiplier")
        for substrate in self.degradation_chain:
            if substrate not in DEFAULT_DEGRADATION_CHAIN:
                raise ValueError(
                    f"unknown degradation substrate {substrate!r} "
                    f"(chain must draw from {DEFAULT_DEGRADATION_CHAIN})"
                )

    # ------------------------------------------------------------------
    @classmethod
    def fail_fast(cls) -> "FaultPolicy":
        """The zero-recovery policy: first fault propagates immediately."""
        return cls(mode="fail-fast", max_retries=0, max_pool_rebuilds=0)

    @classmethod
    def retrying(cls, max_retries: int = 2, **kwargs: object) -> "FaultPolicy":
        """Bounded retries + pool rebuilds; raises when they run out."""
        return cls(mode="retry", max_retries=max_retries, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def degrading(cls, max_retries: int = 1, **kwargs: object) -> "FaultPolicy":
        """Retry, then fall back process pool → thread pool → serial."""
        return cls(mode="degrade", max_retries=max_retries, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    @property
    def pool_rebuild_budget(self) -> int:
        """Pool rebuilds allowed per run (``max_pool_rebuilds`` or retries)."""
        if self.mode == "fail-fast":
            return 0
        if self.max_pool_rebuilds is not None:
            return self.max_pool_rebuilds
        return self.max_retries

    @property
    def chunk_retry_budget(self) -> int:
        """Re-submissions allowed per chunk (0 in fail-fast mode)."""
        return 0 if self.mode == "fail-fast" else self.max_retries

    def chunk_timeout(self, num_subtasks: int) -> Optional[float]:
        """Wall-time budget for one chunk of ``num_subtasks`` subtasks."""
        if self.chunk_timeout_seconds is not None:
            return max(self.chunk_timeout_seconds, self.min_timeout_seconds)
        if self.subtask_timeout_seconds is not None:
            return max(
                self.min_timeout_seconds,
                self.subtask_timeout_seconds * max(1, num_subtasks),
            )
        return None

    def backoff(self, attempt: int) -> float:
        """Deterministic exponential backoff before re-submission ``attempt``."""
        return self.backoff_seconds * self.backoff_multiplier ** max(0, attempt)

    def derived_from(
        self,
        cost_model: "CostModel",
        tree: "ContractionTree",
        sliced: frozenset = frozenset(),
        backend: Optional[str] = None,
    ) -> "FaultPolicy":
        """A copy with timeouts budgeted from the cost model's predictions.

        Explicit timeouts are respected (the policy is returned
        unchanged); otherwise ``subtask_timeout_seconds`` becomes
        ``timeout_safety`` times the model's predicted per-subtask
        seconds (:meth:`~repro.costs.CostModel.timeout_budget`).  A model
        that cannot predict this backend leaves the policy timeout-free
        rather than failing the run.
        """
        if (
            self.chunk_timeout_seconds is not None
            or self.subtask_timeout_seconds is not None
        ):
            return self
        from ..costs.model import CostModelError

        try:
            budget = cost_model.timeout_budget(
                tree,
                sliced,
                backend=backend,
                subtasks=1,
                safety=self.timeout_safety,
                floor=0.0,
            )
        except CostModelError:
            return self
        return replace(self, subtask_timeout_seconds=budget)


#: The module-wide default: bit-for-bit the pre-resilience behaviour.
FAIL_FAST = FaultPolicy.fail_fast()


class RecoveryClock:
    """Accumulates wall time spent inside recovery actions onto stats."""

    def __init__(self, stats: PlanStats) -> None:
        self._stats = stats
        self._start = 0.0

    def __enter__(self) -> "RecoveryClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stats.recovery_seconds += time.perf_counter() - self._start


# ----------------------------------------------------------------------
# The transport protocol
# ----------------------------------------------------------------------
#: A positioned chunk: ``[(ordered slot, block of slicing assignments), ...]``
#: — a slot holds one block's contribution
#: (:meth:`~repro.execution.plan.CompiledPlan.blocks`).
Chunk = Sequence[Tuple[int, Sequence[Mapping[str, int]]]]

#: What a harvested chunk carries: ``(contributions, crc32s, worker stats)``.
ChunkResult = Tuple[List[np.ndarray], Optional[List[int]], PlanStats]

#: How often the driver re-checks whether a queued chunk has started: the
#: deadline clock starts at the first observation of the started state, so
#: chunks queued behind a saturated pool do not burn their budget waiting
#: for a worker.  The granularity is folded into the timeout's safety factor.
_START_POLL_SECONDS = 0.05


class WorkerLost(Exception):
    """A worker is gone, and ``handles`` are the chunks it took with it.

    Raised by :meth:`ChunkTransport.submit` (the chunk never left; no
    handle exists for it) or returned as an outcome by
    :meth:`ChunkTransport.wait`; ``error`` is what the transport saw.
    """

    def __init__(self, error: BaseException, handles: Sequence[object] = ()) -> None:
        super().__init__(str(error))
        self.error = error
        self.handles = list(handles)


class ChunkTransport:
    """What :func:`run_chunks` needs from a substrate — mechanics only.

    A *handle* is whatever hashable object :meth:`submit` returns for one
    in-flight chunk.  A transport never retries, counts or sleeps; it
    reports what happened and the driver decides.
    """

    #: Substrate name (a ``degradation_chain`` entry equal to it is skipped).
    name = "transport"
    #: Whether a running chunk can be abandoned by :meth:`sever`-ing its
    #: worker.  Deadlines are only enforced on preemptible transports.
    preemptible = False
    #: Whether :meth:`rebuild` can replace the workers after total loss.
    rebuildable = False

    def slots(self) -> Optional[int]:
        """Chunks the live workers take in flight at once.

        ``None`` is unbounded (the substrate queues); ``0`` means no
        worker is left — total loss."""
        return None

    def submit(
        self, index: int, chunk: Chunk, directive: Optional[Directive], retry: bool
    ) -> object:
        """Start ``chunk`` (number ``index``) and return its handle.

        ``retry`` is whether this chunk was submitted before.  Raises
        :exc:`WorkerLost` when the worker it was handed to turns out dead."""
        raise NotImplementedError

    def started(self, handle: object) -> bool:
        """Whether the chunk has begun executing (its deadline clock runs)."""
        return True

    def wait(
        self, handles: Sequence[object], timeout: Optional[float]
    ) -> List[Tuple[object, object]]:
        """Block until a handle completes or ``timeout`` passes.

        Returns ``(handle, outcome)`` pairs, each handle at most once per
        submission: a :data:`ChunkResult`, the ``Exception`` the chunk
        raised, or a :exc:`WorkerLost` naming every handle that died (the
        paired handle is then ignored)."""
        raise NotImplementedError

    def sever(self, handle: object) -> List[object]:
        """Kill the worker running ``handle``; the handles lost with it."""
        raise NotImplementedError

    def rebuild(self) -> None:
        """Replace the workers after total loss."""
        raise NotImplementedError

    def abort(self) -> None:
        """The run gave up: stop in-flight work, drop resident state."""


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_chunks(
    transport: ChunkTransport,
    chunks: Sequence[Chunk],
    policy: FaultPolicy,
    injector: Optional[FaultInjector] = None,
    checkpoint: Optional[CheckpointJob] = None,
    stats: Optional[PlanStats] = None,
    fallback: Optional[Callable[[str], ContextManager[ChunkTransport]]] = None,
) -> List[Optional[np.ndarray]]:
    """Run every chunk to completion under ``policy``; the ordered slots.

    The one scheduler behind every pooled backend — see the module
    docstring for the recovery model it implements.  ``chunks`` must
    cover slots ``0..n-1`` exactly once; the returned list holds one
    contribution per slot, for the caller to fold in order.
    ``fallback(substrate)`` opens the local transport a degrading policy
    falls back to (``None``: nothing to degrade to).
    """
    if stats is None:
        stats = PlanStats()
    contributions: List[Optional[np.ndarray]] = [None] * sum(map(len, chunks))
    if checkpoint is not None and checkpoint.loaded:
        for position, loaded in checkpoint.loaded.items():
            contributions[position] = loaded
        logger.info(
            "ledger pre-filled %d of %d slots", len(checkpoint.loaded), len(contributions)
        )
    try:
        _drive(transport, chunks, contributions, policy, injector, True, checkpoint, stats)
        return contributions
    except Exception as failure:
        transport.abort()
        if policy.mode != "degrade" or not isinstance(failure, RecoveryExhaustedError):
            raise
        exhausted = failure
    for substrate in policy.degradation_chain:
        if fallback is None or substrate == transport.name:
            continue
        logger.warning("degrading from %s to %s", transport.name, substrate)
        try:
            with fallback(substrate) as local:
                _drive(local, chunks, contributions, FAIL_FAST, injector, False, checkpoint, stats)
        except Exception as error:
            logger.warning("degraded run on %s failed: %r", substrate, error)
            continue
        if stats.degraded_to is None:
            stats.degraded_to = substrate
        return contributions
    raise RecoveryExhaustedError(
        f"degradation chain {policy.degradation_chain} left ordered slots unfilled",
        contributions,
    ) from exhausted


def _drive(
    transport: ChunkTransport,
    chunks: Sequence[Chunk],
    contributions: List[Optional[np.ndarray]],
    policy: FaultPolicy,
    injector: Optional[FaultInjector],
    inject_workers: bool,
    checkpoint: Optional[CheckpointJob],
    stats: PlanStats,
) -> None:
    """One pass of :func:`run_chunks` over one transport: fill the empty slots."""
    queue = deque(
        index
        for index, chunk in enumerate(chunks)
        if any(contributions[position] is None for position, _ in chunk)
    )
    # a chunk's *own* faults, against its retry budget; worker losses are
    # budgeted separately through ``rebuilds`` and never charged here
    failures = [0] * len(chunks)
    submissions = [0] * len(chunks)
    not_before: Dict[int, float] = {}
    inflight: Dict[object, int] = {}
    deadlines: Dict[object, float] = {}
    rebuilds = 0
    # deadlines need a worker that can be severed, and a budget to enforce
    timed = transport.preemptible and policy.chunk_timeout(1) is not None
    last_loss: BaseException = FaultError(f"the {transport.name} transport has no workers")

    def give_up(message: str, cause: BaseException) -> None:
        logger.warning("giving up on %s: %s: %r", transport.name, message, cause)
        if policy.mode == "fail-fast":
            raise cause
        raise RecoveryExhaustedError(f"{message}: {cause!r}", contributions) from cause

    def chunk_fault(index: int, error: BaseException) -> None:
        stats.faults += 1
        failures[index] += 1
        logger.warning("chunk %d fault %d: %r", index, failures[index], error)
        if failures[index] > policy.chunk_retry_budget:
            give_up(f"chunk {index} failed {failures[index]} times", error)
        backoff = policy.backoff(failures[index] - 1)
        not_before[index] = time.monotonic() + backoff
        stats.retries += 1
        stats.recovery_seconds += backoff
        queue.append(index)
        logger.info(
            "chunk %d retry %d of %d, not before %.3f s from now",
            index, failures[index], policy.chunk_retry_budget, backoff,
        )

    def worker_lost(lost: WorkerLost) -> None:
        nonlocal last_loss
        last_loss = lost.error
        stats.faults += 1
        indices = [inflight.pop(handle) for handle in lost.handles if handle in inflight]
        for handle in lost.handles:
            deadlines.pop(handle, None)
        if policy.mode == "fail-fast":  # nothing is requeued
            logger.warning("%s worker lost (%r)", transport.name, lost.error)
            give_up("worker lost", lost.error)
        logger.warning(
            "%s worker lost (%r); chunks %s go back to the front of the queue",
            transport.name, lost.error, indices,
        )
        stats.retries += len(indices)
        queue.extendleft(reversed(indices))

    def harvest(index: int, result: ChunkResult) -> None:
        arrays, checksums, worker_stats = result
        positions = [position for position, _ in chunks[index]]
        if len(arrays) != len(positions) or not verify_payload(arrays, checksums):
            chunk_fault(
                index,
                ChunkIntegrityError(
                    f"chunk {index} failed its payload checksum; payload discarded"
                ),
            )
            return
        for position, array in zip(positions, arrays):
            contributions[position] = array
        stats.merge(worker_stats)
        if checkpoint is not None:
            checkpoint.record_chunk(positions, arrays)
        if injector is not None:
            # coordinator-side faults fire after the chunk's slots are
            # durable — InjectedCoordinatorDeath is a BaseException, so no
            # recovery path intercepts it
            apply_coordinator_directive(injector.coordinator_directive_for_next_harvest())

    while queue or inflight:
        limit = transport.slots()
        if limit == 0 and not inflight:
            if not transport.rebuildable or rebuilds >= policy.pool_rebuild_budget:
                give_up(
                    f"no {transport.name} worker left ({rebuilds} rebuilds used, "
                    f"{len(queue)} chunks unfinished)",
                    last_loss,
                )
            rebuilds += 1
            logger.info(
                "rebuilding the %s transport (%d of %d)",
                transport.name, rebuilds, policy.pool_rebuild_budget,
            )
            with RecoveryClock(stats):
                time.sleep(policy.backoff(rebuilds - 1))
                transport.rebuild()
            continue

        now = time.monotonic()
        while queue and (limit is None or len(inflight) < limit):
            index = next((i for i in queue if not_before.get(i, 0.0) <= now), None)
            if index is None:
                break
            queue.remove(index)
            not_before.pop(index, None)
            directive = (
                injector.directive_for_next_chunk()
                if inject_workers and injector is not None
                else None
            )
            try:
                handle = transport.submit(
                    index, chunks[index], directive, submissions[index] > 0
                )
            except WorkerLost as lost:
                queue.appendleft(index)
                worker_lost(lost)
                limit = transport.slots()
                continue
            submissions[index] += 1
            inflight[handle] = index
        if not inflight:
            if queue and limit != 0:
                # every queued chunk is waiting out a backoff
                time.sleep(max(0.0, min(not_before.values(), default=now) - now))
            continue

        # only queued retries are left in ``not_before``; one already due
        # is waiting for a free worker, which a harvest will announce
        pauses = [release - now for release in not_before.values() if release > now]
        for handle, index in inflight.items() if timed else ():
            if handle in deadlines:
                pauses.append(deadlines[handle] - now)
            elif transport.started(handle):
                budget = policy.chunk_timeout(sum(len(block) for _, block in chunks[index]))
                deadlines[handle] = now + budget
                pauses.append(budget)
            else:
                pauses.append(_START_POLL_SECONDS)
        timeout = max(0.0, min(pauses)) if pauses else None
        for handle, outcome in transport.wait(list(inflight), timeout):
            if isinstance(outcome, WorkerLost):
                worker_lost(outcome)
            elif handle in inflight:
                index = inflight.pop(handle)
                deadlines.pop(handle, None)
                if isinstance(outcome, Exception):
                    chunk_fault(index, outcome)
                else:
                    harvest(index, outcome)
        now = time.monotonic()
        for handle in [h for h, deadline in deadlines.items() if deadline <= now]:
            if handle in inflight:
                # the worker may be wedged mid-chunk; severing it is the
                # only preemption a process (local or remote) allows
                timed_out = ChunkTimeoutError(
                    f"chunk {inflight[handle]} exceeded its timeout budget"
                )
                worker_lost(WorkerLost(timed_out, transport.sever(handle)))
