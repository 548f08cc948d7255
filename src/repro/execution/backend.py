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

Every backend honours the same **ordered-accumulation contract**: subtask
contributions are summed strictly in assignment order, so all backends —
any worker count, any chunk size — produce **bit-identical** results.  The
parallel backends exploit this by shipping per-subtask contributions back
to the caller (cheap: a subtask's result is the small output tensor; the
expensive part is the contraction) and folding them in order.

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
  subtask chunks stream over sockets (or MPI) to remote worker processes
  after a one-time plan/leaf/cache broadcast; also reachable through the
  ``"distributed"`` / ``"distributed:host:port,..."`` string specs of
  :func:`resolve_backend`.

Each worker (and each backend's serial loop) owns a private
:class:`~repro.execution.plan.StemSlots` arena, so the stem's running
tensor reuses two preallocated buffers instead of hitting the allocator
once per stem step.  Because the arena is what a plan's fused runs
execute against, *fused* plans (``compile_plan(..., fused=True)``; see
:mod:`repro.execution.fusion`) ship through sessions and the process
pool unchanged: the precompiled permutation kernels pickle with the plan,
every worker's private arena supplies the slots and scratch, and the
ordered-accumulation contract keeps fused execution bit-identical to
:class:`SerialBackend` step-by-step execution.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import threading
import time
import warnings
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..tensornet.network import TensorNetwork
from ..tensornet.tensor import Tensor
from .checkpoint import CheckpointJob, payload_checksums, verify_payload
from .faultinject import (
    FaultInjector,
    apply_coordinator_directive,
    apply_directive,
    corrupt_payload,
)
from .plan import CompiledPlan, PlanStats, StemSlots
from .resilience import (
    FAIL_FAST,
    ChunkIntegrityError,
    ChunkTimeoutError,
    FaultPolicy,
    RecoveryClock,
    RecoveryExhaustedError,
    run_degraded,
)

__all__ = [
    "ExecutionBackend",
    "ExecutionSession",
    "NullExecutionSession",
    "SerialBackend",
    "SharedMemoryProcessPoolBackend",
    "ThreadPoolBackend",
    "resolve_backend",
    "validate_execution_args",
]


# ----------------------------------------------------------------------
# Shared validation (SlicedExecutor, CorrelatedSampler, TreeExecutor)
# ----------------------------------------------------------------------
def _check_module_backend(module, backend: "ExecutionBackend") -> None:
    """Reject array-module/backend combinations that cannot work yet.

    Non-numpy modules hold device (or foreign-substrate) arrays that
    cannot cross the pickled / shared-memory boundary of the process
    pool, so they are rejected loudly instead of silently running on the
    host.  Raises ``ValueError`` naming the supported combinations.
    """
    if module is None or getattr(module, "is_host", True):
        return
    if isinstance(backend, SharedMemoryProcessPoolBackend):
        raise ValueError(
            f"array_module={module.name!r} is not supported on "
            "SharedMemoryProcessPoolBackend: shared-memory segments are "
            "host-side and workers have no device context. Supported "
            "combinations: numpy × (serial | threads | process pool | "
            f"distributed); {module.name} × (serial | threads)"
        )
    # duck-typed so this module never imports execution.distributed
    # (which imports this module)
    if getattr(backend, "is_distributed", False):
        raise ValueError(
            f"array_module={module.name!r} is not supported on "
            "DistributedBackend: broadcast payloads and contribution "
            "frames are host-side pickles and remote workers have no "
            "device context. Supported combinations: numpy × (serial | "
            "threads | process pool | distributed); "
            f"{module.name} × (serial | threads)"
        )


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
    max_workers: Optional[int] = None,
    array_module=None,
) -> None:
    """Validate the mode/parallelism/substrate combination uniformly.

    Every entry point (sliced executor, tree executor, sampler, planner)
    funnels through this so that the reference mode rejects parallel
    execution — and a device ``array_module`` rejects the shared-memory
    process pool and the distributed backend — with the same
    ``ValueError`` everywhere.  String backend specs are validated by
    building the backend they name (construction is lazy: no worker is
    spawned until the first run).
    """
    if mode not in ("compiled", "reference"):
        raise ValueError(f"unknown execution mode {mode!r}")
    if isinstance(backend, str):
        backend = _backend_from_spec(backend)
    if backend is not None and max_workers is not None:
        raise ValueError("pass either backend= or max_workers=, not both")
    if mode == "reference":
        if max_workers is not None:
            raise ValueError("max_workers requires the compiled mode")
        if backend is not None:
            raise ValueError("backend requires the compiled mode")
        if array_module is not None and not getattr(array_module, "is_host", True):
            raise ValueError(
                f"array_module={getattr(array_module, 'name', array_module)!r} "
                "requires the compiled mode; the reference walker is "
                "host-numpy only"
            )
    if backend is not None:
        _check_module_backend(array_module, backend)


def resolve_backend(
    backend: Union["ExecutionBackend", str, None] = None,
    max_workers: Optional[int] = None,
    array_module=None,
) -> "ExecutionBackend":
    """Resolve the ``backend=`` / legacy ``max_workers=`` pair to a backend.

    ``backend`` may also be a string spec: ``"distributed"`` builds a
    :class:`~repro.execution.distributed.DistributedBackend` spawning the
    default localhost worker set, and ``"distributed:host:port,..."`` one
    connecting to pre-started workers at the listed addresses.

    ``max_workers`` is a deprecated shim kept for the pre-backend API:
    any non-``None`` value warns exactly once, a value > 1 maps to
    ``ThreadPoolBackend(max_workers)`` and a value <= 1 to
    ``SerialBackend``.  Passing both arguments is an error regardless of
    the values (``max_workers=0`` is not a way to sneak past the check).
    When ``array_module`` is given, the resolved backend is checked
    against it (device modules cannot run on the shared-memory pool or
    the distributed backend).
    """
    if backend is not None:
        if max_workers is not None:
            raise ValueError("pass either backend= or max_workers=, not both")
        if isinstance(backend, str):
            backend = _backend_from_spec(backend)
        _check_module_backend(array_module, backend)
        return backend
    if max_workers is not None:
        warnings.warn(
            "max_workers= is deprecated; pass backend=ThreadPoolBackend(max_workers=...)",
            DeprecationWarning,
            stacklevel=3,
        )
        if int(max_workers) > 1:
            return ThreadPoolBackend(max_workers=int(max_workers))
    return SerialBackend()


# ----------------------------------------------------------------------
# Helpers shared by the backends and the pool workers
# ----------------------------------------------------------------------
def _contribution(tensor: Tensor, sum_batch_axes: int) -> np.ndarray:
    """One subtask's contribution (batched sweeps collapse the batch axes)."""
    data = tensor.require_data()
    if sum_batch_axes:
        return data.sum(axis=tuple(range(sum_batch_axes)))
    return data


def _owned_contribution(tensor: Tensor, sum_batch_axes: int) -> np.ndarray:
    """A contribution buffer the caller may keep and mutate.

    The batch-axis sum already allocates a fresh array; otherwise the
    plan's output may alias the invariant cache or a stem slot and must be
    copied out.
    """
    contribution = _contribution(tensor, sum_batch_axes)
    if sum_batch_axes:
        return contribution
    return np.array(contribution, copy=True)


def _result_tensor(
    plan: CompiledPlan, accumulated: np.ndarray, sum_batch_axes: int
) -> Tensor:
    """Wrap the accumulated array with the plan's (batch-stripped) indices."""
    out_indices = plan.out_indices[sum_batch_axes:]
    sizes = plan.out_sizes
    return Tensor(
        out_indices, data=accumulated, sizes={ix: sizes[ix] for ix in out_indices}
    )


def _serial_accumulate(
    plan: CompiledPlan,
    network: TensorNetwork,
    assignments: Sequence[Mapping[str, int]],
    cache: Optional[Dict[int, np.ndarray]],
    sum_batch_axes: int,
    stats: Optional[PlanStats],
    slots: Optional[StemSlots],
) -> np.ndarray:
    """In-order, in-process accumulation — the reduction all backends match."""
    accumulated: Optional[np.ndarray] = None
    for assignment in assignments:
        tensor = plan.execute(network, assignment, cache=cache, stats=stats, slots=slots)
        if accumulated is None:
            # the first contribution may alias the invariant cache or a
            # stem slot, both overwritten by later subtasks, so take an
            # owned buffer once
            accumulated = _owned_contribution(tensor, sum_batch_axes)
        else:
            accumulated += _contribution(tensor, sum_batch_axes)
    assert accumulated is not None
    return accumulated


def _serial_accumulate_checkpointed(
    plan: CompiledPlan,
    network: TensorNetwork,
    assignments: Sequence[Mapping[str, int]],
    cache: Optional[Dict[int, np.ndarray]],
    sum_batch_axes: int,
    stats: Optional[PlanStats],
    slots: Optional[StemSlots],
    checkpoint: CheckpointJob,
    injector: Optional[FaultInjector] = None,
) -> np.ndarray:
    """Ledger-armed variant of :func:`_serial_accumulate`.

    Slots persisted by a previous (interrupted) run are folded from the
    ledger instead of re-executed; freshly computed slots are recorded
    *before* being folded (the fold mutates the running buffer in place).
    Position order is unchanged, so the result stays bit-identical to the
    plain serial loop.  Each computed slot is one harvest ordinal for an
    armed injector's coordinator-side faults.
    """
    accumulated: Optional[np.ndarray] = None
    for position, assignment in enumerate(assignments):
        contribution = checkpoint.loaded.get(position)
        if contribution is None:
            tensor = plan.execute(
                network, assignment, cache=cache, stats=stats, slots=slots
            )
            contribution = _owned_contribution(tensor, sum_batch_axes)
            checkpoint.record(position, contribution)
            if injector is not None:
                apply_coordinator_directive(
                    injector.coordinator_directive_for_next_harvest()
                )
        if accumulated is None:
            # both branches yield an owned buffer (loaded slots are fresh
            # copies off disk), safe to mutate in the fold
            accumulated = contribution
        else:
            accumulated += contribution
    assert accumulated is not None
    return accumulated


def _chunked(items: List, chunk_size: int) -> List[List]:
    """Split ``items`` into contiguous chunks of at most ``chunk_size``."""
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


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

    Fault handling is policy-driven and opt-in: attach a
    :class:`~repro.execution.resilience.FaultPolicy` (and, for tests, a
    :class:`~repro.execution.faultinject.FaultInjector`) via
    :meth:`configure_faults` to get bounded retries, per-chunk timeouts,
    crash recovery and graceful degradation — see
    :mod:`repro.execution.resilience` for the recovery model and why
    recovered runs stay bit-identical.  Without a policy every backend
    fails fast, exactly as before the resilience layer existed.
    """

    #: Short name used in benchmark tables and reprs.
    name = "base"

    #: Optional :class:`~repro.execution.resilience.FaultPolicy` governing
    #: retries/timeouts/degradation; ``None`` means fail-fast (the
    #: pre-resilience behaviour — see :mod:`repro.execution.resilience`).
    fault_policy: Optional[FaultPolicy] = None
    #: Optional :class:`~repro.execution.faultinject.FaultInjector` for
    #: deterministic fault injection (tests/CI only; ``None`` in prod).
    fault_injector: Optional[FaultInjector] = None

    def configure_faults(
        self,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
    ) -> "ExecutionBackend":
        """Attach a backend-level default fault policy and/or injector.

        The opt-in hook of the resilience layer for callers that drive
        ``run_subtasks`` directly.  Executors
        (:class:`~repro.execution.SlicedExecutor`,
        :class:`~repro.execution.CorrelatedSampler`,
        :class:`~repro.pipeline.SimulationPlanner`) do *not* call this:
        they pass their ``fault_policy=`` / ``fault_injector=`` arguments
        through each ``run_subtasks`` call, scoping them to their own
        runs so a shared backend is never reconfigured behind another
        caller's back.  Run-scoped arguments override these defaults.
        Returns ``self`` for chaining.
        """
        if policy is not None:
            self.fault_policy = policy
        if injector is not None:
            self.fault_injector = injector
        return self

    def session(
        self,
        plan: Optional[CompiledPlan] = None,
        network: Optional[TensorNetwork] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
    ):
        """Open (or reuse) this backend's persistent execution session.

        The in-process backends hold no resident scheduling state, so the
        base implementation pre-warms the invariant cache (when a plan and
        network are supplied) and returns a :class:`NullExecutionSession`.
        :class:`SharedMemoryProcessPoolBackend` overrides this with a real
        :class:`ExecutionSession` that keeps the process pool and the
        published shared-memory segments alive across ``run_subtasks``
        calls.
        """
        if plan is not None and network is not None:
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
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
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
            Optional slice-invariant cache.  Warmed here (in the caller's
            process) if cold, so pool workers always receive it warm and
            every invariant contraction still runs exactly once.
        sum_batch_axes:
            Number of leading batch axes each execution collapses (batched
            sweeps); the returned tensor has them stripped.
        stats:
            Optional counters; worker-local stats are merged in.
        policy / injector:
            Run-scoped fault policy / fault injector.  ``None`` falls back
            to the backend-level configuration
            (:meth:`configure_faults`), so executors that carry their own
            policy can scope it to their runs without mutating a shared
            backend.
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
        cache: Optional[Dict[int, np.ndarray]],
        stats: Optional[PlanStats],
    ) -> None:
        """Warm the invariant cache once, in the calling process."""
        if cache is not None and not plan.cache_is_warm(cache):
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
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
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
            accumulated = _serial_accumulate_checkpointed(
                plan, network, assignments, cache, sum_batch_axes, stats,
                self._slots, checkpoint,
                injector if injector is not None else self.fault_injector,
            )
        else:
            accumulated = _serial_accumulate(
                plan, network, assignments, cache, sum_batch_axes, stats, self._slots
            )
        return _result_tensor(plan, accumulated, sum_batch_axes)


class _PooledBackend(ExecutionBackend):
    """Common chunking/merging machinery of the two pool backends."""

    def __init__(self, max_workers: int, chunk_size: Optional[int] = None) -> None:
        self.max_workers = int(max_workers)
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.chunk_size = int(chunk_size) if chunk_size is not None else None
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._slots = StemSlots()

    def _chunks(self, assignments: Sequence[Mapping[str, int]]) -> List[List]:
        """Positioned chunks; ~4 per worker by default to stream evenly."""
        items = list(enumerate(assignments))
        if self.chunk_size is not None:
            chunk_size = self.chunk_size
        else:
            chunk_size = max(1, math.ceil(len(items) / (4 * self.max_workers)))
        return _chunked(items, chunk_size)

    def _merge_ordered(
        self,
        plan: CompiledPlan,
        contributions: List[Optional[np.ndarray]],
        sum_batch_axes: int,
    ) -> Tensor:
        accumulated = contributions[0]
        assert accumulated is not None
        for contribution in contributions[1:]:
            assert contribution is not None
            accumulated += contribution
        return _result_tensor(plan, accumulated, sum_batch_axes)

    def _run_serially(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]],
        sum_batch_axes: int,
        stats: Optional[PlanStats],
        checkpoint: Optional[CheckpointJob] = None,
        injector: Optional[FaultInjector] = None,
    ) -> Tensor:
        if checkpoint is not None:
            accumulated = _serial_accumulate_checkpointed(
                plan, network, assignments, cache, sum_batch_axes, stats,
                self._slots, checkpoint, injector,
            )
        else:
            accumulated = _serial_accumulate(
                plan, network, assignments, cache, sum_batch_axes, stats, self._slots
            )
        return _result_tensor(plan, accumulated, sum_batch_axes)


class ThreadPoolBackend(_PooledBackend):
    """Distribute subtask chunks over a thread pool.

    numpy releases the GIL inside the contraction kernels, so threads
    amortize well when each subtask is large; per-subtask Python overhead
    is still serialized, which is where the process pool takes over.

    Parameters
    ----------
    max_workers:
        Thread count.
    chunk_size:
        Subtasks per work item; default streams ~4 chunks per thread.
    """

    name = "threads"

    def run_subtasks(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> Optional[Tensor]:
        if not assignments:
            return None
        self.warm(plan, network, cache, stats)
        if injector is None:
            injector = self.fault_injector
        if len(assignments) == 1 or self.max_workers == 1:
            return self._run_serially(
                plan, network, assignments, cache, sum_batch_axes, stats,
                checkpoint=checkpoint, injector=injector,
            )

        if policy is None:
            policy = self.fault_policy or FAIL_FAST
        contributions: List[Optional[np.ndarray]] = [None] * len(assignments)
        if checkpoint is not None:
            for position, loaded in checkpoint.loaded.items():
                contributions[position] = loaded
        thread_state = threading.local()
        chunks = self._chunks(assignments)

        def work(
            task: Tuple[List[Tuple[int, Mapping[str, int]]], Optional[Tuple[str, float]]]
        ) -> Tuple[PlanStats, Optional[List[int]], Optional[BaseException]]:
            chunk, directive = task
            local_stats = PlanStats()
            # one arena per pool thread, reused across its chunks
            slots = getattr(thread_state, "slots", None)
            if slots is None:
                slots = thread_state.slots = StemSlots()
            try:
                apply_directive(directive, in_process=True)
                results: List[np.ndarray] = []
                for _position, assignment in chunk:
                    tensor = plan.execute(
                        network, assignment, cache=cache, stats=local_stats, slots=slots
                    )
                    results.append(_owned_contribution(tensor, sum_batch_axes))
                # checksums over the honest results, corruption (if
                # injected) after — the coordinator's verify must catch it
                checksums = payload_checksums(results)
                corrupt_payload(directive, results)
                for (position, _), contribution in zip(chunk, results):
                    contributions[position] = contribution
            except Exception as exc:
                # the exception travels back as data: the submitting loop
                # decides whether to retry, degrade, or re-raise
                return local_stats, None, exc
            return local_stats, checksums, None

        # a chunk all of whose ordered slots came out of the ledger has
        # nothing left to execute
        pending = [
            index
            for index, chunk in enumerate(chunks)
            if any(contributions[position] is None for position, _ in chunk)
        ]
        attempts = [0] * len(chunks)
        failure: Optional[BaseException] = None
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            while pending and failure is None:
                tasks = [
                    (
                        chunks[i],
                        injector.directive_for_next_chunk()
                        if injector is not None
                        else None,
                    )
                    for i in pending
                ]
                retry_now: List[int] = []
                for chunk_index, (local_stats, checksums, exc) in zip(
                    pending, pool.map(work, tasks)
                ):
                    if exc is None:
                        positions = [p for p, _ in chunks[chunk_index]]
                        arrays = [contributions[p] for p in positions]
                        if not verify_payload(arrays, checksums):
                            # poisoned payload: clear the in-place writes
                            # so the retry (or degradation) recomputes
                            # them — never fold or persist corrupt slots
                            for position in positions:
                                contributions[position] = None
                            exc = ChunkIntegrityError(
                                f"chunk {chunk_index} failed its payload "
                                f"checksum"
                            )
                    if exc is None:
                        if stats is not None:
                            stats.merge(local_stats)
                        if checkpoint is not None:
                            checkpoint.record_chunk(positions, arrays)
                        if injector is not None:
                            apply_coordinator_directive(
                                injector.coordinator_directive_for_next_harvest()
                            )
                        continue
                    # a thread substrate has no pool to rebuild: every
                    # fault is a chunk-level fault, retried in place
                    if stats is not None:
                        stats.faults += 1
                    attempts[chunk_index] += 1
                    if attempts[chunk_index] > policy.chunk_retry_budget:
                        failure = exc
                        break
                    retry_now.append(chunk_index)
                if failure is None and retry_now:
                    with RecoveryClock(stats):
                        if stats is not None:
                            stats.retries += len(retry_now)
                        backoff = max(
                            policy.backoff(attempts[i] - 1) for i in retry_now
                        )
                        if backoff > 0:
                            time.sleep(backoff)
                pending = retry_now if failure is None else pending

        if failure is not None:
            if policy.mode == "degrade":
                # last rung of the chain for a thread run: fill the empty
                # ordered slots serially, in the calling thread
                from .resilience import fill_missing_serial

                fill_missing_serial(
                    plan, network, assignments, contributions, cache,
                    sum_batch_axes, stats, slots=self._slots,
                )
                if stats is not None and stats.degraded_to is None:
                    stats.degraded_to = "serial"
            elif policy.mode == "retry":
                raise RecoveryExhaustedError(
                    f"thread chunk failed after {policy.chunk_retry_budget} "
                    f"retries: {failure!r}",
                    contributions,
                ) from failure
            else:
                raise failure
        return self._merge_ordered(plan, contributions, sum_batch_axes)

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
        cache: Optional[Dict[int, np.ndarray]],
        sum_batch_axes: int,
        segments: List[shared_memory.SharedMemory],
    ) -> None:
        self.generation = generation
        self.plan = plan
        self.network: Optional[_LeafStore] = network
        self.cache = cache
        self.sum_batch_axes = sum_batch_axes
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
        self.cache = None
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
    generation, plan, leaf_meta, cache_meta, sum_batch_axes = payload
    segments: List[shared_memory.SharedMemory] = []
    try:
        tensors: Dict[int, Tensor] = {}
        for tid, (name, shape, dtype, indices) in leaf_meta.items():
            tensors[tid] = Tensor(
                indices, data=_shm_view((name, shape, dtype), segments)
            )
        cache: Optional[Dict[int, np.ndarray]] = None
        if cache_meta is not None:
            cache = {
                node: _shm_view(meta, segments) for node, meta in cache_meta.items()
            }
    except BaseException:
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - defensive
                pass
        raise
    return _WorkerState(
        generation, plan, _LeafStore(tensors), cache, sum_batch_axes, segments
    )


def _install_worker_state(payload: Tuple) -> "_WorkerState":
    """Replace this worker's state, closing the previous attachments."""
    global _WORKER_STATE
    state = _attach_state(payload)
    old, _WORKER_STATE = _WORKER_STATE, state
    if old is not None:
        old.close()
    if state.plan.tape_engine == "native":
        # JIT-compile the tape kernel now so the one-time numba
        # compilation cost lands in worker start-up, not in the first
        # chunk's latency; failure just disarms the native engine and
        # the worker falls back to the Python walker
        from .tape import warm_kernel

        # warm for the plan's actual dtype (explicit override or the
        # dtype derived from the leaves), not an assumed complex128
        warm_kernel(getattr(state.plan, "dtype", None) or np.complex128)
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
    task: Tuple[
        int,
        Optional[bytes],
        List[Tuple[int, Mapping[str, int]]],
        Optional[Tuple[str, float]],
    ]
) -> Tuple[int, List[np.ndarray], List[int], PlanStats, int]:
    """Execute one chunk in a worker.

    Returns ``(start, results, checksums, stats, pid)``.  ``task`` carries
    the session generation the chunk belongs to and — for post-republish
    generations — the pickled payload a stale (or freshly spawned) worker
    needs to re-initialize itself.  The pid lets the parent track which
    workers hold the current generation, so it can stop attaching the
    payload once all of them do.  The optional fourth element is a
    fault-injection directive (:mod:`repro.execution.faultinject`),
    applied before the chunk runs; ``None`` on every production chunk.
    The checksums are CRC-32s over each contribution, computed here —
    before any injected payload corruption — so the parent can verify the
    results survived the process boundary intact.
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
    local_stats = PlanStats()
    results: List[np.ndarray] = []
    for _, assignment in chunk:
        tensor = state.plan.execute(
            state.network,  # type: ignore[arg-type]
            assignment,
            cache=state.cache,
            stats=local_stats,
            slots=state.slots,
        )
        results.append(_owned_contribution(tensor, state.sum_batch_axes))
    checksums = payload_checksums(results)
    corrupt_payload(directive, results)
    return chunk[0][0], results, checksums, local_stats, os.getpid()


# ----------------------------------------------------------------------
# Shared-memory process pool — parent side
# ----------------------------------------------------------------------
#: How often the parent re-checks whether a queued chunk has started
#: running: a chunk's timeout clock starts at the first observation of its
#: running state, not at submission, so chunks queued behind a saturated
#: pool do not burn their budget while waiting for a worker.
_TIMEOUT_POLL_SECONDS = 0.05


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
    # snapshot before shutdown(): a draining shutdown clears the attribute
    processes = dict(getattr(pool, "_processes", None) or {})
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


class ExecutionSession:
    """Resident process-pool state of a :class:`SharedMemoryProcessPoolBackend`.

    A session keeps three things alive across ``run_subtasks`` calls that
    the per-call lifecycle used to rebuild every time: the
    ``ProcessPoolExecutor`` itself, the compiled plan shipped (pickled) to
    each worker through the pool initializer, and the shared-memory
    segments holding the leaf buffers and the warm invariant cache.

    Staleness is detected through a leaf-data snapshot fingerprint (the
    identity of the plan, of every leaf tensor, and of the cache buffers,
    plus the batch-axis count): a data-only tensor replacement or a plan
    recompilation *republishes* the segments and re-initializes the
    workers in place — the pool survives — while an axis-order mutation is
    recompiled upstream and surfaces here as
    :meth:`~ExecutionBackend.reset_session`, which rebuilds the session
    from scratch.  Republished state travels to workers via
    generation-tagged chunk payloads, so even a worker spawned lazily
    after a republish initializes correctly.

    Sessions are context managers with an idempotent :meth:`close`; a
    ``weakref.finalize`` guarantees the pool is drained and the segments
    unlinked even if ``close`` is never called, so no resource-tracker
    leak survives the session object.

    The session is also where pool *crash recovery* happens (see
    :mod:`repro.execution.resilience` for the policy layer): under a
    retrying/degrading :class:`~repro.execution.resilience.FaultPolicy`,
    a dead worker or timed-out chunk aborts the poisoned pool, unlinks
    the old generation's segments, republishes fresh ones and respawns
    the pool through the same :meth:`ensure` path a cold session uses —
    then re-runs only the chunks whose ordered slots are still empty, so
    the recovered result is bit-identical to a clean run.  A run that
    fails anyway marks the session *broken*; the next :meth:`ensure`
    resets it transparently.
    """

    def __init__(self, backend: "SharedMemoryProcessPoolBackend") -> None:
        self._backend = backend
        self._resources = _SessionResources()
        self._finalizer = weakref.finalize(
            self, _release_session_resources, self._resources
        )
        self._generation = 0
        self._blob: Optional[bytes] = None
        # the current generation's full payload, always retained: retried
        # chunks carry it so a worker whose state died (or was never
        # installed) can self-initialize during recovery
        self._payload_blob: Optional[bytes] = None
        # a failed run marks the session broken; the next ensure() resets
        # it transparently instead of crashing on stale pool/segment state
        self._broken = False
        # worker pids that confirmed holding the current generation; once
        # all max_workers did, chunks stop carrying the republish payload
        self._confirmed_pids: set = set()
        self._plan: Optional[CompiledPlan] = None
        self._leaf_tensors: Tuple[Tensor, ...] = ()
        self._cache_token: Optional[Tuple] = None
        # pinned so ``id``-based tokens cannot collide with recycled buffers
        self._cache_buffers: Tuple[np.ndarray, ...] = ()
        self._sum_batch_axes: Optional[int] = None
        #: How many times this session launched a process pool.
        self.pool_launches = 0
        #: How many times segments were (re)published.
        self.publications = 0

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the session has been closed."""
        return not self._finalizer.alive

    @property
    def pool_is_live(self) -> bool:
        """Whether a process pool is currently spawned."""
        return self._resources.pool is not None

    @property
    def generation(self) -> int:
        """The current publish generation (0 = spawn-time state)."""
        return self._generation

    def close(self) -> None:
        """Drain the pool and unlink every segment; safe to call twice."""
        self._finalizer()  # runs the release at most once
        self._drop_fingerprint()
        backend = self._backend
        if backend is not None and backend._session is self:
            backend._session = None

    def reset(self) -> None:
        """Tear down the pool and segments but keep the session usable.

        The next :meth:`run` spawns a fresh pool with newly published
        segments — the full-rebuild path for axis-order mutations.
        """
        if self.closed:
            return
        _release_session_resources(self._resources)
        self._drop_fingerprint()

    @property
    def broken(self) -> bool:
        """Whether the last run failed (healed transparently on next use)."""
        return self._broken

    def _drop_fingerprint(self) -> None:
        self._generation = 0
        self._blob = None
        self._payload_blob = None
        self._broken = False
        self._confirmed_pids = set()
        self._plan = None
        self._leaf_tensors = ()
        self._cache_token = None
        self._cache_buffers = ()
        self._sum_batch_axes = None

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def _cache_fingerprint(
        cache: Optional[Dict[int, np.ndarray]]
    ) -> Tuple[Optional[Tuple], Tuple[np.ndarray, ...]]:
        if cache is None:
            return None, ()
        items = sorted(cache.items())
        token = (id(cache), tuple((node, id(buffer)) for node, buffer in items))
        return token, tuple(buffer for _, buffer in items)

    def ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
    ) -> None:
        """Bring the resident state up to date for ``plan``/``network``.

        No-op when the fingerprint matches (the steady state: the pool and
        every segment are reused as-is).  Otherwise the segments are
        republished and — if no pool is live yet — the pool is spawned
        with the new payload as its initializer.

        A session whose previous run failed (worker crash, timeout,
        ``KeyboardInterrupt``, a raised chunk) is **broken**: its pool may
        be dead and its segment names stale.  Instead of crashing on that
        state, ensure resets the session first, so the next call after a
        failure transparently rebuilds — see
        :mod:`repro.execution.resilience`.
        """
        if self.closed:
            raise RuntimeError("execution session is closed")
        if self._broken:
            self.reset()
        try:
            self._ensure(plan, network, cache, sum_batch_axes)
        except BaseException:
            # a partially-republished session must not be reused as-is
            self._broken = True
            raise

    def _ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
    ) -> None:
        leaf_tensors = tuple(network.tensor(ls.tid) for ls in plan.leaf_steps)
        cache_token, cache_buffers = self._cache_fingerprint(cache)
        if (
            self._resources.pool is not None
            and plan is self._plan
            and leaf_tensors == self._leaf_tensors
            and cache_token == self._cache_token
            and sum_batch_axes == self._sum_batch_axes
        ):
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
                (0, plan, leaf_meta, cache_meta, sum_batch_axes),
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
                (self._generation, plan, leaf_meta, cache_meta, sum_batch_axes),
                protocol=pickle.HIGHEST_PROTOCOL,
            )

        self._plan = plan
        self._leaf_tensors = leaf_tensors
        self._cache_token = cache_token
        self._cache_buffers = cache_buffers
        self._sum_batch_axes = sum_batch_axes

    def _publish(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Optional[Dict[int, np.ndarray]],
    ) -> Tuple[Dict, Optional[Dict]]:
        """Copy the needed buffers into fresh shared-memory segments."""
        segments = self._resources.segments

        def publish(array: np.ndarray) -> Tuple[str, Tuple[int, ...], str]:
            array = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
            segments.append(segment)
            np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
            return segment.name, array.shape, array.dtype.str

        # ship only what the workers will read: the slice-dependent leaves
        # when the invariant cache covers the rest, every leaf otherwise
        if cache is not None:
            needed = [ls for ls in plan.leaf_steps if ls.node in plan.dependent_nodes]
            cache_meta: Optional[Dict[int, Tuple[str, Tuple[int, ...], str]]] = {
                node: publish(buffer) for node, buffer in cache.items()
            }
        else:
            needed = list(plan.leaf_steps)
            cache_meta = None
        leaf_meta = {}
        for ls in needed:
            tensor = network.tensor(ls.tid)
            name, shape, dtype = publish(tensor.require_data())
            leaf_meta[ls.tid] = (name, shape, dtype, tensor.indices)
        return leaf_meta, cache_meta

    # ------------------------------------------------------------------
    def run(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> List[Optional[np.ndarray]]:
        """Stream chunks through the resident pool; per-position results.

        The caller (the backend) folds the returned contributions strictly
        in assignment order, so session reuse — and crash recovery, which
        only ever re-runs chunks whose ordered slots are still empty —
        cannot perturb the ordered-accumulation contract.

        ``policy`` (default: the backend's, else fail-fast) governs what
        happens on a fault: a dead worker or stuck chunk tears the pool
        down and, with rebuild budget remaining, the pool is respawned
        with the segments republished under a new generation and only the
        missing chunks are re-submitted; a raised chunk is re-submitted
        with backoff up to its retry budget.  Any failure that propagates
        marks the session broken, so the next call transparently rebuilds
        instead of crashing on stale state.

        ``checkpoint`` (an open durable ledger) pre-fills slots persisted
        by a previous run and write-ahead-records each harvested chunk —
        the rung of recovery that survives this whole *process* dying.
        """
        if policy is None:
            policy = self._backend.fault_policy or FAIL_FAST
        if injector is None:
            injector = self._backend.fault_injector
        self.ensure(plan, network, cache, sum_batch_axes)
        try:
            return self._run_resilient(
                plan, network, assignments, cache, sum_batch_axes, stats,
                policy, injector, checkpoint,
            )
        except BaseException:
            self._broken = True
            raise

    def _submit_chunk(
        self,
        pool: ProcessPoolExecutor,
        chunk: List[Tuple[int, Mapping[str, int]]],
        is_retry: bool,
        injector: Optional[FaultInjector],
    ):
        """Submit one chunk, attaching payload/directive as needed."""
        if is_retry:
            # a retried chunk may land on a worker whose state died with
            # the fault (or on a freshly respawned pool): always carry
            # the payload so the worker can self-initialize
            blob = self._payload_blob
        else:
            blob = self._blob
        directive = (
            injector.directive_for_next_chunk() if injector is not None else None
        )
        return pool.submit(
            _run_chunk, (self._generation, blob, chunk, directive)
        )

    def _run_resilient(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]],
        sum_batch_axes: int,
        stats: Optional[PlanStats],
        policy: FaultPolicy,
        injector: Optional[FaultInjector],
        checkpoint: Optional[CheckpointJob] = None,
    ) -> List[Optional[np.ndarray]]:
        chunks = self._backend._chunks(assignments)
        contributions: List[Optional[np.ndarray]] = [None] * len(assignments)
        if checkpoint is not None:
            for position, loaded in checkpoint.loaded.items():
                contributions[position] = loaded
        # a chunk's *own* raised exceptions, counted against its retry
        # budget.  Pool-wide faults (worker death, a timed-out chunk
        # poisoning the pool) are budgeted separately through ``rebuilds``
        # — a rebuild must not eat an unrelated chunk's documented
        # per-chunk retries.
        failures = [0] * len(chunks)
        # chunks all of whose ordered slots came out of the ledger have
        # nothing left to execute (a partially-covered chunk re-runs
        # whole: deterministic subtasks make the overwrite bit-identical,
        # and already-durable slots are skipped by the ledger's record)
        pending = [
            index
            for index, chunk in enumerate(chunks)
            if any(contributions[position] is None for position, _ in chunk)
        ]
        rebuilds = 0

        def harvest(future) -> None:
            start, results, checksums, local_stats, pid = future.result()
            if not verify_payload(results, checksums):
                # poisoned payload: discard before it can reach an ordered
                # slot or the ledger; raises into the chunk-failure path
                raise ChunkIntegrityError(
                    f"chunk starting at position {start} failed its "
                    f"payload checksum"
                )
            for offset, contribution in enumerate(results):
                contributions[start + offset] = contribution
            if stats is not None:
                stats.merge(local_stats)
            self._confirmed_pids.add(pid)
            if checkpoint is not None:
                checkpoint.record_chunk(
                    range(start, start + len(results)), results
                )
            if injector is not None:
                # coordinator-side faults fire here, after the chunk's
                # slots are durable — InjectedCoordinatorDeath is a
                # BaseException, so no recovery path below intercepts it
                apply_coordinator_directive(
                    injector.coordinator_directive_for_next_harvest()
                )

        while pending:
            pool = self._resources.pool
            assert pool is not None
            submitted: List[Tuple[int, object]] = []
            pool_fault: Optional[BaseException] = None
            try:
                for chunk_index in pending:
                    future = self._submit_chunk(
                        pool,
                        chunks[chunk_index],
                        failures[chunk_index] > 0 or rebuilds > 0,
                        injector,
                    )
                    submitted.append((chunk_index, future))
            except BrokenExecutor as exc:
                pool_fault = exc

            done: List[int] = []
            retry_now: List[int] = []
            if pool_fault is None:
                index_of = {future: chunk_index for chunk_index, future in submitted}
                budgets = {
                    future: policy.chunk_timeout(len(chunks[index]))
                    for future, index in index_of.items()
                }
                # each chunk's deadline starts when it is first observed
                # running (or done), so harvesting happens in completion
                # order and a wedged chunk cannot accrue free time behind
                # slower siblings; observation granularity (the poll
                # interval) is folded into the timeout's safety factor
                deadlines: Dict[object, float] = {}
                outstanding = set(index_of)
                while outstanding and pool_fault is None:
                    now = time.monotonic()
                    wait_timeout: Optional[float] = None
                    for future in outstanding:
                        if future in deadlines or budgets[future] is None:
                            continue
                        if future.running() or future.done():
                            deadlines[future] = now + budgets[future]
                        else:
                            # queued with a timeout: poll until it starts
                            wait_timeout = _TIMEOUT_POLL_SECONDS
                    expired = [
                        index_of[f]
                        for f in outstanding
                        if f in deadlines and deadlines[f] <= now and not f.done()
                    ]
                    if expired:
                        # a timed-out chunk may be wedged inside a live
                        # worker — ProcessPoolExecutor cannot cancel a
                        # running task, so the timeout poisons the pool
                        pool_fault = FuturesTimeoutError(
                            f"chunks {sorted(expired)} exceeded their "
                            f"timeout budgets"
                        )
                        break
                    remaining = [
                        deadlines[f] - now for f in outstanding if f in deadlines
                    ]
                    if remaining:
                        nearest = max(0.0, min(remaining))
                        wait_timeout = (
                            nearest
                            if wait_timeout is None
                            else min(wait_timeout, nearest)
                        )
                    completed, _ = futures_wait(
                        outstanding, timeout=wait_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in completed:
                        chunk_index = index_of[future]
                        outstanding.discard(future)
                        try:
                            harvest(future)
                        except BrokenExecutor as exc:
                            # a dead worker poisons the pool
                            pool_fault = exc
                            break
                        except KeyboardInterrupt:
                            raise
                        except Exception as exc:
                            # chunk-level failure: the pool survives, only
                            # this chunk is re-submitted
                            if stats is not None:
                                stats.faults += 1
                            failures[chunk_index] += 1
                            if failures[chunk_index] > policy.chunk_retry_budget:
                                if policy.mode == "fail-fast":
                                    raise
                                raise RecoveryExhaustedError(
                                    f"chunk {chunk_index} failed "
                                    f"{failures[chunk_index]} times: {exc!r}",
                                    contributions,
                                ) from exc
                            retry_now.append(chunk_index)
                        else:
                            done.append(chunk_index)

            if pool_fault is not None:
                # worker death or stuck chunk: the pool is poisoned.
                # Keep every contribution that already completed, then
                # rebuild and re-run only the still-empty slots.
                if stats is not None:
                    stats.faults += 1
                for chunk_index, future in submitted:
                    if chunk_index in done:
                        continue
                    try:
                        if future.done() and future.exception() is None:
                            harvest(future)
                            done.append(chunk_index)
                    except Exception:  # pragma: no cover - defensive
                        pass
                pending = [i for i in pending if i not in done]
                timed_out = isinstance(pool_fault, FuturesTimeoutError)
                if rebuilds >= policy.pool_rebuild_budget:
                    # reset() drains the pool (shutdown(wait=True)), which
                    # a wedged worker would block forever — hard-stop the
                    # workers first so the terminal error actually raises
                    # and a degrading caller can take over
                    _abort_pool(self._resources.pool)
                    self._resources.pool = None
                    self.reset()
                    if policy.mode == "fail-fast":
                        if timed_out:
                            raise ChunkTimeoutError(
                                f"chunk exceeded its timeout budget "
                                f"({len(pending)} chunks unfinished)"
                            ) from pool_fault
                        raise pool_fault
                    raise RecoveryExhaustedError(
                        f"pool fault with rebuild budget exhausted "
                        f"({rebuilds} rebuilds used, {len(pending)} chunks "
                        f"unfinished): {pool_fault!r}",
                        contributions,
                    ) from pool_fault
                rebuilds += 1
                if stats is not None:
                    stats.retries += len(pending)
                self._rebuild_after_fault(
                    plan, network, cache, sum_batch_axes, stats,
                    backoff=policy.backoff(rebuilds - 1),
                )
                continue

            if retry_now:
                with RecoveryClock(stats):
                    if stats is not None:
                        stats.retries += len(retry_now)
                    backoff = max(
                        policy.backoff(failures[i] - 1) for i in retry_now
                    )
                    if backoff > 0:
                        time.sleep(backoff)
            pending = retry_now

        if (
            self._blob is not None
            and len(self._confirmed_pids) >= self._backend.max_workers
        ):
            # every worker the pool will ever have (it never respawns dead
            # ones — it breaks instead) holds this generation: later
            # chunks no longer need to carry the republish payload
            self._blob = None
        return contributions

    def _rebuild_after_fault(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Optional[Dict[int, np.ndarray]],
        sum_batch_axes: int,
        stats: Optional[PlanStats],
        backoff: float = 0.0,
    ) -> None:
        """Crash recovery: hard-stop the pool, republish, respawn.

        The dead pool's workers are terminated (a stuck worker would
        otherwise keep its segment attachments alive), the previous
        generation's segments are unlinked and fresh ones published, and
        a new pool is spawned with the new payload as its initializer —
        all through the same :meth:`ensure` path a cold session uses, so
        recovery cannot diverge from a clean start.
        """
        with RecoveryClock(stats):
            _abort_pool(self._resources.pool)
            self._resources.pool = None
            if backoff > 0:
                time.sleep(backoff)
            # pool is gone -> ensure republishes the segments under a new
            # generation and spawns a fresh pool
            self._ensure(plan, network, cache, sum_batch_axes)

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
    each call runs in an ephemeral session (spawn, run, drain, unlink —
    the pre-session behaviour).

    Wins over threads for many-small-subtask workloads, where per-subtask
    interpreter overhead (plan bookkeeping, leaf slicing) dominates the
    GIL-free GEMM time.

    Parameters
    ----------
    max_workers:
        Process count.
    chunk_size:
        Subtasks per work item; default streams ~4 chunks per worker.
    """

    name = "process-pool"

    def __init__(self, max_workers: int, chunk_size: Optional[int] = None) -> None:
        super().__init__(max_workers, chunk_size)
        self._session: Optional[ExecutionSession] = None

    # ------------------------------------------------------------------
    def session(
        self,
        plan: Optional[CompiledPlan] = None,
        network: Optional[TensorNetwork] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
    ) -> ExecutionSession:
        """Open (or reuse) the backend's persistent :class:`ExecutionSession`.

        With ``plan`` and ``network`` supplied the session is eagerly
        warmed: the invariant cache is computed, the segments published
        and the pool spawned before the first ``run_subtasks`` call.
        Without them the session starts idle and materializes on first
        use — the form long-lived callers that build their plan later
        (e.g. a sampling run) use.
        """
        session = self._session
        if session is None or session.closed:
            session = ExecutionSession(self)
            self._session = session
        if plan is not None:
            if network is None:
                raise ValueError("session(plan=...) also requires network=")
            self.warm(plan, network, cache, stats)
            session.ensure(plan, network, cache, sum_batch_axes)
        return session

    def close(self) -> None:
        """Close the active session (idempotent)."""
        session, self._session = self._session, None
        if session is not None:
            session.close()

    def reset_session(self) -> None:
        """Rebuild path for axis-order mutations: drop pool and segments."""
        session = self._session
        if session is not None and not session.closed:
            session.reset()

    # ------------------------------------------------------------------
    def run_subtasks(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> Optional[Tensor]:
        if not assignments:
            return None
        self.warm(plan, network, cache, stats)
        if policy is None:
            policy = self.fault_policy or FAIL_FAST
        if injector is None:
            injector = self.fault_injector
        if len(assignments) == 1 or self.max_workers == 1:
            return self._run_serially(
                plan, network, assignments, cache, sum_batch_axes, stats,
                checkpoint=checkpoint, injector=injector,
            )
        try:
            session = self._session
            if session is not None and not session.closed:
                contributions = session.run(
                    plan, network, assignments, cache, sum_batch_axes, stats,
                    policy=policy, injector=injector, checkpoint=checkpoint,
                )
            else:
                with ExecutionSession(self) as scratch:
                    contributions = scratch.run(
                        plan, network, assignments, cache, sum_batch_axes,
                        stats, policy=policy, injector=injector,
                        checkpoint=checkpoint,
                    )
        except RecoveryExhaustedError as exc:
            if policy.mode != "degrade":
                raise
            # pool recovery ran out: finish the empty ordered slots on
            # the degradation chain.  Filled slots keep their bit-exact
            # pool-computed contributions, so the final fold is identical
            # to a clean run.
            contributions = list(exc.contributions)
            if len(contributions) != len(assignments):
                contributions = [None] * len(assignments)
            for substrate in policy.degradation_chain:
                try:
                    run_degraded(
                        substrate, plan, network, assignments, contributions,
                        cache, sum_batch_axes, stats, self.max_workers,
                    )
                except Exception:
                    continue
                if stats is not None and stats.degraded_to is None:
                    stats.degraded_to = substrate
                break
            missing = [i for i, c in enumerate(contributions) if c is None]
            if missing:
                raise RecoveryExhaustedError(
                    f"degradation chain {policy.degradation_chain} left "
                    f"{len(missing)} slots unfilled",
                    contributions,
                ) from exc
        return self._merge_ordered(plan, contributions, sum_batch_axes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedMemoryProcessPoolBackend(max_workers={self.max_workers})"
