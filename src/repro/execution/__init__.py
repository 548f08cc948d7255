"""Execution engines: numerical contraction, sliced execution, performance simulation.

Executor architecture
---------------------
Numerical contraction has two paths that are cross-checked against each
other (and, for small circuits, against the dense state-vector simulator):

* **Reference path** — ``TreeExecutor`` /
  ``SlicedExecutor(mode="reference")``: a deliberately simple einsum walker
  that re-builds spec strings, re-slices every leaf and re-contracts the
  whole tree for every call.  Slow, obviously correct, never optimized —
  it is the oracle of the equivalence tests.
* **Compiled path** (default) — :mod:`repro.execution.plan` compiles a
  contraction tree once into a :class:`CompiledPlan`: one step list of
  explicit GEMM layouts (with a precompiled einsum fallback for hyper
  indices), per-leaf slicing instructions, a lifetime-derived free/reuse
  schedule and an arena layout (every buffer a subtask writes has a
  compile-time offset in the one per-worker arena a :class:`StemSlots`
  holds, sized :attr:`CompiledPlan.arena_bytes`).
  One Python walker executes that list everywhere, on one path: warm the
  invariant cache once (intermediates whose subtree no sliced edge's
  lifetime reaches), resume the dependent part per subtask, flush the
  fold stack.  ``contract_tree`` runs a plan once over a cache of its
  own; on top of the plan, :class:`SlicedExecutor` shares one cache
  across all ``prod w(e)`` subtasks and adds *pluggable scheduling*
  (``backend=``): the subtasks run through an :class:`ExecutionBackend`
  (see the guide below).

Backend selection guide
-----------------------
*What* to contract (the compiled plan) is separate from *how* the subtasks
are scheduled (the backend).  All backends accumulate subtask results in
the same order and are **bit-identical** to each other; pick by workload
shape:

=============================== =====================================================
Backend                         Use when
=============================== =====================================================
(none: the default)              Anything: serial until a timed block shows that
                                forked twins pay for the rest, then split with
                                them (inside a session, kept across runs) —
                                bitwise ``SerialBackend``.
``SerialBackend``               A serial run or a serial reference: zero
                                scheduling overhead, never a fork.
``ThreadPoolBackend``           Few *large* subtasks: numpy releases the GIL inside
                                the contraction kernels, so threads share the
                                invariant cache for free and scale with GEMM time.
``SharedMemoryProcessPool-``    Many *small* subtasks: the per-subtask Python
``Backend``                     overhead (leaf slicing, step dispatch) serializes a
                                thread pool; children forked from the warm parent
                                inherit the plan, the leaves and the invariant
                                cache, and each process — the parent too — sweeps
                                its own range with no interpreter contention.
``DistributedBackend``          More subtask work than one node: chunks stream
                                over TCP sockets to remote worker
                                *processes* after a one-time plan/leaf/cache
                                broadcast — localhost workers are spawned
                                automatically, multi-node workers are reached via
                                ``"distributed:host:port,..."`` — see
                                :mod:`repro.execution.distributed` for topology,
                                failure semantics and the measured strong-scaling
                                sweep (:func:`measure_strong_scaling`).
=============================== =====================================================

``mode="reference"`` (and ``executor_mode="reference"`` on
:class:`CorrelatedSampler`) rejects ``backend=`` with the same
``ValueError`` on every entry point.

Session lifecycle
-----------------
The process-pool backend forks its crew — ``max_workers - 1`` children
that inherit the plan, the leaves and the warm invariant cache
copy-on-write — per ``run_subtasks`` call *unless* a persistent
:class:`ExecutionSession` is open.  A session keeps the children alive
between runs::

    backend = SharedMemoryProcessPoolBackend(max_workers=8)
    executor = SlicedExecutor(network, tree, sliced, backend=backend)
    with executor.session():          # or: with backend.session(plan, network, cache):
        first = executor.run()        # the crew forked when the session opened
        second = executor.run()       # warm: the same children

Staleness is tracked with a leaf-data snapshot fingerprint:

* **match** — the steady state: nothing is forked again;
* **data-only tensor replacement or plan recompilation** — the crew is
  *re-forked* from the parent's current state.  The data-only case is the
  steady state of a sampling run: :class:`CorrelatedSampler` rebinds each
  bitstring's leaf data into one resident plan (on the distributed
  backend :meth:`CorrelatedSampler.session` amortizes the plan
  broadcast).  A sampler without a backend gets a sampling session
  instead, which splits each batch with one forked twin once the inline
  sweeps would have paid for the fork;
* **axis-order mutation** — the session is rebuilt from scratch
  (``reset_session``).

``close()`` is idempotent and also runs via a finalizer at garbage
collection, so the children are always killed and reaped.  Serial and
thread backends return a no-op
:class:`NullExecutionSession`, so session-scoped code is uniform across
backends, and every path stays bit-identical to :class:`SerialBackend`.

Fault tolerance & degradation
-----------------------------
:mod:`repro.execution.resilience` holds the one description — and the
one implementation — of the recovery model: a
:class:`~repro.execution.resilience.FaultPolicy` (default **fail-fast**;
``FaultPolicy.retrying()`` / ``FaultPolicy.degrading()`` opt into
recovery) says what is allowed, and a single chunk scheduler
(:func:`~repro.execution.resilience.run_chunks`) enforces it behind the
thread, process-pool and distributed backends alike.  Because the
backends fold per-position contributions strictly in assignment order
*after* all slots are filled, recovered and degraded runs are
**bit-identical** to a clean serial run.  Policy and injector are
run-scoped (``fault_policy=`` / ``fault_injector=`` on the executors,
``policy=`` / ``injector=`` on ``run_subtasks``); deterministic fault
*injection* for tests lives in :mod:`repro.execution.faultinject`;
recovery counters (``retries``, ``faults``, ``degraded_to``,
``recovery_seconds``) land on :class:`PlanStats`.

Durability: :mod:`repro.execution.checkpoint` extends the recovery story
past the coordinator process itself.  ``SlicedExecutor.run(resume=...)``
(or a policy carrying ``checkpoint_dir``) write-ahead persists each
completed ordered slot to a :class:`CheckpointStore` ledger keyed by a
content fingerprint of the run; after a coordinator crash the next run
with the same fingerprint re-runs only the missing slots and — thanks to
the same ordered-accumulation contract — returns a result bit-identical
to an uninterrupted run on every backend/engine combination.  Payload
integrity is end-to-end: per-contribution CRC-32s travel with every
chunk, and a corrupted payload (:exc:`ChunkIntegrityError`) is retried
like any other chunk fault, never persisted.

``PlanStats`` instruments execution with per-node step counters (plus a
slot-write counter) so tests and benchmarks can assert how often each
contraction actually ran — and with per-subtask / per-stage wall times,
which are the measured input of the calibrated cost model
(:mod:`repro.costs`): fit one with ``SlicedExecutor.calibration_record()``
→ ``CalibratedCostModel.fit(...)``, or from the bench JSON via
``CalibratedCostModel.from_bench_json``.
"""

from .backend import (
    ExecutionBackend,
    ExecutionSession,
    NullExecutionSession,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    ThreadPoolBackend,
    resolve_backend,
    validate_execution_args,
)
from .checkpoint import (
    CheckpointError,
    CheckpointJob,
    CheckpointStore,
    job_fingerprint,
)
from .contract import TreeExecutor, contract_tree
from .distributed import (
    ClusterTransport,
    DistributedBackend,
    DistributedSession,
    DistributedWorkerError,
    LocalSocketTransport,
    SocketTransport,
    TransportClosed,
    TransportError,
)
from .faultinject import (
    FaultInjector,
    FaultSpec,
    InjectedCoordinatorDeath,
    InjectedFault,
)
from .plan import (
    CompiledPlan,
    ContractStep,
    LeafStep,
    PlanError,
    PlanStats,
    StemSlots,
    SweepCost,
    compile_plan,
)
from .resilience import (
    ChunkIntegrityError,
    ChunkTimeoutError,
    FaultError,
    FaultPolicy,
    RecoveryExhaustedError,
)
from .sliced import SlicedExecutor, SubtaskResult
from .fused import ThreadLevelSimulator, ThreadTiming
from .sampling import CorrelatedSampleBatch, CorrelatedSampler, linear_xeb_fidelity
from .scaling import (
    GORDON_BELL_2021_PFLOPS,
    HeadlineProjection,
    MeasuredScalingPoint,
    ProcessScheduler,
    ScalingPoint,
    measure_strong_scaling,
    strong_scaling,
    weak_scaling,
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
    "ClusterTransport",
    "DistributedBackend",
    "DistributedSession",
    "DistributedWorkerError",
    "LocalSocketTransport",
    "SocketTransport",
    "TransportClosed",
    "TransportError",
    "CheckpointError",
    "CheckpointJob",
    "CheckpointStore",
    "job_fingerprint",
    "ChunkIntegrityError",
    "ChunkTimeoutError",
    "FaultError",
    "FaultInjector",
    "FaultPolicy",
    "FaultSpec",
    "InjectedCoordinatorDeath",
    "InjectedFault",
    "RecoveryExhaustedError",
    "TreeExecutor",
    "contract_tree",
    "CompiledPlan",
    "ContractStep",
    "LeafStep",
    "PlanError",
    "PlanStats",
    "StemSlots",
    "SweepCost",
    "compile_plan",
    "SlicedExecutor",
    "SubtaskResult",
    "CorrelatedSampleBatch",
    "CorrelatedSampler",
    "linear_xeb_fidelity",
    "ThreadLevelSimulator",
    "ThreadTiming",
    "GORDON_BELL_2021_PFLOPS",
    "HeadlineProjection",
    "MeasuredScalingPoint",
    "ProcessScheduler",
    "ScalingPoint",
    "measure_strong_scaling",
    "strong_scaling",
    "weak_scaling",
]
