"""Sliced contraction execution with result accumulation.

The process-level strategy of the paper: after choosing a slicing set ``S``,
the ``prod w(e)`` independent subtasks are executed (in parallel across
nodes on the real machine; here through a pluggable
:class:`~repro.execution.backend.ExecutionBackend`) and their results are
summed.  Each subtask fixes every sliced index to one value and contracts
the whole network with the same contraction tree; because the sliced
indices are inner (summed) indices, the sum of the subtask results equals
the unsliced contraction exactly — a property the test suite checks both
exhaustively and with hypothesis.

:class:`SlicedExecutor` executes the subtasks through a
:class:`~repro.execution.plan.CompiledPlan` by default (``mode="compiled"``):
the tree is compiled once into ``tensordot`` axis pairs, slice-invariant
intermediates — subtrees no sliced edge's lifetime reaches — are contracted
once and shared across every subtask, and every buffer the rest writes has a
compile-time offset in one per-worker arena.
``mode="reference"`` selects the seed einsum walker, which re-plans and
re-contracts everything per subtask; it is the path everything else is
cross-checked against.

*How* the subtasks run — serial, split with forked twins (the default),
thread pool, forked process pool — is the backend's concern
(``backend=``); see
:mod:`repro.execution.backend` for the selection guide.  All backends sum
contributions in the same order and are bit-identical to each other.

:class:`SlicedExecutor` also supports partial execution (a subset of the
subtasks), which is what the sampling workflows use, and reports per-subtask
statistics that the process-level scheduler consumes.

A run's assignments are never materialised: the backends receive a small
read-only sequence that decodes subtask ids on demand (mixed radix over the
plan's sweep order, :attr:`SlicedExecutor.sliced`), and a serial sweep over
it *resumes* — consecutive subtasks differ in a suffix of that order only,
so each recontracts just the nodes those indices reach
(:meth:`CompiledPlan.execute`).  The order is the compiled plan's choice
(:func:`repro.core.lifetime.plan_folded_sweep`): the cheapest reach varies
fastest, or — when the plan folds inside — the indices a block sums over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs.model import CostModel
    from .faultinject import FaultInjector
    from .resilience import FaultPolicy

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from ..tensornet.tensor import Tensor
from .backend import ExecutionBackend, resolve_backend, validate_execution_args
from .checkpoint import CheckpointJob, CheckpointStore, job_fingerprint
from .contract import TreeExecutor
from .plan import CompiledPlan, PlanStats, compile_plan

__all__ = ["SlicedExecutor", "SubtaskResult"]


class _Assignments:
    """The assignments of a run of subtask ids, decoded on demand.

    A read-only sequence (``len``, indexing, iteration) over ``ids``: entry
    ``k`` is the mixed-radix decoding of ``ids[k]`` over ``labels`` (the
    plan's sweep order) — last label fastest, so ascending ids enumerate
    the assignments in the order the plan's levels were compiled for.
    Nothing is stored per subtask.
    """

    __slots__ = ("_labels", "_sizes", "_ids")

    def __init__(
        self, labels: Sequence[str], sizes: Sequence[int], ids: Sequence[int]
    ) -> None:
        self._labels = tuple(labels)
        self._sizes = tuple(sizes)
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, position: int) -> Dict[str, int]:
        remaining = self._ids[position]
        values = [0] * len(self._sizes)
        for axis in range(len(values) - 1, -1, -1):
            remaining, values[axis] = divmod(remaining, self._sizes[axis])
        return dict(zip(self._labels, values))

    def __iter__(self) -> Iterator[Dict[str, int]]:
        labels, sizes, ids = self._labels, self._sizes, self._ids
        if isinstance(ids, range) and ids == range(math.prod(sizes)):
            # every id in ascending order: the decodings are the product
            return (dict(zip(labels, values)) for values in product(*map(range, sizes)))
        return map(self.__getitem__, range(len(ids)))


@dataclass(frozen=True)
class SubtaskResult:
    """Result of one slicing subtask.

    Attributes
    ----------
    assignment:
        The values assigned to the sliced indices.
    tensor:
        The subtask's (partial) result tensor.
    """

    assignment: Dict[str, int]
    tensor: Tensor


class SlicedExecutor:
    """Executes a sliced contraction and accumulates the subtask results.

    Parameters
    ----------
    network:
        Concrete tensor network.
    tree:
        Contraction tree over the network.
    sliced:
        Slicing set.  Every sliced index must be an *inner* index of the
        network (slicing an open index would partition the output instead of
        decomposing the sum, which is not what the paper's scheme does).
    dtype:
        Optional dtype override for intermediates.
    mode:
        ``"compiled"`` (default) executes through a compiled plan, which
        computes the slice-invariant intermediates once and reuses them
        across all subtasks; ``"reference"`` uses the seed einsum walker.
        Replacing a network tensor via ``replace_tensor`` between runs is
        detected and invalidates that cache; mutating a tensor's numpy
        buffer *in place* is not — treat tensor data as immutable (as the
        rest of the codebase does) or construct a fresh executor after
        such a mutation.
    batch_indices:
        Accepted for the benchmark's batched variant and otherwise ignored:
        ``"auto"`` or a group of sliced indices runs the same plan as
        ``None``.  A repeated index, an index outside the sliced set or
        reference mode still raises ``ValueError``.
    backend:
        The :class:`~repro.execution.backend.ExecutionBackend` that
        schedules the subtasks.  Compiled mode only.  The default runs a
        sweep serially until its block 1 shows that forked twins pay for
        the rest (:func:`repro.forking.pool_pays`, in a process with one
        native thread); then the parent sweeps one contiguous range of the
        rest while each twin sweeps another, and adds their contributions
        in position order — the bits are :class:`SerialBackend`'s, which is
        the one to name for a serial run.  A run with a checkpoint ledger
        or a fault injector stays serial.  Wrap consecutive :meth:`run`
        calls in ``with executor.session(): ...`` to keep the backend's
        resident state alive between them: the default's twins (which
        then split every run from its first block, and which short runs
        earn by adding up their seconds), the process pool's children.
    cost_model:
        Optional :class:`~repro.costs.CostModel`.  Derives the per-chunk
        timeouts of a ``fault_policy`` and lets :meth:`calibration_record`
        package this executor's measured timings for
        :class:`~repro.costs.CalibratedCostModel`.  ``None`` keeps every
        decision bit-identical to the uncalibrated behaviour.
    fused:
        Accepted for the benchmark's fused variant and otherwise ignored:
        ``True`` runs the same plan as ``False``.  Compiled mode only.
    fault_policy:
        Optional :class:`~repro.execution.resilience.FaultPolicy`
        governing crash recovery, retries/timeouts and degradation for
        this executor's runs (default: the backend's own configuration,
        else fail fast — the pre-resilience behaviour).  The policy is
        scoped to this executor: it rides along with every
        ``run_subtasks`` call instead of being installed on the (possibly
        shared) backend.  When a ``cost_model`` is present and the policy
        carries no explicit timeout, per-chunk timeouts are derived from
        the model's predicted subtask seconds
        (:meth:`~repro.costs.CostModel.timeout_budget`).  Recovered runs
        are bit-identical to clean ones.  Compiled mode only.
    fault_injector:
        Optional deterministic
        :class:`~repro.execution.faultinject.FaultInjector` (testing
        hook): injects scheduled worker kills, delays and chunk failures
        at submission time.  Compiled mode only.
    """

    def __init__(
        self,
        network: TensorNetwork,
        tree: ContractionTree,
        sliced: AbstractSet[str],
        dtype: Optional[np.dtype] = None,
        mode: str = "compiled",
        batch_indices: Union[str, Sequence[str], None] = None,
        backend: Optional[ExecutionBackend] = None,
        cost_model: Optional["CostModel"] = None,
        fused: bool = False,
        fault_policy: Optional["FaultPolicy"] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.network = network
        self.tree = tree
        self._labels: Tuple[str, ...] = tuple(sorted(sliced))
        inner = network.inner_indices()
        bad = [ix for ix in self._labels if ix not in inner]
        if bad:
            raise ValueError(f"sliced indices {bad} are not inner indices of the network")
        validate_execution_args(mode, backend=backend)
        if not isinstance(fused, bool):
            raise ValueError(f"fused must be True or False, got {fused!r}")
        if fused and mode == "reference":
            raise ValueError("fused execution requires the compiled mode")
        self.mode = mode
        self._sizes = {ix: network.size_of(ix) for ix in self._labels}
        self._dtype = np.dtype(dtype) if dtype is not None else None
        self._backend = resolve_backend(backend) if mode == "compiled" else None
        self.cost_model = cost_model
        self._check_batch_spec(batch_indices, mode)
        self._configure_faults(fault_policy, fault_injector)

        #: Per-node execution counters (compiled mode); a run contracts each
        #: slice-invariant node exactly once.
        self.stats = PlanStats()
        self._executor = TreeExecutor(dtype=dtype) if mode == "reference" else None
        self._plan: Optional[CompiledPlan] = None
        self._cache: Dict[int, np.ndarray] = {}
        self._leaf_tensors: Tuple = ()
        if mode == "compiled":
            self._compile_plan()

    def _check_batch_spec(self, spec: Union[str, Sequence[str], None], mode: str) -> None:
        """Refuse what ``batch_indices=`` has always refused; select nothing."""
        if spec is None:
            return
        if mode == "reference":
            raise ValueError("batched execution requires the compiled mode")
        if spec == "auto":
            return
        group: Tuple[str, ...] = (spec,) if isinstance(spec, str) else tuple(spec)
        if len(set(group)) != len(group):
            raise ValueError(f"repeated batch indices in {group}")
        for ix in group:
            if ix not in self._labels:
                raise ValueError(f"batch index {ix!r} is not in the sliced set")

    def _configure_faults(
        self,
        fault_policy: Optional["FaultPolicy"],
        fault_injector: Optional["FaultInjector"],
    ) -> None:
        """Resolve the fault policy/injector this executor's runs will use.

        A policy without explicit timeouts borrows its per-chunk budget
        from the cost model's calibrated predictions when one is present
        (``timeout_safety`` times the predicted subtask seconds); a model
        that cannot predict this backend leaves the run timeout-free.

        The resolved pair is kept on the executor and passed to every
        ``run_subtasks`` call, scoping it to this executor's runs: a
        shared backend is never mutated, and other users of the same
        backend keep their own (or no) fault configuration.
        """
        if (fault_policy is not None or fault_injector is not None) and (
            self._backend is None
        ):
            raise ValueError("fault_policy/fault_injector require the compiled mode")
        if fault_policy is not None and self.cost_model is not None:
            assert self._backend is not None
            fault_policy = fault_policy.derived_from(
                self.cost_model,
                self.tree,
                frozenset(self._labels),
                backend=self._backend.name,
            )
        self._fault_policy = fault_policy
        self._fault_injector = fault_injector

    # ------------------------------------------------------------------
    @property
    def sliced(self) -> Tuple[str, ...]:
        """The sliced indices in sweep order, slowest-varying first.

        Subtask ids are the mixed-radix encoding of an assignment over this
        order, so ascending ids walk the sweep the plan was compiled for
        (:attr:`CompiledPlan.sliced`).  Reference mode sweeps sorted labels.
        """
        return self._plan.sliced if self._plan is not None else self._labels

    @property
    def backend(self) -> Optional[ExecutionBackend]:
        """The execution backend (``None`` in reference mode)."""
        return self._backend

    @property
    def fault_policy(self) -> Optional["FaultPolicy"]:
        """The run-scoped fault policy (timeouts already derived), if any."""
        return self._fault_policy

    @property
    def fault_injector(self) -> Optional["FaultInjector"]:
        """The run-scoped fault injector (testing hook), if any."""
        return self._fault_injector

    @property
    def plan(self) -> Optional[CompiledPlan]:
        """The compiled plan (``None`` in reference mode)."""
        return self._plan

    @property
    def num_subtasks(self) -> int:
        """Total number of independent subtasks ``prod w(e)``."""
        return math.prod(self._sizes.values())

    def assignments(self) -> Iterator[Dict[str, int]]:
        """Iterate over every slicing assignment in sweep (subtask id) order."""
        return iter(self._assignments_of(range(self.num_subtasks)))

    def assignment(self, subtask_id: int) -> Dict[str, int]:
        """The assignment of subtask ``subtask_id`` (mixed-radix decoding)."""
        return self._assignments_of(self._valid_ids([subtask_id]))[0]

    def _valid_ids(self, ids: Sequence[int]) -> Sequence[int]:
        total = self.num_subtasks
        for subtask_id in ids:
            if not 0 <= subtask_id < total:
                raise ValueError(f"subtask id {subtask_id} out of range")
        return ids

    def _assignments_of(self, ids: Sequence[int]) -> _Assignments:
        """The lazy assignment sequence of (valid) subtask ``ids``."""
        order = self.sliced
        return _Assignments(order, [self._sizes[ix] for ix in order], ids)

    # ------------------------------------------------------------------
    def _compile_plan(self) -> None:
        """Compile the plan and reset its cache."""
        self._plan = compile_plan(
            self.network,
            self.tree,
            frozenset(self._labels),
            dtype=self._dtype,
        )
        self._cache = self._plan.new_cache()
        self._snapshot_leaves()

    def _snapshot_leaves(self) -> None:
        # Tensor objects are immutable, so identity comparison of the
        # snapshot detects any replace_tensor on a leaf
        self._leaf_tensors = tuple(
            self.network.tensor(tid) for tid in self.tree.leaf_tids
        )

    def _refresh_stale_plan(self) -> None:
        """React to network mutations since the plan was compiled.

        An axis-order change invalidates the baked take/tensordot axes and
        forces a recompile; a data-only change (same index structure)
        keeps the plan but must drop the warmed invariant cache, which
        holds intermediates contracted from the old data.
        """
        if self._plan is None:
            return
        if not self._plan.matches_network(self.network):
            # an axis-order mutation invalidates every buffer layout a
            # backend session holds, so the session is rebuilt from scratch
            self._compile_plan()
            if self._backend is not None:
                self._backend.reset_session()
            return
        current = tuple(self.network.tensor(tid) for tid in self.tree.leaf_tids)
        if current != self._leaf_tensors:
            self._cache.clear()
            self._leaf_tensors = current

    def session(self):
        """Open (or reuse) the backend's persistent execution session.

        Scopes pool reuse across consecutive :meth:`run` calls on this
        executor::

            with executor.session():       # forks the pool's children
                first = executor.run()
                second = executor.run()    # the same children — warm

        The session is primed with the plan :meth:`run` executes; opening
        it forks nothing.  The default backend's session keeps its twins
        forked across runs (re-forking them only for another plan, a
        rebound leaf or new cache buffers); other in-process backends
        return a no-op session, so the pattern is uniform across backends;
        results are bit-identical with and without a session.  Compiled
        mode only.
        """
        if self._backend is None:
            raise ValueError("session requires the compiled mode")
        self._refresh_stale_plan()
        if self.num_subtasks <= 1:
            # a one-assignment run always takes the backend's in-process
            # serial path, so don't eagerly spawn a pool it will never use
            return self._backend.session()
        return self._backend.session(self._plan, self.network, self._cache, stats=self.stats)

    def run_subtask(self, subtask_id: int) -> SubtaskResult:
        """Execute a single subtask."""
        self._refresh_stale_plan()
        return self._subtask_result(subtask_id)

    def _subtask_result(self, subtask_id: int) -> SubtaskResult:
        """One subtask without the staleness check (hot-loop internal)."""
        assignment = self.assignment(subtask_id)
        plan = self._plan
        if plan is not None:
            tensor = plan.execute(
                self.network, assignment, cache=self._cache, stats=self.stats
            )
        else:
            assert self._executor is not None
            tensor = self._executor.execute(self.network, self.tree, assignment)
        return SubtaskResult(assignment=assignment, tensor=tensor)

    def run(
        self,
        subtask_ids: Optional[Sequence[int]] = None,
        resume: Union[CheckpointStore, str, "os.PathLike", None] = None,
    ) -> Tensor:
        """Execute subtasks and return the accumulated result.

        Parameters
        ----------
        subtask_ids:
            Which subtasks to run; ``None`` runs them all (yielding the
            exact contraction value).  Running a subset gives a partial sum,
            which is only meaningful for diagnostics.
        resume:
            Arm durable checkpointing through a
            :class:`~repro.execution.checkpoint.CheckpointStore` (or a
            directory path one is opened on).  Each completed ordered slot
            is write-ahead persisted; if this run (or a previous one with
            the same content fingerprint) is interrupted — including a
            coordinator crash — calling :meth:`run` again with the same
            store re-runs only the missing slots and returns a result
            bit-identical to an uninterrupted run.  A fingerprint mismatch
            invalidates the old ledger and starts clean.  A
            :class:`~repro.execution.resilience.FaultPolicy` carrying
            ``checkpoint_dir`` arms the same machinery without the
            explicit argument.  Compiled mode only.
        """
        self._refresh_stale_plan()
        store = self._checkpoint_store(resume)
        ids: Sequence[int] = (
            range(self.num_subtasks)
            if subtask_ids is None
            else self._valid_ids(list(subtask_ids))
        )
        if not ids:
            raise ValueError("no subtasks were executed")
        plan = self._plan
        if plan is not None:
            assert self._backend is not None
            assignments = self._assignments_of(ids)
            checkpoint = self._open_checkpoint_job(store, plan, assignments)
            try:
                result = self._backend.run_subtasks(
                    plan,
                    self.network,
                    assignments,
                    cache=self._cache,
                    stats=self.stats,
                    policy=self._fault_policy,
                    injector=self._fault_injector,
                    checkpoint=checkpoint,
                )
            except BaseException:
                # keep the ledger (flushed + unlocked) for the next attempt
                if checkpoint is not None:
                    checkpoint.close()
                raise
            if checkpoint is not None:
                checkpoint.complete()
            assert result is not None
            return result
        return self._run_reference(ids)

    def _checkpoint_store(
        self, resume: Union[CheckpointStore, str, "os.PathLike", None]
    ) -> Optional[CheckpointStore]:
        """Resolve the checkpoint store arming this run, if any.

        Explicit ``resume`` wins; otherwise a fault policy carrying
        ``checkpoint_dir`` auto-arms (which is how the resident executors
        of :class:`~repro.execution.sampling.CorrelatedSampler` inherit
        durability, one ledger per base bitstring).  Construction fails
        fast on unwritable roots.
        """
        if isinstance(resume, CheckpointStore):
            store: Optional[CheckpointStore] = resume
        elif resume is not None:
            store = CheckpointStore(resume)
        elif (
            self._fault_policy is not None
            and self._fault_policy.checkpoint_dir is not None
        ):
            store = CheckpointStore(self._fault_policy.checkpoint_dir)
        else:
            store = None
        if store is not None and self.mode != "compiled":
            raise ValueError("checkpointed execution requires the compiled mode")
        return store

    def _open_checkpoint_job(
        self,
        store: Optional[CheckpointStore],
        plan: CompiledPlan,
        assignments: Sequence[Mapping[str, int]],
    ) -> Optional[CheckpointJob]:
        """Open (or resume) this run's ledger and bind the live stats.

        The job is keyed by :func:`~repro.execution.checkpoint.job_fingerprint`
        over the leaf data, tree, assignment schedule, fold (inner fold
        included), policy shape and chunking — so a resumed
        ledger is only trusted for byte-for-byte the same run, on any
        backend/engine combination.  It holds one slot per block.
        """
        if store is None:
            return None
        chunk_size = getattr(self._backend, "chunk_size", None)
        fingerprint = job_fingerprint(
            self.network,
            self.tree,
            self._labels,
            assignments,
            dtype=getattr(plan, "dtype", None) or self._dtype,
            policy=self._fault_policy,
            chunk_size=chunk_size,
            fold=(
                (plan.fold_node, plan.contribution_shape, plan.inner_fold)
                if plan.fold_node != plan.tree.root or plan.inner_fold is not None
                else None
            ),
        )
        job = store.job(
            fingerprint,
            sum(1 for _ in plan.blocks(assignments)),
            every=(
                self._fault_policy.checkpoint_every
                if self._fault_policy is not None
                else 1
            ),
            policy=self._fault_policy,
            chunk_size=chunk_size,
        )
        job.attach_stats(self.stats)
        return job

    def _run_reference(self, ids: Sequence[int]) -> Tensor:
        """Accumulate subtasks through the reference einsum walker."""
        accumulated: Optional[np.ndarray] = None
        result_indices: Optional[Tuple[str, ...]] = None
        result_sizes: Optional[Dict[str, int]] = None
        for subtask_id in ids:
            result = self._subtask_result(subtask_id)
            data = result.tensor.require_data()
            if accumulated is None:
                accumulated = np.array(data, copy=True)
                result_indices = result.tensor.indices
                result_sizes = result.tensor.sizes()
            else:
                accumulated += data
        assert accumulated is not None
        assert result_indices is not None and result_sizes is not None
        return Tensor(result_indices, data=accumulated, sizes=result_sizes)

    def amplitude(
        self,
        subtask_ids: Optional[Sequence[int]] = None,
        resume: Union[CheckpointStore, str, "os.PathLike", None] = None,
    ) -> complex:
        """Accumulated scalar value (requires a closed network)."""
        tensor = self.run(subtask_ids, resume=resume)
        data = tensor.require_data()
        if data.size != 1:
            raise ValueError("network is not closed; use run() instead")
        return complex(data.reshape(()))

    # ------------------------------------------------------------------
    def calibration_record(self, backend_name: Optional[str] = None):
        """Package this executor's measured timings for model calibration.

        Returns a :class:`~repro.costs.CalibrationRecord` built from the
        per-subtask wall times accumulated in :attr:`stats`; feed a list
        of them to :meth:`~repro.costs.CalibratedCostModel.fit`.
        """
        from ..costs.calibration import CalibrationRecord

        if backend_name is None:
            backend_name = self._backend.name if self._backend is not None else "serial"
        return CalibrationRecord.from_stats(
            self.stats, self.tree, frozenset(self._labels), backend_name
        )
