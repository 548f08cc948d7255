"""The unified cost model the planning layers share.

Every planning stage of the paper reasons about cost — path search ranks
candidate trees, the slice finder trades memory against recomputation, the
batch-group selector trades rank against BLAS batching, and the §6.2
projections turn per-subtask time into machine-scale wall time.  Before
this module each of those layers carried its own estimator (raw flop
counts in :mod:`repro.paths.optimizer`, lifetime heuristics in
:mod:`repro.core.slice_finder`, a size tie-break in
:mod:`repro.execution.sliced`, homogeneous subtask times in
:mod:`repro.execution.scaling`).  :class:`CostModel` is the one interface
they now consume:

* :meth:`CostModel.subtask_seconds` — predicted wall time of one slicing
  subtask (one full execution of the compiled plan) on a given execution
  backend;
* :meth:`CostModel.tree_cost` — the scalar the tree search minimizes
  (predicted seconds of the unsliced contraction);
* :meth:`CostModel.select_batch_group` — the lifetime-aware auto
  batch-group choice: the largest group of sliced indices whose live batch
  axes keep every intermediate under the memory target.

:class:`AnalyticCostModel` implements the protocol from first principles:
per contraction step it takes the flops and the memory traffic implied by
the contraction tree and applies the roofline of
:class:`~repro.hardware.spec.SunwaySpec` (compute-bound above the ridge
point, bandwidth-bound below).  It needs no measurements and is the
default whenever no calibration data exists.
:class:`~repro.costs.calibration.CalibratedCostModel` fits the same
interface to per-backend timings measured by the execution backends.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Optional, Tuple

from ..hardware.spec import COMPLEX64_BYTES, SW26010PRO, SunwaySpec
from ..tensornet.contraction_tree import ContractionTree
from .batching import select_batch_group

__all__ = ["AnalyticCostModel", "CostModel", "CostModelError"]


class CostModelError(ValueError):
    """Raised when a cost model cannot produce the requested prediction."""


class CostModel:
    """Protocol for predicted-time models over contraction trees.

    Subclasses implement :meth:`subtask_seconds`; every other prediction
    derives from it.  Predictions are in seconds so they compose directly
    with :class:`~repro.execution.scaling.ProcessScheduler` and the
    measured timings of :class:`~repro.execution.plan.PlanStats`.

    Parameters
    ----------
    memory_target_rank:
        Optional memory target used by :meth:`select_batch_group`; when
        set, ``batch_indices="auto"`` on the sliced executor becomes
        lifetime-aware group selection against this bound.
    """

    def __init__(self, memory_target_rank: Optional[int] = None) -> None:
        self.memory_target_rank = (
            int(memory_target_rank) if memory_target_rank is not None else None
        )

    # ------------------------------------------------------------------
    def subtask_seconds(
        self,
        tree: ContractionTree,
        sliced: AbstractSet[str] = frozenset(),
        backend: Optional[str] = None,
    ) -> float:
        """Predicted wall time of one subtask under ``sliced`` on ``backend``."""
        raise NotImplementedError

    def tree_cost(
        self,
        tree: ContractionTree,
        sliced: AbstractSet[str] = frozenset(),
        backend: Optional[str] = None,
    ) -> float:
        """The scalar the tree search minimizes: per-subtask predicted seconds."""
        return self.subtask_seconds(tree, sliced, backend=backend)

    def total_seconds(
        self,
        tree: ContractionTree,
        sliced: AbstractSet[str] = frozenset(),
        backend: Optional[str] = None,
    ) -> float:
        """Predicted serial time over all ``prod w(e)`` subtasks."""
        return tree.num_subtasks(sliced) * self.subtask_seconds(
            tree, sliced, backend=backend
        )

    def timeout_budget(
        self,
        tree: ContractionTree,
        sliced: AbstractSet[str] = frozenset(),
        backend: Optional[str] = None,
        subtasks: int = 1,
        safety: float = 20.0,
        floor: float = 1.0,
    ) -> float:
        """Wall-time budget before ``subtasks`` subtasks count as stuck.

        ``safety`` times the predicted seconds, floored at ``floor`` — the
        bridge between the calibrated predictions and the per-chunk
        timeouts of :class:`~repro.execution.resilience.FaultPolicy` (see
        :meth:`FaultPolicy.derived_from
        <repro.execution.resilience.FaultPolicy.derived_from>`).  Raises
        :exc:`CostModelError` when the prediction itself is unavailable or
        non-finite, so callers can fall back to running timeout-free.
        """
        if safety <= 0:
            raise ValueError("safety multiplier must be positive")
        if subtasks < 1:
            raise ValueError("subtasks must be >= 1")
        seconds = self.subtask_seconds(tree, sliced, backend=backend)
        if not math.isfinite(seconds) or seconds < 0:
            raise CostModelError(
                f"predicted subtask seconds are unusable for a timeout "
                f"budget: {seconds!r}"
            )
        return max(float(floor), safety * subtasks * seconds)

    def select_batch_group(
        self,
        tree: ContractionTree,
        sliced: AbstractSet[str],
        memory_target_rank: Optional[int] = None,
    ) -> Tuple[str, ...]:
        """Lifetime-aware auto batch group under this model's memory target.

        See :func:`repro.costs.batching.select_batch_group`; the target
        defaults to the model's own ``memory_target_rank``.
        """
        target = (
            memory_target_rank
            if memory_target_rank is not None
            else self.memory_target_rank
        )
        if target is None:
            raise CostModelError(
                "select_batch_group needs a memory target; pass "
                "memory_target_rank= here or on the model"
            )
        return select_batch_group(tree, sliced, target)

    @staticmethod
    def subtask_flops(
        tree: ContractionTree, sliced: AbstractSet[str] = frozenset()
    ) -> float:
        """Real flops of one subtask (8 per complex multiply-add, Eq. 1)."""
        return 8.0 * tree.contraction_cost(frozenset(sliced))

    @staticmethod
    def dependent_subtask_flops(
        tree: ContractionTree, sliced: AbstractSet[str] = frozenset()
    ) -> float:
        """Real flops of the *slice-dependent* work of one subtask.

        With the invariant cache warm (the executors' steady state, and
        what the per-subtask wall-time samples measure), each subtask
        recontracts only the nodes in the slice-dependent set; the
        invariant remainder was computed once up front.  An empty slicing
        set means the single subtask runs everything, so the full Eq. 1
        cost is returned.
        """
        sliced = frozenset(sliced)
        if not sliced:
            return CostModel.subtask_flops(tree)
        from ..core.lifetime import slice_dependent_nodes

        dependent = slice_dependent_nodes(tree, sliced)
        return 8.0 * sum(
            2.0 ** tree.node_log2_flops(node, sliced)
            for node in tree.internal_nodes()
            if node in dependent
        )

    @staticmethod
    def dependent_step_count(
        tree: ContractionTree, sliced: AbstractSet[str] = frozenset()
    ) -> int:
        """Pair contractions per subtask on the cache-warm path."""
        sliced = frozenset(sliced)
        if not sliced:
            return len(tree.internal_nodes())
        from ..core.lifetime import slice_dependent_nodes

        dependent = slice_dependent_nodes(tree, sliced)
        return sum(1 for node in tree.internal_nodes() if node in dependent)

    def subtask_work_flops(
        self, tree: ContractionTree, sliced: AbstractSet[str] = frozenset()
    ) -> float:
        """Flops of the work this model's :meth:`subtask_seconds` covers.

        Sustained-rate bookkeeping must divide flops by the time of the
        *same* work: the analytic model times a full uncached subtask
        (Eq. 1 flops), while the calibrated model times the cache-warm
        dependent portion — each overrides accordingly.
        """
        return self.subtask_flops(tree, sliced)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(memory_target_rank={self.memory_target_rank})"


class AnalyticCostModel(CostModel):
    """Roofline-based predictions derived from the machine spec alone.

    Each contraction step reads both operands and writes its output; its
    time is modelled as the roofline maximum of the compute time (flops
    over the achievable GEMM rate) and the memory time (traffic over the
    DMA bandwidth), the same split §5.1 uses to argue TNC is bandwidth
    bound for narrow GEMMs.  The backend argument is accepted for
    interface uniformity only — the analytic model describes the hardware,
    not the scheduling substrate.

    Parameters
    ----------
    spec:
        Machine description supplying the peak rate and bandwidth.
    element_bytes:
        Bytes per tensor element (single-precision complex by default).
    memory_target_rank:
        Optional memory target for :meth:`CostModel.select_batch_group`.
    """

    def __init__(
        self,
        spec: SunwaySpec = SW26010PRO,
        element_bytes: int = COMPLEX64_BYTES,
        memory_target_rank: Optional[int] = None,
    ) -> None:
        super().__init__(memory_target_rank)
        self.spec = spec
        self.element_bytes = int(element_bytes)

    # ------------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """Achievable compute rate of one node (peak × GEMM efficiency)."""
        return self.spec.peak_flops_per_node * self.spec.gemm_peak_fraction

    @property
    def memory_bandwidth(self) -> float:
        """Aggregate DMA bandwidth of one node."""
        return self.spec.dma_bandwidth * self.spec.cgs_per_node

    def _roofline_seconds(self, flops: float, traffic_bytes: float) -> float:
        """Roofline maximum of compute time and memory time."""
        return max(flops / self.peak_flops, traffic_bytes / self.memory_bandwidth)

    def step_seconds(self, log2_flops: float, log2_traffic_elements: float) -> float:
        """Roofline time of one contraction step.

        Parameters
        ----------
        log2_flops:
            log2 of the step's scalar multiply-adds (Eq. 1 term).
        log2_traffic_elements:
            log2 of the elements moved (both operands plus the output).
        """
        return self._roofline_seconds(
            8.0 * 2.0**log2_flops, self.element_bytes * 2.0**log2_traffic_elements
        )

    def subtask_seconds(
        self,
        tree: ContractionTree,
        sliced: AbstractSet[str] = frozenset(),
        backend: Optional[str] = None,
    ) -> float:
        sliced = frozenset(sliced)
        total = 0.0
        for node in tree.internal_nodes():
            a, b = tree.children(node)  # type: ignore[misc]
            traffic = (
                2.0 ** tree.node_log2_size(a, sliced)
                + 2.0 ** tree.node_log2_size(b, sliced)
                + 2.0 ** tree.node_log2_size(node, sliced)
            )
            total += self._roofline_seconds(
                8.0 * 2.0 ** tree.node_log2_flops(node, sliced),
                self.element_bytes * traffic,
            )
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalyticCostModel(peak={self.peak_flops:.3g} flop/s, "
            f"bw={self.memory_bandwidth:.3g} B/s, "
            f"memory_target_rank={self.memory_target_rank})"
        )
