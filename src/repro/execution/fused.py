"""Thread-level execution simulation: step-by-step versus fused (Fig. 12/13).

The real machine executes each slicing subtask on one core group: the stem
tensor lives in main memory and every contraction step is carried out by
the 64 CPEs.  The paper compares two schedules:

* **step-by-step** (previous work): every contraction step DMA-gets its
  operands into the LDMs, permutes, multiplies and DMA-puts the result —
  memory access dominates and the kernels sit far below the Roofline ridge;
* **fused** (secondary slicing, §5): a whole sub-path runs inside LDM
  between one DMA-get and one DMA-put, with the scattered main-memory
  accesses repaired by the cooperative DMA + RMA scheme of §5.3.2 and the
  permutation maps compressed by the recursion formula of §5.3.1.

:class:`ThreadLevelSimulator` produces the per-component timing breakdown
(memory access / permutation / GEMM) of both schedules from the analytical
hardware models, which is exactly the data plotted in Fig. 12, plus the
achieved flop rate and arithmetic intensity needed for the Roofline of
Fig. 13.

This module *models* the Sunway hardware from the group boundaries of
:class:`~repro.core.secondary.SecondarySlicer`.  What *executes* for real
is the compiled-plan layer (:mod:`repro.execution.plan`), whose one walker
runs the whole step list without grouping it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from ..core.secondary import FusedPlan, SecondarySlicer
from ..core.stem import Stem
from ..hardware.dma import (
    DMAEngine,
    RMAEngine,
    cooperative_transfer_time,
    naive_strided_transfer_time,
)
from ..hardware.gemm import GEMMModel, GEMMShape
from ..hardware.roofline import RooflineModel, RooflinePoint
from ..hardware.spec import COMPLEX64_BYTES, SW26010PRO, SunwaySpec

__all__ = ["ThreadTiming", "ThreadLevelSimulator"]


@dataclass
class ThreadTiming:
    """Timing breakdown of one subtask's stem execution on one core group.

    Attributes
    ----------
    label:
        Schedule name (``"step-by-step"`` or ``"fused"``).
    memory_access_seconds:
        DMA time between main memory and the LDMs.
    rma_seconds:
        CPE↔CPE data-rearrangement time (only used by the fused schedule's
        cooperative transfers).
    permutation_seconds:
        In-LDM tensor permutation time before the GEMM kernels.
    gemm_seconds:
        Matrix-multiplication time.
    flops:
        Real floating-point operations executed.
    dma_bytes:
        Bytes moved between main memory and the LDMs.
    """

    label: str
    memory_access_seconds: float = 0.0
    rma_seconds: float = 0.0
    permutation_seconds: float = 0.0
    gemm_seconds: float = 0.0
    flops: float = 0.0
    dma_bytes: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Wall time of the schedule (components execute back to back)."""
        return (
            self.memory_access_seconds
            + self.rma_seconds
            + self.permutation_seconds
            + self.gemm_seconds
        )

    @property
    def arithmetic_intensity(self) -> float:
        """flop per DMA byte (the Roofline x-coordinate)."""
        return self.flops / self.dma_bytes if self.dma_bytes else math.inf

    @property
    def achieved_flops(self) -> float:
        """Sustained flop rate of the schedule."""
        return self.flops / self.total_seconds if self.total_seconds else 0.0

    def roofline_point(self) -> RooflinePoint:
        """This schedule as a point on the Roofline plot."""
        return RooflinePoint(
            label=self.label,
            arithmetic_intensity=self.arithmetic_intensity,
            achieved_flops=self.achieved_flops,
        )

    def breakdown(self) -> Dict[str, float]:
        """Component times as a plain dict (used by the Fig. 12 bench)."""
        return {
            "memory_access": self.memory_access_seconds,
            "rma": self.rma_seconds,
            "permutation": self.permutation_seconds,
            "gemm": self.gemm_seconds,
            "total": self.total_seconds,
        }


class ThreadLevelSimulator:
    """Analytical simulator of one core group executing a stem.

    Parameters
    ----------
    spec:
        Machine description.
    element_bytes:
        Element width (single-precision complex by default).
    cooperative_dma:
        Whether the fused schedule uses the §5.3.2 cooperative DMA + RMA
        scheme (disable to reproduce the "<0.1 % of peak" naive behaviour).
    reduced_permutation_maps:
        Whether the §5.3.1 recursion-formula maps are used (disabling falls
        back to in-situ address computation, modelled as a constant-factor
        slowdown of the permutation passes).
    in_situ_penalty:
        Cost multiplier of in-situ address computation relative to a stored
        map (the paper quotes "more than 10 times the cost" for rank-10
        tensors).
    """

    def __init__(
        self,
        spec: SunwaySpec = SW26010PRO,
        element_bytes: int = COMPLEX64_BYTES,
        cooperative_dma: bool = True,
        reduced_permutation_maps: bool = True,
        in_situ_penalty: float = 10.0,
    ) -> None:
        self.spec = spec
        self.element_bytes = int(element_bytes)
        self.cooperative_dma = bool(cooperative_dma)
        self.reduced_permutation_maps = bool(reduced_permutation_maps)
        self.in_situ_penalty = float(in_situ_penalty)
        self.dma = DMAEngine(spec)
        self.rma = RMAEngine(spec)
        self.gemm = GEMMModel(spec)
        # aggregate LDM access bandwidth of one CG (permutations stream
        # through LDM at SRAM speed on all 64 CPEs simultaneously)
        self.ldm_stream_bandwidth = self.gemm.ldm_access_bandwidth * spec.cpes_per_cg

    # ------------------------------------------------------------------
    # Shared per-step quantities
    # ------------------------------------------------------------------
    def _step_sizes(
        self, stem: Stem, position: int, process_sliced: AbstractSet[str]
    ) -> Tuple[float, float, float, float]:
        """(input log2, branch log2, output log2, contracted log2) of a step."""
        tree = stem.tree
        step = stem.steps[position]
        if position == 0:
            in_ix = frozenset(tree.node_indices(stem.start_node)) - process_sliced
        else:
            in_ix = stem.steps[position - 1].result_indices - process_sliced
        branch_ix = step.branch_indices - process_sliced
        out_ix = step.result_indices - process_sliced
        in_log2 = sum(tree.log2_index_size(ix) for ix in in_ix)
        branch_log2 = sum(tree.log2_index_size(ix) for ix in branch_ix)
        out_log2 = sum(tree.log2_index_size(ix) for ix in out_ix)
        contracted_log2 = (in_log2 + branch_log2 - out_log2) / 2.0
        return in_log2, branch_log2, out_log2, contracted_log2

    def _gemm_seconds(
        self, in_log2: float, branch_log2: float, contracted_log2: float
    ) -> Tuple[float, float]:
        """(seconds on one CG, flops) of one contraction step."""
        flops = 8.0 * 2.0 ** (in_log2 + branch_log2 - contracted_log2)
        # distribute the GEMM over the CG's CPEs: each handles 1/64 of the
        # independent m-rows (or of the secondary subtasks)
        per_cpe_shape = self.gemm.contraction_shape(
            max(in_log2 - math.log2(self.spec.cpes_per_cg), contracted_log2),
            branch_log2,
            contracted_log2,
        )
        fraction = self.gemm.achievable_fraction(per_cpe_shape)
        seconds = flops / (self.spec.peak_flops_per_cg * fraction)
        return seconds, flops

    def _permutation_seconds(self, elements: float, rank: float) -> float:
        """Time to permute ``elements`` elements inside LDM before a GEMM."""
        bytes_moved = 2.0 * elements * self.element_bytes  # one read + one write pass
        seconds = bytes_moved / self.ldm_stream_bandwidth
        if not self.reduced_permutation_maps:
            seconds *= self.in_situ_penalty
        return seconds

    # ------------------------------------------------------------------
    # Step-by-step schedule
    # ------------------------------------------------------------------
    def simulate_step_by_step(
        self,
        stem: Stem,
        process_sliced: AbstractSet[str] = frozenset(),
        steps: Optional[Sequence[int]] = None,
    ) -> ThreadTiming:
        """Timing of the unfused schedule over (a range of) the stem."""
        timing = ThreadTiming(label="step-by-step")
        positions = range(len(stem.steps)) if steps is None else steps
        for position in positions:
            in_log2, branch_log2, out_log2, contracted_log2 = self._step_sizes(
                stem, position, process_sliced
            )
            moved_elements = 2.0**in_log2 + 2.0**branch_log2 + 2.0**out_log2
            moved_bytes = moved_elements * self.element_bytes
            # contiguous tiles per CPE: granularity is the per-CPE share
            granularity = max(
                moved_bytes / self.spec.cpes_per_cg / 8.0, self.element_bytes
            )
            timing.memory_access_seconds += self.dma.transfer_time(moved_bytes, granularity)
            timing.dma_bytes += moved_bytes
            timing.permutation_seconds += self._permutation_seconds(
                2.0**in_log2 + 2.0**branch_log2, in_log2
            )
            gemm_seconds, flops = self._gemm_seconds(in_log2, branch_log2, contracted_log2)
            timing.gemm_seconds += gemm_seconds
            timing.flops += flops
        return timing

    # ------------------------------------------------------------------
    # Fused schedule
    # ------------------------------------------------------------------
    def simulate_fused(
        self,
        plan: FusedPlan,
        process_sliced: AbstractSet[str] = frozenset(),
    ) -> ThreadTiming:
        """Timing of the fused (secondary-slicing) schedule of a planned stem."""
        timing = ThreadTiming(label="fused")
        stem = plan.stem
        for group in plan.groups:
            in_elements = 2.0 ** len(group.input_indices)
            out_elements = 2.0 ** len(group.output_indices)
            # branch tensors still stream in once per step (they are small)
            branch_elements = 0.0
            for position in range(group.start, group.stop):
                _, branch_log2, _, _ = self._step_sizes(stem, position, process_sliced)
                branch_elements += 2.0**branch_log2

            moved_bytes = (in_elements + out_elements + branch_elements) * self.element_bytes
            timing.dma_bytes += moved_bytes

            if self.cooperative_dma:
                transfer = cooperative_transfer_time(moved_bytes, self.spec)
                timing.memory_access_seconds += transfer.dma_seconds
                timing.rma_seconds += transfer.rma_seconds
            else:
                # scattered sub-tensor access: contiguous runs shrink to the
                # trailing unsliced block, often a single element
                transfer = naive_strided_transfer_time(
                    moved_bytes, float(self.element_bytes), self.spec
                )
                timing.memory_access_seconds += transfer.dma_seconds

            for position in range(group.start, group.stop):
                in_log2, branch_log2, out_log2, contracted_log2 = self._step_sizes(
                    stem, position, process_sliced
                )
                # inside LDM the secondary-sliced indices are absent; across
                # all secondary subtasks the full stem data is permuted once
                # per step, and the (shared) branch tensor once per step
                sliced_log2 = sum(
                    stem.tree.log2_index_size(ix)
                    for ix in group.secondary_sliced
                    if ix not in process_sliced
                )
                ldm_in = max(in_log2 - sliced_log2, 0.0)
                stem_elements_all_subtasks = 2.0**ldm_in * group.num_subtasks
                timing.permutation_seconds += self._permutation_seconds(
                    stem_elements_all_subtasks + 2.0**branch_log2, ldm_in
                )
                gemm_seconds, flops = self._gemm_seconds(in_log2, branch_log2, contracted_log2)
                timing.gemm_seconds += gemm_seconds
                timing.flops += flops
        return timing

    # ------------------------------------------------------------------
    def compare(
        self,
        stem: Stem,
        process_sliced: AbstractSet[str] = frozenset(),
        ldm_rank: Optional[int] = None,
    ) -> Dict[str, ThreadTiming]:
        """Plan with :class:`SecondarySlicer` and simulate both schedules."""
        slicer = SecondarySlicer(ldm_rank=ldm_rank, spec=self.spec)
        plan = slicer.plan(stem, process_sliced=process_sliced)
        return {
            "step-by-step": self.simulate_step_by_step(stem, process_sliced),
            "fused": self.simulate_fused(plan, process_sliced),
        }

    def roofline(self) -> RooflineModel:
        """Roofline model of one core group (for Fig. 13)."""
        return RooflineModel(spec=self.spec)
