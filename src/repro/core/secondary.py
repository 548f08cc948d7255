"""Secondary slicing: the fused thread-level design (§5 of the paper).

At the thread level the memory bound is the 256 KB LDM of each CPE (a
rank-13 single-precision tensor).  Executing the contraction path step by
step means a DMA-get and a DMA-put around *every* step, which leaves the
kernels bandwidth bound (§5.1).  The paper's fused design instead:

1.  at a start position on the stem, slices the indices of the current stem
    tensor with the **longest lifetime** — by Definition 1 these are exactly
    the indices that will *not* be contracted during the following steps,
    so the slices assigned to different CPEs stay independent;
2.  DMA-gets the remaining (kept) sub-tensor into LDM once;
3.  executes as many stem steps as possible inside LDM, stopping when the
    lifetime of any secondary-sliced index ends (that index is about to be
    contracted) or when a stem tensor no longer fits the LDM;
4.  DMA-puts the result back — the put *is* the stacking operation, so the
    secondary slicing carries **no computational overhead** (§5.2).

:class:`SecondarySlicer` produces a :class:`FusedPlan` — the list of fused
groups with their secondary slicing sets and DMA statistics — which the
thread-level simulator (:mod:`repro.execution.fused`) turns into a timing
breakdown, and whose invariants (no overhead, DMA savings of ``n-1`` per
length-``n`` group) are property-tested.  The *real* executor
(:mod:`repro.execution.plan`) does not group steps: its intermediates sit
at compile-time offsets in one preallocated arena instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..hardware.spec import COMPLEX64_BYTES, SW26010PRO, SunwaySpec
from ..tensornet.contraction_tree import ContractionTree
from .stem import Stem, extract_stem

__all__ = ["FusedGroup", "FusedPlan", "SecondarySlicer"]


@dataclass(frozen=True)
class FusedGroup:
    """One fused sub-path executed entirely inside LDM.

    Attributes
    ----------
    start, stop:
        Half-open range ``[start, stop)`` of stem step positions covered.
    secondary_sliced:
        Indices sliced between main memory and LDM for this group; their
        values are distributed over the CPEs of the core group.
    input_indices:
        Indices of the stem tensor loaded at the start of the group (before
        removing the secondary-sliced ones).
    output_indices:
        Indices of the stem tensor written back at the end of the group.
    kept_rank:
        Rank of the in-LDM working tensor (input rank minus sliced).
    log2_flops:
        log2 of the flops executed inside the group per secondary subtask.
    """

    start: int
    stop: int
    secondary_sliced: FrozenSet[str]
    input_indices: FrozenSet[str]
    output_indices: FrozenSet[str]
    kept_rank: int
    log2_flops: float

    @property
    def num_steps(self) -> int:
        """Number of stem contractions fused into this group."""
        return self.stop - self.start

    @property
    def num_subtasks(self) -> int:
        """Thread-level subtasks generated by the secondary slicing (2^|S2|)."""
        return 2 ** len(self.secondary_sliced)

    @property
    def dma_transfers(self) -> int:
        """DMA get+put transactions of the fused execution (always 2 per group
        for the stem tensor; branch tensors are accounted separately)."""
        return 2

    @property
    def dma_transfers_step_by_step(self) -> int:
        """DMA get+put transactions the unfused execution would need."""
        return 2 * self.num_steps


@dataclass
class FusedPlan:
    """A complete thread-level execution plan for one stem.

    Attributes
    ----------
    groups:
        The fused groups, in stem order.
    stem:
        The stem being planned.
    ldm_rank:
        LDM capacity expressed as a tensor rank (13 for 256 KB single
        precision, per §5.1).
    process_sliced:
        The process-level slicing set already applied before this plan; the
        flop/byte accounting below is per process-level subtask.
    """

    groups: List[FusedGroup]
    stem: Stem
    ldm_rank: int
    process_sliced: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        """Number of fused groups."""
        return len(self.groups)

    @property
    def total_steps(self) -> int:
        """Total stem steps covered."""
        return sum(g.num_steps for g in self.groups)

    @property
    def average_fused_steps(self) -> float:
        """Mean group length (the paper reports ≈ 10)."""
        if not self.groups:
            return 0.0
        return self.total_steps / len(self.groups)

    def dma_transfers_fused(self) -> int:
        """Stem-tensor DMA transactions under the fused plan."""
        return sum(g.dma_transfers for g in self.groups)

    def dma_transfers_step_by_step(self) -> int:
        """Stem-tensor DMA transactions under the step-by-step schedule."""
        return sum(g.dma_transfers_step_by_step for g in self.groups)

    def dma_transfers_saved(self) -> int:
        """Transactions eliminated by fusion: ``2 (n_i - 1)`` summed over groups."""
        return self.dma_transfers_step_by_step() - self.dma_transfers_fused()

    # ------------------------------------------------------------------
    def bytes_moved_fused(self, element_bytes: int = COMPLEX64_BYTES) -> float:
        """Stem-tensor bytes DMAed under the fused plan (get at start, put at end)."""
        total = 0.0
        for group in self.groups:
            in_elements = 2.0 ** len(group.input_indices)
            out_elements = 2.0 ** len(group.output_indices)
            total += (in_elements + out_elements) * element_bytes
        return total

    def bytes_moved_step_by_step(self, element_bytes: int = COMPLEX64_BYTES) -> float:
        """Stem-tensor bytes DMAed when every step round-trips through memory."""
        tree = self.stem.tree
        sliced = self.process_sliced
        total = 0.0
        for group in self.groups:
            for position in range(group.start, group.stop):
                step = self.stem.steps[position]
                if position == 0:
                    in_indices = frozenset(tree.node_indices(self.stem.start_node)) - sliced
                else:
                    in_indices = self.stem.steps[position - 1].result_indices - sliced
                out_indices = step.result_indices - sliced
                total += (2.0 ** len(in_indices) + 2.0 ** len(out_indices)) * element_bytes
        return total

    def total_flops(self) -> float:
        """Flops of the planned stem region for one process-level subtask.

        Each group executes ``2^|S2|`` secondary subtasks whose per-subtask
        cost is ``2^log2_flops``; the product recovers the group's unsliced
        cost exactly (the §5.2 no-overhead property), counted at 8 real
        operations per complex multiply-add.
        """
        total = 0.0
        for group in self.groups:
            total += 8.0 * (2.0**group.log2_flops) * group.num_subtasks
        return total

    def arithmetic_intensity_fused(self, element_bytes: int = COMPLEX64_BYTES) -> float:
        """flop / DMA byte of the fused plan (the x-axis gain of Fig. 13)."""
        bytes_moved = self.bytes_moved_fused(element_bytes)
        return self.total_flops() / bytes_moved if bytes_moved else math.inf

    def arithmetic_intensity_step_by_step(
        self, element_bytes: int = COMPLEX64_BYTES
    ) -> float:
        """flop / DMA byte of the step-by-step schedule."""
        bytes_moved = self.bytes_moved_step_by_step(element_bytes)
        return self.total_flops() / bytes_moved if bytes_moved else math.inf

    def intensity_gain(self, element_bytes: int = COMPLEX64_BYTES) -> float:
        """Arithmetic-intensity improvement factor (10×–40× in the paper)."""
        base = self.arithmetic_intensity_step_by_step(element_bytes)
        return self.arithmetic_intensity_fused(element_bytes) / base if base else math.inf


class SecondarySlicer:
    """Plans the fused thread-level execution of a stem.

    Parameters
    ----------
    ldm_rank:
        Largest tensor rank a CPE's LDM can hold during a contraction
        (defaults to the spec's rank-13 bound).
    max_fused_steps:
        Optional cap on the group length (``None`` lets groups run until a
        sliced index dies or the LDM bound is hit).
    spec:
        Machine description (only used for the default ``ldm_rank``).
    """

    def __init__(
        self,
        ldm_rank: Optional[int] = None,
        max_fused_steps: Optional[int] = None,
        spec: SunwaySpec = SW26010PRO,
    ) -> None:
        self.spec = spec
        self.ldm_rank = int(ldm_rank if ldm_rank is not None else spec.ldm_max_rank())
        if self.ldm_rank < 1:
            raise ValueError("ldm_rank must be at least 1")
        self.max_fused_steps = max_fused_steps

    # ------------------------------------------------------------------
    def plan(
        self,
        stem_or_tree: Stem | ContractionTree,
        process_sliced: AbstractSet[str] = frozenset(),
    ) -> FusedPlan:
        """Build the fused plan for a stem.

        Parameters
        ----------
        stem_or_tree:
            Either a pre-extracted :class:`Stem` or a contraction tree (the
            stem is extracted on demand).
        process_sliced:
            The process-level slicing set already applied; those indices are
            simply absent at the thread level.
        """
        stem = (
            stem_or_tree
            if isinstance(stem_or_tree, Stem)
            else extract_stem(stem_or_tree)
        )
        process_sliced = frozenset(process_sliced)
        # effective per-step index sets with the process-level slicing removed
        step_result_ix = [step.result_indices - process_sliced for step in stem.steps]
        step_branch_ix = [step.branch_indices - process_sliced for step in stem.steps]
        tree = stem.tree
        start_ix = frozenset(tree.node_indices(stem.start_node)) - process_sliced

        groups: List[FusedGroup] = []
        position = 0
        num_steps = len(stem.steps)

        while position < num_steps:
            input_indices = start_ix if position == 0 else step_result_ix[position - 1]
            num_fused, sliced = self._plan_group(
                input_indices, step_result_ix, step_branch_ix, position
            )
            stop = position + num_fused
            # flops inside the group per secondary subtask (sliced dims removed)
            flops = 0.0
            for p in range(position, stop):
                union = tree.contraction_indices(stem.steps[p].node) - process_sliced
                flops += 2.0 ** sum(
                    tree.log2_index_size(ix) for ix in union if ix not in sliced
                )
            log2_flops = math.log2(flops) if flops > 0 else 0.0
            groups.append(
                FusedGroup(
                    start=position,
                    stop=stop,
                    secondary_sliced=sliced,
                    input_indices=frozenset(input_indices),
                    output_indices=frozenset(step_result_ix[stop - 1]),
                    kept_rank=len(input_indices - sliced),
                    log2_flops=log2_flops,
                )
            )
            position = stop

        return FusedPlan(
            groups=groups,
            stem=stem,
            ldm_rank=self.ldm_rank,
            process_sliced=process_sliced,
        )

    # ------------------------------------------------------------------
    def _plan_group(
        self,
        input_indices: FrozenSet[str],
        step_result_ix: Sequence[FrozenSet[str]],
        step_branch_ix: Sequence[FrozenSet[str]],
        position: int,
    ) -> Tuple[int, FrozenSet[str]]:
        """Choose the fused window length and its secondary slicing set.

        For a window of ``n`` steps the slicing set is exactly the input
        indices that are still alive at the end of the window (equivalently,
        the indices whose lifetime spans the whole window — the paper's
        longest-lifetime choice); every other input index is absorbed inside
        the window and therefore must stay in LDM.  The window is grown as
        long as the in-LDM working tensor and every absorbed branch keep
        fitting the LDM rank bound; ``n`` is the paper's tunable fusion
        parameter.
        """
        num_steps = len(step_result_ix)
        limit = num_steps - position
        if self.max_fused_steps is not None:
            limit = min(limit, self.max_fused_steps)

        best: Optional[Tuple[int, FrozenSet[str]]] = None
        for n in range(1, limit + 1):
            window_end = position + n - 1
            sliced = frozenset(input_indices & step_result_ix[window_end])
            feasible = len(input_indices - sliced) <= self.ldm_rank
            if feasible:
                for q in range(position, window_end + 1):
                    if len(step_result_ix[q] - sliced) > self.ldm_rank:
                        feasible = False
                        break
                    if len(step_branch_ix[q] - sliced) > self.ldm_rank:
                        feasible = False
                        break
            if feasible:
                best = (n, sliced)
            elif best is not None:
                # feasibility is monotone in n (more kept indices), stop early
                break
        if best is not None:
            return best

        # fallback: even a single step does not fit (an oversized branch or a
        # result rank above the LDM bound).  Execute it alone, slicing the
        # longest-lifetime surviving indices so the model stays well-defined.
        sliced = frozenset(input_indices & step_result_ix[position])
        return 1, sliced
