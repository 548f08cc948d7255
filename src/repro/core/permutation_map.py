"""Tensor-permutation maps and the recursion-formula reduction (§5.3.1).

Inside the fused kernel every contraction step is preceded by a tensor
permutation that moves the to-be-absorbed indices to the end (for the left
operand ``A``) or to the front (for the right operand ``B``) so that the
contraction becomes a plain GEMM.  Two textbook strategies exist:

* the **in-situ map** computes each target address on the fly —
  ``O(N log N)`` time per use, ``O(1)`` extra space;
* the **pre-calculated map** stores the full address map — ``O(N)`` lookup
  after an ``O(N log N)`` build, but ``O(N)`` space, which is unaffordable
  when ``n`` distinct maps must be resident in a 256 KB LDM.

The paper's observation: for the permutations that actually occur, a block
of leading indices (for ``A``) and/or trailing indices (for ``B``) keeps its
position, so the map is periodic in those blocks and only ``N / 2^m``
entries need to be stored; the remaining addresses follow from the
recursion ``map[i + k] = map[i] + k * offset`` for ``k < stride``.
:class:`ReducedPermutationMap` implements exactly that reduction and is
verified against ``numpy.transpose`` in the tests.  The tape lowering
(:mod:`repro.execution.tape`) consumes these specs at plan compile time:
identity permutations pass the operand through and every other one becomes
a reduced-map gather into reusable scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PermutationSpec",
    "InSituPermutation",
    "PrecalculatedPermutation",
    "ReducedPermutationMap",
    "standard_contraction_permutation",
]


@dataclass(frozen=True)
class PermutationSpec:
    """A permutation of tensor axes.

    Attributes
    ----------
    perm:
        ``perm[i]`` is the source axis placed at target position ``i`` (the
        convention of ``numpy.transpose``).
    shape:
        Source tensor shape (all extents are powers of two for circuit
        networks, but any shape works).
    """

    perm: Tuple[int, ...]
    shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.shape))):
            raise ValueError(f"{self.perm} is not a permutation of the {len(self.shape)} axes")

    @property
    def ndim(self) -> int:
        """Tensor rank."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of elements."""
        out = 1
        for s in self.shape:
            out *= s
        return out

    @property
    def target_shape(self) -> Tuple[int, ...]:
        """Shape after the permutation."""
        return tuple(self.shape[axis] for axis in self.perm)

    @property
    def is_identity(self) -> bool:
        """Whether the permutation leaves the layout unchanged."""
        return self.perm == tuple(range(self.ndim))

    def with_leading_batch(self, extent: int) -> "PermutationSpec":
        """The same permutation with one fixed batch axis prepended.

        Batched (``bmm``) contraction steps permute each batch slice the
        same way: the batch axis stays at position 0 and every other axis
        shifts by one.  Because a leading fixed axis lands in the reduced
        map's *prefix* block, the returned spec's
        :class:`ReducedPermutationMap` has the **same core map** as this
        spec's (only ``prefix_size`` grows by ``extent``) — the reduced
        map is batch-invariant, which is what lets the fused batched-GEMM
        tape ops share the §5.3.1 machinery of the unbatched steps
        without storing per-batch address tables.
        """
        if extent < 1:
            raise ValueError(f"batch extent must be >= 1, got {extent}")
        return PermutationSpec(
            perm=(0, *(axis + 1 for axis in self.perm)),
            shape=(extent, *self.shape),
        )

    # ------------------------------------------------------------------
    @property
    def fixed_prefix(self) -> int:
        """Number of leading axes that keep their position (the ``A`` case)."""
        count = 0
        for i, axis in enumerate(self.perm):
            if axis == i:
                count += 1
            else:
                break
        return count

    @property
    def fixed_suffix(self) -> int:
        """Number of trailing axes that keep their position (the ``B`` case)."""
        count = 0
        n = self.ndim
        for offset in range(1, n + 1):
            if self.perm[n - offset] == n - offset:
                count += 1
            else:
                break
        return min(count, n - self.fixed_prefix)


def _source_strides(shape: Sequence[int]) -> List[int]:
    """Row-major strides (in elements) of a tensor of the given shape."""
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides


def _source_index_table(spec: PermutationSpec) -> np.ndarray:
    """The full target→source address map, built axis-wise (vectorised).

    Identical values to iterating :meth:`InSituPermutation.source_index`
    over every target address, but the mixed-radix decomposition runs as
    ``O(rank)`` whole-array operations instead of ``O(N · rank)`` Python
    steps — the map build this way is cheap enough to run inside plan
    compilation (the fused executor builds one reduced map per non-identity
    operand permutation).
    """
    source_strides = _source_strides(spec.shape)
    target_shape = spec.target_shape
    remaining = np.arange(spec.size, dtype=np.int64)
    source = np.zeros(spec.size, dtype=np.int64)
    for pos in range(spec.ndim - 1, -1, -1):
        extent = target_shape[pos]
        source += (remaining % extent) * source_strides[spec.perm[pos]]
        remaining //= extent
    return source


class InSituPermutation:
    """Address computation on the fly: O(1) space, O(rank) work per element."""

    def __init__(self, spec: PermutationSpec) -> None:
        self.spec = spec
        self._source_strides = _source_strides(spec.shape)
        self._target_shape = spec.target_shape

    def source_index(self, target_flat: int) -> int:
        """Flat source address of the element at flat target address ``target_flat``."""
        remaining = target_flat
        source = 0
        for pos in range(self.spec.ndim - 1, -1, -1):
            extent = self._target_shape[pos]
            coord = remaining % extent
            remaining //= extent
            source += coord * self._source_strides[self.spec.perm[pos]]
        return source

    def permute(self, array: np.ndarray) -> np.ndarray:
        """Apply the permutation by explicit address computation (reference)."""
        flat = np.asarray(array).reshape(-1)
        out = np.empty(self.spec.size, dtype=flat.dtype)
        for target in range(self.spec.size):
            out[target] = flat[self.source_index(target)]
        return out.reshape(self._target_shape)

    @property
    def stored_entries(self) -> int:
        """Map entries stored by this strategy (none)."""
        return 0


class PrecalculatedPermutation:
    """Full pre-computed address map: O(N) space, O(1) work per element."""

    def __init__(self, spec: PermutationSpec) -> None:
        self.spec = spec
        self._map = _source_index_table(spec)

    @property
    def map(self) -> np.ndarray:
        """The full target→source address map."""
        return self._map

    @property
    def stored_entries(self) -> int:
        """Map entries stored by this strategy (all of them)."""
        return int(self._map.size)

    def source_index(self, target_flat: int) -> int:
        """Flat source address of a target address."""
        return int(self._map[target_flat])

    def permute(self, array: np.ndarray) -> np.ndarray:
        """Apply the permutation through the stored map (vectorised gather)."""
        flat = np.asarray(array).reshape(-1)
        return flat[self._map].reshape(self.spec.target_shape)


class ReducedPermutationMap:
    """The paper's recursion-formula map: store ``N / 2^m`` entries only.

    The fixed leading block (size ``P`` elements) and the fixed trailing
    block (size ``S`` elements) are factored out: only the middle block's
    map (``N / (P·S)`` entries) is stored, and the full address is
    reconstructed as ``map[i + k] = map[i] + k`` within a trailing run and
    ``prefix * (N / P) + ...`` across the leading block.
    """

    def __init__(self, spec: PermutationSpec) -> None:
        self.spec = spec
        self.prefix_axes = spec.fixed_prefix
        self.suffix_axes = spec.fixed_suffix

        shape = spec.shape
        self.prefix_size = math.prod(shape[: self.prefix_axes]) if self.prefix_axes else 1
        self.suffix_size = (
            math.prod(shape[spec.ndim - self.suffix_axes :]) if self.suffix_axes else 1
        )
        self.core_size = spec.size // (self.prefix_size * self.suffix_size)

        # the core permutation acts on the middle axes only
        core_axes = list(range(self.prefix_axes, spec.ndim - self.suffix_axes))
        core_shape = tuple(shape[a] for a in core_axes)
        core_perm = tuple(
            spec.perm[i] - self.prefix_axes
            for i in range(self.prefix_axes, spec.ndim - self.suffix_axes)
        )
        if core_shape:
            core_spec = PermutationSpec(perm=core_perm, shape=core_shape)
            self._core_map = _source_index_table(core_spec)
        else:
            self._core_map = np.zeros(1, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def core_map(self) -> np.ndarray:
        """The stored middle-block map (target → source core positions).

        This is the only table the recursion formula needs; the tape
        lowering (:mod:`repro.execution.tape`) concatenates these maps into
        its program and the kernel applies each as a single gather along
        the core axis.
        """
        return self._core_map

    @property
    def stored_entries(self) -> int:
        """Map entries actually stored (``N / 2^m`` in the paper's notation)."""
        return int(self._core_map.size)

    @property
    def reduction_factor(self) -> float:
        """Space saving versus the full pre-calculated map."""
        return self.spec.size / max(self.stored_entries, 1)

    def source_index(self, target_flat: int) -> int:
        """Flat source address via the recursion formula."""
        suffix = target_flat % self.suffix_size
        rest = target_flat // self.suffix_size
        core = rest % self.core_size
        prefix = rest // self.core_size
        core_source = int(self._core_map[core]) if self.core_size > 1 else 0
        return (prefix * self.core_size + core_source) * self.suffix_size + suffix

    def permute(self, array: np.ndarray, module=None) -> np.ndarray:
        """Apply the permutation using only the reduced map (vectorised).

        The gather along the core axis goes through ``module`` (any object
        with numpy's ``reshape(array, shape)`` / ``take(array, indices,
        axis)`` functions, e.g. a device array namespace) when one is
        given; the default is the equivalent host ``np.take``.
        """
        if module is None:
            flat = np.asarray(array).reshape(-1)
            out = flat.reshape(self.prefix_size, self.core_size, self.suffix_size)
            if self.core_size > 1:
                out = np.take(out, self._core_map, axis=1)
            return out.reshape(self.spec.target_shape)
        out = module.reshape(
            array, (self.prefix_size, self.core_size, self.suffix_size)
        )
        if self.core_size > 1:
            out = module.take(out, self._core_map, 1)
        return module.reshape(out, self.spec.target_shape)


def standard_contraction_permutation(
    rank: int, absorbed: Sequence[int], operand: str = "A"
) -> PermutationSpec:
    """The permutation used before a contraction step (the §5.3.1 example).

    For the left operand ``A`` the absorbed axes are moved to the end (so
    the GEMM's ``k`` extent is contiguous); for the right operand ``B`` they
    are moved to the front.  All extents are 2.

    Parameters
    ----------
    rank:
        Tensor rank.
    absorbed:
        Axes (in source order) that will be summed over at this step.
    operand:
        ``"A"`` (absorbed axes to the back) or ``"B"`` (to the front).
    """
    absorbed = tuple(absorbed)
    if any(a < 0 or a >= rank for a in absorbed):
        raise ValueError("absorbed axes out of range")
    if len(set(absorbed)) != len(absorbed):
        raise ValueError("absorbed axes must be distinct")
    kept = tuple(a for a in range(rank) if a not in absorbed)
    if operand == "A":
        perm = kept + absorbed
    elif operand == "B":
        perm = absorbed + kept
    else:
        raise ValueError("operand must be 'A' or 'B'")
    return PermutationSpec(perm=perm, shape=(2,) * rank)
