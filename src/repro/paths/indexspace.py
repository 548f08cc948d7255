"""Index labels interned as bits, so the path searches do set algebra on ints.

The sorted labels of a network map to bit positions ``0..k-1``; an index set
is a Python ``int`` mask, union/intersection are ``|``/``&`` and a size is a
popcount.  Ascending bit order is sorted-label order, so nothing here
depends on string hashing.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..tensornet.network import TensorNetwork

__all__ = ["IndexSpace"]


class IndexSpace:
    """The bit position, log2 size and owner count of every index of a set of leaves.

    ``leaves`` are the leaf masks and ``output`` the mask of the open indices,
    which no contraction closes.  ``pair`` is the mask of the other indices
    carried by exactly two leaves (closed as soon as both meet) and ``counts``
    the owner count, by bit, of the rest: hyper-indices and dangling ones.
    """

    def __init__(
        self,
        leaf_indices: Sequence[AbstractSet[str]],
        sizes: Mapping[str, int],
        output: AbstractSet[str],
    ) -> None:
        self.labels = sorted(sizes)
        self.bit = {ix: 1 << pos for pos, ix in enumerate(self.labels)}
        self.weights = [math.log2(sizes[ix]) for ix in self.labels]
        uniform = self.weights[0] if self.weights else 1.0
        #: the common log2 size when all are one integer (qubit wires), else None
        self.uniform = uniform if uniform % 1 == 0 and set(self.weights) <= {uniform} else None
        self.leaves = [self.mask(ixset) for ixset in leaf_indices]
        self.output = self.mask(output)
        #: bit -> the leaves carrying it, ascending
        self.owners: Dict[int, List[int]] = {}
        for leaf, mask in enumerate(self.leaves):
            for bit in self.bits(mask):
                self.owners.setdefault(bit, []).append(leaf)
        closable = {bit: len(o) for bit, o in self.owners.items() if not bit & self.output}
        self.pair = sum(bit for bit, c in closable.items() if c == 2)
        self.counts = {bit: c for bit, c in closable.items() if c != 2}

    @classmethod
    def of_network(cls, network: TensorNetwork) -> "IndexSpace":
        """The space of a network's tensors, leaves in sorted-tid order."""
        leaf_indices = [network.tensor_indices(tid) for tid in network.tensor_ids]
        return cls(leaf_indices, network.index_sizes(), network.output_indices())

    def mask(self, indices: AbstractSet[str]) -> int:
        """The mask of a set of labels."""
        return sum(self.bit[ix] for ix in indices)

    @staticmethod
    def bits(mask: int) -> Iterable[int]:
        """The single-bit masks of ``mask``, ascending."""
        while mask:
            low = mask & -mask
            yield low
            mask ^= low

    def log2size(self, mask: int) -> float:
        """log2 of the size of the tensor carrying ``mask``."""
        if self.uniform is not None:
            return mask.bit_count() * self.uniform
        return sum(self.weights[bit.bit_length() - 1] for bit in self.bits(mask))

    def contract(self, ia: int, ib: int, pair: int, counts: Dict[int, int]) -> Tuple[int, int]:
        """Contract two alive nodes: ``(output mask, pair mask afterwards)``.

        A shared hyper-index loses one owner (``counts`` is updated in place)
        and joins ``pair`` once only two are left.
        """
        shared = ia & ib
        out = (ia | ib) ^ (shared & pair)
        for bit in self.bits(shared & ~pair & ~self.output):
            counts[bit] -= 1
            if counts[bit] == 2:
                pair |= bit
        return out, pair
