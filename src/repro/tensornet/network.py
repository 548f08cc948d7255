"""Tensor-network graph.

Following the paper's notation (§2.1.1) a tensor network is an undirected
graph ``G = (V, E)`` in which vertices are tensors and edges are shared
indices, with an edge weight ``w(e)`` giving the size of each dimension
(always a power of two for quantum circuits, and exactly two once the
network is expressed at the level of individual qubit wires).

:class:`TensorNetwork` is the mutable container used by every other layer:

* the circuit converter populates it with gate tensors,
* the simplifier contracts away rank-1/rank-2 tensors in place,
* the path optimizers read its graph structure,
* the execution engines contract it numerically.

Tensor identities are stable integer ids (``tid``); indices are string
labels.  Open (dangling) indices — the output amplitudes' free legs — are
the indices that appear on exactly one tensor, unless explicitly overridden.
"""

from __future__ import annotations

import itertools
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .tensor import Tensor, TensorError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["TensorNetwork", "TensorNetworkError"]


class TensorNetworkError(ValueError):
    """Raised for structurally invalid tensor-network operations."""


class TensorNetwork:
    """A collection of :class:`Tensor` objects joined by shared indices."""

    def __init__(self, tensors: Iterable[Tensor] = ()) -> None:
        self._tensors: Dict[int, Tensor] = {}
        self._index_to_tids: Dict[str, Set[int]] = {}
        self._next_tid = 0
        self._explicit_output: Optional[FrozenSet[str]] = None
        for t in tensors:
            self.add_tensor(t)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_tensor(self, tensor: Tensor, tid: Optional[int] = None) -> int:
        """Add ``tensor``; returns its id."""
        if tid is None:
            tid = self._next_tid
        elif tid in self._tensors:
            raise TensorNetworkError(f"tensor id {tid} already in use")
        self._next_tid = max(self._next_tid, tid + 1)
        self._tensors[tid] = tensor
        for ix in tensor.indices:
            self._index_to_tids.setdefault(ix, set()).add(tid)
        return tid

    def remove_tensor(self, tid: int) -> Tensor:
        """Remove and return the tensor with id ``tid``."""
        try:
            tensor = self._tensors.pop(tid)
        except KeyError as exc:
            raise TensorNetworkError(f"no tensor with id {tid}") from exc
        for ix in tensor.indices:
            owners = self._index_to_tids.get(ix)
            if owners is not None:
                owners.discard(tid)
                if not owners:
                    del self._index_to_tids[ix]
        return tensor

    def replace_tensor(self, tid: int, tensor: Tensor) -> None:
        """Replace the tensor stored under ``tid``."""
        self.remove_tensor(tid)
        self.add_tensor(tensor, tid=tid)

    def set_output_indices(self, indices: Optional[Iterable[str]]) -> None:
        """Explicitly declare the open indices of the network.

        ``None`` restores the default rule (indices owned by one tensor).
        """
        if indices is None:
            self._explicit_output = None
            return
        indices = frozenset(indices)
        unknown = indices - set(self._index_to_tids)
        if unknown:
            raise TensorNetworkError(f"unknown output indices {sorted(unknown)}")
        self._explicit_output = indices

    def copy(self) -> "TensorNetwork":
        """Structural copy (tensors are shared; they are immutable)."""
        tn = TensorNetwork()
        for tid, tensor in self._tensors.items():
            tn.add_tensor(tensor, tid=tid)
        tn._explicit_output = self._explicit_output
        return tn

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_tensors(self) -> int:
        """Number of tensors currently in the network."""
        return len(self._tensors)

    @property
    def tensor_ids(self) -> Tuple[int, ...]:
        """All tensor ids, sorted."""
        return tuple(sorted(self._tensors))

    def tensor(self, tid: int) -> Tensor:
        """Tensor with id ``tid``."""
        try:
            return self._tensors[tid]
        except KeyError as exc:
            raise TensorNetworkError(f"no tensor with id {tid}") from exc

    def tensors(self) -> Dict[int, Tensor]:
        """Copy of the id → tensor mapping."""
        return dict(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._tensors))

    def __contains__(self, tid: int) -> bool:
        return tid in self._tensors

    # -- indices --------------------------------------------------------
    @property
    def indices(self) -> Tuple[str, ...]:
        """All index labels present in the network, sorted."""
        return tuple(sorted(self._index_to_tids))

    def index_owners(self, index: str) -> FrozenSet[int]:
        """The tensor ids carrying ``index``."""
        try:
            return frozenset(self._index_to_tids[index])
        except KeyError as exc:
            raise TensorNetworkError(f"unknown index {index!r}") from exc

    def size_of(self, index: str) -> int:
        """Dimension size ``w(e)`` of an index."""
        try:
            tid = next(iter(self._index_to_tids[index]))
        except KeyError as exc:
            raise TensorNetworkError(f"unknown index {index!r}") from exc
        return self._tensors[tid].size_of(index)

    def index_sizes(self) -> Dict[str, int]:
        """Mapping of every index to its size."""
        return {ix: self.size_of(ix) for ix in self._index_to_tids}

    def output_indices(self) -> FrozenSet[str]:
        """The open (dangling) indices of the network."""
        if self._explicit_output is not None:
            return frozenset(ix for ix in self._explicit_output if ix in self._index_to_tids)
        return frozenset(
            ix for ix, owners in self._index_to_tids.items() if len(owners) == 1
        )

    def inner_indices(self) -> FrozenSet[str]:
        """Indices that will be summed over during the full contraction."""
        return frozenset(self._index_to_tids) - self.output_indices()

    def tensor_indices(self, tid: int) -> FrozenSet[str]:
        """Incidence set ``s_v`` of a tensor: the indices it carries."""
        return frozenset(self.tensor(tid).indices)

    def neighbors(self, tid: int) -> FrozenSet[int]:
        """Tensor ids sharing at least one index with ``tid``."""
        out: Set[int] = set()
        for ix in self.tensor(tid).indices:
            out.update(self._index_to_tids[ix])
        out.discard(tid)
        return frozenset(out)

    def shared_indices(self, tid_a: int, tid_b: int) -> FrozenSet[str]:
        """Indices common to two tensors."""
        return self.tensor_indices(tid_a) & self.tensor_indices(tid_b)

    # -- aggregate metrics ----------------------------------------------
    def total_log2_size(self) -> float:
        """Sum of log2 sizes of all tensors (storage footprint)."""
        return sum(t.log2_size for t in self._tensors.values())

    def max_rank(self) -> int:
        """Largest tensor rank in the network."""
        return max((t.ndim for t in self._tensors.values()), default=0)

    def is_concrete(self) -> bool:
        """Whether every tensor carries numerical data."""
        return all(not t.is_abstract for t in self._tensors.values())

    def structure_key(self) -> Tuple:
        """Hashable identity of everything a plan depends on except the data.

        Per tensor id the ordered index labels and the shape, plus the open
        indices.  Two networks with equal keys accept the same contraction
        tree, slicing set and compiled plan (the baked axis positions line
        up); only their leaf data may differ.
        """
        return (
            tuple(
                (tid, tensor.indices, tensor.shape)
                for tid, tensor in sorted(self._tensors.items())
            ),
            tuple(sorted(self.output_indices())),
        )

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.MultiGraph:
        """The network as a networkx multigraph (vertices=tensors, edges=indices).

        Open indices become self-loop-free dangling edges attached to a
        virtual node ``("open", index)`` so that graph partitioners see them.
        """
        import networkx as nx  # imported on use: ``import repro`` does not load networkx

        g = nx.MultiGraph()
        for tid in self._tensors:
            g.add_node(tid)
        output = self.output_indices()
        for ix, owners in self._index_to_tids.items():
            owners = sorted(owners)
            weight = math.log2(self.size_of(ix))
            if len(owners) == 2:
                g.add_edge(owners[0], owners[1], index=ix, weight=weight)
            elif len(owners) == 1 and ix in output:
                virtual = ("open", ix)
                g.add_node(virtual)
                g.add_edge(owners[0], virtual, index=ix, weight=weight)
            elif len(owners) > 2:
                # hyper-edge: connect all owners pairwise through a virtual node
                virtual = ("hyper", ix)
                g.add_node(virtual)
                for tid in owners:
                    g.add_edge(tid, virtual, index=ix, weight=weight)
        return g

    def line_graph(self) -> nx.Graph:
        """Graph whose nodes are indices, joined when they share a tensor."""
        import networkx as nx  # imported on use: ``import repro`` does not load networkx

        g = nx.Graph()
        for ix in self._index_to_tids:
            g.add_node(ix, weight=math.log2(self.size_of(ix)))
        for tensor in self._tensors.values():
            for a, b in itertools.combinations(tensor.indices, 2):
                g.add_edge(a, b)
        return g

    # ------------------------------------------------------------------
    # Numerical contraction
    # ------------------------------------------------------------------
    def contract_pair(self, tid_a: int, tid_b: int) -> int:
        """Contract two tensors in place; returns the id of the result.

        All indices shared between the pair *and not open nor shared with any
        other tensor* are summed over.  Indices still needed elsewhere are
        kept on the result (this handles hyper-indices such as the paper's
        copy tensors correctly).
        """
        if tid_a == tid_b:
            raise TensorNetworkError("cannot contract a tensor with itself")
        ta = self.tensor(tid_a)
        tb = self.tensor(tid_b)
        output = self.output_indices()
        shared = self.shared_indices(tid_a, tid_b)
        keep_shared = {
            ix
            for ix in shared
            if ix in output or len(self._index_to_tids[ix] - {tid_a, tid_b}) > 0
        }
        summed = sorted(shared - keep_shared)

        a = ta.require_data()
        b = tb.require_data()
        axes_a = [ta.indices.index(ix) for ix in summed]
        axes_b = [tb.indices.index(ix) for ix in summed]
        if keep_shared:
            # fall back to einsum so batch (kept-shared) indices are aligned
            out_indices = tuple(
                ix for ix in ta.indices if ix not in summed
            ) + tuple(ix for ix in tb.indices if ix not in summed and ix not in ta.indices)
            data = _einsum_pair(ta, tb, out_indices)
        else:
            data = np.tensordot(a, b, axes=(axes_a, axes_b))
            out_indices = tuple(ix for ix in ta.indices if ix not in summed) + tuple(
                ix for ix in tb.indices if ix not in summed
            )
        sizes = {**ta.sizes(), **tb.sizes()}
        sizes = {ix: sizes[ix] for ix in out_indices}
        result = Tensor(out_indices, data=data, sizes=sizes, tags=ta.tags | tb.tags)
        self.remove_tensor(tid_a)
        self.remove_tensor(tid_b)
        return self.add_tensor(result)

    def contract_all(self, order: Optional[Sequence[Tuple[int, int]]] = None) -> Tensor:
        """Contract the whole network numerically and return the result.

        Parameters
        ----------
        order:
            Optional explicit sequence of ``(tid_a, tid_b)`` pairs.  When the
            network mutates, the id of each contraction result is the next
            free id; paths produced by :mod:`repro.paths` already use this
            convention.  With ``order=None`` a simple greedy order (smallest
            resulting tensor first) is used — fine for test-sized networks.
        """
        tn = self.copy()
        if not tn.is_concrete():
            raise TensorNetworkError("contract_all requires concrete tensors")
        if len(tn) == 0:
            raise TensorNetworkError("cannot contract an empty network")
        if order is not None:
            for tid_a, tid_b in order:
                tn.contract_pair(tid_a, tid_b)
        else:
            while len(tn) > 1:
                tid_a, tid_b = tn._cheapest_pair()
                tn.contract_pair(tid_a, tid_b)
        remaining = list(tn._tensors.values())
        result = remaining[0]
        for other in remaining[1:]:  # disconnected components: outer product
            result = result.contract_with(other)
        return result

    def _cheapest_pair(self) -> Tuple[int, int]:
        """Pick the connected pair whose contraction output is smallest."""
        best: Optional[Tuple[float, int, int]] = None
        seen: Set[Tuple[int, int]] = set()
        for tid in self._tensors:
            for other in self.neighbors(tid):
                key = (min(tid, other), max(tid, other))
                if key in seen:
                    continue
                seen.add(key)
                out_size = self._pair_output_log2(key[0], key[1])
                if best is None or out_size < best[0]:
                    best = (out_size, key[0], key[1])
        if best is None:
            # disconnected network: contract two arbitrary tensors
            tids = sorted(self._tensors)
            return tids[0], tids[1]
        return best[1], best[2]

    def _pair_output_log2(self, tid_a: int, tid_b: int) -> float:
        output = self.output_indices()
        shared = self.shared_indices(tid_a, tid_b)
        keep = (self.tensor_indices(tid_a) | self.tensor_indices(tid_b)) - {
            ix
            for ix in shared
            if ix not in output and not (self._index_to_tids[ix] - {tid_a, tid_b})
        }
        return sum(math.log2(self.size_of(ix)) for ix in keep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TensorNetwork(num_tensors={len(self._tensors)}, "
            f"num_indices={len(self._index_to_tids)}, "
            f"open={len(self.output_indices())})"
        )


def _einsum_pair(ta: Tensor, tb: Tensor, out_indices: Tuple[str, ...]) -> np.ndarray:
    """Contract two tensors with einsum, keeping ``out_indices``."""
    symbols: Dict[str, str] = {}

    def sym(ix: str) -> str:
        if ix not in symbols:
            symbols[ix] = _EINSUM_SYMBOLS[len(symbols)]
        return symbols[ix]

    spec_a = "".join(sym(ix) for ix in ta.indices)
    spec_b = "".join(sym(ix) for ix in tb.indices)
    spec_out = "".join(sym(ix) for ix in out_indices)
    return np.einsum(
        f"{spec_a},{spec_b}->{spec_out}", ta.require_data(), tb.require_data()
    )


_EINSUM_SYMBOLS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    + "".join(chr(c) for c in range(192, 600))
)
