"""Contraction trees and their cost model.

A *contraction path* fixes the order in which pairs of tensors are merged;
the equivalence class of all reorderings of independent steps is uniquely
described by a rooted binary tree (§2.1.1 of the paper).  This module
provides :class:`ContractionTree`, the central planning data structure used
by the path optimizers, the lifetime analysis and the slicing machinery.

Nodes are integer ids in SSA convention: the ``n`` leaves are ``0..n-1``
(in the order of the network's sorted tensor ids) and the ``k``-th
contraction creates node ``n + k``; the final node is the root.

The cost model follows the paper exactly:

* time complexity of a single contraction ``(v1, v2, v3)`` is
  ``prod_{e in s_v1 ∪ s_v2 ∪ s_v3} w(e)``  (Eq. 1),
* space complexity is the size of the biggest intermediate tensor,
* the total time complexity after slicing a set ``S`` is
  ``sum_V 2^{|s_V| + |S| - |S ∩ s_V|}``  (Eq. 4, specialised to w(e)=2; the
  implementation handles general edge weights),
* the slicing overhead is ``C_sliced / C_original``  (Eq. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    AbstractSet,
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

from .network import TensorNetwork

__all__ = ["ContractionTree", "ContractionTreeError", "ssa_path_from_linear"]


class ContractionTreeError(ValueError):
    """Raised for malformed paths or invalid tree queries."""


def ssa_path_from_linear(path: Sequence[Tuple[int, int]], num_leaves: int) -> List[Tuple[int, int]]:
    """Convert a ``numpy.einsum_path``-style *linear* path into SSA form.

    In the linear convention each step names positions in the shrinking list
    of remaining tensors; in SSA form every intermediate gets a fresh id.
    """
    remaining = list(range(num_leaves))
    next_id = num_leaves
    ssa: List[Tuple[int, int]] = []
    for i, j in path:
        if i == j:
            raise ContractionTreeError("path step contracts a tensor with itself")
        a, b = remaining[i], remaining[j]
        for pos in sorted((i, j), reverse=True):
            remaining.pop(pos)
        remaining.append(next_id)
        ssa.append((a, b))
        next_id += 1
    return ssa


@dataclass(frozen=True)
class _NodeRecord:
    """Internal per-node bookkeeping."""

    children: Optional[Tuple[int, int]]
    indices: FrozenSet[str]


class ContractionTree:
    """A rooted binary contraction tree over a tensor network.

    Parameters
    ----------
    leaf_indices:
        For each leaf (ordered ``0..n-1``), the set of index labels it
        carries.
    index_sizes:
        Mapping from index label to dimension size ``w(e)``.
    ssa_path:
        The contraction order in SSA convention; must contain exactly
        ``n - 1`` steps and reference every node exactly once as an operand.
    output_indices:
        The network's open indices (kept on the root).
    leaf_tids:
        Optional mapping from leaf position to the originating tensor id in
        the :class:`TensorNetwork`; used by the execution engine.
    """

    def __init__(
        self,
        leaf_indices: Sequence[AbstractSet[str]],
        index_sizes: Mapping[str, int],
        ssa_path: Sequence[Tuple[int, int]],
        output_indices: AbstractSet[str] = frozenset(),
        leaf_tids: Optional[Sequence[int]] = None,
    ) -> None:
        self._num_leaves = len(leaf_indices)
        if self._num_leaves == 0:
            raise ContractionTreeError("cannot build a tree over zero tensors")
        self._index_sizes: Dict[str, int] = {k: int(v) for k, v in index_sizes.items()}
        self._output: FrozenSet[str] = frozenset(output_indices)
        self._leaf_tids: Tuple[int, ...] = (
            tuple(leaf_tids) if leaf_tids is not None else tuple(range(self._num_leaves))
        )
        if len(self._leaf_tids) != self._num_leaves:
            raise ContractionTreeError("leaf_tids length mismatch")

        expected_steps = self._num_leaves - 1
        if len(ssa_path) != expected_steps:
            raise ContractionTreeError(
                f"path has {len(ssa_path)} steps, expected {expected_steps}"
            )

        # total occurrence count of each index over all leaves
        total_count: Dict[str, int] = {}
        for ixset in leaf_indices:
            for ix in ixset:
                total_count[ix] = total_count.get(ix, 0) + 1
                if ix not in self._index_sizes:
                    raise ContractionTreeError(f"missing size for index {ix!r}")

        self._nodes: Dict[int, _NodeRecord] = {}
        subtree_count: Dict[int, Dict[str, int]] = {}

        for leaf, ixset in enumerate(leaf_indices):
            self._nodes[leaf] = _NodeRecord(
                children=None,
                indices=frozenset(ixset),
            )
            subtree_count[leaf] = {ix: 1 for ix in ixset}

        consumed: Set[int] = set()
        next_id = self._num_leaves
        for step, (a, b) in enumerate(ssa_path):
            for operand in (a, b):
                if operand not in self._nodes:
                    raise ContractionTreeError(
                        f"step {step} references unknown node {operand}"
                    )
                if operand in consumed:
                    raise ContractionTreeError(
                        f"step {step} reuses already-consumed node {operand}"
                    )
            if a == b:
                raise ContractionTreeError("cannot contract a node with itself")
            consumed.add(a)
            consumed.add(b)
            counts: Dict[str, int] = dict(subtree_count[a])
            for ix, c in subtree_count[b].items():
                counts[ix] = counts.get(ix, 0) + c
            indices = frozenset(
                ix
                for ix, c in counts.items()
                if c < total_count[ix] or ix in self._output
            )
            self._nodes[next_id] = _NodeRecord(
                children=(a, b),
                indices=indices,
            )
            subtree_count[next_id] = counts
            # free children's counts to keep memory linear
            del subtree_count[a]
            del subtree_count[b]
            next_id += 1

        self._root = next_id - 1
        unconsumed = set(self._nodes) - consumed - {self._root}
        if unconsumed:
            raise ContractionTreeError(
                f"path does not consume nodes {sorted(unconsumed)}; "
                "the tree is not connected"
            )
        self._ssa_path: Tuple[Tuple[int, int], ...] = tuple(
            (int(a), int(b)) for a, b in ssa_path
        )
        # the tree is immutable, so derived lookup structures are built
        # lazily once and never invalidated
        self._parent_map: Optional[Dict[int, int]] = None
        self._leaf_of_tid: Dict[int, int] = {}
        for pos, tid in enumerate(self._leaf_tids):
            self._leaf_of_tid.setdefault(tid, pos)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_network(
        cls,
        network: TensorNetwork,
        ssa_path: Sequence[Tuple[int, int]],
    ) -> "ContractionTree":
        """Build a tree for ``network`` using ``ssa_path`` over its sorted tids."""
        tids = network.tensor_ids
        leaf_indices = [network.tensor_indices(tid) for tid in tids]
        return cls(
            leaf_indices=leaf_indices,
            index_sizes=network.index_sizes(),
            ssa_path=ssa_path,
            output_indices=network.output_indices(),
            leaf_tids=tids,
        )

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def num_leaves(self) -> int:
        """Number of leaf tensors."""
        return self._num_leaves

    @property
    def root(self) -> int:
        """Node id of the root."""
        return self._root

    @property
    def ssa_path(self) -> Tuple[Tuple[int, int], ...]:
        """The SSA path this tree was built from."""
        return self._ssa_path

    @property
    def output_indices(self) -> FrozenSet[str]:
        """Open indices kept on the root."""
        return self._output

    @property
    def leaf_tids(self) -> Tuple[int, ...]:
        """Originating tensor id of each leaf position."""
        return self._leaf_tids

    def leaf_of_tid(self, tid: int) -> int:
        """Leaf position corresponding to a network tensor id."""
        try:
            return self._leaf_of_tid[tid]
        except KeyError as exc:
            raise ContractionTreeError(f"tensor id {tid} not a leaf") from exc

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` is a leaf."""
        return self._record(node).children is None

    def children(self, node: int) -> Optional[Tuple[int, int]]:
        """Children of ``node`` (``None`` for leaves)."""
        return self._record(node).children

    def leaves_under(self, node: int) -> FrozenSet[int]:
        """Leaf positions contained in the subtree of ``node``.

        Walked on demand: nothing on the planning or execution path reads
        it, and an eager set per node was a fifth of a large tree's bytes.
        """
        leaves: List[int] = []
        pending = [node]
        while pending:
            current = pending.pop()
            children = self._record(current).children
            if children is None:
                leaves.append(current)
            else:
                pending.extend(children)
        return frozenset(leaves)

    def node_indices(self, node: int) -> FrozenSet[str]:
        """Index set ``s_v`` of the (intermediate) tensor produced at ``node``."""
        return self._record(node).indices

    def nodes(self) -> Tuple[int, ...]:
        """All node ids, leaves first then internal nodes in creation order."""
        return tuple(sorted(self._nodes))

    def internal_nodes(self) -> Tuple[int, ...]:
        """Internal (contraction) node ids in creation (topological) order."""
        return tuple(range(self._num_leaves, self._root + 1))

    def parent_map(self) -> Dict[int, int]:
        """Mapping from node id to its parent (root excluded).

        The tree is immutable, so the map is built once and cached; treat
        the returned dict as read-only.
        """
        if self._parent_map is None:
            parents: Dict[int, int] = {}
            for node in self.internal_nodes():
                a, b = self._nodes[node].children  # type: ignore[misc]
                parents[a] = node
                parents[b] = node
            self._parent_map = parents
        return self._parent_map

    def _record(self, node: int) -> _NodeRecord:
        try:
            return self._nodes[node]
        except KeyError as exc:
            raise ContractionTreeError(f"unknown node {node}") from exc

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes())

    # ------------------------------------------------------------------
    # Index / size utilities
    # ------------------------------------------------------------------
    def index_size(self, index: str) -> int:
        """Dimension ``w(e)`` of an index."""
        try:
            return self._index_sizes[index]
        except KeyError as exc:
            raise ContractionTreeError(f"unknown index {index!r}") from exc

    def log2_index_size(self, index: str) -> float:
        """``log2 w(e)``."""
        return math.log2(self.index_size(index))

    def all_indices(self) -> FrozenSet[str]:
        """Every index appearing on some leaf."""
        out: Set[str] = set()
        for leaf in range(self._num_leaves):
            out |= self._nodes[leaf].indices
        return frozenset(out)

    def node_log2_size(self, node: int, sliced: AbstractSet[str] = frozenset()) -> float:
        """log2 of the size of the tensor at ``node`` with ``sliced`` removed."""
        return sum(
            self.log2_index_size(ix)
            for ix in self._record(node).indices
            if ix not in sliced
        )

    def contraction_indices(self, node: int) -> FrozenSet[str]:
        """``s_v1 ∪ s_v2 ∪ s_v3`` for the contraction at an internal node."""
        rec = self._record(node)
        if rec.children is None:
            raise ContractionTreeError(f"node {node} is a leaf, not a contraction")
        a, b = rec.children
        return self._nodes[a].indices | self._nodes[b].indices | rec.indices

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def node_log2_flops(self, node: int, sliced: AbstractSet[str] = frozenset()) -> float:
        """log2 cost of a single subtask's contraction at ``node`` (Eq. 1 term)."""
        return sum(
            self.log2_index_size(ix)
            for ix in self.contraction_indices(node)
            if ix not in sliced
        )

    def contraction_cost(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """Total number of scalar multiply-adds for *one* subtask."""
        return sum(
            2.0 ** self.node_log2_flops(node, sliced) for node in self.internal_nodes()
        )

    def num_subtasks(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """``prod_{e in S} w(e)`` — independent subtasks under ``sliced``."""
        multiplier = 1.0
        for ix in sliced:
            multiplier *= self.index_size(ix)
        return multiplier

    def total_cost(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """Total cost over all ``prod w(e), e in S`` subtasks (Eq. 4)."""
        return self.num_subtasks(sliced) * self.contraction_cost(sliced)

    def log10_total_cost(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """``log10`` of :meth:`total_cost` (the unit used in the paper's plots)."""
        return math.log10(self.total_cost(sliced))

    def slicing_overhead(self, sliced: AbstractSet[str]) -> float:
        """Overhead ``O(B, S)`` of Eq. 2: sliced total cost / original cost."""
        return self.total_cost(sliced) / self.total_cost(frozenset())

    def max_intermediate_log2_size(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """log2 size of the biggest intermediate tensor (space complexity)."""
        return max(
            self.node_log2_size(node, sliced) for node in self.internal_nodes()
        )

    def max_rank(self, sliced: AbstractSet[str] = frozenset()) -> int:
        """Largest intermediate rank counting only unsliced indices.

        For quantum circuit networks (all sizes 2) this equals
        :meth:`max_intermediate_log2_size`; it is the quantity the paper
        calls the *target dimension* ``t``.
        """
        return max(
            sum(1 for ix in self._record(node).indices if ix not in sliced)
            for node in self.internal_nodes()
        )

    def peak_memory_elements(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """Rough peak memory (in tensor elements) for one subtask.

        Counts the largest contraction working set: both operands plus the
        output of the most expensive node.
        """
        peak = 0.0
        for node in self.internal_nodes():
            a, b = self._nodes[node].children  # type: ignore[misc]
            working = (
                2.0 ** self.node_log2_size(a, sliced)
                + 2.0 ** self.node_log2_size(b, sliced)
                + 2.0 ** self.node_log2_size(node, sliced)
            )
            peak = max(peak, working)
        return peak

    def arithmetic_intensity(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """Naive flops-per-element ratio of the whole tree (step-by-step).

        Every contraction reads both operands and writes its output; the
        ratio of Eq. 1 cost to that traffic is the upper bound on arithmetic
        intensity without fusion (c.f. §5.1: for narrow GEMMs the two are of
        the same order, so TNC is bandwidth bound).
        """
        flops = 0.0
        traffic = 0.0
        for node in self.internal_nodes():
            a, b = self._nodes[node].children  # type: ignore[misc]
            flops += 2.0 ** self.node_log2_flops(node, sliced)
            traffic += (
                2.0 ** self.node_log2_size(a, sliced)
                + 2.0 ** self.node_log2_size(b, sliced)
                + 2.0 ** self.node_log2_size(node, sliced)
            )
        return flops / traffic if traffic else 0.0

    # ------------------------------------------------------------------
    # Structure queries used by stem / lifetime analysis
    # ------------------------------------------------------------------
    def node_depth(self, node: int) -> int:
        """Distance from the root (root has depth 0)."""
        parents = self.parent_map()
        depth = 0
        current = node
        while current != self._root:
            current = parents[current]
            depth += 1
        return depth

    def path_to_root(self, node: int) -> List[int]:
        """Nodes from ``node`` (inclusive) up to the root (inclusive)."""
        parents = self.parent_map()
        path = [node]
        current = node
        while current != self._root:
            current = parents[current]
            path.append(current)
        return path

    def subtree_cost(self, node: int, sliced: AbstractSet[str] = frozenset()) -> float:
        """Total single-subtask cost of the subtree rooted at ``node``."""
        if self.is_leaf(node):
            return 0.0
        a, b = self._nodes[node].children  # type: ignore[misc]
        return (
            2.0 ** self.node_log2_flops(node, sliced)
            + self.subtree_cost(a, sliced)
            + self.subtree_cost(b, sliced)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContractionTree(leaves={self._num_leaves}, "
            f"log10_cost={self.log10_total_cost():.2f}, "
            f"max_rank={self.max_rank()})"
        )
