"""Slicing sets and the sliced-contraction cost model.

Slicing an edge ``e`` of the tensor network fixes its value, turning every
tensor that carries ``e`` into a slice of itself and the contraction into
``w(e)`` independent subtasks whose results are summed.  This module
provides:

* :class:`SlicingCostModel` — a vectorised evaluator of the paper's cost
  formulas over a fixed contraction tree:

  - the total time complexity after slicing a set ``S`` (Eq. 4),
  - the slicing overhead ``O(B, S)`` (Eq. 2),
  - the memory footprint (largest intermediate) under ``S``,
  - the *critical tensors* of §4.3 (intermediates whose sliced rank equals
    the target rank exactly).

  The evaluator pre-computes, for every internal node, the index set of its
  contraction ``s_v1 ∪ s_v2 ∪ s_v3`` and of its result tensor as boolean
  membership matrices, so that evaluating a candidate slicing set costs a
  handful of numpy reductions instead of a tree walk.  The slice finder, the
  SA refiner and the cotengra-style baseline all share this model, which is
  what makes the 400-path comparison of Fig. 10 tractable in pure Python.

* :class:`SlicingState` — the per-node sliced ranks and reduced log2 costs of
  one *current* slicing set, from which every candidate of a move (swap one
  edge, add one, drop one) is scored in a single vectorised call.  A move
  updates those vectors exactly, one changed column at a time, when every
  index size is a power of two (every qubit network), and rebuilds them
  from the membership matrices otherwise.  The SA refiner, the redundancy
  sweep, the finder's full-tree patch and the greedy baseline all evaluate
  their moves through it; the scalar methods of :class:`SlicingCostModel`
  remain the public API and the test oracle.

* :class:`SlicingResult` — an immutable record of a chosen slicing set with
  its derived metrics, produced by every slicer in this package.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from itertools import chain
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..tensornet.contraction_tree import ContractionTree

__all__ = ["SlicingCostModel", "SlicingState", "SlicingResult", "SlicingError"]


class SlicingError(ValueError):
    """Raised for invalid slicing requests (unknown edges, empty trees, ...)."""


@dataclass(frozen=True)
class SlicingResult:
    """A slicing set together with its derived metrics.

    Attributes
    ----------
    sliced:
        The chosen slicing set (edge labels).
    num_subtasks:
        ``prod_{e in S} w(e)`` — the number of independent subtasks.
    overhead:
        Slicing overhead per Eq. 2 (1.0 means no redundant work).
    log10_total_cost:
        log10 of the total flops over all subtasks (Eq. 4).
    max_rank:
        Largest intermediate rank, counting only unsliced indices.
    max_intermediate_log2_size:
        log2 of the largest intermediate tensor size under the slicing.
    target_rank:
        The memory target the slicer was asked to hit.
    satisfies_target:
        Whether ``max_rank <= target_rank``.
    method:
        Name of the slicer that produced this result.
    """

    sliced: FrozenSet[str]
    num_subtasks: float
    overhead: float
    log10_total_cost: float
    max_rank: int
    max_intermediate_log2_size: float
    target_rank: int
    satisfies_target: bool
    method: str = "unknown"

    @property
    def num_sliced(self) -> int:
        """Number of sliced edges ``|S|``."""
        return len(self.sliced)


class SlicingCostModel:
    """Vectorised cost evaluator for slicing sets over one contraction tree.

    Parameters
    ----------
    tree:
        The contraction tree to evaluate against.  The model snapshots the
        tree's structure; it does not observe later mutations.
    """

    def __init__(self, tree: ContractionTree) -> None:
        self._tree = tree
        internal = tree.internal_nodes()
        if not internal:
            raise SlicingError("cannot build a cost model over a single-tensor tree")
        self._nodes: Tuple[int, ...] = internal
        self._indices: Tuple[str, ...] = tuple(sorted(tree.all_indices()))
        self._index_pos: Dict[str, int] = {ix: i for i, ix in enumerate(self._indices)}
        self._log2w = np.array(
            [tree.log2_index_size(ix) for ix in self._indices], dtype=np.float64
        )

        self._contract_membership, self._result_membership = self._memberships()

        self._contract_log2 = self._contract_membership @ self._log2w
        self._result_log2 = self._result_membership @ self._log2w
        self._result_rank = self._result_membership.sum(axis=1)
        self._base_cost = float(np.sum(2.0**self._contract_log2))
        # built last: the matmuls above hold this constructor's peak memory
        self._node_row: Dict[int, int] = {node: row for row, node in enumerate(self._nodes)}
        # one row per index, for SlicingState: a column's nodes are contiguous
        self._result_by_column = np.ascontiguousarray(self._result_membership.T)
        self._contract_by_column = np.ascontiguousarray(self._contract_membership.T)
        # every log2 w an integer (every qubit network): sums of them are exact
        self._integral = bool(np.all(self._log2w == np.rint(self._log2w)))

    def _memberships(self) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean ``(nodes, indices)`` matrices of every contraction's index set
        ``s_v1 ∪ s_v2 ∪ s_v3`` and of every result tensor's ``s_v3``.

        One fancy assignment marks every tree node's tensor; a contraction's
        row is then its children's rows or its own.
        """
        tree = self._tree
        every = tree.nodes()
        row_of = {node: row for row, node in enumerate(every)}
        index_sets = [tree.node_indices(node) for node in every]
        carried = np.zeros((len(every), len(self._indices)), dtype=bool)
        carried[
            np.repeat(np.arange(len(every)), [len(indices) for indices in index_sets]),
            list(map(self._index_pos.__getitem__, chain.from_iterable(index_sets))),
        ] = True
        left, right = zip(*map(tree.children, self._nodes))
        result = carried[[row_of[node] for node in self._nodes]]
        contract = carried[[row_of[a] for a in left]] | carried[[row_of[b] for b in right]]
        contract |= result
        return contract, result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tree(self) -> ContractionTree:
        """The underlying contraction tree."""
        return self._tree

    @property
    def indices(self) -> Tuple[str, ...]:
        """All sliceable edge labels, sorted."""
        return self._indices

    @property
    def nodes(self) -> Tuple[int, ...]:
        """Internal node ids, in the order used by the membership matrices."""
        return self._nodes

    def node_result_rank(self, node: int, sliced: AbstractSet[str] = frozenset()) -> int:
        """Rank of the intermediate produced at ``node`` under ``sliced``."""
        row = self._row(node)
        cols = self._columns(sliced)
        return int(self._result_rank[row]) - int(self._result_membership[row, cols].sum())

    def _row(self, node: int) -> int:
        try:
            return self._node_row[node]
        except KeyError:
            raise SlicingError(
                f"node {node!r} is not an internal node of this contraction tree"
            ) from None

    def _column(self, edge: str) -> int:
        try:
            return self._index_pos[edge]
        except KeyError:
            raise SlicingError(f"edge {edge!r} is not part of this contraction tree") from None

    def _columns(self, sliced: AbstractSet[str]) -> np.ndarray:
        """Ascending positions of ``sliced`` in :attr:`indices` (so, in label order)."""
        return np.asarray(sorted(self._column(ix) for ix in sliced), dtype=np.intp)

    # Per-node vectors of a column set; everything below derives from these.
    def _sliced_ranks(self, cols: np.ndarray) -> np.ndarray:
        return self._result_rank - self._result_membership[:, cols].sum(axis=1)

    def _reduced_log2(self, cols: np.ndarray) -> np.ndarray:
        return self._contract_log2 - self._contract_membership[:, cols] @ self._log2w[cols]

    def _num_subtasks(self, cols: np.ndarray) -> float:
        return float(2.0 ** self._log2w[cols].sum())

    def _total_cost(self, cols: np.ndarray) -> float:
        return self._num_subtasks(cols) * float(np.sum(2.0 ** self._reduced_log2(cols)))

    # ------------------------------------------------------------------
    # Cost formulas (Eq. 2 / Eq. 4)
    # ------------------------------------------------------------------
    def num_subtasks(self, sliced: AbstractSet[str]) -> float:
        """``prod_{e in S} w(e)``."""
        return self._num_subtasks(self._columns(sliced))

    def contraction_cost(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """Cost of a *single* subtask under ``sliced`` (Eq. 1 with S removed)."""
        return float(np.sum(2.0 ** self._reduced_log2(self._columns(sliced))))

    def total_cost(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """Total cost over all subtasks (Eq. 4)."""
        return self._total_cost(self._columns(sliced))

    def log10_total_cost(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """log10 of :meth:`total_cost`."""
        return math.log10(self.total_cost(sliced))

    def overhead(self, sliced: AbstractSet[str]) -> float:
        """Slicing overhead ``O(B, S)`` of Eq. 2."""
        return self.total_cost(sliced) / self._base_cost

    def per_node_log2_cost(self, sliced: AbstractSet[str] = frozenset()) -> np.ndarray:
        """Per-internal-node log2 cost of one subtask, in node order."""
        return self._reduced_log2(self._columns(sliced))

    def per_node_multiplier(self, sliced: AbstractSet[str]) -> np.ndarray:
        """Per-node redundancy multiple ``2^{|S| - |S ∩ s_V|}`` (Fig. 6's green curve)."""
        cols = self._columns(sliced)
        missing = self._log2w[cols].sum() - self._contract_membership[:, cols] @ self._log2w[cols]
        return 2.0**missing

    # ------------------------------------------------------------------
    # Memory metrics
    # ------------------------------------------------------------------
    def max_rank(self, sliced: AbstractSet[str] = frozenset()) -> int:
        """Largest intermediate rank counting only unsliced indices."""
        return int(self._sliced_ranks(self._columns(sliced)).max())

    def _max_intermediate_log2_size(self, cols: np.ndarray) -> float:
        sizes = self._result_log2 - self._result_membership[:, cols] @ self._log2w[cols]
        return float(sizes.max())

    def max_intermediate_log2_size(self, sliced: AbstractSet[str] = frozenset()) -> float:
        """log2 size of the biggest intermediate under ``sliced``."""
        return self._max_intermediate_log2_size(self._columns(sliced))

    def satisfies_target(self, sliced: AbstractSet[str], target_rank: int) -> bool:
        """Whether every intermediate's sliced rank is at most ``target_rank``."""
        return self.max_rank(sliced) <= target_rank

    def critical_nodes(self, sliced: AbstractSet[str], target_rank: int) -> Tuple[int, ...]:
        """The *critical tensors* of §4.3: intermediates at exactly the target rank."""
        mask = self._sliced_ranks(self._columns(sliced)) == target_rank
        return tuple(self._nodes[i] for i in np.nonzero(mask)[0])

    def nodes_covering(self, edge: str) -> Tuple[int, ...]:
        """Internal nodes whose *result tensor* carries ``edge`` (its lifetime)."""
        mask = self._result_membership[:, self._column(edge)]
        return tuple(self._nodes[i] for i in np.nonzero(mask)[0])

    def edges_covering_all(self, nodes: Sequence[int]) -> Tuple[str, ...]:
        """Edges whose lifetime (result-tensor membership) covers every node in ``nodes``.

        An edge can replace a sliced edge only if it reduces every critical
        tensor the sliced edge was responsible for
        (:meth:`SlicingState.swap_candidates` is the batched form).
        """
        rows = [self._row(n) for n in nodes]
        mask = self._result_membership[rows, :].all(axis=0)
        return tuple(self._indices[i] for i in np.nonzero(mask)[0])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(
        self, sliced: AbstractSet[str], target_rank: int, method: str = "unknown"
    ) -> SlicingResult:
        """Package ``sliced`` into a :class:`SlicingResult`."""
        sliced = frozenset(sliced)
        cols = self._columns(sliced)
        total_cost = self._total_cost(cols)
        max_rank = int(self._sliced_ranks(cols).max())
        return SlicingResult(
            sliced=sliced,
            num_subtasks=self._num_subtasks(cols),
            overhead=total_cost / self._base_cost,
            log10_total_cost=math.log10(total_cost),
            max_rank=max_rank,
            max_intermediate_log2_size=self._max_intermediate_log2_size(cols),
            target_rank=target_rank,
            satisfies_target=max_rank <= target_rank,
            method=method,
        )


class SlicingState:
    """One *current* slicing set, held as per-node vectors, scoring whole moves at once.

    The slicers change their set one edge at a time, so the state keeps what
    every candidate evaluation shares — each intermediate's sliced rank
    (:attr:`ranks`), each contraction's reduced log2 cost (:attr:`reduced`)
    and ``log2`` of the subtask count — and scores all candidates of a move
    against it in one ``(candidates × nodes)`` array: feasibility as
    ``max(ranks − membership) <= target``, Eq. 4 cost as
    ``2^log2_subtasks · Σ_nodes 2^(reduced − membership · log2 w)``.

    A move (:meth:`add`, :meth:`remove`, :meth:`replace`) updates the
    vectors by the changed columns alone, O(nodes) whatever ``|S|``.  Ranks
    are integers, so that is always exact; so are the reduced costs and the
    log2 subtask count when every ``log2 w`` is an integer (every qubit
    network), since sums of integers do not depend on their order.  With any
    non-integral size those two are rebuilt from the membership matrices
    instead (O(nodes · |S|)).  Either way, at all times they equal
    :meth:`SlicingCostModel.per_node_log2_cost` and the ranks behind
    :meth:`SlicingCostModel.max_rank` exactly, with no drift.  The largest
    rank and the critical nodes of the last target asked about are kept
    until the next move.

    Scores agree with the scalar :class:`SlicingCostModel` methods (the
    oracle): feasibility always, costs bit-for-bit when every index size is a
    power of two (all exponents are then exact integers) and to rounding
    otherwise.

    Candidates are *columns* — positions in ``model.indices``, which is
    sorted, so ascending columns are in label order.  The state holds O(nodes
    + indices) numbers; the ``(candidates × nodes)`` temporaries live for one
    call.

    Raises :exc:`SlicingError` for an edge the tree does not have, for adding
    a sliced edge and for removing an unsliced one.
    """

    def __init__(self, model: SlicingCostModel, sliced: AbstractSet[str] = frozenset()) -> None:
        self.model = model
        cols = model._columns(sliced)
        self._sliced = np.zeros(len(model._indices), dtype=bool)
        self._sliced[cols] = True
        #: The sliced edge labels, sorted.
        self.edges: List[str] = [model._indices[c] for c in cols]
        #: Sliced rank of every intermediate, in ``model.nodes`` order.
        self.ranks: np.ndarray = model._sliced_ranks(cols)
        #: Reduced log2 cost of every contraction, in ``model.nodes`` order.
        self.reduced: np.ndarray = model._reduced_log2(cols)
        self._log2_subtasks = model._log2w[cols].sum()
        self._forget()

    def _forget(self) -> None:
        """Drop what was derived from the vectors: the largest rank, the critical rows."""
        self._max_rank: Optional[int] = None
        self._critical: Tuple[Optional[int], Optional[np.ndarray]] = (None, None)

    def _move(self, added: Optional[int], dropped: Optional[int]) -> None:
        """Slice column ``added`` and un-slice column ``dropped`` (either may be ``None``)."""
        model = self.model
        by_result, by_contract, log2w = (
            model._result_by_column,
            model._contract_by_column,
            model._log2w,
        )
        ranks, reduced, log2_subtasks = self.ranks, self.reduced, self._log2_subtasks
        if dropped is not None:
            self._sliced[dropped] = False
            ranks = ranks + by_result[dropped]
            reduced = reduced + by_contract[dropped] * log2w[dropped]
            log2_subtasks = log2_subtasks - log2w[dropped]
        if added is not None:
            self._sliced[added] = True
            ranks = ranks - by_result[added]
            reduced = reduced - by_contract[added] * log2w[added]
            log2_subtasks = log2_subtasks + log2w[added]
        self.ranks = ranks
        if model._integral:
            self.reduced, self._log2_subtasks = reduced, log2_subtasks
        else:  # rounding would depend on the order of the moves: rebuild
            cols = np.flatnonzero(self._sliced)
            self.reduced = model._reduced_log2(cols)
            self._log2_subtasks = log2w[cols].sum()
        self._forget()

    # ------------------------------------------------------------------
    # The set
    # ------------------------------------------------------------------
    def _sliced_column(self, edge: str) -> int:
        col = self.model._column(edge)
        if not self._sliced[col]:
            raise SlicingError(f"edge {edge!r} is not sliced")
        return col

    def _unsliced_column(self, edge: str) -> int:
        col = self.model._column(edge)
        if self._sliced[col]:
            raise SlicingError(f"edge {edge!r} is already sliced")
        return col

    def add(self, edge: str) -> None:
        """Slice ``edge``."""
        self._move(self._unsliced_column(edge), None)
        edges = self.edges.copy()
        insort(edges, edge)
        self.edges = edges

    def remove(self, edge: str) -> None:
        """Un-slice ``edge``."""
        self._move(None, self._sliced_column(edge))
        self.edges = [ix for ix in self.edges if ix != edge]

    def replace(self, edge: str, candidate: str) -> None:
        """Swap the sliced ``edge`` for the unsliced ``candidate``."""
        dropped = self._sliced_column(edge)
        self._move(self._unsliced_column(candidate), dropped)
        edges = [ix for ix in self.edges if ix != edge]
        insort(edges, candidate)
        self.edges = edges

    def satisfies_target(self, target_rank: int) -> bool:
        """Whether every intermediate's sliced rank is at most ``target_rank``."""
        if self._max_rank is None:
            self._max_rank = int(self.ranks.max())
        return self._max_rank <= target_rank

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def unsliced_counts(self, rows: np.ndarray) -> np.ndarray:
        """Per column, how many of the intermediates in the node mask ``rows`` carry it.

        Sliced columns count zero, so ``flatnonzero`` lists the unsliced edges
        on those intermediates and ``argmax`` the first (in label order) that
        covers the most of them.
        """
        counts = self.model._result_membership[rows].sum(axis=0)
        counts[self._sliced] = 0
        return counts

    def swap_candidates(self, edge: str, target_rank: int) -> np.ndarray:
        """Unsliced columns whose lifetime covers every critical tensor in ``edge``'s.

        The critical tensors (§4.3) sit at exactly ``target_rank``; un-slicing
        ``edge`` pushes those inside its lifetime over the bound unless the
        replacement covers them all.  So while the set meets the bound, every
        candidate does too once swapped in (:meth:`feasible` would pass them
        all): the nodes over the bound without ``edge`` are exactly those
        critical ones, and a candidate lowers each of them.
        """
        model = self.model
        col = self._sliced_column(edge)
        target, critical = self._critical
        if target != target_rank:
            critical = (self.ranks == target_rank).nonzero()[0]
            self._critical = (target_rank, critical)
        covered = critical.compress(model._result_by_column[col].take(critical))
        mask = np.logical_and.reduce(model._result_membership.take(covered, axis=0), axis=0)
        mask[self._sliced] = False
        return mask.nonzero()[0]

    # ------------------------------------------------------------------
    # Batched move scoring
    # ------------------------------------------------------------------
    # Rows of ``model._*_by_column`` gathered by candidate are C-order
    # ``(candidates × nodes)`` arrays, so the reductions below run along each
    # candidate's nodes exactly as the scalar methods' 1-D reductions do.
    def feasible(
        self, cols: np.ndarray, target_rank: int, without: Optional[str] = None
    ) -> np.ndarray:
        """Per candidate: does the set, minus ``without``, plus the candidate, meet the bound?"""
        by_column = self.model._result_by_column
        ranks = self.ranks
        if without is not None:
            ranks = ranks + by_column[self._sliced_column(without)]
        return (ranks - by_column.take(cols, axis=0)).max(axis=1) <= target_rank

    def droppable(self, target_rank: int) -> np.ndarray:
        """Per sliced edge (in :attr:`edges` order): does the set without it meet the bound?"""
        carried = self.model._result_by_column[self._sliced]
        return (self.ranks + carried).max(axis=1) <= target_rank

    def costs(self, cols: np.ndarray, without: Optional[str] = None) -> np.ndarray:
        """Per candidate: Eq. 4 total cost of the set, minus ``without``, plus the candidate."""
        model = self.model
        by_column, log2w = model._contract_by_column, model._log2w
        reduced, log2_subtasks = self.reduced, self._log2_subtasks
        if without is not None:
            col = self._sliced_column(without)
            reduced = reduced + by_column[col] * log2w[col]
            log2_subtasks = log2_subtasks - log2w[col]
        weights = log2w.take(cols)
        per_node = reduced - by_column.take(cols, axis=0) * weights[:, None]
        return np.exp2(log2_subtasks + weights) * np.exp2(per_node).sum(axis=1)
