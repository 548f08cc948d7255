"""Lifetime of tensor-network edges (Definition 1 of the paper).

Given a tensor network ``G = (V, E)`` and a contraction tree ``B``, the
*lifetime* of an edge ``k`` is the set of tensors of the contraction tree
(leaves and intermediates alike — the paper's ``E_B``) whose index set
contains ``k``.

Lifetime is the paper's central analytical device:

* slicing edge ``e`` halves exactly the tensors in ``lifetime(e)`` and
  leaves every other tensor unchanged;
* the contractions *inside* the lifetime keep their time complexity, the
  ones outside are recomputed once per slice value — that recomputation is
  the slicing overhead (Eq. 2);
* on the stem, an edge with a longer lifetime tends to cover more of the
  computationally intensive region, which is why Algorithm 1 slices the
  longest-lifetime indices first;
* at the thread level the indices *not* contracted during a fused sub-path
  are, by definition, the indices whose lifetime spans the sub-path — the
  prerequisite of the secondary-slicing design (§5.2).

The functions here compute lifetimes over full contraction trees, subtrees
and stems, and expose the containment/length relations used by the slicing
strategy and its proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..tensornet.contraction_tree import ContractionTree

__all__ = [
    "Lifetime",
    "compute_lifetimes",
    "lifetime_of",
    "lifetime_lengths",
    "lifetimes_on_nodes",
    "lifetime_contains",
    "lifetime_is_contiguous_on_path",
    "slice_dependency_levels",
    "slice_dependent_nodes",
    "verify_halving_property",
]


@dataclass(frozen=True)
class Lifetime:
    """The lifetime of one edge over one contraction tree.

    Attributes
    ----------
    edge:
        The edge (index label).
    nodes:
        All tree nodes — leaves and intermediates — whose tensor carries the
        edge.
    internal_nodes:
        The subset of ``nodes`` that are intermediates (contraction results).
    """

    edge: str
    nodes: FrozenSet[int]
    internal_nodes: FrozenSet[int]

    @property
    def length(self) -> int:
        """Number of tensors in the lifetime (the paper's "length")."""
        return len(self.nodes)

    @property
    def internal_length(self) -> int:
        """Number of intermediate tensors in the lifetime."""
        return len(self.internal_nodes)

    def contains(self, other: "Lifetime") -> bool:
        """Whether this lifetime contains the other (the partial order of §4.2)."""
        return other.nodes <= self.nodes

    def restricted_to(self, nodes: AbstractSet[int]) -> FrozenSet[int]:
        """The lifetime restricted to a region of the tree (e.g. a stem)."""
        return self.nodes & frozenset(nodes)


def compute_lifetimes(
    tree: ContractionTree,
    edges: Optional[Iterable[str]] = None,
    include_leaves: bool = True,
) -> Dict[str, Lifetime]:
    """Compute the lifetime of every edge (or of ``edges``) over ``tree``.

    Parameters
    ----------
    tree:
        The contraction tree.
    edges:
        Restrict the computation to these edges; defaults to every edge on
        some leaf.
    include_leaves:
        Whether leaves count as part of a lifetime.  Definition 1 includes
        them (leaf tensors also shrink when sliced); the stem analysis
        usually looks only at intermediates.
    """
    wanted = frozenset(edges) if edges is not None else tree.all_indices()
    node_sets: Dict[str, set] = {ix: set() for ix in wanted}
    internal_sets: Dict[str, set] = {ix: set() for ix in wanted}

    node_range: Sequence[int]
    if include_leaves:
        node_range = tree.nodes()
    else:
        node_range = tree.internal_nodes()

    internal = frozenset(tree.internal_nodes())
    for node in node_range:
        for ix in tree.node_indices(node):
            if ix in node_sets:
                node_sets[ix].add(node)
                if node in internal:
                    internal_sets[ix].add(node)

    return {
        ix: Lifetime(
            edge=ix,
            nodes=frozenset(node_sets[ix]),
            internal_nodes=frozenset(internal_sets[ix]),
        )
        for ix in wanted
    }


def lifetime_of(tree: ContractionTree, edge: str, include_leaves: bool = True) -> Lifetime:
    """Lifetime of a single edge."""
    result = compute_lifetimes(tree, edges=[edge], include_leaves=include_leaves)
    return result[edge]


def lifetime_lengths(tree: ContractionTree, edges: Optional[Iterable[str]] = None) -> Dict[str, int]:
    """Length (tensor count) of every lifetime — the sort key of Algorithm 1."""
    return {ix: lt.length for ix, lt in compute_lifetimes(tree, edges=edges).items()}


def lifetimes_on_nodes(
    tree: ContractionTree,
    nodes: Sequence[int],
    edges: Optional[Iterable[str]] = None,
) -> Dict[str, FrozenSet[int]]:
    """Lifetimes restricted to an ordered region of the tree (e.g. the stem).

    Returns, for each edge, the subset of ``nodes`` whose tensor carries the
    edge.  Edges absent from the region map to the empty set.
    """
    wanted = frozenset(edges) if edges is not None else tree.all_indices()
    region = list(nodes)
    out: Dict[str, set] = {ix: set() for ix in wanted}
    for node in region:
        for ix in tree.node_indices(node):
            if ix in out:
                out[ix].add(node)
    return {ix: frozenset(v) for ix, v in out.items()}


def lifetime_contains(
    tree: ContractionTree, outer_edge: str, inner_edge: str, include_leaves: bool = True
) -> bool:
    """Whether ``lifetime(outer_edge)`` contains ``lifetime(inner_edge)``.

    The containment relation — not raw length — is what guarantees that
    slicing the outer edge reduces memory at least wherever slicing the
    inner one would (§4.2).
    """
    lifetimes = compute_lifetimes(
        tree, edges=[outer_edge, inner_edge], include_leaves=include_leaves
    )
    return lifetimes[outer_edge].contains(lifetimes[inner_edge])


def lifetime_is_contiguous_on_path(
    tree: ContractionTree, edge: str, path: Sequence[int]
) -> bool:
    """Whether the lifetime of ``edge`` is a contiguous segment of ``path``.

    On a stem (a path of successive contractions) every edge is created
    once and consumed once, so its lifetime restricted to the stem must be
    contiguous; the property tests use this as a structural invariant.
    """
    membership = [edge in tree.node_indices(node) for node in path]
    if not any(membership):
        return True
    first = membership.index(True)
    last = len(membership) - 1 - membership[::-1].index(True)
    return all(membership[first : last + 1])


def slice_dependency_levels(
    tree: ContractionTree, ordered_sliced: Sequence[str]
) -> Dict[int, int]:
    """How far down an enumeration order each node's value reaches.

    ``ordered_sliced`` lists the sliced edges slowest-varying first (the
    order a lexicographic sweep enumerates them in).  The *level* of a node
    is the 1-based position of the fastest-varying sliced edge whose
    lifetime contains a leaf of its subtree, or 0 when there is none: a
    level-0 node is slice-invariant, and a level-``j`` node changes value
    only when one of the first ``j`` edges does.  Between two assignments
    that first differ at position ``j`` every node below level ``j`` keeps
    its value, so a full sweep contracts a node ``prod_{i <= level} w(e_i)``
    times instead of ``prod_i w(e_i)`` — the recomputation slicing forces
    (Eq. 2), confined per edge to what its lifetime reaches.

    The levels depend on the order given and on nothing else (no set
    iteration), so a plan compiled from sorted labels is reproducible.
    """
    position = {ix: k + 1 for k, ix in enumerate(ordered_sliced)}
    levels: Dict[int, int] = {}
    for leaf in range(tree.num_leaves):
        levels[leaf] = max(
            (position[ix] for ix in tree.node_indices(leaf) if ix in position),
            default=0,
        )
    for node in tree.internal_nodes():
        a, b = tree.children(node)  # type: ignore[misc]
        levels[node] = max(levels[a], levels[b])
    return levels


def slice_dependent_nodes(
    tree: ContractionTree, sliced: Iterable[str]
) -> FrozenSet[int]:
    """Nodes whose value depends on the assignment of the sliced edges.

    A tree node is *slice-dependent* when some leaf of its subtree lies in
    the lifetime of a sliced edge: fixing the edge to different values then
    changes the leaf tensors feeding the node, hence its value.  Conversely
    every other node is *slice-invariant* — it is contracted from leaves
    untouched by the slicing and produces the identical intermediate in
    every subtask.  The plan compiler computes those intermediates once and
    reuses them across all ``prod w(e)`` subtasks; the recomputation that
    slicing does force is confined to exactly the dependent set, which is
    the executable form of the lifetime/overhead argument of Eq. 2.

    Returns the set of dependent nodes (leaves and intermediates) — the
    nodes of nonzero :func:`slice_dependency_levels`.  The empty slicing
    set yields the empty set: everything is invariant.
    """
    levels = slice_dependency_levels(tree, sorted(frozenset(sliced)))
    return frozenset(node for node, level in levels.items() if level)


def verify_halving_property(
    tree: ContractionTree, edge: str
) -> Tuple[bool, Dict[int, Tuple[float, float]]]:
    """Check the defining property of lifetime on one edge.

    Slicing ``edge`` must halve (divide by ``w(edge)``) the size of exactly
    the tensors in its lifetime and leave every other tensor's size
    unchanged.  Returns ``(ok, per_node_sizes)`` where ``per_node_sizes``
    maps each node to ``(log2 size before, log2 size after)``.
    """
    lifetime = lifetime_of(tree, edge)
    w = tree.log2_index_size(edge)
    sizes: Dict[int, Tuple[float, float]] = {}
    ok = True
    for node in tree.nodes():
        before = tree.node_log2_size(node)
        after = tree.node_log2_size(node, sliced={edge})
        sizes[node] = (before, after)
        if node in lifetime.nodes:
            if not math.isclose(after, before - w, abs_tol=1e-9):
                ok = False
        else:
            if not math.isclose(after, before, abs_tol=1e-9):
                ok = False
    return ok, sizes
