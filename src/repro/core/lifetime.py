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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..tensornet.contraction_tree import ContractionTree, ContractionTreeError

__all__ = [
    "Lifetime",
    "compute_lifetimes",
    "lifetime_of",
    "lifetime_lengths",
    "lifetimes_on_nodes",
    "lifetime_contains",
    "lifetime_is_contiguous_on_path",
    "SweepPlan",
    "plan_folded_sweep",
    "plan_sweep",
    "slice_dependency_levels",
    "slice_dependent_nodes",
    "sweep_prediction",
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


# ----------------------------------------------------------------------
# Sweep planning: which index varies fastest, and where one must be fixed
# ----------------------------------------------------------------------
#: Sliced indices the exact order search places.  With more, the slowest
#: positions keep label order and the search places the last (fastest)
#: ``MAX_SEARCH_INDICES`` only — ``2**12`` subsets is 0.1-0.2 s of plain
#: Python per threshold, so compiling a plan never hangs on a large
#: slicing set.
MAX_SEARCH_INDICES = 12


def _index_width(tree: ContractionTree, index: str) -> int:
    """``w(index)``; 1 for a label the tree does not know (fixing it is a no-op)."""
    try:
        return tree.index_size(index)
    except ContractionTreeError:
        return 1


def _node_tables(tree: ContractionTree, labels: Sequence[str]) -> Tuple[List[int], ...]:
    """Per-node integers the sweep planner works on, leaves first.

    ``reach`` is the bit mask (bit ``i`` = ``labels[i]``) of the sliced
    indices on some leaf of the node's subtree; ``carried`` whether all of
    them are still on the node's own tensor; ``full`` / ``fixed`` the
    tensor's element count with the sliced indices left on / fixed;
    ``deepest`` the largest ``full`` over the subtree; ``work_full`` /
    ``work_fixed`` the contraction's scalar multiply-adds likewise (0 on
    leaves).  Exact integers: sums over them are order-independent.
    """
    bit = {ix: 1 << i for i, ix in enumerate(labels)}
    count = tree.root + 1
    reach, carried = [0] * count, [True] * count
    full, fixed, deepest = [1] * count, [1] * count, [1] * count
    work_full, work_fixed = [0] * count, [0] * count
    for node in range(count):
        own = 0
        for ix in tree.node_indices(node):
            width = tree.index_size(ix)
            full[node] *= width
            if ix in bit:
                own |= bit[ix]
            else:
                fixed[node] *= width
        children = tree.children(node)
        if children is None:
            reach[node], deepest[node] = own, full[node]
            continue
        a, b = children
        reach[node] = reach[a] | reach[b]
        carried[node] = own == reach[node]
        deepest[node] = max(full[node], deepest[a], deepest[b])
        work_full[node] = work_fixed[node] = 1
        for ix in tree.contraction_indices(node):
            width = tree.index_size(ix)
            work_full[node] *= width
            if ix not in bit:
                work_fixed[node] *= width
    return reach, carried, full, fixed, deepest, work_full, work_fixed


def _sweep_tables(
    tree: ContractionTree,
    tables: Tuple[List[int], ...],
    num_labels: int,
    open_nodes: AbstractSet[int],
    chain: AbstractSet[int] = frozenset(),
    chain_mask: int = 0,
) -> Tuple[int, int, int, List[List[List[int]]]]:
    """What a sweep costs with ``open_nodes`` carried, split by order-dependence.

    Returns ``(steps, work, cache, entries)``.  The first three are what
    the warm pass costs whatever the order: one step and its unsliced work
    per node no sliced index reaches or that is open, and the elements of
    the cache entries (the maximal such nodes; a leaf entry aliases the
    network's own array).  ``entries[i]`` lists, for every distinct reach
    mask ``m`` containing bit ``i``, ``[m, steps, work, held]``: the nodes
    of reach ``m`` run once per value combination of the indices placed up
    to the one that completes ``m``, and *if that one is ``i``* they keep
    ``held`` elements of children ``i`` does not reach between subtasks
    (internal children only — leaf loads and fetches are views).

    The nodes of ``chain`` — an inner fold's flush — run once per block,
    a value combination of the indices in ``chain_mask``: that is their
    mask, and what they read is held apart (:meth:`_Search.inner_fold`).
    """
    reach, _, full, fixed, _, work_full, work_fixed = tables
    parents = tree.parent_map()
    steps = work = cache = 0
    entries: List[List[List[int]]] = [[] for _ in range(num_labels)]
    where: Dict[int, List[int]] = {}
    for node in tree.internal_nodes():
        mask = chain_mask if node in chain else reach[node]
        if not mask or node in open_nodes:
            steps += 1
            work += work_full[node]
            parent = parents.get(node)
            if parent is None or (reach[parent] and parent not in open_nodes):
                cache += full[node]
            continue
        for i in range(num_labels):
            if not mask >> i & 1:
                continue
            entry = where.get(mask * num_labels + i)
            if entry is None:
                entry = where[mask * num_labels + i] = [mask, 0, 0, 0]
                entries[i].append(entry)
            entry[1] += 1
            entry[2] += work_fixed[node]
            if node in chain:
                continue
            for child in tree.children(node):  # type: ignore[union-attr]
                if (
                    child >= tree.num_leaves
                    and reach[child]
                    and child not in open_nodes
                    and not reach[child] >> i & 1
                ):
                    entry[3] += fixed[child]
    return steps, work, cache, entries


def _place(
    entries: List[List[int]], placed: int, runs: int
) -> Tuple[int, int, int]:
    """``(steps, work, held)`` added by placing one index next-fastest.

    ``entries`` is that index's row of :func:`_sweep_tables`, ``placed``
    the mask of the indices placed so far *including* it and ``runs`` the
    product of their widths.
    """
    steps = work = held = 0
    for mask, count, cost, keep in entries:
        if not mask & ~placed:
            steps += count
            work += cost
            held += keep
    return runs * steps, runs * work, held


def _fold(
    entries: List[List[List[int]]],
    widths: Sequence[int],
    positions: Sequence[int],
) -> Tuple[int, int, int, int, int]:
    """Place ``positions`` in turn, slowest first: ``(placed, runs, steps, work, held)``."""
    placed, runs, steps, work, held = 0, 1, 0, 0, 0
    for i in positions:
        placed |= 1 << i
        runs *= widths[i]
        more = _place(entries[i], placed, runs)
        steps, work, held = steps + more[0], work + more[1], held + more[2]
    return placed, runs, steps, work, held


def _search_order(
    entries: List[List[List[int]]],
    widths: Sequence[int],
    free: Sequence[int],
    start: Tuple[int, int, int, int, int],
    caps: Tuple[int, int, int],
) -> Optional[List[int]]:
    """Best order in which to place ``free`` after ``start`` under ``caps``.

    A subset search: what placing index ``i`` after the set ``P`` adds
    depends on ``P`` and ``i`` only (:func:`_place`), so it is enough to
    keep, per subset, the Pareto front of ``(steps, work, held)`` over its
    orderings, one popcount layer at a time.  Exact: returns the ordering
    with the least ``(steps, work, held, positions)``, or ``None`` when
    every ordering exceeds one of the ``(steps, work, held)`` caps.

    An ordering is held as *one integer* with the fields ``steps | work |
    held | order`` from the top — ``work`` and ``held`` as wide as their
    caps plus a guard bit, ``order`` one digit per free index, first placed
    highest — so integers compare as the tuples would, a placement is one
    addition and a dominance test one subtraction (:func:`_no_worse`); the
    search's working set is a few words per live subset.
    """
    placed, runs, steps, work, held = start
    steps_cap, work_cap, held_cap = caps
    if steps > steps_cap or work > work_cap or held > held_cap:
        return None
    digit = len(widths).bit_length()
    low = digit * len(free)
    mid = low + held_cap.bit_length() + 1
    high = mid + work_cap.bit_length() + 1
    guards = ((1 << (mid - 1)) | (1 << (high - 1))) >> low
    work_mask, held_mask = (1 << (high - mid)) - 1, (1 << (mid - low)) - 1
    layer = {placed: ((steps << high) | (work << mid) | (held << low),)}
    for slot in range(low - digit, -1, -digit):
        following: Dict[int, Tuple[int, ...]] = {}
        while layer:
            placed, front = layer.popitem()
            wider = runs
            for i in free:
                if placed >> i & 1:
                    wider *= widths[i]
            for i in free:
                if placed >> i & 1:
                    continue
                union = placed | (1 << i)
                more = _place(entries[i], union, wider * widths[i])
                if more[1] > work_cap or more[2] > held_cap:
                    continue
                step = (more[0] << high) + (more[1] << mid) + (more[2] << low) + (i << slot)
                for code in front:
                    code += step
                    if (
                        code >> high <= steps_cap
                        and (code >> mid) & work_mask <= work_cap
                        and (code >> low) & held_mask <= held_cap
                    ):
                        following[union] = _keep_undominated(
                            following.get(union, ()), code, low, guards
                        )
        layer = following
    if not layer:
        return None
    best = min(min(front) for front in layer.values())
    return [(best >> slot) & ((1 << digit) - 1) for slot in range(low - digit, -1, -digit)]


def _no_worse(ours: int, theirs: int, guards: int) -> bool:
    """Whether ``ours`` is ``<= theirs`` in every field (order field shifted off).

    With the guard bit of each bounded field set in ``theirs``, the
    subtraction borrows from a guard exactly where ``ours`` is larger, and
    goes negative when the unbounded top field (steps) is.
    """
    gap = (theirs | guards) - ours
    return gap >= 0 and gap & guards == guards


def _keep_undominated(
    front: Tuple[int, ...], new: int, low: int, guards: int
) -> Tuple[int, ...]:
    """``front`` with ``new`` inserted, as a Pareto front of ``(steps, work,
    held)``; on a full tie the smaller order (the earlier labels) stays."""
    fields = new >> low
    for old in front:
        if _no_worse(old >> low, fields, guards) and old <= new:
            return front
    return (*(old for old in front if not _no_worse(fields, old >> low, guards)), new)


def plan_sweep(
    tree: ContractionTree, sliced: Iterable[str]
) -> Tuple[Tuple[str, ...], FrozenSet[int]]:
    """Choose how a sweep over ``sliced`` runs: ``(order, open_nodes)``.

    ``order`` lists the sliced indices slowest-varying first (the argument
    of :func:`slice_dependency_levels`).  ``open_nodes`` are internal nodes
    contracted *once* with the sliced indices reaching them left on as
    ordinary axes; a subtask takes a view of the result instead of fixing
    the index on every tensor below.  A node can be open under a threshold
    ``M`` when every tensor of its subtree, indices left on, holds at most
    ``M`` elements and every sliced index reaching it is still on its own
    tensor (none was summed below); ``M`` never exceeds the largest tensor
    of the sliced plan, which is what the slicing was sized for.

    Thresholds are tried from the largest down (the last, 0, opens
    nothing); at each, :func:`_search_order` finds the order with the
    fewest executed steps — ties: less work, fewer resident elements,
    earlier labels — among those whose steps, work *and* resident elements
    (cache entries plus retained partials) do not exceed those of
    sorted-label order with nothing open.  The first threshold with such
    an order wins, so the result is no worse than label order on any of
    the three, or is label order.

    Deterministic in ``(tree, sliced)``: labels are only ever sorted, never
    iterated as a set.  Beyond :data:`MAX_SEARCH_INDICES` indices the
    slowest positions keep label order and the search places the rest.
    """
    labels = tuple(sorted(frozenset(sliced)))
    if not labels:
        return (), frozenset()
    search = _Search(tree, labels)
    positions, open_nodes = search.choose()
    return tuple(labels[i] for i in positions), open_nodes


#: The inner fold's admission bound: a fold is taken only when (its work /
#: the fold-free plan's) x (its resident elements / the fold-free plan's)
#: is at most this.  Measured products of the best candidate: a
#: ``correlated_sampling`` batch 0.452 (work 3.48e8 -> 8.05e7, elements
#: 8,064 -> 15,744); the three ``GOLDEN`` plans 1.09 (256 -> 112
#: multiply-adds, 8 -> 20 elements); ``small_subtasks`` 1.93;
#: ``large_subtasks`` has no qualifying node.  The order-free lower bounds
#: (:meth:`_Search.inner_fold`) already refuse ``GOLDEN`` (1.09) and
#: ``small_subtasks`` (0.725) without a search; the batch's is 0.285.
INNER_FOLD_PRODUCT = 0.5

#: Subsets the inner fold's pricing searches over all its candidates: each
#: is one subset search over the ``f`` free positions, so the
#: ``max(1, INNER_FOLD_SUBSETS >> f)`` candidates of least lower bound are
#: priced — all of the bench plans' (at most 3, at most 9 free positions),
#: and one on a plan of 12, about one more :func:`plan_sweep` threshold
#: (4x5-6x6 grids sliced to 24-42 indices, 6-13 candidates: +0.01-0.2 s on
#: a 0.3-0.5 s search, where pricing every candidate took +0.8-1.7 s;
#: 2-vCPU VM).
INNER_FOLD_SUBSETS = 2**MAX_SEARCH_INDICES


class SweepPlan(NamedTuple):
    """How a sweep runs, inner fold included (:func:`plan_folded_sweep`).

    ``inner_fold`` is ``(node, level)`` — a sweep sums ``node``'s array
    over the positions after ``level`` and runs the chain above it once per
    block, a value combination of the first ``level`` positions — or
    ``None``.  ``product`` is the admission product of the best candidate
    (admitted or not), ``None`` when no node qualified; with ``bound`` it is
    only the least lower bound over the candidates, none of which could be
    admitted, so none was priced.
    """

    order: Tuple[str, ...]
    open_nodes: FrozenSet[int]
    inner_fold: Optional[Tuple[int, int]]
    product: Optional[float]
    bound: bool = False


def plan_folded_sweep(tree: ContractionTree, sliced: Iterable[str]) -> SweepPlan:
    """:func:`plan_sweep`, then the enumeration order and an inner fold chosen together.

    Summation is linear, so a node ``X`` below the root can sum its arrays
    over the positions after ``M`` — the highest level among the *chain
    siblings*, the other children of ``X``'s ancestors — and the chain
    from ``X`` up runs once per block of the first ``M`` positions instead
    of once per subtask.  A node qualifies when it carries sliced indices
    no chain sibling reaches (a test on the tree, whatever the order).
    Each is priced by the same subset search as :func:`plan_sweep`, its
    chain at the siblings' union mask (:func:`_sweep_tables`), under the
    label-order plan's steps and work; its resident elements add the
    accumulator and the chain siblings a sliced index reaches, which the
    flush reads.  The least-work candidate is taken when its
    :data:`INNER_FOLD_PRODUCT` holds; otherwise the result is
    :func:`plan_sweep`'s choice unchanged.  One inner point per plan.
    """
    labels = tuple(sorted(frozenset(sliced)))
    if not labels:
        return SweepPlan((), frozenset(), None, None)
    search = _Search(tree, labels)
    return search.inner_fold(*search.choose())


class _Search:
    """The tables :func:`plan_sweep` and :func:`plan_folded_sweep` search over."""

    def __init__(self, tree: ContractionTree, labels: Tuple[str, ...]) -> None:
        self.tree = tree
        self.labels = labels
        self.count = count = len(labels)
        self.widths = widths = [_index_width(tree, ix) for ix in labels]
        self.tables = tables = _node_tables(tree, labels)
        # the ceilings: what sorted-label order costs with nothing open
        steps, work, cache, entries = _sweep_tables(tree, tables, count, frozenset())
        today = _fold(entries, widths, range(count))
        self.caps = (steps + today[2], work + today[3], cache + today[4])
        self.free = range(max(0, count - MAX_SEARCH_INDICES), count)

    def _order(
        self, entries: List[List[List[int]]], caps: Tuple[int, int, int]
    ) -> Optional[List[int]]:
        """:func:`_search_order` over the free positions: the whole order."""
        free = self.free
        start = _fold(entries, self.widths, range(free[0]))
        best = _search_order(entries, self.widths, free, start, caps)
        return None if best is None else [*range(free[0]), *best]

    def choose(self) -> Tuple[List[int], FrozenSet[int]]:
        """:func:`plan_sweep`'s ``(positions, open_nodes)``."""
        tree, tables, count = self.tree, self.tables, self.count
        reach, carried, _, fixed, deepest = tables[:5]
        steps_cap, work_cap, held_cap = self.caps
        candidates = [
            node for node in tree.internal_nodes() if reach[node] and carried[node]
        ]
        peak = max(fixed)
        thresholds = sorted(
            {deepest[node] for node in candidates if deepest[node] <= peak},
            reverse=True,
        ) + [0]
        for threshold in thresholds:
            open_nodes = frozenset(n for n in candidates if deepest[n] <= threshold)
            steps, work, cache, entries = _sweep_tables(tree, tables, count, open_nodes)
            best = self._order(
                entries, (steps_cap - steps, work_cap - work, held_cap - cache)
            )
            if best is not None:
                # (threshold 0 opens nothing and admits label order itself)
                return best, open_nodes
        raise AssertionError("label order always fits its own ceilings")

    def inner_fold(self, positions: Sequence[int], open_nodes: FrozenSet[int]) -> SweepPlan:
        """:func:`plan_folded_sweep`'s choice, after :meth:`choose`'s ``(positions, open_nodes)``.

        Of the qualifying nodes with one chain mask on one root path only
        the deepest is a candidate: moving the chain down past a sibling the
        mask already covers turns a per-subtask node into a per-block one.
        Every candidate's product has an order-free lower bound — no order
        runs a node less than once per value of its own mask, nor holds
        less than the order-free cache, the accumulator and the siblings
        the flush reads.  When no bound is admitted nothing is searched.
        Otherwise the candidates of least bound are priced, at most
        :data:`INNER_FOLD_SUBSETS` subsets over all; the search per
        candidate bounds steps and work and ignores resident elements,
        which the product then weighs.  A candidate none of whose orders
        fits the label-order plan's steps and work is dropped.
        """
        tree, tables, count, widths = self.tree, self.tables, self.count, self.widths
        reach, fixed = tables[0], tables[3]
        num_leaves = tree.num_leaves
        today = SweepPlan(tuple(self.labels[i] for i in positions), open_nodes, None, None)
        steps, work, cache, entries = _sweep_tables(tree, tables, count, open_nodes)
        swept = _fold(entries, widths, positions)
        scale = (work + swept[3]) * (cache + swept[4])
        # top-down: the chain siblings' mask and the elements the flush
        # reads besides the accumulator, for every node outside the open
        # subtrees (whose warm pass carries the sliced indices)
        masks, reads = {tree.root: 0}, {tree.root: 0}
        candidates = []
        for node in reversed(tree.internal_nodes()):
            if node not in masks or node in open_nodes:
                continue
            for child, sibling in zip(tree.children(node), reversed(tree.children(node))):
                masks[child] = masks[node] | reach[sibling]
                reads[child] = reads[node]
                if reach[sibling] and sibling not in open_nodes:
                    reads[child] += fixed[sibling]
            if masks[node] and reach[node] & ~masks[node] and not any(
                child >= num_leaves
                and child not in open_nodes
                and masks[child] == masks[node]
                and reach[child] & ~masks[node]
                for child in tree.children(node)  # type: ignore[union-attr]
            ):
                candidates.append(node)
        if not candidates:
            return today
        if not scale:
            return today._replace(product=math.inf)  # it holds nothing to trade

        def chain_tables(node: int) -> Tuple[int, int, int, List[List[List[int]]]]:
            chain = frozenset(tree.path_to_root(node)[1:])
            return _sweep_tables(tree, tables, count, open_nodes, chain, masks[node])

        bounds = {}
        for node in candidates:
            steps, work, cache, entries = chain_tables(node)
            # (an entry's nodes run once per value combination of the
            # positions up to the one completing their mask: at least once
            # per value of the mask's own indices)
            least = work + sum(
                cost * math.prod(widths[i] for i in range(count) if mask >> i & 1)
                for mask, cost in {entry[0]: entry[2] for row in entries for entry in row}.items()
            )
            bounds[node] = least * (cache + fixed[node] + reads[node]) / scale
        if min(bounds.values()) > INNER_FOLD_PRODUCT:
            return today._replace(product=min(bounds.values()), bound=True)
        priced = max(1, INNER_FOLD_SUBSETS >> len(self.free))
        ranked = sorted(candidates, key=lambda node: (bounds[node], node))[:priced]
        steps_cap, work_cap = self.caps[:2]
        best: Optional[Tuple[int, List[int], int, int, float]] = None
        for node in sorted(ranked):
            mask = masks[node]
            steps, work, cache, entries = chain_tables(node)
            order = self._order(
                [[entry[:3] + [0] for entry in row] for row in entries],
                (steps_cap - steps, work_cap - work, 0),
            )
            if order is None:
                continue
            level = max(k + 1 for k, i in enumerate(order) if mask >> i & 1)
            if level == count:
                continue  # nothing left to sum inside a block
            swept = _fold(entries, widths, order)
            if best is None or work + swept[3] < best[0]:
                held = cache + swept[4] + fixed[node] + reads[node]
                best = (work + swept[3], order, node, level, (work + swept[3]) * held / scale)
        if best is None:
            return today
        _, order, node, level, product = best
        if product > INNER_FOLD_PRODUCT:
            return today._replace(product=product)
        return SweepPlan(tuple(self.labels[i] for i in order), open_nodes, (node, level), product)


def sweep_prediction(
    tree: ContractionTree,
    order: Sequence[str],
    open_nodes: AbstractSet[int] = frozenset(),
) -> Tuple[int, int, int]:
    """``(steps, work, resident elements)`` of one full sweep in ``order``.

    The quantities :func:`plan_sweep` minimises and bounds, for any order
    and open set: pair contractions executed (warm pass included), their
    scalar multiply-adds, and the elements held between subtasks (cache
    entries plus retained partials).  A compiled plan's ``sweep_cost()``
    reports the same numbers from its own step list.
    """
    labels = tuple(sorted(order))
    widths = [_index_width(tree, ix) for ix in labels]
    steps, work, cache, entries = _sweep_tables(
        tree, _node_tables(tree, labels), len(labels), open_nodes
    )
    swept = _fold(entries, widths, [labels.index(ix) for ix in order])
    return steps + swept[2], work + swept[3], cache + swept[4]


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
