"""Graph-partition based contraction-path search.

cotengra's strongest paths for Sycamore-class networks come from recursive
hypergraph bisection (KaHyPar) and community detection (Girvan–Newman); the
paper uses those trees as its starting point.  Without KaHyPar available
offline we implement the same *divide and conquer* scheme:

* :class:`PartitionOptimizer` — recursive balanced bisection using the
  Kernighan–Lin heuristic, falling back to even splits for tiny or edgeless
  parts.  The recursion tree *is* the contraction tree: the two halves of
  every cut are contracted independently and then merged, which is exactly
  the structure cotengra builds.
* :class:`CommunityOptimizer` — the Girvan–Newman community structure
  variant referenced by the paper ([13] in the bibliography), on greedy
  modularity communities.

Both start from one weighted tensor graph, :func:`_tensor_edges`, held as
plain ``{node: {neighbour: weight}}`` dicts, and neither imports networkx.
The bisection takes an induced subgraph in the node and neighbour order
``graph.subgraph(group).copy()`` gives and runs
:func:`_kernighan_lin_bisection`, a port of networkx 3.6.1's
``kernighan_lin_bisection`` (its seeded shuffle, its two lazy-deletion
heaps, its tie-breaks), so every bisection is the one networkx returns; a
Sycamore-53 m=12 path takes 18 ms instead of 32.  The communities come
from :func:`_greedy_modularity_communities`, a port of the same release's
Clauset–Newman–Moore ``greedy_modularity_communities``: one ``heapq`` with
lazy deletion stands in for its ``MappedQueue`` per row and heap of row
maxima, which pop in the same order (an exact priority queue, ties broken
by ``(row, col)``).  ``tests/test_paths.py`` checks both ports against
networkx itself.

Each optimizer's ``ssa_path(network)`` builds the index space and the
tensor graph; :class:`~repro.paths.optimizer.HyperOptimizer` builds them
once per search and calls ``_ssa_path(space, graph)``.  Both return SSA
paths compatible with :class:`ContractionTree`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from .draws import DrawStream
from .indexspace import IndexSpace

__all__ = ["PartitionOptimizer", "CommunityOptimizer"]

#: ``{node: {neighbour: weight}}``, both directions of every edge
_Adjacency = Dict[int, Dict[int, float]]


def _tensor_edges(network: TensorNetwork) -> Dict[Tuple[int, int], float]:
    """The tensor graph's edges, ``(tid, tid) -> summed log2 sizes``, in creation order.

    Indices are walked in sorted order and each index's owners pairwise in
    sorted order; an edge is created by the first index its two tensors share.
    """
    edges: Dict[Tuple[int, int], float] = {}
    for ix in network.indices:
        owners = sorted(network.index_owners(ix))
        w = math.log2(network.size_of(ix))
        for i, a in enumerate(owners):
            for b in owners[i + 1 :]:
                edges[a, b] = edges.get((a, b), 0.0) + w
    return edges


def _adjacency(nodes: Iterable[int], edges: Dict[Tuple[int, int], float]) -> _Adjacency:
    """Adjacency dicts whose neighbour order is the order the edges were created in."""
    adjacency: _Adjacency = {node: {} for node in nodes}
    for (a, b), w in edges.items():
        adjacency[a][b] = w
        adjacency[b][a] = w
    return adjacency


def _tensor_graph(network: TensorNetwork) -> _Adjacency:
    """The tensor graph of ``network``, nodes in sorted-tid order."""
    return _adjacency(network.tensor_ids, _tensor_edges(network))


def _induced(graph: _Adjacency, group: List[int]) -> _Adjacency:
    """The subgraph on ``group``, ordered as networkx's ``graph.subgraph(group).copy()``.

    networkx iterates a node-induced view over ``set(group)`` when the group
    is under half the graph and over the graph's own order otherwise; the
    copy then adds every kept edge from each node in that order, so a node's
    neighbours are those met earlier, in node order, then the rest in the
    parent's neighbour order.
    """
    keep = set(group)
    order = keep if 2 * len(keep) < len(graph) else graph
    sub: _Adjacency = {node: {} for node in order if node in keep}
    for u in sub:
        for v, w in graph[u].items():
            if v in keep:
                sub[u][v] = w
                sub[v][u] = w
    return sub


def _kernighan_lin_sweep(
    graph: _Adjacency, side: Dict[int, int]
) -> List[Tuple[float, int, Tuple[int, int]]]:
    """One pass of networkx's single-node-move Kernighan–Lin: ``(cumulative cost, i, pair)``.

    The two heaps are networkx's ``BinaryHeap``: an update pushes a new
    ``(value, count, node)`` entry and a pop skips every entry whose value is
    not the node's current one.
    """
    values: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})
    heaps: Tuple[list, list] = ([], [])
    count = itertools.count()
    for u, nbrs in graph.items():
        cost_u = sum(wt if side[v] else -wt for v, wt in nbrs.items())
        s = side[u]
        value = cost_u if s else -cost_u
        values[s][u] = value
        heapq.heappush(heaps[s], (value, next(count), u))

    def pop(s: int) -> Tuple[int, float]:
        current, heap = values[s], heaps[s]
        while True:
            value, _, node = heapq.heappop(heap)
            if node in current and value == current[node]:
                del current[node]
                return node, value

    def update(node: int) -> None:
        side_node = side[node]
        for nbr, wt in graph[node].items():
            side_nbr = side[nbr]
            if side_nbr == side_node:
                wt = -wt
            current = values[side_nbr]
            if nbr in current:
                old = current[nbr]
                new = old + 2 * wt
                if new != old:
                    current[nbr] = new
                    heapq.heappush(heaps[side_nbr], (new, next(count), nbr))

    costs = []
    total = 0
    while values[0] and values[1]:
        u, cost_u = pop(0)
        update(u)
        v, cost_v = pop(1)
        update(v)
        total += cost_u + cost_v
        costs.append((total, len(costs) + 1, (u, v)))
    return costs


def _kernighan_lin_bisection(
    graph: _Adjacency, max_iter: int, seed: int
) -> Tuple[Set[int], Set[int]]:
    """``nx.community.kernighan_lin_bisection(graph, max_iter=, seed=)`` on adjacency dicts."""
    nodes = list(graph)
    random.Random(seed).shuffle(nodes)
    first = set(nodes[: len(nodes) // 2])
    side = {node: int(node in first) for node in nodes}
    for _ in range(max_iter):
        costs = _kernighan_lin_sweep(graph, side)
        min_cost, min_i, _ = min(costs)
        if min_cost >= 0:
            break
        for _, _, (u, v) in costs[:min_i]:
            side[u] = 1
            side[v] = 0
    return (
        {u for u, s in side.items() if s == 0},
        {u for u, s in side.items() if s == 1},
    )


def _greedy_modularity_communities(graph: _Adjacency, resolution: float) -> List[FrozenSet[int]]:
    """``nx.community.greedy_modularity_communities(G, weight="weight", resolution=)``
    on adjacency dicts without self-loops.

    Every float is networkx's: the degrees and ``m`` summed in node and
    neighbour order, ``dq`` scaled and updated by the same expressions, the
    merged community's ``a`` accumulated in merge order.  networkx keeps a
    ``MappedQueue`` of ``-dq`` per row and one of the row maxima; both break
    priority ties by the ``(row, col)`` element, so the next merge is the
    least ``(-dq, row, col)`` of all live entries, which one ``heapq`` with
    lazy deletion pops too.  An entry is live while ``dq[row][col]`` still
    holds its value.  Merging stops, as networkx's does, when fewer than two
    rows are left or the best ``dq`` is negative; the communities come back
    in their surviving node's order, stably sorted largest first.  A graph
    whose edges all weigh 0 raises ``ZeroDivisionError``, as networkx does.
    """
    if not any(graph.values()):
        return [frozenset([node]) for node in graph]
    a = b = {}  # networkx's notation: a node's fraction of the weighted degree
    degrees = {node: sum(nbrs.values()) for node, nbrs in graph.items()}
    q0 = 1 / (sum(degrees.values()) / 2)
    for node, degree in degrees.items():
        a[node] = degree * q0 * 0.5
    # every edge once, from the first of its nodes in node order
    dq: Dict[int, Dict[int, float]] = {}
    seen: Set[int] = set()
    for u, nbrs in graph.items():
        for v, wt in nbrs.items():
            if v not in seen:
                row_u, row_v = dq.setdefault(u, {}), dq.setdefault(v, {})
                row_u[v] = row_u.get(v, 0.0) + wt
                row_v[u] = row_v.get(u, 0.0) + wt
        seen.add(u)
    for u, row in dq.items():
        for v, wt in row.items():
            row[v] = q0 * wt - resolution * (a[u] * b[v] + b[u] * a[v])
    heap = [(-dq_uv, u, v) for u, row in dq.items() for v, dq_uv in row.items()]
    heapq.heapify(heap)

    communities = {node: frozenset([node]) for node in graph}
    rows = len(dq)  # rows with an entry: networkx's ``len(H)``
    while rows > 1:
        while True:
            negdq, u, v = heapq.heappop(heap)
            row = dq.get(u)
            if row is not None and row.get(v) == -negdq:
                break
        if -negdq < 0:
            break
        communities[v] = frozenset(communities[u] | communities[v])
        del communities[u]

        u_nbrs = set(dq[u])
        v_nbrs = set(dq[v])
        all_nbrs = (u_nbrs | v_nbrs) - {u, v}
        both_nbrs = u_nbrs & v_nbrs
        for w in all_nbrs:
            if w in both_nbrs:
                dq_vw = dq[v][w] + dq[u][w]
            elif w in v_nbrs:
                dq_vw = dq[v][w] - resolution * (a[u] * b[w] + a[w] * b[u])
            else:  # w in u_nbrs
                dq_vw = dq[u][w] - resolution * (a[v] * b[w] + a[w] * b[v])
            for row, col in ((v, w), (w, v)):
                if dq[row].get(col) != dq_vw:  # (an equal value's entry is still live)
                    heapq.heappush(heap, (-dq_vw, row, col))
                dq[row][col] = dq_vw
        for w in dq[u]:
            del dq[w][u]
        del dq[u]
        rows -= 1 if dq[v] else 2
        a[v] += a[u]
        a[u] = 0
    return sorted(communities.values(), key=len, reverse=True)


def _greedy_merge(space: IndexSpace, group: List[int], ssa: List[Tuple[int, int]]) -> int:
    """Contract a small group of leaves, smallest output first, emitting SSA steps.

    Every group starts from the owner counts of the untouched network.
    """
    live: Dict[int, int] = {leaf: space.leaves[leaf] for leaf in group}  # node -> mask
    pair, counts = space.pair, dict(space.counts)
    while len(live) > 1:
        best: Optional[Tuple[float, int, int]] = None
        keys = sorted(live)
        for i, a in enumerate(keys):
            ia = live[a]
            for b in keys[i + 1 :]:
                shared = ia & live[b]
                if not shared and best is not None:
                    continue
                score = space.log2size((ia | live[b]) ^ (shared & pair))
                if best is None or score < best[0]:
                    best = (score, a, b)
        assert best is not None
        _, a, b = best
        out, pair = space.contract(live.pop(a), live.pop(b), pair, counts)
        live[len(space.leaves) + len(ssa)] = out
        ssa.append((a, b))
    return next(iter(live))


class PartitionOptimizer:
    """Recursive-bisection contraction-path optimizer.

    Parameters
    ----------
    cutoff:
        Below this many tensors a group is handed to the greedy optimizer.
    seed:
        Seed for the Kernighan–Lin refinement and the greedy fallback.
    kl_iterations:
        Number of Kernighan–Lin passes per bisection.
    """

    def __init__(self, cutoff: int = 8, seed: Optional[int] = None, kl_iterations: int = 10) -> None:
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        self.cutoff = int(cutoff)
        self.kl_iterations = int(kl_iterations)
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def ssa_path(self, network: TensorNetwork) -> List[Tuple[int, int]]:
        """Compute an SSA contraction path by recursive bisection."""
        return self._ssa_path(IndexSpace.of_network(network), _tensor_graph(network))

    def _ssa_path(self, space: IndexSpace, graph: _Adjacency) -> List[Tuple[int, int]]:
        """The path over ``space``'s leaves, ``graph`` being their tensor graph (read only)."""
        leaf_of = {tid: leaf for leaf, tid in enumerate(graph)}
        ssa: List[Tuple[int, int]] = []
        with DrawStream(self._rng) as draws:
            self._conquer(list(graph), graph, space, leaf_of, ssa, draws)
        return ssa

    def _conquer(
        self,
        group: List[int],
        graph: _Adjacency,
        space: IndexSpace,
        leaf_of: Dict[int, int],
        ssa: List[Tuple[int, int]],
        draws: DrawStream,
    ) -> int:
        """Contract ``group`` (a list of tids) onto ``ssa``; return the SSA node id.

        A method, not a closure of :meth:`ssa_path`: a closure that calls
        itself is a reference cycle, which kept the graph and the index
        space alive until the next pass of the cycle collector.
        """
        if len(group) == 1:
            return leaf_of[group[0]]
        if len(group) <= self.cutoff:
            return _greedy_merge(space, [leaf_of[tid] for tid in group], ssa)
        part_a, part_b = self._bisect(_induced(graph, group), draws)
        node_a = self._conquer(sorted(part_a), graph, space, leaf_of, ssa, draws)
        node_b = self._conquer(sorted(part_b), graph, space, leaf_of, ssa, draws)
        ssa.append((node_a, node_b))
        return len(space.leaves) + len(ssa) - 1

    def tree(self, network: TensorNetwork) -> ContractionTree:
        """Compute a full :class:`ContractionTree`."""
        return ContractionTree.from_network(network, self.ssa_path(network))

    # ------------------------------------------------------------------
    def _bisect(self, graph: _Adjacency, draws: DrawStream) -> Tuple[Set[int], Set[int]]:
        """Split ``graph`` into two balanced halves with a small cut."""
        nodes = list(graph)
        if len(nodes) < 4 or not any(graph.values()):
            half = len(nodes) // 2
            return set(nodes[:half]), set(nodes[half:])
        # the draw rng.integers(0, 2**31 - 1) makes
        return _kernighan_lin_bisection(graph, self.kl_iterations, draws.integers(2**31 - 1))


class CommunityOptimizer:
    """Community-structure contraction-path optimizer (Girvan–Newman flavour).

    Detects communities of the tensor graph by greedy modularity
    (:func:`_greedy_modularity_communities`), contracts each community
    greedily, and merges the community results pairwise.  This mirrors the
    community-based path search cited by the paper.
    """

    def __init__(self, seed: Optional[int] = None, resolution: float = 1.0) -> None:
        self._seed = seed
        self.resolution = float(resolution)

    def ssa_path(self, network: TensorNetwork) -> List[Tuple[int, int]]:
        """Compute an SSA contraction path guided by community structure."""
        return self._ssa_path(IndexSpace.of_network(network), _tensor_graph(network))

    def _ssa_path(self, space: IndexSpace, graph: _Adjacency) -> List[Tuple[int, int]]:
        """The path over ``space``'s leaves, ``graph`` being their tensor graph (read only)."""
        try:
            communities = _greedy_modularity_communities(graph, self.resolution)
        except ZeroDivisionError:  # every edge weighs 0: one community
            communities = [frozenset(graph)]
        leaf_of = {tid: leaf for leaf, tid in enumerate(graph)}
        ssa: List[Tuple[int, int]] = []
        roots = [
            _greedy_merge(space, [leaf_of[tid] for tid in sorted(community)], ssa)
            for community in communities
        ]
        # merge community roots pairwise (balanced)
        while len(roots) > 1:
            new_roots: List[int] = []
            for i in range(0, len(roots) - 1, 2):
                new_roots.append(len(space.leaves) + len(ssa))
                ssa.append((roots[i], roots[i + 1]))
            if len(roots) % 2 == 1:
                new_roots.append(roots[-1])
            roots = new_roots
        return ssa

    def tree(self, network: TensorNetwork) -> ContractionTree:
        """Compute a full :class:`ContractionTree`."""
        return ContractionTree.from_network(network, self.ssa_path(network))
