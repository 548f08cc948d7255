"""Graph-partition based contraction-path search.

cotengra's strongest paths for Sycamore-class networks come from recursive
hypergraph bisection (KaHyPar) and community detection (Girvan–Newman); the
paper uses those trees as its starting point.  Without KaHyPar available
offline we implement the same *divide and conquer* scheme on top of
networkx:

* :class:`PartitionOptimizer` — recursive balanced bisection using the
  Kernighan–Lin heuristic, falling back to spectral-ish BFS splits for tiny
  parts.  The recursion tree *is* the contraction tree: the two halves of
  every cut are contracted independently and then merged, which is exactly
  the structure cotengra builds.
* :class:`CommunityOptimizer` — the Girvan–Newman community structure
  variant referenced by the paper ([13] in the bibliography).

Both return SSA paths compatible with :class:`ContractionTree`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from .indexspace import IndexSpace

__all__ = ["PartitionOptimizer", "CommunityOptimizer"]


def _tensor_graph(network: TensorNetwork) -> nx.Graph:
    """Simple weighted graph over tensor ids (parallel edges merged)."""
    g = nx.Graph()
    for tid in network.tensor_ids:
        g.add_node(tid)
    for ix in network.indices:
        owners = sorted(network.index_owners(ix))
        w = math.log2(network.size_of(ix))
        for i in range(len(owners)):
            for j in range(i + 1, len(owners)):
                a, b = owners[i], owners[j]
                if g.has_edge(a, b):
                    g[a][b]["weight"] += w
                else:
                    g.add_edge(a, b, weight=w)
    return g


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
        tids = network.tensor_ids
        leaf_of = {tid: leaf for leaf, tid in enumerate(tids)}
        space = IndexSpace.of_network(network)  # once per path, shared by every group
        ssa: List[Tuple[int, int]] = []
        self._conquer(list(tids), _tensor_graph(network), space, leaf_of, ssa)
        return ssa

    def _conquer(
        self,
        group: List[int],
        graph: nx.Graph,
        space: IndexSpace,
        leaf_of: Dict[int, int],
        ssa: List[Tuple[int, int]],
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
        part_a, part_b = self._bisect(graph.subgraph(group).copy())
        node_a = self._conquer(sorted(part_a), graph, space, leaf_of, ssa)
        node_b = self._conquer(sorted(part_b), graph, space, leaf_of, ssa)
        ssa.append((node_a, node_b))
        return len(space.leaves) + len(ssa) - 1

    def tree(self, network: TensorNetwork) -> ContractionTree:
        """Compute a full :class:`ContractionTree`."""
        return ContractionTree.from_network(network, self.ssa_path(network))

    # ------------------------------------------------------------------
    def _bisect(self, graph: nx.Graph) -> Tuple[Set[int], Set[int]]:
        """Split ``graph`` into two balanced halves with a small cut."""
        # list(graph) and is_empty, not graph.nodes and number_of_edges(): those
        # cache views that point back at the graph, so it would wait for the GC
        nodes = list(graph)
        if len(nodes) < 4 or nx.is_empty(graph):
            half = len(nodes) // 2
            return set(nodes[:half]), set(nodes[half:])
        try:
            part_a, part_b = nx.algorithms.community.kernighan_lin_bisection(
                graph,
                max_iter=self.kl_iterations,
                weight="weight",
                seed=int(self._rng.integers(0, 2**31 - 1)),
            )
        except nx.NetworkXError:
            half = len(nodes) // 2
            return set(nodes[:half]), set(nodes[half:])
        if not part_a or not part_b:
            half = len(nodes) // 2
            return set(nodes[:half]), set(nodes[half:])
        return set(part_a), set(part_b)


class CommunityOptimizer:
    """Community-structure contraction-path optimizer (Girvan–Newman flavour).

    Detects communities of the tensor graph with networkx's greedy modularity
    algorithm, contracts each community with a :class:`GreedyOptimizer`, and
    merges the community results greedily.  This mirrors the community-based
    path search cited by the paper.
    """

    def __init__(self, seed: Optional[int] = None, resolution: float = 1.0) -> None:
        self._seed = seed
        self.resolution = float(resolution)

    def ssa_path(self, network: TensorNetwork) -> List[Tuple[int, int]]:
        """Compute an SSA contraction path guided by community structure."""
        tids = network.tensor_ids
        graph = _tensor_graph(network)
        tid_to_leaf = {tid: leaf for leaf, tid in enumerate(tids)}
        try:
            communities = list(
                nx.algorithms.community.greedy_modularity_communities(
                    graph, weight="weight", resolution=self.resolution
                )
            )
        except (nx.NetworkXError, ZeroDivisionError, StopIteration):
            communities = [set(tids)]
        if not communities:
            communities = [set(tids)]

        space = IndexSpace.of_network(network)
        ssa: List[Tuple[int, int]] = []
        roots = [
            _greedy_merge(space, [tid_to_leaf[tid] for tid in sorted(community)], ssa)
            for community in communities
        ]
        # merge community roots pairwise (balanced)
        while len(roots) > 1:
            new_roots: List[int] = []
            for i in range(0, len(roots) - 1, 2):
                new_roots.append(len(tids) + len(ssa))
                ssa.append((roots[i], roots[i + 1]))
            if len(roots) % 2 == 1:
                new_roots.append(roots[-1])
            roots = new_roots
        return ssa

    def tree(self, network: TensorNetwork) -> ContractionTree:
        """Compute a full :class:`ContractionTree`."""
        return ContractionTree.from_network(network, self.ssa_path(network))
