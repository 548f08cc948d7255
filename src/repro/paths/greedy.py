"""Greedy contraction-path search.

The classic baseline used by cotengra/opt_einsum: repeatedly contract the
pair of tensors that minimises a local cost heuristic.  The default
heuristic is the standard ``size(out) - costmod * (size(a) + size(b))``
rule; a Boltzmann ``temperature`` turns the deterministic choice into a
randomised one so that many trials explore different trees, which the
hyper-driver in :mod:`repro.paths.optimizer` exploits.

The implementation works purely on index sets (abstract networks, the sets
held as the integer masks of :mod:`repro.paths.indexspace`), never on tensor
data, so a 53-qubit Sycamore network plans in tens of milliseconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Set, Tuple

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from .draws import DrawStream
from .indexspace import IndexSpace

__all__ = ["GreedyOptimizer", "greedy_ssa_path"]


class GreedyOptimizer:
    """Randomised greedy contraction-path optimizer.

    Parameters
    ----------
    costmod:
        Weight of the operand sizes in the local score; larger values favour
        contracting big tensors early.
    temperature:
        Gumbel noise scale added to scores.  ``0`` gives the deterministic
        greedy path.
    seed:
        PRNG seed for the noise.
    """

    def __init__(
        self,
        costmod: float = 1.0,
        temperature: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        self.costmod = float(costmod)
        self.temperature = float(temperature)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def ssa_path(self, network: TensorNetwork) -> List[Tuple[int, int]]:
        """Compute an SSA contraction path for ``network``."""
        return self._ssa_path(IndexSpace.of_network(network))

    def _ssa_path(self, space: IndexSpace, graph: object = None) -> List[Tuple[int, int]]:
        """The path over ``space``'s leaves (the tensor graph the other methods take is unused)."""
        with DrawStream(self._rng) as draws:
            return self._search(space, draws)

    def tree(self, network: TensorNetwork) -> ContractionTree:
        """Compute a full :class:`ContractionTree` for ``network``."""
        return ContractionTree.from_network(network, self.ssa_path(network))

    # ------------------------------------------------------------------
    def _score(self, out_size: float, size_a: float, size_b: float, draws: DrawStream) -> float:
        score = 2.0**out_size - self.costmod * (2.0**size_a + 2.0**size_b)
        if self.temperature > 0.0:
            gumbel = -math.log(-math.log(draws.uniform(1e-12, 1.0)))
            score -= self.temperature * gumbel * max(abs(score), 1.0)
        return score

    def _search(self, space: IndexSpace, draws: DrawStream) -> List[Tuple[int, int]]:
        num_leaves = len(space.leaves)
        if num_leaves == 1:
            return []

        # per SSA node: index mask, log2 size and alive neighbours (nodes sharing an index)
        indices = list(space.leaves)
        sizes = [space.log2size(mask) for mask in indices]
        adjacent: List[Set[int]] = [set() for _ in indices]
        # indices two alive nodes close when they meet; alive owners of the hyper-indices
        pair, counts = space.pair, dict(space.counts)
        alive: Set[int] = set(range(num_leaves))
        ssa: List[Tuple[int, int]] = []
        heap: List[Tuple[float, int, int, int]] = []  # (score, tiebreak, node, node)
        tiebreak = itertools.count()  # equal scores pop in push order

        def push(a: int, b: int) -> None:
            ia, ib = indices[a], indices[b]
            out = (ia | ib) ^ (ia & ib & pair)
            score = self._score(space.log2size(out), sizes[a], sizes[b], draws)
            heapq.heappush(heap, (score, next(tiebreak), a, b))

        # seed the frontier in ascending bit (= sorted label) order, so results
        # do not depend on Python's per-process string-hash randomisation
        for bit in sorted(space.owners):
            nodes = space.owners[bit]
            for i, a in enumerate(nodes):
                for b in nodes[i + 1 :]:
                    if b not in adjacent[a]:
                        adjacent[a].add(b)
                        adjacent[b].add(a)
                        push(a, b)

        while len(alive) > 1:
            while heap:
                _, _, a, b = heapq.heappop(heap)
                if a in alive and b in alive:
                    break
            else:
                # disconnected components: combine the two smallest nodes
                a, b = sorted(alive, key=sizes.__getitem__)[:2]

            out, pair = space.contract(indices[a], indices[b], pair, counts)
            new_node = len(indices)
            indices.append(out)
            sizes.append(space.log2size(out))
            ssa.append((a, b))
            alive.discard(a)
            alive.discard(b)
            alive.add(new_node)

            # an index the merge closed had no third owner, so every other
            # neighbour of a or b still shares an index with the result
            neighbours = (adjacent[a] | adjacent[b]) - {a, b}
            adjacent.append(neighbours)
            for other in sorted(neighbours):
                adjacent[other] -= {a, b}
                adjacent[other].add(new_node)
                push(new_node, other)

        return ssa


def greedy_ssa_path(
    network: TensorNetwork,
    costmod: float = 1.0,
    temperature: float = 0.0,
    seed: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """One-shot greedy path for ``network``."""
    return GreedyOptimizer(costmod=costmod, temperature=temperature, seed=seed).ssa_path(
        network
    )
