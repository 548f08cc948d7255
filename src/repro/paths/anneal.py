"""Simulated-annealing contraction-tree refinement.

Given an existing contraction tree, local *rotation* moves are applied under
a Metropolis acceptance rule to lower the total contraction cost.  This is
the "adaptive tensor network contraction path refiner" component of the
paper's pipeline: it takes trees found by the greedy/partition optimizers
and polishes them before (and interleaved with) slicing.

A rotation at an internal node ``P = (A, (C, D))`` replaces the inner pair,
yielding ``P = ((A, C), D)`` or ``P = ((A, D), C)``.  Only one intermediate
tensor changes, so the cost delta is evaluated locally, on the integer index
masks of :mod:`repro.paths.indexspace`.  Measured on the Sycamore-53 m=12
network (227 tensors, 447 indices, one sweep = 226 moves, 28 sweeps per
default refine, 17,315 RNG calls): about 3.5 us per move, 0.8 ms per sweep
and 22 ms per refine on a 2-vCPU VM, of which the draws take a fifth — they
come from a :class:`~repro.paths.draws.DrawStream` at 0.2-0.4 us each.  One
numpy ``Generator`` call per draw (0.9 us for ``random()``, 3 us for
``integers(n)``) made it 6 us per move and 38 ms per refine, and the
``frozenset[str]`` algebra before that about 38 us per move.  Same seed,
same tree: every draw, tie-break and accept/reject decision is the one the
string sets made (``tests/test_paths_golden.py``).

The annealer works on a :class:`_MutableTree` built from an index space and
an SSA path.  :meth:`TreeAnnealer.refine` keeps its tree-in, tree-out API
by converting at both ends: the tree's index space (1.0 ms on the Sycamore
greedy tree), the mask tree (0.2 ms), the emitted path (0.1 ms) and a
``ContractionTree`` of it (1.6 ms), about 3 of the 18.6 ms a refine took
on the same VM (medians of 21).  A path-search trial skips both ends: it
builds the mask tree from the search's shared space and the method's path,
anneals it with ``_anneal`` (14.2 ms) and scores it on its masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from .draws import DrawStream
from .indexspace import IndexSpace

__all__ = ["TreeAnnealer", "AnnealResult", "anneal_tree"]


@dataclass
class AnnealResult:
    """Outcome of an annealing run."""

    tree: ContractionTree
    initial_log10_cost: float
    final_log10_cost: float
    accepted_moves: int
    attempted_moves: int


#: what a rotation changes: the inner node's boundary mask, counts and cost, the outer node's cost
_Move = Tuple[int, Dict[int, int], float, float]


class _MutableTree:
    """Mutable view of a contraction tree over integer index masks, with local cost updates.

    Built from an index space and an SSA path over its leaves.  Per node: its
    children, the mask of its boundary indices, the cost of its contraction
    and, for the few indices not carried by exactly two leaves
    (hyper-indices, dangling ones), how many of their leaves it covers.
    """

    def __init__(self, space: IndexSpace, ssa_path: Sequence[Tuple[int, int]]) -> None:
        self.space = space
        self.num_leaves = len(space.leaves)
        self.root = self.num_leaves + len(ssa_path) - 1
        self.counted = sum(space.counts)
        blank = [None] * len(ssa_path)  # the internal nodes, filled in below
        self.children: List[Optional[Tuple[int, int]]] = [None] * self.num_leaves + blank
        self.indices: List[int] = space.leaves + blank
        self.counts: List[Dict[int, int]] = [
            dict.fromkeys(space.bits(leaf & self.counted), 1) for leaf in space.leaves
        ] + blank
        self.cost: List[float] = [0.0] * self.num_leaves + blank
        for node, (a, b) in enumerate(ssa_path, self.num_leaves):
            self.children[node] = (a, b)
            boundary, self.counts[node] = self.merge(a, b)
            self.indices[node] = boundary
            self.cost[node] = 2.0 ** space.log2size(self.indices[a] | self.indices[b] | boundary)

    # ------------------------------------------------------------------
    def merge(self, a: int, b: int) -> Tuple[int, Dict[int, int]]:
        """Boundary mask and counted-index counts of the contraction of ``a`` and ``b``."""
        ia, ib = self.indices[a], self.indices[b]
        boundary = (ia | ib) ^ (ia & ib & self.space.pair)
        counted = boundary & self.counted
        counts: Dict[int, int] = {}
        if counted:
            ca, cb, total = self.counts[a], self.counts[b], self.space.counts
            for bit in self.space.bits(counted):
                count = ca.get(bit, 0) + cb.get(bit, 0)
                if count < total[bit]:
                    counts[bit] = count
                else:  # every owner is below: closed, and gone from all ancestors
                    boundary ^= bit
        return boundary, counts

    def total_cost(self) -> float:
        """Eq. 1 cost of the whole tree, summed in node order."""
        return sum(self.cost[self.num_leaves :])

    def score(self, order: Sequence[int]) -> Tuple[float, int]:
        """``(log10 total cost, max rank)`` over the internal nodes ``order`` lists.

        The costs are summed in ``order``: given the order in which the
        emitted tree creates its nodes, this is the tree's own
        ``(log10_total_cost(), max_rank())``, bitwise wherever every index
        has the same integer log2 size, and free of string-hash order
        where not (the masks sum their log2 sizes in ascending bit order).
        """
        return (
            math.log10(sum(self.cost[node] for node in order)),
            max(self.indices[node].bit_count() for node in order),
        )

    # ------------------------------------------------------------------
    def rotation_candidates(self, node: int) -> List[Tuple[int, int, int, int]]:
        """Possible rotations at ``node``: (outer_child, inner, inner_a, inner_b)."""
        a, b = self.children[node]  # type: ignore[misc]
        out: List[Tuple[int, int, int, int]] = []
        if self.children[b] is not None:
            out.append((a, b, *self.children[b]))
        if self.children[a] is not None:
            out.append((b, a, *self.children[a]))
        return out

    def try_rotation(
        self, node: int, outer: int, inner: int, keep: int, lift: int
    ) -> Tuple[float, _Move]:
        """Evaluate replacing ``(outer, (keep, lift))`` by ``((outer, keep), lift)``.

        Returns the cost delta and the move (new boundary, counts and costs
        of ``inner`` and ``node``) for :meth:`apply_rotation`; does not mutate.
        """
        boundary, counts = self.merge(outer, keep)
        indices, log2size = self.indices, self.space.log2size
        inner_cost = 2.0 ** log2size(indices[outer] | indices[keep] | boundary)
        node_cost = 2.0 ** log2size(boundary | indices[lift] | indices[node])
        delta = (inner_cost + node_cost) - (self.cost[node] + self.cost[inner])
        return delta, (boundary, counts, inner_cost, node_cost)

    def apply_rotation(
        self, node: int, outer: int, inner: int, keep: int, lift: int, move: _Move
    ) -> None:
        """Commit the rotation evaluated by :meth:`try_rotation` (reuses ``inner``'s id)."""
        self.indices[inner], self.counts[inner], self.cost[inner], self.cost[node] = move
        self.children[inner] = (outer, keep)
        self.children[node] = (inner, lift)

    # ------------------------------------------------------------------
    def emit(self) -> Tuple[List[Tuple[int, int]], List[int]]:
        """The tree as an SSA path (post-order, left child first), and the
        nodes it creates, in creation order.

        Walks an explicit stack: a deep stem neither hits nor has to raise
        the interpreter's recursion limit.
        """
        ssa: List[Tuple[int, int]] = []
        created: List[int] = []
        ids: Dict[int, int] = {leaf: leaf for leaf in range(self.num_leaves)}
        stack = [self.root] if self.root >= self.num_leaves else []
        while stack:
            a, b = self.children[stack[-1]]  # type: ignore[misc]
            if a in ids and b in ids:
                created.append(stack.pop())
                ids[created[-1]] = self.num_leaves + len(ssa)
                ssa.append((ids[a], ids[b]))
            else:
                stack.extend(child for child in (b, a) if child not in ids)
        return ssa, created


class TreeAnnealer:
    """Simulated-annealing refiner for contraction trees.

    Parameters
    ----------
    initial_temperature, final_temperature:
        Temperature schedule endpoints.  Temperatures are relative: the
        acceptance probability of an uphill move is
        ``exp(-delta / (|current_cost| * T))``.
    cooling:
        Geometric cooling factor applied after every sweep.
    moves_per_sweep:
        Number of random rotation attempts per sweep; ``None`` uses the
        number of internal nodes.
    seed:
        PRNG seed.
    """

    def __init__(
        self,
        initial_temperature: float = 0.05,
        final_temperature: float = 1e-4,
        cooling: float = 0.8,
        moves_per_sweep: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0 < cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if not final_temperature > 0:
            # the temperature decays towards 0: a bound at or below it never ends the schedule
            raise ValueError(f"final_temperature must be > 0, got {final_temperature}")
        if moves_per_sweep is not None and moves_per_sweep < 1:
            raise ValueError(f"moves_per_sweep must be at least 1, got {moves_per_sweep}")
        self.initial_temperature = float(initial_temperature)
        self.final_temperature = float(final_temperature)
        self.cooling = float(cooling)
        self.moves_per_sweep = moves_per_sweep
        self._rng = np.random.default_rng(seed)

    def refine(
        self,
        tree: ContractionTree,
        max_size_log2: Optional[float] = None,
    ) -> AnnealResult:
        """Refine ``tree``; optionally reject moves that grow the peak tensor.

        Parameters
        ----------
        tree:
            Tree to refine.
        max_size_log2:
            When given, moves that push the largest intermediate above this
            bound are always rejected (useful when a slicing budget has
            already been committed to).
        """
        leaf_indices = [tree.node_indices(leaf) for leaf in range(tree.num_leaves)]
        sizes = {ix: tree.index_size(ix) for ix in tree.all_indices()}
        space = IndexSpace(leaf_indices, sizes, tree.output_indices)
        mutable = _MutableTree(space, tree.ssa_path)
        initial_log10 = math.log10(max(mutable.total_cost(), 1.0))
        accepted, attempted, final_cost = self._anneal(mutable, max_size_log2)
        if tree.num_leaves > 2:
            output, tids = tree.output_indices, tree.leaf_tids
            tree = ContractionTree(leaf_indices, sizes, mutable.emit()[0], output, tids)
        # (a tree with fewer than two contractions admits no rotations: itself)
        return AnnealResult(
            tree=tree,
            initial_log10_cost=initial_log10,
            # the running cost: a drifting delta shows up as a gap to the tree's total_cost()
            final_log10_cost=math.log10(max(final_cost, 1.0)),
            accepted_moves=accepted,
            attempted_moves=attempted,
        )

    def _anneal(
        self, mutable: _MutableTree, max_size_log2: Optional[float] = None
    ) -> Tuple[int, int, float]:
        """Anneal ``mutable`` in place: the accepted and attempted moves and the running cost."""
        current_cost = mutable.total_cost()
        internal = list(range(mutable.num_leaves, mutable.root + 1))
        if len(internal) < 2:
            return 0, 0, current_cost
        moves = len(internal) if self.moves_per_sweep is None else self.moves_per_sweep
        with DrawStream(self._rng) as draws:
            return self._sweeps(mutable, internal, moves, current_cost, max_size_log2, draws)

    def _sweeps(
        self,
        mutable: _MutableTree,
        internal: List[int],
        moves: int,
        current_cost: float,
        max_size_log2: Optional[float],
        draws: DrawStream,
    ) -> Tuple[int, int, float]:
        """Anneal ``mutable`` in place; the accepted and attempted moves and the final cost."""
        integers, random = draws.integers, draws.random
        temperature = self.initial_temperature
        accepted = attempted = 0
        while temperature > self.final_temperature:
            for _ in range(moves):
                # the same draw as rng.choice(internal), minus its list -> array copy
                node = internal[integers(len(internal))]
                candidates = mutable.rotation_candidates(node)
                if not candidates:
                    continue
                outer, inner, c, d = candidates[integers(len(candidates))]
                # choose which grandchild to keep paired with the outer child
                if random() < 0.5:
                    keep, lift = c, d
                else:
                    keep, lift = d, c
                attempted += 1
                delta, move = mutable.try_rotation(node, outer, inner, keep, lift)
                accept = delta <= 0 or random() < math.exp(
                    -delta / (abs(current_cost) * temperature + 1e-300)
                )
                if not accept:
                    continue
                if max_size_log2 is not None and mutable.space.log2size(move[0]) > max_size_log2:
                    continue
                mutable.apply_rotation(node, outer, inner, keep, lift, move)
                current_cost += delta
                accepted += 1
            temperature *= self.cooling
        return accepted, attempted, current_cost


def anneal_tree(
    tree: ContractionTree,
    seed: Optional[int] = None,
    max_size_log2: Optional[float] = None,
) -> ContractionTree:
    """Convenience wrapper returning only the refined tree."""
    return TreeAnnealer(seed=seed).refine(tree, max_size_log2=max_size_log2).tree
