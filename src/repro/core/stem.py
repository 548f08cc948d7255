"""Stem extraction.

The paper (following Huang et al.'s observation) defines the *stem* as the
most computationally intensive path of the contraction tree: a chain of
contractions in which one big tensor sequentially absorbs smaller ones, and
which carries ~99 % of the total flops for Sycamore-class networks.  All the
slicing machinery operates on the stem:

* branches (the cheap subtrees hanging off the stem) are *pre-contracted*
  and thereafter treated as single effective tensors,
* after this preconditioning the stem itself is a new (caterpillar-shaped)
  contraction tree, on which lifetimes are computed and Algorithm 1 runs.

:class:`Stem` captures the ordered list of stem steps plus the mapping back
to the original tree, and can re-express itself as a
:class:`~repro.tensornet.contraction_tree.ContractionTree` for reuse of the
cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..tensornet.contraction_tree import ContractionTree

__all__ = ["Stem", "StemStep", "extract_stem", "stem_profile"]


@dataclass(frozen=True)
class StemStep:
    """One contraction along the stem.

    Attributes
    ----------
    node:
        Internal node id (in the original tree) performing this step.
    stem_child:
        Child lying on the stem (the running big tensor absorbed so far).
    branch_child:
        The other child — the pre-contracted branch absorbed at this step.
    result_indices:
        Index set of the step's result tensor (the "stem tensor").
    branch_indices:
        Index set of the absorbed branch.
    log2_flops:
        log2 cost of this contraction (Eq. 1 term, unsliced).
    """

    node: int
    stem_child: int
    branch_child: int
    result_indices: FrozenSet[str]
    branch_indices: FrozenSet[str]
    log2_flops: float

    @property
    def rank(self) -> int:
        """Rank of the stem tensor produced by this step."""
        return len(self.result_indices)


@dataclass(frozen=True)
class Stem:
    """The stem of a contraction tree.

    Attributes
    ----------
    tree:
        The original contraction tree.
    steps:
        Stem steps in execution order (bottom of the tree first, root last).
    start_node:
        The node (leaf or internal) at which the stem path begins; its tensor
        is the initial "running" stem tensor.
    """

    tree: ContractionTree
    steps: Tuple[StemStep, ...]
    start_node: int

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of contractions on the stem."""
        return len(self.steps)

    @property
    def nodes(self) -> Tuple[int, ...]:
        """Original-tree node ids of the stem contractions, in order."""
        return tuple(step.node for step in self.steps)

    @property
    def stem_tensor_indices(self) -> Tuple[FrozenSet[str], ...]:
        """Index sets of the successive stem tensors (the list ``M`` of Alg. 1)."""
        return tuple(step.result_indices for step in self.steps)

    def edges(self) -> FrozenSet[str]:
        """Every edge appearing on some stem tensor (the slicing candidates)."""
        out: set = set(self.tree.node_indices(self.start_node))
        for step in self.steps:
            out |= step.result_indices
            out |= step.branch_indices
        return frozenset(out)

    def max_rank(self) -> int:
        """Largest stem-tensor rank (the memory bottleneck before slicing)."""
        ranks = [len(self.tree.node_indices(self.start_node))]
        ranks += [step.rank for step in self.steps]
        return max(ranks)

    def cost(self) -> float:
        """Total flops of the stem contractions (one subtask, unsliced)."""
        return sum(2.0**step.log2_flops for step in self.steps)

    def cost_fraction(self) -> float:
        """Fraction of the whole tree's flops carried by the stem (~0.99 in the paper)."""
        total = self.tree.contraction_cost()
        return self.cost() / total if total else 0.0

    # ------------------------------------------------------------------
    def as_tree(self) -> ContractionTree:
        """Re-express the stem as a caterpillar contraction tree.

        Leaves are the initial stem tensor and the pre-contracted branches
        (each represented abstractly by its index set); contractions happen
        in stem order.  The resulting tree has the same stem-tensor index
        sets and per-step costs as the original stem, which lets the
        :class:`~repro.core.slicing.SlicingCostModel` and the lifetime
        machinery be reused unchanged.
        """
        leaf_indices: List[FrozenSet[str]] = [self.tree.node_indices(self.start_node)]
        leaf_tids: List[int] = [self.start_node]
        for step in self.steps:
            leaf_indices.append(step.branch_indices)
            leaf_tids.append(step.branch_child)

        num_leaves = len(leaf_indices)
        ssa_path: List[Tuple[int, int]] = []
        running = 0
        next_id = num_leaves
        for i in range(1, num_leaves):
            ssa_path.append((running, i))
            running = next_id
            next_id += 1

        index_sizes = {
            ix: self.tree.index_size(ix)
            for ixset in leaf_indices
            for ix in ixset
        }
        # the root of the stem is the root of the original tree, so the open
        # indices of the stem tree are exactly the original output indices
        # that survive on stem tensors
        output = self.tree.output_indices & frozenset().union(*leaf_indices)
        return ContractionTree(
            leaf_indices=leaf_indices,
            index_sizes=index_sizes,
            ssa_path=ssa_path,
            output_indices=output,
            leaf_tids=leaf_tids,
        )


def extract_stem(tree: ContractionTree) -> Stem:
    """Find the most computationally intensive root-to-leaf path of ``tree``.

    The path is chosen by dynamic programming: the weight of a node is the
    cost of its own contraction (Eq. 1) and the stem is the root-to-leaf
    path of maximum total weight.  The result is memoized on the tree
    (trees are immutable, like their lazily built ``parent_map``): plan
    compilation, the slot schedule, the fusion pass and the cost-model cap
    ranking all ask for the same stem, often within one compile.
    """
    cached = getattr(tree, "_cached_stem", None)
    if cached is not None:
        return cached
    best_cost: Dict[int, float] = {}
    best_child: Dict[int, Optional[int]] = {}

    for node in tree.nodes():
        if tree.is_leaf(node):
            best_cost[node] = 0.0
            best_child[node] = None

    for node in tree.internal_nodes():
        a, b = tree.children(node)  # type: ignore[misc]
        own = 2.0 ** tree.node_log2_flops(node)
        if best_cost[a] >= best_cost[b]:
            best_cost[node] = own + best_cost[a]
            best_child[node] = a
        else:
            best_cost[node] = own + best_cost[b]
            best_child[node] = b

    # walk from the root down along the chosen children
    path_down: List[int] = []
    current: Optional[int] = tree.root
    while current is not None and not tree.is_leaf(current):
        path_down.append(current)
        current = best_child[current]
    start_node = current if current is not None else tree.root

    steps: List[StemStep] = []
    for node in reversed(path_down):  # bottom of the tree first
        a, b = tree.children(node)  # type: ignore[misc]
        stem_child = best_child[node]
        branch_child = b if stem_child == a else a
        steps.append(
            StemStep(
                node=node,
                stem_child=int(stem_child),  # type: ignore[arg-type]
                branch_child=int(branch_child),
                result_indices=tree.node_indices(node),
                branch_indices=tree.node_indices(branch_child),
                log2_flops=tree.node_log2_flops(node),
            )
        )
    stem = Stem(tree=tree, steps=tuple(steps), start_node=int(start_node))
    tree._cached_stem = stem  # type: ignore[attr-defined]
    return stem


def stem_profile(
    stem: Stem, sliced: FrozenSet[str] = frozenset()
) -> List[Dict[str, float]]:
    """Per-step complexity profile of the stem (the data behind Fig. 6).

    For every stem step returns the unsliced log2 cost, the sliced log2 cost
    of one subtask, and the redundancy multiple ``2^{|S| - |S ∩ s_V|}``
    incurred by slicing.
    """
    tree = stem.tree
    log2_slices = sum(tree.log2_index_size(ix) for ix in sliced)
    profile: List[Dict[str, float]] = []
    for position, step in enumerate(stem.steps):
        union = tree.contraction_indices(step.node)
        covered = sum(tree.log2_index_size(ix) for ix in union & sliced)
        unsliced_cost = step.log2_flops
        sliced_cost = unsliced_cost - covered
        multiple = log2_slices - covered
        profile.append(
            {
                "position": float(position),
                "rank": float(step.rank),
                "log2_cost": unsliced_cost,
                "log2_cost_sliced": sliced_cost,
                "log2_multiple": multiple,
            }
        )
    return profile
