"""Tests of the ContractionTree data structure and its cost model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.tensornet import (
    ContractionTree,
    ContractionTreeError,
    Tensor,
    TensorNetwork,
    ssa_path_from_linear,
)


def _chain_tree():
    """The matrix chain A[i,x] B[x,y] C[y,j], contracted as ((A,B),C)."""
    leaf_indices = [{"i", "x"}, {"x", "y"}, {"y", "j"}]
    sizes = {"i": 2, "x": 4, "y": 8, "j": 2}
    return ContractionTree(
        leaf_indices=leaf_indices,
        index_sizes=sizes,
        ssa_path=[(0, 1), (3, 2)],
        output_indices={"i", "j"},
    )


class TestConstruction:
    def test_basic_structure(self):
        tree = _chain_tree()
        assert tree.num_leaves == 3
        assert tree.root == 4
        assert tree.internal_nodes() == (3, 4)
        assert tree.is_leaf(0)
        assert not tree.is_leaf(3)
        assert tree.children(3) == (0, 1)
        assert tree.leaves_under(3) == frozenset({0, 1})
        assert tree.leaves_under(4) == frozenset({0, 1, 2})

    def test_node_indices(self):
        tree = _chain_tree()
        # A*B removes x (internal to the pair), keeps i (output) and y (needed by C)
        assert tree.node_indices(3) == frozenset({"i", "y"})
        # root keeps only the output indices
        assert tree.node_indices(4) == frozenset({"i", "j"})

    def test_wrong_step_count(self):
        with pytest.raises(ContractionTreeError):
            ContractionTree(
                leaf_indices=[{"a"}, {"a"}],
                index_sizes={"a": 2},
                ssa_path=[],
            )

    def test_unknown_node_in_path(self):
        with pytest.raises(ContractionTreeError):
            ContractionTree(
                leaf_indices=[{"a"}, {"a"}],
                index_sizes={"a": 2},
                ssa_path=[(0, 7)],
            )

    def test_node_reuse_rejected(self):
        with pytest.raises(ContractionTreeError):
            ContractionTree(
                leaf_indices=[{"a"}, {"a", "b"}, {"b"}],
                index_sizes={"a": 2, "b": 2},
                ssa_path=[(0, 1), (0, 2)],
            )

    def test_self_contraction_rejected(self):
        with pytest.raises(ContractionTreeError):
            ContractionTree(
                leaf_indices=[{"a"}, {"a"}],
                index_sizes={"a": 2},
                ssa_path=[(0, 0)],
            )

    def test_missing_size_rejected(self):
        with pytest.raises(ContractionTreeError):
            ContractionTree(
                leaf_indices=[{"a"}, {"a"}],
                index_sizes={},
                ssa_path=[(0, 1)],
            )

    def test_empty_tree_rejected(self):
        with pytest.raises(ContractionTreeError):
            ContractionTree(leaf_indices=[], index_sizes={}, ssa_path=[])

    def test_from_network(self):
        tn = TensorNetwork()
        tn.add_tensor(Tensor(("i", "x"), sizes={"i": 2, "x": 4}))
        tn.add_tensor(Tensor(("x", "j"), sizes={"x": 4, "j": 2}))
        tree = ContractionTree.from_network(tn, [(0, 1)])
        assert tree.num_leaves == 2
        assert tree.node_indices(tree.root) == frozenset({"i", "j"})
        assert tree.leaf_tids == tn.tensor_ids


class TestCosts:
    def test_node_flops_by_hand(self):
        tree = _chain_tree()
        # contraction (A, B): indices {i, x} ∪ {x, y} ∪ {i, y} = {i, x, y} → 2*4*8 = 64
        assert 2.0 ** tree.node_log2_flops(3) == pytest.approx(64.0)
        # contraction (AB, C): {i, y} ∪ {y, j} ∪ {i, j} → 2*8*2 = 32
        assert 2.0 ** tree.node_log2_flops(4) == pytest.approx(32.0)
        assert tree.contraction_cost() == pytest.approx(96.0)

    def test_space_cost_by_hand(self):
        tree = _chain_tree()
        # biggest intermediate is AB with indices {i, y}: 2*8 = 16 elements
        assert 2.0 ** tree.max_intermediate_log2_size() == pytest.approx(16.0)
        assert tree.max_rank() == 2

    def test_sliced_cost_eq4(self):
        tree = _chain_tree()
        sliced = {"y"}
        # per-subtask: node 3 loses y -> 2*4=8; node 4 loses y -> 2*2=4; times w(y)=8 subtasks
        assert tree.total_cost(sliced) == pytest.approx(8 * (8 + 4))
        assert tree.slicing_overhead(sliced) == pytest.approx(96.0 / 96.0 * (8 * 12) / 96.0)

    def test_slicing_edge_outside_everything_doubles_cost(self):
        # slicing an edge e multiplies the cost of contractions not involving e
        tree = _chain_tree()
        sliced = {"i"}  # i participates in both contractions -> no overhead
        assert tree.slicing_overhead(sliced) == pytest.approx(1.0)

    def test_total_cost_monotone_in_slices(self):
        tree = _chain_tree()
        assert tree.total_cost({"x"}) >= tree.total_cost(frozenset())

    def test_log10_cost(self):
        tree = _chain_tree()
        assert tree.log10_total_cost() == pytest.approx(math.log10(96.0))

    def test_peak_memory_and_intensity_positive(self):
        tree = _chain_tree()
        assert tree.peak_memory_elements() > 0
        assert tree.arithmetic_intensity() > 0

    def test_subtree_cost_adds_up(self):
        tree = _chain_tree()
        assert tree.subtree_cost(tree.root) == pytest.approx(tree.contraction_cost())


class TestNavigation:
    def test_parent_map_and_depth(self):
        tree = _chain_tree()
        parents = tree.parent_map()
        assert parents[3] == 4
        assert parents[0] == 3
        assert tree.node_depth(tree.root) == 0
        assert tree.node_depth(0) == 2

    def test_path_to_root(self):
        tree = _chain_tree()
        assert tree.path_to_root(0) == [0, 3, 4]
        assert tree.path_to_root(2) == [2, 4]

    def test_leaf_of_tid(self):
        tree = _chain_tree()
        assert tree.leaf_of_tid(1) == 1
        with pytest.raises(ContractionTreeError):
            tree.leaf_of_tid(99)

    def test_parent_map_is_cached(self):
        # the tree is immutable: repeated queries must reuse the same map
        tree = _chain_tree()
        assert tree.parent_map() is tree.parent_map()

    def test_leaf_of_tid_matches_leaf_tids_order(self):
        tree = _chain_tree()
        for pos, tid in enumerate(tree.leaf_tids):
            assert tree.leaf_of_tid(tid) == pos

    def test_unknown_node_raises(self):
        tree = _chain_tree()
        with pytest.raises(ContractionTreeError):
            tree.node_indices(42)
        with pytest.raises(ContractionTreeError):
            tree.contraction_indices(0)  # leaves have no contraction


    def test_leaves_under_walks_on_demand_what_the_eager_sets_held(self):
        """No per-node leaf set is stored any more (a fifth of a Sycamore
        tree's bytes, read by nothing in ``src/``): the walk must return
        what the eager bottom-up union did, on the hostile trees too."""
        from repro.paths import GreedyOptimizer
        from test_properties import _adversarial_network

        trees = [_chain_tree()]
        for seed in range(30):
            network = _adversarial_network(seed)
            trees.append(GreedyOptimizer(seed=seed).tree(network))
        for tree in trees:
            eager = {leaf: frozenset({leaf}) for leaf in range(tree.num_leaves)}
            for node in tree.internal_nodes():
                lhs, rhs = tree.children(node)
                eager[node] = eager[lhs] | eager[rhs]
            for node in tree.nodes():
                assert tree.leaves_under(node) == eager[node]
            assert tree.leaves_under(tree.root) == frozenset(range(tree.num_leaves))
            with pytest.raises(ContractionTreeError):
                tree.leaves_under(tree.root + 1)


class TestLinearPathConversion:
    def test_ssa_from_linear(self):
        # linear path over 4 tensors: contract positions (0,1) -> new at end,
        # then (0,1) again of the remaining [t2, t3, t01], then (0,1) of [t23?, ...]
        ssa = ssa_path_from_linear([(0, 1), (0, 1), (0, 1)], num_leaves=4)
        assert ssa == [(0, 1), (2, 3), (4, 5)]

    def test_ssa_from_linear_interleaved(self):
        ssa = ssa_path_from_linear([(1, 2), (0, 1)], num_leaves=3)
        assert ssa == [(1, 2), (0, 3)]

    def test_self_step_rejected(self):
        with pytest.raises(ContractionTreeError):
            ssa_path_from_linear([(0, 0)], num_leaves=2)
