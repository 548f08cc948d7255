"""Tests of stem extraction and the stem complexity profile."""

from __future__ import annotations

import gc
import math
import weakref

import pytest

from repro.core import SlicingCostModel, extract_stem, stem_profile
from repro.paths import GreedyOptimizer


class TestStemStructure:
    def test_stem_nodes_form_a_root_path(self, grid_tree, grid_stem):
        # the stem's contraction nodes must be a chain ending at the root
        assert grid_stem.steps, "stem must not be empty"
        assert grid_stem.nodes[-1] == grid_tree.root
        parents = grid_tree.parent_map()
        for lower, upper in zip(grid_stem.nodes, grid_stem.nodes[1:]):
            assert parents[lower] == upper

    def test_each_step_children_are_consistent(self, grid_tree, grid_stem):
        for i, step in enumerate(grid_stem.steps):
            children = grid_tree.children(step.node)
            assert set(children) == {step.stem_child, step.branch_child}
            if i == 0:
                assert step.stem_child == grid_stem.start_node
            else:
                assert step.stem_child == grid_stem.steps[i - 1].node

    def test_step_metadata_matches_tree(self, grid_tree, grid_stem):
        for step in grid_stem.steps:
            assert step.result_indices == grid_tree.node_indices(step.node)
            assert step.branch_indices == grid_tree.node_indices(step.branch_child)
            assert step.log2_flops == pytest.approx(grid_tree.node_log2_flops(step.node))
            assert step.rank == len(step.result_indices)

    def test_cost_fraction_bounds(self, grid_stem):
        fraction = grid_stem.cost_fraction()
        assert 0.0 < fraction <= 1.0

    def test_stem_contains_most_expensive_contraction(self, grid_tree, grid_stem):
        most_expensive = max(
            grid_tree.internal_nodes(), key=lambda n: grid_tree.node_log2_flops(n)
        )
        # the DP choice maximises path cost, which must include the single
        # most expensive node's cost fraction in almost all trees; check the
        # stem's max step cost is at least that node's cost
        stem_max = max(step.log2_flops for step in grid_stem.steps)
        assert stem_max == pytest.approx(grid_tree.node_log2_flops(most_expensive))

    def test_stem_max_rank_ge_tree_max_rank_when_on_stem(self, grid_tree, grid_stem):
        assert grid_stem.max_rank() <= grid_tree.max_rank()

    def test_edges_superset_of_step_indices(self, grid_stem):
        edges = grid_stem.edges()
        for step in grid_stem.steps:
            assert step.result_indices <= edges
            assert step.branch_indices <= edges

    def test_a_memoized_stem_leaves_its_tree_to_reference_counting(self, grid_network):
        """The tree memoizes the stem's steps, not the stem that points back
        at it: a dropped tree is freed at once, not at the collector's next
        sweep."""
        tree = GreedyOptimizer(seed=0).tree(grid_network)
        first, again = extract_stem(tree), extract_stem(tree)
        assert again == first and again.tree is tree
        alive = weakref.ref(tree)
        gc.disable()
        try:
            del tree, first, again
            assert alive() is None
        finally:
            gc.enable()


class TestStemAsTree:
    def test_caterpillar_tree_costs_match_steps(self, grid_stem):
        stem_tree = grid_stem.as_tree()
        assert stem_tree.num_leaves == grid_stem.length + 1
        # per-step contraction costs must be identical to the original stem's
        for position, node in enumerate(stem_tree.internal_nodes()):
            assert stem_tree.node_log2_flops(node) == pytest.approx(
                grid_stem.steps[position].log2_flops
            )

    def test_caterpillar_intermediates_match_stem_tensors(self, grid_stem):
        stem_tree = grid_stem.as_tree()
        for position, node in enumerate(stem_tree.internal_nodes()):
            assert stem_tree.node_indices(node) == grid_stem.steps[position].result_indices

    def test_cost_model_works_on_stem_tree(self, grid_stem):
        model = SlicingCostModel(grid_stem.as_tree())
        assert model.total_cost(frozenset()) == pytest.approx(grid_stem.cost(), rel=1e-12)


class TestStemProfile:
    def test_profile_without_slicing(self, grid_stem):
        profile = stem_profile(grid_stem)
        assert len(profile) == grid_stem.length
        for row in profile:
            assert row["log2_cost"] == pytest.approx(row["log2_cost_sliced"])
            assert row["log2_multiple"] == pytest.approx(0.0)

    def test_profile_with_slicing_multiplicities(self, grid_tree, grid_stem):
        edges = sorted(grid_stem.edges() & grid_tree.all_indices())[:3]
        sliced = frozenset(edges)
        profile = stem_profile(grid_stem, sliced)
        for position, row in enumerate(profile):
            union = grid_tree.contraction_indices(grid_stem.steps[position].node)
            covered = len(union & sliced)
            assert row["log2_multiple"] == pytest.approx(len(sliced) - covered)
            assert row["log2_cost_sliced"] == pytest.approx(row["log2_cost"] - covered)

    def test_profile_positions_are_sequential(self, grid_stem):
        profile = stem_profile(grid_stem)
        assert [row["position"] for row in profile] == list(range(grid_stem.length))


class TestStemOnSmallTree(object):
    def test_stem_of_two_leaf_tree(self, small_network):
        tree = GreedyOptimizer(seed=0).tree(small_network)
        stem = extract_stem(tree)
        assert stem.length >= 1
        assert stem.nodes[-1] == tree.root
