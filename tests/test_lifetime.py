"""Tests of the lifetime concept (Definition 1) and its structural properties."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    compute_lifetimes,
    extract_stem,
    lifetime_contains,
    lifetime_is_contiguous_on_path,
    lifetime_lengths,
    lifetime_of,
    lifetimes_on_nodes,
    slice_dependency_levels,
    slice_dependent_nodes,
    verify_halving_property,
)
from repro.tensornet import ContractionTree


def _chain_tree():
    leaf_indices = [{"i", "x"}, {"x", "y"}, {"y", "j"}]
    sizes = {"i": 2, "x": 2, "y": 2, "j": 2}
    return ContractionTree(
        leaf_indices=leaf_indices,
        index_sizes=sizes,
        ssa_path=[(0, 1), (3, 2)],
        output_indices={"i", "j"},
    )


class TestDefinition:
    def test_lifetime_matches_brute_force_on_chain(self):
        tree = _chain_tree()
        lifetimes = compute_lifetimes(tree)
        # x lives on leaves 0, 1 only (it is contracted at node 3)
        assert lifetimes["x"].nodes == frozenset({0, 1})
        # y lives on leaves 1, 2 and on the intermediate node 3
        assert lifetimes["y"].nodes == frozenset({1, 2, 3})
        # i is an output index: it lives on leaf 0 and every ancestor
        assert lifetimes["i"].nodes == frozenset({0, 3, 4})

    def test_lifetime_definition_exhaustive(self, grid_tree):
        lifetimes = compute_lifetimes(grid_tree)
        for edge, lt in list(lifetimes.items())[:40]:
            expected = frozenset(
                node for node in grid_tree.nodes() if edge in grid_tree.node_indices(node)
            )
            assert lt.nodes == expected, edge

    def test_internal_only_lifetime(self, grid_tree):
        lifetimes = compute_lifetimes(grid_tree, include_leaves=False)
        internal = frozenset(grid_tree.internal_nodes())
        for lt in lifetimes.values():
            assert lt.nodes <= internal

    def test_lifetime_of_single_edge(self, grid_tree):
        edge = sorted(grid_tree.all_indices())[0]
        lt = lifetime_of(grid_tree, edge)
        assert lt.edge == edge
        assert lt.length == len(lt.nodes)
        assert lt.internal_nodes <= lt.nodes

    def test_lengths_helper(self, grid_tree):
        lengths = lifetime_lengths(grid_tree)
        lifetimes = compute_lifetimes(grid_tree)
        for edge, length in lengths.items():
            assert length == lifetimes[edge].length

    def test_restricted_lifetimes(self, grid_tree, grid_stem):
        region = grid_stem.nodes
        restricted = lifetimes_on_nodes(grid_tree, region)
        full = compute_lifetimes(grid_tree)
        for edge, nodes in restricted.items():
            assert nodes == full[edge].nodes & frozenset(region)


class TestHalvingProperty:
    """Slicing an edge halves exactly the tensors in its lifetime."""

    def test_chain_tree(self):
        tree = _chain_tree()
        for edge in ("i", "x", "y", "j"):
            ok, _ = verify_halving_property(tree, edge)
            assert ok, edge

    def test_grid_tree_sample(self, grid_tree):
        for edge in sorted(grid_tree.all_indices())[::7]:
            ok, sizes = verify_halving_property(grid_tree, edge)
            assert ok, edge

    def test_contraction_cost_unchanged_inside_lifetime(self, grid_tree):
        # the time complexity of contractions whose index union contains the
        # sliced edge is unchanged; all others double (for w=2)
        edge = max(
            grid_tree.all_indices(),
            key=lambda e: len(lifetime_of(grid_tree, e).internal_nodes),
        )
        for node in grid_tree.internal_nodes():
            before = grid_tree.node_log2_flops(node)
            after = grid_tree.node_log2_flops(node, sliced={edge})
            if edge in grid_tree.contraction_indices(node):
                assert after == pytest.approx(before - 1.0)
            else:
                assert after == pytest.approx(before)


class TestRelations:
    def test_containment_relation(self, grid_tree):
        edges = sorted(grid_tree.all_indices())
        a, b = edges[0], edges[1]
        la, lb = lifetime_of(grid_tree, a), lifetime_of(grid_tree, b)
        assert lifetime_contains(grid_tree, a, b) == (lb.nodes <= la.nodes)
        # every lifetime contains itself
        assert lifetime_contains(grid_tree, a, a)

    def test_contiguity_on_stem(self, grid_tree, grid_stem):
        path = list(grid_stem.nodes)
        for edge in sorted(grid_stem.edges())[:40]:
            assert lifetime_is_contiguous_on_path(grid_tree, edge, path), edge

    def test_contiguity_trivially_true_for_absent_edge(self, grid_tree, grid_stem):
        assert lifetime_is_contiguous_on_path(grid_tree, "no-such-edge", list(grid_stem.nodes))


class TestOverheadSuperposition:
    """The Fig. 5 superposition rule: each sliced edge doubles the cost of the
    contractions outside its lifetime, independently of the other edges."""

    def test_two_edge_superposition(self, grid_tree):
        edges = sorted(
            grid_tree.all_indices(),
            key=lambda e: -len(lifetime_of(grid_tree, e).internal_nodes),
        )
        a, b = edges[0], edges[1]
        cost_none = grid_tree.total_cost(frozenset())
        expected = 0.0
        for node in grid_tree.internal_nodes():
            union = grid_tree.contraction_indices(node)
            multiplier = 1.0
            if a not in union:
                multiplier *= 2.0
            if b not in union:
                multiplier *= 2.0
            expected += multiplier * 2.0 ** grid_tree.node_log2_flops(node)
        assert grid_tree.total_cost({a, b}) == pytest.approx(expected, rel=1e-12)

    def test_edge_spanning_whole_tree_is_free(self):
        # an edge alive on every contraction causes no overhead: "i" sits on
        # leaf 0 and, being an output index, on both intermediates
        tree = _chain_tree()
        assert tree.slicing_overhead({"i"}) == pytest.approx(1.0)

    def test_edge_dying_early_causes_overhead(self):
        tree = _chain_tree()
        # x is contracted at the first step: the second contraction is redone
        assert tree.slicing_overhead({"x"}) > 1.0


class TestDependencyLevels:
    def test_levels_on_chain(self):
        tree = _chain_tree()
        # x sits on leaves 0/1, y on leaves 1/2: listing y last makes every
        # node above leaf 0 change with y, and leaf 0 only with x
        assert slice_dependency_levels(tree, ("x", "y")) == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2}
        assert slice_dependency_levels(tree, ("y", "x")) == {0: 2, 1: 2, 2: 1, 3: 2, 4: 2}
        assert slice_dependency_levels(tree, ()) == dict.fromkeys(range(5), 0)

    def test_level_is_the_last_position_reaching_a_leaf_below(self, grid_tree):
        ordered = sorted(grid_tree.all_indices())[3:40:6]
        levels = slice_dependency_levels(grid_tree, ordered)
        lifetimes = compute_lifetimes(grid_tree, edges=ordered)
        for node in grid_tree.nodes():
            reaching = [
                position
                for position, ix in enumerate(ordered, start=1)
                if lifetimes[ix].nodes & grid_tree.leaves_under(node)
            ]
            assert levels[node] == max(reaching, default=0), node
        # the binary split is the level > 0 set, whatever the order
        dependent = slice_dependent_nodes(grid_tree, ordered)
        assert dependent == {node for node, level in levels.items() if level}
        backwards = slice_dependency_levels(grid_tree, ordered[::-1])
        assert dependent == {node for node, level in backwards.items() if level}
