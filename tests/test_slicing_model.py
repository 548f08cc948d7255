"""Tests of the SlicingCostModel against the reference tree cost formulas."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import sycamore_circuit
from repro.core import (
    LifetimeSliceFinder,
    SimulatedAnnealingSliceRefiner,
    SlicingCostModel,
    SlicingError,
    SlicingState,
    extract_stem,
)
from repro.paths import PartitionOptimizer, TreeAnnealer
from repro.tensornet import ContractionTree, amplitude_network, simplify_network


def _chain_tree():
    leaf_indices = [{"i", "x"}, {"x", "y"}, {"y", "j"}]
    sizes = {"i": 2, "x": 4, "y": 8, "j": 2}
    return ContractionTree(
        leaf_indices=leaf_indices,
        index_sizes=sizes,
        ssa_path=[(0, 1), (3, 2)],
        output_indices={"i", "j"},
    )


class TestAgreementWithTree:
    @pytest.mark.parametrize("num_sliced", [0, 1, 2, 3])
    def test_total_cost_matches_tree(self, grid_tree, grid_cost_model, num_sliced):
        edges = sorted(grid_tree.all_indices())[:num_sliced]
        sliced = frozenset(edges)
        assert grid_cost_model.total_cost(sliced) == pytest.approx(
            grid_tree.total_cost(sliced), rel=1e-10
        )
        assert grid_cost_model.max_rank(sliced) == grid_tree.max_rank(sliced)
        assert grid_cost_model.max_intermediate_log2_size(sliced) == pytest.approx(
            grid_tree.max_intermediate_log2_size(sliced)
        )

    def test_overhead_matches_eq2(self, grid_tree, grid_cost_model):
        edges = frozenset(sorted(grid_tree.all_indices())[:4])
        expected = grid_tree.total_cost(edges) / grid_tree.total_cost(frozenset())
        assert grid_cost_model.overhead(edges) == pytest.approx(expected, rel=1e-10)

    def test_contraction_cost_per_subtask(self, grid_tree, grid_cost_model):
        edges = frozenset(sorted(grid_tree.all_indices())[:3])
        assert grid_cost_model.contraction_cost(edges) == pytest.approx(
            grid_tree.contraction_cost(edges), rel=1e-10
        )

    def test_num_subtasks(self, grid_cost_model, grid_tree):
        edges = sorted(grid_tree.all_indices())[:5]
        assert grid_cost_model.num_subtasks(frozenset(edges)) == pytest.approx(2.0**5)
        assert grid_cost_model.num_subtasks(frozenset()) == 1.0

    def test_per_node_quantities(self, grid_tree, grid_cost_model):
        edges = frozenset(sorted(grid_tree.all_indices())[:3])
        costs = grid_cost_model.per_node_log2_cost(edges)
        multipliers = grid_cost_model.per_node_multiplier(edges)
        for row, node in enumerate(grid_cost_model.nodes):
            assert costs[row] == pytest.approx(grid_tree.node_log2_flops(node, edges))
            union = grid_tree.contraction_indices(node)
            expected_mult = 2.0 ** (len(edges) - len(edges & union))
            assert multipliers[row] == pytest.approx(expected_mult)


class TestEq4BruteForce:
    def test_total_cost_equals_sum_over_subtasks(self):
        """Eq. 4 must equal the literal sum of Eq. 1 over every subtask."""
        tree = _chain_tree()
        model = SlicingCostModel(tree)
        sliced = ("x", "y")
        per_subtask = tree.contraction_cost(frozenset(sliced))
        num_subtasks = 4 * 8
        assert model.total_cost(frozenset(sliced)) == pytest.approx(
            per_subtask * num_subtasks
        )

    def test_eq4_closed_form(self, grid_tree, grid_cost_model):
        sliced = frozenset(sorted(grid_tree.all_indices())[:4])
        # Eq. 4 with w=2 everywhere: sum_V 2^{|s_V| + |S| - |S ∩ s_V|}
        expected = 0.0
        for node in grid_tree.internal_nodes():
            union = grid_tree.contraction_indices(node)
            expected += 2.0 ** (len(union) + len(sliced) - len(sliced & union))
        assert grid_cost_model.total_cost(sliced) == pytest.approx(expected, rel=1e-10)


class TestCriticalAndCovering:
    def test_critical_nodes_definition(self, grid_tree, grid_cost_model):
        sliced = frozenset(sorted(grid_tree.all_indices())[:4])
        target = grid_cost_model.max_rank(sliced)
        critical = grid_cost_model.critical_nodes(sliced, target)
        assert critical, "at least the max-rank node must be critical"
        for node in critical:
            rank = sum(1 for ix in grid_tree.node_indices(node) if ix not in sliced)
            assert rank == target

    def test_nodes_covering_is_lifetime(self, grid_tree, grid_cost_model):
        edge = sorted(grid_tree.all_indices())[0]
        covering = set(grid_cost_model.nodes_covering(edge))
        expected = {
            node
            for node in grid_tree.internal_nodes()
            if edge in grid_tree.node_indices(node)
        }
        assert covering == expected

    def test_edges_covering_all(self, grid_tree, grid_cost_model):
        # pick a node and ask for the edges covering it: each returned edge
        # must indeed carry the node, and edges on the node must be returned
        node = grid_cost_model.nodes[len(grid_cost_model.nodes) // 2]
        edges = grid_cost_model.edges_covering_all([node])
        node_indices = grid_tree.node_indices(node)
        assert set(edges) == set(node_indices)

    def test_edges_covering_empty_is_all(self, grid_cost_model):
        assert set(grid_cost_model.edges_covering_all([])) == set(grid_cost_model.indices)

    def test_node_result_rank(self, grid_tree, grid_cost_model):
        sliced = frozenset(sorted(grid_tree.all_indices())[:2])
        node = grid_cost_model.nodes[0]
        expected = sum(1 for ix in grid_tree.node_indices(node) if ix not in sliced)
        assert grid_cost_model.node_result_rank(node, sliced) == expected


class TestErrors:
    def test_unknown_edge_raises(self, grid_cost_model):
        with pytest.raises(SlicingError):
            grid_cost_model.total_cost({"definitely-not-an-edge"})

    def test_single_tensor_tree_rejected(self):
        tree = ContractionTree(
            leaf_indices=[{"a"}], index_sizes={"a": 2}, ssa_path=[], output_indices={"a"}
        )
        with pytest.raises(SlicingError):
            SlicingCostModel(tree)

    def test_result_packaging(self, grid_cost_model, grid_tree, grid_target_rank):
        sliced = frozenset(sorted(grid_tree.all_indices())[:3])
        result = grid_cost_model.result(sliced, grid_target_rank, method="test")
        assert result.method == "test"
        assert result.num_sliced == 3
        assert result.overhead == pytest.approx(grid_cost_model.overhead(sliced))
        assert result.satisfies_target == (result.max_rank <= grid_target_rank)


# ---------------------------------------------------------------------------
# SlicingState: batched move scores against the scalar oracle
# ---------------------------------------------------------------------------


def _random_tree(rng, sizes):
    """A random tree over a random multigraph: bonds, open legs, a random pairing order."""
    num_leaves = int(rng.integers(3, 9))
    leaf_indices = [set() for _ in range(num_leaves)]
    index_sizes, output = {}, set()
    for k in range(int(rng.integers(num_leaves, 3 * num_leaves))):
        label = f"e{k:02d}"
        index_sizes[label] = int(rng.choice(sizes))
        a, b = rng.choice(num_leaves, size=2, replace=False)
        leaf_indices[a].add(label)
        if rng.random() < 0.85:
            leaf_indices[b].add(label)
        else:
            output.add(label)  # an open leg lives up to the root
    alive, path = list(range(num_leaves)), []
    while len(alive) > 1:
        a, b = (alive.pop(int(rng.integers(len(alive)))) for _ in range(2))
        path.append((a, b))
        alive.append(num_leaves + len(path) - 1)
    return ContractionTree(leaf_indices, index_sizes, path, output_indices=output)


def _random_move(rng, model):
    """``(sliced, without, candidate columns, target)``; any of the first three may be empty."""
    indices = model.indices
    sliced = {ix for ix in indices if rng.random() < 0.3}
    without = None
    if sliced and rng.random() < 0.7:
        without = sorted(sliced)[int(rng.integers(len(sliced)))]
    unsliced = [col for col, ix in enumerate(indices) if ix not in sliced]
    cols = np.array([col for col in unsliced if rng.random() < 0.6], dtype=np.intp)
    rng.shuffle(cols)
    target = int(rng.integers(1, model.max_rank() + 2))
    return sliced, without, cols, target


def _random_walk(rng, model, state, moves):
    """Random add / remove / replace moves on ``state``; yields the set after each."""
    mirror = set()
    for _ in range(moves):
        unsliced = sorted(set(model.indices) - mirror)
        move = rng.integers(3)
        if move == 0 and unsliced:
            edge = unsliced[int(rng.integers(len(unsliced)))]
            state.add(edge)
            mirror.add(edge)
        elif move == 1 and mirror:
            edge = sorted(mirror)[int(rng.integers(len(mirror)))]
            state.remove(edge)
            mirror.discard(edge)
        elif mirror and unsliced:
            old = sorted(mirror)[int(rng.integers(len(mirror)))]
            new = unsliced[int(rng.integers(len(unsliced)))]
            state.replace(old, new)
            mirror = (mirror - {old}) | {new}
        yield mirror


STATE_SETTINGS = settings(max_examples=60, deadline=None)


class TestSlicingStateMatchesOracle:
    @STATE_SETTINGS
    @given(seed=st.integers(0, 10_000), mixed=st.booleans())
    def test_swap_and_add_scores(self, seed, mixed):
        rng = np.random.default_rng(seed)
        model = SlicingCostModel(_random_tree(rng, sizes=(2, 3, 4) if mixed else (2, 4, 8)))
        sliced, without, cols, target = _random_move(rng, model)
        state = SlicingState(model, sliced)
        trials = [(sliced - {without}) | {model.indices[col]} for col in cols]

        feasible = state.feasible(cols, target, without=without)
        assert feasible.tolist() == [model.satisfies_target(t, target) for t in trials]

        costs = state.costs(cols, without=without)
        oracle = [model.total_cost(t) for t in trials]
        assert costs.shape == (len(cols),)
        if mixed:
            assert costs.tolist() == pytest.approx(oracle, rel=1e-12, abs=0.0)
        else:
            assert costs.tolist() == oracle  # bit for bit

    @STATE_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_single_sliced_edge_and_empty_candidates(self, seed):
        rng = np.random.default_rng(seed)
        model = SlicingCostModel(_random_tree(rng, sizes=(2, 4)))
        edge, *others = (model.indices[i] for i in rng.permutation(len(model.indices)))
        state = SlicingState(model, {edge})
        cols = np.array(sorted(model.indices.index(ix) for ix in others), dtype=np.intp)
        # swapping out the only sliced edge scores the one-edge sets
        assert state.costs(cols, without=edge).tolist() == [
            model.total_cost({model.indices[col]}) for col in cols
        ]
        none = np.array([], dtype=np.intp)
        assert state.costs(none, without=edge).shape == (0,)
        assert state.feasible(none, 3, without=edge).shape == (0,)
        assert SlicingState(model).costs(none).shape == (0,)

    @STATE_SETTINGS
    @given(seed=st.integers(0, 10_000), mixed=st.booleans())
    def test_candidate_enumeration_and_drops(self, seed, mixed):
        rng = np.random.default_rng(seed)
        tree = _random_tree(rng, sizes=(2, 3, 4) if mixed else (2,))
        model = SlicingCostModel(tree)
        sliced, _, _, target = _random_move(rng, model)
        state = SlicingState(model, sliced)
        assert state.edges == sorted(sliced)
        assert state.satisfies_target(target) == model.satisfies_target(sliced, target)

        assert state.droppable(target).tolist() == [
            model.satisfies_target(sliced - {edge}, target) for edge in state.edges
        ]
        critical = set(model.critical_nodes(sliced, target))
        for edge in state.edges:
            covered = sorted(critical & set(model.nodes_covering(edge)))
            expected = [ix for ix in model.edges_covering_all(covered) if ix not in sliced]
            assert [model.indices[c] for c in state.swap_candidates(edge, target)] == expected

        over = [n for n in model.nodes if model.node_result_rank(n, sliced) > target]
        counts = state.unsliced_counts(state.ranks > target)
        for col, ix in enumerate(model.indices):
            carried = sum(1 for n in over if ix in tree.node_indices(n))
            assert counts[col] == (0 if ix in sliced else carried)

    @STATE_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_vectors_follow_the_set_exactly(self, seed):
        rng = np.random.default_rng(seed)
        model = SlicingCostModel(_random_tree(rng, sizes=(2, 3, 4)))
        state = SlicingState(model)
        for mirror in _random_walk(rng, model, state, 12):
            assert state.edges == sorted(mirror)
            # no drift, mixed sizes included: the vectors are the oracle's own
            assert np.array_equal(state.reduced, model.per_node_log2_cost(mirror))
            assert int(state.ranks.max()) == model.max_rank(mirror)

    @STATE_SETTINGS
    @pytest.mark.parametrize("sizes", [(2, 4, 8), (2, 3, 4)], ids=["integral", "mixed"])
    @given(seed=st.integers(0, 10_000))
    def test_long_walks_keep_the_state_a_fresh_one(self, sizes, seed):
        """Every move updates the vectors by one column (integral sizes) or
        rebuilds them (mixed): after each of 240 moves they are those of a
        state built from scratch, bit for bit, and while the set meets the
        bound every swap candidate is feasible."""
        rng = np.random.default_rng(seed)
        model = SlicingCostModel(_random_tree(rng, sizes=sizes))
        state = SlicingState(model)
        for mirror in _random_walk(rng, model, state, 240):
            fresh = SlicingState(model, mirror)
            assert state.edges == fresh.edges
            assert np.array_equal(state.ranks, fresh.ranks)
            assert np.array_equal(state.reduced, fresh.reduced)
            assert state._log2_subtasks == fresh._log2_subtasks
            if not mirror:
                continue
            # a bound the set meets, its critical tensors at the top or none
            target = int(state.ranks.max()) + int(rng.integers(2))
            assert state.satisfies_target(target)
            edge = sorted(mirror)[int(rng.integers(len(mirror)))]
            covered = set(model.critical_nodes(mirror, target)) & set(model.nodes_covering(edge))
            candidates = np.array(
                [model.indices.index(ix) for ix in model.edges_covering_all(sorted(covered))
                 if ix not in mirror],
                dtype=np.intp,
            )
            feasible = candidates[state.feasible(candidates, target, without=edge)]
            assert state.swap_candidates(edge, target).tolist() == feasible.tolist()


class TestSlicingMemory:
    def test_find_and_refine_stay_under_the_models_own_peak(self):
        """The model's constructor, whose ``(nodes × indices)`` float64 matmul
        operand it frees, sets the traced peak of a slicing run: the model it
        leaves plus everything the finder and the refiner build beside it
        stay below that.  On the Sycamore-53 m=12 tree of
        ``tests/test_slicers_golden.py`` (seed 0)."""
        network = amplitude_network(sycamore_circuit(cycles=12, seed=0), [0] * 53, concrete=False)
        simplify_network(network)
        tree = PartitionOptimizer(seed=0).tree(network)
        tree = TreeAnnealer(seed=0, initial_temperature=0.1, cooling=0.8).refine(tree).tree
        target = max(tree.max_rank() - 7, 4)
        extract_stem(tree)  # memoised per tree, as in a planner

        def traced(run):
            """``(peak, bytes still held, value)`` of one call."""
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                value = run()
                held, peak = tracemalloc.get_traced_memory()
                return peak - base, held - base, value
            finally:
                tracemalloc.stop()

        model_peak, model_bytes, model = traced(lambda: SlicingCostModel(tree))

        def find_and_refine():
            found = LifetimeSliceFinder(target).find(tree, cost_model=model)
            refiner = SimulatedAnnealingSliceRefiner(seed=0)
            return refiner.refine(tree, found.sliced, target, cost_model=model)

        slicing_peak, _, result = traced(find_and_refine)
        assert result.satisfies_target
        assert model_bytes + slicing_peak < model_peak


class TestSlicingStateErrors:
    def test_unknown_edges_raise_early(self, grid_cost_model):
        with pytest.raises(SlicingError):
            SlicingState(grid_cost_model, {"definitely-not-an-edge"})
        state = SlicingState(grid_cost_model)
        with pytest.raises(SlicingError):
            state.add("definitely-not-an-edge")
        with pytest.raises(SlicingError):
            state.remove("definitely-not-an-edge")

    def test_set_discipline(self, grid_cost_model):
        first, second = grid_cost_model.indices[:2]
        state = SlicingState(grid_cost_model, {first})
        with pytest.raises(SlicingError):
            state.add(first)
        with pytest.raises(SlicingError):
            state.remove(second)
        with pytest.raises(SlicingError):
            state.replace(second, first)
        cols = np.array([1], dtype=np.intp)
        for score in (state.costs, lambda c, without: state.feasible(c, 5, without=without)):
            with pytest.raises(SlicingError):
                score(cols, without=second)
        with pytest.raises(SlicingError):
            state.swap_candidates(second, 5)
        assert state.edges == [first]

    def test_unknown_node_is_a_slicing_error(self, grid_cost_model):
        with pytest.raises(SlicingError):
            grid_cost_model.node_result_rank(-1)
        with pytest.raises(SlicingError):
            grid_cost_model.edges_covering_all([-1])
