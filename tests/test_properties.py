"""Property-based tests (hypothesis) of the core invariants.

These are the paper's load-bearing identities, checked over randomly
generated circuits, trees and slicing sets rather than hand-picked cases:

* a sliced contraction summed over all subtasks equals the unsliced value,
* slicing an edge halves exactly the tensors in its lifetime,
* Eq. 4 equals the per-subtask cost times the subtask count for any slicing
  set, and the overhead superposition rule of Fig. 5 holds,
* Algorithm 1 always satisfies the memory target and the SA refiner never
  regresses it,
* the reduced permutation map agrees with ``numpy.transpose`` for any
  permutation,
* on adversarial networks (mixed dimensions, hyper-indices, open indices,
  disconnected components) the path searches' integer-mask index algebra
  agrees with :class:`ContractionTree`'s string sets, and their trees
  contract to the dense ``einsum`` value,
* on the same adversarial networks, sliced any which way, the one plan
  walker agrees with the einsum oracle, and its fold node's array carries
  the result's bits through the tail,
* and a walker that *resumes* on one arena through any sequence of subtask
  ids (repeats, reversals, gaps, another plan interleaved) returns, call by
  call, the bits of a stateless execute of the same assignment — plans that
  open subtrees (fetching views of cache entries) included,
* the sweep planner returns a permutation of the sliced indices that is no
  worse than label order in steps, work or resident bytes, equal to the
  exhaustive optimum under the same ceilings wherever that is enumerable,
* a plan that sums its contributions below the root (its tail run once)
  returns the einsum oracle's value, as one bit pattern on every backend
  and recovery path, while a single subtask keeps the bits it had
  before the fold,
* and a walk that writes every copy and output into its compile-time arena
  region returns the allocating walk's bits, subtask by subtask and folded,
  on every backend and recovery path.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_plan import _arena_layout, _check_layout

from repro.circuits import amplitude, random_brickwork_circuit
from repro.core import (
    GreedySliceBaseline,
    LifetimeSliceFinder,
    PermutationSpec,
    ReducedPermutationMap,
    SimulatedAnnealingSliceRefiner,
    SlicingCostModel,
    compute_lifetimes,
    extract_stem,
)
from repro.core import lifetime as lifetime_module
from repro.core.lifetime import plan_sweep, sweep_prediction
from repro.execution import (
    CheckpointStore,
    DistributedBackend,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedCoordinatorDeath,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    StemSlots,
    ThreadPoolBackend,
    TreeExecutor,
    compile_plan,
    contract_tree,
)
from repro.paths import (
    CommunityOptimizer,
    GreedyOptimizer,
    PartitionOptimizer,
    TreeAnnealer,
)
from repro.paths.anneal import _MutableTree
from repro.paths.indexspace import IndexSpace
from repro.tensornet import (
    ContractionTree,
    Tensor,
    TensorNetwork,
    amplitude_network,
    simplify_network,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

circuit_strategy = st.tuples(
    st.integers(min_value=3, max_value=6),  # qubits
    st.integers(min_value=2, max_value=4),  # depth
    st.integers(min_value=0, max_value=1000),  # seed
)

perm_strategy = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.permutations(list(range(n)))
)


def _planning_tree(seed: int, temperature: float = 0.5) -> ContractionTree:
    """A randomised contraction tree over the shared grid-like workload."""
    circ = random_brickwork_circuit(7, 5, seed=seed % 17)
    tn = amplitude_network(circ, [0] * 7, concrete=False)
    simplify_network(tn)
    return GreedyOptimizer(temperature=temperature, seed=seed).tree(tn)


# ---------------------------------------------------------------------------
# Numerical slicing invariant
# ---------------------------------------------------------------------------


class TestSlicedContractionProperty:
    @SETTINGS
    @given(params=circuit_strategy, num_sliced=st.integers(min_value=1, max_value=3))
    def test_sum_of_subtasks_equals_unsliced_amplitude(self, params, num_sliced):
        qubits, depth, seed = params
        circ = random_brickwork_circuit(qubits, depth, seed=seed)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=qubits).tolist()
        tn = amplitude_network(circ, bits)
        simplify_network(tn)
        if tn.num_tensors < 2:
            return
        tree = GreedyOptimizer(seed=seed).tree(tn)
        inner = sorted(tn.inner_indices())
        if not inner:
            return
        picks = rng.choice(len(inner), size=min(num_sliced, len(inner)), replace=False)
        sliced = [inner[i] for i in picks]
        executor = SlicedExecutor(tn, tree, sliced)
        assert executor.amplitude() == pytest.approx(amplitude(circ, bits), abs=1e-8)


# ---------------------------------------------------------------------------
# Lifetime / cost-model invariants
# ---------------------------------------------------------------------------


class TestLifetimeProperties:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_slicing_halves_exactly_the_lifetime(self, seed):
        tree = _planning_tree(seed)
        edges = sorted(tree.all_indices())
        rng = np.random.default_rng(seed)
        edge = edges[int(rng.integers(len(edges)))]
        lifetime = compute_lifetimes(tree, edges=[edge])[edge]
        for node in tree.nodes():
            before = tree.node_log2_size(node)
            after = tree.node_log2_size(node, sliced={edge})
            if node in lifetime.nodes:
                assert after == pytest.approx(before - 1.0)
            else:
                assert after == pytest.approx(before)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=1, max_value=5))
    def test_eq4_equals_subtask_count_times_per_subtask_cost(self, seed, k):
        tree = _planning_tree(seed)
        rng = np.random.default_rng(seed)
        edges = sorted(tree.all_indices())
        picks = rng.choice(len(edges), size=min(k, len(edges)), replace=False)
        sliced = frozenset(edges[i] for i in picks)
        model = SlicingCostModel(tree)
        assert model.total_cost(sliced) == pytest.approx(
            model.contraction_cost(sliced) * model.num_subtasks(sliced), rel=1e-9
        )
        assert model.total_cost(sliced) == pytest.approx(tree.total_cost(sliced), rel=1e-9)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=1, max_value=4))
    def test_overhead_superposition_rule(self, seed, k):
        tree = _planning_tree(seed)
        rng = np.random.default_rng(seed + 1)
        edges = sorted(tree.all_indices())
        picks = rng.choice(len(edges), size=min(k, len(edges)), replace=False)
        sliced = frozenset(edges[i] for i in picks)
        expected = 0.0
        for node in tree.internal_nodes():
            union = tree.contraction_indices(node)
            missing = len(sliced) - len(sliced & union)
            expected += 2.0**missing * 2.0 ** tree.node_log2_flops(node)
        assert tree.total_cost(sliced) == pytest.approx(expected, rel=1e-9)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_adding_an_edge_never_lowers_total_cost(self, seed):
        tree = _planning_tree(seed)
        rng = np.random.default_rng(seed + 2)
        edges = sorted(tree.all_indices())
        base = frozenset(edges[i] for i in rng.choice(len(edges), size=2, replace=False))
        extra = edges[int(rng.integers(len(edges)))]
        assert tree.total_cost(base | {extra}) >= tree.total_cost(base) - 1e-9


# ---------------------------------------------------------------------------
# Slicer guarantees
# ---------------------------------------------------------------------------


class TestSlicerProperties:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        delta=st.integers(min_value=1, max_value=5),
    )
    def test_finder_always_satisfies_target(self, seed, delta):
        tree = _planning_tree(seed)
        target = max(tree.max_rank() - delta, 2)
        model = SlicingCostModel(tree)
        result = LifetimeSliceFinder(target).find(tree, cost_model=model)
        assert result.satisfies_target
        assert result.sliced <= frozenset(model.indices)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_refiner_never_regresses(self, seed):
        tree = _planning_tree(seed)
        target = max(tree.max_rank() - 3, 2)
        model = SlicingCostModel(tree)
        initial = LifetimeSliceFinder(target).find(tree, cost_model=model)
        refined = SimulatedAnnealingSliceRefiner(seed=seed).refine(
            tree, initial.sliced, target, cost_model=model
        )
        assert refined.satisfies_target
        assert refined.overhead <= initial.overhead + 1e-9

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        delta=st.integers(min_value=1, max_value=4),
    )
    def test_baseline_always_satisfies_target(self, seed, delta):
        tree = _planning_tree(seed, temperature=0.8)
        target = max(tree.max_rank() - delta, 2)
        result = GreedySliceBaseline(target).find(tree)
        assert result.satisfies_target

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_stem_is_a_parent_chain(self, seed):
        tree = _planning_tree(seed)
        stem = extract_stem(tree)
        parents = tree.parent_map()
        for lower, upper in zip(stem.nodes, stem.nodes[1:]):
            assert parents[lower] == upper
        assert stem.nodes[-1] == tree.root


# ---------------------------------------------------------------------------
# Permutation maps
# ---------------------------------------------------------------------------


class TestPermutationProperties:
    @SETTINGS
    @given(perm=perm_strategy, seed=st.integers(min_value=0, max_value=1000))
    def test_reduced_map_matches_numpy(self, perm, seed):
        shape = (2,) * len(perm)
        spec = PermutationSpec(perm=tuple(perm), shape=shape)
        rng = np.random.default_rng(seed)
        array = rng.normal(size=shape)
        assert np.allclose(
            ReducedPermutationMap(spec).permute(array), np.transpose(array, perm)
        )

    @SETTINGS
    @given(perm=perm_strategy)
    def test_reduction_factor_matches_fixed_blocks(self, perm):
        spec = PermutationSpec(perm=tuple(perm), shape=(2,) * len(perm))
        reduced = ReducedPermutationMap(spec)
        expected = 2.0 ** (spec.fixed_prefix + spec.fixed_suffix)
        assert reduced.reduction_factor == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Path search on adversarial networks
# ---------------------------------------------------------------------------


def _adversarial_network(seed: int) -> TensorNetwork:
    """3-8 random tensors in one or two components: dimensions 2/3/4, a
    hyper-index on 3-4 tensors per component (sometimes open), open legs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    parts = int(rng.integers(1, 3))
    legs = [[] for _ in range(n)]
    dims = {}
    open_indices = []

    def add(owners):
        ix = f"i{len(dims)}"
        dims[ix] = int(rng.choice([2, 3, 4]))
        for tensor in owners:
            legs[tensor].append(ix)
        return ix

    for part in range(parts):
        members = list(range(part, n, parts))
        for a, b in zip(members, members[1:]):
            add([a, b])
        for _ in range(int(rng.integers(0, 3)) if len(members) > 1 else 0):
            add(rng.choice(members, size=2, replace=False).tolist())
        if len(members) >= 3:
            owners = int(rng.integers(3, min(4, len(members)) + 1))
            hyper = add(rng.choice(members, size=owners, replace=False).tolist())
            if rng.random() < 0.3:
                open_indices.append(hyper)
    for _ in range(int(rng.integers(0, 3))):
        open_indices.append(add([int(rng.integers(n))]))
    network = TensorNetwork(
        Tensor(ixs, data=rng.standard_normal([dims[ix] for ix in ixs])) for ixs in legs
    )
    network.set_output_indices(open_indices)
    return network


def _dense_value(network: TensorNetwork):
    """``(sorted open indices, array)`` of the whole network in one einsum."""
    axis = {ix: k for k, ix in enumerate(network.indices)}
    operands = []
    for tid in network.tensor_ids:
        tensor = network.tensor(tid)
        operands += [tensor.require_data(), [axis[ix] for ix in tensor.indices]]
    out = sorted(network.output_indices())
    return out, np.einsum(*operands, [axis[ix] for ix in out])


def _leaves_below(mutable: _MutableTree, node: int) -> frozenset:
    children = mutable.children[node]
    if children is None:
        return frozenset([node])
    return _leaves_below(mutable, children[0]) | _leaves_below(mutable, children[1])


class TestPathSearchProperties:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000), moves=st.integers(0, 40))
    def test_mask_boundaries_and_tracked_cost_survive_random_rotations(self, seed, moves):
        network = _adversarial_network(seed)
        tree = GreedyOptimizer(temperature=0.5, seed=seed).tree(network)
        mutable = _MutableTree(IndexSpace.of_network(network), tree.ssa_path)
        tracked = mutable.total_cost()
        assert tracked == pytest.approx(tree.total_cost(), rel=1e-9)
        rng = np.random.default_rng(seed)
        for _ in range(moves):
            node = int(rng.integers(tree.num_leaves, tree.root + 1))
            candidates = mutable.rotation_candidates(node)
            if not candidates:
                continue
            outer, inner, keep, lift = candidates[int(rng.integers(len(candidates)))]
            if rng.random() < 0.5:
                keep, lift = lift, keep
            delta, move = mutable.try_rotation(node, outer, inner, keep, lift)
            mutable.apply_rotation(node, outer, inner, keep, lift, move)
            tracked += delta
        emitted = ContractionTree.from_network(network, mutable.emit()[0])
        assert tracked == pytest.approx(emitted.total_cost(), rel=1e-9)
        by_leaves = {emitted.leaves_under(node): node for node in emitted.nodes()}
        space = mutable.space
        for node in range(tree.root + 1):
            boundary = space.bits(mutable.indices[node])
            labels = {space.labels[bit.bit_length() - 1] for bit in boundary}
            assert labels == emitted.node_indices(by_leaves[_leaves_below(mutable, node)])

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_annealer_never_exceeds_the_size_bound(self, seed):
        tree = GreedyOptimizer(seed=seed).tree(_adversarial_network(seed))
        bound = tree.max_intermediate_log2_size()
        result = TreeAnnealer(seed=seed).refine(tree, max_size_log2=bound + 1e-9)
        assert result.tree.max_intermediate_log2_size() <= bound + 2e-9
        assert result.final_log10_cost == pytest.approx(
            math.log10(max(result.tree.total_cost(), 1.0)), rel=1e-9
        )

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_search_trees_contract_to_the_dense_value(self, seed):
        network = _adversarial_network(seed)
        out, expected = _dense_value(network)
        for optimizer in (
            GreedyOptimizer(seed=seed),
            GreedyOptimizer(temperature=0.5, seed=seed),
            PartitionOptimizer(cutoff=3, seed=seed),
            CommunityOptimizer(seed=seed),
        ):
            tree = TreeAnnealer(seed=seed).refine(optimizer.tree(network)).tree
            result = contract_tree(network, tree)
            got = result.require_data().transpose([result.indices.index(ix) for ix in out])
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# The plan walker on adversarial networks
# ---------------------------------------------------------------------------


class TestExecutorProperties:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_sliced=st.integers(min_value=0, max_value=2),
    )
    def test_walker_matches_the_oracle(self, seed, num_sliced):
        """Non-binary dimensions, hyper-indices, open legs, rank-0 roots,
        disconnected components: for every slice assignment the walker
        (stateless and over a shared cache) equals ``TreeExecutor()`` to
        1e-10, and the fold node's array carries the stateless result's bits
        through the tail."""
        network = _adversarial_network(seed)
        tree = GreedyOptimizer(seed=seed).tree(network)
        rng = np.random.default_rng(seed)
        inner = sorted(network.inner_indices())
        picks = rng.choice(len(inner), size=min(num_sliced, len(inner)), replace=False)
        sliced = [inner[i] for i in picks]

        walker = compile_plan(network, tree, frozenset(sliced))
        oracle = TreeExecutor()
        cache, slots = walker.new_cache(), StemSlots()
        walker.warm_cache(network, cache)
        sizes = [range(network.size_of(ix)) for ix in sliced]
        for values in itertools.product(*sizes):
            assignment = dict(zip(sliced, values))
            expected = oracle.execute(network, tree, assignment)
            stateless = walker.execute(network, assignment).require_data()
            cached = walker.execute(network, assignment, cache=cache, slots=slots)
            order = [expected.indices.index(ix) for ix in cached.indices]
            assert np.allclose(
                cached.require_data(),
                expected.require_data().transpose(order),
                rtol=1e-10,
                atol=1e-10,
            )
            # (einsum steps allocate on every path: the same call, the same bits)
            assert np.array_equal(cached.require_data(), stateless)
            contribution = walker.execute_array(network, assignment)
            assert np.array_equal(walker.finish(network, contribution, cache), stateless)


def _hostile_plan(seed: int, num_sliced: int):
    """``(network, plan)``: an adversarial network sliced ``num_sliced`` ways."""
    network = _adversarial_network(seed)
    tree = GreedyOptimizer(seed=seed).tree(network)
    rng = np.random.default_rng(seed)
    inner = sorted(network.inner_indices())
    picks = rng.choice(len(inner), size=min(num_sliced, len(inner)), replace=False)
    return network, compile_plan(network, tree, frozenset(inner[i] for i in picks))


def _hostile_ids(rng, total: int) -> list:
    """Subtask ids with repeats, a reversal, gaps and a plain ascending run."""
    jumps = [int(i) for i in rng.integers(0, total, size=6)]
    return jumps + jumps[::-1] + list(range(0, total, 3)) + list(range(total))


def _decode(network, plan, subtask_id: int) -> dict:
    values = {}
    for ix in reversed(plan.sliced):
        subtask_id, values[ix] = divmod(subtask_id, network.size_of(ix))
    return values


def _assert_resumed_equals_stateless(jobs, ids) -> None:
    """Run ``ids`` round-robin over ``jobs`` — ``(network, plan, cache)``
    triples sharing ONE arena — and compare every call with a stateless
    (fresh-arena) execute of the same assignment, bit for bit."""
    arena = StemSlots()
    for position, subtask_id in enumerate(ids):
        network, plan, cache = jobs[position % len(jobs)]
        total = math.prod(network.size_of(ix) for ix in plan.sliced)
        assignment = _decode(network, plan, subtask_id % total)
        resumed = plan.execute(network, assignment, cache=cache, slots=arena)
        resumed = resumed.require_data().copy()  # the next call reuses the arena
        fresh = plan.execute(network, assignment, cache=cache, slots=StemSlots())
        assert np.array_equal(resumed, fresh.require_data()), (position, assignment)


class TestResumedWalkerProperties:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_sliced=st.integers(min_value=0, max_value=3),
    )
    def test_any_id_sequence_on_one_arena_equals_stateless_executes(self, seed, num_sliced):
        network, plan = _hostile_plan(seed, num_sliced)
        total = math.prod(network.size_of(ix) for ix in plan.sliced)
        ids = _hostile_ids(np.random.default_rng(seed + 1), total)
        _assert_resumed_equals_stateless([(network, plan, plan.new_cache())], ids)

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        other=st.integers(min_value=0, max_value=10_000),
        num_sliced=st.integers(min_value=1, max_value=3),
    )
    def test_two_plans_interleaved_on_one_arena(self, seed, other, num_sliced):
        first, second = _hostile_plan(seed, num_sliced), _hostile_plan(other, 2)
        jobs = [(*first, first[1].new_cache()), (*second, second[1].new_cache())]
        # the same plan over other leaf data, with its own cache, is a third
        # job: the state is keyed by plan *and* cache object
        network, plan = first
        rescaled = network.copy()
        for tid in rescaled.tensor_ids:
            tensor = rescaled.tensor(tid)
            rescaled.replace_tensor(tid, tensor.with_data(tensor.require_data() * 1.5))
        jobs.append((rescaled, plan, plan.new_cache()))
        ids = _hostile_ids(np.random.default_rng(seed + other), 24)
        _assert_resumed_equals_stateless(jobs, ids)

    def test_retained_stem_nodes_leave_their_slot(self):
        """A partial retained on the stem must keep its bytes while later
        subtasks recontract the stem above it: it sits at an arena region
        no other region shares — pinned — or, an einsum output nothing
        stages, in a fresh array of its own.  Such plans exist in the
        hostile sample, with GEMM and with einsum steps, and they resume
        correctly."""
        kinds = set()
        for seed in range(40):
            network, plan = _hostile_plan(seed, 3)
            stem = extract_stem(plan.tree).nodes
            retained = [
                step
                for step in plan.contract_steps
                if step.node in stem and step.node in plan.retained_nodes
            ]
            if not retained:
                continue
            _check_layout(plan)
            pinned = {start for _, _, start, _ in _arena_layout(plan)[1]}
            for step in retained:
                region = step.regions and (step.regions[3] or step.regions[2])
                if region is None:
                    assert step.kind == "einsum"
                else:
                    assert region[0] in pinned
            kinds.update(step.kind for step in retained)
            total = math.prod(network.size_of(ix) for ix in plan.sliced)
            ids = _hostile_ids(np.random.default_rng(seed), total)
            _assert_resumed_equals_stateless([(network, plan, plan.new_cache())], ids)
        assert {"tensordot", "einsum"} <= kinds


def _open_hostile_plans():
    """Every hostile plan of seeds 0-59 x 1-3 sliced indices that opens a
    subtree, as ``(seed, network, plan)``."""
    for seed in range(60):
        for num_sliced in (1, 2, 3):
            network, plan = _hostile_plan(seed, num_sliced)
            if plan.fetches:
                yield seed, network, plan


class TestOpenSubtreeProperties:
    def test_open_plans_resume_like_any_other(self):
        """Open subtrees occur in the hostile sample — rooted on the stem,
        rooted at an einsum step — and such plans resume through hostile
        id sequences, alone or interleaved with another plan on one arena,
        with the bits of a stateless execute; every amplitude is the
        einsum oracle's."""
        oracle = TreeExecutor()
        roots = set()
        jobs = []
        for seed, network, plan in _open_hostile_plans():
            stem = extract_stem(plan.tree).nodes
            kinds = {step.node: step.kind for step in plan.contract_steps}
            roots.update((kinds[f.node], f.node in stem) for f in plan.fetches)
            for f in plan.fetches:
                assert f.node in plan.frontier and f.level and f.takes
            total = math.prod(network.size_of(ix) for ix in plan.sliced)
            ids = _hostile_ids(np.random.default_rng(seed), total)
            jobs.append((network, plan, plan.new_cache()))
            _assert_resumed_equals_stateless(jobs[-1:], ids)
            for subtask_id in range(total):
                assignment = _decode(network, plan, subtask_id)
                expected = oracle.execute(network, plan.tree, assignment)
                stateless = plan.execute(network, assignment)
                order = [expected.indices.index(ix) for ix in stateless.indices]
                assert np.allclose(
                    stateless.require_data(),
                    expected.require_data().transpose(order),
                    rtol=1e-10,
                    atol=1e-10,
                )
        assert {kind for kind, _ in roots} >= {"tensordot", "einsum"}
        assert {on_stem for _, on_stem in roots} == {True, False}
        _assert_resumed_equals_stateless(jobs, _hostile_ids(np.random.default_rng(7), 24))


class TestProducerStagingProperties:
    def test_staged_plans_sweep_like_stateless_executes_and_the_oracle(self):
        """Hostile generator (dims 2/3/4, hyper-indices, open legs, rank-0
        roots, two components): a cached sweep on one arena equals, call by
        call, a stateless ``execute(cache=None)`` on a fresh one bit for bit
        — einsum steps allocate on every path — and the einsum oracle.  The
        sample covers every way an operand arrives staged: an open root on
        the stem, an einsum-produced entry, a leaf; an einsum consumer never
        reads a staged operand (it keeps its sublists, and its producers
        their layouts)."""
        oracle = TreeExecutor()
        seen = set()
        for seed in range(40):
            for num_sliced in (1, 2, 3):
                network, plan = _hostile_plan(seed, num_sliced)
                stem = extract_stem(plan.tree).nodes
                producers = {ls.node: ls for ls in plan.leaf_steps}
                producers.update((s.node, s) for s in plan.contract_steps)
                fetched = {f.node for f in plan.fetches}
                for step in plan.contract_steps:
                    for child, perm in ((step.lhs, step.lhs_perm), (step.rhs, step.rhs_perm)):
                        producer = producers[child]
                        staged = producer.stage is not None
                        assert staged == (
                            step.kind != "einsum" and producer.level < step.level
                        )
                        if step.kind != "einsum":
                            assert staged == (perm is None)
                        if staged:
                            seen.add(
                                "open root on the stem"
                                if child in fetched and child in stem
                                else "leaf"
                                if child < plan.tree.num_leaves
                                else f"{producer.kind} producer"
                            )
                            seen.add(f"{step.kind} consumer")
                cache, arena = plan.new_cache(), StemSlots()
                sizes = [range(network.size_of(ix)) for ix in plan.sliced]
                for values in itertools.product(*sizes):
                    assignment = dict(zip(plan.sliced, values))
                    swept = plan.execute(network, assignment, cache=cache, slots=arena)
                    swept = swept.require_data().copy()  # the next call reuses the arena
                    stateless = plan.execute(network, assignment, slots=StemSlots())
                    assert np.array_equal(swept, stateless.require_data())
                    expected = oracle.execute(network, plan.tree, assignment)
                    order = [expected.indices.index(ix) for ix in stateless.indices]
                    assert np.allclose(
                        stateless.require_data(),
                        expected.require_data().transpose(order),
                        rtol=1e-10,
                        atol=1e-10,
                    )
        assert seen >= {
            "open root on the stem",
            "einsum producer",
            "tensordot producer",
            "leaf",
            "tensordot consumer",
        }


def _exhaustive_sweep_plan(tree, labels):
    """:func:`plan_sweep`'s rule by brute force: thresholds from the largest
    down, every permutation, ceilings from label order with nothing open."""
    reach, carried, _, fixed, deepest = lifetime_module._node_tables(tree, labels)[:5]
    steps_cap, work_cap, held_cap = sweep_prediction(tree, labels)
    candidates = [n for n in tree.internal_nodes() if reach[n] and carried[n]]
    thresholds = sorted({deepest[n] for n in candidates if deepest[n] <= max(fixed)})
    for threshold in [*reversed(thresholds), 0]:
        open_nodes = frozenset(n for n in candidates if deepest[n] <= threshold)
        admitted = []
        for order in itertools.permutations(labels):
            steps, work, held = sweep_prediction(tree, order, open_nodes)
            if steps <= steps_cap and work <= work_cap and held <= held_cap:
                admitted.append((steps, work, held, order))
        if admitted:
            return min(admitted)[3], open_nodes
    raise AssertionError("label order with nothing open is always admitted")


class TestSweepPlannerProperties:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_sliced=st.integers(min_value=0, max_value=5),
    )
    # (about one plan in twenty folds inside; these do, one with a fetch)
    @example(seed=44, num_sliced=2)
    @example(seed=8, num_sliced=4)
    @example(seed=93, num_sliced=5)
    def test_chosen_plan_dominates_label_order_and_is_the_exhaustive_optimum(
        self, seed, num_sliced
    ):
        network = _adversarial_network(seed)
        tree = GreedyOptimizer(seed=seed).tree(network)
        rng = np.random.default_rng(seed)
        inner = sorted(network.inner_indices())
        picks = rng.choice(len(inner), size=min(num_sliced, len(inner)), replace=False)
        labels = tuple(sorted(inner[i] for i in picks))

        order, open_nodes = plan_sweep(tree, labels)
        assert sorted(order) == list(labels)
        assert open_nodes <= set(tree.internal_nodes())
        chosen = sweep_prediction(tree, order, open_nodes)
        today = sweep_prediction(tree, labels)
        assert all(ours <= theirs for ours, theirs in zip(chosen, today))
        assert (order, open_nodes) == _exhaustive_sweep_plan(tree, labels)

        # the compiled plan is that plan, and accounts for itself exactly —
        # but for the tail above its fold node, which runs once per sweep.
        # (With its inner fold off: folding inside reorders and runs the
        # chain once per block, TestInnerFoldProperties.)
        with mock.patch.object(lifetime_module, "INNER_FOLD_PRODUCT", 0.0):
            plan = compile_plan(network, tree, frozenset(labels))
        assert plan.sliced == order
        assert {s.node for s in plan.contract_steps if not s.level} >= open_nodes
        cost = plan.sweep_cost()
        itemsize = np.dtype(plan.dtype).itemsize
        runs = [1]
        for ix in order:
            runs.append(runs[-1] * network.size_of(ix))
        tail = tree.path_to_root(plan.fold_node)[1:]
        repeats = [
            (runs[s.level] - 1, 2.0**s.log2_flops) for s in plan.contract_steps if s.node in tail
        ]
        assert cost.steps + sum(count for count, _ in repeats) == chosen[0]
        assert cost.flops + sum(count * flops for count, flops in repeats) == pytest.approx(
            chosen[1], rel=1e-9
        )
        # (the planner counts step outputs; the executor also holds the
        # leaves a less frequent producer copies into their consumer's layout)
        leaf_copies = sum(
            math.prod(ls.stage[1])
            for ls in plan.leaf_steps
            if ls.stage is not None and ls.stage[0] != tuple(range(len(ls.stage[0])))
        )
        assert cost.cache_bytes + cost.retained_bytes == itemsize * (chosen[2] + leaf_copies)

        # the inner fold's order-free bound never refuses a fold the search
        # would take: pricing every candidate finds no smaller product
        sweep = lifetime_module.plan_folded_sweep(tree, labels)
        with mock.patch.object(lifetime_module, "INNER_FOLD_PRODUCT", math.inf):
            priced = lifetime_module.plan_folded_sweep(tree, labels)
        assert not priced.bound
        if sweep.bound:
            assert sweep.folds[:-1] == () and sweep.product > lifetime_module.INNER_FOLD_PRODUCT
            assert priced.product is None or priced.product >= sweep.product
        elif priced.product is not None and priced.product <= lifetime_module.INNER_FOLD_PRODUCT:
            assert sweep == priced

        # the production plan — inner fold rule on — accounts for itself
        # exactly too: a node runs once per value combination of the
        # positions up to its level, the tail once, an inner fold's flush
        # once per block
        executor = SlicedExecutor(network, tree, labels)
        executor.run()
        plan = executor.plan
        runs = [1]
        for ix in plan.sliced:
            runs.append(runs[-1] * network.size_of(ix))
        tail = tree.path_to_root(plan.fold_node)[1:]
        flush = ()
        if plan.inner_fold is not None:
            path = tree.path_to_root(plan.inner_fold[0])
            flush = path[1 : path.index(plan.fold_node) + 1]
        expected = {
            s.node: 1
            if s.node in tail
            else runs[plan.inner_fold[1]]
            if s.node in flush
            else runs[s.level]
            for s in plan.contract_steps
        }
        counts = executor.stats.node_counts
        assert {node: counts[node] for node in expected} == expected
        assert executor.stats.steps_executed == sum(expected.values()) == plan.sweep_cost().steps


# ---------------------------------------------------------------------------
# Summation at the fold node
# ---------------------------------------------------------------------------

#: Hostile ``(seed, sliced indices)`` whose plans fold below their root.  The
#: generator's networks rarely leave room for a fold buffer under the
#: sweep's resident ceiling; these came out of a scan of seeds 0-2499 and
#: between them cover every shape ``test_folded_sweeps...`` asserts it saw.
#: (817, 3) also folds inside; (2253, 4) came from a scan with four indices.
_FOLDING = ((3, 1), (93, 1), (265, 1), (279, 3), (817, 3), (954, 2), (1630, 3), (2253, 4))


def _folding_case(seed: int, num_sliced: int):
    """``(network, tree, sliced)`` of a folding hostile plan, every other
    leaf made complex (mixed real/complex leaves)."""
    network, plan = _hostile_plan(seed, num_sliced)
    for position, tid in enumerate(network.tensor_ids):
        if position % 2:
            tensor = network.tensor(tid)
            network.replace_tensor(tid, tensor.with_data(tensor.require_data() * (0.6 - 0.8j)))
    return network, plan.tree, list(plan.sliced)


class TestFoldProperties:
    def test_folded_sweeps_are_the_oracle_and_one_bit_pattern_everywhere(self, tmp_path):
        """Summation commutes with the tail, so a run folds where the last
        lifetime closes: the einsum oracle's value to 1e-12, and the same
        bits on serial, threads, process pool, distributed, checkpointed
        and killed-and-resumed runs, explicit and subset ``run(ids)``."""
        seen = set()
        pool = SharedMemoryProcessPoolBackend(max_workers=2)
        distributed = DistributedBackend(num_workers=2)
        try:
            for seed, num_sliced in _FOLDING:
                network, tree, sliced = _folding_case(seed, num_sliced)
                serial = SlicedExecutor(network, tree, sliced, backend=SerialBackend())
                plan = serial.plan
                fold = plan.fold_node
                stack = ((plan.inner_fold,) if plan.inner_fold else ()) + ((fold, 0),)
                assert lifetime_module.plan_folded_sweep(tree, sliced).folds == stack
                tail = tree.path_to_root(fold)[1:]
                assert tail and plan.sweep_cost().fold_bytes
                for step in plan.contract_steps:
                    if step.node in tail:
                        seen.add(f"{step.kind} tail step")
                        for child in (step.lhs, step.rhs):
                            if child != fold and child not in tail:
                                assert child in plan.frontier and child not in plan.dependent_nodes
                                seen.add("leaf" if child < tree.num_leaves else "cached subtree root")
                if plan.out_indices:
                    seen.add("open output legs")
                if plan.fetches:
                    seen.add("fetches below the fold")
                if len({tensor.require_data().dtype for tensor in network.tensors().values()}) > 1:
                    seen.add("mixed real/complex leaves")

                value = serial.run()
                assert serial.stats.steps_executed == plan.sweep_cost().steps
                out, expected = _dense_value(network)
                assert np.allclose(
                    value.transposed(out).require_data(), expected, rtol=1e-12, atol=1e-12
                )
                bits = value.require_data().tobytes()

                def same(result, label):
                    assert result.indices == value.indices, (seed, label)
                    assert result.require_data().tobytes() == bits, (seed, label)

                for label, backend in (
                    ("threads", ThreadPoolBackend(max_workers=2, chunk_size=1)),
                    ("pool", pool),
                    ("distributed", distributed),
                ):
                    same(SlicedExecutor(network, tree, sliced, backend=backend).run(), label)

                total = serial.num_subtasks
                # (a ledger slot is one block: a subtask unless the plan
                # also folds inside, as (817, 3) does)
                slots = len(list(plan.blocks(serial.assignment(i) for i in range(total))))
                policy = FaultPolicy.retrying()
                store = CheckpointStore(tmp_path / f"{seed}-{num_sliced}")
                same(
                    SlicedExecutor(network, tree, sliced, fault_policy=policy).run(resume=store),
                    "checkpointed",
                )
                killed_at = (slots - 1) // 2
                killer = FaultInjector([FaultSpec("kill-coordinator", chunk=killed_at)])
                with pytest.raises(InjectedCoordinatorDeath):
                    SlicedExecutor(
                        network, tree, sliced, fault_policy=policy, fault_injector=killer
                    ).run(resume=store)
                resumed = SlicedExecutor(network, tree, sliced, fault_policy=policy)
                same(resumed.run(resume=store), "resumed")
                assert resumed.stats.resumed_slots == killed_at + 1

                same(SlicedExecutor(network, tree, sliced).run(list(range(total))), "run(ids)")
                ids = list(range(0, total, 2))
                subset = SlicedExecutor(network, tree, sliced).run(ids).require_data()
                threaded = SlicedExecutor(
                    network, tree, sliced, backend=ThreadPoolBackend(max_workers=2, chunk_size=1)
                ).run(ids)
                assert threaded.require_data().tobytes() == subset.tobytes()
        finally:
            pool.close()
            distributed.close()
        assert seen >= {
            "leaf",
            "cached subtree root",
            "tensordot tail step",
            "einsum tail step",
            "open output legs",
            "fetches below the fold",
            "mixed real/complex leaves",
        }

    def test_a_single_subtask_keeps_the_bits_it_had_before_the_fold(self, monkeypatch):
        """``run_subtask(i)`` runs the tail on its own contribution: bit for
        bit the tensor of the same plan folded at its root."""
        for seed, num_sliced in _FOLDING:
            network, tree, sliced = _folding_case(seed, num_sliced)
            folded = SlicedExecutor(network, tree, sliced)
            with monkeypatch.context() as patch:
                patch.setattr(lifetime_module, "_outer_fold", lambda tree, *_: tree.root)
                at_root = SlicedExecutor(network, tree, sliced)
            assert folded.plan.fold_node != tree.root == at_root.plan.fold_node
            for subtask_id in range(folded.num_subtasks):
                ours = folded.run_subtask(subtask_id).tensor
                theirs = at_root.run_subtask(subtask_id).tensor
                assert ours.indices == theirs.indices
                assert ours.require_data().tobytes() == theirs.require_data().tobytes()

    def test_a_sibling_a_sliced_index_reaches_keeps_the_fold_at_the_root(self):
        """Folding past a sibling that changes between subtasks — an open
        root's fetch, a level > 0 partial — would sum away what the tail
        still needs per subtask.  These plans fold at their root although
        the dependent child's output would fit the fold buffer."""
        for seed, num_sliced, sibling in ((61, 1, "fetch"), (7, 2, "partial")):
            network, plan = _hostile_plan(seed, num_sliced)
            tree = plan.tree
            dependent = plan.dependent_nodes
            children = tree.children(tree.root)
            if sibling == "fetch":
                child, other = sorted(children, key=lambda node: node not in dependent)
                assert other not in dependent and other in {f.node for f in plan.fetches}
                candidates = [child]
            else:
                assert all(node in dependent for node in children)
                candidates = [node for node in children if node >= tree.num_leaves]
            room = (
                sweep_prediction(tree, sorted(plan.sliced))[2]
                - sweep_prediction(tree, *plan_sweep(tree, plan.sliced))[2]
            )
            steps = {step.node: step for step in plan.contract_steps}
            assert any(
                node >= tree.num_leaves and math.prod(steps[node].out_shape) <= room
                for node in candidates
            )
            assert plan.fold_node == tree.root and not plan.sweep_cost().fold_bytes


# ---------------------------------------------------------------------------
# Folding inside: blocks
# ---------------------------------------------------------------------------

#: Hostile ``(seed, sliced indices)`` whose plans fold inside (``inner_fold``);
#: between them (a scan of seeds 0-1499): leaf, sliced-leaf, cached, partial
#: and fetched chain siblings, GEMM and einsum flush steps, an einsum inner
#: node, a fold node below the root and open output legs.
_INNER = ((368, 2), (817, 3), (8, 4), (44, 2), (73, 3))


class TestInnerFoldProperties:
    def test_inner_folded_sweeps_are_the_oracle_and_one_bit_pattern_everywhere(
        self, tmp_path, monkeypatch
    ):
        """A block sums the inner node's arrays and runs the chain above once:
        the einsum oracle's value to 1e-12, one bit pattern on serial,
        threads, process pool, distributed, checkpointed and
        killed-and-resumed runs; ``run(ids)`` over hostile id sequences is
        the reference walker's sum; ``run_subtask(i)`` is bitwise the
        fold-free plan's subtask."""
        seen = set()
        pool = SharedMemoryProcessPoolBackend(max_workers=2)
        distributed = DistributedBackend(num_workers=2)
        try:
            for seed, num_sliced in _INNER:
                network, tree, sliced = _folding_case(seed, num_sliced)
                serial = SlicedExecutor(network, tree, sliced, backend=SerialBackend())
                plan = serial.plan
                node, level = plan.inner_fold
                stack = ((node, level), (plan.fold_node, 0))
                assert lifetime_module.plan_folded_sweep(tree, sliced).folds == stack
                path = tree.path_to_root(node)
                chain = path[1 : path.index(plan.fold_node) + 1]
                steps = {step.node: step for step in plan.contract_steps}
                fetched = {fetch.node for fetch in plan.fetches}
                for parent in chain:
                    seen.add(f"{steps[parent].kind} flush step")
                    (sibling,) = set(tree.children(parent)) - set(path)
                    if sibling in fetched:
                        seen.add("fetched sibling")
                    elif sibling < tree.num_leaves:
                        seen.add("leaf sibling")
                    elif sibling in plan.dependent_nodes:
                        seen.add("partial sibling")
                    else:
                        seen.add("cached sibling")
                if steps[node].kind == "einsum":
                    seen.add("einsum inner node")
                if plan.fold_node != tree.root:
                    seen.add("fold below the root")
                if plan.out_indices:
                    seen.add("open output legs")

                total = serial.num_subtasks
                blocks = list(plan.blocks(serial.assignment(i) for i in range(total)))
                assert 1 < len(blocks) < total
                value = serial.run()
                assert serial.stats.steps_executed == plan.sweep_cost().steps
                out, expected = _dense_value(network)
                assert np.allclose(
                    value.transposed(out).require_data(), expected, rtol=1e-12, atol=1e-12
                )
                bits = value.require_data().tobytes()

                def same(result, label):
                    assert result.indices == value.indices, (seed, label)
                    assert result.require_data().tobytes() == bits, (seed, label)

                for label, backend in (
                    ("threads", ThreadPoolBackend(max_workers=2, chunk_size=1)),
                    ("pool", pool),
                    ("distributed", distributed),
                ):
                    same(SlicedExecutor(network, tree, sliced, backend=backend).run(), label)

                policy = FaultPolicy.retrying()
                store = CheckpointStore(tmp_path / f"{seed}-{num_sliced}")
                same(
                    SlicedExecutor(network, tree, sliced, fault_policy=policy).run(resume=store),
                    "checkpointed",
                )
                killed_at = (len(blocks) - 1) // 2
                killer = FaultInjector([FaultSpec("kill-coordinator", chunk=killed_at)])
                with pytest.raises(InjectedCoordinatorDeath):
                    SlicedExecutor(
                        network, tree, sliced, fault_policy=policy, fault_injector=killer
                    ).run(resume=store)
                resumed = SlicedExecutor(network, tree, sliced, fault_policy=policy)
                same(resumed.run(resume=store), "resumed")
                assert resumed.stats.resumed_slots == killed_at + 1

                ids = _hostile_ids(np.random.default_rng(seed), total)
                ours = SlicedExecutor(network, tree, sliced).run(ids)
                oracle = TreeExecutor()
                reference = sum(
                    oracle.execute(network, tree, serial.assignment(i))
                    .transposed(ours.indices)
                    .require_data()
                    for i in ids
                )
                assert np.allclose(ours.require_data(), reference, rtol=1e-12, atol=1e-12)
                threaded = SlicedExecutor(
                    network, tree, sliced, backend=ThreadPoolBackend(max_workers=2, chunk_size=3)
                ).run(ids)
                assert threaded.require_data().tobytes() == ours.require_data().tobytes()

                with monkeypatch.context() as patch:
                    patch.setattr(lifetime_module, "INNER_FOLD_PRODUCT", 0.0)
                    fold_free = compile_plan(network, tree, frozenset(sliced))
                assert fold_free.inner_fold is None
                for subtask_id in range(total):
                    subtask = serial.run_subtask(subtask_id)
                    theirs = fold_free.execute(network, subtask.assignment)
                    assert subtask.tensor.indices == theirs.indices
                    ours = subtask.tensor.require_data()
                    assert ours.tobytes() == theirs.require_data().tobytes()
        finally:
            pool.close()
            distributed.close()
        assert seen >= {
            "tensordot flush step",
            "einsum flush step",
            "leaf sibling",
            "cached sibling",
            "partial sibling",
            "fetched sibling",
            "einsum inner node",
            "fold below the root",
            "open output legs",
        }

    def test_any_id_sequence_on_one_arena_equals_stateless_executes(self):
        """One-subtask blocks resumed on one arena through hostile id
        sequences — repeats included, where nothing below the inner node
        changes and its array from before the last flush is added again —
        return the bits of stateless executes."""
        for seed, num_sliced in (*_INNER, (994, 2)):
            network, tree, sliced = _folding_case(seed, num_sliced)
            plan = compile_plan(network, tree, frozenset(sliced))
            assert plan.inner_fold is not None
            total = math.prod(network.size_of(ix) for ix in plan.sliced)
            ids = _hostile_ids(np.random.default_rng(seed), total)
            _assert_resumed_equals_stateless([(network, plan, plan.new_cache())], ids)

    def test_chunked_runs_never_split_a_block(self):
        """Every chunk holds whole blocks (an explicit ``chunk_size`` rounds
        up to them), so every backend folds the contributions a serial run
        folds: bit for bit, any worker count 1-3 and chunk size 1-5.  One
        resident pool / distributed session per worker count serves every
        example."""
        opened = {}

        def resident(kind, workers):
            if (kind, workers) not in opened:
                if kind == "pool":
                    made = SharedMemoryProcessPoolBackend(max_workers=workers)
                else:
                    made = DistributedBackend(num_workers=workers)
                made.session()
                opened[kind, workers] = made
            return opened[kind, workers]

        @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(
            case=st.sampled_from(_INNER),
            kind=st.sampled_from(["threads", "pool", "distributed"]),
            workers=st.integers(min_value=1, max_value=3),
            chunk_size=st.integers(min_value=1, max_value=5),
        )
        def check(case, kind, workers, chunk_size):
            network, tree, sliced = _folding_case(*case)
            serial = SlicedExecutor(network, tree, sliced, backend=SerialBackend())
            bits = serial.run().require_data().tobytes()
            if kind == "threads":
                backend = ThreadPoolBackend(max_workers=workers)
            else:
                backend = resident(kind, workers)
            backend.chunk_size = chunk_size
            plan = serial.plan
            blocks = list(plan.blocks(serial.assignment(i) for i in range(serial.num_subtasks)))
            chunks = backend._chunks(blocks)
            assert [block for chunk in chunks for _, block in chunk] == blocks
            assert all(sum(len(block) for _, block in chunk[:-1]) < chunk_size for chunk in chunks)
            result = SlicedExecutor(network, tree, sliced, backend=backend).run()
            assert result.require_data().tobytes() == bits

        try:
            check()
        finally:
            for made in opened.values():
                made.close()


# ---------------------------------------------------------------------------
# The arena
# ---------------------------------------------------------------------------

#: Hostile ``(seed, sliced indices)`` whose plans, between them, put every
#: kind of buffer in the arena — operand copies, staged retained partials,
#: staged leaf loads — beside einsum steps (which allocate) and open roots
#: (whose fetches are views), some folding below the root.
_ARENA = ((2, 3), (3, 1), (19, 2), (22, 2), (279, 3))


def _arena_case(seed: int, num_sliced: int, mixed: bool):
    """``(network, plan)`` of a hostile plan, every other leaf made complex
    when ``mixed`` (real intermediates then sit in complex-sized regions)."""
    network, plan = _hostile_plan(seed, num_sliced)
    if mixed:
        for position, tid in enumerate(network.tensor_ids):
            if position % 2:
                tensor = network.tensor(tid)
                network.replace_tensor(tid, tensor.with_data(tensor.require_data() * (0.6 - 0.8j)))
    return network, compile_plan(network, plan.tree, frozenset(plan.sliced))


@contextmanager
def _every_backend():
    """``(label, backend)`` of serial, threads, process pool and distributed,
    each one object whose arenas outlive a run."""
    backends = (
        ("serial", SerialBackend()),
        ("threads", ThreadPoolBackend(max_workers=2, chunk_size=1)),
        ("pool", SharedMemoryProcessPoolBackend(max_workers=2)),
        ("distributed", DistributedBackend(num_workers=2)),
    )
    try:
        yield backends
    finally:
        for _, backend in backends:
            backend.close()


def _allocating_run(network, plan) -> np.ndarray:
    """What a serial run folds, from the stateless walk (no arena): each
    block's contribution a fresh array, summed in assignment order, the
    tail run once."""
    cache, folded = plan.new_cache(), None
    total = math.prod(network.size_of(ix) for ix in plan.sliced)
    for block in plan.blocks(_decode(network, plan, i) for i in range(total)):
        data = np.array(plan.execute_block(network, block, cache), copy=True)
        if folded is None:
            folded = data
        else:
            folded += data
    return plan.finish(network, folded, cache)


class TestArenaProperties:
    def test_the_arena_walk_is_the_allocating_walk_everywhere(self, tmp_path):
        """Writing every copy and output into its compile-time region moves no
        bit: subtask by subtask through hostile id sequences, a resumed walk
        on one arena returns the allocating walk's array; a run folds to the
        allocating walk's sum on serial, threads, process pool, distributed,
        checkpointed and killed-and-resumed runs; and that is the einsum
        oracle's value to 1e-12.  The sample covers mixed real/complex
        leaves, einsum steps, open roots, a retained leaf load and a fold
        below the root."""
        seen = set()
        pool = SharedMemoryProcessPoolBackend(max_workers=2)
        distributed = DistributedBackend(num_workers=2)
        try:
            for position, (seed, num_sliced) in enumerate(_ARENA):
                network, plan = _arena_case(seed, num_sliced, mixed=position % 2 == 0)
                tree = plan.tree
                _check_layout(plan)
                dtypes = {tensor.require_data().dtype for tensor in network.tensors().values()}
                for label, present in (
                    ("mixed real/complex leaves", len(dtypes) > 1),
                    ("einsum steps", any(s.kind == "einsum" and s.level for s in plan.contract_steps)),
                    ("open roots", bool(plan.fetches)),
                    ("a retained leaf load", any(ls.region for ls in plan.leaf_steps)),
                    ("a fold below the root", plan.fold_node != tree.root),
                ):
                    if present:
                        seen.add(label)
                for step in plan.contract_steps:  # einsum outputs are never placed
                    assert step.kind != "einsum" or not (step.regions and step.regions[2])

                cache, arena = plan.new_cache(), StemSlots()
                total = math.prod(network.size_of(ix) for ix in plan.sliced)
                with arena.sweep():
                    for subtask_id in _hostile_ids(np.random.default_rng(seed), total):
                        assignment = _decode(network, plan, subtask_id)
                        ours = plan.execute_array(network, assignment, cache, slots=arena)
                        theirs = plan.execute_array(network, assignment, cache)
                        assert ours.dtype == theirs.dtype, (seed, subtask_id)
                        assert ours.tobytes() == theirs.tobytes(), (seed, subtask_id)

                bits = _allocating_run(network, plan).tobytes()

                def executor(**extra):
                    return SlicedExecutor(network, tree, plan.sliced, **extra)

                serial = executor().run()
                out, expected = _dense_value(network)
                assert np.allclose(
                    serial.transposed(out).require_data(), expected, rtol=1e-12, atol=1e-12
                )
                assert serial.require_data().tobytes() == bits, seed
                for label, backend in (
                    ("threads", ThreadPoolBackend(max_workers=2, chunk_size=1)),
                    ("pool", pool),
                    ("distributed", distributed),
                ):
                    value = executor(backend=backend).run()
                    assert value.require_data().tobytes() == bits, (seed, label)

                policy = FaultPolicy.retrying()
                store = CheckpointStore(tmp_path / f"{seed}-{num_sliced}")
                value = executor(fault_policy=policy).run(resume=store)
                assert value.require_data().tobytes() == bits, (seed, "checkpointed")
                killed_at = (total - 1) // 2
                killer = FaultInjector([FaultSpec("kill-coordinator", chunk=killed_at)])
                with pytest.raises(InjectedCoordinatorDeath):
                    executor(fault_policy=policy, fault_injector=killer).run(resume=store)
                resumed = executor(fault_policy=policy)
                assert resumed.run(resume=store).require_data().tobytes() == bits, (seed, "resumed")
                assert resumed.stats.resumed_slots == killed_at + 1
        finally:
            pool.close()
            distributed.close()
        assert seen >= {
            "mixed real/complex leaves",
            "einsum steps",
            "open roots",
            "a retained leaf load",
            "a fold below the root",
        }

    def test_a_leaf_rebound_to_another_dtype_binds_the_walk_again(self):
        """Leaf data replaced in place by another dtype — the data-only
        mutation a sampler's rebinding makes — keys a new binding: on every
        backend each run is bitwise the stateless walk's, for a complex64
        plan whose staged leaf turns complex128 (wider than the regions the
        layout sized: its steps get buffers of their own) and then real."""
        with _every_backend() as backends:
            for label, backend in backends:
                network, plan = _hostile_plan(22, 3)
                for tid in network.tensor_ids:
                    tensor = network.tensor(tid)
                    network.replace_tensor(
                        tid, tensor.with_data(tensor.require_data().astype(np.complex64))
                    )
                executor = SlicedExecutor(network, plan.tree, plan.sliced, backend=backend)
                assert executor.plan.dtype == np.complex64
                (leaf, *_) = (ls for ls in executor.plan.leaf_steps if ls.region)
                tensor = network.tensor(leaf.tid)
                bindings = []
                for data in (
                    None,
                    tensor.require_data().astype(np.complex128) * (1 + 0.5j),
                    tensor.require_data().real.astype(np.float64),
                ):
                    if data is not None:
                        network.replace_tensor(leaf.tid, tensor.with_data(data))
                    value = executor.run().require_data()
                    bits = _allocating_run(network, executor.plan).tobytes()
                    assert value.tobytes() == bits, (label, None if data is None else data.dtype)
                    if label == "serial":
                        bindings.append(backend._slots._views)
                if label == "serial":  # one binding per operand dtypes, none reused
                    assert len({id(held[2]) for held in bindings}) == 3
                    assert len({held[1] for held in bindings}) == 3

    def test_one_arena_serves_a_plan_an_outgrowing_plan_and_the_first_again(self):
        """One ``StemSlots`` runs plan A, then B, whose arena outgrows A's,
        then A again: every subtask of each sweep — through hostile id
        sequences — is bitwise the stateless execute, so nothing bound over
        the outgrown arena survives; and a backend reused for A, B, A folds
        the stateless walk's bits each time."""
        small, large = _hostile_plan(34, 3), _hostile_plan(41, 3)
        assert large[1].arena_bytes > small[1].arena_bytes
        slots, first = StemSlots(), None
        for network, plan in (small, large, small):
            cache = plan.new_cache()
            total = math.prod(network.size_of(ix) for ix in plan.sliced)
            with slots.sweep():
                for subtask_id in _hostile_ids(np.random.default_rng(total), total):
                    assignment = _decode(network, plan, subtask_id)
                    ours = plan.execute_array(network, assignment, cache, slots=slots)
                    theirs = plan.execute_array(network, assignment, cache)
                    assert ours.tobytes() == theirs.tobytes(), (plan.arena_bytes, subtask_id)
            assert slots._views[0] is plan
            if first is None:
                first = slots._views[2]
        assert slots.allocated_bytes == large[1].arena_bytes  # grown, never shrunk
        assert slots._views[2] is not first
        references = [_allocating_run(*case).tobytes() for case in (small, large, small)]
        with _every_backend() as backends:
            for label, backend in backends:
                for (network, plan), bits in zip((small, large, small), references):
                    executor = SlicedExecutor(network, plan.tree, plan.sliced, backend=backend)
                    assert executor.run().require_data().tobytes() == bits, label

    def test_an_inner_fold_flush_is_the_stateless_block(self):
        """A block's bound walk and flush — the chain over the accumulator
        and the siblings, bound once — return the bits of the same block
        without an arena, block by block on one arena; every backend folds
        the stateless walk's bits."""
        with _every_backend() as backends:
            for seed, num_sliced in _INNER[:3]:
                network, tree, sliced = _folding_case(seed, num_sliced)
                plan = SlicedExecutor(network, tree, sliced).plan
                assert plan.inner_fold is not None
                total = math.prod(network.size_of(ix) for ix in plan.sliced)
                blocks = list(plan.blocks(_decode(network, plan, i) for i in range(total)))
                cache, slots = plan.new_cache(), StemSlots()
                with slots.sweep():
                    for block in (*blocks, *blocks[::-1]):
                        ours = plan.execute_block(network, block, cache, slots=slots)
                        theirs = plan.execute_block(network, block, cache)
                        assert ours.tobytes() == theirs.tobytes(), seed
                bits = _allocating_run(network, plan).tobytes()
                for label, backend in backends:
                    value = SlicedExecutor(network, tree, sliced, backend=backend).run()
                    assert value.require_data().tobytes() == bits, (seed, label)

    def test_einsum_steps_run_bitwise_in_the_bound_walk(self):
        """Hyper-index steps keep their einsum in the bound walk: its output
        goes to ``live`` (or is staged into its region), a GEMM copies or
        reads it in place (a ``(node, shape)`` pair: an arena array is bound
        as itself), and its lifetime ends at its consumer — subtask
        by subtask through hostile ids on one arena, and folded on every
        backend, the stateless walk's bits."""
        seen = set()
        with _every_backend() as backends:
            for seed, num_sliced in ((31, 3), (39, 3)):
                network, plan = _hostile_plan(seed, num_sliced)
                cache, slots = plan.new_cache(), StemSlots()
                total = math.prod(network.size_of(ix) for ix in plan.sliced)
                with slots.sweep():
                    for subtask_id in _hostile_ids(np.random.default_rng(seed), total):
                        assignment = _decode(network, plan, subtask_id)
                        ours = plan.execute_array(network, assignment, cache, slots=slots)
                        theirs = plan.execute_array(network, assignment, cache)
                        assert ours.tobytes() == theirs.tobytes(), (seed, subtask_id)
                for ops, _ in slots._views[2].suffixes:
                    for op in ops:
                        if len(op) == 1:  # (a partial, or the pop that ends a lifetime)
                            seen.add(getattr(op[0], "func", dict.pop).__name__)
                        elif len(op) == 3:
                            reads = [x for x in op[:2] if type(x) is tuple]
                            assert all(len(x) == 2 for x in reads), reads
                            seen.update("read in place" for x in reads)
                bits = _allocating_run(network, plan).tobytes()
                for label, backend in backends:
                    value = SlicedExecutor(network, plan.tree, plan.sliced, backend=backend).run()
                    assert value.require_data().tobytes() == bits, (seed, label)
        assert seen >= {"_einsum", "_copy_live", "pop", "read in place"}
