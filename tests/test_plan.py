"""Equivalence tests of the compiled contraction plans.

The compiled, cached and pooled executors must all agree — bit for
close — with the reference einsum walker (and, transitively, with the dense
state-vector simulator) for any network, tree and slicing set.  These tests
check that exhaustively on small circuits and with hypothesis over random
ones, including the two structural edge cases: the empty slicing set
(everything slice-invariant) and a slicing set touching every leaf (nothing
slice-invariant).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import amplitude, random_brickwork_circuit
from repro.core import slice_dependent_nodes
from repro.execution import (
    PlanError,
    PlanStats,
    SlicedExecutor,
    ThreadPoolBackend,
    TreeExecutor,
    compile_plan,
    contract_tree,
)
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _case(num_qubits=6, depth=4, seed=13, bits=None):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    if bits is None:
        bits = tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, num_qubits))
    tn = amplitude_network(circ, list(bits))
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree, amplitude(circ, bits)


@pytest.fixture(scope="module")
def case():
    return _case()


def _leaf_cover_slicing(tn, tree):
    """A slicing set of inner indices touching every leaf (greedy cover)."""
    inner = sorted(tn.inner_indices())
    uncovered = set(range(tree.num_leaves))
    cover = []
    while uncovered and inner:
        best = max(
            inner,
            key=lambda ix: len(
                {tree.leaf_of_tid(t) for t in tn.index_owners(ix)} & uncovered
            ),
        )
        covered = {tree.leaf_of_tid(t) for t in tn.index_owners(best)} & uncovered
        if not covered:
            break
        cover.append(best)
        inner.remove(best)
        uncovered -= covered
    return cover, uncovered


class TestCompiledPlanEquivalence:
    def test_all_modes_match_reference_and_statevector(self, case):
        tn, tree, reference = case
        sliced = sorted(tn.inner_indices())[:3]
        ref = SlicedExecutor(tn, tree, sliced, mode="reference").amplitude()
        assert ref == pytest.approx(reference, abs=1e-9)
        for kwargs in (
            dict(),
            dict(backend=ThreadPoolBackend(max_workers=2)),
        ):
            executor = SlicedExecutor(tn, tree, sliced, **kwargs)
            assert executor.amplitude() == pytest.approx(reference, abs=1e-9), kwargs

    def test_exhaustive_small_slicing_sets(self, case):
        tn, tree, reference = case
        inner = sorted(tn.inner_indices())[:4]
        for r in range(len(inner) + 1):
            for combo in itertools.combinations(inner, r):
                executor = SlicedExecutor(tn, tree, combo)
                assert executor.amplitude() == pytest.approx(reference, abs=1e-9), combo

    def test_empty_slicing_set(self, case):
        tn, tree, reference = case
        executor = SlicedExecutor(tn, tree, ())
        assert executor.num_subtasks == 1
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)
        # with nothing sliced, everything is invariant and cached whole
        assert executor.plan.dependent_nodes == frozenset()
        assert executor.plan.frontier == frozenset({tree.root})

    def test_all_leaves_sliced(self, case):
        tn, tree, reference = case
        cover, uncovered = _leaf_cover_slicing(tn, tree)
        assert not uncovered, "workload must admit a leaf-covering slicing set"
        executor = SlicedExecutor(tn, tree, cover)
        # nothing is slice-invariant: the cache can hold nothing
        assert executor.plan.invariant_nodes == frozenset()
        assert executor.plan.frontier == frozenset()
        assert executor.amplitude() == pytest.approx(reference, abs=1e-8)

    def test_tree_executor_compiled_matches_reference(self, case):
        tn, tree, reference = case
        compiled = complex(contract_tree(tn, tree).require_data())
        walker = TreeExecutor().amplitude(tn, tree)
        assert compiled == pytest.approx(walker, abs=1e-12)
        assert compiled == pytest.approx(reference, abs=1e-9)

    def test_fixed_indices_match_reference(self, case):
        tn, tree, _ = case
        fixed = {ix: 1 for ix in sorted(tn.inner_indices())[:2]}
        compiled = contract_tree(tn, tree, fixed)
        walker = TreeExecutor().execute(tn, tree, fixed)
        np.testing.assert_allclose(
            compiled.require_data(),
            walker.transposed(compiled.indices).require_data(),
            atol=1e-12,
        )

    @SETTINGS
    @given(
        params=st.tuples(
            st.integers(min_value=3, max_value=6),
            st.integers(min_value=2, max_value=4),
            st.integers(min_value=0, max_value=1000),
        ),
        num_sliced=st.integers(min_value=0, max_value=3),
    )
    def test_random_networks_and_slicings(self, params, num_sliced):
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
        picks = rng.choice(len(inner), size=min(num_sliced, len(inner)), replace=False)
        sliced = [inner[i] for i in picks]
        reference = SlicedExecutor(tn, tree, sliced, mode="reference").amplitude()
        executor = SlicedExecutor(tn, tree, sliced)
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)
        assert reference == pytest.approx(amplitude(circ, bits), abs=1e-8)

    def test_plan_pickles(self, case):
        """Plans ship to pool workers unchanged (pickle round-trip)."""
        import pickle

        from repro.execution import StemSlots

        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        plan = compile_plan(tn, tree, frozenset(sliced))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.contract_steps == plan.contract_steps
        assignment = {ix: 0 for ix in sliced}
        expected = plan.execute(tn, assignment, slots=StemSlots()).require_data()
        actual = clone.execute(tn, assignment, slots=StemSlots()).require_data()
        assert np.array_equal(expected, actual)

    def test_identity_flags_match_permutations(self, case):
        tn, tree, _ = case
        plan = compile_plan(tn, tree, frozenset(sorted(tn.inner_indices())[:4]))
        for step in plan.contract_steps:
            for perm, identity in (
                (step.lhs_perm, step.lhs_identity),
                (step.rhs_perm, step.rhs_identity),
            ):
                if perm is not None:
                    assert identity == (perm == tuple(range(len(perm))))


class TestInvariantCaching:
    def test_invariant_steps_run_exactly_once(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(tn, tree, sliced)
        executor.run()
        counts = executor.stats.node_counts
        for node in executor.plan.invariant_nodes:
            assert counts.get(node, 0) == 1, f"invariant node {node} ran {counts.get(node, 0)}x"
        for node in executor.plan.dependent_nodes:
            if node >= tree.num_leaves:
                assert 1 <= counts.get(node, 0) <= executor.num_subtasks
        # the fold node is reached by every sliced index: once per subtask;
        # the tail above it runs once per run
        fold = executor.plan.fold_node
        assert counts[fold] == executor.num_subtasks
        for node in tree.path_to_root(fold)[1:]:
            assert counts[node] == 1

    def test_stateless_calls_are_bitwise_a_cached_subtask(self, case, open_case):
        """No cache is no mode: a stateless ``plan.execute`` and
        ``contract_tree`` warm a private cache and run the one cached path,
        so they are bitwise the subtask an executor runs over its shared
        cache — on a plan with open nodes, one that folds below its root
        and an unsliced one."""
        small = _bench_plan(4, 5, 10, 10)
        workloads = (
            open_case[:3],
            (small.network, small.tree, small.slicing.sliced),
            (case[0], case[1], ()),
        )
        seen = set()
        for network, tree, sliced in workloads:
            executor = SlicedExecutor(network, tree, sliced)
            plan = executor.plan
            if plan.fetches:
                seen.add("open nodes")
            if plan.fold_node != tree.root:
                seen.add("fold below the root")
            if not plan.sliced:
                seen.add("unsliced")
            total = executor.num_subtasks
            for subtask_id in sorted({0, total // 2, total - 1}):
                ours = executor.run_subtask(subtask_id)
                for theirs in (
                    plan.execute(network, ours.assignment),
                    contract_tree(network, tree, ours.assignment),
                ):
                    assert theirs.indices == ours.tensor.indices
                    assert theirs.require_data().tobytes() == ours.tensor.require_data().tobytes()
            assert executor.stats.cache_hits > 0
        assert seen == {"open nodes", "fold below the root", "unsliced"}

    def test_dependent_set_matches_lifetimes(self, case):
        tn, tree, _ = case
        sliced = frozenset(sorted(tn.inner_indices())[:3])
        dependent = slice_dependent_nodes(tree, sliced)
        # a node is dependent iff one of its leaves carries a sliced edge
        for node in tree.nodes():
            touched = any(
                sliced & set(tn.tensor(tree.leaf_tids[leaf]).indices)
                for leaf in tree.leaves_under(node)
            )
            assert (node in dependent) == touched

    def test_stats_merge(self):
        a = PlanStats(node_counts={1: 2}, cache_hits=3, executions=1, slot_writes=2)
        b = PlanStats(node_counts={1: 1, 2: 5}, cache_hits=1, executions=4, slot_writes=1)
        a.merge(b)
        assert a.node_counts == {1: 3, 2: 5}
        assert a.cache_hits == 4 and a.executions == 5
        assert a.slot_writes == 3
        assert a.steps_executed == 8


class TestStemSlots:
    def test_slot_execution_bit_identical_to_allocating_path(self, case):
        from repro.execution import StemSlots

        tn, tree, _ = case
        sliced = frozenset(sorted(tn.inner_indices())[:2])
        plan = compile_plan(tn, tree, sliced)
        slots = StemSlots()
        assignment = {ix: 0 for ix in sliced}
        stats = PlanStats()
        # (the arena serves cached subtasks; a stateless call allocates)
        with_slots = plan.execute(
            tn, assignment, cache=plan.new_cache(), stats=stats, slots=slots
        )
        without = plan.execute(tn, assignment)
        assert stats.slot_writes > 0
        np.testing.assert_array_equal(
            with_slots.require_data(), without.require_data()
        )

    def test_slot_buffers_are_reused_across_executions(self, case):
        from repro.execution import StemSlots

        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:2]
        plan = compile_plan(tn, tree, frozenset(sliced))
        cache, slots = plan.new_cache(), StemSlots()
        for value in range(2):
            plan.execute(tn, {ix: value for ix in sliced}, cache=cache, slots=slots)
        first = slots.allocated_bytes
        for value in range(2):
            plan.execute(tn, {ix: value for ix in sliced}, cache=cache, slots=slots)
        # grown once, to the plan's arena, then stable
        assert slots.allocated_bytes == first == plan.arena_bytes > 0

    def test_growing_a_slot_never_holds_two_generations(self):
        """The outgrown arena is released before its successor is
        allocated — side by side they were the peak of ``large_subtasks``'
        first subtask (2.1 MB old + 4.2 MB new at node 187)."""
        import tracemalloc
        from types import SimpleNamespace

        from repro.execution import StemSlots

        def plan_of(nbytes):
            # (what StemSlots.views asks of a plan)
            return SimpleNamespace(
                arena_bytes=nbytes, arena_views=lambda buffer, dtypes: [buffer]
            )

        slots = StemSlots()
        small, large = 1 << 21, 1 << 22
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            slots.views(plan_of(small), ())
            tracemalloc.reset_peak()
            assert slots.views(plan_of(large), ())[0].nbytes == large
            # everything the object holds now, and never the outgrown
            # generation (2 MiB) on top of it
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= slots.allocated_bytes + 4096
        finally:
            tracemalloc.stop()
        assert slots.allocated_bytes == large

    def test_serial_backend_run_uses_slots(self, case):
        tn, tree, reference = case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(tn, tree, sliced)
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)
        assert executor.stats.slot_writes > 0

    def test_cached_sweeps_hold_two_buffers_and_retain_nothing(self):
        """The walker's standing footprint is the invariant cache and the
        arena: the retained partials sit at their pinned regions, so beyond
        the two a sweep holds only the arena's views, its live table and
        the resume state — no scratch, no free list, no fresh buffer — and
        in steady state every sweep leaves exactly the bytes the previous
        one did.  Once the sweep's scope closes the resume state is gone
        too; the arena and its views stay for the next sweep."""
        import gc
        import tracemalloc

        from repro.execution import StemSlots
        from repro.execution import plan as plan_module

        tn, tree, _ = _case(num_qubits=8, depth=5)
        inner = sorted(tn.inner_indices())
        # (a slicing whose plan opens a subtree *and* retains partials)
        plan = compile_plan(tn, tree, frozenset(inner[i] for i in (0, 4, 11)))
        sliced = plan.sliced
        assert plan.fetches and plan.arena_bytes  # a real cache, a real arena
        retained_bytes = plan.sweep_cost().retained_bytes
        assert retained_bytes > 0  # the sweep really keeps partials
        cache, slots = plan.new_cache(), StemSlots()
        sizes = [range(tn.size_of(ix)) for ix in sliced]
        assignments = [dict(zip(sliced, v)) for v in itertools.product(*sizes)]

        engine = tracemalloc.Filter(True, plan_module.__file__)

        def alive():
            """Bytes allocated by plan.py that are still alive."""
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces([engine])
            return sum(stat.size for stat in snapshot.statistics("filename"))

        def sweep():
            for assignment in assignments:
                plan.execute(tn, assignment, cache=cache, slots=slots)
            return alive()

        tracemalloc.start()
        try:
            with slots.sweep():
                # the first sweep creates the state and the second settles
                # the capacity of its live table (a dict); from then on
                # every sweep must leave exactly the same bytes
                sweep()
                sweep()
                third = sweep()
                fourth = sweep()
            closed = alive()
        finally:
            tracemalloc.stop()
        assert slots.allocated_bytes == plan.arena_bytes
        assert fourth == third
        cache_bytes = sum(buffer.nbytes for buffer in cache.values())
        # beyond cache and arena: the views, the live table, the values
        # list and the state tuple (a few KiB) — never a retained partial
        overhead = third - slots.allocated_bytes - cache_bytes
        assert 0 < overhead <= 8192
        # nothing of the resume state survives the sweep's scope
        assert slots._resume is None
        assert slots.allocated_bytes + cache_bytes < closed < third

    def test_the_bound_walk_takes_the_bytes_the_arena_views_did(self):
        """The ``small_subtasks`` bench plan's walk bound to its arena —
        every view, op and suffix list — holds at most the per-node view
        tuples it replaced (7,184 bytes) plus 4 KiB, and the arena serves it
        as it is: a second request binds nothing."""
        import gc
        import tracemalloc

        from repro.execution import StemSlots

        planned = _bench_plan(4, 5, 10, 10)
        network = planned.network
        plan = compile_plan(network, planned.tree, frozenset(planned.slicing.sliced))
        cache, slots = plan.new_cache(), StemSlots()
        plan.warm_cache(network, cache)
        dtypes = plan._operand_dtypes(network, cache)
        slots.views(plan, dtypes)
        slots._views = None  # (the arena stays: only the binding is measured)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            binding = slots.views(plan, dtypes)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 0 < held <= 7_184 + 4_096
        assert slots.views(plan, dtypes) is binding
        assert slots.allocated_bytes == plan.arena_bytes

    def test_nothing_of_the_resume_state_survives_run_subtasks(self, case):
        tn, tree, _ = _case(num_qubits=8, depth=5)
        inner = sorted(tn.inner_indices())
        executor = SlicedExecutor(tn, tree, [inner[i] for i in (0, 4, 11)])
        executor.run()
        assert executor.plan.sweep_cost().retained_bytes > 0
        assert executor.backend._slots._resume is None


def _bench_plan(rows, cols, cycles, target_rank):
    """A ``bench/`` execution workload's plan (workload seed 3, planner
    seed 1, 8 trials): its counts are the ones README and CHANGES quote."""
    from repro.circuits import grid_circuit
    from repro.pipeline import SimulationPlanner

    bits = [int(b) for b in np.random.default_rng(3).integers(0, 2, rows * cols)]
    circuit = grid_circuit(rows, cols, cycles=cycles, seed=3)
    planner = SimulationPlanner(target_rank=target_rank, max_trials=8, seed=1)
    return planner.plan_circuit(circuit, bits, concrete=True)


def _assert_counts_match_levels(executor, plan):
    """After one full serial run: node ``n`` ran ``prod_{i <= level(n)} w(e_i)``
    times — once if it is on the tail above the fold node, once per block
    if it is on an inner fold's flush — and the total is the plan's own
    prediction."""
    runs = [1]
    for ix in plan.sliced:
        runs.append(runs[-1] * executor.network.size_of(ix))
    counts = executor.stats.node_counts
    tail = plan.tree.path_to_root(plan.fold_node)[1:]
    flush, blocks = [], None
    if plan.inner_fold is not None:
        path = plan.tree.path_to_root(plan.inner_fold[0])
        flush, blocks = path[1 : path.index(plan.fold_node) + 1], runs[plan.inner_fold[1]]
    for step in plan.contract_steps:
        expected = 1 if step.node in tail else blocks if step.node in flush else runs[step.level]
        assert counts[step.node] == expected, step.node
    assert plan.invariant_nodes == {s.node for s in plan.contract_steps if not s.level}
    assert executor.stats.steps_executed == plan.sweep_cost().steps


class TestLevelResume:
    """A changed sliced index recontracts only the nodes its lifetime reaches."""

    @pytest.mark.parametrize("batch", [None, "auto", 2])
    def test_full_sweep_runs_exactly_the_predicted_steps(self, batch):
        """``batch_indices=`` selects nothing: every variant sweeps the plan."""
        tn, tree, reference = _case(num_qubits=8, depth=5)
        sliced = sorted(tn.inner_indices())[:4]
        batch_indices = tuple(sliced[1:3]) if batch == 2 else batch
        executor = SlicedExecutor(tn, tree, sliced, batch_indices=batch_indices)
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)
        _assert_counts_match_levels(executor, executor.plan)

    @pytest.mark.parametrize(
        "shape,steps",
        [((4, 5, 10, 10), 5_227), ((5, 7, 9, 18), 463)],
        ids=["small_subtasks", "large_subtasks"],
    )
    def test_bench_plans_run_the_published_step_counts(self, shape, steps):
        planned = _bench_plan(*shape)
        executor = SlicedExecutor(planned.network, planned.tree, planned.slicing.sliced)
        executor.run()
        _assert_counts_match_levels(executor, executor.plan)
        assert executor.stats.steps_executed == steps

    def test_sweep_cost_is_additive_and_counts_the_warm_pass(self, case):
        from repro.execution import SweepCost

        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:3]
        plan = compile_plan(tn, tree, frozenset(sliced))
        cost = plan.sweep_cost()
        assert cost + SweepCost() == cost
        assert (cost + cost).steps == 2 * cost.steps
        invariant_leaves = tree.num_leaves - sum(1 for ls in plan.leaf_steps if ls.level)
        assert cost.leaf_loads >= invariant_leaves + sum(1 for ls in plan.leaf_steps if ls.level)
        # nothing sliced: one pass over everything, nothing retained
        whole = compile_plan(tn, tree).sweep_cost()
        assert (whole.steps, whole.leaf_loads, whole.retained_bytes) == (
            tree.num_leaves - 1,
            tree.num_leaves,
            0,
        )
        assert whole.flops == pytest.approx(tree.contraction_cost(), rel=1e-12)

    def test_retained_children_are_the_lower_level_ones(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        plan = compile_plan(tn, tree, frozenset(sliced))
        level = {ls.node: ls.level for ls in plan.leaf_steps}
        level.update((s.node, s.level) for s in plan.contract_steps)
        # (a consumer sees an open root at the level of its fetch)
        level.update((f.node, f.level) for f in plan.fetches)
        for step in plan.contract_steps:
            assert step.level == max(level[step.lhs], level[step.rhs])
            for child in (step.lhs, step.rhs):
                assert (child in step.free_cached) == (level[child] == step.level)
        # the level-0 children of dependent steps, and the open roots
        # they fetch from, are the frontier
        assert plan.frontier == {f.node for f in plan.fetches} | {
            child
            for step in plan.contract_steps
            if step.level
            for child in (step.lhs, step.rhs)
            if not level[child]
        }

    def test_one_debug_line_per_compile_and_none_per_subtask(self, case, caplog):
        import logging

        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:3]
        with caplog.at_level(logging.DEBUG, logger="repro.execution.plan"):
            executor = SlicedExecutor(tn, tree, sliced)
            executor.run()
        records = [r for r in caplog.records if r.name == "repro.execution.plan"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        cost = executor.plan.sweep_cost()
        assert f"runs {cost.steps} steps /" in message
        assert f"/ {cost.cache_bytes + cost.retained_bytes} resident bytes" in message
        assert f"sweep order {list(executor.sliced)}" in message
        assert f"/ {cost.retained_bytes} bytes" in message


def _sampling_batch():
    """``(network, tree, sliced)`` of one ``correlated_sampling`` batch of
    ``bench/`` (workload seed 3, planner seed 1, 8 open qubits)."""
    from repro.circuits import grid_circuit
    from repro.core import LifetimeSliceFinder
    from repro.execution import CorrelatedSampler

    circuit = grid_circuit(4, 5, cycles=8, seed=3)
    sampler = CorrelatedSampler(
        circuit, tuple(range(0, 16, 2)), target_rank=11, max_trials=8, seed=1
    )
    base = [int(b) for b in np.random.default_rng(3).integers(0, 2, 20)]
    network, _, _ = sampler.build_network(base)
    tree = sampler.plan_tree(network)
    inner = network.inner_indices()
    found = LifetimeSliceFinder(11).find(tree).sliced
    return network, tree, frozenset(ix for ix in found if ix in inner)


def _owner(array):
    while array.base is not None:
        array = array.base
    return array


class TestSweepPlanner:
    """``compile_plan`` plans the sweep: order and open subtrees, chosen
    together under the label-order plan's own work and byte ceilings."""

    #: bench plan -> chosen order, open nodes, (steps, work, resident
    #: elements) chosen and in label order with nothing open
    PINNED = {
        (4, 5, 10, 10): (
            ("q17_9", "q18_7", "q7_10", "q8_8", "q2_11", "q5_6", "q8_7", "q2_7", "q18_6"),
            24,
            (6_760, 21_547_680, 3_456),
            (12_248, 28_528_160, 3_728),
        ),
        (5, 7, 9, 18): (
            ("q30_7", "q31_5", "q3_9", "q30_9"),
            9,
            (478, 3_215_820_608, 685_472),
            (535, 3_223_429_760, 690_248),
        ),
    }

    @pytest.mark.parametrize("shape", list(PINNED), ids=["small_subtasks", "large_subtasks"])
    def test_chosen_sweep_is_the_same_under_any_hash_seed(self, shape):
        """CI runs this under two fixed ``PYTHONHASHSEED``s: the chooser
        sorts labels and never iterates a set or dict of them."""
        from repro.core.lifetime import plan_sweep, sweep_prediction

        planned = _bench_plan(*shape)
        tree, sliced = planned.tree, planned.slicing.sliced
        order, count, chosen, today = self.PINNED[shape]
        found, open_nodes = plan_sweep(tree, sliced)
        assert plan_sweep(tree, reversed(sorted(sliced))) == (found, open_nodes)
        assert (found, len(open_nodes)) == (order, count)
        assert sweep_prediction(tree, found, open_nodes) == chosen
        assert sweep_prediction(tree, sorted(sliced)) == today
        assert all(ours <= theirs for ours, theirs in zip(chosen, today))

    def test_planner_working_set_stays_out_of_the_peak(self):
        """``bench/`` traces executor construction: the chooser must stay
        far below the sweep's own peak (~200 KB on this plan) and leave no
        cyclic garbage behind."""
        import gc
        import tracemalloc

        from repro.core.lifetime import plan_sweep

        planned = _bench_plan(4, 5, 10, 10)
        tree, sliced = planned.tree, planned.slicing.sliced
        plan_sweep(tree, sliced)  # the tree's lazy lookup tables exist
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = plan_sweep(tree, sliced)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert gc.collect() == 0
        assert peak - before < 64 * 1024
        # what survives is the answer (and freed tuples parked on CPython's
        # free lists, which tracemalloc still counts)
        assert after - before < 24 * 1024
        assert len(result[0]) == 9

    def test_beyond_the_search_limit_the_slowest_positions_keep_label_order(self, monkeypatch):
        from repro.core import lifetime

        tn, tree, _ = _case(num_qubits=8, depth=5)
        inner = sorted(tn.inner_indices())
        labels = [inner[i] for i in (1, 2, 7, 10, 14)]
        exact, _ = lifetime.plan_sweep(tree, labels)
        monkeypatch.setattr(lifetime, "MAX_SEARCH_INDICES", 3)
        order, open_nodes = lifetime.plan_sweep(tree, labels)
        assert order[:2] == tuple(labels[:2]) and sorted(order) == labels
        assert order != exact  # (the exact search moves a slow position here)
        chosen = lifetime.sweep_prediction(tree, order, open_nodes)
        today = lifetime.sweep_prediction(tree, labels)
        assert all(ours <= theirs for ours, theirs in zip(chosen, today))
        executor = SlicedExecutor(tn, tree, labels)
        assert executor.sliced == order
        assert executor.amplitude() == pytest.approx(
            SlicedExecutor(tn, tree, labels, mode="reference").amplitude(), abs=1e-9
        )

    def test_a_threshold_that_cannot_match_label_order_is_skipped(self):
        """Opening subtrees spends resident bytes, which can rule out every
        order that runs as few steps as label order does; such a threshold
        is not admitted.  Here all of them fail and nothing helps, so the
        plan compiles to exactly label order with nothing open — until its
        inner fold reorders it (``INNER_FOLD_PRODUCT`` at 0 switches that
        off)."""
        from unittest import mock

        from repro.core import lifetime
        from repro.core.lifetime import plan_sweep, sweep_prediction

        tn, tree, _ = _case(num_qubits=10, depth=8)
        inner = sorted(tn.inner_indices())
        labels = tuple(inner[::5][:9])
        assert plan_sweep(tree, labels) == (labels, frozenset())
        assert sweep_prediction(tree, labels) == (4_030, 580_096, 464)
        with mock.patch.object(lifetime, "INNER_FOLD_PRODUCT", 0.0):
            plan = compile_plan(tn, tree, frozenset(labels))
        assert plan.sliced == labels and not plan.fetches and plan.inner_fold is None
        # with the inner fold rule on, this plan folds inside (product 0.374):
        # node 27 over the last two positions, still nothing open
        folded = compile_plan(tn, tree, frozenset(labels))
        assert folded.inner_fold == (27, 7) and not folded.fetches
        assert folded.sliced == (
            "q6_4", "q7_14", "q2_14", "q5_6", "q3_13", "q4_11", "q4_8", "q0_4", "q1_5"
        )
        executor = SlicedExecutor(tn, tree, labels)
        executor.run()
        _assert_counts_match_levels(executor, executor.plan)
        assert executor.stats.steps_executed == folded.sweep_cost().steps == 2_196

    def test_sampling_batch_runs_the_predicted_steps(self):
        network, tree, sliced = _sampling_batch()
        executor = SlicedExecutor(network, tree, sliced)
        executor.run()
        _assert_counts_match_levels(executor, executor.plan)
        # (4,306 without the inner fold; label order: 5,701)
        assert executor.stats.steps_executed == 2_690
        assert executor.plan.fetches

    @pytest.mark.parametrize(
        "shape", [(4, 5, 10, 10), (5, 7, 9, 18)], ids=["small_subtasks", "large_subtasks"]
    )
    def test_measured_bytes_stay_within_the_prediction(self, shape):
        """What the cache and the live table really own during a resumed
        sweep — network arrays and the arena aside, which holds the retained
        partials, leaves staged at their producer included — never exceeds
        ``cache_bytes + retained_bytes`` (+ 4 KiB); a fetch owns nothing, it
        is a view of its cache entry."""
        from repro.execution import StemSlots

        planned = _bench_plan(*shape)
        network = planned.network
        plan = compile_plan(network, planned.tree, frozenset(planned.slicing.sliced))
        cost = plan.sweep_cost()
        cache, slots = plan.new_cache(), StemSlots()
        sizes = [range(network.size_of(ix)) for ix in plan.sliced]
        foreign = {id(_owner(network.tensor(t).data)) for t in plan.tree.leaf_tids}
        worst = 0
        with slots.sweep():
            for values in itertools.product(*sizes):
                plan.execute(network, dict(zip(plan.sliced, values)), cache=cache, slots=slots)
                live = slots._resume[3]
                arena = {id(slots._arena)}
                owners = {
                    id(_owner(array)): _owner(array)
                    for node, array in (*cache.items(), *live.items())
                    if node != plan.tree.root
                }
                worst = max(
                    worst,
                    sum(o.nbytes for key, o in owners.items() if key not in foreign | arena),
                )
                for fetch in plan.fetches:  # (one freed at its parent is gone)
                    if fetch.node in live:
                        assert np.shares_memory(live[fetch.node], cache[fetch.node])
        # (what the cache owns: its step outputs and the staged copies of leaves)
        assert sum(b.nbytes for b in cache.values() if id(_owner(b)) not in foreign) == (
            cost.cache_bytes
        )
        assert 0 < worst <= cost.cache_bytes + cost.retained_bytes + 4096


class TestProducerStaging:
    """When a GEMM operand's producer runs less often than its consumer,
    the permutation moves to the producer: frontier entries, open roots,
    retained partials and leaf loads arrive in their consumer's layout."""

    #: bench plan -> (per-use stagings, producer stagings, per-use layout)
    #: of one full sweep, the warm pass included
    PINNED = {
        (4, 5, 10, 10): (4_051, 192, 10_454),
        (5, 7, 9, 18): (473, 47, 926),
    }

    @pytest.mark.parametrize("shape", list(PINNED), ids=["small_subtasks", "large_subtasks"])
    def test_stagings_per_sweep_are_the_predicted_ones(self, shape, monkeypatch, caplog):
        """A spy on ``np.ascontiguousarray`` and ``np.copyto`` — every
        staging ends in one, a copy into the arena in the other — counts
        what a serial sweep really stages; CI runs this under two fixed
        ``PYTHONHASHSEED``s (the rewrite never iterates a set)."""
        import logging

        planned = _bench_plan(*shape)
        with caplog.at_level(logging.DEBUG, logger="repro.execution.plan"):
            executor = SlicedExecutor(planned.network, planned.tree, planned.slicing.sliced)
        plan = executor.plan
        cost = plan.sweep_cost()
        per_use, at_producers, per_use_layout = self.PINNED[shape]
        assert (cost.stagings, cost.producer_stagings) == (per_use, at_producers)
        assert per_use_layout == 2 * cost.steps  # every step of these plans is a GEMM
        assert (
            f"stagings per sweep: {per_use + at_producers} (per-use layout: {per_use_layout})"
            in caplog.records[-1].getMessage()
        )

        calls = []
        for name in ("ascontiguousarray", "copyto"):
            real = getattr(np, name)
            monkeypatch.setattr(
                np, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k)
            )
        executor.run()
        monkeypatch.undo()
        assert len(calls) == per_use + at_producers
        assert executor.stats.steps_executed == cost.steps

        # where the operands come from: a staged one has a producer of a
        # lower level that carries the permutation, and only those do
        producers = {ls.node: ls for ls in plan.leaf_steps}
        producers.update((s.node, s) for s in plan.contract_steps)
        for step in plan.contract_steps:
            assert step.shapes is not None
            for child, perm in ((step.lhs, step.lhs_perm), (step.rhs, step.rhs_perm)):
                producer = producers[child]
                assert (perm is None) == (producer.stage is not None)
                assert (perm is None) == (producer.level < step.level)
        for fetch in plan.fetches:  # the taken axes lead the staged entry
            assert fetch.stage is None
            assert [axis for _, axis in fetch.takes] == list(range(len(fetch.takes)))

    def test_a_step_that_stages_its_output_releases_its_operands_first(self):
        """Mutation check: staging a retained partial while the step's own
        staged operands are still bound holds four buffers where three
        suffice."""
        import tracemalloc

        from repro.execution import ContractStep
        from repro.execution.plan import _walk_steps

        side = 256
        square = (side, side)
        step = ContractStep(
            node=2,
            lhs=0,
            rhs=1,
            kind="tensordot",
            out_indices=("i", "k"),
            out_shape=square,
            level=1,
            free_cached=(0, 1),
            log2_flops=24.0,
            lhs_perm=(1, 0),
            rhs_perm=(1, 0),
            shapes=(square, square, square),
            stage=((1, 0), square),
        )
        rng = np.random.default_rng(5)
        live = {0: rng.normal(size=square), 1: rng.normal(size=square)}
        expected = (live[0].T @ live[1].T).T
        buffer = live[0].nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _walk_steps([step], live, None, True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert list(live) == [2] and live[2].flags.c_contiguous
        np.testing.assert_allclose(live[2], expected)
        # the operands arrived untraced; traced at once are the two staged
        # copies and the output — never those three *and* the staged output
        assert peak <= 3 * buffer + 4096


class TestFold:
    """Contributions are summed where the last lifetime closes: below the
    slice-invariant tail, whose steps then run once per run."""

    @pytest.mark.parametrize(
        "shape,fold,tail,fold_bytes",
        [((4, 5, 10, 10), 118, [119, 120, 122], 2_048), ((5, 7, 9, 18), 201, [202], 256)],
        ids=["small_subtasks", "large_subtasks"],
    )
    def test_bench_plans_fold_below_their_invariant_tail(
        self, shape, fold, tail, fold_bytes, caplog
    ):
        """CI runs this under two fixed ``PYTHONHASHSEED``s: the fold walks
        the tree, never a set of labels."""
        import logging

        from repro.core.lifetime import plan_folded_sweep, sweep_prediction

        planned = _bench_plan(*shape)
        tree = planned.tree
        with caplog.at_level(logging.DEBUG, logger="repro.execution.plan"):
            plan = compile_plan(planned.network, tree, frozenset(planned.slicing.sliced))
        assert plan.fold_node == fold and tree.path_to_root(fold)[1:] == tail
        assert plan_folded_sweep(tree, planned.slicing.sliced).folds == ((fold, 0),)
        cost = plan.sweep_cost()
        assert cost.fold_bytes == fold_bytes == 16 * math.prod(plan.contribution_shape)
        # every tail step's other operand is a cache entry no sliced index reaches
        for step in plan.contract_steps:
            if step.node in tail:
                (other,) = {step.lhs, step.rhs} - {fold, *tail}
                assert other in plan.frontier and other not in plan.dependent_nodes
                assert other not in {f.node for f in plan.fetches}
        # the accumulator fits under the ceiling the sweep plan was chosen under
        ceiling = 16 * sweep_prediction(tree, sorted(plan.sliced))[2]
        assert cost.cache_bytes + cost.retained_bytes + cost.fold_bytes <= ceiling
        assert (
            f"folds at node {fold} ({fold_bytes} bytes); tail of {len(tail)} steps "
            "runs once per run" in caplog.records[-1].getMessage()
        )

    def test_sampling_batch_folds_at_its_root(self):
        """Its root's other operand is a level-5 partial: nothing to fold past
        at the root, so the batch folds inside (TestInnerFold) and its only
        accumulator is the block's."""
        from repro.core.lifetime import plan_folded_sweep

        network, tree, sliced = _sampling_batch()
        plan = compile_plan(network, tree, sliced)
        assert plan.fold_node == tree.root
        assert tree.root == 102 and plan_folded_sweep(tree, sliced).folds == ((87, 5), (102, 0))
        assert plan.sweep_cost().fold_bytes == 131_072
        assert plan.contribution_shape == tuple(plan.out_sizes[ix] for ix in plan.out_indices)


class TestInnerFold:
    """A block — consecutive subtasks that agree on the first ``M`` positions —
    sums the inner node's arrays, and the chain above runs once per block."""

    def test_sampling_batch_sums_node_87_over_its_three_fastest_positions(self, caplog):
        """CI runs this under two fixed ``PYTHONHASHSEED``s."""
        import logging

        network, tree, sliced = _sampling_batch()
        with caplog.at_level(logging.DEBUG, logger="repro.execution.plan"):
            executor = SlicedExecutor(network, tree, sliced)
        plan = executor.plan
        assert plan.inner_fold == (87, 5)
        assert tree.path_to_root(87)[1:] == [88, 89, 90, 91, 92, 102]
        blocks = list(plan.blocks(executor.assignment(i) for i in range(executor.num_subtasks)))
        assert [len(block) for block in blocks] == [8] * 32
        cost = plan.sweep_cost()
        assert cost.fold_bytes == 131_072 == 16 * 8_192
        assert cost.flops <= 1.0e8  # 3.48e8 without the fold
        executor.run()
        _assert_counts_match_levels(executor, plan)
        assert executor.stats.steps_executed == cost.steps == 2_690
        message = caplog.records[-1].getMessage()
        assert "; inner fold at node 87 over positions > 5 (131072 bytes, product 0.452); " in (
            message
        )
        assert message.endswith(f"; arena of {plan.arena_bytes} bytes")

    @pytest.mark.parametrize(
        "shape,order,open_count,fold,arena_bytes,steps",
        [
            (
                (4, 5, 10, 10),
                TestSweepPlanner.PINNED[(4, 5, 10, 10)][0],
                24,
                118,
                65_792,
                5_227,
            ),
            (
                (5, 7, 9, 18),
                TestSweepPlanner.PINNED[(5, 7, 9, 18)][0],
                9,
                201,
                14_811_136,
                463,
            ),
        ],
        ids=["small_subtasks", "large_subtasks"],
    )
    def test_bench_plans_do_not_fold_inside(
        self, shape, order, open_count, fold, arena_bytes, steps, caplog
    ):
        """The same plan as without the rule: order, open set, fold node,
        arena and steps; small's candidate is refused on its product."""
        import logging

        from repro.core.lifetime import plan_folded_sweep, plan_sweep

        planned = _bench_plan(*shape)
        tree, sliced = planned.tree, planned.slicing.sliced
        sweep = plan_folded_sweep(tree, sliced)
        assert sweep.folds[:-1] == ()
        # (small's one candidate is refused on its order-free bound, 0.725 —
        # the search would price it at 1.93; large has none)
        assert sweep.product is None or sweep.bound and 0.72 < sweep.product < 0.73
        assert (sweep.order, sweep.open_nodes) == plan_sweep(tree, sliced)
        assert (sweep.order, len(sweep.open_nodes)) == (order, open_count)
        with caplog.at_level(logging.DEBUG, logger="repro.execution.plan"):
            executor = SlicedExecutor(planned.network, tree, sliced)
        plan = executor.plan
        assert (plan.sliced, plan.fold_node, plan.arena_bytes) == (order, fold, arena_bytes)
        assert plan.inner_fold is None
        executor.run()
        assert executor.stats.steps_executed == plan.sweep_cost().steps == steps
        refused = "no inner fold" if sweep.product is None else "no inner fold (product >= 0.725)"
        assert refused in caplog.records[-1].getMessage()

    @pytest.mark.parametrize("seed", [13, 29, 47])
    def test_golden_plans_do_not_fold_inside(self, seed):
        from test_array_module import GOLDEN
        from test_array_module import _case as golden_case

        from repro.core.lifetime import plan_folded_sweep

        tn, tree, sliced = golden_case(seed)
        sweep = plan_folded_sweep(tree, sliced)
        # (refused on its order-free bound, the product itself: no search)
        assert sweep.folds[:-1] == () and sweep.bound and sweep.product > 0.5
        assert sweep.folds == ((8, 0),)
        executor = SlicedExecutor(tn, tree, sliced)
        plan = executor.plan
        assert plan.sliced == ("q1_3", "q1_4", "q2_5") and not plan.fetches
        assert (plan.fold_node, plan.arena_bytes) == (8, 352)
        assert executor.amplitude() == GOLDEN[seed]
        assert executor.stats.steps_executed == plan.sweep_cost().steps == 25

    def test_pricing_searches_a_bounded_number_of_candidates(self, monkeypatch):
        """One subset search per priced candidate, at most
        ``INNER_FOLD_SUBSETS >> free positions`` of them (at least one): the
        sampling batch prices its three, and under a budget of one its
        ranking still puts node 87 first — the same plan."""
        from repro.core import lifetime

        _, tree, sliced = _sampling_batch()
        searches = []
        real = lifetime._Search._order

        def counted(search, entries, caps):
            searches.append(caps)
            return real(search, entries, caps)

        monkeypatch.setattr(lifetime._Search, "_order", counted)
        lifetime.plan_sweep(tree, sliced)
        thresholds = len(searches)
        full = lifetime.plan_folded_sweep(tree, sliced)
        assert len(searches) - 2 * thresholds == 3
        monkeypatch.setattr(lifetime, "INNER_FOLD_SUBSETS", 2**len(sliced))
        del searches[:]
        assert lifetime.plan_folded_sweep(tree, sliced) == full
        assert full.folds[0] == (87, 5)
        assert len(searches) - thresholds == 1

    def test_a_block_is_one_subtask_to_execute_and_run_subtask(self):
        """``execute()`` and ``run_subtask`` are one-subtask blocks: bitwise
        the subtask of the fold-free plan, which the compiler builds from the
        same order when the rule is switched off."""
        from unittest import mock

        from repro.core import lifetime

        network, tree, sliced = _sampling_batch()
        folded = SlicedExecutor(network, tree, sliced)
        with mock.patch.object(lifetime, "INNER_FOLD_PRODUCT", 0.0):
            plain = compile_plan(network, tree, sliced)
        assert plain.inner_fold is None and plain.sliced != folded.sliced
        for subtask in (0, 77, 255):
            assignment = folded.assignment(subtask)
            ours = folded.run_subtask(subtask).tensor.require_data()
            theirs = plain.execute(network, assignment).require_data()
            assert ours.tobytes() == theirs.tobytes()


def _arena_layout(plan):
    """``(regions, retained)`` of ``plan``'s arena, from a walk of the cached
    subtask written independently of the compiler's: every region as
    ``[birth, death, start, stop]`` — the ticks it is written and last read,
    its byte range at the plan dtype's itemsize — and the regions of the
    partials a resume keeps.  A tick is one operand copy (it reads the
    source, writes the copy), one GEMM (reads both operands, writes the
    output) or one staging (reads the output, writes the staged copy)."""
    itemsize = np.dtype(plan.dtype or np.complex128).itemsize
    loads, steps = plan._resume_suffixes[0]
    spans = {}  # what -> [birth, death, start, stop]
    holds = {}  # node -> what its live array sits in
    tick = 0

    def write(what, region):
        spans[what] = [tick, tick, region[0], region[0] + region[1] * itemsize]

    def read(what):
        if what is not None:
            spans[what][1] = tick

    def walk(step, frees):
        nonlocal tick
        lhs_copy, rhs_copy, out, staged = step.regions or (None,) * 4
        operands = ((step.lhs, lhs_copy, "lhs"), (step.rhs, rhs_copy, "rhs"))
        for child, region, side in operands:
            tick += 1
            if region is not None:
                read(holds.get(child))
                write((step.node, side), region)
        tick += 1
        for child, region, side in operands:
            read((step.node, side) if region is not None else holds.get(child))
        for child in frees:
            holds.pop(child, None)
        if out is not None:  # (an einsum output is a fresh array)
            write((step.node, "out"), out)
            holds[step.node] = (step.node, "out")
        if staged is not None:
            tick += 1
            read(holds.get(step.node))
            write((step.node, "stage"), staged)
            holds[step.node] = (step.node, "stage")

    for ls in loads:
        if ls.region is not None:
            write(ls.node, ls.region)
            holds[ls.node] = ls.node
    for step in steps:
        walk(step, step.free_cached)
    walked = None
    if plan.inner_fold is not None:
        # the subtask's array is added into the accumulator, which the
        # flush reads in its place (the flush frees only its own chain);
        # a resumed subtask that changes nothing below it adds it again
        node = plan.inner_fold[0]
        walked = holds.pop(node, None)
        tick += 1
        _, _, flush, accumulator = plan._folds[0]
        write("accumulator", accumulator)
        holds[node] = "accumulator"
        chain = {step.node for step in flush}
        for step in flush:
            walk(step, [c for c in (step.lhs, step.rhs) if c in chain])
    if walked is not None:
        spans[walked][1] = tick + 1
    retained = []
    for node, what in holds.items():
        spans[what][1] = tick + 1  # the fold node's array lives to the end
        if node != plan.fold_node:
            retained.append(spans[what])
    return list(spans.values()), retained


def _check_layout(plan):
    """The layout checker: regions whose lifetimes meet never share a byte,
    retained partials share none with any region, everything sits inside
    the arena at 64-byte offsets.  Returns the liveness lower bound."""
    regions, retained = _arena_layout(plan)
    for a, b in itertools.combinations(regions, 2):
        if a[0] <= b[1] and b[0] <= a[1]:
            assert a[3] <= b[2] or b[3] <= a[2], (a, b)
    for pinned in retained:
        for other in regions:
            if other is not pinned:
                assert pinned[3] <= other[2] or other[3] <= pinned[2], (pinned, other)
    assert all(start % 64 == 0 and stop <= plan.arena_bytes for _, _, start, stop in regions)
    ticks = range(max((r[1] for r in regions), default=0) + 1)
    return max(
        (sum(r[3] - r[2] for r in regions if r in retained or r[0] <= t <= r[1]) for t in ticks),
        default=0,
    )


class TestArena:
    """Every buffer a cached subtask writes has a compile-time offset in one
    arena laid out from the plan's lifetimes."""

    def test_every_layout_keeps_meeting_lifetimes_apart(self, case):
        """Hostile-shaped and circuit plans, sliced any which way, opening
        subtrees or not: the layout checker passes, and the plan
        states its arena before it runs."""
        tn, tree, _ = case
        inner = sorted(tn.inner_indices())
        plans = [compile_plan(tn, tree, frozenset(inner[:k])) for k in range(5)]
        big, big_tree, _ = _case(num_qubits=8, depth=5)
        big_inner = sorted(big.inner_indices())
        for picks in ((0, 4, 11), (1, 2, 7, 14), (3, 5, 9)):
            plans.append(compile_plan(big, big_tree, frozenset(big_inner[i] for i in picks)))
        network, sample_tree, sliced = _sampling_batch()
        plans.append(compile_plan(network, sample_tree, sliced))
        pinned = 0
        for plan in plans:
            _check_layout(plan)
            pinned += bool(_arena_layout(plan)[1])
            # (nothing sliced: nothing dependent, nothing to lay out)
            assert (plan.arena_bytes > 0) == bool(plan.dependent_nodes)
        assert pinned >= 3  # (retained partials are in the sample)

    @pytest.mark.parametrize(
        "shape,arena_bytes",
        [((4, 5, 10, 10), 65_792), ((5, 7, 9, 18), 14_811_136)],
        ids=["small_subtasks", "large_subtasks"],
    )
    def test_bench_plans_pin_their_arena_bytes(self, shape, arena_bytes, caplog):
        """CI runs this under two fixed ``PYTHONHASHSEED``s: the layout sorts
        lists of regions, never a set.  Both arenas are exactly their
        liveness lower bound — no fragmentation.  (``small_subtasks`` peaks
        where a 16 KiB output is copied with two more alive beside the
        pinned partials: 3 x 16,384 + 16,640.)"""
        import logging

        planned = _bench_plan(*shape)
        with caplog.at_level(logging.DEBUG, logger="repro.execution.plan"):
            plan = compile_plan(planned.network, planned.tree, frozenset(planned.slicing.sliced))
        assert plan.arena_bytes == arena_bytes == _check_layout(plan)
        assert caplog.records[-1].getMessage().endswith(f"; arena of {arena_bytes} bytes")

    def test_a_resumed_sweep_peaks_at_cache_arena_and_fold(self):
        """The lifetime memory bound, true by construction: a serial sweep of
        the ``large_subtasks`` plan — cache warm, arena and accumulator
        allocated inside the traced window — peaks at the three numbers the
        plan states before it runs, plus 64 KiB of Python objects."""
        import gc
        import tracemalloc

        from repro.execution import StemSlots

        planned = _bench_plan(5, 7, 9, 18)
        network = planned.network
        plan = compile_plan(network, planned.tree, frozenset(planned.slicing.sliced))
        cost = plan.sweep_cost()
        sizes = [range(network.size_of(ix)) for ix in plan.sliced]
        cache, slots = plan.new_cache(), StemSlots()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            folded = None
            with slots.sweep():
                for values in itertools.product(*sizes):
                    data = plan.execute_array(
                        network, dict(zip(plan.sliced, values)), cache, slots=slots
                    )
                    if folded is None:
                        folded = data.copy()
                    else:
                        folded += data
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert slots.allocated_bytes == plan.arena_bytes
        assert peak <= cost.cache_bytes + plan.arena_bytes + cost.fold_bytes + 64 * 1024
        value = plan.finish(network, folded, cache)
        reference = SlicedExecutor(network, planned.tree, planned.slicing.sliced).run()
        assert value.tobytes() == reference.transposed(plan.out_indices).require_data().tobytes()


class TestHyperIndexKernel:
    def test_kept_shared_hyper_index_uses_einsum_kernel(self):
        # three tensors share index "h" (a copy-tensor style hyper edge):
        # the first pair contraction must keep "h" on the output, which the
        # tensordot kernel cannot express
        from repro.tensornet import Tensor, TensorNetwork
        from repro.tensornet.contraction_tree import ContractionTree

        rng = np.random.default_rng(0)
        t0 = Tensor(("h", "a"), data=rng.normal(size=(2, 3)))
        t1 = Tensor(("h", "b"), data=rng.normal(size=(2, 4)))
        t2 = Tensor(("h",), data=rng.normal(size=(2,)))
        tn = TensorNetwork([t0, t1, t2])
        tree = ContractionTree.from_network(tn, [(0, 1), (3, 2)])
        plan = compile_plan(tn, tree)
        assert any(s.kind == "einsum" for s in plan._steps)
        result = plan.execute(tn)
        expected = np.einsum("ha,hb,h->ab", t0.data, t1.data, t2.data)
        np.testing.assert_allclose(
            result.transposed(("a", "b")).require_data(), expected, atol=1e-12
        )


class TestPlanValidation:
    def test_batch_index_must_be_sliced(self, case):
        tn, tree, _ = case
        with pytest.raises(ValueError):
            SlicedExecutor(tn, tree, sorted(tn.inner_indices())[:1], batch_indices=("nope",))

    def test_assignment_keys_validated(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:2]
        plan = compile_plan(tn, tree, frozenset(sliced))
        with pytest.raises(PlanError):
            plan.execute(tn, {sliced[0]: 0})

    def test_assignment_values_bounds_checked(self, case):
        # the reference walker raises for out-of-range slice values; the
        # compiled path must too (np.take would silently wrap -1)
        tn, tree, _ = case
        ix = sorted(tn.inner_indices())[0]
        for bad in (-1, tn.size_of(ix)):
            with pytest.raises(ValueError):
                TreeExecutor().execute(tn, tree, {ix: bad})
            with pytest.raises(PlanError):
                contract_tree(tn, tree, {ix: bad})

    def test_reference_mode_rejects_batching(self, case):
        tn, tree, _ = case
        with pytest.raises(ValueError):
            SlicedExecutor(
                tn, tree, sorted(tn.inner_indices())[:1], mode="reference", batch_indices="auto"
            )

    def test_reference_mode_rejects_thread_pool(self, case):
        tn, tree, _ = case
        with pytest.raises(ValueError):
            SlicedExecutor(
                tn,
                tree,
                sorted(tn.inner_indices())[:1],
                mode="reference",
                backend=ThreadPoolBackend(max_workers=2),
            )

    def test_sliced_executor_drops_cache_on_data_only_mutation(self, case):
        tn, tree, _ = case
        mutated = tn.copy()
        sliced = sorted(mutated.inner_indices())[:2]
        executor = SlicedExecutor(mutated, tree, sliced)
        executor.run()  # warms the invariant cache
        # replace a slice-invariant leaf's data, keeping the index order
        invariant_leaves = [
            leaf for leaf in range(tree.num_leaves) if leaf not in executor.plan.dependent_nodes
        ]
        assert invariant_leaves, "workload must have a slice-invariant leaf"
        tid = tree.leaf_tids[invariant_leaves[0]]
        tensor = mutated.tensor(tid)
        mutated.replace_tensor(tid, tensor.with_data(tensor.require_data() * 2.0))
        oracle = SlicedExecutor(mutated, tree, sliced, mode="reference").amplitude()
        assert executor.amplitude() == pytest.approx(oracle, abs=1e-9)

    def test_sliced_executor_recompiles_after_mutation(self, case):
        tn, tree, reference = case
        mutated = tn.copy()
        sliced = sorted(mutated.inner_indices())[:2]
        executor = SlicedExecutor(mutated, tree, sliced)
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)
        tid = mutated.tensor_ids[0]
        tensor = mutated.tensor(tid)
        mutated.replace_tensor(tid, tensor.transposed(tuple(reversed(tensor.indices))))
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)

    def test_run_subtask_result_does_not_alias_cache(self, case):
        tn, tree, reference = case
        executor = SlicedExecutor(tn, tree, ())  # nothing sliced: root is cached
        first = executor.run_subtask(0)
        first.tensor.require_data()[...] = 1234.5  # caller scribbles on it
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)

    def test_stale_leaf_structure_rejected(self, case):
        tn, tree, _ = case
        mutated = tn.copy()
        tid = mutated.tensor_ids[0]
        tensor = mutated.tensor(tid)
        renamed = tensor.reindexed({tensor.indices[0]: "__stale__"})
        mutated.replace_tensor(tid, renamed)
        with pytest.raises(PlanError):
            compile_plan(mutated, tree)

    def test_unknown_mode_rejected(self, case):
        tn, tree, _ = case
        with pytest.raises(ValueError):
            SlicedExecutor(tn, tree, (), mode="fast")

    def test_sampler_rejects_pool_in_reference_mode(self):
        from repro.circuits import random_brickwork_circuit
        from repro.execution import CorrelatedSampler

        circ = random_brickwork_circuit(4, 2, seed=0)
        with pytest.raises(ValueError):
            CorrelatedSampler(
                circ,
                [0],
                executor_mode="reference",
                backend=ThreadPoolBackend(max_workers=4),
            )
