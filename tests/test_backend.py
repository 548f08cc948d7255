"""Tests of the pluggable execution-backend layer.

Every backend must agree with the reference einsum oracle on the seed
networks, and — because all backends honour the ordered-accumulation
contract — the thread-pool and shared-memory process-pool backends must be
*bit-identical* to the serial backend for every worker count and chunk
size.  The batched-sweep generalization (``batch_indices`` groups) is
checked against enumerated subtask sums with hypothesis.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import amplitude, random_brickwork_circuit
from repro.execution import (
    CorrelatedSampler,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
    TreeExecutor,
    contract_tree,
    resolve_backend,
    validate_execution_args,
)
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _case(num_qubits=6, depth=4, seed=13):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    bits = tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, num_qubits))
    tn = amplitude_network(circ, list(bits))
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree, amplitude(circ, bits)


@pytest.fixture(scope="module")
def case():
    return _case()


@pytest.fixture(scope="module")
def serial_value(case):
    tn, tree, _ = case
    sliced = sorted(tn.inner_indices())[:4]
    return SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()


class TestBackendEquivalence:
    """All backends vs the reference oracle (approx) and vs serial (exact)."""

    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: SerialBackend(),
            lambda: ThreadPoolBackend(max_workers=2),
            lambda: ThreadPoolBackend(max_workers=3, chunk_size=1),
            lambda: SharedMemoryProcessPoolBackend(max_workers=2),
        ],
        ids=["serial", "threads", "threads-chunk1", "process-pool"],
    )
    def test_backends_match_reference_oracle(self, case, make_backend):
        tn, tree, reference = case
        sliced = sorted(tn.inner_indices())[:4]
        oracle = SlicedExecutor(tn, tree, sliced, mode="reference").amplitude()
        assert oracle == pytest.approx(reference, abs=1e-9)
        executor = SlicedExecutor(tn, tree, sliced, backend=make_backend())
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)

    def test_process_pool_bit_identical_to_serial(self, case, serial_value):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=2)
        pooled = SlicedExecutor(tn, tree, sliced, backend=backend).amplitude()
        assert pooled == serial_value  # exact: same values, same sum order

    def test_thread_pool_bit_identical_to_serial(self, case, serial_value):
        # each chunk is one resumed sweep on its thread's arena, wherever
        # the chunk boundaries fall
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        for chunk_size in (None, 1, 3, 7):
            backend = ThreadPoolBackend(max_workers=3, chunk_size=chunk_size)
            threaded = SlicedExecutor(tn, tree, sliced, backend=backend).amplitude()
            assert threaded == serial_value, chunk_size

    @pytest.mark.parametrize(
        "max_workers,chunk_size", [(1, None), (2, 1), (2, 3), (3, 2), (2, 7), (2, None)]
    )
    def test_process_pool_deterministic_across_chunking(
        self, case, serial_value, max_workers, chunk_size
    ):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(
            max_workers=max_workers, chunk_size=chunk_size
        )
        assert SlicedExecutor(tn, tree, sliced, backend=backend).amplitude() == serial_value

    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: SerialBackend(),
            lambda: ThreadPoolBackend(max_workers=2, chunk_size=3),
            lambda: SharedMemoryProcessPoolBackend(max_workers=2, chunk_size=3),
        ],
        ids=["serial", "threads", "process-pool"],
    )
    def test_replaced_dependent_leaf_between_runs_gives_fresh_bits(self, case, make_backend):
        """No partial of the first run may leak into the second: the resume
        state's lifetime is one sweep / one chunk."""
        tn, tree, _ = case
        mutated = tn.copy()
        sliced = sorted(mutated.inner_indices())[:4]
        executor = SlicedExecutor(mutated, tree, sliced, backend=make_backend())
        # the second run starts where the first one ended, so a leaked
        # resume state would skip every level but the last
        last = executor.num_subtasks - 1
        tail = [last - 1, last]
        with executor.session():
            executor.amplitude()
            before = executor.amplitude(tail)
            # the dependent leaf of the lowest level: the one a stale
            # partial would survive longest in
            leaf = min(
                (ls for ls in executor.plan.leaf_steps if ls.level), key=lambda ls: ls.level
            )
            assert leaf.level < len(sliced)
            tensor = mutated.tensor(leaf.tid)
            mutated.replace_tensor(
                leaf.tid, tensor.with_data(tensor.require_data() * (2.0 - 0.5j))
            )
            after = executor.amplitude(tail)
        fresh = SlicedExecutor(mutated, tree, sliced, backend=SerialBackend())
        assert after == fresh.amplitude(tail)  # bitwise
        assert after != before

    def test_process_pool_without_invariant_cache(self, case, serial_value):
        # cache=None ships every leaf buffer instead of the dependent ones
        tn, tree, reference = case
        sliced = sorted(tn.inner_indices())[:4]
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            cache_invariant=False,
            backend=SharedMemoryProcessPoolBackend(max_workers=2),
        )
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)

    def test_process_pool_batched_sweep(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = SlicedExecutor(tn, tree, sliced, batch_indices=sliced[:2]).amplitude()
        pooled = SlicedExecutor(
            tn,
            tree,
            sliced,
            batch_indices=sliced[:2],
            backend=SharedMemoryProcessPoolBackend(max_workers=2),
        ).amplitude()
        assert pooled == serial

    def test_invariant_nodes_still_run_once_with_process_pool(self, case):
        # the cache is warmed in the parent, so workers never recontract
        # slice-invariant subtrees
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(
            tn, tree, sliced, backend=SharedMemoryProcessPoolBackend(max_workers=2)
        )
        executor.run()
        counts = executor.stats.node_counts
        for node in executor.plan.invariant_nodes:
            assert counts.get(node, 0) == 1

    def test_subset_run_through_backend(self, case, serial_value):
        tn, tree, reference = case
        sliced = sorted(tn.inner_indices())[:4]
        executor = SlicedExecutor(
            tn, tree, sliced, backend=SharedMemoryProcessPoolBackend(max_workers=2)
        )
        total = 0.0 + 0.0j
        half = executor.num_subtasks // 2
        total += complex(executor.run(range(half)).require_data())
        total += complex(executor.run(range(half, executor.num_subtasks)).require_data())
        assert total == pytest.approx(reference, abs=1e-9)

    def test_tree_executor_accepts_backend(self, case):
        tn, tree, reference = case
        inline = TreeExecutor().amplitude(tn, tree)
        routed = TreeExecutor(backend=SerialBackend()).amplitude(tn, tree)
        assert routed == inline == pytest.approx(reference, abs=1e-9)
        helper = contract_tree(tn, tree, backend=SerialBackend())
        assert complex(helper.require_data()) == inline

    def test_planner_execute_plan_with_backend(self):
        from repro.pipeline import SimulationPlanner

        circ = random_brickwork_circuit(6, 4, seed=3)
        reference = amplitude(circ, [0] * 6)
        planner = SimulationPlanner(
            target_rank=5, max_trials=4, seed=0, backend=ThreadPoolBackend(max_workers=2)
        )
        plan = planner.plan_circuit(circ, concrete=True)
        assert planner.execute_plan(plan) == pytest.approx(reference, abs=1e-8)


class TestSweepPlannedPlans:
    """The ordered-accumulation and staleness contracts on a plan that opens
    subtrees, retains partials and sweeps in its own order (``open_case``)."""

    @pytest.mark.parametrize("kind", ["threads", "process-pool"])
    def test_bit_identical_to_serial_across_chunk_sizes(self, open_case, kind):
        tn, tree, sliced, reference = open_case
        serial = SlicedExecutor(tn, tree, sliced, backend=SerialBackend())
        value = serial.amplitude()
        assert value == pytest.approx(reference, abs=1e-9)
        assert serial.stats.steps_executed == serial.plan.sweep_cost().steps
        for chunk_size in (1, 3, 7, None):
            if kind == "threads":
                backend = ThreadPoolBackend(max_workers=3, chunk_size=chunk_size)
            else:
                backend = SharedMemoryProcessPoolBackend(max_workers=2, chunk_size=chunk_size)
            pooled = SlicedExecutor(tn, tree, sliced, backend=backend)
            assert pooled.amplitude() == value, chunk_size  # bitwise

    def test_uncached_run_is_bitwise_the_cached_one(self, open_case):
        # no cache: each execute warms one of its own and runs the same steps
        tn, tree, sliced, _ = open_case
        cached = SlicedExecutor(tn, tree, sliced)
        uncached = SlicedExecutor(tn, tree, sliced, cache_invariant=False)
        assert uncached.amplitude() == cached.amplitude()
        assert uncached.stats.steps_executed == uncached.num_subtasks * uncached.plan.num_steps
        assert uncached.stats.cache_hits == 0

    @pytest.mark.parametrize("where", ["dependent", "inside-open-subtree"])
    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: SerialBackend(),
            lambda: ThreadPoolBackend(max_workers=2, chunk_size=3),
            lambda: SharedMemoryProcessPoolBackend(max_workers=2, chunk_size=3),
        ],
        ids=["serial", "threads", "process-pool"],
    )
    def test_replaced_leaf_between_runs_gives_fresh_bits(self, open_case, make_backend, where):
        """Neither a retained partial nor an open cache entry of the first
        run may leak into the second."""
        tn, tree, sliced, _ = open_case
        mutated = tn.copy()
        executor = SlicedExecutor(mutated, tree, sliced, backend=make_backend())
        last = executor.num_subtasks - 1
        tail = [last - 1, last]
        with executor.session():
            executor.amplitude()
            before = executor.amplitude(tail)
            loads = executor.plan.leaf_steps
            if where == "dependent":
                leaf = min((ls for ls in loads if ls.level), key=lambda ls: ls.level)
                assert leaf.level < len(sliced)
            else:  # loaded once, by the warm pass, with its sliced index left on
                leaf = next(
                    ls for ls in loads if not ls.takes and set(ls.source_indices) & set(sliced)
                )
            tensor = mutated.tensor(leaf.tid)
            mutated.replace_tensor(
                leaf.tid, tensor.with_data(tensor.require_data() * (2.0 - 0.5j))
            )
            after = executor.amplitude(tail)
        fresh = SlicedExecutor(mutated, tree, sliced, backend=SerialBackend())
        assert after == fresh.amplitude(tail)  # bitwise
        assert after != before


    @pytest.mark.parametrize("where", ["staged-frontier-leaf", "under-staged-open-root"])
    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: SerialBackend(),
            lambda: ThreadPoolBackend(max_workers=2, chunk_size=3),
            lambda: SharedMemoryProcessPoolBackend(max_workers=2, chunk_size=3),
        ],
        ids=["serial", "threads", "process-pool"],
    )
    def test_replaced_leaf_behind_a_staged_cache_entry_gives_fresh_bits(
        self, open_case, make_backend, where
    ):
        """The cache holds *copies* in their consumer's layout where it held
        views of the network's arrays: a replaced leaf must still re-warm
        them, staleness cannot hide behind a copy."""
        tn, tree, sliced, _ = open_case
        mutated = tn.copy()
        executor = SlicedExecutor(mutated, tree, sliced, backend=make_backend())
        plan = executor.plan
        steps = {step.node: step for step in plan.contract_steps}
        if where == "staged-frontier-leaf":
            leaf = next(
                ls for ls in plan.leaf_steps if ls.node in plan.frontier and ls.stage is not None
            )
            entry = leaf.node
        else:
            entry = next(f.node for f in plan.fetches if steps[f.node].stage is not None)
            under = tree.leaves_under(entry)
            leaf = next(ls for ls in plan.leaf_steps if ls.node in under)
        with executor.session():
            before = executor.amplitude()
            tensor = mutated.tensor(leaf.tid)
            assert not np.shares_memory(executor._cache[entry], tensor.require_data())
            mutated.replace_tensor(
                leaf.tid, tensor.with_data(tensor.require_data() * (2.0 - 0.5j))
            )
            after = executor.amplitude()
        fresh = SlicedExecutor(mutated, tree, sliced, backend=SerialBackend())
        assert after == fresh.amplitude()  # bitwise
        assert after != before


class TestMultiIndexBatching:
    def test_batch_group_matches_reference(self, case):
        tn, tree, reference = case
        sliced = sorted(tn.inner_indices())[:4]
        for width in (1, 2, 3, 4):
            executor = SlicedExecutor(tn, tree, sliced, batch_indices=sliced[:width])
            assert executor.amplitude() == pytest.approx(reference, abs=1e-9), width

    def test_batch_group_sweep_count(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        executor = SlicedExecutor(tn, tree, sliced, batch_indices=sliced[:2])
        group_size = int(np.prod([tn.size_of(ix) for ix in sliced[:2]]))
        assert executor.num_batched_sweeps * group_size == executor.num_subtasks
        executor.run()
        assert executor.stats.executions == executor.num_batched_sweeps

    def test_batch_group_validation(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:2]
        with pytest.raises(ValueError):
            SlicedExecutor(tn, tree, sliced, batch_indices=["nope"])
        with pytest.raises(ValueError):
            SlicedExecutor(tn, tree, sliced, batch_indices=[sliced[0], sliced[0]])

    @SETTINGS
    @given(
        params=st.tuples(
            st.integers(min_value=3, max_value=6),
            st.integers(min_value=2, max_value=4),
            st.integers(min_value=0, max_value=1000),
        ),
        num_sliced=st.integers(min_value=1, max_value=4),
        group_width=st.integers(min_value=1, max_value=4),
    )
    def test_batch_group_matches_enumerated_sums(self, params, num_sliced, group_width):
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
        num_sliced = min(num_sliced, len(inner))
        if num_sliced == 0:
            return
        picks = rng.choice(len(inner), size=num_sliced, replace=False)
        sliced = [inner[i] for i in picks]
        group = sliced[: min(group_width, len(sliced))]
        enumerated = SlicedExecutor(tn, tree, sliced)
        batched = SlicedExecutor(tn, tree, sliced, batch_indices=group)
        # the batched sweep must equal the sum over the enumerated subtasks
        total = sum(
            complex(enumerated.run([sid]).require_data())
            for sid in range(enumerated.num_subtasks)
        )
        assert batched.amplitude() == pytest.approx(total, abs=1e-9)
        assert batched.amplitude() == pytest.approx(amplitude(circ, bits), abs=1e-8)


class TestLazyPlanCompilation:
    def test_pure_batched_run_skips_per_subtask_plan(self, case):
        tn, tree, reference = case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(tn, tree, sliced, batch_indices="auto")
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)
        # a full batched run never needs the enumerated plan or its cache
        assert executor._plan is None
        assert executor._cache is None

    def test_subset_run_compiles_lazily(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(tn, tree, sliced, batch_indices="auto")
        executor.run([0, 1])
        assert executor._plan is not None

    def test_run_subtask_compiles_lazily(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(tn, tree, sliced, batch_indices="auto")
        assert executor._plan is None
        executor.run_subtask(0)
        assert executor._plan is not None

    def test_plan_property_forces_compilation(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(tn, tree, sliced, batch_indices="auto")
        assert executor.plan is not None

    def test_lazy_plan_sees_mutations_before_first_compile(self, case):
        tn, tree, reference = case
        mutated = tn.copy()
        sliced = sorted(mutated.inner_indices())[:2]
        executor = SlicedExecutor(mutated, tree, sliced, batch_indices="auto")
        # permute a leaf before the enumerated plan ever compiles
        tid = mutated.tensor_ids[0]
        tensor = mutated.tensor(tid)
        mutated.replace_tensor(tid, tensor.transposed(tuple(reversed(tensor.indices))))
        total = sum(
            complex(executor.run([sid]).require_data())
            for sid in range(executor.num_subtasks)
        )
        assert total == pytest.approx(reference, abs=1e-9)


class TestValidationSymmetry:
    """SlicedExecutor and CorrelatedSampler reject parallel reference mode
    with the identical error."""

    def _message(self, callable_):
        with pytest.raises(ValueError) as err:
            callable_()
        return str(err.value)

    def test_backend_rejected_identically(self, case):
        tn, tree, _ = case
        circ = random_brickwork_circuit(4, 2, seed=0)
        sliced = sorted(tn.inner_indices())[:1]
        backend = SerialBackend()
        executor_msg = self._message(
            lambda: SlicedExecutor(tn, tree, sliced, mode="reference", backend=backend)
        )
        sampler_msg = self._message(
            lambda: CorrelatedSampler(
                circ, [0], executor_mode="reference", backend=backend
            )
        )
        assert executor_msg == sampler_msg
        tree_msg = self._message(lambda: TreeExecutor(compiled=False, backend=backend))
        assert tree_msg == executor_msg

    def test_unknown_mode_rejected_identically(self, case):
        tn, tree, _ = case
        circ = random_brickwork_circuit(4, 2, seed=0)
        executor_msg = self._message(lambda: SlicedExecutor(tn, tree, (), mode="fast"))
        sampler_msg = self._message(
            lambda: CorrelatedSampler(circ, [0], executor_mode="fast")
        )
        assert executor_msg == sampler_msg

    def test_validate_accepts_compiled_combinations(self):
        validate_execution_args("compiled", backend=SerialBackend())
        validate_execution_args("compiled", backend=None)
        validate_execution_args("reference")
        assert isinstance(resolve_backend(), SerialBackend)

    def test_pool_parameter_validation(self):
        with pytest.raises(ValueError):
            ThreadPoolBackend(max_workers=0)
        with pytest.raises(ValueError):
            SharedMemoryProcessPoolBackend(max_workers=2, chunk_size=0)


class TestAutoBatchPick:
    """``batch_indices="auto"`` must pick deterministically, ties included."""

    def test_auto_tie_break_is_lexicographically_largest(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        # every index in these circuits has size 2, so the pick is decided
        # entirely by the documented tie-break
        sizes = {ix: tn.size_of(ix) for ix in sliced}
        assert len(set(sizes.values())) == 1
        executor = SlicedExecutor(tn, tree, sliced, batch_indices="auto")
        assert executor.batch_indices == (max(sliced),)

    def test_auto_pick_stable_across_constructions_and_orders(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        picks = set()
        for ordering in (sliced, list(reversed(sliced)), sliced[2:] + sliced[:2]):
            executor = SlicedExecutor(tn, tree, ordering, batch_indices="auto")
            picks.add(executor.batch_indices)
        assert len(picks) == 1

    def test_auto_prefers_strictly_larger_index(self):
        # a hand-built triangle network with genuinely distinct index
        # sizes: the size key must dominate the lexicographic tie-break
        # (index "a" sorts last, but "j" is the largest)
        from repro.tensornet import Tensor, TensorNetwork

        rng = np.random.default_rng(5)
        sizes = {"j": 4, "k": 3, "a": 2}
        tn = TensorNetwork()
        tn.add_tensor(Tensor(("j", "k"), data=rng.normal(size=(4, 3)), sizes=sizes))
        tn.add_tensor(Tensor(("k", "a"), data=rng.normal(size=(3, 2)), sizes=sizes))
        tn.add_tensor(Tensor(("a", "j"), data=rng.normal(size=(2, 4)), sizes=sizes))
        tree = GreedyOptimizer(seed=1).tree(tn)
        executor = SlicedExecutor(tn, tree, {"j", "k", "a"}, batch_indices="auto")
        assert executor.batch_indices == ("j",)


class TestSampler:
    def test_sampler_batches_agree_across_backends(self):
        circ = random_brickwork_circuit(6, 4, seed=21)
        base = (1, 0, 0, 1, 0, 1)
        kwargs = dict(open_qubits=(1, 4), target_rank=4, max_trials=4, seed=2)
        serial = CorrelatedSampler(circ, **kwargs).compute_batch(base)
        pooled = CorrelatedSampler(
            circ, backend=SharedMemoryProcessPoolBackend(max_workers=2), **kwargs
        ).compute_batch(base)
        np.testing.assert_array_equal(serial.amplitudes, pooled.amplitudes)
