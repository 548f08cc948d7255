"""Tests of the pluggable execution-backend layer.

Every backend must agree with the reference einsum oracle on the seed
networks, and — because all backends honour the ordered-accumulation
contract — the thread-pool and shared-memory process-pool backends must be
*bit-identical* to the serial backend for every worker count and chunk
size.  ``batch_indices=``, which the benchmark's batched variant still
passes, selects nothing: a run with a group is bitwise the plain run, and
hypothesis checks it against enumerated subtask sums.
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

    def test_process_pool_batched_sweep(self, case):
        tn, tree, _ = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = SlicedExecutor(tn, tree, sliced).amplitude()
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
        plain = SlicedExecutor(tn, tree, sliced).amplitude()
        assert plain == pytest.approx(reference, abs=1e-9)
        for width in (1, 2, 3, 4):
            executor = SlicedExecutor(tn, tree, sliced, batch_indices=sliced[:width])
            assert executor.amplitude() == plain, width  # bitwise

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
        # a run with a batch group is the plain sweep: the enumerated sum
        total = sum(
            complex(enumerated.run([sid]).require_data())
            for sid in range(enumerated.num_subtasks)
        )
        assert batched.amplitude() == pytest.approx(total, abs=1e-9)
        assert batched.amplitude() == pytest.approx(amplitude(circ, bits), abs=1e-8)


class TestDefaultChunks:
    """Default chunks: ~4 per worker, a multiple of the worker count, at
    most one block apart, positions in order; explicit sizes keep their cut."""

    @staticmethod
    def _sizes(backend, blocks):
        chunks = backend._chunks(blocks)
        assert [p for chunk in chunks for p, _ in chunk] == list(range(len(blocks)))
        return [sum(len(block) for _, block in chunk) for chunk in chunks]

    @pytest.mark.parametrize(
        "blocks, workers, sizes",
        [
            (14, 2, [2, 2, 2, 1, 2, 2, 2, 1]),  # each worker's 4 chunks hold 7
            (512, 2, [64] * 8),  # the small bench's pool cut, unchanged
            (16, 2, [2] * 8),  # the large bench's distributed cut, unchanged
            (5, 2, [2, 1, 1, 1]),
            (3, 4, [1, 1, 1]),
        ],
    )
    def test_even_cuts(self, blocks, workers, sizes):
        backend = ThreadPoolBackend(max_workers=workers)
        assert self._sizes(backend, [[{}] for _ in range(blocks)]) == sizes

    def test_whole_blocks_and_explicit_sizes(self):
        blocks = [[{}] * 8 for _ in range(7)]  # an inner fold's blocks of 8
        assert self._sizes(ThreadPoolBackend(max_workers=2), blocks) == [16] + [8] * 5
        single = [[{}] for _ in range(16)]
        assert self._sizes(ThreadPoolBackend(2, chunk_size=3), single) == [3] * 5 + [1]


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
