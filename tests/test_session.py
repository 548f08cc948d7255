"""Tests of the persistent process-pool :class:`ExecutionSession`.

The session must amortize pool spawn + segment publication across
consecutive ``run_subtasks`` calls without perturbing the
ordered-accumulation contract: every result inside a session is
bit-identical to :class:`SerialBackend`.  Lifecycle edges — data-only
republish, axis-order rebuild, idempotent close, workers spawned lazily
after a republish — are exercised explicitly.
"""

from __future__ import annotations

import gc
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import grid_circuit, random_brickwork_circuit
from repro.execution import (
    CorrelatedSampler,
    ExecutionSession,
    FaultPolicy,
    NullExecutionSession,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
)
from repro.execution import sliced as sliced_module
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

WORKERS = 2


def _case(num_qubits=6, depth=4, seed=13):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    bits = tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, num_qubits))
    tn = amplitude_network(circ, list(bits))
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree


@pytest.fixture(scope="module")
def case():
    return _case()


def _serial_value(tn, tree, sliced):
    return SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()


class TestSessionReuse:
    def test_pool_and_segments_built_once_across_three_runs(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            values = [executor.amplitude() for _ in range(3)]
            assert all(value == serial for value in values)
            assert session.pool_launches == 1
            assert session.publications == 1
            assert session.generation == 0
            assert session.pool_is_live
        assert session.closed

    def test_backend_session_context_manager_form(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        plan, cache = executor.plan, executor._cache
        with backend.session(plan, tn, cache) as session:
            # the session was eagerly primed: pool spawned, segments live
            assert session.pool_is_live
            assert session.publications == 1
            assert executor.amplitude() == serial
            assert session.publications == 1  # reused, not republished
        assert session.closed

    def test_bit_identical_across_chunk_sizes_inside_session(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        for chunk_size in (1, 3, None):
            backend = SharedMemoryProcessPoolBackend(
                max_workers=WORKERS, chunk_size=chunk_size
            )
            executor = SlicedExecutor(tn, tree, sliced, backend=backend)
            with executor.session():
                assert executor.amplitude() == serial
                assert executor.amplitude() == serial

    def test_subset_runs_share_the_session(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        serial = _serial_value(tn, tree, sliced)
        with executor.session() as session:
            half = executor.num_subtasks // 2
            total = complex(executor.run(range(half)).require_data())
            total += complex(executor.run(range(half, executor.num_subtasks)).require_data())
            assert session.pool_launches == 1
            assert session.publications == 1
        assert total == pytest.approx(complex(serial), abs=1e-12)

    def test_batched_sweep_session(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = SlicedExecutor(tn, tree, sliced).amplitude()
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn, tree, sliced, batch_indices=sliced[:2], backend=backend
        )
        with executor.session() as session:
            assert executor.amplitude() == serial
            assert executor.amplitude() == serial
            assert session.pool_launches == 1
            assert session.publications == 1

    def test_run_after_close_falls_back_to_ephemeral(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        session = executor.session()
        assert executor.amplitude() == serial
        session.close()
        session.close()  # idempotent
        assert session.closed
        # no active session: the call runs in an ephemeral one and still agrees
        assert executor.amplitude() == serial

    def test_closed_session_refuses_ensure(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        session = executor.session()
        session.close()
        with pytest.raises(RuntimeError):
            session.ensure(executor.plan, tn, executor._cache)


class TestSessionInvalidation:
    def test_data_only_replacement_republishes_without_respawning(self, case):
        tn, tree = case
        tn = tn.copy()
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            first = executor.amplitude()
            assert first == _serial_value(tn, tree, sliced)
            tid = tn.tensor_ids[0]
            tensor = tn.tensor(tid)
            tn.replace_tensor(tid, tensor.with_data(tensor.require_data() * 2.0))
            second = executor.amplitude()
            assert second == _serial_value(tn, tree, sliced)
            assert second != first
            # segments were republished in place; the pool survived
            assert session.pool_launches == 1
            assert session.publications == 2
            assert session.generation == 1

    def test_axis_order_mutation_rebuilds_the_session(self, case):
        tn, tree = case
        tn = tn.copy()
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            first = executor.amplitude()
            assert first == _serial_value(tn, tree, sliced)
            tid = tn.tensor_ids[0]
            tensor = tn.tensor(tid)
            tn.replace_tensor(tid, tensor.transposed(tuple(reversed(tensor.indices))))
            second = executor.amplitude()
            assert second == _serial_value(tn, tree, sliced)
            # the layout every published buffer assumed is gone: full rebuild
            assert session.pool_launches == 2
            assert session.generation == 0

    def test_worker_spawned_after_republish_initializes_from_chunk_payload(self, case):
        tn, tree = case
        tn = tn.copy()
        sliced = sorted(tn.inner_indices())[:4]
        # large chunks: the first run submits fewer tasks than max_workers,
        # so some workers only spawn later — after the republish has
        # unlinked the segment names their initializer payload references
        backend = SharedMemoryProcessPoolBackend(max_workers=4, chunk_size=8)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            executor.amplitude()
            tid = tn.tensor_ids[0]
            tensor = tn.tensor(tid)
            tn.replace_tensor(tid, tensor.with_data(tensor.require_data().copy()))
            backend.chunk_size = 1  # now submit many tasks: spawn the rest
            value = executor.amplitude()
            assert value == _serial_value(tn, tree, sliced)
            assert session.pool_launches == 1
            assert session.generation == 1


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shm dir required")
class TestSegmentAccounting:
    """No shared-memory segment may outlive its session."""

    @staticmethod
    def _segment_count():
        return len(os.listdir("/dev/shm"))

    def test_close_unlinks_every_segment(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        before = self._segment_count()
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session():
            executor.amplitude()
            assert self._segment_count() > before  # segments live mid-session
        assert self._segment_count() == before

    def test_ephemeral_runs_leave_nothing_behind(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        before = self._segment_count()
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        SlicedExecutor(tn, tree, sliced, backend=backend).amplitude()
        assert self._segment_count() == before

    def test_finalizer_unlinks_segments_without_explicit_close(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        before = self._segment_count()
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        executor.session()
        executor.amplitude()
        assert self._segment_count() > before
        # drop every reference to the session without closing it: the
        # weakref finalizer must drain the pool and unlink the segments
        backend._session = None
        del executor, backend
        gc.collect()
        assert self._segment_count() == before


class TestNullSessions:
    @pytest.mark.parametrize(
        "make_backend",
        [lambda: SerialBackend(), lambda: ThreadPoolBackend(max_workers=2)],
        ids=["serial", "threads"],
    )
    def test_inprocess_backends_get_noop_sessions(self, case, make_backend):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        backend = make_backend()
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            assert isinstance(session, NullExecutionSession)
            assert executor.amplitude() == serial
        assert session.closed
        session.close()  # idempotent
        backend.close()  # no-op

    def test_reference_mode_rejects_sessions(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:2]
        executor = SlicedExecutor(tn, tree, sliced, mode="reference")
        with pytest.raises(ValueError):
            executor.session()

    def test_backend_itself_is_a_context_manager(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        with SharedMemoryProcessPoolBackend(max_workers=WORKERS) as backend:
            executor = SlicedExecutor(tn, tree, sliced, backend=backend)
            session = executor.session()
            assert executor.amplitude() == serial
        assert session.closed


class TestSamplerSession:
    def test_one_pool_across_base_bitstrings(self):
        circ = random_brickwork_circuit(6, 4, seed=21)
        bases = [(1, 0, 0, 1, 0, 1), (0, 1, 1, 0, 1, 0)]
        kwargs = dict(open_qubits=(1, 4), target_rank=4, max_trials=4, seed=2)
        serial_batches = [
            CorrelatedSampler(circ, **kwargs).compute_batch(base) for base in bases
        ]
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        sampler = CorrelatedSampler(circ, backend=backend, **kwargs)
        with sampler.session() as session:
            pooled_batches = [sampler.compute_batch(base) for base in bases]
            if isinstance(session, ExecutionSession):
                # this target rank leaves the batches unsliced: one
                # assignment each, so no pool is ever needed
                assert session.pool_launches <= 1
        for serial_batch, pooled_batch in zip(serial_batches, pooled_batches):
            np.testing.assert_array_equal(
                serial_batch.amplitudes, pooled_batch.amplitudes
            )

    def test_sampler_is_a_context_manager(self):
        circ = random_brickwork_circuit(6, 4, seed=21)
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        with CorrelatedSampler(
            circ, open_qubits=(1, 4), target_rank=4, max_trials=4, seed=2, backend=backend
        ) as sampler:
            batch = sampler.compute_batch((1, 0, 0, 1, 0, 1))
            assert batch.num_samples == 4
        # exiting the sampler closed the backend's session
        assert backend._session is None

    def test_serial_sampler_session_is_noop(self):
        """Without a backend the session is a sampling session, which forks a
        twin only once the inline sweeps would have paid for it: a batch too
        small to pay runs inline, as outside a session, and forks nothing."""
        circ = random_brickwork_circuit(6, 4, seed=21)
        kwargs = dict(open_qubits=(1, 4), target_rank=4, max_trials=4, seed=2)
        base = (1, 0, 0, 1, 0, 1)
        expected = CorrelatedSampler(circ, **kwargs).compute_batch(base)
        sampler = CorrelatedSampler(circ, **kwargs)
        with sampler.session() as session:
            assert isinstance(session, NullExecutionSession)
            assert sampler.session() is session  # reused while open
            batch = sampler.compute_batch(base)
            assert session.split is None
        assert batch.amplitudes.tobytes() == expected.amplitudes.tobytes()
        reopened = sampler.session()
        assert session.closed and reopened is not session
        sampler.close()  # closes the open one; idempotent
        sampler.close()
        assert reopened.closed


#: 3x3 grid, 6 cycles: the planner slices three indices at target rank 3,
#: so every batch is 8 subtasks — enough to reach the pool.
_SAMPLER_CIRCUIT = grid_circuit(3, 3, cycles=6, seed=21)
_SAMPLER_KWARGS = dict(open_qubits=(0, 2, 4), target_rank=3, max_trials=4, seed=2)
_SAMPLER_SUBTASKS = 8
_bases_strategy = st.lists(
    st.tuples(*[st.integers(0, 1)] * _SAMPLER_CIRCUIT.num_qubits),
    min_size=2,
    max_size=3,
    unique=True,
)
_POOL_SETTINGS = settings(
    max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _fresh_amplitudes(base):
    return CorrelatedSampler(_SAMPLER_CIRCUIT, **_SAMPLER_KWARGS).compute_batch(base).amplitudes


class TestSamplerPlanReuseInSession:
    """The resident plan reaches the pool session's data-only path."""

    @_POOL_SETTINGS
    @given(bases=_bases_strategy)
    def test_long_lived_pool_sampler_is_bitwise_a_fresh_serial_one(self, bases):
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        with CorrelatedSampler(_SAMPLER_CIRCUIT, backend=backend, **_SAMPLER_KWARGS) as sampler:
            with sampler.session():
                for base in bases:
                    batch = sampler.compute_batch(base)
                    assert batch.amplitudes.tobytes() == _fresh_amplitudes(base).tobytes()

    @_POOL_SETTINGS
    @given(bases=_bases_strategy)
    def test_checkpointing_policy_keeps_bits_and_per_bitstring_ledgers(self, bases):
        fingerprints = []
        original = sliced_module.job_fingerprint

        def recording(*args, **kwargs):
            fingerprints.append(original(*args, **kwargs))
            return fingerprints[-1]

        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
            patch.setattr(sliced_module, "job_fingerprint", recording)
            policy = FaultPolicy.retrying(checkpoint_dir=root)
            with CorrelatedSampler(
                _SAMPLER_CIRCUIT, backend=backend, fault_policy=policy, **_SAMPLER_KWARGS
            ) as sampler:
                with sampler.session():
                    for base in bases:
                        batch = sampler.compute_batch(base)
                        assert batch.amplitudes.tobytes() == _fresh_amplitudes(base).tobytes()
                assert sampler.stats.checkpointed_slots == len(bases) * _SAMPLER_SUBTASKS
                assert sampler.stats.resumed_slots == 0
        # distinct closed-qubit bits hash distinct leaf bytes: one ledger each
        # (the bits of the open qubits never reach a leaf)
        closed = [q for q in range(len(bases[0])) if q not in _SAMPLER_KWARGS["open_qubits"]]
        assert len(set(fingerprints)) == len({tuple(base[q] for q in closed) for base in bases})

    def test_one_pool_one_plan_and_a_data_publication_per_batch(self):
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        rng = np.random.default_rng(4)
        with CorrelatedSampler(_SAMPLER_CIRCUIT, backend=backend, **_SAMPLER_KWARGS) as sampler:
            with sampler.session() as session:
                published_plans = set()
                for batches in range(1, 5):
                    sampler.compute_batch(
                        [int(b) for b in rng.integers(0, 2, _SAMPLER_CIRCUIT.num_qubits)]
                    )
                    published_plans.add(id(session._plan))
                    # the pool is spawned once; each batch republishes
                    # segments (new leaf data, re-warmed cache) ...
                    assert session.pool_launches == 1
                    assert session.publications == batches
                    assert session.generation == batches - 1
                    # ... and the counters see every subtask exactly once
                    assert sampler.stats.executions == batches * _SAMPLER_SUBTASKS
                    assert sampler.stats.timed_subtasks == batches * _SAMPLER_SUBTASKS
                # ... always for the one resident compiled plan
                assert len(published_plans) == 1


class TestPlannerSession:
    def test_planner_reuses_the_pool_across_executions(self):
        from repro.pipeline import SimulationPlanner

        circ = random_brickwork_circuit(6, 4, seed=3)
        with SimulationPlanner(
            target_rank=5,
            max_trials=4,
            seed=0,
            backend=SharedMemoryProcessPoolBackend(max_workers=WORKERS),
        ) as planner:
            plan = planner.plan_circuit(circ, concrete=True)
            serial = SimulationPlanner(
                target_rank=5, max_trials=4, seed=0
            ).execute_plan(plan)
            with planner.session() as session:
                first = planner.execute_plan(plan)
                second = planner.execute_plan(plan)
            assert first == second == serial
            if isinstance(session, ExecutionSession):
                assert session.pool_launches <= 1
