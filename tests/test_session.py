"""Tests of the persistent process-pool :class:`ExecutionSession`.

The session forks its crew of children once the invariant cache is warm
and keeps it across consecutive ``run_subtasks`` calls without perturbing
the ordered-accumulation contract: every result inside a session is
bit-identical to :class:`SerialBackend`.  Lifecycle edges — a data-only
re-fork, axis-order rebuild, idempotent close, a killed child, the pipes
of other forked children — are exercised explicitly, and nothing (child,
descriptor, segment) outlives a session.
"""

from __future__ import annotations

import gc
import logging
import math
import multiprocessing
import os
import re
import signal
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import forking
from repro.circuits import grid_circuit, random_brickwork_circuit
from repro.core import lifetime as lifetime_module
from repro.execution import (
    CorrelatedSampler,
    ExecutionSession,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    NullExecutionSession,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
)
from repro.execution import backend as backend_module
from repro.execution import sliced as sliced_module
from repro.paths import GreedyOptimizer
from repro.pipeline import SimulationPlanner
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
            assert session.forks == 1
            assert len(session.pids) == WORKERS - 1
        assert session.closed

    def test_backend_session_context_manager_form(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        plan, cache = executor.plan, executor._cache
        with backend.session(plan, tn, cache) as session:
            # the session was eagerly primed: the crew is forked
            assert session.forks == 1 and session.pids
            assert executor.amplitude() == serial
            assert session.forks == 1  # reused, not forked again
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
            assert session.forks == 1
        assert total == pytest.approx(complex(serial), abs=1e-12)

    def test_batched_sweep_session(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn, tree, sliced, batch_indices=sliced[:2], backend=backend
        )
        with executor.session() as session:
            assert executor.amplitude() == serial
            assert executor.amplitude() == serial
            assert session.forks == 1

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
    def test_data_only_replacement_reforks_the_crew(self, case):
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
            children = session.pids
            tn.replace_tensor(tid, tensor.with_data(tensor.require_data() * 2.0))
            second = executor.amplitude()
            assert second == _serial_value(tn, tree, sliced)
            assert second != first
            # the children were forked again from the rebound state
            assert session.forks == 2
            assert session.pids != children and len(session.pids) == WORKERS - 1

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
            # the layout the children inherited is gone: a fresh crew
            assert session.forks == 2

    def test_finer_chunks_after_a_refork_keep_the_bits(self, case):
        tn, tree = case
        tn = tn.copy()
        sliced = sorted(tn.inner_indices())[:4]
        # large chunks: the first run leaves some children idle; after a
        # rebound leaf re-forks the crew, every child takes chunks of one
        backend = SharedMemoryProcessPoolBackend(max_workers=4, chunk_size=8)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            executor.amplitude()
            tid = tn.tensor_ids[0]
            tensor = tn.tensor(tid)
            tn.replace_tensor(tid, tensor.with_data(tensor.require_data().copy()))
            backend.chunk_size = 1
            value = executor.amplitude()
            assert value == _serial_value(tn, tree, sliced)
            assert session.forks == 2 and len(session.pids) == 3


def _no_child_left():
    """Whether this process has no child at all, not even a zombie."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _psm_segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _await_exit(pid, seconds=5.0):
    """``pid``'s exit record once it exited (left unreaped), or ``None``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        if info is not None:
            return info
        time.sleep(0.01)
    return None


_FORKS = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/proc/self/fd"),
    reason="the crew forks; the checks read /proc",
)


@_FORKS
class TestCrewAccounting:
    """No child (not even a zombie), descriptor or ``psm_`` segment outlives
    a session: closed, garbage-collected, ephemeral, or with a child
    SIGKILLed."""

    @pytest.fixture(autouse=True)
    def nothing_outlives_a_test(self):
        assert _no_child_left()
        fds, segments = _fd_count(), _psm_segments()
        yield
        assert _no_child_left()
        assert _fd_count() <= fds
        assert _psm_segments() <= segments

    def test_close_reaps_every_child(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=3)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            executor.amplitude()
            assert len(session.pids) == 2 and not _no_child_left()

    def test_ephemeral_runs_leave_nothing_behind(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        assert SlicedExecutor(tn, tree, sliced, backend=backend).amplitude() == _serial_value(
            tn, tree, sliced
        )

    def test_finalizer_reaps_without_explicit_close(self, case):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        executor.session()
        executor.amplitude()
        assert not _no_child_left()
        # drop every reference to the session without closing it: the
        # weakref finalizer must kill and reap the children
        backend._session = None
        del executor, backend
        gc.collect()

    @pytest.mark.faults
    def test_a_child_killed_between_runs_is_reforked(self, case, caplog):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=3)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with caplog.at_level(logging.WARNING), executor.session() as session:
            executor.amplitude()
            killed = session.pids[0]
            os.kill(killed, signal.SIGKILL)
            assert _await_exit(killed) is not None
            assert executor.amplitude() == _serial_value(tn, tree, sliced)
            assert session.forks == 2 and killed not in session.pids
        (record,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert record.getMessage() == f"process pool child {killed} died between runs; re-forking"

    @pytest.mark.faults
    def test_a_child_killed_mid_run_costs_one_warning(self, case, caplog):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=3, chunk_size=2)
        executor = SlicedExecutor(
            tn, tree, sliced, backend=backend,
            fault_policy=FaultPolicy.retrying(backoff_seconds=0.0),
            fault_injector=FaultInjector([FaultSpec("kill-worker", chunk=1)]),
        )
        with caplog.at_level(logging.WARNING), executor.session() as session:
            assert executor.amplitude() == _serial_value(tn, tree, sliced)
            # one child died, the survivor and the parent took its chunk
            assert session.forks == 1 and len(session.pids) == 1
        (record,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert " worker lost (" in record.getMessage()
        assert executor.stats.faults == 1

    def test_each_fork_logs_one_debug_line(self, case, caplog):
        tn, tree = case
        tn = tn.copy()
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=3)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with caplog.at_level(logging.DEBUG, logger="repro.execution.backend"):
            with executor.session():
                executor.amplitude()
                tid = tn.tensor_ids[0]
                tensor = tn.tensor(tid)
                tn.replace_tensor(tid, tensor.with_data(tensor.require_data() * 2.0))
                executor.amplitude()
                executor.amplitude()
        lines = [r.getMessage() for r in caplog.records if r.name == "repro.execution.backend"]
        assert len(lines) == 2, lines
        assert all(re.fullmatch(r"forked 2 process pool children in \d+\.\d\d ms", m) for m in lines)


@pytest.fixture(scope="module")
def grid_plan():
    """A 3x4 grid plan sliced 6 ways: it folds below its root, and compiled
    with ``INNER_FOLD_PRODUCT`` lifted it folds inside too."""
    planner = SimulationPlanner(target_rank=6, max_trials=4, seed=0)
    return planner.plan_circuit(grid_circuit(3, 4, cycles=8, seed=0), concrete=True)


#: A conformance run's leaf rebinds, in order: none, new data (a re-fork),
#: another dtype (a re-fork that binds the walk again).
_REBINDS = (None, lambda data: data * (0.5 - 0.25j), lambda data: data.astype(np.complex64))


def _conformance_runs(network, tree, sliced, executor):
    """Run ``executor`` full and over a subset after each of :data:`_REBINDS`
    of one leaf of ``network``; the result bits of every run, in order."""
    tid = network.tensor_ids[5]
    subset = range(3, executor.num_subtasks - 5)
    bits = []
    for rebind in _REBINDS:
        if rebind is not None:
            tensor = network.tensor(tid)
            network.replace_tensor(tid, tensor.with_data(rebind(tensor.require_data())))
        bits += [executor.run(ids).require_data().tobytes() for ids in (None, subset)]
    return bits


@pytest.fixture(scope="module")
def serial_bits():
    """The serial bits of the conformance runs, per fold kind (filled once)."""
    return {}


@_FORKS
class TestCrewConformance:
    @pytest.mark.parametrize("chunk_size", [None, 1, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("inner_fold", [False, True], ids=["folded", "inner_fold"])
    def test_every_run_is_the_serial_one_bit_for_bit(
        self, monkeypatch, grid_plan, serial_bits, inner_fold, workers, chunk_size
    ):
        """Full and subset runs, then again after a rebound leaf and after a
        leaf of another dtype."""
        if inner_fold:
            monkeypatch.setattr(lifetime_module, "INNER_FOLD_PRODUCT", math.inf)
        tree, sliced = grid_plan.tree, grid_plan.slicing.sliced
        if inner_fold not in serial_bits:
            network = grid_plan.network.copy()
            serial = SlicedExecutor(network, tree, sliced, backend=SerialBackend())
            serial_bits[inner_fold] = _conformance_runs(network, tree, sliced, serial)
        network = grid_plan.network.copy()
        backend = SharedMemoryProcessPoolBackend(max_workers=workers, chunk_size=chunk_size)
        executor = SlicedExecutor(network, tree, sliced, backend=backend)
        assert (executor.plan.inner_fold is not None) == inner_fold
        with executor.session() as session:
            assert _conformance_runs(network, tree, sliced, executor) == serial_bits[inner_fold]
            assert session.forks == (3 if workers > 1 else 0)

    def test_rows_past_the_mapping_travel_through_the_pipe(self, monkeypatch, case):
        """A mapping too short for a chunk's rows (two rows of 16 B here)
        sends those contributions back pickled, with the same bits."""
        monkeypatch.setattr(backend_module, "_MAPPING_BYTES", 32)
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        backend = SharedMemoryProcessPoolBackend(max_workers=3, chunk_size=1)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session() as session:
            assert len(session._resources.mapping) == 32
            assert executor.amplitude() == _serial_value(tn, tree, sliced)


@_FORKS
@pytest.mark.parametrize("first", ["twin", "crew"])
def test_a_twin_exits_at_the_end_of_its_pipe_whatever_was_forked_beside_it(case, first):
    """A child holds no other child's pipe: closing a twin's request pipe in
    the parent alone (no SIGKILL) lets it exit cleanly, crew forked after it
    or before."""
    tn, tree = case
    sliced = sorted(tn.inner_indices())[:4]
    executor = SlicedExecutor(
        tn, tree, sliced, backend=SharedMemoryProcessPoolBackend(max_workers=3)
    )
    session = executor.session() if first == "crew" else None
    twin = forking.Twin(bytes)
    if session is None:
        session = executor.session()
    try:
        assert len(session.pids) == 2
        # hang up: the parent's request end becomes /dev/null, so the pipe
        # loses its last writer in this process (the descriptor is still
        # the twin's to close)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, twin._send)
        os.close(devnull)
        info = _await_exit(twin.pid)
        assert info is not None, "the twin did not see the end of its pipe"
        assert (info.si_code, info.si_status) == (os.CLD_EXITED, 0)
    finally:
        twin.close()
        session.close()


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
                # assignment each, so no crew is ever needed
                assert session.forks <= 1
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
                    # each batch rebinds leaves and re-warms the cache, so
                    # the crew is forked again from it ...
                    assert session.forks == batches
                    # ... and the counters see every subtask exactly once
                    assert sampler.stats.executions == batches * _SAMPLER_SUBTASKS
                    assert sampler.stats.timed_subtasks == batches * _SAMPLER_SUBTASKS
                # ... always for the one resident compiled plan
                assert len(published_plans) == 1


class TestPlannerSession:
    def test_planner_reuses_the_pool_across_executions(self):
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
                assert session.forks <= 1


# ----------------------------------------------------------------------
# The executors' default: serial, or split with a crew of forked twins
# ----------------------------------------------------------------------
@pytest.fixture
def may_fork(monkeypatch):
    """Two usable CPUs, a single-threaded BLAS and any block paying for a fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(forking, "native_threads", lambda: 1)
    monkeypatch.setattr(forking, "_FORK_SECONDS", 0.0)


@pytest.fixture
def crews(monkeypatch):
    """The process count of every crew the default forks (the real crew runs)."""
    built = []

    class Spied(backend_module._RangeCrew):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(backend_module, "_RangeCrew", Spied)
    return built


def _shared_mappings():
    """This process's anonymous shared mappings (what ``mmap.mmap(-1, n)`` makes)."""
    with open("/proc/self/maps") as maps:
        return sum(" rw-s " in line and "/dev/zero" in line for line in maps)


@pytest.fixture(scope="module")
def small_bench_plan():
    """The ``small_subtasks`` bench plan at seed 3: 512 subtasks, no inner fold."""
    bits = [int(b) for b in np.random.default_rng(3).integers(0, 2, 20)]
    planner = SimulationPlanner(target_rank=10, max_trials=8, seed=1)
    return planner.plan_circuit(grid_circuit(4, 5, cycles=10, seed=3), bits, True)


def _traced_peak(run):
    """``tracemalloc``'s peak over ``run()``, above what was traced before it."""
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@_FORKS
class TestDefaultCrew:
    """``SlicedExecutor`` without a backend: the serial bits whether a run
    stays inline or splits with forked twins, and nothing — child,
    descriptor, mapping — outlives the crew.  CI runs the class under two
    fixed ``PYTHONHASHSEED``s: the range cut follows sweep order."""

    @pytest.fixture(autouse=True)
    def nothing_outlives_a_test(self):
        assert _no_child_left()
        fds, mappings = _fd_count(), _shared_mappings()
        yield
        gc.collect()
        assert _no_child_left()
        assert _fd_count() <= fds
        assert _shared_mappings() <= mappings

    @pytest.mark.parametrize("processes", [2, 3, 4])
    @pytest.mark.parametrize("inner_fold", [False, True], ids=["folded", "inner_fold"])
    def test_every_run_is_the_serial_one_bit_for_bit(
        self, monkeypatch, may_fork, crews, grid_plan, serial_bits, inner_fold, processes
    ):
        """Full and subset runs, then again after a rebound leaf (a re-fork)
        and after a leaf of another dtype (another)."""
        if inner_fold:
            monkeypatch.setattr(lifetime_module, "INNER_FOLD_PRODUCT", math.inf)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
        tree, sliced = grid_plan.tree, grid_plan.slicing.sliced
        if inner_fold not in serial_bits:
            network = grid_plan.network.copy()
            serial = SlicedExecutor(network, tree, sliced, backend=SerialBackend())
            serial_bits[inner_fold] = _conformance_runs(network, tree, sliced, serial)
        network = grid_plan.network.copy()
        executor = SlicedExecutor(network, tree, sliced)
        assert type(executor.backend) is backend_module._HandOffBackend
        with executor.session() as session:
            assert crews == []  # opening a session forks nothing
            assert _conformance_runs(network, tree, sliced, executor) == serial_bits[inner_fold]
            blocks = sum(1 for _ in executor.plan.blocks(executor.assignments()))
            # block 1 of the first run forks the crew, each rebind re-forks it
            assert crews == [min(processes, blocks - 2)] + [min(processes, blocks)] * 2
            assert session.crew is not None and not session.stay_inline
        assert executor.stats.faults == 0
        assert executor.stats.executions == sum(
            executor.num_subtasks + len(range(3, executor.num_subtasks - 5)) for _ in range(3)
        )

    def test_scattered_subsets_and_complex64_keep_the_serial_bits(self, case, may_fork, crews):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        runs = [None, [5, 1, 9, 2, 14, 7, 7, 0], range(2, 13)]
        for dtype in (None, np.complex64):
            serial = SlicedExecutor(tn, tree, sliced, dtype=dtype, backend=SerialBackend())
            executor = SlicedExecutor(tn, tree, sliced, dtype=dtype)
            with executor.session():
                for ids in runs:
                    got, want = executor.run(ids).require_data(), serial.run(ids).require_data()
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert crews == [2, 2]

    def test_a_session_of_short_runs_forks_once_the_sum_pays(self, case, monkeypatch, crews):
        """Runs too short to pay one by one add up their seconds: after each
        inline run the session asks ``pool_pays`` about the mean run over
        the runs so far, and forks the crew for the next run once it
        accepts (here: after the third), then keeps it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(forking, "native_threads", lambda: 1)
        asked = []

        def after_three_runs(unit_s, remaining):
            asked.append(remaining)
            return remaining == 3

        monkeypatch.setattr(forking, "pool_pays", after_three_runs)
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        executor = SlicedExecutor(tn, tree, sliced)
        with executor.session() as session:
            for runs in range(1, 4):
                assert session.crew is None
                assert executor.amplitude() == serial
                assert session.inline_runs == runs
            assert crews == [2] and session.crew is not None
            for _ in range(3):
                assert executor.amplitude() == serial
        # block 1 of each inline run is offered the 14 blocks after it first
        assert asked == [14, 1, 14, 2, 14, 3]
        assert crews == [2] and session.crew is None

    def test_a_crew_that_never_beats_inline_retires_with_one_info_line(
        self, case, may_fork, crews, monkeypatch, caplog
    ):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        executor = SlicedExecutor(tn, tree, sliced)
        with caplog.at_level(logging.INFO, logger="repro.execution.backend"):
            with executor.session() as session:
                monkeypatch.setattr(session, "fastest_inline", 0.0)  # nothing beats it
                for _ in range(5):
                    assert executor.amplitude() == serial
                assert session.stay_inline and session.crew is None
        assert crews == [2]
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert record.getMessage().startswith("sweep crew retired: neither of two warm split")

    @pytest.mark.faults
    def test_a_killed_twin_costs_one_warning_and_not_the_bits(
        self, case, may_fork, crews, caplog
    ):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        serial = _serial_value(tn, tree, sliced)
        executor = SlicedExecutor(tn, tree, sliced)
        with caplog.at_level(logging.WARNING), executor.session() as session:
            assert executor.amplitude() == serial
            (twin,) = session.crew.twins
            os.kill(twin.pid, signal.SIGKILL)
            assert _await_exit(twin.pid) is not None
            assert executor.amplitude() == serial
            assert session.crew is None and session.stay_inline
            assert executor.amplitude() == serial
        assert crews == [2]
        (record,) = caplog.records
        assert record.name == "repro.execution.backend" and record.levelno == logging.WARNING
        assert record.getMessage().startswith("sweep twin lost (")
        assert record.getMessage().endswith("; running blocks 8-15 inline")
        assert executor.stats.faults == 1
        assert executor.stats.executions == 3 * executor.num_subtasks

    def test_close_reaps_the_crew(self, case, may_fork):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        executor = SlicedExecutor(tn, tree, sliced)
        session = executor.session()
        executor.amplitude()
        assert not _no_child_left()
        session.close()
        session.close()  # idempotent
        assert _no_child_left()
        assert executor.session() is not session

    def test_collecting_an_unclosed_executor_reaps_the_crew(self, case, may_fork):
        tn, tree = case
        sliced = sorted(tn.inner_indices())[:4]
        executor = SlicedExecutor(tn, tree, sliced)
        executor.session()
        executor.amplitude()
        assert not _no_child_left()
        # no reference cycle holds the session: dropping the executor reaps
        # the crew at once, without waiting for the cyclic collector
        del executor
        assert _no_child_left()

    def test_a_process_that_exits_unclosed_leaves_no_twin(self, tmp_path):
        script = tmp_path / "unclosed.py"
        script.write_text(
            "import os\n"
            "from repro import forking\n"
            "from repro.circuits import random_brickwork_circuit\n"
            "from repro.execution import SlicedExecutor\n"
            "from repro.paths import GreedyOptimizer\n"
            "from repro.tensornet import amplitude_network, simplify_network\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forking.native_threads = lambda: 1\n"
            "forking._FORK_SECONDS = 0.0\n"
            "tn = amplitude_network(random_brickwork_circuit(6, 4, seed=13), [0] * 6)\n"
            "simplify_network(tn)\n"
            "tree = GreedyOptimizer(seed=1).tree(tn)\n"
            "executor = SlicedExecutor(tn, tree, sorted(tn.inner_indices())[:4])\n"
            "session = executor.session()\n"
            "executor.amplitude()\n"
            "print(*(twin.pid for twin in session.crew.twins))\n"
        )
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        (pid,) = map(int, done.stdout.split())
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"twin {pid} outlived its parent")

    @pytest.mark.parametrize("path", ["fork", "inline"])
    def test_the_parents_peak_is_the_serial_one(self, monkeypatch, small_bench_plan, path):
        """A traced fresh pass (the bench's ``peak_bytes``) peaks within 1 KB
        of :class:`SerialBackend`'s, whichever path it takes: nothing is
        listed before the rule answers, and the twins' rows and stats are
        read in place."""
        plan = small_bench_plan

        def fresh_pass(backend=None):
            kwargs = {} if backend is None else {"backend": backend}
            executor = SlicedExecutor(plan.network, plan.tree, plan.slicing.sliced, **kwargs)
            with executor.session():
                executor.amplitude()

        serial = _traced_peak(lambda: fresh_pass(SerialBackend()))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(forking, "native_threads", lambda: 1)
        monkeypatch.setattr(forking, "_FORK_SECONDS", 0.0 if path == "fork" else math.inf)
        forks = []
        monkeypatch.setattr(
            backend_module._CrewSession, "_fork",
            lambda self, *args, real=backend_module._CrewSession._fork: forks.append(1)
            or real(self, *args),
        )
        assert _traced_peak(fresh_pass) <= serial + 1024
        assert forks == ([1] if path == "fork" else [])

    @pytest.mark.parametrize("through", ["executor", "planner"])
    def test_a_checkpointed_run_stays_one_ordered_loop(
        self, tmp_path, may_fork, crews, grid_plan, through
    ):
        """A ledger records every slot (no crew takes one past it), and a
        resumed run loads them all."""
        network, tree, sliced = grid_plan.network, grid_plan.tree, grid_plan.slicing.sliced
        serial = SlicedExecutor(network, tree, sliced, backend=SerialBackend())
        expected = serial.amplitude()
        policy = FaultPolicy.retrying(checkpoint_dir=str(tmp_path), checkpoint_every=2)

        def run():
            if through == "planner":
                planner = SimulationPlanner(fault_policy=policy)
                value = planner.execute_plan(grid_plan)
                return value, grid_plan.measured_stats, expected * grid_plan.scalar_prefactor
            executor = SlicedExecutor(network, tree, sliced, fault_policy=policy)
            return executor.amplitude(), executor.stats, expected

        with pytest.MonkeyPatch.context() as patch:
            # keep the ledger, as an interrupted run would have left it
            patch.setattr(sliced_module.CheckpointJob, "complete", sliced_module.CheckpointJob.close)
            value, stats, want = run()
        assert value == want
        assert stats.checkpointed_slots == serial.num_subtasks and stats.resumed_slots == 0
        value, stats, want = run()
        assert value == want
        assert stats.resumed_slots == serial.num_subtasks and stats.checkpointed_slots == 0
        assert crews == []
