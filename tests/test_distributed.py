"""Distributed execution backend: real localhost workers over TCP sockets.

Every test here spawns actual ``repro.execution.worker`` processes (no
in-process shims), so the suite carries the ``distributed`` marker and CI
gives it its own job.  Coverage, per the acceptance criteria:

* bit-identity with :class:`SerialBackend` across worker counts and chunk
  sizes, with and without ``batch_indices=`` — including adversarial arrival orders forced
  by a slow-worker delay injection (the late chunk still folds first);
* fault recovery: dropped connections and killed workers rebalance onto
  survivors under ``FaultPolicy.retrying``, persistent death degrades to
  the local substrate chain, chunk timeouts sever wedged links, and a
  broken session heals on the next run;
* session lifecycle: data-only mutations republish payloads without
  re-broadcasting the plan, axis-order mutations rebuild the cluster;
* spec parsing (``"distributed"`` / ``"distributed:host:port,..."``),
  device array-module rejection, the ``--listen`` worker topology, and
  the comms-aware calibration pipeline through
  :func:`measure_strong_scaling`.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.circuits import random_brickwork_circuit
from repro.costs import CalibratedCostModel, calibration_payload
from repro.execution import (
    ChunkTimeoutError,
    DistributedBackend,
    DistributedWorkerError,
    FaultError,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    MeasuredScalingPoint,
    SerialBackend,
    SlicedExecutor,
    measure_strong_scaling,
    resolve_backend,
    validate_execution_args,
)
from repro.execution.distributed import _worker_environment
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

pytestmark = pytest.mark.distributed


def _case(num_qubits=6, depth=4, seed=13):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    bits = [int(b) for b in np.random.default_rng(seed).integers(0, 2, num_qubits)]
    tn = amplitude_network(circ, bits)
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree


def _serial_value(tn, tree, sliced, **kwargs):
    return SlicedExecutor(
        tn, tree, sliced, backend=SerialBackend(), **kwargs
    ).amplitude()


@pytest.fixture(scope="module")
def case():
    tn, tree = _case()
    sliced = sorted(tn.inner_indices())[:4]
    return tn, tree, sliced


@pytest.fixture(scope="module")
def serial_value(case):
    tn, tree, sliced = case
    return _serial_value(tn, tree, sliced)


# ----------------------------------------------------------------------
# tentpole: ordered accumulation is bit-identical to serial
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize(
        "num_workers,chunk_size",
        [(1, None), (2, 1), (2, 3), (2, 7), (3, None)],
    )
    def test_matches_serial_across_worker_counts_and_chunks(
        self, case, serial_value, num_workers, chunk_size
    ):
        tn, tree, sliced = case
        backend = DistributedBackend(num_workers=num_workers, chunk_size=chunk_size)
        try:
            executor = SlicedExecutor(tn, tree, sliced, backend=backend)
            with executor.session():
                assert executor.amplitude() == serial_value
                # warm second run reuses workers and payloads
                assert executor.amplitude() == serial_value
        finally:
            backend.close()

    def test_sweep_planned_plan_matches_serial_across_chunks(self, open_case):
        # open subtrees (their leaves stay on the coordinator), retained
        # partials, a sweep order of the plan's own choosing
        tn, tree, sliced, reference = open_case
        serial = _serial_value(tn, tree, sliced)
        assert serial == pytest.approx(reference, abs=1e-9)
        for chunk_size in (1, 3, 7, None):
            backend = DistributedBackend(num_workers=2, chunk_size=chunk_size)
            try:
                executor = SlicedExecutor(tn, tree, sliced, backend=backend)
                with executor.session():
                    assert executor.amplitude() == serial, chunk_size
                    assert executor.amplitude() == serial, chunk_size
            finally:
                backend.close()

    def test_ephemeral_run_without_session(self, case, serial_value):
        tn, tree, sliced = case
        backend = DistributedBackend(num_workers=2)
        try:
            value = SlicedExecutor(tn, tree, sliced, backend=backend).amplitude()
        finally:
            backend.close()
        assert value == serial_value

    def test_batched_sweep_matches_serial(self, case, serial_value):
        tn, tree, sliced = case
        batched = sliced[:2]
        backend = DistributedBackend(num_workers=2)
        try:
            executor = SlicedExecutor(
                tn, tree, sliced, backend=backend, batch_indices=batched
            )
            with executor.session():
                assert executor.amplitude() == serial_value
        finally:
            backend.close()

    def test_single_assignment_run_matches_serial(self):
        # regression: an empty slicing is one assignment whose rank-0 root
        # sits in the invariant cache; the data payload used to promote it
        # to shape (1,) and the worker died building the result tensor
        tn, tree = _case()
        serial = SlicedExecutor(tn, tree, frozenset(), backend=SerialBackend()).run()
        backend = DistributedBackend(num_workers=2)
        try:
            remote = SlicedExecutor(tn, tree, frozenset(), backend=backend).run()
        finally:
            backend.close()
        assert remote.indices == serial.indices == ()
        assert remote.require_data().shape == ()
        assert remote.require_data().tobytes() == serial.require_data().tobytes()

    def test_adversarial_arrival_order(self, case, serial_value):
        # delay the worker holding chunk 0 long enough that every other
        # chunk arrives first: ordered accumulation must still fold the
        # contributions in assignment order, bit-identical to serial
        tn, tree, sliced = case
        injector = FaultInjector(
            faults=[FaultSpec("delay-chunk", chunk=0, seconds=0.3)]
        )
        backend = DistributedBackend(num_workers=2, chunk_size=2)
        try:
            executor = SlicedExecutor(
                tn, tree, sliced, backend=backend, fault_injector=injector
            )
            with executor.session():
                assert executor.amplitude() == serial_value
        finally:
            backend.close()
        assert injector.fired == [(0, "delay-chunk")]

    def test_comms_counters_populated(self, case, serial_value):
        tn, tree, sliced = case
        backend = DistributedBackend(num_workers=2, chunk_size=1)
        try:
            executor = SlicedExecutor(tn, tree, sliced, backend=backend)
            with executor.session():
                assert executor.amplitude() == serial_value
            stats = executor.stats
        finally:
            backend.close()
        assert stats.chunk_roundtrips == 16
        assert stats.comms_bytes > 0
        assert stats.comms_seconds >= 0.0


# ----------------------------------------------------------------------
# tentpole: worker-death recovery through the resilience layer
# ----------------------------------------------------------------------
class TestFaultRecovery:
    def test_drop_connection_rebalances_onto_survivors(self, case, serial_value):
        tn, tree, sliced = case
        injector = FaultInjector(faults=[FaultSpec("drop-connection", chunk=1)])
        backend = DistributedBackend(num_workers=2, chunk_size=2)
        try:
            executor = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=backend,
                fault_policy=FaultPolicy.retrying(2, backoff_seconds=0.0),
                fault_injector=injector,
            )
            with executor.session() as session:
                assert executor.amplitude() == serial_value
                assert session.respawns == 0  # a survivor absorbed the chunk
            stats = executor.stats
        finally:
            backend.close()
        assert injector.fired == [(1, "drop-connection")]
        assert stats.faults >= 1
        assert stats.retries >= 1

    def test_kill_worker_fail_fast_then_session_heals(self, case, serial_value):
        tn, tree, sliced = case
        injector = FaultInjector(faults=[FaultSpec("kill-worker", chunk=0)])
        backend = DistributedBackend(num_workers=2, chunk_size=2)
        try:
            executor = SlicedExecutor(
                tn, tree, sliced, backend=backend, fault_injector=injector
            )
            with executor.session() as session:
                with pytest.raises(FaultError):
                    executor.amplitude()
                assert session.broken
                # the injector is exhausted; the next run relaunches the
                # dead cluster and completes cleanly
                assert executor.amplitude() == serial_value
                assert not session.broken
        finally:
            backend.close()

    def test_persistent_death_degrades_to_local_substrate(self, case, serial_value):
        tn, tree, sliced = case
        injector = FaultInjector(
            faults=[FaultSpec("kill-worker", chunk=0, times=50)]
        )
        backend = DistributedBackend(num_workers=2, chunk_size=4)
        try:
            executor = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=backend,
                fault_policy=FaultPolicy.degrading(1, backoff_seconds=0.0),
                fault_injector=injector,
            )
            with executor.session() as session:
                assert executor.amplitude() == serial_value
                assert session.respawns >= 1  # rebuild budget was spent first
            stats = executor.stats
        finally:
            backend.close()
        assert stats.degraded_to in ("threads", "serial")
        assert stats.faults >= 2

    def test_chunk_timeout_severs_wedged_link(self, case, serial_value):
        tn, tree, sliced = case
        injector = FaultInjector(
            faults=[FaultSpec("delay-chunk", chunk=0, seconds=2.5)]
        )
        backend = DistributedBackend(num_workers=2, chunk_size=4)
        try:
            executor = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=backend,
                fault_policy=FaultPolicy.retrying(
                    2, chunk_timeout_seconds=0.75, backoff_seconds=0.0
                ),
                fault_injector=injector,
            )
            with executor.session():
                assert executor.amplitude() == serial_value
            stats = executor.stats
        finally:
            backend.close()
        assert stats.faults >= 1

    def test_chunk_timeout_fail_fast_raises(self, case):
        tn, tree, sliced = case
        injector = FaultInjector(
            faults=[FaultSpec("delay-chunk", chunk=0, seconds=2.5)]
        )
        backend = DistributedBackend(num_workers=2, chunk_size=4)
        try:
            executor = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=backend,
                fault_policy=FaultPolicy(chunk_timeout_seconds=0.75),
                fault_injector=injector,
            )
            with pytest.raises(ChunkTimeoutError):
                executor.amplitude()
        finally:
            backend.close()

    def test_worker_error_reported_with_traceback(self, case, serial_value):
        tn, tree, sliced = case
        injector = FaultInjector(faults=[FaultSpec("poison-pickle", chunk=0)])
        backend = DistributedBackend(num_workers=2, chunk_size=4)
        try:
            executor = SlicedExecutor(
                tn, tree, sliced, backend=backend, fault_injector=injector
            )
            with pytest.raises(DistributedWorkerError) as excinfo:
                executor.amplitude()
        finally:
            backend.close()
        assert "UnpicklingError" in str(excinfo.value)
        assert excinfo.value.worker_id >= 0

    def test_worker_error_retried_against_chunk_budget(self, case, serial_value):
        tn, tree, sliced = case
        injector = FaultInjector(faults=[FaultSpec("poison-pickle", chunk=0)])
        backend = DistributedBackend(num_workers=2, chunk_size=4)
        try:
            executor = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=backend,
                fault_policy=FaultPolicy.retrying(2, backoff_seconds=0.0),
                fault_injector=injector,
            )
            with executor.session():
                assert executor.amplitude() == serial_value
            stats = executor.stats
        finally:
            backend.close()
        assert stats.faults >= 1
        assert stats.retries >= 1


# ----------------------------------------------------------------------
# tentpole: remote session publication and invalidation
# ----------------------------------------------------------------------
class TestRemoteSession:
    def test_data_only_mutation_republishes_without_plan_rebroadcast(self):
        tn, tree = _case()
        sliced = sorted(tn.inner_indices())[:4]
        backend = DistributedBackend(num_workers=2)
        try:
            executor = SlicedExecutor(tn, tree, sliced, backend=backend)
            with executor.session() as session:
                first = executor.amplitude()
                assert first == _serial_value(tn, tree, sliced)
                assert session.plan_broadcasts == 1
                assert session.data_publications == 1
                launches = session.worker_launches
                tid = tn.tensor_ids[0]
                tensor = tn.tensor(tid)
                tn.replace_tensor(
                    tid, tensor.with_data(tensor.require_data() * 2.0)
                )
                second = executor.amplitude()
                assert second == _serial_value(tn, tree, sliced)
                assert second != first
                # the payload travelled again; the plan and workers did not
                assert session.plan_broadcasts == 1
                assert session.data_publications == 2
                assert session.worker_launches == launches
        finally:
            backend.close()

    def test_axis_order_mutation_rebuilds_cluster(self):
        tn, tree = _case()
        sliced = sorted(tn.inner_indices())[:4]
        backend = DistributedBackend(num_workers=2)
        try:
            executor = SlicedExecutor(tn, tree, sliced, backend=backend)
            with executor.session() as session:
                first = executor.amplitude()
                assert first == _serial_value(tn, tree, sliced)
                launches = session.worker_launches
                tid = tn.tensor_ids[0]
                tensor = tn.tensor(tid)
                tn.replace_tensor(
                    tid, tensor.transposed(tuple(reversed(tensor.indices)))
                )
                second = executor.amplitude()
                assert second == _serial_value(tn, tree, sliced)
                # every published layout was invalid: fresh workers, fresh
                # plan broadcast, fresh payload
                assert session.worker_launches > launches
                assert session.plan_broadcasts == 2
                assert session.data_publications == 2
        finally:
            backend.close()

    def test_sampler_ships_the_plan_once_and_data_per_batch(self):
        from repro.circuits import grid_circuit
        from repro.execution import CorrelatedSampler

        # 3x3 grid sliced into 8 subtasks per batch at target rank 3
        circ = grid_circuit(3, 3, cycles=6, seed=21)
        kwargs = dict(open_qubits=(0, 2, 4), target_rank=3, max_trials=4, seed=2)
        rng = np.random.default_rng(4)
        backend = DistributedBackend(num_workers=2)
        with CorrelatedSampler(circ, backend=backend, **kwargs) as sampler:
            with sampler.session() as session:
                for batches in range(1, 4):
                    base = [int(b) for b in rng.integers(0, 2, circ.num_qubits)]
                    batch = sampler.compute_batch(base)
                    fresh = CorrelatedSampler(circ, **kwargs).compute_batch(base)
                    # bitwise a fresh serial sampler for this bitstring
                    assert batch.amplitudes.tobytes() == fresh.amplitudes.tobytes()
                    # resident plan: the workers are launched and the plan
                    # broadcast once; each batch publishes data only
                    assert session.plan_broadcasts == 1
                    assert session.data_publications == batches
                    assert session.worker_launches == 2
                    assert sampler.stats.executions == batches * 8
                    assert sampler.stats.timed_subtasks == batches * 8

    def test_closed_session_falls_back_to_ephemeral(self, case, serial_value):
        tn, tree, sliced = case
        backend = DistributedBackend(num_workers=2)
        executor = SlicedExecutor(tn, tree, sliced, backend=backend)
        with executor.session():
            assert executor.amplitude() == serial_value
        backend.close()
        # no session open: run_subtasks brings up a scratch cluster and
        # tears it down again
        try:
            assert executor.amplitude() == serial_value
        finally:
            backend.close()


# ----------------------------------------------------------------------
# satellite: backend specs and argument validation
# ----------------------------------------------------------------------
class TestSpecsAndValidation:
    def test_resolve_backend_distributed_spec(self):
        backend = resolve_backend("distributed")
        assert isinstance(backend, DistributedBackend)
        assert backend.addresses is None
        assert backend.num_workers >= 2

    def test_resolve_backend_address_spec(self):
        backend = resolve_backend("distributed:hostA:1234,hostB:9")
        assert isinstance(backend, DistributedBackend)
        assert backend.addresses == [("hostA", 1234), ("hostB", 9)]
        assert backend.num_workers == 2

    @pytest.mark.parametrize(
        "spec", ["magic", "distributed:hostonly", "distributed:host:notaport"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            resolve_backend(spec)

    def test_validate_execution_args_accepts_specs(self):
        validate_execution_args("compiled", "distributed")
        with pytest.raises(ValueError):
            validate_execution_args("compiled", "magic")

    def test_conflicting_worker_count_and_addresses(self):
        with pytest.raises(ValueError, match="conflicting"):
            DistributedBackend(num_workers=3, addresses=["hostA:1", "hostB:2"])
        with pytest.raises(ValueError, match="empty"):
            DistributedBackend(addresses=[])

    def test_unknown_transport_rejected(self):
        for spec in ("carrier-pigeon", "mpi"):
            backend = DistributedBackend(num_workers=2, transport=spec)
            with pytest.raises(ValueError, match="transport"):
                backend._make_transport()


# ----------------------------------------------------------------------
# satellite: pre-started listener workers (the multi-node topology)
# ----------------------------------------------------------------------
class TestListenTopology:
    def test_listener_worker_end_to_end(self, case, serial_value):
        tn, tree, sliced = case
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.execution.worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_worker_environment(),
            text=True,
        )
        try:
            line = proc.stdout.readline().split()
            assert line[0] == "LISTENING"
            host, port = line[1], int(line[2])
            backend = DistributedBackend(addresses=[f"{host}:{port}"])
            try:
                assert backend.num_workers == 1
                executor = SlicedExecutor(tn, tree, sliced, backend=backend)
                with executor.session():
                    assert executor.amplitude() == serial_value
            finally:
                backend.close()
            # the listener survives the session and re-accepts: a second
            # coordinator reuses the same long-lived node
            backend = DistributedBackend(addresses=[(host, port)])
            try:
                value = SlicedExecutor(
                    tn, tree, sliced, backend=backend
                ).amplitude()
                assert value == serial_value
            finally:
                backend.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


# ----------------------------------------------------------------------
# satellite: comms-aware calibration and measured strong scaling
# ----------------------------------------------------------------------
class TestCalibrationAndScaling:
    def test_calibration_record_carries_comms_terms(self, case, serial_value):
        tn, tree, sliced = case
        backend = DistributedBackend(num_workers=2, chunk_size=1)
        try:
            executor = SlicedExecutor(tn, tree, sliced, backend=backend)
            with executor.session():
                # warm the invariant cache so the record's samples carry
                # the dependent-flops label the fit expects
                assert executor.amplitude() == serial_value
                executor.stats = type(executor.stats)()
                assert executor.amplitude() == serial_value
            record = executor.calibration_record()
            stats = executor.stats
        finally:
            backend.close()
        assert record.backend == "distributed"
        assert record.payload_bytes_per_subtask > 0.0
        assert record.comms_seconds_per_subtask >= 0.0
        # the fitted model keeps the comms constant and prices it into
        # every per-subtask prediction
        model = CalibratedCostModel.fit([record])
        coeff = model.coefficients["distributed"]
        assert coeff.comms_seconds_per_subtask == pytest.approx(
            record.comms_seconds_per_subtask
        )
        assert model.subtask_seconds(
            tree, frozenset(sliced), backend="distributed"
        ) >= coeff.comms_seconds_per_subtask

        # the bench-JSON round trip preserves the comms terms
        payload = {
            "calibration": calibration_payload({"distributed": stats}, tree, sliced)
        }
        entry = payload["calibration"]["backends"]["distributed"]
        assert entry["comms_seconds_per_subtask"] >= 0.0
        assert entry["payload_bytes_per_subtask"] > 0.0
        round_tripped = CalibratedCostModel.from_bench_json(payload)
        assert round_tripped.coefficients[
            "distributed"
        ].payload_bytes_per_subtask == pytest.approx(
            entry["payload_bytes_per_subtask"]
        )

    def test_serial_record_defaults_to_zero_comms(self, case, serial_value):
        tn, tree, sliced = case
        executor = SlicedExecutor(tn, tree, sliced, backend=SerialBackend())
        assert executor.amplitude() == serial_value
        record = executor.calibration_record()
        assert record.comms_seconds_per_subtask == 0.0
        assert record.payload_bytes_per_subtask == 0.0

    def test_measure_strong_scaling_smoke(self, case):
        tn, tree, sliced = case
        points = measure_strong_scaling(
            tn, tree, sliced, worker_counts=(1, 2), repeats=1
        )
        assert [p.num_workers for p in points] == [1, 2]
        for point in points:
            assert isinstance(point, MeasuredScalingPoint)
            assert point.num_subtasks == 16
            assert point.elapsed_seconds > 0.0
            assert point.predicted_seconds > 0.0
            assert point.speedup > 0.0
            assert 0.0 < point.efficiency
            assert point.relative_error >= 0.0
        # the sweep verifies bit-identity against serial internally; no
        # timing assertions here (single-core CI boxes cannot gate
        # speedup — benchmarks/check_distributed_scaling.py does, on the
        # multi-worker trajectory appended by the CI leg)
