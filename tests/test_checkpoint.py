"""Durable checkpointed execution: crash-safe chunk ledger and resume.

The durability contract under test: arm a run with a
:class:`CheckpointStore` (``resume=`` or ``FaultPolicy.checkpoint_dir``),
kill the coordinator at *any* harvest ordinal — in-process via the
``"kill-coordinator"`` fault kind, or for real in a subprocess
(``tests/checkpoint_harness.py``) — and the next run with the same
content fingerprint completes only the missing ordered slots, returning
a result **bit-identical** to an uninterrupted run on every backend.
Resilience counters accumulate across the
restarts, a fingerprint mismatch invalidates the ledger, and the
end-to-end payload checksums (the ``"corrupt-result"`` kind) keep a
poisoned chunk out of both the result and the ledger.  The conftest
audit additionally asserts no test leaves an orphaned checkpoint
``*.tmp``/``*.lock`` behind.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import pickle
import subprocess
import sys
import tempfile
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import random_brickwork_circuit
from repro.execution import (
    CheckpointError,
    CheckpointStore,
    ChunkIntegrityError,
    DistributedBackend,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedCoordinatorDeath,
    RecoveryExhaustedError,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
    job_fingerprint,
)
from repro.execution import checkpoint as checkpoint_module
from repro.execution.checkpoint import payload_checksums, verify_payload
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

pytestmark = [pytest.mark.faults, pytest.mark.checkpoint]

WORKERS = 2
HARNESS = os.path.join(os.path.dirname(__file__), "checkpoint_harness.py")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _case(num_qubits=6, depth=4, seed=13):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    bits = [int(b) for b in np.random.default_rng(seed).integers(0, 2, num_qubits)]
    tn = amplitude_network(circ, bits)
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree


def _sliced(tn):
    return sorted(tn.inner_indices())[:4]


class _FourChunksAProcess(SharedMemoryProcessPoolBackend):
    """The pool cut into four chunks per process, as the thread pool's
    default cuts its runs: the harvest and submission ordinals the
    injectors below fire on count chunks of that size."""

    chunks_per_worker = 4


def _backend(kind):
    if kind == "serial":
        return SerialBackend()
    if kind == "threads":
        return ThreadPoolBackend(WORKERS)
    if kind == "pool":
        # no chunk_size: the configured chunk_size is part of the job
        # fingerprint, so keeping it None lets one ledger resume across
        # all three backends
        return _FourChunksAProcess(WORKERS)
    if kind == "distributed":
        return DistributedBackend(num_workers=WORKERS)
    raise AssertionError(kind)


@pytest.fixture(scope="module")
def case():
    return _case()


@pytest.fixture(scope="module")
def serial_value(case):
    tn, tree = case
    return SlicedExecutor(tn, tree, _sliced(tn), backend=SerialBackend()).amplitude()


# ----------------------------------------------------------------------
# Payload integrity primitives
# ----------------------------------------------------------------------
class TestPayloadIntegrity:
    def test_checksums_round_trip(self):
        arrays = [np.arange(6, dtype=np.complex128), np.zeros((), np.complex128)]
        checksums = payload_checksums(arrays)
        assert verify_payload(arrays, checksums)

    def test_none_checksums_verify_trivially(self):
        assert verify_payload([np.ones(3)], None)

    def test_single_bit_flip_is_detected(self):
        arrays = [np.arange(6, dtype=np.complex128)]
        checksums = payload_checksums(arrays)
        raw = arrays[0].view(np.uint8)
        raw[17] ^= 1
        assert not verify_payload(arrays, checksums)

    def test_length_mismatch_fails(self):
        arrays = [np.ones(2), np.ones(2)]
        assert not verify_payload(arrays, payload_checksums(arrays)[:1])


# ----------------------------------------------------------------------
# Store and job mechanics
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_unwritable_root_fails_fast(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(CheckpointError):
            CheckpointStore(blocker / "store")

    def test_policy_checkpoint_dir_fails_fast_at_run(self, case, tmp_path):
        tn, tree = case
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        policy = FaultPolicy.retrying(checkpoint_dir=str(blocker / "store"))
        executor = SlicedExecutor(
            tn, tree, _sliced(tn), backend=SerialBackend(), fault_policy=policy
        )
        with pytest.raises(CheckpointError):
            executor.run()

    def test_checkpoint_every_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(checkpoint_every=0)

    def test_record_flush_reload_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "ab" * 32
        arrays = {
            0: np.arange(4, dtype=np.complex128).reshape(2, 2),
            2: np.array(3.5 - 1j, dtype=np.complex128),  # 0-d must survive
        }
        job = store.job(fingerprint, num_slots=4)
        for position, array in arrays.items():
            job.record(position, array)
        job.close()
        resumed = store.job(fingerprint, num_slots=4)
        assert sorted(resumed.loaded) == [0, 2]
        for position, array in arrays.items():
            assert resumed.loaded[position].shape == array.shape
            assert resumed.loaded[position].dtype == array.dtype
            np.testing.assert_array_equal(resumed.loaded[position], array)
        resumed.complete()
        assert store.jobs() == []

    def test_complete_retires_the_ledger(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        job = store.job("cd" * 32, num_slots=2)
        job.record(0, np.ones(2))
        job.complete()
        assert store.jobs() == []
        assert not (store.root / ("cd" * 32)).exists()

    def test_checkpoint_every_buffers_records(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        job = store.job("ef" * 32, num_slots=8, every=3)
        slots_dir = store.root / ("ef" * 32) / "slots"
        job.record(0, np.ones(1))
        job.record(1, np.ones(1))
        assert len(list(slots_dir.glob("*.slot"))) == 0  # still buffered
        job.record(2, np.ones(1))
        assert len(list(slots_dir.glob("*.slot"))) == 3  # batch flushed
        job.close()  # close flushes the (empty) tail and unlocks
        resumed = store.job("ef" * 32, num_slots=8, every=3)
        assert sorted(resumed.loaded) == [0, 1, 2]
        resumed.complete()

    def test_torn_tmp_file_is_swept_on_attach(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "01" * 32
        job = store.job(fingerprint, num_slots=2)
        job.record(0, np.ones(3))
        job.close()
        torn = store.root / fingerprint / "slots" / "00000001.slot.tmp"
        torn.write_bytes(b"half-written garbage")
        resumed = store.job(fingerprint, num_slots=2)
        assert not torn.exists()
        assert sorted(resumed.loaded) == [0]
        resumed.complete()

    def test_corrupt_slot_record_is_dropped(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "23" * 32
        job = store.job(fingerprint, num_slots=2)
        job.record(0, np.ones(3))
        job.record(1, np.full(3, 2.0))
        job.close()
        victim = store.root / fingerprint / "slots" / "00000001.slot"
        record = pickle.loads(victim.read_bytes())
        record["data"] = record["data"][:-1] + bytes([record["data"][-1] ^ 1])
        assert zlib.crc32(record["data"]) != record["crc"]
        victim.write_bytes(pickle.dumps(record))
        resumed = store.job(fingerprint, num_slots=2)
        assert sorted(resumed.loaded) == [0]  # bit-rotted slot re-runs
        assert not victim.exists()
        resumed.complete()

    def test_manifest_mismatch_invalidates_ledger(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        job = store.job("45" * 32, num_slots=4)
        job.record(0, np.ones(2))
        job.close()
        # the same directory now claims a different run shape
        resumed = store.job("45" * 32, num_slots=8)
        assert resumed.loaded == {}
        resumed.complete()

    def test_live_foreign_lock_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "67" * 32
        job = store.job(fingerprint, num_slots=2)
        job.close()
        lock = store.root / fingerprint / "job.lock"
        lock.write_text("1")  # pid 1 is always alive and never us
        with pytest.raises(CheckpointError, match="locked by live coordinator"):
            store.job(fingerprint, num_slots=2)
        lock.unlink()
        store.job(fingerprint, num_slots=2).complete()

    def test_dead_coordinator_lock_is_stolen(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "89" * 32
        job = store.job(fingerprint, num_slots=2)
        job.record(0, np.ones(2))
        job.close()
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lock = store.root / fingerprint / "job.lock"
        lock.write_text(str(proc.pid))  # a pid that is provably dead
        resumed = store.job(fingerprint, num_slots=2)
        assert sorted(resumed.loaded) == [0]
        resumed.complete()

    def test_context_manager_completes_on_success_keeps_on_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "ab" * 32
        with pytest.raises(RuntimeError, match="boom"):
            with store.job(fingerprint, num_slots=2) as job:
                job.record(0, np.ones(2))
                raise RuntimeError("boom")
        assert store.jobs() == [fingerprint]  # kept for the resume
        with store.job(fingerprint, num_slots=2) as job:
            assert sorted(job.loaded) == [0]
        assert store.jobs() == []  # clean exit retires it


def _failing(monkeypatch, call, code, target, first=0):
    """Make ``os.<call>`` raise ``code`` for files named ``*<target>``, from
    the ``first``-th such file on (the medium stays full or read-only).

    ``chmod`` cannot make a directory read-only for a root user, so the
    failure is injected where the ledger writes.  ``fsync`` sees a
    descriptor, so ``open`` records which file each one is."""
    real_open, real_fsync = os.open, os.fsync
    names, seen = {}, []

    def hit(path):
        if not str(path).endswith(target):
            return False
        seen.append(path)
        return len(seen) > first

    def failing_open(path, flags, *args, **kwargs):
        if call == "open" and hit(path):
            raise OSError(code, os.strerror(code), str(path))
        fd = real_open(path, flags, *args, **kwargs)
        names[fd] = str(path)
        return fd

    def failing_fsync(fd):
        if call == "fsync" and hit(names.get(fd, "")):
            raise OSError(code, os.strerror(code))
        return real_fsync(fd)

    monkeypatch.setattr(checkpoint_module.os, "open", failing_open)
    monkeypatch.setattr(checkpoint_module.os, "fsync", failing_fsync)


class TestLedgerWriteFailures:
    """A full disk, read-only media or an I/O error mid-run: the run raises
    :class:`CheckpointError` naming the path and the errno, no recorded
    slot leaves the buffer before it is durable, and the resumed run loads
    exactly the durable slots and returns the uninterrupted run's bits."""

    @pytest.mark.parametrize(
        "call,code", [("open", errno.ENOSPC), ("fsync", errno.EIO)], ids=["ENOSPC", "EIO"]
    )
    def test_a_failed_slot_write_is_typed_and_the_resume_exact(
        self, case, serial_value, tmp_path, monkeypatch, call, code
    ):
        tn, tree = case
        sliced = _sliced(tn)
        store = CheckpointStore(tmp_path / "store")
        durable = 3  # the 4th slot record hits the failing medium

        def executor():
            return SlicedExecutor(
                tn, tree, sliced, backend=SerialBackend(), fault_policy=FaultPolicy.retrying()
            )

        with monkeypatch.context() as patch:
            _failing(patch, call, code, ".slot.tmp", first=durable)
            with pytest.raises(CheckpointError) as raised:
                executor().run(resume=store)
        message = str(raised.value)
        assert errno.errorcode[code] in message and f"{durable:08d}.slot" in message
        assert raised.value.__cause__.errno == code
        (fingerprint,) = store.jobs()
        slots = sorted(p.name for p in (store.root / fingerprint / "slots").iterdir())
        assert slots == [f"{position:08d}.slot" for position in range(durable)]
        resumed = executor()
        assert resumed.amplitude(resume=store) == serial_value
        assert resumed.stats.resumed_slots == durable
        assert store.jobs() == []

    def test_read_only_media_at_the_manifest_is_typed(
        self, case, serial_value, tmp_path, monkeypatch
    ):
        tn, tree = case
        store = CheckpointStore(tmp_path / "store")
        executor = SlicedExecutor(tn, tree, _sliced(tn), backend=SerialBackend())
        with monkeypatch.context() as patch:
            _failing(patch, "open", errno.EROFS, "manifest.json.tmp")
            with pytest.raises(CheckpointError, match="EROFS") as raised:
                executor.run(resume=store)
        assert "manifest.json" in str(raised.value)
        # (nothing was durable; the lock was released on the way out)
        assert executor.amplitude(resume=store) == serial_value
        assert executor.stats.resumed_slots == 0

    def test_a_failed_flush_keeps_every_record_buffered(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path / "store")
        job = store.job("cd" * 32, num_slots=4, every=3)
        job.record(0, np.ones(2))
        job.record(1, np.full(2, 2.0))
        with monkeypatch.context() as patch:
            _failing(patch, "open", errno.ENOSPC, ".slot.tmp", first=1)
            with pytest.raises(CheckpointError, match="ENOSPC"):
                job.record(2, np.full(2, 3.0))  # the batch flush: slot 1 fails
        assert [record[0] for record in job._buffer] == [0, 1, 2]
        job.close()  # the medium has room again: all three become durable
        resumed = store.job("cd" * 32, num_slots=4, every=3)
        assert sorted(resumed.loaded) == [0, 1, 2]
        np.testing.assert_array_equal(resumed.loaded[2], np.full(2, 3.0))
        resumed.complete()


class TestLedgerDiscardsAreLogged:
    """A ledger invalidated on attach, and each record dropped on load, is
    one ``WARNING`` with the reason — never silent; a new job logs nothing."""

    @pytest.mark.parametrize(
        "damage,reason",
        [
            ("missing", "missing manifest"),
            ("corrupt", "corrupt manifest"),
            ("version", "format version 99"),
            ("fingerprint", "fingerprint"),
            ("num_slots", "num_slots 4 is not this run's 8"),
        ],
    )
    def test_a_discarded_ledger_says_why(self, tmp_path, caplog, damage, reason):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "45" * 32
        job = store.job(fingerprint, num_slots=4)
        job.record(0, np.ones(2))
        job.close()
        manifest_path = store.root / fingerprint / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if damage == "missing":
            manifest_path.unlink()
        elif damage == "corrupt":
            manifest_path.write_text("{not json")
        elif damage == "version":
            manifest_path.write_text(json.dumps({**manifest, "version": 99}))
        elif damage == "fingerprint":
            manifest_path.write_text(json.dumps({**manifest, "fingerprint": "ff" * 32}))
        with caplog.at_level(logging.WARNING, logger="repro.execution.checkpoint"):
            resumed = store.job(fingerprint, num_slots=8 if damage == "num_slots" else 4)
        assert resumed.loaded == {}
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert reason in record.getMessage() and fingerprint in record.getMessage()
        resumed.complete()

    def test_a_new_job_logs_nothing(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path / "store")
        with caplog.at_level(logging.WARNING, logger="repro.execution.checkpoint"):
            store.job("67" * 32, num_slots=2).complete()
        assert not caplog.records

    def test_each_dropped_record_is_one_warning(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path / "store")
        fingerprint = "23" * 32
        job = store.job(fingerprint, num_slots=3)
        for position in range(3):
            job.record(position, np.full(3, float(position)))
        job.close()
        slots = store.root / fingerprint / "slots"
        (slots / "00000000.slot").write_bytes(b"torn")
        victim = slots / "00000002.slot"
        record = pickle.loads(victim.read_bytes())
        record["crc"] ^= 1
        victim.write_bytes(pickle.dumps(record))
        with caplog.at_level(logging.WARNING, logger="repro.execution.checkpoint"):
            resumed = store.job(fingerprint, num_slots=3)
        assert sorted(resumed.loaded) == [1]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2 and all(r.levelno == logging.WARNING for r in caplog.records)
        assert "slot 0: unreadable" in messages[0] and str(slots / "00000000.slot") in messages[0]
        assert "slot 2: checksum mismatch" in messages[1] and str(victim) in messages[1]
        resumed.complete()


class TestJobFingerprint:
    def test_deterministic_and_content_sensitive(self, case):
        tn, tree = case
        sliced = _sliced(tn)
        assignments = [dict(zip(sliced, values)) for values in [(0, 0, 0, 0), (1, 0, 0, 0)]]
        base = job_fingerprint(tn, tree, sliced, assignments)
        assert base == job_fingerprint(tn, tree, sliced, assignments)
        # the schedule is part of the key: a slot index must keep its meaning
        assert base != job_fingerprint(tn, tree, sliced, assignments[::-1])
        # so are the policy's recovery shape and the chunking
        assert base != job_fingerprint(
            tn, tree, sliced, assignments, policy=FaultPolicy.retrying()
        )
        assert base != job_fingerprint(tn, tree, sliced, assignments, chunk_size=2)

    def test_lazy_assignments_hash_like_the_materialised_list(self, case):
        """``run()`` hands the fingerprint a sequence that decodes ids on
        demand; a ledger written from the materialised dict list (every
        release so far) must still be found."""
        tn, tree = case
        sliced = _sliced(tn)
        executor = SlicedExecutor(tn, tree, sliced)
        for lazy, listed in (
            (executor._assignments_of(range(16)), list(executor.assignments())),
            (executor._assignments_of([5, 2, 2, 11]), [executor.assignment(i) for i in (5, 2, 2, 11)]),
        ):
            assert len(lazy) == len(listed)
            assert list(lazy) == listed == [lazy[k] for k in range(len(lazy))]
            assert all(list(entry) == list(ref) for entry, ref in zip(lazy, listed))  # key order
            assert job_fingerprint(tn, tree, sliced, lazy) == job_fingerprint(
                tn, tree, sliced, listed
            )

    #: The keys ``run(resume=...)`` computed for these jobs before runs
    #: stopped carrying batch axes (recorded at the parent commit): every
    #: ledger written then must still resume.
    PINNED = {
        "golden-13": "3c50bbe3f7d1d30f2077ffd23df5df6aed9fb8622151d77e010f226e5f08aba9",
        "sigma-fold": "acfa46c5dc71c34955e7f26e41fab6ae470848c94fac85f2c71139bbe0cb4375",
        "sampling-batch": "13115fa08006327d00c49586f8d5e6bb496b02f35366753345aa087dbdc0a1f6",
    }

    @pytest.mark.parametrize("job", sorted(PINNED))
    def test_run_keys_are_pinned(self, job, tmp_path, monkeypatch):
        from repro.execution import sliced as sliced_module
        from test_array_module import _case as golden_case
        from test_plan import _sampling_batch

        class Keyed(Exception):
            pass

        def key_and_stop(*args, **kwargs):
            raise Keyed(job_fingerprint(*args, **kwargs))

        if job == "golden-13":
            network, tree, sliced = golden_case(13)  # folds at its root
        elif job == "sigma-fold":
            network, tree, sliced = _folding_case()
        else:
            network, tree, sliced = _sampling_batch()  # folds inside
        executor = SlicedExecutor(network, tree, sliced)
        assert (executor.plan.fold_node != tree.root) == (job == "sigma-fold")
        assert (executor.plan.inner_fold is not None) == (job == "sampling-batch")
        monkeypatch.setattr(sliced_module, "job_fingerprint", key_and_stop)
        with pytest.raises(Keyed) as keyed:
            executor.run(resume=CheckpointStore(tmp_path / "store"))
        assert keyed.value.args[0] == self.PINNED[job]

    def test_leaf_data_is_part_of_the_key(self, case):
        tn, tree = case
        other, _ = _case(seed=14)
        sliced = _sliced(tn)
        assignments = [dict(zip(sliced, (0, 0, 0, 0)))]
        assert job_fingerprint(tn, tree, sliced, assignments) != job_fingerprint(
            other, tree, sliced, assignments
        )


# ----------------------------------------------------------------------
# Corrupt-result: checksums detect, retry heals, the ledger stays clean
# ----------------------------------------------------------------------
class TestCorruptResult:
    @pytest.mark.parametrize("kind", ["threads", "pool"])
    def test_retry_heals_bit_identically(self, case, serial_value, kind):
        # chunk 3's retry re-runs on an arena that has swept other chunks
        # since: it must start from no resume state
        tn, tree = case
        for chunk in (0, 3):
            injector = FaultInjector(
                [FaultSpec("corrupt-result", chunk=chunk, seconds=11)]
            )
            executor = SlicedExecutor(
                tn,
                tree,
                _sliced(tn),
                backend=_backend(kind),
                fault_policy=FaultPolicy.retrying(),
                fault_injector=injector,
            )
            assert executor.amplitude() == serial_value
            assert executor.stats.retries >= 1
            assert executor.stats.faults >= 1
            assert injector.exhausted

    @pytest.mark.parametrize("kind", ["threads", "pool"])
    def test_retry_heals_a_sweep_planned_plan(self, open_case, kind):
        # the retried chunk fetches from the open cache entries again
        tn, tree, sliced, _ = open_case
        serial = SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()
        injector = FaultInjector([FaultSpec("corrupt-result", chunk=3, seconds=11)])
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            backend=_backend(kind),
            fault_policy=FaultPolicy.retrying(),
            fault_injector=injector,
        )
        assert executor.amplitude() == serial
        assert executor.stats.retries >= 1 and injector.exhausted

    def test_fail_fast_raises_integrity_error(self, case):
        tn, tree = case
        injector = FaultInjector([FaultSpec("corrupt-result", chunk=0, seconds=3)])
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(WORKERS),
            fault_policy=FaultPolicy.fail_fast(),
            fault_injector=injector,
        )
        with pytest.raises(ChunkIntegrityError):
            executor.run()

    def test_persistent_corruption_exhausts_the_budget(self, case):
        tn, tree = case
        injector = FaultInjector(
            [FaultSpec("corrupt-result", chunk=0, seconds=3, times=50)]
        )
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(WORKERS),
            fault_policy=FaultPolicy.retrying(max_retries=1),
            fault_injector=injector,
        )
        with pytest.raises(RecoveryExhaustedError):
            executor.run()

    def test_poisoned_slot_is_never_persisted(self, case, serial_value, tmp_path):
        tn, tree = case
        store = CheckpointStore(tmp_path / "store")
        injector = FaultInjector(
            [
                FaultSpec("corrupt-result", chunk=0, seconds=23),
                FaultSpec("kill-coordinator", chunk=3),
            ]
        )
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(WORKERS),
            fault_policy=FaultPolicy.retrying(),
            fault_injector=injector,
        )
        with pytest.raises(InjectedCoordinatorDeath):
            executor.run(resume=store)
        # every slot the interrupted run persisted matches the honest
        # serial value of its position — the corrupted payload never
        # reached the ledger
        [fingerprint] = store.jobs()
        probe = SlicedExecutor(tn, tree, _sliced(tn), backend=SerialBackend())
        job = store.job(fingerprint, num_slots=probe.num_subtasks)
        assert job.loaded  # the kill fired after at least one flush
        for position, array in job.loaded.items():
            honest = probe.amplitude([position])
            assert complex(array.reshape(())) == honest
        job.close()
        # and the resumed run still lands on the exact serial value
        resumed = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(WORKERS),
            fault_policy=FaultPolicy.retrying(),
        )
        assert resumed.amplitude(resume=store) == serial_value


# ----------------------------------------------------------------------
# Resume bit-identity
# ----------------------------------------------------------------------
class TestResume:
    def test_uninterrupted_armed_run_matches_and_retires(
        self, case, serial_value, tmp_path
    ):
        tn, tree = case
        store = CheckpointStore(tmp_path / "store")
        executor = SlicedExecutor(tn, tree, _sliced(tn), backend=SerialBackend())
        assert executor.amplitude(resume=store) == serial_value
        assert executor.stats.checkpointed_slots == executor.num_subtasks
        assert store.jobs() == []

    def test_every_serial_ordinal_resumes_bit_identically(
        self, case, serial_value, tmp_path
    ):
        tn, tree = case
        sliced = _sliced(tn)
        store = CheckpointStore(tmp_path / "store")
        num = SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).num_subtasks
        for ordinal in range(num):
            injector = FaultInjector([FaultSpec("kill-coordinator", chunk=ordinal)])
            interrupted = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=SerialBackend(),
                fault_policy=FaultPolicy.retrying(),
                fault_injector=injector,
            )
            with pytest.raises(InjectedCoordinatorDeath):
                interrupted.run(resume=store)
            resumed = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=SerialBackend(),
                fault_policy=FaultPolicy.retrying(),
            )
            assert resumed.amplitude(resume=store) == serial_value
            assert resumed.stats.resumed_slots == ordinal + 1
            assert store.jobs() == []

    @pytest.mark.parametrize("kind", ["serial", "threads", "pool"])
    def test_ledger_with_every_other_slot_filled(self, case, serial_value, tmp_path, kind):
        """The resumed sweep skips the filled slots, so consecutive executes
        are two ids apart: the walker must compare assignments by value,
        not assume ``id + 1``."""
        tn, tree = case
        sliced = _sliced(tn)
        policy = FaultPolicy.retrying()
        executor = SlicedExecutor(
            tn, tree, sliced, backend=_backend(kind), fault_policy=policy
        )
        num = executor.num_subtasks
        store = CheckpointStore(tmp_path / "store")
        fingerprint = job_fingerprint(
            tn,
            tree,
            sliced,
            [executor.assignment(i) for i in range(num)],
            dtype=executor.plan.dtype,
            policy=policy,
            chunk_size=None,
        )
        job = store.job(fingerprint, num_slots=num)
        for position in range(0, num, 2):
            data = executor.run_subtask(position).tensor.require_data()
            job.record(position, np.array(data, copy=True))
        job.close()
        assert executor.amplitude(resume=store) == serial_value
        assert executor.stats.resumed_slots == num // 2
        assert store.jobs() == []

    @pytest.mark.parametrize("kind", ["serial", "threads", "pool"])
    def test_half_filled_ledger_of_a_sweep_planned_plan(self, open_case, tmp_path, kind):
        """Skipped slots are gaps in a sweep that fetches from open cache
        entries and retains partials: still compared by value, still the
        serial bits."""
        tn, tree, sliced, _ = open_case
        serial_value = SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()
        policy = FaultPolicy.retrying()
        executor = SlicedExecutor(
            tn, tree, sliced, backend=_backend(kind), fault_policy=policy
        )
        num = executor.num_subtasks
        store = CheckpointStore(tmp_path / "store")
        fingerprint = job_fingerprint(
            tn,
            tree,
            sliced,
            [executor.assignment(i) for i in range(num)],
            dtype=executor.plan.dtype,
            policy=policy,
            chunk_size=None,
        )
        job = store.job(fingerprint, num_slots=num)
        for position in range(0, num, 2):
            data = executor.run_subtask(position).tensor.require_data()
            job.record(position, np.array(data, copy=True))
        job.close()
        assert executor.amplitude(resume=store) == serial_value
        assert executor.stats.resumed_slots == num // 2
        assert store.jobs() == []

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ordinal=st.integers(min_value=0, max_value=5),
        kind=st.sampled_from(["serial", "threads", "pool"]),
    )
    def test_resume_bit_identity_property(self, case, serial_value, ordinal, kind):
        """Kill at a drawn harvest ordinal on a drawn backend — the resumed
        amplitude is bitwise the serial reference."""
        tn, tree = case
        sliced = _sliced(tn)
        root = tempfile.mkdtemp(prefix="ckpt-prop-")
        try:
            store = CheckpointStore(root)
            injector = FaultInjector([FaultSpec("kill-coordinator", chunk=ordinal)])
            interrupted = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=_backend(kind),
                fault_policy=FaultPolicy.retrying(),
                fault_injector=injector,
            )
            with pytest.raises(InjectedCoordinatorDeath):
                interrupted.run(resume=store)
            # resume on a *different* backend: the ledger is keyed
            # by content, not by how the slots were computed
            resume_kind = {"serial": "threads", "threads": "pool", "pool": "serial"}[
                kind
            ]
            resumed = SlicedExecutor(
                tn,
                tree,
                sliced,
                backend=_backend(resume_kind),
                fault_policy=FaultPolicy.retrying(),
            )
            assert resumed.amplitude(resume=store) == serial_value
            assert resumed.stats.resumed_slots >= 1
            assert store.jobs() == []
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_batched_sweep_resumes_bit_identically(self, case, serial_value, tmp_path):
        """``batch_indices=`` selects nothing, so a ledger written under it
        is the plain run's: a run without it resumes from there."""
        tn, tree = case
        sliced = _sliced(tn)
        batch = sliced[:2]
        store = CheckpointStore(tmp_path / "store")
        injector = FaultInjector([FaultSpec("kill-coordinator", chunk=1)])
        interrupted = SlicedExecutor(
            tn,
            tree,
            sliced,
            backend=SerialBackend(),
            batch_indices=batch,
            fault_policy=FaultPolicy.retrying(),
            fault_injector=injector,
        )
        with pytest.raises(InjectedCoordinatorDeath):
            interrupted.run(resume=store)
        resumed = SlicedExecutor(
            tn, tree, sliced, backend=SerialBackend(), fault_policy=FaultPolicy.retrying()
        )
        result = resumed.run(resume=store)
        assert complex(result.require_data().reshape(())) == serial_value
        assert resumed.stats.resumed_slots == 2
        assert store.jobs() == []

    def test_stats_accumulate_across_restarts(self, case, serial_value, tmp_path):
        tn, tree = case
        store = CheckpointStore(tmp_path / "store")
        # the corrupted first chunk fails its checksum in wave 1 and is
        # retried in wave 2; harvest ordinal 7 is that retried chunk (the
        # 7 clean chunks consumed ordinals 0-6), so the coordinator dies
        # right after the retry's slots — and the bumped retry counters —
        # became durable
        injector = FaultInjector(
            [
                FaultSpec("corrupt-result", chunk=0, seconds=7),
                FaultSpec("kill-coordinator", chunk=7),
            ]
        )
        interrupted = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(WORKERS),
            fault_policy=FaultPolicy.retrying(),
            fault_injector=injector,
        )
        with pytest.raises(InjectedCoordinatorDeath):
            interrupted.run(resume=store)
        assert interrupted.stats.retries >= 1
        resumed = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(WORKERS),
            fault_policy=FaultPolicy.retrying(),
        )
        assert resumed.amplitude(resume=store) == serial_value
        # the fresh executor faulted zero times itself: everything it
        # reports was merged in from the interrupted run's stats.json
        assert resumed.stats.retries >= interrupted.stats.retries
        assert resumed.stats.faults >= interrupted.stats.faults
        assert resumed.stats.recovery_seconds > 0.0

    def test_fingerprint_mismatch_invalidates_ledger(self, case, tmp_path):
        tn, tree = case
        sliced = _sliced(tn)
        store = CheckpointStore(tmp_path / "store")
        injector = FaultInjector([FaultSpec("kill-coordinator", chunk=4)])
        interrupted = SlicedExecutor(
            tn,
            tree,
            sliced,
            backend=SerialBackend(),
            fault_policy=FaultPolicy.retrying(),
            fault_injector=injector,
        )
        with pytest.raises(InjectedCoordinatorDeath):
            interrupted.run(resume=store)
        assert len(store.jobs()) == 1
        # a different circuit: same shape of run, different content
        other_tn, other_tree = _case(seed=14)
        other_ref = SlicedExecutor(
            other_tn, other_tree, _sliced(other_tn), backend=SerialBackend()
        ).amplitude()
        fresh = SlicedExecutor(
            other_tn,
            other_tree,
            _sliced(other_tn),
            backend=SerialBackend(),
            fault_policy=FaultPolicy.retrying(),
        )
        assert fresh.amplitude(resume=store) == other_ref
        assert fresh.stats.resumed_slots == 0  # nothing was trusted

    def test_reference_mode_rejects_resume(self, case, tmp_path):
        tn, tree = case
        executor = SlicedExecutor(tn, tree, _sliced(tn), mode="reference")
        with pytest.raises(ValueError, match="compiled mode"):
            executor.run(resume=str(tmp_path / "store"))


# ----------------------------------------------------------------------
# The real thing: coordinator death in a subprocess, resume in a fresh one
# ----------------------------------------------------------------------
def _run_harness(store_root, backend, kill):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, HARNESS, str(store_root), backend, kill],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )


def _parse_result(stdout):
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            return complex(line[len("RESULT ") :])
    raise AssertionError(f"no RESULT line in harness output:\n{stdout}")


class TestCoordinatorCrashEndToEnd:
    @pytest.mark.parametrize("kill_ordinal", [0, 3])
    def test_pool_coordinator_crash_resumes_bit_identically(
        self, serial_value, tmp_path, kill_ordinal
    ):
        store_root = tmp_path / "store"
        killed = _run_harness(store_root, "pool", str(kill_ordinal))
        assert killed.returncode != 0, killed.stdout + killed.stderr
        assert "InjectedCoordinatorDeath" in killed.stderr
        assert "RESULT" not in killed.stdout  # it really died mid-run
        resumed = _run_harness(store_root, "pool", "none")
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        # repr() round-trips floats exactly, so this equality is bitwise
        assert _parse_result(resumed.stdout) == serial_value
        # harvest ordinal k dying after its record leaves k+1 durable
        # chunks of CHUNK_SIZE=2 slots each
        assert "STATS resumed=%d" % (2 * (kill_ordinal + 1)) in resumed.stdout
        assert CheckpointStore(store_root).jobs() == []

    @pytest.mark.distributed
    def test_distributed_coordinator_crash_resumes_bit_identically(
        self, serial_value, tmp_path
    ):
        store_root = tmp_path / "store"
        killed = _run_harness(store_root, "distributed", "2")
        assert killed.returncode != 0, killed.stdout + killed.stderr
        assert "InjectedCoordinatorDeath" in killed.stderr
        resumed = _run_harness(store_root, "distributed", "none")
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert _parse_result(resumed.stdout) == serial_value

    @pytest.mark.distributed
    def test_distributed_resume_after_cluster_loss_in_process(
        self, case, serial_value, tmp_path
    ):
        """The whole cluster (coordinator + spawned workers) goes away
        mid-run; a brand-new cluster resumes from the ledger alone."""
        tn, tree = case
        store = CheckpointStore(tmp_path / "store")
        injector = FaultInjector([FaultSpec("kill-coordinator", chunk=2)])
        interrupted = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=DistributedBackend(num_workers=WORKERS, chunk_size=2),
            fault_policy=FaultPolicy.retrying(),
            fault_injector=injector,
        )
        with pytest.raises(InjectedCoordinatorDeath):
            interrupted.run(resume=store)
        resumed = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=DistributedBackend(num_workers=WORKERS, chunk_size=2),
            fault_policy=FaultPolicy.retrying(),
        )
        assert resumed.amplitude(resume=store) == serial_value
        assert resumed.stats.resumed_slots >= 1
        assert store.jobs() == []


# ----------------------------------------------------------------------
# Degradation goes through the one harvest path: its slots are durable
# ----------------------------------------------------------------------
class TestDegradedSlotsReachTheLedger:
    @pytest.mark.parametrize(
        "kind",
        ["threads", "pool", pytest.param("distributed", marks=pytest.mark.distributed)],
    )
    def test_degraded_run_records_every_slot(self, case, serial_value, tmp_path, kind):
        """A persistently failing backend finishes on the degradation
        chain; every slot — the degraded ones included — was written
        ahead to the ledger before the fold."""
        tn, tree = case
        backend = _backend(kind)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.degrading(
                max_retries=1, backoff_seconds=0.0, degradation_chain=("serial",)
            ),
            fault_injector=FaultInjector(
                [FaultSpec("poison-pickle", chunk=0, times=1000)]
            ),
        )
        try:
            value = executor.amplitude(resume=CheckpointStore(tmp_path / "store"))
        finally:
            backend.close()
        assert value == serial_value
        assert executor.stats.degraded_to == "serial"
        assert (
            executor.stats.checkpointed_slots + executor.stats.resumed_slots
            == executor.num_subtasks
        )


def _folding_case():
    """``(network, tree, sliced)`` of a 3x4 grid circuit whose plan sums its
    subtasks below the root: a slot holds the fold node's ``(2, 2, 2)``
    array, where a root-folding build's held a scalar."""
    from repro.circuits import grid_circuit
    from repro.pipeline import SimulationPlanner

    bits = [int(b) for b in np.random.default_rng(3).integers(0, 2, 12)]
    circuit = grid_circuit(3, 4, cycles=10, seed=3)
    planner = SimulationPlanner(target_rank=6, max_trials=8, seed=1)
    planned = planner.plan_circuit(circuit, bits, concrete=True)
    return planned.network, planned.tree, sorted(planned.slicing.sliced)


class TestFoldLedgers:
    """A slot holds the plan's contribution — the fold node's array — so the
    fingerprint covers the fold, and a slot of the wrong shape never folds."""

    def test_a_ledger_written_under_another_fold_starts_clean(self, tmp_path, monkeypatch):
        from repro.core import lifetime as lifetime_module

        network, tree, sliced = _folding_case()
        uninterrupted = SlicedExecutor(network, tree, sliced)
        assert uninterrupted.plan.fold_node != tree.root
        value = uninterrupted.amplitude()
        store = CheckpointStore(tmp_path / "store")
        policy = FaultPolicy.retrying()
        half = uninterrupted.num_subtasks // 2
        with monkeypatch.context() as patch:
            # a build that folds at the root: its slots hold root scalars
            patch.setattr(lifetime_module, "_outer_fold", lambda tree, *_: tree.root)
            root_fold = SlicedExecutor(
                network,
                tree,
                sliced,
                fault_policy=policy,
                fault_injector=FaultInjector([FaultSpec("kill-coordinator", chunk=half)]),
            )
        assert root_fold.plan.fold_node == tree.root
        with pytest.raises(InjectedCoordinatorDeath):
            root_fold.run(resume=store)
        stale = store.jobs()
        assert len(stale) == 1
        resumed = SlicedExecutor(network, tree, sliced, fault_policy=policy)
        assert resumed.amplitude(resume=store) == value  # bitwise
        assert resumed.stats.resumed_slots == 0
        # (the run's own ledger retired; the other fold's is another job)
        assert store.jobs() == stale

    @pytest.mark.parametrize("kind", ["serial", "threads"])
    def test_a_slot_of_another_shape_is_refused(self, tmp_path, kind):
        """Keyed exactly as this run keys it, but holding a root scalar: the
        fold raises a typed error instead of broadcasting the scalar."""
        network, tree, sliced = _folding_case()
        policy = FaultPolicy.retrying()
        executor = SlicedExecutor(
            network, tree, sliced, backend=_backend(kind), fault_policy=policy
        )
        plan = executor.plan
        num = executor.num_subtasks
        fingerprint = job_fingerprint(
            network,
            tree,
            sliced,
            [executor.assignment(i) for i in range(num)],
            dtype=plan.dtype,
            policy=policy,
            chunk_size=None,
            fold=(plan.fold_node, plan.contribution_shape),
        )
        assert fingerprint != job_fingerprint(
            network,
            tree,
            sliced,
            [executor.assignment(i) for i in range(num)],
            dtype=plan.dtype,
            policy=policy,
            chunk_size=None,
        )
        store = CheckpointStore(tmp_path / "store")
        job = store.job(fingerprint, num_slots=num)
        job.record(0, np.zeros((), dtype=plan.dtype))
        job.close()
        with pytest.raises(CheckpointError, match=r"shape \(\)"):
            executor.run(resume=store)
        assert store.jobs() == [fingerprint]  # kept, unlocked, for inspection

    @pytest.mark.parametrize("kind,killed_at", [("serial", 15), ("pool", 3)])
    def test_a_killed_and_resumed_sampling_batch_is_bitwise_a_clean_one(
        self, tmp_path, kind, killed_at
    ):
        """A slot is one block of the batch's inner fold: 16 of its 32 blocks
        are durable when the coordinator dies (16 slots serially, 4 chunks
        of 4 blocks on the pool), and the resumed batch is a clean one."""
        from test_plan import _sampling_batch

        network, tree, sliced = _sampling_batch()
        clean = SlicedExecutor(network, tree, sliced).run().require_data().tobytes()
        store = CheckpointStore(tmp_path / "store")
        policy = FaultPolicy.retrying()
        killer = FaultInjector([FaultSpec("kill-coordinator", chunk=killed_at)])
        with _backend(kind) as backend:
            killed = SlicedExecutor(
                network, tree, sliced, backend=backend, fault_policy=policy, fault_injector=killer
            )
            assert killed.plan.inner_fold == (87, 5)
            with pytest.raises(InjectedCoordinatorDeath):
                killed.run(resume=store)
            resumed = SlicedExecutor(network, tree, sliced, backend=backend, fault_policy=policy)
            assert resumed.run(resume=store).require_data().tobytes() == clean
        assert resumed.stats.resumed_slots == 16
        assert store.jobs() == []

    def test_a_fold_free_ledger_starts_an_inner_folding_run_clean(self, tmp_path, monkeypatch):
        """The fingerprint covers the inner fold, so a ledger of a fold-free
        build of the same batch — subtask slots — is another job: neither
        loaded nor discarded, it stays in the store."""
        from test_plan import _sampling_batch

        from repro.core import lifetime

        network, tree, sliced = _sampling_batch()
        clean = SlicedExecutor(network, tree, sliced)
        bits = clean.run().require_data().tobytes()
        plan = clean.plan
        keyed = {
            inner: job_fingerprint(
                network,
                tree,
                sliced,
                [clean.assignment(i) for i in range(clean.num_subtasks)],
                fold=(plan.fold_node, plan.contribution_shape, inner),
            )
            for inner in (None, plan.inner_fold)
        }
        assert keyed[None] != keyed[plan.inner_fold]
        store = CheckpointStore(tmp_path / "store")
        policy = FaultPolicy.retrying()
        with monkeypatch.context() as patch:
            patch.setattr(lifetime, "INNER_FOLD_PRODUCT", 0.0)
            fold_free = SlicedExecutor(
                network,
                tree,
                sliced,
                fault_policy=policy,
                fault_injector=FaultInjector([FaultSpec("kill-coordinator", chunk=100)]),
            )
        assert fold_free.plan.inner_fold is None
        with pytest.raises(InjectedCoordinatorDeath):
            fold_free.run(resume=store)
        stale = store.jobs()
        assert len(stale) == 1
        resumed = SlicedExecutor(network, tree, sliced, fault_policy=policy)
        assert resumed.run(resume=store).require_data().tobytes() == bits
        assert resumed.stats.resumed_slots == 0
        assert store.jobs() == stale
