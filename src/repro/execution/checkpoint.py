"""Durable checkpointed execution: a crash-safe chunk ledger on disk.

Every recovery path of the resilience layer
(:mod:`repro.execution.resilience`) lives in the coordinator's memory: a
worker death, a wedged chunk, or a dropped connection is healed without
losing the contributions already harvested — but a *coordinator* crash
(OOM kill, node reboot, power loss) loses the entire sliced contraction.
This module closes that gap with a write-ahead chunk ledger:

* :class:`CheckpointStore` — a directory of *jobs*, each keyed by a
  content fingerprint of the run (:func:`job_fingerprint`: leaf data,
  contraction tree, slicing assignments, batch-axis count, what a slot
  holds when the plan sums below its root, plus the fault policy and
  chunking the run was configured with).
* :class:`CheckpointJob` — one run's ledger: a ``manifest.json``, a
  ``stats.json`` with the resilience counters accumulated across
  restarts, and one checksummed record per completed ordered slot — one
  block of the plan (:meth:`~repro.execution.plan.CompiledPlan.blocks`),
  a subtask unless it folds inside — under ``slots/``.  Records are
  written atomically (tmp file → ``fsync`` → ``os.replace`` → directory
  ``fsync``), so a crash can lose at most the unflushed tail — never
  corrupt a persisted slot.

The backends persist each ordered contribution as it is harvested
(``ExecutionBackend.run_subtasks(checkpoint=...)``), batched every
``FaultPolicy.checkpoint_every`` completions to bound the overhead.  On
restart, :meth:`~repro.execution.SlicedExecutor.run` with ``resume=``
(or a policy carrying ``checkpoint_dir``) re-opens the job: a matching
fingerprint pre-fills the ordered slots from the ledger and re-runs only
the missing assignments; a mismatch invalidates the ledger and starts
clean.  Because the backends fold per-position contributions strictly in
assignment order after all slots fill, a resumed run is **bit-identical**
to an uninterrupted one on every backend × engine combination — the same ordered-accumulation contract that already makes
recovered and degraded runs exact.

Integrity is end-to-end: workers ship a CRC-32 per contribution with
every chunk (:func:`payload_checksums`), the coordinator verifies it at
harvest (:func:`verify_payload`) *before* a slot is written into the
ledger, and slot records carry their own checksum verified at load.  A
corrupted chunk payload (see the ``"corrupt-result"`` kind in
:mod:`repro.execution.faultinject`) therefore surfaces as an ordinary
chunk failure routed through the per-chunk retry budget — a poisoned
slot is never persisted — and a torn or bit-rotted record on disk is
dropped (and re-run) instead of folded into the result.

Concurrent coordinators are excluded per job with a pid-stamped
``job.lock``; a lock left by a dead coordinator is stolen on resume.
Stores raise :exc:`CheckpointError` on unwritable roots — durability is
fail-fast, never silently absent — and a write that fails mid-run (a full
disk, read-only media, an I/O error) raises it too, naming the path and
the errno, with every record not yet durable still buffered.  Nothing is
discarded silently: a ledger invalidated on attach and each record dropped
on load log one ``WARNING`` on :data:`logger` with the reason.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import pickle
import shutil
import zlib
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tensornet.contraction_tree import ContractionTree
    from ..tensornet.network import TensorNetwork
    from .plan import PlanStats
    from .resilience import FaultPolicy

__all__ = [
    "CheckpointError",
    "CheckpointJob",
    "CheckpointStore",
    "job_fingerprint",
    "payload_checksums",
    "verify_payload",
]

#: ``WARNING`` per ledger discarded on attach and per record dropped on load.
logger = logging.getLogger(__name__)

#: On-disk format version stamped into manifests and slot records.
_FORMAT_VERSION = 1

#: Store roots created in this process — the test suite's orphan audit
#: (``tests/conftest.py``) scans these for leftover ``*.tmp`` / ``*.lock``
#: files after every test, so interrupted-write cleanup is enforced
#: suite-wide.
_AUDIT_ROOTS: Set[str] = set()

#: The resilience counters persisted in ``stats.json`` and accumulated
#: across coordinator restarts.
_STATS_FIELDS = ("retries", "faults", "recovery_seconds")


class CheckpointError(RuntimeError):
    """A checkpoint store is unusable (unwritable root, lock conflict, a
    failed write, a ledger slot this run cannot fold)."""


def _write_failed(path: os.PathLike, exc: OSError) -> CheckpointError:
    """The typed error of a ledger write that failed with ``exc``."""
    code = errno.errorcode.get(exc.errno, str(exc.errno)) if exc.errno else "no errno"
    return CheckpointError(f"checkpoint write to {path} failed: {code} ({exc.strerror or exc})")


# ----------------------------------------------------------------------
# Payload integrity (wire-level, used by every backend's harvest path)
# ----------------------------------------------------------------------
def _array_crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def payload_checksums(arrays: Sequence[np.ndarray]) -> List[int]:
    """CRC-32 per contribution, computed where the chunk was executed.

    Shipped alongside the result arrays so the coordinator can verify the
    payload survived the trip (process boundary, socket, shared memory)
    intact — the detection path for the ``"corrupt-result"`` fault kind.
    """
    return [_array_crc(array) for array in arrays]


def verify_payload(
    arrays: Sequence[np.ndarray], checksums: Optional[Sequence[int]]
) -> bool:
    """Whether every contribution matches its shipped checksum.

    ``None`` checksums (a pre-checksum producer) verify trivially, so the
    harvest paths can call this unconditionally.
    """
    if checksums is None:
        return True
    if len(checksums) != len(arrays):
        return False
    return all(
        _array_crc(array) == checksum for array, checksum in zip(arrays, checksums)
    )


# ----------------------------------------------------------------------
# Job fingerprint
# ----------------------------------------------------------------------
def job_fingerprint(
    network: "TensorNetwork",
    tree: "ContractionTree",
    sliced: Sequence[str],
    assignments: Sequence[Mapping[str, int]],
    sum_batch_axes: int = 0,
    dtype: Optional[object] = None,
    policy: Optional["FaultPolicy"] = None,
    chunk_size: Optional[int] = None,
    fold: Optional[Tuple] = None,
) -> str:
    """Content hash identifying a resumable run.

    Unlike the identity-based fingerprints of the in-memory sessions
    (which die with the process), this one is computed from *content*:
    the raw bytes of every leaf tensor, the contraction tree's SSA path,
    the sliced index set, the ordered assignment schedule, the batch-axis
    count, what a slot holds when it is not one subtask's root array —
    ``fold``, the ``(fold node, contribution shape)`` of a plan that sums
    below its root (:attr:`~repro.execution.plan.CompiledPlan.fold_node`),
    optionally followed by its ``(node, level)`` inner fold, which makes a
    slot one block
    (:attr:`~repro.execution.plan.CompiledPlan.inner_fold`) — and, per
    the ledger contract, the fault policy's recovery
    shape and the backend's chunking.  Anything that could change the
    accumulated value (or the meaning of a slot position) changes the
    fingerprint; anything that provably cannot (backend choice, worker
    count, walker or native tape engine) is deliberately
    excluded, so a ledger written by one backend seeds a resume on any
    other.
    """
    digest = hashlib.sha256(b"repro-checkpoint-v%d" % _FORMAT_VERSION)

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")

    feed(repr(tuple(tree.ssa_path)))
    feed(repr(tuple(sorted(sliced))))
    for tid in tree.leaf_tids:
        tensor = network.tensor(tid)
        data = np.ascontiguousarray(tensor.require_data())
        feed(f"leaf:{tid}:{tensor.indices!r}:{data.dtype.str}:{data.shape!r}")
        digest.update(data.tobytes())
        digest.update(b"\x00")
    feed(f"batch-axes:{int(sum_batch_axes)}")
    if fold is not None:
        # (a root fold hashes as every ledger written before folds existed)
        feed(f"fold:{fold[0]}:{tuple(fold[1])!r}")
        if len(fold) > 2 and fold[2] is not None:
            feed(f"inner-fold:{fold[2][0]}:{fold[2][1]}")
    feed(f"dtype:{np.dtype(dtype).str if dtype is not None else None}")
    for assignment in assignments:
        feed(repr(tuple(sorted(assignment.items()))))
    feed(repr(_policy_descriptor(policy)))
    feed(f"chunking:{chunk_size}")
    return digest.hexdigest()


def _policy_descriptor(policy: Optional["FaultPolicy"]) -> Optional[Tuple]:
    if policy is None:
        return None
    return (policy.mode, policy.max_retries, policy.checkpoint_every)


# ----------------------------------------------------------------------
# Atomic file helpers
# ----------------------------------------------------------------------
def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-ahead discipline: tmp file, flush, fsync, rename.

    A crash at any point leaves either the old file, the new file, or an
    orphaned ``*.tmp`` that the next attach sweeps — never a torn
    ``path``.  The caller fsyncs the directory once per flush batch.
    """
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class CheckpointStore:
    """A root directory of fingerprint-keyed :class:`CheckpointJob` ledgers.

    One store can hold many jobs (e.g. a :class:`CorrelatedSampler`
    writes one per base bitstring — each batch contracts a different
    network, so each gets its own fingerprint and ledger).  Construction
    fails fast on an unwritable root: a run configured for durability
    must never silently run without it.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint root {self.root} is not creatable: {exc}"
            ) from exc
        if not os.access(self.root, os.W_OK | os.X_OK):
            raise CheckpointError(f"checkpoint root {self.root} is not writable")
        _AUDIT_ROOTS.add(str(self.root))

    def job(
        self,
        fingerprint: str,
        num_slots: int,
        every: int = 1,
        policy: Optional["FaultPolicy"] = None,
        chunk_size: Optional[int] = None,
    ) -> "CheckpointJob":
        """Open (resuming) or create the ledger for ``fingerprint``."""
        return CheckpointJob(
            self, fingerprint, num_slots, every, policy=policy, chunk_size=chunk_size
        )

    def jobs(self) -> List[str]:
        """Fingerprints of the ledgers currently present in the store."""
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / "manifest.json").exists()
        )

    def clear(self) -> None:
        """Remove every ledger (a fresh store)."""
        for entry in list(self.root.iterdir()):
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore(root={str(self.root)!r})"


class CheckpointJob:
    """One run's write-ahead ledger; see the module docstring for the model.

    Attributes
    ----------
    loaded:
        Validated per-position contributions recovered from a previous
        (interrupted) run of the same fingerprint.  The backends pre-fill
        their ordered slots from this dict and re-run only the rest.
    prior_stats:
        The resilience counters persisted by previous runs;
        :meth:`attach_stats` merges them into the live
        :class:`~repro.execution.plan.PlanStats` so retries/faults/
        recovery seconds accumulate across restarts.
    """

    def __init__(
        self,
        store: CheckpointStore,
        fingerprint: str,
        num_slots: int,
        every: int = 1,
        policy: Optional["FaultPolicy"] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if every < 1:
            raise ValueError("every must be >= 1")
        self.fingerprint = fingerprint
        self.num_slots = int(num_slots)
        self.every = int(every)
        self.dir = store.root / fingerprint
        self._slots_dir = self.dir / "slots"
        self._lock_path = self.dir / "job.lock"
        self._manifest_path = self.dir / "manifest.json"
        self._stats_path = self.dir / "stats.json"
        self._closed = False
        self._locked = False
        self._buffer: List[Tuple[int, str, Tuple[int, ...], bytes, int]] = []
        self._recorded: Set[int] = set()
        self._stats: Optional["PlanStats"] = None
        self._stats_offsets: Dict[str, float] = {}
        self.loaded: Dict[int, np.ndarray] = {}
        self.prior_stats: Dict[str, float] = {}
        try:
            self._slots_dir.mkdir(parents=True, exist_ok=True)
            self._acquire_lock()
            self._attach(policy, chunk_size)
        except BaseException as exc:
            self._release_lock()
            if isinstance(exc, OSError):
                raise _write_failed(exc.filename or self.dir, exc) from exc
            raise

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def _acquire_lock(self) -> None:
        for attempt in (0, 1):
            try:
                fd = os.open(
                    self._lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                holder = self._lock_holder()
                if holder is not None and _pid_alive(holder) and holder != os.getpid():
                    raise CheckpointError(
                        f"checkpoint job {self.fingerprint[:12]} is locked by "
                        f"live coordinator pid {holder}"
                    )
                # a dead coordinator's lock: steal it (the whole point of
                # the ledger is surviving exactly that death)
                try:
                    os.unlink(self._lock_path)
                except FileNotFoundError:  # pragma: no cover - lost race
                    pass
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            self._locked = True
            return
        raise CheckpointError(  # pragma: no cover - needs a racing writer
            f"could not acquire checkpoint lock {self._lock_path}"
        )

    def _lock_holder(self) -> Optional[int]:
        try:
            return int(self._lock_path.read_text().strip())
        except (OSError, ValueError):
            return None

    def _release_lock(self) -> None:
        if not self._locked:
            return
        self._locked = False
        try:
            os.unlink(self._lock_path)
        except FileNotFoundError:  # pragma: no cover - dir already removed
            pass

    # ------------------------------------------------------------------
    # Attach: validate the manifest, sweep torn writes, load the slots
    # ------------------------------------------------------------------
    def _attach(
        self, policy: Optional["FaultPolicy"], chunk_size: Optional[int]
    ) -> None:
        reason = self._mismatch()
        if reason is not None:
            # the ledger describes some other run (or none yet): invalidate
            # it wholesale — audibly, unless there was nothing to discard
            if self._invalidate():
                logger.warning("discarding checkpoint ledger %s: %s", self.dir, reason)
            self._write_manifest(policy, chunk_size)
            return
        self._sweep_tmp_files()
        self._load_slots()
        self._load_prior_stats()

    def _mismatch(self) -> Optional[str]:
        """Why the ledger on disk is not this run's (``None``: it is)."""
        try:
            manifest = json.loads(self._manifest_path.read_text())
        except FileNotFoundError:
            return "missing manifest"
        except (OSError, ValueError) as exc:
            return f"corrupt manifest ({exc})"
        if not isinstance(manifest, dict):
            return "corrupt manifest (not a JSON object)"
        for label, key, ours in (
            ("format version", "version", _FORMAT_VERSION),
            ("fingerprint", "fingerprint", self.fingerprint),
            ("num_slots", "num_slots", self.num_slots),
        ):
            if manifest.get(key) != ours:
                return f"{label} {manifest.get(key)!r} is not this run's {ours!r}"
        return None

    def _write_manifest(
        self, policy: Optional["FaultPolicy"], chunk_size: Optional[int]
    ) -> None:
        manifest = {
            "version": _FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "num_slots": self.num_slots,
            "policy": _policy_descriptor(policy),
            "chunking": chunk_size,
        }
        _atomic_write(self._manifest_path, json.dumps(manifest, indent=2).encode())
        _fsync_dir(self.dir)

    def _invalidate(self) -> bool:
        """Remove all but the lock; whether there was anything to remove."""
        discarded = False
        for entry in list(self.dir.iterdir()):
            if entry == self._lock_path:
                continue
            if entry.is_dir():
                discarded = discarded or any(entry.iterdir())
                shutil.rmtree(entry, ignore_errors=True)
            else:
                discarded = True
                entry.unlink(missing_ok=True)
        self._slots_dir.mkdir(parents=True, exist_ok=True)
        self.loaded = {}
        self.prior_stats = {}
        return discarded

    def _sweep_tmp_files(self) -> None:
        # a crash between tmp-write and rename leaves an orphan; it holds
        # nothing durable (the rename never happened), so remove it
        for tmp in list(self.dir.rglob("*.tmp")):
            tmp.unlink(missing_ok=True)

    def _load_slots(self) -> None:
        for path in sorted(self._slots_dir.glob("*.slot")):
            record = self._read_slot(path)
            if isinstance(record, str):
                # torn or bit-rotted record: drop it — the slot simply
                # re-runs, which is always safe
                logger.warning(
                    "dropping checkpoint record %s for slot %s: %s; the slot re-runs",
                    path,
                    int(path.stem) if path.stem.isdigit() else path.stem,
                    record,
                )
                path.unlink(missing_ok=True)
                continue
            position, array = record
            self.loaded[position] = array
            self._recorded.add(position)

    def _read_slot(self, path: Path) -> Union[Tuple[int, np.ndarray], str]:
        """``(position, array)`` of a slot record, or why it is unusable."""
        try:
            record = pickle.loads(path.read_bytes())
            position = int(record["position"])
            data = record["data"]
            if record["version"] != _FORMAT_VERSION:
                return f"format version {record['version']!r}"
            if not 0 <= position < self.num_slots or path.stem != f"{position:08d}":
                return f"it holds position {position}"
            if zlib.crc32(data) != record["crc"]:
                return "checksum mismatch"
            array = np.frombuffer(data, dtype=np.dtype(record["dtype"]))
            return position, array.reshape(record["shape"]).copy()
        except Exception as exc:
            return f"unreadable ({exc!r})"

    def _load_prior_stats(self) -> None:
        try:
            persisted = json.loads(self._stats_path.read_text())
        except (OSError, ValueError):
            return
        if isinstance(persisted, dict):
            self.prior_stats = {
                key: float(persisted.get(key, 0.0)) for key in _STATS_FIELDS
            }

    # ------------------------------------------------------------------
    # Live-run API
    # ------------------------------------------------------------------
    def attach_stats(self, stats: Optional["PlanStats"]) -> None:
        """Bind the live counters; merge what previous runs persisted.

        After this call ``stats`` reports the cumulative job (its
        ``retries``/``faults``/``recovery_seconds`` include every prior
        restart), and each flush persists the cumulative values back —
        net of whatever the executor had accumulated *before* this run,
        so unrelated history on a shared stats object is never claimed
        by the ledger.
        """
        self._stats = stats
        if stats is None:
            return
        self._stats_offsets = {
            field: float(getattr(stats, field)) for field in _STATS_FIELDS
        }
        for field, prior in self.prior_stats.items():
            setattr(stats, field, getattr(stats, field) + type(getattr(stats, field))(prior))
        stats.resumed_slots += len(self.loaded)

    def require_slot_shape(self, shape: Sequence[int]) -> None:
        """Refuse a ledger whose loaded slots do not hold ``shape`` arrays.

        The fingerprint already covers what a slot holds, so this trips only
        on a ledger keyed some other way; folding such a slot would
        broadcast it (a scalar into a whole accumulator) without an error.
        """
        shape = tuple(shape)
        for position, array in sorted(self.loaded.items()):
            if array.shape != shape:
                raise CheckpointError(
                    f"checkpoint job {self.fingerprint[:12]} slot {position} holds "
                    f"shape {array.shape}, this run contributes shape {shape}"
                )

    def record(self, position: int, array: np.ndarray) -> None:
        """Write-ahead one completed ordered slot (buffered).

        The array's bytes are captured *now* — the ordered fold mutates
        contribution buffers in place, so deferring serialization to the
        flush would persist post-fold garbage.  Every ``every``-th record
        flushes the buffer to disk; positions already durable (or loaded
        from a previous run) are skipped.
        """
        if self._closed or position in self._recorded:
            return
        if not 0 <= position < self.num_slots:
            raise ValueError(f"slot position {position} out of range")
        data = np.ascontiguousarray(array)
        # np.ascontiguousarray promotes 0-d arrays to shape (1,); persist
        # the *original* shape so a scalar slot round-trips as a scalar
        self._buffer.append(
            (position, data.dtype.str, tuple(np.shape(array)), data.tobytes(), None)
        )
        self._recorded.add(position)
        if self._stats is not None:
            self._stats.checkpointed_slots += 1
        if len(self._buffer) >= self.every:
            self.flush()

    def record_chunk(self, positions: Sequence[int], arrays: Sequence[np.ndarray]) -> None:
        """Record one harvested chunk's slots (positions zip with arrays)."""
        for position, array in zip(positions, arrays):
            self.record(position, array)

    def flush(self) -> None:
        """Make every buffered record (and the stats snapshot) durable.

        Records leave the buffer only once they are durable — written,
        renamed and their directory fsynced.  A write that fails (ENOSPC,
        EROFS, EIO) raises :class:`CheckpointError` naming the path and the
        errno and keeps them all buffered, so a later flush (``close``
        tries one) rewrites them; nothing ``recorded`` is ever lost.
        """
        if self._closed:
            return
        path = self._slots_dir
        try:
            for position, dtype_str, shape, data, _ in self._buffer:
                record = {
                    "version": _FORMAT_VERSION,
                    "position": position,
                    "dtype": dtype_str,
                    "shape": tuple(shape),
                    "data": data,
                    "crc": zlib.crc32(data),
                }
                path = self._slots_dir / f"{position:08d}.slot"
                _atomic_write(path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
            path = self._stats_path
            self._write_stats()
            if self._buffer:
                path = self._slots_dir
                _fsync_dir(path)
            path = self.dir
            _fsync_dir(path)
        except OSError as exc:
            raise _write_failed(path, exc) from exc
        self._buffer = []

    def _write_stats(self) -> None:
        if self._stats is None:
            return
        snapshot = {
            field: getattr(self._stats, field) - self._stats_offsets.get(field, 0.0)
            for field in _STATS_FIELDS
        }
        _atomic_write(
            self._stats_path, json.dumps(snapshot, indent=2).encode()
        )

    @property
    def recorded_slots(self) -> int:
        """Slots this job holds (loaded from disk plus recorded live)."""
        return len(self._recorded)

    @property
    def closed(self) -> bool:
        return self._closed

    def complete(self) -> None:
        """The run finished: the ledger's purpose is served — remove it."""
        if self._closed:
            return
        self._closed = True
        self._buffer = []
        self._release_lock()
        shutil.rmtree(self.dir, ignore_errors=True)

    def close(self) -> None:
        """Flush and release the lock, keeping the ledger for a resume."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            self._release_lock()

    def __enter__(self) -> "CheckpointJob":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        # clean exit retires the ledger; an exceptional one keeps it
        if exc_type is None:
            self.complete()
        else:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckpointJob({self.fingerprint[:12]}..., "
            f"{self.recorded_slots}/{self.num_slots} slots)"
        )


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign live pid
        return True
    except OSError as exc:  # pragma: no cover - platform-specific
        return exc.errno not in (errno.ESRCH,)
    return True
