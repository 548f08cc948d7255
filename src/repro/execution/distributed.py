"""Distributed multi-node execution: sliced subtasks over sockets or MPI.

The paper's headline numbers come from farming the ``prod w(e)`` slicing
subtasks across *nodes*; until now the repo only modelled that
(:mod:`repro.execution.scaling`) while executing on in-process substrates.
This module adds the real thing behind the same
:class:`~repro.execution.backend.ExecutionBackend` protocol:

* :class:`DistributedBackend` — ``run_subtasks`` farms subtask chunks to
  remote worker *processes* over a :class:`ClusterTransport`;
* :class:`LocalSocketTransport` — spawns N localhost workers
  (``python -m repro.execution.worker --connect``) and accepts their TCP
  connections; the default, and what CI measures strong scaling against;
* :class:`SocketTransport` — connects out to pre-started workers
  (``--listen host:port``) given as ``addresses=［(host, port), ...］``,
  i.e. real multi-node operation with nothing but the stdlib;
* :class:`MpiTransport` — the same coordinator loop over ``mpi4py``
  point-to-point messages, import-guarded so the socket path never
  depends on an MPI stack.

Wire protocol (socket transports): length-prefixed pickle frames — an
8-byte big-endian length followed by the pickled message tuple.  State is
broadcast once and then only *chunk ids* stream out and small per-subtask
contributions stream back:

========================== ============================================
frame                      payload
========================== ============================================
``("hello", pid)``         worker handshake (worker → coordinator)
``("plan", (gen, blob))``  pickled ``(plan, sum_batch_axes)``
``("data", (gen, blob))``  pickled ``(leaf arrays, invariant cache)``
``("chunk", (...))``       ``(chunk id, plan gen, data gen,
                           [(position, assignment), ...], directive)``
``("result", (...))``      ``(chunk id, [contribution, ...],
                           [crc32, ...], stats)``
``("error", (...))``       ``(chunk id, repr(exc), traceback)``
``("shutdown", None)``     graceful worker exit
========================== ============================================

**Ordered accumulation.**  Workers return per-*position* contributions;
the coordinator folds them strictly in assignment order after every slot
is filled, exactly like the other pooled backends — so results are
bit-identical to :class:`~repro.execution.backend.SerialBackend` for
every worker count, chunk size and arrival order (a slow worker changes
*when* a contribution arrives, never *where* it folds).

**Sessions.**  :class:`DistributedSession` generalizes the shared-memory
:class:`~repro.execution.backend.ExecutionSession` to remote publication:
the same leaf-data fingerprint (plan identity, leaf tensor identities,
cache token, batch-axis count) splits invalidation into two generations —
a *plan* generation (rebroadcast the pickled plan) and a *data*
generation (republish only leaf/cache arrays).  A data-only tensor
replacement therefore re-ships the arrays without re-broadcasting the
plan, and both travel lazily: a worker is brought up to date right before
its next chunk, so freshly (re)spawned workers synchronize for free.

**Faults.**  The PR-6 resilience layer applies unchanged: a worker
disconnect re-queues its in-flight chunk on the surviving workers
(rebalance), total worker loss respawns up to the policy's pool-rebuild
budget (spawned transports only), and exhausted recovery degrades to the
local substrate chain (thread pool → serial) with only the still-empty
ordered slots re-run.  ``fail-fast`` (the default) propagates the first
fault, exactly like the other backends.  Deterministic fault injection
gains a ``"drop-connection"`` kind: the worker severs its socket
mid-chunk, the coordinator-side view of a cut network link.

**Durability.**  Result frames carry per-contribution CRC-32 checksums,
verified before a contribution reaches its ordered slot (a corrupt
payload — e.g. the injected ``"corrupt-result"`` fault — is retried as a
chunk failure).  Passing an open
:class:`~repro.execution.checkpoint.CheckpointJob` through
``run(checkpoint=...)`` write-ahead-persists each verified chunk to the
durable ledger of :mod:`repro.execution.checkpoint`, so even losing the
*coordinator* (crash, OOM, reboot) — after which this module's recovery
machinery no longer exists — leaves a ledger from which a fresh process
resumes bit-identically, re-running only the missing slots.

**Calibration.**  The coordinator measures, per chunk round-trip, the
wall time not covered by the worker's own compute samples and records it
as ``comms_seconds``/``comms_bytes``/``chunk_roundtrips`` on
:class:`~repro.execution.plan.PlanStats`.  Those feed the per-chunk
serialization + network terms of
:class:`~repro.costs.calibration.CalibrationRecord`, so a calibrated
cost model prices communication when predicting the ``"distributed"``
backend — and :func:`~repro.execution.scaling.measure_strong_scaling`
turns the §6.2 strong-scaling curve into a measurement against N
localhost workers.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import struct
import subprocess
import sys
import time
import weakref
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..tensornet.network import TensorNetwork
from ..tensornet.tensor import Tensor
from .backend import ExecutionSession, _PooledBackend
from .checkpoint import CheckpointJob, verify_payload
from .faultinject import FaultInjector, apply_coordinator_directive
from .plan import CompiledPlan, PlanStats
from .resilience import (
    FAIL_FAST,
    ChunkIntegrityError,
    ChunkTimeoutError,
    FaultError,
    FaultPolicy,
    RecoveryClock,
    RecoveryExhaustedError,
    run_degraded,
)

__all__ = [
    "ClusterTransport",
    "DistributedBackend",
    "DistributedSession",
    "DistributedWorkerError",
    "LocalSocketTransport",
    "MpiTransport",
    "SocketTransport",
    "TransportClosed",
    "TransportError",
    "WorkerLink",
]


# ----------------------------------------------------------------------
# Frame protocol (shared with repro.execution.worker)
# ----------------------------------------------------------------------
#: 8-byte big-endian frame-length prefix.
_FRAME_HEADER = struct.Struct(">Q")


class TransportError(FaultError):
    """A cluster-transport operation failed (connect, send, receive)."""


class TransportClosed(TransportError):
    """The peer closed the connection (EOF mid-frame or between frames)."""


def send_frame(sock: socket.socket, message: object) -> int:
    """Send one length-prefixed pickle frame; returns bytes written."""
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        sock.sendall(_FRAME_HEADER.pack(len(blob)) + blob)
    except OSError as exc:
        raise TransportClosed(f"connection lost while sending: {exc}") from exc
    return _FRAME_HEADER.size + len(blob)


def recv_frame(sock: socket.socket) -> Tuple[object, int]:
    """Receive one frame; returns ``(message, bytes read)``."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    (length,) = _FRAME_HEADER.unpack(header)
    blob = _recv_exact(sock, length)
    return pickle.loads(blob), _FRAME_HEADER.size + length


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buffer = bytearray()
    while len(buffer) < count:
        try:
            chunk = sock.recv(count - len(buffer))
        except OSError as exc:
            raise TransportClosed(f"connection lost while receiving: {exc}") from exc
        if not chunk:
            raise TransportClosed("peer closed the connection")
        buffer.extend(chunk)
    return bytes(buffer)


class DistributedWorkerError(FaultError):
    """A chunk raised inside a remote worker.

    The original exception cannot cross the wire reliably (its class may
    not even import on the coordinator), so the worker ships ``repr`` and
    traceback text instead, carried here for diagnosis.
    """

    def __init__(self, worker_id: int, exc_repr: str, traceback_text: str) -> None:
        super().__init__(f"worker {worker_id} chunk failed: {exc_repr}")
        self.worker_id = worker_id
        self.exc_repr = exc_repr
        self.traceback_text = traceback_text


# ----------------------------------------------------------------------
# Worker links and transports
# ----------------------------------------------------------------------
class _Inflight:
    """Bookkeeping for the one chunk a worker is currently executing."""

    __slots__ = ("chunk_index", "sent_at", "chunk_bytes", "deadline")

    def __init__(
        self,
        chunk_index: int,
        sent_at: float,
        chunk_bytes: int,
        deadline: Optional[float],
    ) -> None:
        self.chunk_index = chunk_index
        self.sent_at = sent_at
        self.chunk_bytes = chunk_bytes
        self.deadline = deadline


class WorkerLink:
    """One connected worker: socket, generation bookkeeping, liveness."""

    def __init__(self, sock: socket.socket, worker_id: int) -> None:
        self._sock: Optional[socket.socket] = sock
        self.worker_id = worker_id
        self.pid: Optional[int] = None
        self.alive = True
        #: Generations this worker confirmed-received (synced at dispatch).
        self.plan_generation = -1
        self.data_generation = -1
        self.inflight: Optional[_Inflight] = None

    def send(self, message: object) -> int:
        if not self.alive or self._sock is None:
            raise TransportClosed(f"worker {self.worker_id} is gone")
        try:
            return send_frame(self._sock, message)
        except TransportError:
            self.kill()
            raise

    def recv(self) -> Tuple[object, int]:
        if not self.alive or self._sock is None:
            raise TransportClosed(f"worker {self.worker_id} is gone")
        try:
            return recv_frame(self._sock)
        except TransportError:
            self.kill()
            raise

    def fileno(self) -> int:
        if self._sock is None:
            raise TransportClosed(f"worker {self.worker_id} is gone")
        return self._sock.fileno()

    def kill(self) -> None:
        """Drop the connection; idempotent."""
        self.alive = False
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "dead"
        return f"WorkerLink(id={self.worker_id}, pid={self.pid}, {state})"


class ClusterTransport:
    """Seam between the coordinator loop and how workers are reached.

    A transport knows how to *produce* connected :class:`WorkerLink`
    objects (:meth:`launch`), optionally how to produce replacements
    after total worker loss (:meth:`respawn`, gated by
    :attr:`supports_respawn`), and how to *wait* for any of a set of
    links to have a frame ready (:meth:`wait` — ``select`` for sockets,
    ``iprobe`` polling for MPI).  The coordinator is otherwise identical
    across transports.
    """

    name = "transport"
    #: Whether :meth:`respawn` can replace dead workers mid-run.
    supports_respawn = False

    def launch(self, count: int) -> List[WorkerLink]:
        """Bring up ``count`` workers and return their links."""
        raise NotImplementedError

    def respawn(self, count: int) -> List[WorkerLink]:
        """Replacement workers after total loss (spawned transports only)."""
        raise TransportError(f"the {self.name} transport cannot respawn workers")

    def wait(
        self, links: Sequence[WorkerLink], timeout: Optional[float]
    ) -> List[WorkerLink]:
        """Links with a frame ready to read (may be empty on timeout)."""
        watchable = [link for link in links if link.alive]
        if not watchable:
            return []
        readable, _, _ = select.select(watchable, [], [], timeout)
        return list(readable)

    def close(self) -> None:
        """Release transport-owned resources (idempotent)."""


def _worker_environment() -> Dict[str, str]:
    """Spawn environment whose ``PYTHONPATH`` can import this repro tree."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


class LocalSocketTransport(ClusterTransport):
    """Spawn localhost worker processes and accept their TCP connections.

    The coordinator binds an ephemeral ``127.0.0.1`` listener once, then
    every (re)spawn starts ``python -m repro.execution.worker --connect
    host:port`` subprocesses and accepts their connections.  Workers exit
    on coordinator EOF, and :meth:`close` terminates any stragglers, so
    no process outlives the session that spawned it.
    """

    name = "sockets"
    supports_respawn = True

    def __init__(
        self, python: Optional[str] = None, spawn_timeout: float = 120.0
    ) -> None:
        self._python = python or sys.executable
        self._spawn_timeout = float(spawn_timeout)
        self._listener: Optional[socket.socket] = None
        self._processes: List[subprocess.Popen] = []
        self._next_worker_id = 0

    def launch(self, count: int) -> List[WorkerLink]:
        if self._listener is None:
            self._listener = socket.create_server(("127.0.0.1", 0))
            self._listener.settimeout(self._spawn_timeout)
        host, port = self._listener.getsockname()[:2]
        env = _worker_environment()
        for _ in range(count):
            self._processes.append(
                subprocess.Popen(
                    [
                        self._python,
                        "-m",
                        "repro.execution.worker",
                        "--connect",
                        f"{host}:{port}",
                    ],
                    env=env,
                    stdin=subprocess.DEVNULL,
                )
            )
        links: List[WorkerLink] = []
        try:
            for _ in range(count):
                links.append(self._accept_link())
        except BaseException:
            for link in links:
                link.kill()
            raise
        return links

    def respawn(self, count: int) -> List[WorkerLink]:
        return self.launch(count)

    def _accept_link(self) -> WorkerLink:
        assert self._listener is not None
        try:
            conn, _ = self._listener.accept()
        except socket.timeout as exc:
            raise TransportError(
                f"no worker connected within {self._spawn_timeout:.0f}s "
                "(worker process failed to start?)"
            ) from exc
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(self._spawn_timeout)
        link = WorkerLink(conn, self._next_worker_id)
        self._next_worker_id += 1
        return _handshake(link, conn)

    def close(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
        processes, self._processes = self._processes, []
        for process in processes:
            if process.poll() is None:
                try:
                    process.terminate()
                except OSError:  # pragma: no cover - defensive
                    pass
        deadline = time.monotonic() + 5.0
        for process in processes:
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                process.kill()
                process.wait(timeout=5.0)


def _handshake(link: WorkerLink, conn: socket.socket) -> WorkerLink:
    """Read the worker's hello frame and arm the link for blocking I/O."""
    try:
        message, _ = link.recv()
    except TransportError:
        link.kill()
        raise TransportError("worker handshake failed (no hello frame)")
    if not (isinstance(message, tuple) and len(message) == 2 and message[0] == "hello"):
        link.kill()
        raise TransportError(f"worker handshake failed (got {message!r})")
    link.pid = message[1]
    conn.settimeout(None)
    return link


class SocketTransport(ClusterTransport):
    """Connect out to pre-started workers at the given ``(host, port)``s.

    The multi-node form: start ``python -m repro.execution.worker
    --listen host:port`` on each node, then point the coordinator at the
    addresses (e.g. ``resolve_backend("distributed:hostA:9001,hostB:9001")``).
    The transport cannot respawn remote processes, so total worker loss
    skips straight to the degradation chain.
    """

    name = "sockets"
    supports_respawn = False

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        connect_timeout: float = 30.0,
    ) -> None:
        if not addresses:
            raise ValueError("SocketTransport needs at least one worker address")
        self._addresses = [(str(host), int(port)) for host, port in addresses]
        self._connect_timeout = float(connect_timeout)

    def launch(self, count: int) -> List[WorkerLink]:
        # count is advisory here: the address list *is* the cluster
        links: List[WorkerLink] = []
        try:
            for worker_id, (host, port) in enumerate(self._addresses):
                try:
                    conn = socket.create_connection(
                        (host, port), timeout=self._connect_timeout
                    )
                except OSError as exc:
                    raise TransportError(
                        f"cannot connect to worker at {host}:{port}: {exc}"
                    ) from exc
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                links.append(_handshake(WorkerLink(conn, worker_id), conn))
        except BaseException:
            for link in links:
                link.kill()
            raise
        return links


class MpiTransport(ClusterTransport):
    """The same coordinator loop over ``mpi4py`` point-to-point messages.

    Rank 0 is the coordinator; every other rank of ``COMM_WORLD`` runs
    the worker loop (``python -m repro.execution.worker --mpi`` under
    ``mpiexec``).  Frames are the same pickled message tuples, carried by
    ``comm.send``/``comm.recv`` instead of length-prefixed socket writes;
    :meth:`wait` polls ``iprobe``.  Import-guarded: constructing this
    transport without ``mpi4py`` installed raises a :class:`TransportError`
    naming the socket alternative, so the default path never needs an MPI
    stack.
    """

    name = "mpi"
    supports_respawn = False

    _FRAME_TAG = 7

    def __init__(self) -> None:
        try:
            from mpi4py import MPI  # noqa: PLC0415 - optional dependency
        except ImportError as exc:
            raise TransportError(
                "the MPI transport requires mpi4py, which is not installed; "
                "use the default socket transport "
                "(DistributedBackend(transport='sockets')) or install mpi4py "
                "and launch via mpiexec with repro.execution.worker --mpi"
            ) from exc
        self._mpi = MPI  # pragma: no cover - requires an MPI stack
        self._comm = MPI.COMM_WORLD  # pragma: no cover
        if self._comm.Get_size() < 2:  # pragma: no cover
            raise TransportError(
                "the MPI transport needs at least 2 ranks (coordinator + workers)"
            )

    def launch(self, count: int) -> List[WorkerLink]:  # pragma: no cover
        size = self._comm.Get_size()
        return [
            _MpiWorkerLink(self._comm, rank, self._FRAME_TAG)
            for rank in range(1, size)
        ]

    def wait(self, links, timeout):  # pragma: no cover - requires an MPI stack
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            ready = [link for link in links if link.alive and link.probe()]
            if ready:
                return ready
            if deadline is not None and time.monotonic() >= deadline:
                return []
            time.sleep(0.001)


class _MpiWorkerLink(WorkerLink):  # pragma: no cover - requires an MPI stack
    """A worker rank reached through ``comm.send``/``comm.recv``."""

    def __init__(self, comm, rank: int, tag: int) -> None:
        super().__init__(sock=None, worker_id=rank)  # type: ignore[arg-type]
        self._comm = comm
        self._rank = rank
        self._tag = tag
        self.alive = True
        self.pid = rank

    def send(self, message: object) -> int:
        try:
            self._comm.send(message, dest=self._rank, tag=self._tag)
        except Exception as exc:
            self.kill()
            raise TransportClosed(f"MPI send to rank {self._rank} failed") from exc
        return len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))

    def recv(self) -> Tuple[object, int]:
        try:
            message = self._comm.recv(source=self._rank, tag=self._tag)
        except Exception as exc:
            self.kill()
            raise TransportClosed(f"MPI recv from rank {self._rank} failed") from exc
        return message, len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))

    def probe(self) -> bool:
        return bool(self._comm.iprobe(source=self._rank, tag=self._tag))

    def fileno(self) -> int:
        raise TransportError("MPI links have no file descriptor")

    def kill(self) -> None:
        self.alive = False


# ----------------------------------------------------------------------
# The distributed session (coordinator loop)
# ----------------------------------------------------------------------
class _SessionResources:
    """Links + transport of one session, released together by a finalizer."""

    __slots__ = ("links", "transport")

    def __init__(self) -> None:
        self.links: List[WorkerLink] = []
        self.transport: Optional[ClusterTransport] = None


def _release_session_resources(resources: _SessionResources) -> None:
    """Ask workers to exit, drop the links, close the transport."""
    links, resources.links[:] = list(resources.links), []
    transport, resources.transport = resources.transport, None
    for link in links:
        if link.alive:
            try:
                link.send(("shutdown", None))
            except TransportError:  # pragma: no cover - already gone
                pass
        link.kill()
    if transport is not None:
        transport.close()


class DistributedSession:
    """Resident cluster state of a :class:`DistributedBackend`.

    The remote generalization of the shared-memory
    :class:`~repro.execution.backend.ExecutionSession`: instead of a pool
    and shared-memory segments it keeps the worker connections and the
    two broadcast payloads alive across ``run_subtasks`` calls.  The same
    leaf-data snapshot fingerprint drives invalidation, split into two
    generation counters:

    * **plan generation** — bumped when the compiled plan (or batch-axis
      count) changes; the pickled plan is re-broadcast;
    * **data generation** — bumped when only leaf tensors or the
      invariant cache changed; just the arrays are republished, the plan
      broadcast is *not* repeated.

    Payloads travel lazily: a link records which generations its worker
    holds, and the dispatcher prepends the missing broadcast frames to
    the worker's next chunk — TCP ordering makes the sync race-free and a
    freshly (re)spawned worker needs no special casing.

    The session is also where distributed *fault recovery* happens: a
    disconnected worker's in-flight chunk is re-queued on the survivors,
    total loss respawns workers (spawned transports, within the policy's
    pool-rebuild budget), and timeouts sever the link of a wedged worker.
    A failed run marks the session broken; the next :meth:`ensure` resets
    it transparently, exactly like the shared-memory session.
    """

    def __init__(self, backend: "DistributedBackend") -> None:
        self._backend = backend
        self._resources = _SessionResources()
        self._finalizer = weakref.finalize(
            self, _release_session_resources, self._resources
        )
        self._broken = False
        self._plan: Optional[CompiledPlan] = None
        self._leaf_tensors: Tuple[Tensor, ...] = ()
        self._cache_token: Optional[Tuple] = None
        self._cache_buffers: Tuple[np.ndarray, ...] = ()
        self._sum_batch_axes: Optional[int] = None
        self._plan_generation = -1
        self._data_generation = -1
        self._plan_blob: Optional[bytes] = None
        self._data_blob: Optional[bytes] = None
        #: Plan broadcasts performed (a publication event, not per worker).
        self.plan_broadcasts = 0
        #: Data publications performed (includes those riding a plan change).
        self.data_publications = 0
        #: Worker processes/connections brought up, including respawns.
        self.worker_launches = 0
        #: Total-loss respawn cycles performed.
        self.respawns = 0
        #: Bytes of broadcast payloads shipped (plan + data, all workers).
        self.broadcast_bytes = 0

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the session has been closed."""
        return not self._finalizer.alive

    @property
    def broken(self) -> bool:
        """Whether the last run failed (healed transparently on next use)."""
        return self._broken

    @property
    def workers_live(self) -> int:
        """Connected workers currently alive."""
        return sum(1 for link in self._links if link.alive)

    @property
    def plan_generation(self) -> int:
        """Current plan broadcast generation (-1 before the first)."""
        return self._plan_generation

    @property
    def data_generation(self) -> int:
        """Current data publication generation (-1 before the first)."""
        return self._data_generation

    @property
    def _links(self) -> List[WorkerLink]:
        return self._resources.links

    def close(self) -> None:
        """Shut workers down and close the transport; safe to call twice."""
        self._finalizer()
        self._drop_fingerprint()
        backend = self._backend
        if backend is not None and backend._session is self:
            backend._session = None

    def reset(self) -> None:
        """Tear everything down but keep the session usable.

        The next run relaunches workers and re-broadcasts from scratch —
        the full-rebuild path for axis-order mutations
        (:meth:`~repro.execution.backend.ExecutionBackend.reset_session`).
        """
        if self.closed:
            return
        _release_session_resources(self._resources)
        self._drop_fingerprint()

    def _drop_fingerprint(self) -> None:
        self._broken = False
        self._plan = None
        self._leaf_tensors = ()
        self._cache_token = None
        self._cache_buffers = ()
        self._sum_batch_axes = None
        self._plan_blob = None
        self._data_blob = None

    def __enter__(self) -> "DistributedSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
    ) -> None:
        """Bring workers and broadcast payloads up to date; heal if broken."""
        if self.closed:
            raise RuntimeError("distributed session is closed")
        if self._broken:
            self.reset()
        try:
            self._ensure(plan, network, cache, sum_batch_axes)
        except BaseException:
            self._broken = True
            raise

    def _ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Optional[Dict[int, np.ndarray]],
        sum_batch_axes: int,
    ) -> None:
        if self._resources.transport is None:
            self._resources.transport = self._backend._make_transport()
        if not any(link.alive for link in self._links):
            self._links[:] = []
            self._launch(self._backend.max_workers)

        leaf_tensors = tuple(network.tensor(ls.tid) for ls in plan.leaf_steps)
        cache_token, cache_buffers = ExecutionSession._cache_fingerprint(cache)
        plan_changed = (
            self._plan_blob is None
            or plan is not self._plan
            or sum_batch_axes != self._sum_batch_axes
        )
        data_changed = (
            plan_changed
            or self._data_blob is None
            or leaf_tensors != self._leaf_tensors
            or cache_token != self._cache_token
        )
        if plan_changed:
            self._plan_generation += 1
            self._plan_blob = pickle.dumps(
                (plan, sum_batch_axes), protocol=pickle.HIGHEST_PROTOCOL
            )
            self.plan_broadcasts += 1
        if data_changed:
            self._data_generation += 1
            self._data_blob = self._data_payload(plan, network, cache)
            self.data_publications += 1
        self._plan = plan
        self._leaf_tensors = leaf_tensors
        self._cache_token = cache_token
        self._cache_buffers = cache_buffers
        self._sum_batch_axes = sum_batch_axes

    @staticmethod
    def _data_payload(
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Optional[Dict[int, np.ndarray]],
    ) -> bytes:
        """Pickle the arrays workers need: leaves (+ warm invariant cache).

        Mirrors the shared-memory publication: with a warm cache only the
        slice-dependent leaves ship (the cache covers the rest); without
        one every leaf does.  Arrays are made C-contiguous with
        ``np.asarray(order="C")``, which — unlike ``np.ascontiguousarray``
        — keeps a rank-0 array rank-0 (the root of an unsliced closed
        network sits in the invariant cache as a scalar).
        """
        if cache is not None:
            needed = [ls for ls in plan.leaf_steps if ls.node in plan.dependent_nodes]
            cache_payload: Optional[Dict[int, np.ndarray]] = {
                node: np.asarray(buffer, order="C") for node, buffer in cache.items()
            }
        else:
            needed = list(plan.leaf_steps)
            cache_payload = None
        leaves: Dict[int, Tuple[Tuple[str, ...], np.ndarray]] = {}
        for ls in needed:
            tensor = network.tensor(ls.tid)
            leaves[ls.tid] = (
                tensor.indices,
                np.asarray(tensor.require_data(), order="C"),
            )
        return pickle.dumps((leaves, cache_payload), protocol=pickle.HIGHEST_PROTOCOL)

    def _launch(self, count: int) -> None:
        transport = self._resources.transport
        assert transport is not None
        links = transport.launch(count)
        self._links.extend(links)
        self.worker_launches += len(links)

    # ------------------------------------------------------------------
    def run(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> List[Optional[np.ndarray]]:
        """Stream chunks through the cluster; per-position contributions.

        The caller (the backend) folds the returned contributions
        strictly in assignment order, so arrival order — adversarial or
        not — cannot perturb the ordered-accumulation contract.

        ``checkpoint`` (an open durable ledger; see
        :mod:`repro.execution.checkpoint`) pre-fills slots persisted by a
        previous run and write-ahead-records each verified chunk.
        """
        if policy is None:
            policy = self._backend.fault_policy or FAIL_FAST
        if injector is None:
            injector = self._backend.fault_injector
        self.ensure(plan, network, cache, sum_batch_axes)
        try:
            return self._run_resilient(
                assignments, stats, policy, injector, checkpoint
            )
        except BaseException:
            self._broken = True
            raise

    def _dispatch(
        self,
        link: WorkerLink,
        chunk_index: int,
        chunk: List[Tuple[int, Mapping[str, int]]],
        policy: FaultPolicy,
        injector: Optional[FaultInjector],
    ) -> None:
        """Sync the worker's generations, then send it one chunk."""
        if link.plan_generation != self._plan_generation:
            self.broadcast_bytes += link.send(
                ("plan", (self._plan_generation, self._plan_blob))
            )
            link.plan_generation = self._plan_generation
        if link.data_generation != self._data_generation:
            self.broadcast_bytes += link.send(
                ("data", (self._data_generation, self._data_blob))
            )
            link.data_generation = self._data_generation
        directive = (
            injector.directive_for_next_chunk() if injector is not None else None
        )
        chunk_bytes = link.send(
            (
                "chunk",
                (
                    chunk_index,
                    self._plan_generation,
                    self._data_generation,
                    chunk,
                    directive,
                ),
            )
        )
        budget = policy.chunk_timeout(len(chunk))
        now = time.monotonic()
        link.inflight = _Inflight(
            chunk_index, now, chunk_bytes, None if budget is None else now + budget
        )

    def _run_resilient(
        self,
        assignments: Sequence[Mapping[str, int]],
        stats: Optional[PlanStats],
        policy: FaultPolicy,
        injector: Optional[FaultInjector],
        checkpoint: Optional[CheckpointJob] = None,
    ) -> List[Optional[np.ndarray]]:
        transport = self._resources.transport
        assert transport is not None
        chunks = self._backend._chunks(assignments)
        contributions: List[Optional[np.ndarray]] = [None] * len(assignments)
        if checkpoint is not None:
            for position, loaded in checkpoint.loaded.items():
                contributions[position] = loaded
        failures = [0] * len(chunks)
        # chunks fully covered by the ledger never hit the wire; a
        # partially-covered chunk re-runs whole (deterministic subtasks
        # make the overwrite bit-identical, and already-durable slots are
        # skipped by the ledger's record)
        queue: deque = deque(
            index
            for index, chunk in enumerate(chunks)
            if any(contributions[position] is None for position, _ in chunk)
        )
        respawns_used = 0

        def chunk_failed(chunk_index: int, error: BaseException) -> None:
            # a chunk-level fault (the worker survived and reported it):
            # counted against the chunk's own retry budget
            if stats is not None:
                stats.faults += 1
            failures[chunk_index] += 1
            if failures[chunk_index] > policy.chunk_retry_budget:
                if policy.mode == "fail-fast":
                    raise error
                raise RecoveryExhaustedError(
                    f"chunk {chunk_index} failed {failures[chunk_index]} "
                    f"times: {error!r}",
                    contributions,
                ) from error
            if stats is not None:
                stats.retries += 1
            with RecoveryClock(stats):
                backoff = policy.backoff(failures[chunk_index] - 1)
                if backoff > 0:
                    time.sleep(backoff)
            queue.append(chunk_index)

        def fail_link(link: WorkerLink, error: BaseException) -> None:
            # a worker-level fault (disconnect, wedge): sever the link and
            # rebalance its in-flight chunk onto the survivors.  Worker
            # loss does not consume the chunk's retry budget — workers
            # only ever deplete, and total loss is budgeted separately
            # through the policy's pool-rebuild allowance.
            inflight, link.inflight = link.inflight, None
            link.kill()
            if stats is not None:
                stats.faults += 1
            if policy.mode == "fail-fast":
                raise error
            if inflight is not None:
                if stats is not None:
                    stats.retries += 1
                queue.appendleft(inflight.chunk_index)

        def handle_frame(link: WorkerLink) -> None:
            try:
                message, frame_bytes = link.recv()
            except TransportError as exc:
                fail_link(link, exc)
                return
            kind, payload = message
            if kind == "result":
                chunk_id, arrays, checksums, local_stats = payload
                inflight = link.inflight
                if (
                    inflight is None
                    or chunk_id != inflight.chunk_index
                    or len(arrays) != len(chunks[chunk_id])
                ):
                    fail_link(
                        link,
                        TransportError(
                            f"worker {link.worker_id} answered chunk "
                            f"{chunk_id} out of turn"
                        ),
                    )
                    return
                link.inflight = None
                if not verify_payload(arrays, checksums):
                    # poisoned payload: discard before it can reach an
                    # ordered slot or the durable ledger; charged to the
                    # chunk's retry budget like any other chunk failure
                    chunk_failed(
                        chunk_id,
                        ChunkIntegrityError(
                            f"chunk {chunk_id} from worker {link.worker_id} "
                            f"failed its payload checksum"
                        ),
                    )
                    return
                for (position, _), contribution in zip(chunks[chunk_id], arrays):
                    contributions[position] = contribution
                if stats is not None:
                    stats.merge(local_stats)
                    # everything the worker's own compute samples do not
                    # cover — serialization, transfer, dispatch — is the
                    # communication overhead the cost model prices
                    roundtrip = time.monotonic() - inflight.sent_at
                    compute = local_stats.subtask_seconds_sum
                    stats.comms_seconds += max(0.0, roundtrip - compute)
                    stats.comms_bytes += inflight.chunk_bytes + frame_bytes
                    stats.chunk_roundtrips += 1
                if checkpoint is not None:
                    checkpoint.record_chunk(
                        [position for position, _ in chunks[chunk_id]], arrays
                    )
                if injector is not None:
                    # coordinator-side faults fire here, after the chunk's
                    # slots are durable — InjectedCoordinatorDeath is a
                    # BaseException, so no recovery path intercepts it
                    apply_coordinator_directive(
                        injector.coordinator_directive_for_next_harvest()
                    )
            elif kind == "error":
                chunk_id, exc_repr, traceback_text = payload
                inflight, link.inflight = link.inflight, None
                if inflight is None or chunk_id != inflight.chunk_index:
                    fail_link(
                        link,
                        TransportError(
                            f"worker {link.worker_id} reported an error for "
                            f"chunk {chunk_id} out of turn"
                        ),
                    )
                    return
                chunk_failed(
                    chunk_id,
                    DistributedWorkerError(link.worker_id, exc_repr, traceback_text),
                )
            else:
                fail_link(
                    link,
                    TransportError(
                        f"unexpected frame kind {kind!r} from worker "
                        f"{link.worker_id}"
                    ),
                )

        while queue or any(
            link.inflight is not None for link in self._links if link.alive
        ):
            live = [link for link in self._links if link.alive]
            if not live:
                if (
                    transport.supports_respawn
                    and respawns_used < policy.pool_rebuild_budget
                ):
                    respawns_used += 1
                    self.respawns += 1
                    with RecoveryClock(stats):
                        backoff = policy.backoff(respawns_used - 1)
                        if backoff > 0:
                            time.sleep(backoff)
                        self._launch(self._backend.max_workers)
                    continue
                raise RecoveryExhaustedError(
                    f"all distributed workers are gone with {len(queue)} "
                    f"chunks unfinished (respawn budget "
                    f"{policy.pool_rebuild_budget}, used {respawns_used})",
                    contributions,
                )

            # keep every idle worker busy with one chunk at a time: the
            # stream is self-balancing, a slow worker simply pulls fewer
            for link in live:
                if not queue:
                    break
                if not link.alive or link.inflight is not None:
                    continue
                chunk_index = queue.popleft()
                try:
                    self._dispatch(link, chunk_index, chunks[chunk_index],
                                   policy, injector)
                except TransportError as exc:
                    queue.appendleft(chunk_index)
                    fail_link(link, exc)

            busy = [
                link
                for link in self._links
                if link.alive and link.inflight is not None
            ]
            if not busy:
                continue
            now = time.monotonic()
            wait_timeout: Optional[float] = None
            for link in busy:
                deadline = link.inflight.deadline
                if deadline is not None:
                    remaining = max(0.0, deadline - now)
                    wait_timeout = (
                        remaining
                        if wait_timeout is None
                        else min(wait_timeout, remaining)
                    )
            for link in transport.wait(busy, wait_timeout):
                if link.alive:
                    handle_frame(link)
            now = time.monotonic()
            for link in busy:
                inflight = link.inflight
                if (
                    link.alive
                    and inflight is not None
                    and inflight.deadline is not None
                    and now >= inflight.deadline
                ):
                    # the worker may be wedged mid-chunk; severing the
                    # link is the only preemption a remote process allows
                    fail_link(
                        link,
                        ChunkTimeoutError(
                            f"chunk {inflight.chunk_index} exceeded its "
                            f"timeout budget on worker {link.worker_id}"
                        ),
                    )
        return contributions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else f"{self.workers_live} workers"
        return (
            f"DistributedSession({state}, plan_gen={self._plan_generation}, "
            f"data_gen={self._data_generation})"
        )


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
def _parse_address(spec: str) -> Tuple[str, int]:
    host, _, port = spec.strip().rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"bad worker address {spec!r} (expected 'host:port')"
        )
    return host, int(port)


def _default_worker_count() -> int:
    """Two workers minimum (it is a *distributed* backend), four at most."""
    return max(2, min(4, os.cpu_count() or 2))


class DistributedBackend(_PooledBackend):
    """Farm subtask chunks to remote worker processes over a transport.

    Implements the same ``run_subtasks`` contract as the in-process
    backends: the invariant cache is warmed once on the coordinator, the
    plan and the needed arrays are broadcast to the workers once per
    generation, then chunk ids stream out and per-subtask contributions
    stream back, folded strictly in assignment order — bit-identical to
    :class:`~repro.execution.backend.SerialBackend` for every worker
    count, chunk size and arrival order.

    Unlike the local pools this backend never short-circuits small runs
    to the in-process serial path: a one-worker distributed run is a real
    coordinator→worker round-trip, which is exactly what
    :func:`~repro.execution.scaling.measure_strong_scaling` needs for an
    honest N=1 baseline.

    Parameters
    ----------
    num_workers:
        Workers to spawn (spawned transport); ignored when ``addresses``
        is given (the address list is the cluster).  Defaults to 2–4
        depending on the host's core count.
    addresses:
        Pre-started worker endpoints — ``(host, port)`` pairs or
        ``"host:port"`` strings — reached via :class:`SocketTransport`.
    transport:
        ``"sockets"`` (default), ``"mpi"``, a ready
        :class:`ClusterTransport` instance, or a zero-argument factory
        returning one (the seam tests use to shim worker behaviour).
    chunk_size:
        Subtasks per chunk; default streams ~4 chunks per worker.
    spawn_timeout / connect_timeout:
        Transport bring-up budgets in seconds.
    """

    name = "distributed"
    #: Duck-typed marker ``validate_execution_args`` checks without
    #: importing this module: broadcast payloads and contribution frames
    #: are host-side pickles, so device array modules are rejected.
    is_distributed = True

    def __init__(
        self,
        num_workers: Optional[int] = None,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        transport: Union[str, ClusterTransport, Callable[[], ClusterTransport]] = "sockets",
        chunk_size: Optional[int] = None,
        spawn_timeout: float = 120.0,
        connect_timeout: float = 30.0,
    ) -> None:
        parsed: Optional[List[Tuple[str, int]]] = None
        if addresses is not None:
            parsed = [
                _parse_address(entry) if isinstance(entry, str) else
                (str(entry[0]), int(entry[1]))
                for entry in addresses
            ]
            if not parsed:
                raise ValueError("addresses must not be empty")
            if num_workers is not None and num_workers != len(parsed):
                raise ValueError(
                    "pass either num_workers or addresses, not conflicting both"
                )
            num_workers = len(parsed)
        if num_workers is None:
            num_workers = _default_worker_count()
        super().__init__(max_workers=num_workers, chunk_size=chunk_size)
        self.addresses = parsed
        self._transport_spec = transport
        self._spawn_timeout = float(spawn_timeout)
        self._connect_timeout = float(connect_timeout)
        self._session: Optional[DistributedSession] = None

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Worker count (alias of the pooled ``max_workers``)."""
        return self.max_workers

    def _make_transport(self) -> ClusterTransport:
        spec = self._transport_spec
        if isinstance(spec, ClusterTransport):
            return spec
        if callable(spec):
            transport = spec()
            if not isinstance(transport, ClusterTransport):
                raise TypeError(
                    f"transport factory returned {type(transport).__name__}, "
                    "expected a ClusterTransport"
                )
            return transport
        if spec == "sockets":
            if self.addresses:
                return SocketTransport(
                    self.addresses, connect_timeout=self._connect_timeout
                )
            return LocalSocketTransport(spawn_timeout=self._spawn_timeout)
        if spec == "mpi":
            return MpiTransport()
        raise ValueError(
            f"unknown transport {spec!r} (expected 'sockets', 'mpi', a "
            "ClusterTransport instance, or a factory)"
        )

    # ------------------------------------------------------------------
    def session(
        self,
        plan: Optional[CompiledPlan] = None,
        network: Optional[TensorNetwork] = None,
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
    ) -> DistributedSession:
        """Open (or reuse) the backend's persistent :class:`DistributedSession`.

        With ``plan``/``network`` the session is eagerly warmed: workers
        launched and both payloads broadcast before the first run.
        """
        session = self._session
        if session is None or session.closed:
            session = DistributedSession(self)
            self._session = session
        if plan is not None:
            if network is None:
                raise ValueError("session(plan=...) also requires network=")
            self.warm(plan, network, cache, stats)
            session.ensure(plan, network, cache, sum_batch_axes)
        return session

    def close(self) -> None:
        """Close the active session (idempotent)."""
        session, self._session = self._session, None
        if session is not None:
            session.close()

    def reset_session(self) -> None:
        """Rebuild path for axis-order mutations: drop workers and payloads."""
        session = self._session
        if session is not None and not session.closed:
            session.reset()

    # ------------------------------------------------------------------
    def run_subtasks(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]] = None,
        sum_batch_axes: int = 0,
        stats: Optional[PlanStats] = None,
        policy: Optional[FaultPolicy] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointJob] = None,
    ) -> Optional[Tensor]:
        if not assignments:
            return None
        self.warm(plan, network, cache, stats)
        if policy is None:
            policy = self.fault_policy or FAIL_FAST
        if injector is None:
            injector = self.fault_injector
        try:
            session = self._session
            if session is not None and not session.closed:
                contributions = session.run(
                    plan, network, assignments, cache, sum_batch_axes, stats,
                    policy=policy, injector=injector, checkpoint=checkpoint,
                )
            else:
                with DistributedSession(self) as scratch:
                    contributions = scratch.run(
                        plan, network, assignments, cache, sum_batch_axes,
                        stats, policy=policy, injector=injector,
                        checkpoint=checkpoint,
                    )
        except RecoveryExhaustedError as exc:
            if policy.mode != "degrade":
                raise
            # cluster recovery ran out: finish the empty ordered slots on
            # the local substrate chain.  Filled slots keep their
            # bit-exact remotely-computed contributions, so the final
            # fold is identical to a clean run.
            contributions = list(exc.contributions)
            if len(contributions) != len(assignments):
                contributions = [None] * len(assignments)
            for substrate in policy.degradation_chain:
                try:
                    run_degraded(
                        substrate, plan, network, assignments, contributions,
                        cache, sum_batch_axes, stats, self.max_workers,
                    )
                except Exception:
                    continue
                if stats is not None and stats.degraded_to is None:
                    stats.degraded_to = substrate
                break
            missing = [i for i, c in enumerate(contributions) if c is None]
            if missing:
                raise RecoveryExhaustedError(
                    f"degradation chain {policy.degradation_chain} left "
                    f"{len(missing)} slots unfilled",
                    contributions,
                ) from exc
        return self._merge_ordered(plan, contributions, sum_batch_axes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.addresses:
            return f"DistributedBackend(addresses={self.addresses!r})"
        return f"DistributedBackend(num_workers={self.max_workers})"
