"""Distributed multi-node execution: sliced subtasks over sockets.

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
  i.e. real multi-node operation with nothing but the stdlib.

Wire protocol (socket transports): length-prefixed pickle frames — an
8-byte big-endian length followed by the pickled message tuple.  State is
broadcast once and then only *chunk ids* stream out and small per-block
contributions stream back (a block is a list of assignments,
:meth:`~repro.execution.plan.CompiledPlan.blocks` — one unless the plan
folds inside):

========================== ============================================
frame                      payload
========================== ============================================
``("hello", pid)``         worker handshake (worker → coordinator)
``("plan", (gen, blob))``  pickled plan
``("data", (gen, blob))``  pickled ``(leaf arrays, invariant cache)``
``("chunk", (...))``       ``(chunk id, plan gen, data gen,
                           [(position, block), ...], directive)``
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
cache token) splits invalidation into two generations —
a *plan* generation (rebroadcast the pickled plan) and a *data*
generation (republish only leaf/cache arrays).  A data-only tensor
replacement therefore re-ships the arrays without re-broadcasting the
plan, and both travel lazily: a worker is brought up to date right before
its next chunk, so freshly (re)spawned workers synchronize for free.

**Faults and durability.**  Recovery is not decided here: the session is
a :class:`~repro.execution.resilience.ChunkTransport`, and the one
scheduler in :mod:`repro.execution.resilience` (which describes the
model) drives it.  What this transport contributes is mechanics: each
live link takes one chunk at a time; a disconnect or a severed (timed
out) link loses that link and its chunk only, so the survivors
rebalance; total loss can be respawned on spawned transports; result
frames carry per-contribution CRC-32s for the scheduler to verify.
Deterministic fault injection gains a ``"drop-connection"`` kind: the
worker severs its socket mid-chunk, the coordinator-side view of a cut
network link.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..tensornet.network import TensorNetwork
from .backend import _PooledBackend, _ResidentSession
from .faultinject import Directive
from .plan import CompiledPlan
from .resilience import Chunk, FaultError, WorkerLost

__all__ = [
    "ClusterTransport",
    "DistributedBackend",
    "DistributedSession",
    "DistributedWorkerError",
    "LocalSocketTransport",
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

    __slots__ = ("chunk_index", "sent_at", "chunk_bytes")

    def __init__(self, chunk_index: int, sent_at: float, chunk_bytes: int) -> None:
        self.chunk_index = chunk_index
        self.sent_at = sent_at
        self.chunk_bytes = chunk_bytes


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
    links to have a frame ready (:meth:`wait` — ``select`` for sockets).
    The coordinator is otherwise identical across transports.
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


class DistributedSession(_ResidentSession):
    """Resident cluster state of a :class:`DistributedBackend`.

    The remote generalization of the shared-memory
    :class:`~repro.execution.backend.ExecutionSession`: instead of a pool
    and shared-memory segments it keeps the worker connections and the
    two broadcast payloads alive across ``run_subtasks`` calls.  The same
    leaf-data snapshot fingerprint drives invalidation, split into two
    generation counters:

    * **plan generation** — bumped when the compiled plan changes; the
      pickled plan is re-broadcast;
    * **data generation** — bumped when only leaf tensors or the
      invariant cache changed; just the arrays are republished, the plan
      broadcast is *not* repeated.

    Payloads travel lazily: a link records which generations its worker
    holds, and :meth:`submit` prepends the missing broadcast frames to
    the worker's next chunk — TCP ordering makes the sync race-free and a
    freshly (re)spawned worker needs no special casing.

    As a transport each live link takes one chunk at a time (the stream
    is self-balancing: a slow worker simply pulls fewer); a disconnect,
    an out-of-turn frame or a severed wedge loses that link and its one
    chunk only, and :meth:`rebuild` respawns a full worker set where the
    cluster transport can.  What happens next is
    :mod:`repro.execution.resilience`'s decision.
    """

    name = "distributed"
    preemptible = True

    def __init__(self, backend: "DistributedBackend") -> None:
        super().__init__(backend, _SessionResources(), _release_session_resources)
        self._plan_generation = -1
        self._data_generation = -1
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

    def _drop_fingerprint(self) -> None:
        super()._drop_fingerprint()
        self._plan_blob: Optional[bytes] = None
        self._data_blob: Optional[bytes] = None

    # ------------------------------------------------------------------
    def _ensure(
        self,
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> None:
        if self._resources.transport is None:
            self._resources.transport = self._backend._make_transport()
        if not any(link.alive for link in self._links):
            self._links[:] = []
            self._launch()
        plan_changed, changed = self._refingerprint(plan, network, cache)
        if plan_changed:
            self._plan_generation += 1
            self._plan_blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
            self.plan_broadcasts += 1
        if changed:
            self._data_generation += 1
            self._data_blob = self._data_payload(plan, network, cache)
            self.data_publications += 1

    @staticmethod
    def _data_payload(
        plan: CompiledPlan,
        network: TensorNetwork,
        cache: Dict[int, np.ndarray],
    ) -> bytes:
        """Pickle the arrays workers need: the warm invariant cache and leaves.

        Mirrors the shared-memory publication: only the slice-dependent
        leaves ship (the cache covers the rest).  Arrays are made
        C-contiguous with ``np.asarray(order="C")``, which — unlike
        ``np.ascontiguousarray`` — keeps a rank-0 array rank-0 (the root of
        an unsliced closed network sits in the invariant cache as a scalar).
        """
        cache_payload = {node: np.asarray(buffer, order="C") for node, buffer in cache.items()}
        leaves: Dict[int, Tuple[Tuple[str, ...], np.ndarray]] = {}
        for ls in plan.leaf_steps:
            if ls.node not in plan.dependent_nodes:
                continue
            tensor = network.tensor(ls.tid)
            leaves[ls.tid] = (
                tensor.indices,
                np.asarray(tensor.require_data(), order="C"),
            )
        return pickle.dumps((leaves, cache_payload), protocol=pickle.HIGHEST_PROTOCOL)

    def _launch(self) -> None:
        links = self._resources.transport.launch(self._backend.max_workers)
        self._links.extend(links)
        self.worker_launches += len(links)

    # ------------------------------------------------------------------
    # ChunkTransport
    # ------------------------------------------------------------------
    @property
    def rebuildable(self) -> bool:
        return self._resources.transport.supports_respawn

    def slots(self) -> int:
        return self.workers_live

    def submit(
        self, index: int, chunk: Chunk, directive: Optional[Directive], retry: bool
    ) -> WorkerLink:
        """Sync an idle worker's generations, then send it the chunk."""
        link = next(
            link for link in self._links if link.alive and link.inflight is None
        )
        try:
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
            chunk_bytes = link.send(
                (
                    "chunk",
                    (index, self._plan_generation, self._data_generation, chunk, directive),
                )
            )
        except TransportError as exc:
            # send() already dropped the link; the chunk never left
            raise WorkerLost(exc) from exc
        link.inflight = _Inflight(index, time.monotonic(), chunk_bytes)
        return link

    def wait(
        self, handles: Sequence[WorkerLink], timeout: Optional[float]
    ) -> List[Tuple[WorkerLink, object]]:
        ready = self._resources.transport.wait(handles, timeout)
        return [(link, self._read(link)) for link in ready if link.alive]

    def _read(self, link: WorkerLink) -> object:
        """One frame off ``link`` as a driver outcome."""
        inflight, link.inflight = link.inflight, None
        try:
            (kind, payload), frame_bytes = link.recv()
        except TransportError as exc:
            return WorkerLost(exc, [link])
        if kind not in ("result", "error") or payload[0] != inflight.chunk_index:
            link.kill()
            return WorkerLost(
                TransportError(
                    f"worker {link.worker_id} sent a {kind!r} frame out of turn"
                ),
                [link],
            )
        if kind == "error":
            return DistributedWorkerError(link.worker_id, *payload[1:])
        _, arrays, checksums, worker_stats = payload
        # everything the worker's own compute samples do not cover —
        # serialization, transfer, dispatch — is the communication
        # overhead the cost model prices; it rides the worker's stats so
        # it is counted only if the payload passes verification
        roundtrip = time.monotonic() - inflight.sent_at
        worker_stats.comms_seconds = max(
            0.0, roundtrip - worker_stats.subtask_seconds_sum
        )
        worker_stats.comms_bytes = inflight.chunk_bytes + frame_bytes
        worker_stats.chunk_roundtrips = 1
        return arrays, checksums, worker_stats

    def sever(self, link: WorkerLink) -> List[WorkerLink]:
        link.inflight = None
        link.kill()
        return [link]

    def rebuild(self) -> None:
        self.respawns += 1
        self._launch()

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
        ``"sockets"`` (default), a ready
        :class:`ClusterTransport` instance, or a zero-argument factory
        returning one (the seam tests use to shim worker behaviour).
    chunk_size:
        Subtasks per chunk; default streams ~4 chunks per worker.
    spawn_timeout / connect_timeout:
        Transport bring-up budgets in seconds.
    """

    name = "distributed"
    session_type = DistributedSession
    # a one-worker distributed run is a real coordinator→worker round-trip
    inline_small_runs = False

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
        raise ValueError(
            f"unknown transport {spec!r} (expected 'sockets', a "
            "ClusterTransport instance, or a factory)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.addresses:
            return f"DistributedBackend(addresses={self.addresses!r})"
        return f"DistributedBackend(num_workers={self.max_workers})"
