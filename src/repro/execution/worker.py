"""Remote worker entrypoint for the distributed execution backend.

Run one of::

    python -m repro.execution.worker --connect HOST:PORT   # dial a coordinator
    python -m repro.execution.worker --listen HOST:PORT    # await coordinators

``--connect`` is what :class:`~repro.execution.distributed.LocalSocketTransport`
spawns: the worker dials the coordinator's listener, sends a ``hello``
frame, then serves chunk frames until EOF or a ``shutdown`` frame.
``--listen`` inverts the direction for multi-node use: start one listener
per node, point the coordinator's
:class:`~repro.execution.distributed.SocketTransport` at the addresses;
the listener serves one coordinator at a time and re-accepts after each
session, so a long-lived node survives many runs.

The frame protocol is defined in :mod:`repro.execution.distributed`.  A
worker holds one plan generation and one data generation at a time; the
coordinator syncs a lagging worker right before its next chunk, so a
generation-mismatched chunk frame means lost sync and is answered with an
``error`` frame rather than a stale-state computation.

Faults: chunk exceptions are reported as ``("error", (chunk id,
repr(exc), traceback))`` frames — the worker survives and keeps serving.
An injected ``"drop-connection"`` directive severs the socket *before*
the generic :func:`~repro.execution.faultinject.apply_directive` handling
and exits, modelling a cut network link rather than a clean error reply.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..tensornet.tensor import Tensor
from .backend import _LeafStore, execute_chunk
from .distributed import TransportClosed, TransportError, recv_frame, send_frame
from .faultinject import Directive, apply_directive, corrupt_payload
from .plan import CompiledPlan, StemSlots
from .resilience import Chunk, ChunkResult

__all__ = ["WorkerRuntime", "main", "serve"]


class WorkerRuntime:
    """Per-connection execution state: installed plan, data, arena."""

    def __init__(self) -> None:
        self.plan: Optional[CompiledPlan] = None
        self.network: Optional[_LeafStore] = None
        self.cache: Dict[int, np.ndarray] = {}
        self.plan_generation = -1
        self.data_generation = -1
        self.slots = StemSlots()

    def install_plan(self, generation: int, blob: bytes) -> None:
        self.plan = pickle.loads(blob)
        self.plan_generation = generation
        # payload layouts belong to a plan generation: a new plan
        # invalidates any installed data until the next data frame
        self.network = None
        self.cache = {}
        self.data_generation = -1
        self.slots = StemSlots()

    def install_data(self, generation: int, blob: bytes) -> None:
        leaves, cache = pickle.loads(blob)
        self.network = _LeafStore(
            {
                tid: Tensor(indices, data=array)
                for tid, (indices, array) in leaves.items()
            }
        )
        self.cache = cache
        self.data_generation = generation

    def run_chunk(
        self,
        chunk_id: int,
        plan_generation: int,
        data_generation: int,
        items: Chunk,
        directive: Optional[Directive] = None,
    ) -> ChunkResult:
        """Apply ``directive``, execute the chunk, corrupt it if so directed."""
        apply_directive(directive)
        if self.plan is None or plan_generation != self.plan_generation:
            raise RuntimeError(
                f"worker holds plan generation {self.plan_generation}, "
                f"chunk {chunk_id} needs {plan_generation}"
            )
        if self.network is None or data_generation != self.data_generation:
            raise RuntimeError(
                f"worker holds data generation {self.data_generation}, "
                f"chunk {chunk_id} needs {data_generation}"
            )
        result = execute_chunk(self.plan, self.network, self.cache, self.slots, items)
        # injected payload corruption happens after checksumming, so the
        # coordinator's verification must catch it
        corrupt_payload(directive, result[0])
        return result

    def reply(self, payload: Tuple) -> Tuple[str, Tuple]:
        """The frame answering one ``chunk`` frame's payload."""
        try:
            results, checksums, local_stats = self.run_chunk(*payload)
        except Exception as exc:
            # the original exception class may not unpickle on the
            # coordinator — ship repr + traceback text instead
            return "error", (payload[0], repr(exc), traceback.format_exc())
        return "result", (payload[0], results, checksums, local_stats)


def serve(sock: socket.socket) -> None:
    """Serve one coordinator connection until EOF or shutdown."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    runtime = WorkerRuntime()
    send_frame(sock, ("hello", os.getpid()))
    while True:
        try:
            message, _ = recv_frame(sock)
        except TransportClosed:
            return  # coordinator is gone; nothing left to serve
        kind, payload = message
        if kind == "shutdown":
            return
        if kind == "plan":
            runtime.install_plan(*payload)
        elif kind == "data":
            runtime.install_data(*payload)
        elif kind == "chunk":
            directive = payload[4]
            if directive is not None and directive[0] == "drop-connection":
                # model a cut link, not a clean error reply: sever the
                # socket first so the coordinator sees EOF mid-chunk,
                # then die the way a partitioned node does
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # pragma: no cover - already severed
                    pass
                sock.close()
                os._exit(1)
            reply = runtime.reply(payload)
            try:
                send_frame(sock, reply)
            except TransportClosed:
                # the coordinator gave up on us (e.g. chunk timeout severed
                # the link); exit quietly instead of crashing with noise
                return
        else:
            raise TransportError(f"unexpected frame kind {kind!r} from coordinator")


def _parse_host_port(spec: str) -> Tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad address {spec!r} (expected HOST:PORT)")
    return host, int(port)


def _serve_connect(address: str) -> None:
    host, port = _parse_host_port(address)
    with socket.create_connection((host, port)) as sock:
        serve(sock)


def _serve_listen(address: str) -> None:
    host, port = _parse_host_port(address)
    with socket.create_server((host, port)) as listener:
        bound_host, bound_port = listener.getsockname()[:2]
        # announce the concrete endpoint (port 0 binds ephemerally) so
        # spawning harnesses can scrape it from stdout
        print(f"LISTENING {bound_host} {bound_port}", flush=True)
        while True:
            conn, _ = listener.accept()
            with conn:
                serve(conn)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.execution.worker",
        description="Distributed execution worker (see repro.execution.distributed).",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--connect", metavar="HOST:PORT", help="dial a coordinator's listener"
    )
    group.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="await coordinator connections (port 0 binds ephemerally; the "
        "bound endpoint is printed as 'LISTENING HOST PORT')",
    )
    ns = parser.parse_args(argv)
    if ns.connect:
        _serve_connect(ns.connect)
    else:
        _serve_listen(ns.listen)


if __name__ == "__main__":
    main(sys.argv[1:])
