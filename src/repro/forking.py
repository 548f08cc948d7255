"""When a fork pays, and the forked copies that run the work: the rule the
path search's trials (:meth:`repro.paths.HyperOptimizer.search`), the
front door's sweep (:meth:`repro.SimulationPlanner.execute_plan`) and a
sampling session (:meth:`repro.execution.CorrelatedSampler.session`)
share.  Each runs one unit inline, times it, and splits the rest with
forked twins (:class:`Twin`, a process serving requests over a pipe) only
when that is worth a twin's cost; the parent works beside them.
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import os
import signal
import threading
import weakref
from typing import Callable, NoReturn, Optional, Set, Tuple

__all__ = ["Twin", "native_threads", "pool_pays", "usable_cpus"]

#: Inline seconds the remaining work must be expected to take (one timed
#: unit's seconds times the units left) before it is split with twins: a
#: twin's fork (2-4 ms) and two busy processes' slowdown.  Forced inline/twin
#: pairs on a 2-vCPU VM (bench plans, seed 3, medians; 7 x trial 0 in
#: brackets): the 4x5 grid m=10 (95-180 ms) plans in 160 / 133 ms, the
#: sampler (79-160 ms) sets up in 275 / 216 ms, the 5x7 grid (215-430 ms)
#: plans in 304 / 231 ms, Sycamore-53 m=12 (242-456 ms) in 537 / 385 ms;
#: the 4x5 grid's sweep (510 blocks, 42-68 ms left) took 54.5 / 54.8 ms on
#: a crew (11/21 pairs), which does not pay, so it stays inline.
_FORK_SECONDS = 0.07


def usable_cpus() -> int:
    """The CPUs this process may run on (1 where the platform cannot say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def native_threads() -> int:
    """This process's OS threads, a BLAS library's pool included (its
    Python threads where the platform cannot say)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def pool_pays(unit_s: float, remaining: int) -> bool:
    """Whether ``remaining`` units after one of ``unit_s`` seconds are split with twins.

    Also requires at least two units left, ``fork`` support, a process
    that may have children (a daemonic pool worker may not), two usable
    CPUs and no other live thread (forking beside one can deadlock the
    child).
    """
    return (
        remaining >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and usable_cpus() >= 2
        and threading.active_count() == 1
        and unit_s * remaining > _FORK_SECONDS
    )


class Twin:
    """A forked copy of this process that serves one request at a time.

    :meth:`send` writes a request's bytes to a pipe, length-prefixed; the
    twin calls ``serve(request)`` — which may answer in memory the two
    processes share, an anonymous ``mmap.mmap(-1, n)`` made before the
    fork — and writes back the bytes it returns, which :meth:`wait`
    returns.  A twin that died shows as ``OSError`` from :meth:`send` or
    :meth:`wait` (``EOFError`` at the end of the pipe).  The parent keeps
    no reference to ``serve``.

    The twin freezes the objects it inherits (their finalizers are the
    parent's to run), disables logging, closes the parent's ends of every
    other live twin's pipes (so each twin sees the end of its own request
    pipe when its parent alone closes it), and leaves only through
    ``os._exit``: at the end of the request pipe with status 0, on any
    exception with 1.  :meth:`close` — also run when the object is
    collected or the interpreter exits — closes the pipes, kills the twin
    and reaps it.
    """

    def __init__(self, serve: Callable[[bytes], bytes]) -> None:
        requests, replies = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (*requests, *replies):
                os.close(fd)
            raise
        if pid == 0:  # pragma: no cover - runs in the twin
            _serve(serve, requests[0], replies[1], (requests[1], replies[0], *_PARENT_ENDS))
        os.close(requests[0])
        os.close(replies[1])
        self.pid = pid
        self._send, self._receive = requests[1], replies[0]
        _PARENT_ENDS.update((self._send, self._receive))
        self._finalizer = weakref.finalize(self, _reap, pid, (self._send, self._receive))

    def send(self, request: bytes) -> None:
        """Hand the twin ``request``."""
        _write(self._send, request)

    def wait(self) -> bytearray:
        """Block until the twin has answered the request sent last; its reply."""
        reply = _frame(self._receive)
        if reply is None:
            raise EOFError(f"twin {self.pid} closed its pipe")
        return reply

    def fileno(self) -> int:
        """The reply pipe's descriptor, for ``select``: readable once a reply
        (or the end of the pipe) is waiting."""
        return self._receive

    @property
    def alive(self) -> bool:
        """Whether the twin has not exited (it stays unreaped until :meth:`close`)."""
        try:
            return os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        except ChildProcessError:  # (reaped by someone else's wait)
            return False

    def close(self) -> None:
        """Close the pipes, kill the twin and reap it (idempotent)."""
        self._finalizer()


#: The parent's ends of the pipes of every live twin: a new twin closes
#: them, so no child holds another child's request pipe open.
_PARENT_ENDS: Set[int] = set()


def _serve(
    serve: Callable[[bytes], bytes], source: int, answer: int, inherited: Tuple[int, ...]
) -> NoReturn:  # pragma: no cover - runs in the twin
    status = 1
    try:
        gc.freeze()
        logging.disable(logging.CRITICAL)
        for fd in inherited:
            os.close(fd)
        request = _frame(source)
        while request is not None:
            _write(answer, serve(request))
            request = _frame(source)
        status = 0
    finally:
        os._exit(status)


def _write(fd: int, payload: bytes) -> None:
    """Write ``payload`` to ``fd`` behind its 8-byte length."""
    written = memoryview(len(payload).to_bytes(8, "little") + payload)
    while written:
        written = written[os.write(fd, written) :]


def _frame(fd: int) -> Optional[bytearray]:
    """One length-prefixed payload from ``fd``; ``None`` at the end of the
    pipe between payloads, ``EOFError`` inside one."""
    header = os.read(fd, 8)
    if not header:
        return None
    header += _exactly(fd, 8 - len(header))
    return _exactly(fd, int.from_bytes(header, "little"))


def _exactly(fd: int, size: int) -> bytearray:
    """``size`` bytes from ``fd``; ``EOFError`` at the end of the pipe."""
    got = bytearray(size)
    view, done = memoryview(got), 0
    while done < size:
        read = os.readv(fd, [view[done:]])
        if not read:
            raise EOFError("the twin closed its pipe")
        done += read
    return got


def _reap(pid: int, fds: Tuple[int, ...]) -> None:
    for fd in fds:
        _PARENT_ENDS.discard(fd)
        os.close(fd)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
