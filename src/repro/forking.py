"""When a fork pool pays: the rule the path search's trials
(:meth:`repro.paths.HyperOptimizer.search`), the front door's sweep
(:meth:`repro.SimulationPlanner.execute_plan`) and a sampling session
(:meth:`repro.execution.CorrelatedSampler.session`) share.  Each runs one
unit inline, times it, and forks only for remaining work worth a pool's
life.  :class:`Twin` is the sampling session's one forked process.
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import os
import signal
import threading
import weakref
from typing import Callable, NoReturn, Tuple

__all__ = ["Twin", "native_threads", "pool_pays", "usable_cpus"]

#: Inline seconds the remaining work must be expected to take (one timed
#: unit's seconds times the units left) before it goes to a fork pool;
#: 0.2 s sits between the bench plans whose trials pool and those that
#: stay inline.  Forced inline/pool pairs on a 2-vCPU VM (bench runs, seed
#: 3, medians), with the spread of 7 x trial 0's seconds: Sycamore-53 m=12
#: (0.28-0.51 s) plans in 0.645 s inline, 0.440 s pooled (6/6 pairs); the
#: 5x7 grid m=9 (0.24-0.37 s) sets up in 0.295 s / 0.229 s (6/6); the 4x5
#: grid m=10 (0.13-0.18 s) in 0.158 s / 0.139 s (6/6) -- but an earlier
#: series there lost 5/5 on the pool (+29 %), when two busy workers
#: delivered well under twice one core's trial rate, so that plan and the
#: cheaper sampling plan (0.10-0.15 s) stay inline.  The trial pool's own
#: life costs about 20 ms.  The same price keeps the 4x5 grid's sweep
#: (510 x ~80 us left) inline and pools the 5x7 grid's (14 x 35-55 ms).
_FORK_SECONDS = 0.2


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
    """Whether ``remaining`` units after one of ``unit_s`` seconds go to a fork pool.

    Also requires at least two units left, ``fork`` support, a process
    that may have children (a daemonic pool worker may not), two usable
    CPUs and no other live thread (forking beside one can deadlock the
    child; an open shared-memory pool session has one).
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

    ``request`` is a preallocated buffer: :meth:`send` writes its bytes to a
    pipe, the twin reads them into its own copy of the same buffer, calls
    ``serve()`` — which may answer in memory the two processes share, an
    anonymous ``mmap.mmap(-1, n)`` made before the fork — and writes back
    the bytes it returns, which :meth:`wait` returns.  A twin that died
    shows as ``OSError`` from :meth:`send` or :meth:`wait` (``EOFError`` at
    the end of the pipe).  The parent keeps no reference to ``serve``.

    The twin freezes the objects it inherits (their finalizers are the
    parent's to run), disables logging, and leaves only through
    ``os._exit``: at the end of the request pipe with status 0, on any
    exception with 1.  :meth:`close` — also run when the object is
    collected or the interpreter exits — closes the pipes, kills the twin
    and reaps it.
    """

    def __init__(self, serve: Callable[[], bytes], request: bytearray) -> None:
        requests, replies = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (*requests, *replies):
                os.close(fd)
            raise
        if pid == 0:  # pragma: no cover - runs in the twin
            _serve(serve, memoryview(request), requests[0], replies[1], (requests[1], replies[0]))
        os.close(requests[0])
        os.close(replies[1])
        self.pid = pid
        self._request = request
        self._send, self._receive = requests[1], replies[0]
        self._finalizer = weakref.finalize(self, _reap, pid, (self._send, self._receive))

    def send(self) -> None:
        """Hand the twin the request buffer's bytes."""
        if os.write(self._send, self._request) != len(self._request):
            raise EOFError("short write to the twin")

    def wait(self) -> bytes:
        """Block until the twin has answered the request sent last; its reply."""
        size = int.from_bytes(_exactly(self._receive, 8), "little")
        return _exactly(self._receive, size)

    def close(self) -> None:
        """Close the pipes, kill the twin and reap it (idempotent)."""
        self._finalizer()


def _serve(
    serve: Callable[[], bytes], request: memoryview, source: int, answer: int, parent: Tuple
) -> NoReturn:  # pragma: no cover - runs in the twin
    status = 1
    try:
        gc.freeze()
        logging.disable(logging.CRITICAL)
        for fd in parent:
            os.close(fd)
        while _fill(source, request):
            reply = serve()
            written = memoryview(len(reply).to_bytes(8, "little") + reply)
            while written:
                written = written[os.write(answer, written) :]
        status = 0
    finally:
        os._exit(status)


def _fill(fd: int, view: memoryview) -> bool:  # pragma: no cover - runs in the twin
    """Read ``len(view)`` bytes from ``fd`` into ``view``; False at the end of the pipe."""
    got = 0
    while got < len(view):
        read = os.readv(fd, [view[got:]])
        if not read:
            return False
        got += read
    return True


def _exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``; ``EOFError`` at the end of the pipe."""
    got = b""
    while len(got) < size:
        read = os.read(fd, size - len(got))
        if not read:
            raise EOFError("the twin closed its pipe")
        got += read
    return got


def _reap(pid: int, fds: Tuple[int, ...]) -> None:
    for fd in fds:
        os.close(fd)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
