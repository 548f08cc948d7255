"""When a fork pool pays: the rule the path search's trials
(:meth:`repro.paths.HyperOptimizer.search`) and the front door's sweep
(:meth:`repro.SimulationPlanner.execute_plan`) share.  Each runs one unit
inline, times it, and forks only for remaining work worth a pool's life.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

__all__ = ["native_threads", "pool_pays", "usable_cpus"]

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
