"""Tests of the fork rule's thread count (:func:`repro.forking.native_threads`).

OpenBLAS stops its thread pool before every fork and restarts it at its
next threaded call, so right after a twin the process shows one thread.
The rule must still see the parked pool, and a Python thread that came and
went must not make it refuse for good.  Each case runs in a fresh
interpreter, because the BLAS pool size is fixed when numpy loads.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import forking

SCRIPT = """
import threading
import numpy as np
from repro import forking

at_import = forking.native_threads()
release = threading.Event()
passing = threading.Thread(target=release.wait)
passing.start()  # alive while the twin forks
twin = forking.Twin(bytes)
twin.send(b"ping")
assert twin.wait() == b"ping"
twin.close()
release.set()
passing.join()
forks = forking.pool_pays(1.0, 10) and forking.native_threads() == 1
print(at_import, forking.native_threads(), forks)
"""


def _after_a_twin(blas_threads: int):
    """``(threads at import, threads after a twin, whether the rule forks)``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    at_import, after, forks = out.stdout.split()
    return int(at_import), int(after), forks == "True"


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/proc/self/task"),
    reason="twins fork; the thread count reads /proc",
)
class TestParkedBlasPool:
    def test_a_parked_pool_still_refuses_the_fork(self):
        at_import, after, forks = _after_a_twin(2)
        if at_import < 2:
            pytest.skip("numpy's BLAS runs no thread pool here")
        assert after == at_import
        assert not forks

    def test_one_blas_thread_still_forks_after_a_twin_and_a_python_thread(self):
        at_import, after, forks = _after_a_twin(1)
        assert at_import == after == 1
        assert forks == (forking.usable_cpus() >= 2)
