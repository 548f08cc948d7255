"""Measurement machinery shared by the five workloads.

The rules every timed metric follows (see ``bench/README.md``):

* one driver process, BLAS pinned to one thread by ``run.py`` before numpy
  is imported, parallel variants on exactly ``WORKERS`` workers;
* all variants of a workload are timed round-robin in *rounds*, so machine
  drift hits every variant equally;
* a fixed ≈50 ms :func:`probe` brackets each round and every sample of the
  round is scaled by ``PROBE_REF / probe_of_round`` — seconds are reported
  both raw and drift-corrected, the corrected median is the metric.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

#: Parallel variants use exactly this many workers.
WORKERS = min(2, os.cpu_count() or 1)

#: Geometric-mean probe seconds of the machine the baseline was taken on
#: (2-core VM, OpenBLAS pinned to 1 thread).  Corrected seconds are
#: "seconds on that machine"; only ratios between runs matter.
PROBE_REF = 0.0046

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


# ----------------------------------------------------------------------
# Drift probe
# ----------------------------------------------------------------------
class Probe:
    """Fixed work that tracks how fast this machine is right now.

    Two loops, one per regime the workloads live in: tiny ``np.tensordot``
    calls (interpreter/dispatch-bound, like ``small_subtasks``) and 256²
    complex128 GEMMs (BLAS-bound, like ``large_subtasks``).  Each loop runs
    five short times and counts its fastest, so a momentary stall does not
    read as drift; the value is the geometric mean of the two, so a
    slowdown of either regime moves it.  About 50 ms in all.
    """

    REPEATS = 5
    TINY_CALLS = 480
    GEMM_CALLS = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(20230225)
        self._a = rng.standard_normal((2,) * 8) + 1j * rng.standard_normal((2,) * 8)
        self._b = rng.standard_normal((2,) * 6) + 1j * rng.standard_normal((2,) * 6)
        self._m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self._out = np.empty((256, 256), dtype=np.complex128)
        self.samples: List[float] = []
        #: (tiny, gemm) seconds behind each sample, for offline analysis
        self.parts: List[tuple] = []

    def __call__(self) -> float:
        a, b, m, out = self._a, self._b, self._m, self._out
        tiny = gemm = math.inf
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            for _ in range(self.TINY_CALLS):
                np.tensordot(a, b, axes=([5, 6, 7], [0, 1, 2]))
            t1 = time.perf_counter()
            for _ in range(self.GEMM_CALLS):
                np.dot(m, m, out=out)
            t2 = time.perf_counter()
            tiny, gemm = min(tiny, t1 - t0), min(gemm, t2 - t1)
        value = math.sqrt(tiny * gemm)
        self.samples.append(value)
        self.parts.append((tiny, gemm))
        return value


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) — the same quantiles the driver takes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Value:
    """One reported metric: median with quartiles and sample count.

    ``raw_median`` is set for timings only (the median before drift
    correction); ``mirror_of`` names the metric this cell repeats when the
    workload does not exercise it (see README, "cells a workload does not
    exercise").
    """

    unit: str
    median: float
    q1: float
    q3: float
    n: int
    raw_median: Optional[float] = None
    mirror_of: Optional[str] = None

    @classmethod
    def exact(cls, unit: str, value: float) -> "Value":
        return cls(unit, float(value), float(value), float(value), 1)

    @classmethod
    def of(cls, unit: str, samples: Sequence[float], raw: Optional[Sequence[float]] = None) -> "Value":
        q1, median, q3 = quartiles(list(samples))
        raw_median = statistics.median(raw) if raw else None
        return cls(unit, median, q1, q3, len(samples), raw_median)

    def mirrored(self, source: str, scale: Callable[[float], float] = lambda x: x,
                 unit: Optional[str] = None) -> "Value":
        lo, hi = sorted((scale(self.q1), scale(self.q3)))
        return Value(unit or self.unit, scale(self.median), lo, hi, self.n,
                     None if self.raw_median is None else scale(self.raw_median), source)

    def as_dict(self) -> Dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if v is not None}


class Timings:
    """Raw samples per metric, grouped by round, with per-round drift factors."""

    def __init__(self, probe: Probe) -> None:
        self._probe = probe
        self._rounds: List[Dict[str, List[float]]] = []
        self._factors: List[float] = []
        self._before: Optional[float] = None
        self.probe_parts: List[tuple] = []

    def run_round(self, body: Callable[[], Dict[str, object]]) -> None:
        """Probe, run one round, probe; the round shares the mean of both."""
        if self._before is None:
            self._before = self._probe()
            self.probe_parts.append(self._probe.parts[-1])
        samples = body()
        after = self._probe()
        self.probe_parts.append(self._probe.parts[-1])
        self._factors.append(PROBE_REF / (0.5 * (self._before + after)))
        self._before = after
        self._rounds.append(
            {k: list(v) if isinstance(v, (list, tuple)) else [v] for k, v in samples.items()}
        )

    def __len__(self) -> int:
        return len(self._rounds)

    def names(self) -> List[str]:
        return sorted({name for r in self._rounds for name in r})

    def raw(self, name: str) -> List[float]:
        return [s for r in self._rounds for s in r.get(name, ())]

    def corrected(self, name: str) -> List[float]:
        return [s * f for r, f in zip(self._rounds, self._factors) for s in r.get(name, ())]

    def value(self, name: str, unit: str = "s") -> Value:
        return Value.of(unit, self.corrected(name), self.raw(name))

    def dump(self) -> Dict[str, object]:
        """Every raw sample by round with the probes around it."""
        return {"probe_parts": self.probe_parts, "rounds": self._rounds}


def run_rounds(
    probe: Probe, body: Callable[[], Dict[str, object]], seconds: float, min_rounds: int,
    max_rounds: int = 10_000,
) -> Timings:
    """Repeat ``body`` for ``seconds`` (at least ``min_rounds`` times)."""
    timings = Timings(probe)
    start = time.perf_counter()
    while len(timings) < max_rounds and (
        len(timings) < min_rounds or time.perf_counter() - start < seconds
    ):
        timings.run_round(body)
    return timings


def timed(fn: Callable[[], object]) -> tuple:
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def probed(probe: Probe, fn: Callable[[], object]) -> tuple:
    """``(seconds, drift factor, result)`` of one call bracketed by probes.

    ``seconds * factor`` is the drift-corrected time, for one-off timings
    that are not part of a round.
    """
    before = probe()
    seconds, result = timed(fn)
    return seconds, PROBE_REF / (0.5 * (before + probe())), result


def traced_peak_bytes(fn: Callable[[], object]) -> int:
    """``tracemalloc`` peak over one call (numpy buffers are traced)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


# ----------------------------------------------------------------------
# Correctness ledger
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Counts every oracle comparison; an exception counts as a failure."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def _fail(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(1, what)

    def close(self, got, want, what: str, tol: float = 1e-9) -> None:
        """Every element of ``got`` within ``tol`` of the oracle (one check each)."""
        got = np.atleast_1d(np.asarray(got))
        want = np.atleast_1d(np.asarray(want))
        if got.shape != want.shape:
            self.expect(False, f"{what}: shape {got.shape} != {want.shape}")
            return
        bad = int(np.count_nonzero(~(np.abs(got - want) <= tol)))
        self.attempted += got.size
        if bad:
            self._fail(bad, f"{what}: {bad}/{got.size} beyond {tol}")

    def same_bits(self, got: complex, want: complex, what: str) -> None:
        self.expect(got == want, f"{what}: {got!r} != {want!r} (not bit-identical)")

    def guard(self, what: str, fn: Callable[[], object]):
        """Run ``fn``; an exception is a failed operation, not a crash."""
        try:
            return fn()
        except Exception as exc:  # the boundary that must keep the run going
            self.expect(False, f"{what}: raised {type(exc).__name__}: {exc}")
            return None


# ----------------------------------------------------------------------
# Scratch files and leak audit
# ----------------------------------------------------------------------
@contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A fresh directory under ``bench/out/tmp`` (inside the checkout), removed on exit."""
    root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def resource_snapshot() -> Dict[str, set]:
    """What must not outlive a run: shm segments, child processes, tmp dirs."""
    shm = set()
    if os.path.isdir("/dev/shm"):
        shm = {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    children = set()
    task_dir = f"/proc/{os.getpid()}/task"
    if os.path.isdir(task_dir):
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/children") as handle:
                    children.update(handle.read().split())
            except OSError:
                pass
    tmp_root = os.path.join(OUT_DIR, "tmp")
    tmp = set(os.listdir(tmp_root)) if os.path.isdir(tmp_root) else set()
    return {"shm": shm, "children": children, "tmp": tmp}


def leaked(before: Dict[str, set], after: Dict[str, set]) -> Dict[str, List[str]]:
    return {
        kind: sorted(after[kind] - before[kind])
        for kind in before
        if after[kind] - before[kind]
    }
