"""CI gate: the native tape kernel must beat the Python walker.

Run after the exec-plan bench on a leg with numba installed::

    PYTHONPATH=src python benchmarks/check_fused_regression.py \
        benchmarks/results/BENCH_exec_plan.json

Validates the ``fused_engines`` section (the tape-engine matrix): the
walker and the native kernel were bit-identical and — only when the
bench ran with numba installed (``native_available``) — ``fused=True``
resolved to the native engine and cleared its speed gate over the
walker.  Without numba there is one engine and nothing to gate.

Exits non-zero on any violation, so a regression that makes the kernel
slower — or silently disables it — fails the CI job instead of shipping.
Checks raise explicitly (no ``assert``), so the gate also holds under
``python -O``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


class RegressionError(RuntimeError):
    """A native-engine regression (or a silently disabled kernel)."""


def main(path: str) -> int:
    engines = json.loads(Path(path).read_text()).get("fused_engines")
    if not engines:
        raise RegressionError(
            "bench JSON has no 'fused_engines' section; the tape-engine "
            "matrix did not run"
        )
    if engines.get("bit_identical") is not True:
        raise RegressionError("tape engines were not bit-identical")
    if not engines.get("native_available"):
        print("native engine: numba absent when the bench ran; nothing to gate")
        return 0
    if engines.get("tape_engine") != "native":
        raise RegressionError(
            "numba was available but fused=True did not resolve to the "
            "native tape engine"
        )
    # an env override beats the threshold the bench recorded
    gate = float(
        os.environ.get("REPRO_BENCH_NATIVE_MIN_VS_PYTHON")
        or engines["min_native_vs_python"]
    )
    speedup = float(engines["native_vs_python"])
    print(f"native kernel: {speedup:.3f}x the Python walker (gate: > {gate})")
    if speedup <= gate:
        raise RegressionError(
            f"native tape kernel regressed to {speedup:.3f}x the Python "
            f"walker (gate: > {gate})"
        )
    print("native-engine regression guard OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "benchmarks/results/BENCH_exec_plan.json"))
