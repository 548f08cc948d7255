#!/usr/bin/env python3
"""The benchmark's one command.

For the driver (one workload, one JSON object as the last line)::

    python3 bench/run.py --workload small_subtasks --seed 3 --seconds 10 --trace 0

For people (all five workloads, end-to-end and per-layer tables)::

    python3 bench/run.py --seed 3 [--workload NAME] [--trace 0|1|both] [--out FILE]
    python3 bench/run.py --compare A.json[,A2.json...] B.json[,B2.json...]

``--trace 0`` times the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pass and reports the per-layer metrics (Chrome trace under
``bench/out/``); ``both`` (the default) does one after the other.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, so "serial" means one core and the parallel variants own
# their worker count.  Must happen before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# ``bench`` is imported as a package from the checkout root (the script's
# own directory would shadow the stdlib ``trace``), ``repro`` from ``src``.
sys.path[:] = [_ROOT, os.path.join(_ROOT, "src")] + [
    p for p in sys.path if os.path.abspath(p or ".") != _HERE
]

import argparse
import importlib.util
import json
import platform
import subprocess
import time
from typing import Dict, List, Optional

import numpy as np

from bench import metrics
from bench.compare import compare_files
from bench.execution import LargeSubtasks, SmallSubtasks
from bench.harness import OUT_DIR, PROBE_REF, WORKERS, Probe, Value, leaked, resource_snapshot
from bench.planning import SlicingSweep, SycamorePlan
from bench.sampling import CorrelatedSampling
from bench.trace import Recorder

CLASSES = {
    cls.name: cls
    for cls in (SycamorePlan, SlicingSweep, LargeSubtasks, SmallSubtasks, CorrelatedSampling)
}
RUN_SECONDS = 10


# ----------------------------------------------------------------------
def stamp(args) -> Dict[str, object]:
    """Where, on what and with what this run was made."""
    commit = "unknown"
    if os.path.isdir(os.path.join(_ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", _ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "probe_ref": PROBE_REF,
        "available": {
            name: importlib.util.find_spec(name) is not None
            for name in ("numba", "torch", "mpi4py", "cotengra")
        },
    }


def stop_resource_tracker() -> None:
    """End multiprocessing's shared-memory tracker, so no child outlives a run.

    The tracker is a helper process Python starts with the first shared
    memory segment and keeps until exit; it restarts on demand.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(name: str, args, probe: Probe) -> Dict[str, object]:
    """Run one workload in the requested trace modes; returns its result."""
    result: Dict[str, object] = {"attempted": 0, "failed": 0, "failures": []}
    before = resource_snapshot()

    def absorb(workload) -> None:
        result["attempted"] += workload.checks.attempted
        result["failed"] += workload.checks.failed
        result["failures"] += workload.checks.failures
        result.setdefault("sizes", {}).update(workload.sizes)

    if args.trace in ("0", "both"):
        workload = CLASSES[name](args.seed, args.smoke)
        first = len(probe.samples)
        try:
            result["end_to_end"] = workload.measure(args.seconds, probe)
        finally:
            workload.close()
        absorb(workload)
        result["raw_rounds"] = workload.raw_rounds
        seen = probe.samples[first:]
        result["probe_s"] = float(np.median(seen))
        result["probe_drift"] = max(seen) / min(seen)
    if args.trace in ("1", "both"):
        workload = CLASSES[name](args.seed, args.smoke)
        recorder = Recorder(name)
        try:
            layers = workload.trace(args.seconds, probe, recorder)
        finally:
            workload.close()
        absorb(workload)
        result["layers_reported"] = sorted(layers)
        for metric in metrics.PER_LAYER:  # a layer that did no work here reads 0
            layers.setdefault(metric.name, Value.exact(metric.unit, 0.0))
        result["per_layer"] = layers
        result["trace_file"] = os.path.join(OUT_DIR, f"trace_{name}.json")
        recorder.write_chrome_trace(result["trace_file"])
        result["self_seconds"] = recorder.self_seconds_by_layer()
        result["traced_seconds"] = recorder.root_seconds()

    stop_resource_tracker()
    leaks = leaked(before, resource_snapshot())
    result["attempted"] += 1
    if leaks:
        result["failed"] += 1
        result["failures"].append(f"left behind: {leaks}")
    return result


# ----------------------------------------------------------------------
def print_table(title: str, rows: Dict[str, Value], order: List[str], reported=None) -> None:
    print(f"\n{title}")
    print(f"  {'metric':38s} {'unit':>6s} {'median':>13s} {'q1':>13s} {'q3':>13s} {'n':>4s} {'raw median':>13s}")
    idle = [name for name in order if reported is not None and name not in reported]
    for name in order:
        if name in idle:
            continue
        v = rows[name]
        raw = f"{v.raw_median:13.6g}" if v.raw_median is not None else " " * 13
        note = f"  = {v.mirror_of}" if v.mirror_of else ""
        print(f"  {name:38s} {v.unit:>6s} {v.median:13.6g} {v.q1:13.6g} {v.q3:13.6g} {v.n:4d} {raw}{note}")
    if idle:
        print(f"  read 0 here (the layer does no work on this workload): {' '.join(idle)}")


def print_result(name: str, result: Dict[str, object]) -> None:
    sizes = ", ".join(f"{k}={v:g}" for k, v in result.get("sizes", {}).items())
    print(f"\n=== {name} ===  {sizes}")
    if "end_to_end" in result:
        print_table(
            "end to end (seconds drift-corrected; '= x' repeats the workload's headline x)",
            result["end_to_end"], [m.name for m in metrics.END_TO_END],
        )
        print(f"  probe {result['probe_s']:.4f} s (ref {PROBE_REF}), drift max/min {result['probe_drift']:.3f}")
    if "per_layer" in result:
        print_table(
            "per layer (traced pass)", result["per_layer"],
            [m.name for m in metrics.PER_LAYER], result["layers_reported"],
        )
        traced = result["traced_seconds"]
        shares = ", ".join(
            f"{layer} {seconds:.3f}" for layer, seconds in sorted(result["self_seconds"].items())
        )
        total = sum(result["self_seconds"].values())
        print(f"  self seconds by layer: {shares}  (sum {total:.3f} of {traced:.3f} traced)")
        print(f"  trace: {result['trace_file']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_fraction {failed}/{attempted} = {failed / attempted:.3g}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def driver_line(result: Dict[str, object]) -> str:
    """The one JSON object the driver reads from the last line."""
    emitted: Dict[str, Value] = {}
    emitted.update(result.get("end_to_end", {}))
    emitted.update(result.get("per_layer", {}))
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {n: {"value": v.median, "unit": v.unit} for n, v in emitted.items()},
        }
    )


def serialisable(result: Dict[str, object]) -> Dict[str, object]:
    out = dict(result)
    for key in ("end_to_end", "per_layer"):
        if key in out:
            out[key] = {name: value.as_dict() for name, value in out[key].items()}
    return out


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(CLASSES), help="default: all five")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long each workload measures (at least five rounds)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    parser.add_argument("--out", help="write the full result (stamp, quartiles, sizes) as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two result files (or comma-separated lists of them)")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.manifest:
        print(json.dumps(metrics.manifest(RUN_SECONDS), indent=2))
        return 0
    if args.compare:
        return compare_files(*args.compare)

    started = time.perf_counter()
    probe = Probe()
    names = [args.workload] if args.workload else [name for name, _ in metrics.WORKLOADS]
    run_stamp = stamp(args)
    print("stamp:", json.dumps(run_stamp))
    results = {}
    for name in names:
        results[name] = run_workload(name, args, probe)
        print_result(name, results[name])
    print(f"\nwhole run: {time.perf_counter() - started:.1f} s")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"stamp": run_stamp, "workloads": {n: serialisable(r) for n, r in results.items()}},
                handle, indent=1,
            )
    if args.workload:
        print(driver_line(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
