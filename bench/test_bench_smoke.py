"""Smoke test of the benchmark: all five workloads at toy size.

One ``run.py --smoke`` process runs every workload in both trace modes.
The test asserts that every metric ``BENCHMARK.json`` names comes out with
its unit, that nothing failed its oracle, and that no shared-memory
segment, worker process or scratch directory outlives the run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench.harness import resource_snapshot

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_manifest_matches_metric_definitions(manifest):
    generated = _run("--manifest")
    assert generated.returncode == 0, generated.stderr
    assert json.loads(generated.stdout) == manifest


def test_every_metric_is_emitted_and_nothing_leaks(manifest, tmp_path):
    before = resource_snapshot()
    out = tmp_path / "smoke.json"
    done = _run("--smoke", "--seconds", "0.5", "--trace", "both", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(out.read_text())

    assert set(result["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for workload, cells in result["workloads"].items():
        assert cells["failed"] == 0, (workload, cells["failures"])
        assert cells["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            emitted = cells[kind]
            assert set(emitted) == {m["name"] for m in manifest[kind]}, (workload, kind)
            for metric in manifest[kind]:
                assert NAME.fullmatch(metric["name"])
                assert emitted[metric["name"]]["unit"] == metric["unit"], (workload, metric)
        for metric in manifest["end_to_end"]:
            assert cells["end_to_end"][metric["name"]]["median"] > 0, (workload, metric)
        with open(cells["trace_file"]) as handle:
            assert json.load(handle)["traceEvents"], workload
        # self times are span minus children, so they must add up to the trace
        assert sum(cells["self_seconds"].values()) == pytest.approx(
            cells["traced_seconds"], rel=0.05
        )

    # child processes are covered by the run's own audit (a survivor is a
    # failed check above); segments and scratch directories again from here
    after = resource_snapshot()
    assert after["shm"] <= before["shm"]
    assert after["tmp"] <= before["tmp"]


def test_driver_contract_last_line(manifest):
    done = _run("--smoke", "--workload", "small_subtasks", "--seed", "5",
                "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
