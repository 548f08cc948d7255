"""Shared fixtures for the benchmark harness.

The benchmark workload is a Sycamore-style RQC on the 53-qubit Sycamore
coupling map.  The paper evaluates on the m = 20 instance planned with
cotengra + KaHyPar trees (log10 flops ≈ 18.8); our pure-Python path
optimizer reaches that complexity class for m ≈ 12, so the default
benchmark workload is ``m = 12`` — the resulting contraction trees have the
same structure (a dominant stem of tens of steps, peak rank ≈ 45, slicing
targets around rank 30).  Set ``REPRO_BENCH_CYCLES=20`` to plan the full
m = 20 instance (slower and with a weaker tree, but it runs).

Every benchmark writes the table/series it regenerates to
``benchmarks/results/<name>.txt`` (and prints it, visible with ``pytest -s``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# One BLAS thread per process, as bench/run.py sets, unless the caller chose:
# a process pool's workers would otherwise each start one BLAS thread per
# core and fight over them.  Must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from repro.circuits import sycamore_circuit
from repro.core import (
    LifetimeSliceFinder,
    SimulatedAnnealingSliceRefiner,
    SlicingCostModel,
    extract_stem,
)
from repro.paths import PartitionOptimizer, TreeAnnealer
from repro.tensornet import amplitude_network, simplify_network

RESULTS_DIR = Path(__file__).parent / "results"

#: Default workload parameters (overridable through the environment).
BENCH_CYCLES = int(os.environ.get("REPRO_BENCH_CYCLES", "12"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
#: "auto" (default) slices 7 ranks below the tree's peak — the same relative
#: reduction the paper applies when squeezing its cotengra trees into one
#: node's main memory; set an integer to force an absolute target.
BENCH_TARGET_RANK = os.environ.get("REPRO_BENCH_TARGET_RANK", "auto")


@pytest.fixture(scope="session")
def record_result():
    """Write a benchmark's regenerated table to results/<name>.txt and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record


@pytest.fixture(scope="session")
def sycamore_network():
    """Simplified abstract tensor network of one Sycamore-style amplitude."""
    circuit = sycamore_circuit(cycles=BENCH_CYCLES, seed=BENCH_SEED)
    network = amplitude_network(circuit, [0] * circuit.num_qubits, concrete=False)
    simplify_network(network)
    return network


@pytest.fixture(scope="session")
def sycamore_tree(sycamore_network):
    """A good contraction tree: recursive bisection + simulated-annealing refinement."""
    tree = PartitionOptimizer(seed=BENCH_SEED).tree(sycamore_network)
    annealer = TreeAnnealer(seed=BENCH_SEED + 1, initial_temperature=0.1, cooling=0.9)
    return annealer.refine(tree).tree


@pytest.fixture(scope="session")
def sycamore_stem(sycamore_tree):
    return extract_stem(sycamore_tree)


@pytest.fixture(scope="session")
def sycamore_cost_model(sycamore_tree):
    return SlicingCostModel(sycamore_tree)


@pytest.fixture(scope="session")
def bench_target_rank(sycamore_tree):
    """The process-level slicing target used by the benchmarks."""
    if BENCH_TARGET_RANK == "auto":
        return max(sycamore_tree.max_rank() - 7, 10)
    return min(int(BENCH_TARGET_RANK), sycamore_tree.max_rank() - 1)


@pytest.fixture(scope="session")
def sycamore_slicing(sycamore_tree, sycamore_stem, sycamore_cost_model, bench_target_rank):
    """The paper pipeline's slicing decision (Alg. 1 + Alg. 2) on the workload."""
    finder = LifetimeSliceFinder(bench_target_rank)
    initial = finder.find(sycamore_tree, stem=sycamore_stem, cost_model=sycamore_cost_model)
    refiner = SimulatedAnnealingSliceRefiner(seed=BENCH_SEED)
    return refiner.refine(
        sycamore_tree, initial.sliced, bench_target_rank, cost_model=sycamore_cost_model
    )
