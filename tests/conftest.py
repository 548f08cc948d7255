"""Shared fixtures for the test suite.

The fixtures build a ladder of workloads:

* tiny brickwork circuits whose amplitudes can be checked exactly against
  the dense state-vector simulator,
* a mid-size 2-D grid RQC whose (abstract) tensor network exercises the
  planning stack — path search, stem extraction, slicing — without touching
  numerical data,
* ready-made contraction trees and cost models derived from them.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.circuits import grid_circuit, random_brickwork_circuit
from repro.core import SlicingCostModel, extract_stem
from repro.paths import GreedyOptimizer, HyperOptimizer
from repro.tensornet import amplitude_network, circuit_to_tensor_network, simplify_network

# ----------------------------------------------------------------------
# /dev/shm + checkpoint-store leak audit
#
# Every test must leave /dev/shm exactly as it found it — even when it
# injected worker crashes or aborted a session mid-run (the process pool
# forks its children and publishes nothing; this keeps it that way).
# Implemented as runtest hooks rather than an autouse fixture so
# hypothesis @given tests (which forbid function-scoped fixtures) are
# audited too.  Anonymous segments created
# by multiprocessing.shared_memory carry the "psm_" prefix, which keeps
# the audit blind to unrelated tenants of /dev/shm.
#
# The same teardown hook audits every checkpoint store the test touched
# (repro.execution.checkpoint registers store roots in _AUDIT_ROOTS): no
# orphaned "*.tmp" (a torn atomic write must be swept or never leak past
# the writer) and no "*.lock" without a live run (an unreleased job lock
# would wedge the next resume behind a dead-pid steal).
# ----------------------------------------------------------------------
_SHM_DIR = "/dev/shm"


def _shm_segments() -> frozenset:
    if not os.path.isdir(_SHM_DIR):
        return frozenset()
    return frozenset(
        name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")
    )


def _checkpoint_orphans() -> list:
    from repro.execution.checkpoint import _AUDIT_ROOTS

    orphans = []
    for root in sorted(_AUDIT_ROOTS):
        if not os.path.isdir(root):
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith(".tmp") or name.endswith(".lock"):
                    orphans.append(os.path.join(dirpath, name))
    return orphans


def pytest_runtest_setup(item):
    item._shm_audit_before = _shm_segments()


def pytest_runtest_teardown(item):
    before = getattr(item, "_shm_audit_before", None)
    if before is None:
        return
    leaked = _shm_segments() - before
    if leaked:
        # a dropped-but-uncollected session still owns its segments
        # through its weakref.finalize; give it one gc pass before
        # declaring a leak
        gc.collect()
        leaked = _shm_segments() - before
    if leaked:
        pytest.fail(
            f"test leaked shared-memory segments: {sorted(leaked)}",
            pytrace=False,
        )
    orphans = _checkpoint_orphans()
    if orphans:
        pytest.fail(
            f"test left orphaned checkpoint tmp/lock files: {sorted(orphans)}",
            pytrace=False,
        )


@pytest.fixture(scope="session")
def small_circuit():
    """A 5-qubit brickwork circuit, verifiable against the state vector."""
    return random_brickwork_circuit(5, 4, seed=11)


@pytest.fixture(scope="session")
def small_bitstring():
    return (0, 1, 0, 1, 1)


@pytest.fixture(scope="session")
def small_network(small_circuit, small_bitstring):
    """Concrete closed network of one amplitude of the small circuit."""
    tn = amplitude_network(small_circuit, list(small_bitstring), concrete=True)
    simplify_network(tn)
    return tn


@pytest.fixture(scope="session")
def small_tree(small_network):
    """A contraction tree for the small network."""
    return GreedyOptimizer(seed=3).tree(small_network)


@pytest.fixture(scope="session")
def grid_network():
    """Abstract (planning-only) network of a 4x5, 8-cycle grid RQC amplitude."""
    circ = grid_circuit(4, 5, cycles=8, seed=3)
    tn = amplitude_network(circ, [0] * circ.num_qubits, concrete=False)
    simplify_network(tn)
    return tn


@pytest.fixture(scope="session")
def grid_tree(grid_network):
    """A good contraction tree of the grid network."""
    return HyperOptimizer(max_trials=8, seed=1).search(grid_network)


@pytest.fixture(scope="session")
def grid_stem(grid_tree):
    return extract_stem(grid_tree)


@pytest.fixture(scope="session")
def grid_cost_model(grid_tree):
    return SlicingCostModel(grid_tree)


@pytest.fixture(scope="session")
def grid_target_rank(grid_tree):
    """A slicing target that forces a non-trivial slicing set on the grid tree."""
    return max(grid_tree.max_rank() - 4, 4)


@pytest.fixture(scope="session")
def open_case():
    """``(network, tree, sliced, amplitude)`` of a slicing whose compiled
    plan *plans the sweep*: two open subtrees (one rooted on the stem) that
    a subtask fetches views from, partials retained between subtasks, and a
    sweep order that is not label order — what the backend, ledger and
    staleness suites run beside their label-order, nothing-open fixtures."""
    import numpy as np

    from repro.circuits import amplitude
    from repro.execution import compile_plan

    circuit = random_brickwork_circuit(8, 5, seed=13)
    bits = [int(b) for b in np.random.default_rng(13).integers(0, 2, 8)]
    network = amplitude_network(circuit, bits)
    simplify_network(network)
    tree = GreedyOptimizer(seed=1).tree(network)
    inner = sorted(network.inner_indices())
    sliced = [inner[i] for i in (1, 2, 7, 14)]
    plan = compile_plan(network, tree, frozenset(sliced))
    stem = extract_stem(tree).nodes
    assert len(plan.fetches) == 2 and any(f.node in stem for f in plan.fetches)
    assert plan.sweep_cost().retained_bytes and plan.sliced != tuple(sliced)
    return network, tree, sliced, amplitude(circuit, bits)
