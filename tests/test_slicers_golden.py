"""Golden slicing sets: every slicer returns the same set for the same (tree, seed).

The digests below were recorded on the commit *before* the slicers moved
onto the batched :class:`~repro.core.slicing.SlicingState`, by running this
file as a script (``PYTHONPATH=src python tests/test_slicers_golden.py``).
A digest covers the sorted set, ``float.hex`` of its overhead and, for the
refiner, the walk's removed/attempted/accepted counts.
They pin the identical-result contract: a change to the move scoring that
alters one RNG draw, one tie-break, one feasibility verdict or one ulp of a
cost fails here by name.  CI runs this file under two ``PYTHONHASHSEED``
values, so a slicing set that depends on label-set iteration order fails too.

Trees follow the Fig. 10 protocol of ``bench/`` (alternating
``PartitionOptimizer`` / noisy ``GreedyOptimizer``, then ``TreeAnnealer``)
and are sliced at ``peak - 7``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuits import grid_circuit, sycamore_circuit
from repro.core import (
    GreedySliceBaseline,
    LifetimeSliceFinder,
    SimulatedAnnealingSliceRefiner,
    SlicingCostModel,
    remove_redundant_edges,
)
from repro.costs import AnalyticCostModel
from repro.paths import GreedyOptimizer, PartitionOptimizer, TreeAnnealer
from repro.tensornet import amplitude_network, simplify_network

SEEDS = (0, 1, 2, 3)
OFFSET = 7

NETWORKS = {
    "sycamore53_m12": lambda: sycamore_circuit(cycles=12, seed=0),
    "grid5x7_m9": lambda: grid_circuit(5, 7, cycles=9, seed=0),
    "grid4x5_m10": lambda: grid_circuit(4, 5, cycles=10, seed=0),
}


def _refiner(**settings):
    def run(tree, model, target, found, seed):
        refiner = SimulatedAnnealingSliceRefiner(seed=seed, **settings)
        result = refiner.refine(tree, found.sliced, target, cost_model=model)
        trace = refiner.last_trace
        # the walk itself, not only where it ended: one changed accept/reject shows here
        walk = f"{trace.removed_redundant}/{trace.attempted_swaps}/{trace.accepted_swaps}"
        return result, walk

    return run


def _padded(tree, model, target, found, seed):
    """The finder's set plus every 17th edge, handed to ``remove_redundant_edges``."""
    padded = found.sliced | frozenset(model.indices[seed::17])
    return model.result(remove_redundant_edges(model, padded, target), target), ""


METHODS = {
    "finder": lambda tree, model, target, found, seed: (found, ""),
    "refiner_default": _refiner(),
    "refiner_fig10": _refiner(moves_per_temperature=24, max_candidates=32, cooling=0.9),
    # per-candidate seconds scoring walks the tree; a short schedule keeps it cheap
    "refiner_seconds": _refiner(
        cost_model=AnalyticCostModel(), moves_per_temperature=2, cooling=0.5
    ),
    "greedy_restarts3": lambda tree, model, target, found, seed: (
        GreedySliceBaseline(target, restarts=3, seed=seed).find(tree, cost_model=model),
        "",
    ),
    "redundant_padded": _padded,
}


def _cases(name):
    """``(tree, model, target, finder result, seed)`` for every seed of ``SEEDS``."""
    circuit = NETWORKS[name]()
    network = amplitude_network(circuit, [0] * circuit.num_qubits, concrete=False)
    simplify_network(network)
    cases = []
    for seed in SEEDS:
        if seed % 2 == 0:
            tree = PartitionOptimizer(seed=seed).tree(network)
        else:
            tree = GreedyOptimizer(temperature=0.3, seed=seed).tree(network)
        tree = TreeAnnealer(seed=seed, initial_temperature=0.1, cooling=0.8).refine(tree).tree
        model = SlicingCostModel(tree)
        target = max(tree.max_rank() - OFFSET, 4)
        found = LifetimeSliceFinder(target).find(tree, cost_model=model)
        cases.append((tree, model, target, found, seed))
    return cases


def _digests(cases, method) -> str:
    return " ".join(_digest(*METHODS[method](*case)) for case in cases)


def _digest(result, walk) -> str:
    text = ",".join(sorted(result.sliced)) + "|" + float(result.overhead).hex() + "|" + walk
    return hashlib.sha1(text.encode()).hexdigest()[:12]


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def named_cases(request):
    return request.param, _cases(request.param)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_slicing_set_matches_parent_commit(named_cases, method):
    name, cases = named_cases
    assert _digests(cases, method) == GOLDEN[name][method]


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_vector_normal_draws_the_same_stream_as_scalar_draws(n):
    """The greedy baseline draws its restart noise per candidate, in candidate order."""
    one_by_one, at_once = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(50):
        scalars = [one_by_one.standard_normal() for _ in range(n)]
        assert scalars == at_once.standard_normal(n).tolist()
    # and the generators are left in the same state for whatever is drawn next
    assert one_by_one.random() == at_once.random()


#: one digest per seed of SEEDS, in order
GOLDEN = {
    'grid4x5_m10': {
        'finder': "8865072e865f 1335c9005f65 5db7d188af20 6d6ade364ffd",
        'greedy_restarts3': "8f271f8bcba4 ba9880d82078 de1e7d2ac73c 250ce9b16c4a",
        'redundant_padded': "8865072e865f 7bed97da6472 53a9140d2f3c 1ddf63dcab2d",
        'refiner_default': "c094eb319b25 ef49da8d8fe3 bb45c1498bee 3c46bd87c042",
        'refiner_fig10': "c2c126681e2e 46ad975cb88b 20924ae3f22a 5227ff909600",
        'refiner_seconds': "473dafd31f00 a78077c9f736 8b1082dabaea 189e7bc21a2d",
    },
    'grid5x7_m9': {
        'finder': "03dceb8749a3 6422729f3391 af72bba316bb 8414a4ec6b04",
        'greedy_restarts3': "d2ccfb52b68c 636de808a6dd 2e8221892301 bd855d3a6bd4",
        'redundant_padded': "38d5d00c1e03 0f6b7a045c5e cbd34e55b51f 555fecacd3ab",
        'refiner_default': "10b6e2f25ec7 c765215d0910 8103e9f049bd ff6f20428749",
        'refiner_fig10': "76429722dcc8 b44321f828b6 975144cc1525 0d590dc55349",
        'refiner_seconds': "ee64c79ab643 9e60013a0266 19a5518b4110 0bc27a8064b2",
    },
    'sycamore53_m12': {
        'finder': "f34523eaffd0 79f40f7c6f6b 46b2fba1c080 fed07b9de7e8",
        'greedy_restarts3': "088585e3b3e3 5a7b5075c0cd 266c0cb062e2 d7968e385822",
        'redundant_padded': "b34c2356e58d bf72b132b6a9 1d8ec4bf96f1 229d399bd2de",
        'refiner_default': "7407073a6d3c c30c74e61a97 e56c0d5b14b1 7892dae334f8",
        'refiner_fig10': "8f1802d4d028 15faa7c5323b c2daa8bef14a 4cd7e4ebbf5e",
        'refiner_seconds': "91946a99de64 9180fa18a086 322126d1fa46 7d9801ab8b41",
    },
}


if __name__ == "__main__":  # pragma: no cover - the recorder
    for net_name in sorted(NETWORKS):
        net_cases = _cases(net_name)
        print(f"    {net_name!r}: {{")
        for method_name in sorted(METHODS):
            print(f'        {method_name!r}: "{_digests(net_cases, method_name)}",')
        print("    },")
