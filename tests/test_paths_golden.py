"""Golden SSA paths: every optimiser returns the same tree for the same (network, seed).

The digests below were recorded on the commit *before* the string-set index
algebra of ``repro.paths`` was replaced by integer masks, by running this
file as a script (``PYTHONPATH=src python tests/test_paths_golden.py``).
They pin the identical-tree contract: a change to the hot loops that alters
one RNG draw, one tie-break or one accept/reject decision fails here by
name.  CI runs this file under two ``PYTHONHASHSEED`` values, so a tree that
depends on string-set iteration order fails too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuits import grid_circuit, sycamore_circuit
from repro.paths import (
    CommunityOptimizer,
    GreedyOptimizer,
    HyperOptimizer,
    PartitionOptimizer,
    TreeAnnealer,
)
from repro.tensornet import amplitude_network, simplify_network

SEEDS = (0, 1, 2, 3)

NETWORKS = {
    "sycamore53_m12": lambda: sycamore_circuit(cycles=12, seed=0),
    "grid5x7_m9": lambda: grid_circuit(5, 7, cycles=9, seed=0),
    "grid4x5_m10": lambda: grid_circuit(4, 5, cycles=10, seed=0),
}


def _anneal(bounded):
    def run(network, seed):
        tree = GreedyOptimizer(seed=seed).tree(network)
        bound = tree.max_intermediate_log2_size() if bounded else None
        return TreeAnnealer(seed=seed).refine(tree, max_size_log2=bound).tree.ssa_path

    return run


METHODS = {
    "anneal": _anneal(bounded=False),
    "anneal_bounded": _anneal(bounded=True),
    "greedy_t0": lambda tn, seed: GreedyOptimizer(seed=seed).ssa_path(tn),
    "greedy_t0.3": lambda tn, seed: GreedyOptimizer(temperature=0.3, seed=seed).ssa_path(tn),
    "partition": lambda tn, seed: PartitionOptimizer(seed=seed).ssa_path(tn),
    "community": lambda tn, seed: CommunityOptimizer(seed=seed).ssa_path(tn),
    "hyper_combo8": lambda tn, seed: HyperOptimizer(
        max_trials=8, minimize="combo", seed=seed
    ).search(tn).ssa_path,
}


def _network(name):
    circuit = NETWORKS[name]()
    network = amplitude_network(circuit, [0] * circuit.num_qubits, concrete=False)
    simplify_network(network)
    return network


def _digests(network, method) -> str:
    return " ".join(_digest(METHODS[method](network, seed)) for seed in SEEDS)


def _digest(ssa_path) -> str:
    text = ";".join(f"{int(a)},{int(b)}" for a, b in ssa_path)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def named_network(request):
    return request.param, _network(request.param)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_ssa_path_matches_parent_commit(named_network, method):
    name, network = named_network
    assert _digests(network, method) == GOLDEN[name][method]


@pytest.mark.parametrize("n", [1, 2, 3, 226, 1000])
def test_integers_draws_the_same_stream_as_choice(n):
    """The annealer picks ``items[rng.integers(n)]`` where it used ``rng.choice(items)``."""
    items = list(range(100, 100 + n))
    by_choice, by_integers = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(200):
        assert int(by_choice.choice(items)) == items[int(by_integers.integers(n))]
    # and the generators are left in the same state for whatever is drawn next
    assert by_choice.random() == by_integers.random()


#: one digest per seed of SEEDS, in order
GOLDEN = {
    'grid4x5_m10': {
        'anneal': "356740e6dd63 3a0423098cab 6babb3bd7151 8ef6b9d466f1",
        'anneal_bounded': "356740e6dd63 3a0423098cab 49f1e4d4c2e3 9ad98072bdef",
        'community': "ff98fb0bd323 ff98fb0bd323 ff98fb0bd323 ff98fb0bd323",
        'greedy_t0': "d1991deb233d d1991deb233d d1991deb233d d1991deb233d",
        'greedy_t0.3': "f558cc818e84 1aa64f0dfb25 f58ac20f1398 15da4270567a",
        'hyper_combo8': "49211d4a9c36 0f555fd08c0b 64feb060fa2f 285caf0866d5",
        'partition': "0ff9072449dd ea0ac8644a87 321566c8076c 932db481427c",
    },
    'grid5x7_m9': {
        'anneal': "3f20c17bc98d 9353ed79278f 61b758842180 ca1c0d4881ac",
        'anneal_bounded': "a439a6923d60 6791ad3da243 cbfeb07681e6 fa13ef4f0aa9",
        'community': "9874b5c7f35d 9874b5c7f35d 9874b5c7f35d 9874b5c7f35d",
        'greedy_t0': "8513f68bc549 8513f68bc549 8513f68bc549 8513f68bc549",
        'greedy_t0.3': "545c7e8b6334 27aa0b3414f7 9efe8d6a1d67 2d97ba0809e6",
        'hyper_combo8': "6612c1a4c404 00a1181dc639 b897f05ba3ed d40fff94891a",
        'partition': "66402c56bd6c ecbda173fd10 03ff19c3e7c2 09aca23e1401",
    },
    'sycamore53_m12': {
        'anneal': "efeaa1d23df0 0c519f2ea9d8 1ca6c8806442 9776e1d1c550",
        'anneal_bounded': "0c105051fec7 8db5b79af6b1 c03369667b9b b4467fe62112",
        'community': "b55de7570405 b55de7570405 b55de7570405 b55de7570405",
        'greedy_t0': "6d43ed06b194 6d43ed06b194 6d43ed06b194 6d43ed06b194",
        'greedy_t0.3': "ff6c0fc7a940 99f1b76b0629 597e7b2ac3a3 5a646bebd3f2",
        'hyper_combo8': "054f949555d7 a3d8b119691d 73aaf78d9f95 7b883256bb67",
        'partition': "c33187c66671 a27cbf7a3337 df42d3cedbc8 6d12b9c817c6",
    },
}


if __name__ == "__main__":  # pragma: no cover - the recorder
    for net_name in sorted(NETWORKS):
        tn = _network(net_name)
        print(f"    {net_name!r}: {{")
        for method in sorted(METHODS):
            print(f'        {method!r}: "{_digests(tn, method)}",')
        print("    },")
