"""Tests of correlated-sample batches and the XEB estimator."""

from __future__ import annotations

import gc
import logging
import math
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import forking
from repro.circuits import (
    Circuit,
    Gate,
    StateVectorSimulator,
    grid_circuit,
    random_brickwork_circuit,
)
from repro.core import lifetime as lifetime_module
from repro.execution import SharedMemoryProcessPoolBackend, ThreadPoolBackend
from repro.execution import sampling as sampling_module
from repro.execution.plan import CompiledPlan
from repro.paths import optimizer as hyper
from repro.execution.sampling import (
    CorrelatedSampleBatch,
    CorrelatedSampler,
    linear_xeb_fidelity,
)
from repro.tensornet import CircuitToTensorNetwork, Tensor, TensorNetwork, simplify_network


@pytest.fixture(scope="module")
def sampler_case():
    circuit = random_brickwork_circuit(6, 4, seed=21)
    base = (1, 0, 0, 1, 0, 1)
    sampler = CorrelatedSampler(circuit, open_qubits=(1, 4), max_trials=4, seed=0)
    batch = sampler.compute_batch(base)
    reference = StateVectorSimulator(6).run(circuit)
    return circuit, base, sampler, batch, reference


class TestCorrelatedBatch:
    def test_batch_shape(self, sampler_case):
        _, _, sampler, batch, _ = sampler_case
        assert batch.open_qubits == (1, 4)
        assert batch.amplitudes.shape == (2, 2)
        assert batch.num_samples == 4
        assert batch.num_open_qubits == 2

    def test_amplitudes_match_statevector(self, sampler_case):
        circuit, base, _, batch, reference = sampler_case
        for b1 in range(2):
            for b4 in range(2):
                bits = list(base)
                bits[1], bits[4] = b1, b4
                assert batch.amplitudes[b1, b4] == pytest.approx(
                    reference.amplitude(bits), abs=1e-9
                )
                assert batch.amplitude_of(bits) == pytest.approx(
                    reference.amplitude(bits), abs=1e-9
                )

    def test_bitstrings_enumeration(self, sampler_case):
        _, base, _, batch, _ = sampler_case
        strings = batch.bitstrings()
        assert strings.shape == (4, 6)
        # closed qubits keep the base value on every row
        for q in (0, 2, 3, 5):
            assert np.all(strings[:, q] == base[q])
        # open qubits enumerate all four combinations
        assert len({tuple(row[[1, 4]]) for row in strings}) == 4

    def test_amplitude_of_rejects_wrong_base(self, sampler_case):
        _, base, _, batch, _ = sampler_case
        bits = list(base)
        bits[0] ^= 1  # flip a closed qubit
        with pytest.raises(ValueError):
            batch.amplitude_of(bits)
        with pytest.raises(ValueError):
            batch.amplitude_of(bits[:-1])

    def test_probabilities_and_sampling(self, sampler_case):
        _, _, _, batch, _ = sampler_case
        probs = batch.probabilities()
        assert probs.shape == (4,)
        assert np.all(probs >= 0)
        draws = batch.sample(32, seed=3)
        assert draws.shape == (32, 6)
        assert set(np.unique(draws)) <= {0, 1}

    def test_sliced_batch_matches_unsliced(self, sampler_case):
        circuit, base, _, batch, _ = sampler_case
        sampler = CorrelatedSampler(circuit, open_qubits=(1, 4), max_trials=4, seed=1)
        network, _, _ = sampler.build_network(base, concrete=True)
        inner = sorted(network.inner_indices())[:2]
        sliced_batch = sampler.compute_batch(base, sliced=inner)
        assert np.allclose(sliced_batch.amplitudes, batch.amplitudes, atol=1e-9)

    def test_target_rank_driven_slicing(self):
        circuit = random_brickwork_circuit(6, 4, seed=22)
        sampler = CorrelatedSampler(
            circuit, open_qubits=(0, 5), target_rank=4, max_trials=4, seed=2
        )
        batch = sampler.compute_batch([0] * 6)
        reference = StateVectorSimulator(6).run(circuit)
        bits = [0] * 6
        assert batch.amplitude_of(bits) == pytest.approx(reference.amplitude(bits), abs=1e-8)


class TestSamplerValidation:
    def test_requires_open_qubits(self):
        circuit = random_brickwork_circuit(4, 2, seed=0)
        with pytest.raises(ValueError):
            CorrelatedSampler(circuit, open_qubits=())

    def test_open_qubit_range_checked(self):
        circuit = random_brickwork_circuit(4, 2, seed=0)
        with pytest.raises(ValueError):
            CorrelatedSampler(circuit, open_qubits=(9,))

    def test_base_bitstring_length_checked(self):
        circuit = random_brickwork_circuit(4, 2, seed=0)
        sampler = CorrelatedSampler(circuit, open_qubits=(0,))
        with pytest.raises(ValueError):
            sampler.build_network([0, 1])

    def test_closed_bits_must_be_zero_or_one(self):
        sampler = CorrelatedSampler(grid_circuit(3, 3, cycles=6, seed=21), open_qubits=(0, 2, 4))
        with pytest.raises(ValueError, match="closed qubit 3 has bit 2"):
            sampler.compute_batch([0, 0, 1, 2, 0, 1, 7, 0, -1])
        with pytest.raises(ValueError, match="closed qubit 8 has bit -1"):
            sampler.build_network([0, 0, 1, 0, 0, 1, 1, 0, -1])
        # open-qubit entries stay ignored
        batch = sampler.compute_batch([5, 0, -1, 1, 9, 1, 1, 0, 0])
        assert batch.base_bitstring == (0, 0, 0, 1, 0, 1, 1, 0, 0)
        _assert_bitwise(batch, sampler.compute_batch([0, 0, 0, 1, 0, 1, 1, 0, 0]))


class TestXEB:
    def test_ideal_device_scores_one_on_porter_thomas(self):
        # exponential (Porter-Thomas) probabilities: <p over samples drawn
        # from p> = 2/2^n, so F = 1
        rng = np.random.default_rng(0)
        n = 10
        dim = 2**n
        probs = rng.exponential(1.0 / dim, size=dim)
        probs /= probs.sum()
        draws = rng.choice(dim, size=20000, p=probs)
        fidelity = linear_xeb_fidelity(probs[draws], n)
        assert fidelity == pytest.approx(1.0, abs=0.15)

    def test_uniform_sampler_scores_zero(self):
        rng = np.random.default_rng(1)
        n = 10
        dim = 2**n
        probs = rng.exponential(1.0 / dim, size=dim)
        probs /= probs.sum()
        draws = rng.integers(0, dim, size=20000)
        fidelity = linear_xeb_fidelity(probs[draws], n)
        assert fidelity == pytest.approx(0.0, abs=0.15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            linear_xeb_fidelity([], 4)


# ----------------------------------------------------------------------
# Plan once, rebind per bitstring
# ----------------------------------------------------------------------
#: 3x3 grid, 6 cycles, three open qubits, target rank 3: the tree peaks at
#: rank 5, so the planner slices three indices (8 subtasks per batch).
REUSE_CIRCUIT = grid_circuit(3, 3, cycles=6, seed=21)
REUSE_KWARGS = dict(open_qubits=(0, 2, 4), target_rank=3, max_trials=4, seed=2)
REUSE_SUBTASKS = 8
NUM_QUBITS = REUSE_CIRCUIT.num_qubits

bases_strategy = st.lists(
    st.tuples(*[st.integers(0, 1)] * NUM_QUBITS), min_size=1, max_size=4
)
REUSE_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fresh_batch(base, **overrides):
    """What a sampler that has never seen another bitstring returns."""
    return CorrelatedSampler(REUSE_CIRCUIT, **{**REUSE_KWARGS, **overrides}).compute_batch(base)


def _assert_bitwise(batch, reference):
    assert batch.base_bitstring == reference.base_bitstring
    assert batch.amplitudes.dtype == reference.amplitudes.dtype
    assert batch.amplitudes.tobytes() == reference.amplitudes.tobytes()


class TestStructureKey:
    def test_equal_for_every_base_bitstring(self):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        first, _, _ = sampler.build_network([0] * NUM_QUBITS)
        second, _, _ = sampler.build_network([1] * NUM_QUBITS)
        assert first.structure_key() == second.structure_key()
        assert hash(first.structure_key()) == hash(second.structure_key())
        # ... although the data of some leaves differs
        assert any(
            not np.array_equal(first.tensor(tid).data, second.tensor(tid).data)
            for tid in first
        )

    def test_sees_axis_order_shape_ids_and_outputs(self):
        data = np.arange(6.0).reshape(2, 3)
        base = TensorNetwork([Tensor(("a", "b"), data), Tensor(("b",), np.ones(3))])
        key = base.structure_key()

        transposed = base.copy()
        transposed.replace_tensor(0, Tensor(("b", "a"), data.T))
        resized = TensorNetwork([Tensor(("a", "b"), data[:, :2]), Tensor(("b",), np.ones(2))])
        renumbered = TensorNetwork()
        renumbered.add_tensor(Tensor(("a", "b"), data), tid=5)
        renumbered.add_tensor(Tensor(("b",), np.ones(3)), tid=6)
        closed = base.copy()
        closed.set_output_indices([])
        for other in (transposed, resized, renumbered, closed):
            assert other.structure_key() != key

        same_structure = base.copy()
        same_structure.replace_tensor(1, Tensor(("b",), np.zeros(3)))
        assert same_structure.structure_key() == key


class TestPlanMemo:
    def test_same_tree_object_for_structurally_equal_networks(self):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        first, _, _ = sampler.build_network([0] * NUM_QUBITS)
        second, _, _ = sampler.build_network([1, 0] * 4 + [1])
        assert sampler.plan_tree(first) is sampler.plan_tree(second)

    def test_unseeded_sampler_keeps_its_first_tree(self):
        sampler = CorrelatedSampler(
            REUSE_CIRCUIT, **{**REUSE_KWARGS, "seed": None}
        )
        network, _, _ = sampler.build_network([0] * NUM_QUBITS)
        tree = sampler.plan_tree(network)
        sampler.compute_batch([1] * NUM_QUBITS)
        assert sampler.plan_tree(network) is tree

    def test_replans_for_a_different_open_qubit_set(self):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        other = CorrelatedSampler(
            REUSE_CIRCUIT, **{**REUSE_KWARGS, "open_qubits": (1, 3)}
        )
        base = [0] * NUM_QUBITS
        own, _, _ = sampler.build_network(base)
        foreign, _, _ = other.build_network(base)
        tree = sampler.plan_tree(own)
        foreign_tree = sampler.plan_tree(foreign)
        assert foreign_tree is not tree
        assert foreign_tree.output_indices != tree.output_indices
        # single entry: going back to the first structure searches again,
        # and the pinned seed finds the same path
        again = sampler.plan_tree(own)
        assert again is not tree
        assert again.ssa_path == tree.ssa_path

    def test_replans_for_a_hand_mutated_network(self):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        base = [0] * NUM_QUBITS
        network, _, _ = sampler.build_network(base)
        tree = sampler.plan_tree(network)
        tid = next(tid for tid in network if network.tensor(tid).ndim >= 2)
        tensor = network.tensor(tid)
        network.replace_tensor(tid, tensor.transposed(tensor.indices[::-1]))
        assert sampler.plan_tree(network) is not tree

    def test_structure_change_discards_resident_executors(self):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        base = [0, 1] * 4 + [0]
        before = sampler.compute_batch(base)
        executions = sampler.stats.executions
        assert executions == REUSE_SUBTASKS
        other = CorrelatedSampler(
            REUSE_CIRCUIT, **{**REUSE_KWARGS, "open_qubits": (1, 3)}
        )
        sampler.plan_tree(other.build_network(base)[0])
        # the next batch replans, recompiles and still returns the same bits
        _assert_bitwise(sampler.compute_batch(base), before)
        assert sampler.stats.executions == 2 * REUSE_SUBTASKS

    def test_explicit_slicings_get_their_own_executor(self):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        base = [1, 1, 0, 0, 1, 0, 1, 0, 0]
        network, _, _ = sampler.build_network(base)
        inner = sorted(network.inner_indices())
        narrow, wide = inner[:1], inner[:3]
        derived = sampler.compute_batch(base)
        for slicing in (narrow, wide, narrow):
            batch = sampler.compute_batch(base, sliced=slicing)
            fresh = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS).compute_batch(
                base, sliced=slicing
            )
            _assert_bitwise(batch, fresh)
            np.testing.assert_allclose(batch.amplitudes, derived.amplitudes, atol=1e-9)
        # 8 derived subtasks, then 2 + 8 + 2 for narrow, wide, narrow again
        assert sampler.stats.executions == REUSE_SUBTASKS + 2 + 8 + 2

    def test_unsliced_batches_reuse_the_tree(self):
        """An unsliced batch runs on the one resident executor, with an empty
        slicing set: one compiled plan across batches, a repeated bitstring
        keeps the warm cache, and every batch is bitwise a fresh sampler's,
        serial and pool."""
        kwargs = {**REUSE_KWARGS, "target_rank": None}
        bases = ([0] * NUM_QUBITS, [1] * NUM_QUBITS, [1] * NUM_QUBITS)
        for backend in (None, SharedMemoryProcessPoolBackend(max_workers=2)):
            with CorrelatedSampler(REUSE_CIRCUIT, backend=backend, **kwargs) as sampler:
                plans, caches = [], []
                for base in bases:
                    batch = sampler.compute_batch(base)
                    _assert_bitwise(batch, _fresh_batch(base, target_rank=None))
                    (executor,) = sampler._resident.executors.values()
                    assert executor.sliced == ()
                    plans.append(executor.plan)
                    caches.append(dict(executor._cache))
                assert plans[0] is plans[1] is plans[2]
                # a new bitstring re-warms the cache; the same one again keeps it
                assert caches[0] and caches[0].keys() == caches[1].keys() == caches[2].keys()
                assert all(caches[1][node] is not caches[0][node] for node in caches[0])
                assert all(caches[2][node] is caches[1][node] for node in caches[1])
                network, _, _ = sampler.build_network(bases[0])
                assert sampler.plan_tree(network) is sampler.plan_tree(network)

    def test_memo_hits_misses_and_replans_are_logged(self, caplog):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        other = CorrelatedSampler(
            REUSE_CIRCUIT, **{**REUSE_KWARGS, "open_qubits": (1, 3)}
        )
        base = [0] * NUM_QUBITS
        with caplog.at_level(logging.DEBUG, logger="repro.execution.sampling"):
            sampler.compute_batch(base)
            sampler.compute_batch([1] * NUM_QUBITS)
            sampler.plan_tree(other.build_network(base)[0])
        records = [
            r
            for r in caplog.records
            # the bound-violation warning and the per-batch replay line have
            # their own tests below
            if r.name == "repro.execution.sampling"
            and r.levelno < logging.WARNING
            and not r.getMessage().startswith("replayed")
        ]
        assert [r.levelno for r in records] == [logging.DEBUG, logging.DEBUG, logging.INFO]
        miss, hit, replan = (r.getMessage() for r in records)
        assert "miss" in miss and "hit" in hit and "replanning" in replan
        # the structure's short hash ties the three lines together
        digest = miss.rsplit(" ", 1)[1]
        assert len(digest) == 12
        int(digest, 16)  # raises unless hexadecimal
        assert hit.endswith(digest)
        assert f"{digest} ->" in replan

    def test_dropped_open_indices_that_break_the_bound_are_logged_once(self, caplog):
        """The finder may pick an open output index; dropping it can miss ``target_rank``."""
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        with caplog.at_level(logging.WARNING, logger="repro.execution.sampling"):
            network, _, _ = sampler.build_network([0] * NUM_QUBITS)
            tree = sampler.plan_tree(network)
            slicing = sampler._derived_slicing(network)
            sampler.compute_batch([0] * NUM_QUBITS)
            sampler.compute_batch([1] * NUM_QUBITS)
        (record,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        target = REUSE_KWARGS["target_rank"]
        realised = tree.max_rank(slicing)
        assert realised > target
        assert slicing <= network.inner_indices()
        message = record.getMessage()
        assert f"target_rank={target}" in message and f"peak rank {realised}" in message

    def test_no_warning_when_the_bound_holds(self, caplog):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **{**REUSE_KWARGS, "target_rank": 64})
        with caplog.at_level(logging.WARNING, logger="repro.execution.sampling"):
            sampler.compute_batch([0] * NUM_QUBITS)
        assert not caplog.records


class TestReuseIsBitwiseAFreshSampler:
    """One long-lived sampler ≡ a fresh sampler per bitstring, bit for bit."""

    @REUSE_SETTINGS
    @given(bases=bases_strategy)
    def test_serial(self, bases):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        for base in bases:
            _assert_bitwise(sampler.compute_batch(base), _fresh_batch(base))

    @REUSE_SETTINGS
    @given(bases=bases_strategy)
    def test_thread_pool(self, bases):
        sampler = CorrelatedSampler(
            REUSE_CIRCUIT, backend=ThreadPoolBackend(max_workers=2), **REUSE_KWARGS
        )
        for base in bases:
            _assert_bitwise(sampler.compute_batch(base), _fresh_batch(base))

    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: None,
            lambda: ThreadPoolBackend(max_workers=2),
            lambda: SharedMemoryProcessPoolBackend(max_workers=2),
        ],
        ids=["serial", "threads", "process-pool"],
    )
    def test_batches_differing_in_one_closed_qubit(self, make_backend):
        """Only one projector leaf changes between the batches: no partial
        contracted from the previous one may be resumed from."""
        closed = next(q for q in range(NUM_QUBITS) if q not in REUSE_KWARGS["open_qubits"])
        base = [0] * NUM_QUBITS
        flipped = list(base)
        flipped[closed] = 1
        with CorrelatedSampler(REUSE_CIRCUIT, backend=make_backend(), **REUSE_KWARGS) as sampler:
            with sampler.session():
                for bits in (base, flipped, base, flipped):
                    _assert_bitwise(sampler.compute_batch(bits), _fresh_batch(bits))

    @REUSE_SETTINGS
    @given(bases=bases_strategy)
    def test_reference_mode(self, bases):
        sampler = CorrelatedSampler(
            REUSE_CIRCUIT, executor_mode="reference", **REUSE_KWARGS
        )
        for base in bases:
            _assert_bitwise(
                sampler.compute_batch(base), _fresh_batch(base, executor_mode="reference")
            )

    def test_against_the_statevector(self):
        reference = StateVectorSimulator(NUM_QUBITS).run(REUSE_CIRCUIT)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        rng = np.random.default_rng(5)
        for _ in range(3):
            base = [int(b) for b in rng.integers(0, 2, NUM_QUBITS)]
            batch = sampler.compute_batch(base)
            for row, amplitude in zip(batch.bitstrings(), batch.amplitudes.reshape(-1)):
                assert amplitude == pytest.approx(reference.amplitude(list(row)), abs=1e-9)


class TestSamplerStatsAccounting:
    @pytest.mark.parametrize("make_backend", [lambda: None, lambda: ThreadPoolBackend(max_workers=2)])
    def test_each_subtask_is_counted_once(self, make_backend):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, backend=make_backend(), **REUSE_KWARGS)
        rng = np.random.default_rng(9)
        for batches in range(1, 5):
            sampler.compute_batch([int(b) for b in rng.integers(0, 2, NUM_QUBITS)])
            assert sampler.stats.executions == batches * REUSE_SUBTASKS
            assert sampler.stats.timed_subtasks == batches * REUSE_SUBTASKS

    def test_each_subtask_is_counted_once_with_a_twin(self, may_fork, twin_spy):
        """The twin's stats come back pickled and are merged: the counts of
        a twinned run are an inline run's."""
        inline = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        rng = np.random.default_rng(9)
        with sampler.session():
            for batches in range(1, 7):
                base = [int(b) for b in rng.integers(0, 2, NUM_QUBITS)]
                inline.compute_batch(base)
                sampler.compute_batch(base)
                assert sampler.stats.executions == batches * REUSE_SUBTASKS
                assert sampler.stats.timed_subtasks == batches * REUSE_SUBTASKS
        assert len(twin_spy) == 1
        ours, theirs = sampler.stats, inline.stats
        assert ours.cache_hits == theirs.cache_hits
        assert ours.slot_writes == theirs.slot_writes
        # the split falls where the slowest sliced index changes: the inline
        # sweep walks from the top there too, so even the steps agree
        assert ours.node_counts == theirs.node_counts
        assert len(ours.subtask_seconds) == len(theirs.subtask_seconds)


# ----------------------------------------------------------------------
# Convert and simplify once, replay the kets' merges per bitstring
# ----------------------------------------------------------------------
class _Complex64Gate(Gate):
    def tensor(self):
        return super().tensor().astype(np.complex64)


def _complex64_circuit():
    """Gates in complex64 behind complex128 input kets: every merge mixes dtypes."""
    circuit = Circuit(4)
    for layer in range(3):
        for q in range(4):
            circuit.add_gate(_Complex64Gate("h", (q,)))
        for q in range(layer % 2, 3, 2):
            circuit.add_gate(_Complex64Gate("fsim", (q, q + 1), (0.4, 0.3)))
    return circuit


def _lonely_qubit_circuit():
    """Qubit 3 sees single-qubit gates only: its closed ket folds into the prefactor."""
    circuit = random_brickwork_circuit(3, 3, seed=4)
    lonely = Circuit(4, list(circuit))
    for name in ("h", "t", "sx", "rz"):
        lonely.add_gate(Gate(name, (3,), (0.7,) if name == "rz" else ()))
    return lonely


#: (circuit, open qubits): the reuse circuit and three hostile ones
REPLAY_CASES = {
    "reuse": (REUSE_CIRCUIT, REUSE_KWARGS["open_qubits"]),
    "complex64": (_complex64_circuit(), (1, 2)),
    "lonely-qubit": (_lonely_qubit_circuit(), (0,)),
    "one-closed": (random_brickwork_circuit(5, 3, seed=8), (0, 1, 2, 4)),
}


def _projected(circuit, open_qubits, base):
    """The converted circuit with its closed qubits projected, and the kets' ids."""
    result = CircuitToTensorNetwork().convert(circuit)
    network = result.network
    dtype = next(iter(network.tensors().values())).data.dtype
    outputs, kets = [], set()
    for qubit, index in result.output_index_of_qubit.items():
        if qubit in open_qubits:
            outputs.append(index)
            continue
        ket = np.array([1.0, 0.0] if base[qubit] == 0 else [0.0, 1.0], dtype=dtype)
        kets.add(network.add_tensor(Tensor((index,), data=ket, tags=("output", f"qubit:{qubit}"))))
    network.set_output_indices(outputs)
    return network, kets


def _full_build(circuit, open_qubits, base):
    """Convert, project the closed qubits and simplify from scratch."""
    network, _ = _projected(circuit, open_qubits, base)
    return network, simplify_network(network).scalar_prefactor


def _assert_same_network(network, reference):
    assert list(network) == list(reference)
    assert network.output_indices() == reference.output_indices()
    for tid in reference:
        got, want = network.tensor(tid), reference.tensor(tid)
        assert got.indices == want.indices
        assert got.tags == want.tags
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes()


def _descended_merges(circuit, open_qubits, base, monkeypatch):
    """``(merges descending from a closed qubit's ket, all merges)`` of a full build."""
    network, descended = _projected(circuit, open_qubits, base)
    merges = [0, 0]
    real = TensorNetwork.contract_pair

    def spy(network, tid_a, tid_b):
        out = real(network, tid_a, tid_b)
        merges[1] += 1
        if tid_a in descended or tid_b in descended:
            descended.add(out)
            merges[0] += 1
        return out

    with monkeypatch.context() as patch:
        patch.setattr(TensorNetwork, "contract_pair", spy)
        simplify_network(network)
    return tuple(merges)


def _replay_bases(num_qubits):
    return st.lists(st.tuples(*[st.integers(0, 1)] * num_qubits), min_size=2, max_size=4)


class TestBuildReplay:
    """``build_network`` converts and simplifies once and replays the kets' merges."""

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_replayed_build_is_bitwise_a_full_one(self, case, data):
        circuit, open_qubits = REPLAY_CASES[case]
        bases = data.draw(_replay_bases(circuit.num_qubits))
        sampler = CorrelatedSampler(circuit, open_qubits=open_qubits)
        for base in bases:
            network, open_index, prefactor = sampler.build_network(base)
            reference, reference_prefactor = _full_build(circuit, open_qubits, base)
            _assert_same_network(network, reference)
            assert (
                np.complex128(prefactor).tobytes() == np.complex128(reference_prefactor).tobytes()
            )
            assert sorted(open_index.values()) == sorted(reference.output_indices())

    def test_a_lonely_closed_qubit_moves_the_prefactor(self):
        circuit, open_qubits = REPLAY_CASES["lonely-qubit"]
        sampler = CorrelatedSampler(circuit, open_qubits=open_qubits)
        _, _, zero = sampler.build_network([0, 0, 0, 0])
        _, _, one = sampler.build_network([0, 0, 0, 1])
        assert zero != one
        assert one == _full_build(circuit, open_qubits, [0, 0, 0, 1])[1]

    def test_an_abstract_build_is_a_full_abstract_one(self):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        for base in ([0] * NUM_QUBITS, [1] * NUM_QUBITS):
            network, _, prefactor = sampler.build_network(base, concrete=False)
            expected, _ = _full_build(REUSE_CIRCUIT, REUSE_KWARGS["open_qubits"], base)
            assert network.structure_key() == expected.structure_key()
            assert not network.is_concrete() and prefactor == 1

    def test_the_circuit_is_converted_once(self, monkeypatch):
        converted = []
        real = CircuitToTensorNetwork.convert
        monkeypatch.setattr(
            CircuitToTensorNetwork,
            "convert",
            lambda self, *args, **kwargs: converted.append(1) or real(self, *args, **kwargs),
        )
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        for base in ([0] * NUM_QUBITS, [1] * NUM_QUBITS, [1, 0] * 4 + [1]):
            sampler.compute_batch(base)
            sampler.build_network(base)
        assert len(converted) == 1

    def test_each_build_replays_the_ket_descended_merges_only(self, monkeypatch):
        open_qubits = REUSE_KWARGS["open_qubits"]
        base = [0] * NUM_QUBITS
        descended, total = _descended_merges(REUSE_CIRCUIT, open_qubits, base, monkeypatch)
        assert (descended, total) == (27, 82)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        sampler.build_network(base)  # the one full build
        calls = []
        real = np.tensordot
        monkeypatch.setattr(
            np, "tensordot", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
        )
        for other in ([1] * NUM_QUBITS, [1, 0] * 4 + [1], [1] * NUM_QUBITS):
            calls.clear()
            sampler.build_network(other)
            assert len(calls) == descended

    def test_the_bench_batch_replays_54_of_its_222_merges(self, monkeypatch):
        circuit = grid_circuit(4, 5, cycles=8, seed=3)
        open_qubits = tuple(range(0, 16, 2))
        base = [int(b) for b in np.random.default_rng(3).integers(0, 2, 20)]
        assert _descended_merges(circuit, open_qubits, base, monkeypatch) == (54, 222)
        sampler = CorrelatedSampler(circuit, open_qubits=open_qubits)
        network, _, _ = sampler.build_network(base)
        other, _, _ = sampler.build_network([1 - b for b in base])
        changed = [
            tid for tid in network
            if network.tensor(tid).data.tobytes() != other.tensor(tid).data.tobytes()
        ]
        assert len(network) == 52 and len(changed) == 10

    def _resident_spies(self, sampler, monkeypatch):
        """Record leaves rebound into the resident network and cache warm-ups."""
        rebound, warmed = [], []
        replace, warm = TensorNetwork.replace_tensor, CompiledPlan.warm_cache

        def spy_replace(network, tid, tensor):
            resident = sampler._resident
            if resident is not None and network is resident.network:
                rebound.append(tid)
            return replace(network, tid, tensor)

        def spy_warm(plan, *args, **kwargs):
            warmed.append(1)
            return warm(plan, *args, **kwargs)

        monkeypatch.setattr(TensorNetwork, "replace_tensor", spy_replace)
        monkeypatch.setattr(CompiledPlan, "warm_cache", spy_warm)
        return rebound, warmed

    def test_only_leaves_whose_data_differ_are_rebound(self, monkeypatch):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        first, second = [0] * NUM_QUBITS, [1, 0] * 4 + [1]
        sampler.compute_batch(first)
        before, _, _ = sampler.build_network(first)
        after, _, _ = sampler.build_network(second)
        differ = [
            tid for tid in after
            if after.tensor(tid).data.tobytes() != before.tensor(tid).data.tobytes()
        ]
        assert 0 < len(differ) < len(after)
        fresh = _fresh_batch(second)
        rebound, warmed = self._resident_spies(sampler, monkeypatch)
        _assert_bitwise(sampler.compute_batch(second), fresh)
        assert rebound == differ
        assert len(warmed) == 1

    def test_the_same_bitstring_twice_rebinds_nothing_and_stays_warm(self, monkeypatch):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        base = [1, 1, 0, 0, 1, 0, 1, 0, 0]
        first = sampler.compute_batch(base)
        rebound, warmed = self._resident_spies(sampler, monkeypatch)
        _assert_bitwise(sampler.compute_batch(base), first)
        assert rebound == [] and warmed == []

    def test_a_new_bitstring_keeps_the_bound_walk(self):
        """Rebinding leaves and re-warming the cache bind nothing: the
        resident executor's arena runs the op list it bound on the first
        batch, and the batch is bitwise a fresh sampler's."""
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        first, second = [0] * NUM_QUBITS, [1, 0] * 4 + [1]
        sampler.compute_batch(first)
        (executor,) = sampler._resident.executors.values()
        slots = executor.backend._slots
        binding = slots._views[2]
        assert binding.suffixes[0][0]  # (a real op list)
        _assert_bitwise(sampler.compute_batch(second), _fresh_batch(second))
        assert slots._views[2] is binding

    def test_each_batch_logs_its_replay(self, caplog):
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        first, second = [0] * NUM_QUBITS, [1, 0] * 4 + [1]
        before, _, _ = sampler.build_network(first)
        after, _, _ = sampler.build_network(second)
        differ = sum(
            after.tensor(tid).data.tobytes() != before.tensor(tid).data.tobytes() for tid in after
        )
        with caplog.at_level(logging.DEBUG, logger="repro.execution.sampling"):
            for base in (first, second, second):
                sampler.compute_batch(base)
        lines = [
            r.getMessage()
            for r in caplog.records
            if r.levelno == logging.DEBUG and r.getMessage().startswith("replayed")
        ]
        assert lines == [
            "replayed 27 merges, rebound 14 of 14 leaves",
            f"replayed 27 merges, rebound {differ} of 14 leaves",
            "replayed 27 merges, rebound 0 of 14 leaves",
        ]


# ----------------------------------------------------------------------
# A sampling session splits its batches with one forked twin
# ----------------------------------------------------------------------
def _shared_mappings():
    """This process's anonymous shared mappings (what ``mmap.mmap(-1, n)`` makes)."""
    with open("/proc/self/maps") as maps:
        return sum(" rw-s " in line and "/dev/zero" in line for line in maps)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


def _reaped(pid):
    """Whether ``pid`` is no child of this process any more, not even a zombie."""
    children = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as listed:
            children.update(map(int, listed.read().split()))
    return pid not in children


def _await_zombie(pid):
    for _ in range(1000):
        with open(f"/proc/{pid}/stat") as stat:
            if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} did not die")


_TWIN, _WAIT = forking.Twin, forking.Twin.wait
_RAN_SPLIT = sampling_module._SamplingSession.ran_split


@pytest.fixture
def may_fork(monkeypatch):
    """Two usable CPUs, a single-threaded BLAS, any sweep paying for a fork
    and every twin kept, however long its split batches take: the small
    test circuits share too little to beat the inline sweep."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(forking, "native_threads", lambda: 1)
    monkeypatch.setattr(forking, "_FORK_SECONDS", 0.0)
    monkeypatch.setattr(sampling_module._SamplingSession, "ran_split", lambda *args: None)


@pytest.fixture
def twin_spy(monkeypatch):
    """The pid of every twin a session forks (the real twin still runs)."""
    forked = []
    real = forking.Twin

    def spy(*args):
        twin = real(*args)
        forked.append(twin.pid)
        return twin

    monkeypatch.setattr(forking, "Twin", spy)
    return forked


def _twin_bases(count, seed=4):
    rng = np.random.default_rng(seed)
    bases = [[int(b) for b in rng.integers(0, 2, NUM_QUBITS)] for _ in range(count)]
    bases[4] = bases[3]  # a repeated bitstring rebinds 0 leaves
    return bases


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/proc/self/fd"),
    reason="the twin forks; the checks read /proc",
)
class TestSamplingTwin:
    """``sampler.session()`` without a backend: inline batches until a fork
    pays, then every batch split with one forked twin — bit for bit the
    inline batch, and nothing outlives the session."""

    @pytest.fixture(autouse=True)
    def nothing_outlives_a_test(self):
        fds, mappings = _open_fds(), _shared_mappings()
        yield
        gc.collect()
        assert multiprocessing.active_children() == []
        assert _open_fds() <= fds
        assert _shared_mappings() <= mappings

    @pytest.mark.parametrize("case", ["plain", "inner_fold"])
    def test_a_twinned_batch_is_bitwise_an_inline_one(
        self, monkeypatch, may_fork, twin_spy, case, caplog
    ):
        """CI runs this under two fixed ``PYTHONHASHSEED``s too."""
        if case == "inner_fold":
            monkeypatch.setattr(lifetime_module, "INNER_FOLD_PRODUCT", math.inf)
        inline = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        split = []
        with caplog.at_level(logging.WARNING, logger="repro.execution.sampling"):
            with sampler.session() as session:
                for base in _twin_bases(8):
                    split.append(session.split is not None)
                    _assert_bitwise(sampler.compute_batch(base), inline.compute_batch(base))
                (executor,) = sampler._resident.executors.values()
                assert (executor.plan.inner_fold is not None) == (case == "inner_fold")
        # inline until two batches have run, then split: the repeated
        # bitstring (batch 4) keeps the warm cache on both sides of the fork
        assert split == [False, False] + [True] * 6
        assert len(twin_spy) == 1 and _reaped(twin_spy[0])
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING and "twin" in r.getMessage()]

    @pytest.mark.parametrize(
        "rule",
        [
            "no_session",
            "below_price",
            "one_cpu",
            "live_thread",
            "native_thread",
            "daemon",
            "explicit_sliced",
            "one_block",
        ],
    )
    def test_each_inline_rule_keeps_the_twin_unforked(self, monkeypatch, may_fork, rule):
        def refuse(*args):
            raise AssertionError("a sampling twin was forked")

        monkeypatch.setattr(forking, "Twin", refuse)
        if rule == "below_price":
            monkeypatch.setattr(forking, "_FORK_SECONDS", math.inf)
        if rule == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        if rule == "native_thread":  # a multi-threaded BLAS has the cores already
            monkeypatch.setattr(forking, "native_threads", lambda: 2)
        if rule == "daemon":  # a daemonic pool worker may not have children
            daemon = SimpleNamespace(daemon=True)
            monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
        kwargs = dict(REUSE_KWARGS, target_rank=64) if rule == "one_block" else REUSE_KWARGS
        inline = CorrelatedSampler(REUSE_CIRCUIT, **kwargs)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **kwargs)
        sliced = None
        if rule == "explicit_sliced":
            inline.compute_batch([0] * NUM_QUBITS)
            sliced = sorted(inline._resident.derived_slicing)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        if rule == "live_thread":
            other.start()
        try:
            session = None if rule == "no_session" else sampler.session()
            for base in _twin_bases(5):
                batch = sampler.compute_batch(base, sliced=sliced)
                _assert_bitwise(batch, inline.compute_batch(base, sliced=sliced))
            if session is not None:
                assert session.split is None
                session.close()
        finally:
            release.set()
            if rule == "live_thread":
                other.join(timeout=10)
                assert not other.is_alive()

    def test_a_batch_the_twin_cannot_mirror_retires_it(self, may_fork, twin_spy):
        """An explicit ``sliced=`` and a new network structure run inline and
        retire the twin; the session forks a new one once a fork pays again."""
        inline = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        bases = _twin_bases(9)
        with sampler.session() as session:
            for base in bases[:3]:
                sampler.compute_batch(base)
            assert session.split is not None and len(twin_spy) == 1
            inline.compute_batch(bases[3])
            sliced = sorted(inline._resident.derived_slicing)
            _assert_bitwise(
                sampler.compute_batch(bases[3], sliced=sliced),
                inline.compute_batch(bases[3], sliced=sliced),
            )
            assert session.split is None and _reaped(twin_spy[0])
            for base in bases[4:7]:
                _assert_bitwise(sampler.compute_batch(base), inline.compute_batch(base))
            assert session.split is not None and len(twin_spy) == 2
            # another structure planned in between: the batch replans
            other = CorrelatedSampler(REUSE_CIRCUIT, **{**REUSE_KWARGS, "open_qubits": (1, 3)})
            sampler.plan_tree(other.build_network(bases[7])[0])
            _assert_bitwise(sampler.compute_batch(bases[7]), inline.compute_batch(bases[7]))
            assert session.split is None and _reaped(twin_spy[1])

    def test_a_search_beside_the_twin_lets_it_exit_at_the_end_of_its_pipe(
        self, monkeypatch, may_fork, twin_spy
    ):
        """A new structure planned inside the session splits its trials with
        forked trial twins beside the live sampling twin.  None of them keeps
        its request pipe open: once the session closes it, the sampling twin
        exits on its own, with status 0."""
        trial_twins, real = [], hyper.Twin

        def spy(serve):
            trial_twins.append(real(serve))
            return trial_twins[-1]

        monkeypatch.setattr(hyper, "Twin", spy)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        bases = _twin_bases(5)
        exits = []

        def await_exit(pid, signum):  # in place of the close's SIGKILL
            _await_zombie(pid)
            exits.append(os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT))

        with sampler.session() as session:
            for base in bases[:3]:
                sampler.compute_batch(base)
            assert session.split is not None and len(twin_spy) == 1
            searched = len(trial_twins)
            other = CorrelatedSampler(REUSE_CIRCUIT, **{**REUSE_KWARGS, "open_qubits": (1, 3)})
            sampler.plan_tree(other.build_network(bases[3])[0])
            assert len(trial_twins) == searched + 1 and session.split is not None
            assert all(_reaped(twin.pid) for twin in trial_twins)
            monkeypatch.setattr(os, "kill", await_exit)
        (ended,) = exits
        assert (ended.si_pid, ended.si_code, ended.si_status) == (twin_spy[0], os.CLD_EXITED, 0)
        assert _reaped(twin_spy[0])

    @pytest.mark.parametrize("split_wins", [False, True])
    def test_the_first_warm_split_batches_decide_whether_the_twin_stays(
        self, monkeypatch, may_fork, twin_spy, caplog, split_wins
    ):
        """A split batch pays a pipe round trip and the twin's own preparation
        for its half of the sweep: the twin stays only if one of the two
        split batches after its first swept faster than the fastest inline
        batch."""
        monkeypatch.setattr(sampling_module._SamplingSession, "ran_split", _RAN_SPLIT)
        if not split_wins:  # (the 3x3 grid's inline sweeps take about a millisecond)
            monkeypatch.setattr(_TWIN, "wait", lambda twin: time.sleep(0.2) or _WAIT(twin))
        inline = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        split = []
        with caplog.at_level(logging.INFO, logger="repro.execution.sampling"):
            with sampler.session() as session:
                for base in _twin_bases(6):
                    split.append(session.split is not None)
                    if split_wins and split[-1] and session.split.inline_s is not None:
                        session.split.inline_s = math.inf
                    _assert_bitwise(sampler.compute_batch(base), inline.compute_batch(base))
                assert session.stay_inline != split_wins
        assert split == [False, False, True, True, True, split_wins]
        assert len(twin_spy) == 1 and _reaped(twin_spy[0])
        records = [r for r in caplog.records if "twin" in r.getMessage()]
        if split_wins:
            assert records == []
        else:
            (record,) = records
            assert record.levelno == logging.INFO
            assert record.getMessage().startswith(
                "sampling twin retired: neither of two warm split sweeps beat the "
                "fastest inline one, "
            )

    @pytest.mark.faults
    @pytest.mark.parametrize("when", ["mid_batch", "between_batches"])
    def test_a_killed_twin_costs_one_warning_and_not_the_bits(
        self, monkeypatch, may_fork, twin_spy, caplog, when
    ):
        parent, real = os.getpid(), sampling_module._swept_blocks

        def run_then_die(*args):
            blocks = real(*args)
            if os.getpid() == parent:
                return blocks

            def dying():  # the twin dies once its first block is in its row
                yield next(blocks)
                os.kill(os.getpid(), signal.SIGKILL)

            return dying()

        if when == "mid_batch":
            monkeypatch.setattr(sampling_module, "_swept_blocks", run_then_die)
        monkeypatch.setattr(lifetime_module, "INNER_FOLD_PRODUCT", math.inf)
        inline = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        with caplog.at_level(logging.WARNING), sampler.session() as session:
            for base in _twin_bases(6):
                _assert_bitwise(sampler.compute_batch(base), inline.compute_batch(base))
                if twin_spy:
                    assert _reaped(twin_spy[0]) == (session.split is None)
                if session.split is not None and when == "between_batches":
                    os.kill(twin_spy[0], signal.SIGKILL)
                    _await_zombie(twin_spy[0])
            assert session.split is None and session.stay_inline
        assert len(twin_spy) == 1 and _reaped(twin_spy[0])
        assert sampler.stats.executions == inline.stats.executions
        (record,) = [r for r in caplog.records if "twin" in r.getMessage()]
        assert record.name == "repro.execution.sampling" and record.levelno == logging.WARNING
        message = record.getMessage()
        if when == "mid_batch":
            assert message.startswith("sampling twin lost (EOFError: ")
            assert "; blocks 1-1 of this batch run inline, and so does every later" in message
        else:  # the request finds no reader
            assert message.startswith("sampling twin lost (BrokenPipeError: ")
            assert "; the batch runs inline, and so does every later" in message

    @pytest.mark.parametrize("end", ["session_close", "sampler_close", "garbage_collection"])
    def test_nothing_outlives_the_session(self, may_fork, twin_spy, end):
        fds, mappings = _open_fds(), _shared_mappings()
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **REUSE_KWARGS)
        session = sampler.session()
        for base in _twin_bases(5):
            sampler.compute_batch(base)
        assert session.split is not None
        assert _shared_mappings() == mappings + 1 and len(_open_fds() - fds) == 2
        if end == "session_close":
            session.close()
        elif end == "sampler_close":
            sampler.close()
            assert session.closed
        else:
            del sampler, session
            gc.collect()
        assert len(twin_spy) == 1 and _reaped(twin_spy[0])
        assert multiprocessing.active_children() == []
        assert _open_fds() <= fds and _shared_mappings() == mappings

    def test_a_warm_twinned_batch_peaks_no_higher_than_an_inline_one(self, may_fork):
        """The parent of a split batch allocates no more than an inline batch:
        no pickle, no list of blocks.  Traced after 20 batches, as the bench
        traces a warm one (the first batches of a sampler peak higher); the
        4x4 grid's batches are 128 blocks of one subtask."""
        circuit = grid_circuit(4, 4, cycles=8, seed=3)
        kwargs = dict(open_qubits=tuple(range(0, 12, 2)), target_rank=9, max_trials=2, seed=1)
        rng = np.random.default_rng(3)
        bases = [[int(b) for b in rng.integers(0, 2, 16)] for _ in range(23)]
        inline = CorrelatedSampler(circuit, **kwargs)
        sampler = CorrelatedSampler(circuit, **kwargs)

        def peak(batch):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                batch()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        with sampler.session() as session:
            for base in bases[:20]:
                inline.compute_batch(base)
                sampler.compute_batch(base)
            assert session.split is not None and session.split.stop == 128
            for base in bases[20:]:
                ours = peak(lambda: sampler.compute_batch(base))
                theirs = peak(lambda: inline.compute_batch(base))
                assert ours <= 1.02 * theirs, (ours, theirs)
