"""Tests of correlated-sample batches and the XEB estimator."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import StateVectorSimulator, grid_circuit, random_brickwork_circuit
from repro.execution import SharedMemoryProcessPoolBackend, ThreadPoolBackend
from repro.execution.sampling import (
    CorrelatedSampleBatch,
    CorrelatedSampler,
    linear_xeb_fidelity,
)
from repro.tensornet import Tensor, TensorNetwork


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
        kwargs = {**REUSE_KWARGS, "target_rank": None}
        sampler = CorrelatedSampler(REUSE_CIRCUIT, **kwargs)
        bases = ([0] * NUM_QUBITS, [1] * NUM_QUBITS)
        for base in bases:
            _assert_bitwise(sampler.compute_batch(base), _fresh_batch(base, target_rank=None))
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
            # the bound-violation warning has its own test below
            if r.name == "repro.execution.sampling" and r.levelno < logging.WARNING
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
