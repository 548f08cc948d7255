"""Tests of correlated-sample batches and the XEB estimator."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    Gate,
    StateVectorSimulator,
    grid_circuit,
    random_brickwork_circuit,
)
from repro.execution import SharedMemoryProcessPoolBackend, ThreadPoolBackend
from repro.execution.plan import CompiledPlan
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
