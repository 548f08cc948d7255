"""``fused=True`` ≡ the default path, on every backend.

A fused plan is the same compiled step list additionally lowered for the
native tape kernel, so it must be *bit-identical* to the default walker —
same values, same accumulation order — on every backend, for every
chunking, with and without the invariant cache, with batched sweeps, and
through a persistent process-pool session.  The suite runs under the fake
native engine of ``tests/test_tape.py`` (the lowering armed, the
reference interpreter standing in for the numba kernel), so the native
dispatch path is what is compared; pool workers are separate processes
and fall back to the walker, which the same assertions cover.

(The file keeps its pre-PR-17 name so the surviving test ids stay stable;
the fusion pass it used to test no longer exists.)
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_tape import fake_native_engine

from repro.circuits import random_brickwork_circuit
from repro.execution import (
    PlanStats,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    StemSlots,
    ThreadPoolBackend,
    compile_plan,
)
from repro.execution import tape as tape_module
from repro.execution.tape import OP_BMM
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _case(num_qubits=6, depth=4, seed=13):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    tn = amplitude_network(circ, [0] * num_qubits)
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree


@pytest.fixture(scope="module")
def case():
    return _case()


@pytest.fixture(scope="module")
def sliced(case):
    tn, _ = case
    return sorted(tn.inner_indices())[:4]


@pytest.fixture(scope="module")
def stepwise_value(case, sliced):
    tn, tree = case
    return SlicedExecutor(tn, tree, sliced).amplitude()


@pytest.fixture(autouse=True)
def fake_native():
    with fake_native_engine():
        yield


class TestFusedBitIdentity:
    """Fused execution vs the default path: exact equality."""

    def test_fused_serial(self, case, sliced, stepwise_value):
        tn, tree = case
        executor = SlicedExecutor(tn, tree, sliced, fused=True)
        assert executor.fused
        assert executor.amplitude() == stepwise_value
        assert executor.stats.tape_engine == "native"
        assert executor.stats.fused_steps > 0

    def test_fused_plan_level_per_assignment(self, case, sliced):
        """Every assignment's full result tensor matches bit for bit."""
        tn, tree = case
        plain = compile_plan(tn, tree, frozenset(sliced))
        fused = compile_plan(tn, tree, frozenset(sliced), fused=True)
        assert fused.fused and fused.tape_engine == "native"
        slots_a, slots_b = StemSlots(), StemSlots()
        cache_a, cache_b = plain.new_cache(), fused.new_cache()
        sizes = {ix: tree.index_size(ix) for ix in sliced}
        for values in itertools.product(*[range(sizes[ix]) for ix in sliced]):
            assignment = dict(zip(sliced, values))
            expected = plain.execute(tn, assignment, cache=cache_a, slots=slots_a)
            actual = fused.execute(tn, assignment, cache=cache_b, slots=slots_b)
            assert np.array_equal(
                expected.require_data(), actual.require_data()
            ), assignment

    def test_fused_uncached(self, case, sliced, stepwise_value):
        tn, tree = case
        executor = SlicedExecutor(
            tn, tree, sliced, fused=True, cache_invariant=False
        )
        assert executor.amplitude() == stepwise_value

    def test_fused_without_slots_falls_back_stepwise(self, case, sliced, monkeypatch):
        """``run_subtask`` passes no arena; a fused plan whose kernel
        declines then runs the walker, arena-less, with equal bits."""
        tn, tree = case
        monkeypatch.setattr(tape_module, "run_native", lambda *args: False)
        plain = SlicedExecutor(tn, tree, sliced)
        fused = SlicedExecutor(tn, tree, sliced, fused=True)
        for subtask_id in (0, 3, 7):
            expected = plain.run_subtask(subtask_id).tensor.require_data()
            actual = fused.run_subtask(subtask_id).tensor.require_data()
            assert np.array_equal(expected, actual)
        assert fused.stats.fused_steps == 0
        assert fused.stats.tape_engine == "python"


class TestFusedBackends:
    """Fused plans through every scheduling substrate, bit-identical."""

    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: SerialBackend(),
            lambda: ThreadPoolBackend(max_workers=2),
            lambda: ThreadPoolBackend(max_workers=3, chunk_size=1),
            lambda: SharedMemoryProcessPoolBackend(max_workers=2),
            lambda: SharedMemoryProcessPoolBackend(max_workers=2, chunk_size=3),
        ],
        ids=["serial", "threads", "threads-chunk1", "pool", "pool-chunk3"],
    )
    def test_fused_backend_bit_identical(
        self, case, sliced, stepwise_value, make_backend
    ):
        tn, tree = case
        executor = SlicedExecutor(
            tn, tree, sliced, fused=True, backend=make_backend()
        )
        assert executor.amplitude() == stepwise_value

    def test_fused_batched_sweep(self, case, sliced):
        """Batched plans fuse what they can and stay bit-identical."""
        tn, tree = case
        for group in ([sliced[0]], sliced[:2], sliced[:3]):
            expected = SlicedExecutor(
                tn, tree, sliced, batch_indices=group
            ).amplitude()
            actual = SlicedExecutor(
                tn, tree, sliced, batch_indices=group, fused=True
            ).amplitude()
            assert actual == expected, group

    def test_fused_session_reuse(self, case, sliced, stepwise_value):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=2)
        executor = SlicedExecutor(tn, tree, sliced, fused=True, backend=backend)
        with executor.session() as session:
            first = executor.amplitude()
            second = executor.amplitude()
            assert session.pool_launches == 1
            assert session.publications == 1
        assert first == stepwise_value
        assert second == stepwise_value

    def test_fused_plan_pickles(self, case, sliced):
        """Fused plans ship to pool workers unchanged (pickle round-trip)."""
        tn, tree = case
        plan = compile_plan(tn, tree, frozenset(sliced), fused=True)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fused and clone.tape_engine == "native"
        assert clone.contract_steps == plan.contract_steps
        slots_a, slots_b = StemSlots(), StemSlots()
        assignment = {ix: 0 for ix in sliced}
        expected = plan.execute(tn, assignment, slots=slots_a).require_data()
        actual = clone.execute(tn, assignment, slots=slots_b).require_data()
        assert np.array_equal(expected, actual)


class TestFusedStats:
    """Instrumentation parity and the fused-kernel stage."""

    def test_node_counts_match_stepwise(self, case, sliced):
        tn, tree = case
        plain = SlicedExecutor(tn, tree, sliced)
        fused = SlicedExecutor(tn, tree, sliced, fused=True)
        plain.run()
        fused.run()
        assert fused.stats.node_counts == plain.stats.node_counts

    def test_invariant_contracted_once(self, case, sliced):
        tn, tree = case
        executor = SlicedExecutor(tn, tree, sliced, fused=True)
        executor.run()
        for node in executor.plan.invariant_nodes:
            assert executor.stats.node_counts.get(node, 0) == 1

    def test_fused_kernel_stage_recorded(self, case, sliced):
        tn, tree = case
        executor = SlicedExecutor(tn, tree, sliced, fused=True)
        executor.run()
        stages = executor.stats.stage_seconds
        assert "fused_kernel" in stages  # the fake kernel records 0.0 s
        assert stages["fused_kernel"] <= stages["execute"]

    def test_stats_merge_carries_fused_steps(self, case, sliced):
        merged = PlanStats()
        other = PlanStats()
        other.fused_steps = 7
        other.stage_seconds["fused_kernel"] = 0.5
        merged.merge(other)
        assert merged.fused_steps == 7
        assert merged.stage_seconds["fused_kernel"] == 0.5


class TestFusionPass:
    """What is left of the fusion pass: layout flags and argument checks."""

    def test_identity_flags_match_permutations(self, case, sliced):
        tn, tree = case
        plan = compile_plan(tn, tree, frozenset(sliced), fused=True)
        for step in plan.contract_steps:
            if step.lhs_perm is not None:
                assert step.lhs_identity == (
                    step.lhs_perm == tuple(range(len(step.lhs_perm)))
                )
                assert step.rhs_identity == (
                    step.rhs_perm == tuple(range(len(step.rhs_perm)))
                )

    def test_fused_requires_compiled_mode(self, case, sliced):
        tn, tree = case
        with pytest.raises(ValueError, match="compiled"):
            SlicedExecutor(tn, tree, sliced, mode="reference", fused=True)

    def test_bad_fused_spec_rejected(self, case, sliced):
        tn, tree = case
        for bad in ("yes-please", "auto"):
            with pytest.raises(ValueError, match="fused"):
                SlicedExecutor(tn, tree, sliced, fused=bad)


class TestBatchedGemmFusion:
    """Batch sweeps lower too: ``bmm`` steps become batched-GEMM ops."""

    def test_batched_plan_fuses_bmm_steps(self, case, sliced):
        tn, tree = case
        plan = compile_plan(
            tn, tree, frozenset(sliced), fused=True, batch_indices=[sliced[0]]
        )
        program = plan.native_programs[0]
        assert program is not None
        bmm_steps = sum(1 for step in plan.contract_steps if step.kind == "bmm")
        assert bmm_steps > 0
        assert int((program.ops[:, 0] == OP_BMM).sum()) == bmm_steps

    def test_batched_fused_matches_batched_stepwise(self, case, sliced):
        tn, tree = case
        for group in ([sliced[0]], sliced[:2]):
            expected = SlicedExecutor(
                tn, tree, sliced, batch_indices=group
            ).amplitude()
            actual = SlicedExecutor(
                tn, tree, sliced, batch_indices=group, fused=True
            ).amplitude()
            assert actual == expected, group

    @given(batch_size=st.integers(min_value=1, max_value=3))
    @SETTINGS
    def test_property_any_batch_group(self, batch_size):
        tn, tree = _case()
        sliced = sorted(tn.inner_indices())[:4]
        group = sliced[:batch_size]
        expected = SlicedExecutor(
            tn, tree, sliced, batch_indices=group
        ).amplitude()
        actual = SlicedExecutor(
            tn, tree, sliced, batch_indices=group, fused=True
        ).amplitude()
        assert actual == expected


class TestFusionBreaks:
    """Why a fused plan runs the walker surfaces on the plan and in stats."""

    def test_breaks_land_in_executor_stats(self, case, sliced, monkeypatch):
        tn, tree = case
        monkeypatch.setattr(tape_module, "unavailable_reason", lambda: "no-numba")
        executor = SlicedExecutor(tn, tree, sliced, fused=True)
        assert executor.plan.fusion_breaks == {"no-numba": 1}
        assert executor.stats.fusion_breaks == executor.plan.fusion_breaks
        assert executor.tape_engine == "python"

    def test_stats_merge_keeps_first_breaks_and_latest_engine(self):
        merged = PlanStats()
        merged.fusion_breaks = {"no-numba": 1}
        worker = PlanStats()
        worker.fusion_breaks = {"einsum": 1}
        worker.tape_engine = "native"
        merged.merge(worker)
        # plan facts keep the first non-empty record; the engine
        # reflects what actually ran (worker wins)
        assert merged.fusion_breaks == {"no-numba": 1}
        assert merged.tape_engine == "native"
