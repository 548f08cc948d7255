"""Tests of the native tape engine (§5.3.1 lowered to a flat program).

A ``fused=True`` plan's step list lowers into a :class:`TapeProgram` —
opcode table, operand/register tables, permutation descriptors,
concatenated reduced maps — that a numba kernel walks with no per-step
Python.  Numba is an *optional* dependency, so these tests pin the
machinery that must hold either way:

* the lowering itself (register allocation, perm descriptors, scratch
  sizing, pickling) is pure numpy and is tested directly;
* :func:`interpret_program` — the kernel's executable specification —
  must be bit-identical to the Python walker on every assignment; the
  CI leg that installs numba pins the njit kernel against the same
  contract;
* engine selection (native exactly when available) and the graceful,
  logged fallback when numba is absent or the kernel is disarmed;
* a fake native engine (:func:`fake_native_engine`: the lowering armed
  and ``run_native`` replaced by the reference interpreter) drives the
  full executor stack — caching, batching, chunked backends, fault
  recovery — through the native code path in a numba-free environment.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import random_brickwork_circuit
from repro.execution import (
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    PlanStats,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    StemSlots,
    TapeProgram,
    ThreadPoolBackend,
    compile_plan,
    interpret_program,
    native_available,
)
from repro.execution import tape as tape_module
from repro.execution.tape import OP_BMM, OP_DOT, run_native, warm_kernel
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

SETTINGS = settings(
    max_examples=10,
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


def _native_plan(tn, tree, sliced, **kwargs):
    """A fused plan lowered whether or not numba is installed."""
    with mock.patch.object(tape_module, "unavailable_reason", lambda: None):
        return compile_plan(tn, tree, frozenset(sliced), fused=True, **kwargs)


def _leaf_inputs(plan, network, assignment):
    return {
        ls.node: plan._load_leaf(network, ls, assignment)
        for ls in plan._leaf_steps
    }


def _fake_run_native(program, live, slots, stats):
    """A drop-in ``run_native``: the reference interpreter as the kernel.

    Mirrors the real engine's contract — writes ``live[root]``, stamps
    the same stats — so the full executor stack exercises the native
    dispatch path without numba.
    """
    inputs = {node: live[node] for node, _ in program.inputs}
    live[program.root] = interpret_program(program, inputs)
    if stats is not None:
        stats.tape_engine = "native"
        counts = stats.node_counts
        for node in program.nodes:
            counts[node] = counts.get(node, 0) + 1
        stats.fused_steps += program.fused_steps
        stats.record_stage("fused_kernel", 0.0)
    return True


@contextlib.contextmanager
def fake_native_engine():
    """Arm the native path without numba: fused plans lower, and the
    reference interpreter stands in for the kernel.  Where numba is
    installed the real kernel is live and nothing is faked."""
    if native_available():
        yield
        return
    with mock.patch.object(
        tape_module, "unavailable_reason", lambda: None
    ), mock.patch.object(tape_module, "run_native", _fake_run_native):
        yield


class TestLowering:
    """Structure of the lowered array-of-structs program."""

    def test_fused_plan_lowers(self, case, sliced):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        assert plan.tape_engine == "native"
        full, cached = plan.native_programs
        assert isinstance(full, TapeProgram)
        assert full.num_steps == len(full.ops) > 0
        assert full.root == tree.root

    def test_table_invariants(self, case, sliced):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        for program in plan.native_programs:
            if program is None:
                continue
            n = program.num_steps
            assert program.ops.shape == (n, 4)
            assert program.dims.shape == (n, 4)
            assert program.lhs_perm.shape == (n, 5)
            assert program.rhs_perm.shape == (n, 5)
            for i in range(n):
                opcode, lhs_reg, rhs_reg, out_reg = program.ops[i]
                assert opcode in (OP_DOT, OP_BMM)
                for reg in (lhs_reg, rhs_reg, out_reg):
                    assert 0 <= reg < program.num_regs
                for descriptor in (program.lhs_perm[i], program.rhs_perm[i]):
                    mode, prefix, core, suffix, offset = (
                        int(v) for v in descriptor
                    )
                    assert mode in (0, 1)
                    if mode == 1:
                        # the reduced map lives inside the shared pool
                        assert 0 <= offset
                        assert offset + core <= len(program.core_maps)

    def test_input_registers_are_fresh(self, case, sliced):
        """Inputs preload before the walk, so their registers must never
        be written by an op that runs before the input's last read."""
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        for program in plan.native_programs:
            if program is None:
                continue
            regs = [reg for _, reg in program.inputs]
            assert len(set(regs)) == len(regs)
            for _, reg in program.inputs:
                reads = [
                    i
                    for i in range(program.num_steps)
                    if reg in (program.ops[i][1], program.ops[i][2])
                ]
                writes = [
                    i
                    for i in range(program.num_steps)
                    if program.ops[i][3] == reg
                ]
                if writes:
                    first_write = min(writes)
                    # every read before the first write reads the input;
                    # the input must have been fully consumed by then
                    consumed_by = max(
                        (i for i in reads if i < first_write), default=-1
                    )
                    assert consumed_by < first_write

    def test_scratch_covers_staged_operands(self, case, sliced):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        for program in plan.native_programs:
            if program is None:
                continue
            need_lhs = need_rhs = 0
            for i in range(program.num_steps):
                for side, descriptor in (
                    ("lhs", program.lhs_perm[i]),
                    ("rhs", program.rhs_perm[i]),
                ):
                    mode, prefix, core, suffix, _ = (int(v) for v in descriptor)
                    if mode == 0:
                        continue
                    size = prefix * core * suffix
                    if side == "lhs":
                        need_lhs = max(need_lhs, size)
                    else:
                        need_rhs = max(need_rhs, size)
            assert program.scratch_lhs >= need_lhs
            assert program.scratch_rhs >= need_rhs

    def test_program_pickles(self, case, sliced):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        program = plan.native_programs[0]
        clone = pickle.loads(pickle.dumps(program))
        assert np.array_equal(clone.ops, program.ops)
        assert np.array_equal(clone.dims, program.dims)
        assert np.array_equal(clone.core_maps, program.core_maps)
        assert clone.inputs == program.inputs
        assert clone.root_shape == program.root_shape
        assignment = {ix: 0 for ix in sliced}
        inputs = _leaf_inputs(plan, tn, assignment)
        expected = interpret_program(program, inputs)
        actual = interpret_program(clone, inputs)
        assert np.array_equal(expected, actual)


class TestInterpreterEquivalence:
    """The reference interpreter vs the stepwise oracle, bit for bit."""

    def test_every_assignment_matches_stepwise(self, case, sliced):
        tn, tree = case
        stepwise = compile_plan(tn, tree, frozenset(sliced))
        plan = _native_plan(tn, tree, sliced)
        program = plan.native_programs[0]
        slots = StemSlots()
        sizes = {ix: tree.index_size(ix) for ix in sliced}
        for values in itertools.product(*[range(sizes[ix]) for ix in sliced]):
            assignment = dict(zip(sliced, values))
            expected = stepwise.execute(
                tn, assignment, slots=slots
            ).require_data()
            inputs = _leaf_inputs(plan, tn, assignment)
            actual = interpret_program(program, inputs)
            assert np.array_equal(expected, actual), assignment

    def test_batched_program_has_bmm_ops(self, case, sliced):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced, batch_indices=[sliced[0]])
        program = plan.native_programs[0]
        if program is None:
            pytest.skip("batched sequence not lowerable on this tree")
        opcodes = {int(op[0]) for op in program.ops}
        assert OP_BMM in opcodes

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_property_seeds(self, seed):
        tn, tree = _case(num_qubits=5, depth=3, seed=seed)
        sliced = sorted(tn.inner_indices())[:3]
        stepwise = SlicedExecutor(tn, tree, sliced).amplitude()
        plan = _native_plan(tn, tree, sliced)
        program = plan.native_programs[0]
        if program is None:
            # einsum fallback in the sequence: nothing to lower, and the
            # executor transparently keeps the Python walker
            fused = SlicedExecutor(tn, tree, sliced, fused=True)
            assert fused.amplitude() == stepwise
            return
        slots = StemSlots()
        oracle = compile_plan(tn, tree, frozenset(sliced))
        sizes = {ix: tree.index_size(ix) for ix in sliced}
        for values in itertools.product(*[range(sizes[ix]) for ix in sliced]):
            assignment = dict(zip(sliced, values))
            expected = oracle.execute(tn, assignment, slots=slots).require_data()
            actual = interpret_program(
                program, _leaf_inputs(plan, tn, assignment)
            )
            assert np.array_equal(expected, actual)


class TestEngineSelection:
    """Native exactly when available, and a graceful fallback otherwise."""

    def test_auto_resolves_by_availability(self, case, sliced, monkeypatch):
        tn, tree = case
        monkeypatch.setattr(tape_module, "unavailable_reason", lambda: "no-numba")
        plan = compile_plan(tn, tree, frozenset(sliced), fused=True)
        assert plan.tape_engine == "python"
        assert plan.native_programs == (None, None)
        assert plan.fusion_breaks == {"no-numba": 1}
        monkeypatch.setattr(tape_module, "unavailable_reason", lambda: None)
        plan = compile_plan(tn, tree, frozenset(sliced), fused=True)
        assert plan.tape_engine == "native"
        assert plan.native_programs[0] is not None
        assert plan.fusion_breaks == {}

    def test_runtime_fallback_is_bit_identical(
        self, case, sliced, stepwise_value, monkeypatch
    ):
        """``run_native`` declining (numba absent in the worker, kernel
        disarmed, bad dtype) must leave the walker's result untouched."""
        tn, tree = case
        monkeypatch.setattr(tape_module, "unavailable_reason", lambda: None)
        monkeypatch.setattr(tape_module, "run_native", lambda *args: False)
        executor = SlicedExecutor(tn, tree, sliced, fused=True)
        assert executor.plan.tape_engine == "native"
        assert executor.amplitude() == stepwise_value
        assert executor.stats.tape_engine == "python"
        assert executor.stats.fused_steps == 0
        assert executor.stats.fusion_breaks == {"dtype": 1}

    def test_run_native_declines_when_disarmed(self, case, sliced, monkeypatch):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        program = plan.native_programs[0]
        live = _leaf_inputs(plan, tn, {ix: 0 for ix in sliced})
        monkeypatch.setattr(tape_module, "_BROKEN", True)
        assert run_native(program, live, StemSlots(), PlanStats()) is False
        assert not native_available()

    def test_kernel_failure_disarms_engine(self, case, sliced, monkeypatch):
        """Any exception inside the native path poisons the engine for
        the process — later calls decline instead of retrying."""
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        program = plan.native_programs[0]
        live = _leaf_inputs(plan, tn, {ix: 0 for ix in sliced})
        monkeypatch.setattr(tape_module, "_BROKEN", False)
        monkeypatch.setattr(tape_module, "_HAVE_NUMBA", True)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(tape_module, "_walk", boom, raising=False)
        before = dict(live)
        assert run_native(program, live, StemSlots(), None) is False
        assert tape_module._BROKEN is True
        # a disarmed engine must not have produced a partial root
        assert set(live) == set(before)

    def test_warm_kernel_tracks_availability(self):
        assert warm_kernel(np.complex128) == native_available()

    def test_disarm_logs_one_warning_with_the_exception(
        self, case, sliced, monkeypatch, caplog
    ):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        program = plan.native_programs[0]
        live = _leaf_inputs(plan, tn, {ix: 0 for ix in sliced})
        monkeypatch.setattr(tape_module, "_BROKEN", False)
        monkeypatch.setattr(tape_module, "_HAVE_NUMBA", True)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(tape_module, "_walk", boom, raising=False)
        with caplog.at_level(logging.WARNING, logger="repro.execution.tape"):
            assert run_native(program, live, StemSlots(), None) is False
            assert run_native(program, live, StemSlots(), None) is False
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1  # once per process, not per call
        assert "disarmed" in warnings[0].getMessage()
        assert warnings[0].exc_info is not None  # the exception rides along

    def test_walker_fallback_logs_one_info_per_plan(
        self, case, sliced, monkeypatch, caplog
    ):
        tn, tree = case
        monkeypatch.setattr(tape_module, "unavailable_reason", lambda: "no-numba")
        with caplog.at_level(logging.INFO, logger="repro.execution.tape"):
            SlicedExecutor(tn, tree, sliced).run()  # not fused: silent
            assert not caplog.records
            executor = SlicedExecutor(tn, tree, sliced, fused=True)
            executor.run()
        infos = [r for r in caplog.records if r.levelno == logging.INFO]
        assert len(infos) == 1  # per plan, nothing per subtask
        assert "no-numba" in infos[0].getMessage()
        assert executor.stats.executions > 1
        assert executor.stats.tape_engine == "python"
        assert executor.stats.fusion_breaks == {"no-numba": 1}


class TestFakeNativeEngine:
    """The full executor stack through the native dispatch path."""

    @pytest.fixture(autouse=True)
    def fake_native(self):
        with fake_native_engine():
            yield

    def test_serial_bit_identical(self, case, sliced, stepwise_value):
        tn, tree = case
        executor = SlicedExecutor(tn, tree, sliced, fused=True)
        assert executor.amplitude() == stepwise_value
        assert executor.stats.tape_engine == "native"
        assert executor.stats.fused_steps > 0

    def test_uncached_bit_identical(self, case, sliced, stepwise_value):
        tn, tree = case
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            fused=True,
            cache_invariant=False,
        )
        assert executor.amplitude() == stepwise_value

    def test_node_counts_match_stepwise(self, case, sliced):
        tn, tree = case
        plain = SlicedExecutor(tn, tree, sliced)
        native = SlicedExecutor(tn, tree, sliced, fused=True)
        plain.run()
        native.run()
        assert native.stats.node_counts == plain.stats.node_counts

    def test_batched_matches_python_engine(self, case, sliced):
        """Walker and native engine on the same batched plan: exact equality."""
        tn, tree = case
        for group in ([sliced[0]], sliced[:2]):
            python_engine = SlicedExecutor(
                tn, tree, sliced, batch_indices=group
            ).amplitude()
            native = SlicedExecutor(
                tn, tree, sliced, fused=True, batch_indices=group
            )
            assert native.amplitude() == python_engine, group
            assert native.stats.tape_engine == "native"

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        chunk_size=st.integers(min_value=1, max_value=4),
        batch=st.booleans(),
    )
    @SETTINGS
    def test_property_chunks_and_batches(self, seed, chunk_size, batch):
        tn, tree = _case(num_qubits=5, depth=3, seed=seed)
        sliced = sorted(tn.inner_indices())[:3]
        stepwise = SlicedExecutor(tn, tree, sliced).amplitude()
        kwargs = {"batch_indices": sliced[:1]} if batch else {}
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            fused=True,
            backend=ThreadPoolBackend(max_workers=2, chunk_size=chunk_size),
            **kwargs,
        )
        value = executor.amplitude()
        if batch:
            # batch sweeps accumulate in a different order than the
            # enumerated loop: engines agree exactly, stepwise only approx
            python_engine = SlicedExecutor(tn, tree, sliced, **kwargs).amplitude()
            assert value == python_engine
            assert value == pytest.approx(stepwise, abs=1e-10)
        else:
            assert value == stepwise


class TestNativeThroughPool:
    """Native plans ship to pool workers and survive fault recovery."""

    @pytest.fixture(autouse=True)
    def lowering_armed(self, monkeypatch):
        # plans lower here and ship with their programs; the workers'
        # own (real) run_native then declines without numba
        monkeypatch.setattr(tape_module, "unavailable_reason", lambda: None)

    def test_plan_pickles_with_programs(self, case, sliced):
        tn, tree = case
        plan = _native_plan(tn, tree, sliced)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.tape_engine == "native"
        program = clone.native_programs[0]
        assert program is not None
        assert np.array_equal(program.ops, plan.native_programs[0].ops)

    def test_pool_execution_bit_identical(self, case, sliced, stepwise_value):
        tn, tree = case
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            fused=True,
            backend=SharedMemoryProcessPoolBackend(max_workers=2),
        )
        assert executor.amplitude() == stepwise_value

    def test_fault_recovery_bit_identical(self, case, sliced, stepwise_value):
        tn, tree = case
        injector = FaultInjector([FaultSpec("kill-worker", chunk=2)])
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            fused=True,
            backend=SharedMemoryProcessPoolBackend(max_workers=2),
            fault_policy=FaultPolicy.retrying(max_retries=2),
            fault_injector=injector,
        )
        with executor.session():
            assert executor.amplitude() == stepwise_value
        assert executor.stats.faults >= 1
        assert executor.stats.retries >= 1
        assert injector.fired == [(2, "kill-worker")]
