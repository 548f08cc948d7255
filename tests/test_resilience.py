"""Fault-tolerant execution: crash recovery, retries, degradation.

The resilience contract under test: whatever faults strike a run — a
SIGKILLed pool worker, a stuck chunk hitting its timeout, a failed
segment attach, a poisoned chunk payload — a recovered (or degraded)
sliced contraction returns a result **bit-identical** to a clean
:class:`SerialBackend` run, because recovery only ever re-runs the
assignments whose ordered accumulation slots are still empty and the
final fold is unchanged.  Faults are injected deterministically
(:mod:`repro.execution.faultinject`), so every recovery path here is
reproducible; the /dev/shm audit in ``conftest.py`` asserts that no test
— crashes included — leaks a shared-memory segment.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import random_brickwork_circuit
from repro.costs.model import CostModel, CostModelError
from repro.execution import (
    ChunkTimeoutError,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedFault,
    PlanStats,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
)
from repro.execution.faultinject import apply_directive
from repro.execution.resilience import RecoveryExhaustedError
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

pytestmark = pytest.mark.faults

WORKERS = 2


def _case(num_qubits=6, depth=4, seed=13):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    bits = tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, num_qubits))
    tn = amplitude_network(circ, list(bits))
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree


@pytest.fixture(scope="module")
def case():
    return _case()


@pytest.fixture(scope="module")
def serial_value(case):
    tn, tree = case
    sliced = sorted(tn.inner_indices())[:4]
    return SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()


def _sliced(tn):
    return sorted(tn.inner_indices())[:4]


# ----------------------------------------------------------------------
# FaultPolicy unit behaviour
# ----------------------------------------------------------------------
class TestFaultPolicy:
    def test_default_is_fail_fast_with_zero_budgets(self):
        policy = FaultPolicy.fail_fast()
        assert policy.mode == "fail-fast"
        assert policy.chunk_retry_budget == 0
        assert policy.pool_rebuild_budget == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(mode="panic")
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_multiplier=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(degradation_chain=("gpu",))

    def test_chunk_timeout_derivation(self):
        assert FaultPolicy().chunk_timeout(4) is None
        explicit = FaultPolicy(chunk_timeout_seconds=3.0)
        assert explicit.chunk_timeout(100) == 3.0
        per_subtask = FaultPolicy(
            subtask_timeout_seconds=0.5, min_timeout_seconds=0.1
        )
        assert per_subtask.chunk_timeout(4) == pytest.approx(2.0)
        # the floor protects hair-trigger budgets on tiny subtasks
        floored = FaultPolicy(subtask_timeout_seconds=0.001)
        assert floored.chunk_timeout(1) == floored.min_timeout_seconds

    def test_backoff_is_deterministic_exponential(self):
        policy = FaultPolicy(backoff_seconds=0.01, backoff_multiplier=2.0)
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(3) == pytest.approx(0.08)

    def test_derived_from_cost_model(self, case):
        tn, tree = case

        class FixedModel(CostModel):
            def subtask_seconds(self, tree, sliced=frozenset(), backend=None):
                return 0.01

        policy = FaultPolicy.retrying(timeout_safety=50.0)
        derived = policy.derived_from(FixedModel(), tree, frozenset())
        assert derived.subtask_timeout_seconds == pytest.approx(0.5)
        # explicit timeouts win over the model
        explicit = FaultPolicy.retrying(chunk_timeout_seconds=9.0)
        assert explicit.derived_from(FixedModel(), tree, frozenset()) is explicit

    def test_derived_from_tolerates_unpredictable_model(self, case):
        tn, tree = case

        class BrokenModel(CostModel):
            def subtask_seconds(self, tree, sliced=frozenset(), backend=None):
                raise CostModelError("no calibration for this backend")

        policy = FaultPolicy.retrying()
        assert policy.derived_from(BrokenModel(), tree, frozenset()) is policy

    def test_timeout_budget_rejects_non_finite_predictions(self, case):
        tn, tree = case

        class NanModel(CostModel):
            def subtask_seconds(self, tree, sliced=frozenset(), backend=None):
                return float("nan")

        with pytest.raises(CostModelError):
            NanModel().timeout_budget(tree)

        class FixedModel(CostModel):
            def subtask_seconds(self, tree, sliced=frozenset(), backend=None):
                return 0.2

        assert FixedModel().timeout_budget(
            tree, subtasks=3, safety=10.0, floor=1.0
        ) == pytest.approx(6.0)
        assert FixedModel().timeout_budget(
            tree, subtasks=1, safety=0.1, floor=1.0
        ) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# FaultInjector determinism
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_directives_fire_at_scheduled_ordinals(self):
        injector = FaultInjector([FaultSpec("poison-pickle", chunk=2)])
        directives = [injector.directive_for_next_chunk() for _ in range(5)]
        assert directives[:2] == [None, None]
        assert directives[2] == ("poison-pickle", 0.05)
        assert directives[3:] == [None, None]
        assert injector.fired == [(2, "poison-pickle")]
        assert injector.exhausted

    def test_persistent_fault_fires_repeatedly(self):
        injector = FaultInjector([FaultSpec("kill-worker", chunk=0, times=3)])
        kinds = [injector.directive_for_next_chunk() for _ in range(4)]
        assert kinds[:3] == [("kill-worker", 0.05)] * 3
        assert kinds[3] is None

    def test_seeded_is_reproducible(self):
        a = FaultInjector.seeded(1234, num_chunks=8, num_faults=2)
        b = FaultInjector.seeded(1234, num_chunks=8, num_faults=2)
        assert a.faults == b.faults
        c = FaultInjector.seeded(4321, num_chunks=8, num_faults=2)
        assert a.faults != c.faults or a.faults == c.faults  # schedule is fixed per seed
        assert FaultInjector.seeded(4321, num_chunks=8, num_faults=2).faults == c.faults

    def test_reset_rearms(self):
        injector = FaultInjector([FaultSpec("delay-chunk", chunk=0)])
        assert injector.directive_for_next_chunk() is not None
        assert injector.exhausted
        injector.reset()
        assert not injector.exhausted
        assert injector.submitted == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor-strike")
        with pytest.raises(ValueError):
            FaultSpec("kill-worker", chunk=-1)
        with pytest.raises(ValueError):
            FaultSpec("kill-worker", times=0)

    def test_apply_directive_in_process_raises_instead_of_exiting(self):
        with pytest.raises(InjectedFault):
            apply_directive(("kill-worker", 0.0), in_process=True)
        with pytest.raises(InjectedFault):
            apply_directive(("fail-segment-attach", 0.0), in_process=True)
        with pytest.raises(pickle.UnpicklingError):
            apply_directive(("poison-pickle", 0.0), in_process=True)
        apply_directive(None)  # hot path: no-op


# ----------------------------------------------------------------------
# PlanStats resilience counters
# ----------------------------------------------------------------------
def test_plan_stats_merges_resilience_counters():
    a = PlanStats()
    b = PlanStats()
    b.retries = 2
    b.faults = 3
    b.degraded_to = "threads"
    b.recovery_seconds = 0.25
    a.merge(b)
    assert a.retries == 2
    assert a.faults == 3
    assert a.degraded_to == "threads"
    assert a.recovery_seconds == pytest.approx(0.25)
    # first degradation wins on repeated merges
    c = PlanStats()
    c.degraded_to = "serial"
    a.merge(c)
    assert a.degraded_to == "threads"


# ----------------------------------------------------------------------
# Process-pool crash recovery (the acceptance scenario)
# ----------------------------------------------------------------------
class TestPoolCrashRecovery:
    def test_killed_worker_recovers_bit_identical(self, case, serial_value):
        tn, tree = case
        injector = FaultInjector([FaultSpec("kill-worker", chunk=2)])
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=2),
            fault_injector=injector,
        )
        with executor.session() as session:
            value = executor.amplitude()
            assert value == serial_value
            # the pool died and was respawned, segments republished
            assert session.pool_launches == 2
            assert session.publications == 2
        assert executor.stats.faults >= 1
        assert executor.stats.retries >= 1
        assert executor.stats.recovery_seconds > 0.0
        assert executor.stats.degraded_to is None
        assert injector.fired == [(2, "kill-worker")]

    def test_timed_out_chunk_recovers_bit_identical(self, case, serial_value):
        tn, tree = case
        injector = FaultInjector(
            [FaultSpec("delay-chunk", chunk=1, seconds=5.0)]
        )
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.retrying(
                max_retries=2,
                chunk_timeout_seconds=0.5,
                min_timeout_seconds=0.1,
            ),
            fault_injector=injector,
        )
        with executor.session():
            assert executor.amplitude() == serial_value
        assert executor.stats.faults >= 1
        assert executor.stats.retries >= 1
        assert executor.stats.recovery_seconds > 0.0

    def test_poisoned_chunk_retries_without_pool_rebuild(self, case, serial_value):
        tn, tree = case
        injector = FaultInjector([FaultSpec("poison-pickle", chunk=3)])
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=2),
            fault_injector=injector,
        )
        with executor.session() as session:
            assert executor.amplitude() == serial_value
            # an in-worker exception does not poison the pool
            assert session.pool_launches == 1
        assert executor.stats.faults == 1
        assert executor.stats.retries == 1

    def test_failed_segment_attach_reinstalls_from_payload(self, case, serial_value):
        tn, tree = case
        injector = FaultInjector([FaultSpec("fail-segment-attach", chunk=1)])
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=3),
            fault_injector=injector,
        )
        with executor.session() as session:
            assert executor.amplitude() == serial_value
            assert session.pool_launches == 1
        assert executor.stats.faults >= 1
        assert executor.stats.retries >= 1

    def test_recovery_inside_batched_sweep(self, case, serial_value):
        tn, tree = case
        sliced = _sliced(tn)
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            batch_indices=sliced[:2],
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=2),
            fault_injector=FaultInjector([FaultSpec("kill-worker", chunk=1)]),
        )
        with executor.session():
            assert executor.amplitude() == serial_value
        assert executor.stats.retries >= 1


class TestFailFastAndSessionHealing:
    def test_fail_fast_raises_and_next_run_heals(self, case, serial_value):
        tn, tree = case
        injector = FaultInjector([FaultSpec("kill-worker", chunk=1)])
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.fail_fast(),
            fault_injector=injector,
        )
        with executor.session() as session:
            with pytest.raises(Exception):
                executor.amplitude()
            # the injector is spent; the broken session must reset
            # transparently instead of crashing on stale segment names
            assert injector.exhausted
            assert executor.amplitude() == serial_value
        assert executor.stats.faults >= 1

    def test_fail_fast_timeout_raises_chunk_timeout_error(self, case, serial_value):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy(
                mode="fail-fast",
                max_retries=0,
                max_pool_rebuilds=0,
                chunk_timeout_seconds=0.3,
                min_timeout_seconds=0.1,
            ),
            fault_injector=FaultInjector(
                [FaultSpec("delay-chunk", chunk=0, seconds=5.0)]
            ),
        )
        with executor.session():
            with pytest.raises(ChunkTimeoutError):
                executor.amplitude()
            assert executor.amplitude() == serial_value

    def test_budget_exhausted_timeout_does_not_block_on_wedged_worker(
        self, case, serial_value
    ):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy(
                mode="fail-fast",
                max_retries=0,
                max_pool_rebuilds=0,
                chunk_timeout_seconds=0.3,
                min_timeout_seconds=0.1,
            ),
            fault_injector=FaultInjector(
                [FaultSpec("delay-chunk", chunk=0, seconds=60.0)]
            ),
        )
        with executor.session():
            start = time.monotonic()
            with pytest.raises(ChunkTimeoutError):
                executor.amplitude()
            # the wedged worker must be hard-stopped, not drained: the
            # terminal error raises on the order of the timeout budget,
            # not after the 60 s the stuck chunk would take
            assert time.monotonic() - start < 30.0
            assert executor.amplitude() == serial_value

    def test_pool_rebuild_does_not_consume_chunk_retry_budget(
        self, case, serial_value
    ):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        # ordinal 0 (first chunk of round one) kills a worker -> one pool
        # rebuild; ordinal 8 (the first re-submitted chunk) then raises a
        # genuine chunk failure.  With max_retries=1 that chunk still has
        # its full retry budget: rebuilds are budgeted separately and must
        # not count against an unrelated chunk's re-submissions.
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=1, backoff_seconds=0.0),
            fault_injector=FaultInjector(
                [
                    FaultSpec("kill-worker", chunk=0),
                    FaultSpec("poison-pickle", chunk=8),
                ]
            ),
        )
        with executor.session():
            assert executor.amplitude() == serial_value
        assert executor.stats.faults >= 2
        assert executor.stats.retries >= 2

    def test_default_policy_is_fail_fast(self, case):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_injector=FaultInjector([FaultSpec("poison-pickle", chunk=0)]),
        )
        with executor.session():
            with pytest.raises(pickle.UnpicklingError):
                executor.amplitude()
        backend.close()

    def test_retry_mode_exhaustion_raises_recovery_exhausted(self, case):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=1, backoff_seconds=0.0),
            fault_injector=FaultInjector(
                [FaultSpec("poison-pickle", chunk=0, times=1000)]
            ),
        )
        with executor.session():
            with pytest.raises(RecoveryExhaustedError):
                executor.amplitude()


class TestDegradation:
    def test_persistent_worker_death_degrades_bit_identically(
        self, case, serial_value
    ):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.degrading(
                max_retries=1, backoff_seconds=0.0
            ),
            fault_injector=FaultInjector(
                [FaultSpec("kill-worker", chunk=0, times=1000)]
            ),
        )
        with executor.session():
            assert executor.amplitude() == serial_value
        assert executor.stats.degraded_to == "threads"
        assert executor.stats.faults >= 1

    def test_serial_only_degradation_chain(self, case, serial_value):
        tn, tree = case
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            fault_policy=FaultPolicy.degrading(
                max_retries=1,
                backoff_seconds=0.0,
                degradation_chain=("serial",),
            ),
            fault_injector=FaultInjector(
                [FaultSpec("poison-pickle", chunk=0, times=1000)]
            ),
        )
        with executor.session():
            assert executor.amplitude() == serial_value
        assert executor.stats.degraded_to == "serial"


# ----------------------------------------------------------------------
# Thread-backend injection and recovery
# ----------------------------------------------------------------------
class TestThreadBackendFaults:
    def test_injected_fault_retries_bit_identically(self, case, serial_value):
        tn, tree = case
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(max_workers=WORKERS),
            fault_policy=FaultPolicy.retrying(max_retries=2, backoff_seconds=0.0),
            fault_injector=FaultInjector([FaultSpec("kill-worker", chunk=1)]),
        )
        assert executor.amplitude() == serial_value
        assert executor.stats.faults >= 1
        assert executor.stats.retries >= 1

    def test_fail_fast_propagates(self, case):
        tn, tree = case
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(max_workers=WORKERS),
            fault_policy=FaultPolicy.fail_fast(),
            fault_injector=FaultInjector([FaultSpec("poison-pickle", chunk=0)]),
        )
        with pytest.raises(pickle.UnpicklingError):
            executor.amplitude()

    def test_persistent_fault_degrades_to_serial(self, case, serial_value):
        tn, tree = case
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(max_workers=WORKERS),
            fault_policy=FaultPolicy.degrading(max_retries=1, backoff_seconds=0.0),
            fault_injector=FaultInjector(
                [FaultSpec("poison-pickle", chunk=0, times=1000)]
            ),
        )
        assert executor.amplitude() == serial_value
        assert executor.stats.degraded_to == "serial"

    def test_retry_exhaustion_raises(self, case):
        tn, tree = case
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=ThreadPoolBackend(max_workers=WORKERS),
            fault_policy=FaultPolicy.retrying(max_retries=1, backoff_seconds=0.0),
            fault_injector=FaultInjector(
                [FaultSpec("poison-pickle", chunk=0, times=1000)]
            ),
        )
        with pytest.raises(RecoveryExhaustedError):
            executor.amplitude()


# ----------------------------------------------------------------------
# Wiring: executors, sampler, planner
# ----------------------------------------------------------------------
class TestWiring:
    def test_reference_mode_rejects_fault_arguments(self, case):
        tn, tree = case
        with pytest.raises(ValueError, match="compiled"):
            SlicedExecutor(
                tn,
                tree,
                _sliced(tn),
                mode="reference",
                fault_policy=FaultPolicy.retrying(),
            )

    def test_cost_model_derives_timeouts_on_executor(self, case):
        tn, tree = case

        class FixedModel(CostModel):
            def subtask_seconds(self, tree, sliced=frozenset(), backend=None):
                return 0.01

        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        executor = SlicedExecutor(
            tn,
            tree,
            _sliced(tn),
            backend=backend,
            cost_model=FixedModel(),
            fault_policy=FaultPolicy.retrying(timeout_safety=100.0),
        )
        assert executor.fault_policy is not None
        assert executor.fault_policy.subtask_timeout_seconds == pytest.approx(1.0)
        # the policy is scoped to the executor's runs: a shared backend
        # carries no fault configuration to reconfigure
        assert not hasattr(backend, "fault_policy")
        backend.close()

    def test_sampler_does_not_mutate_shared_backend(self):
        from repro.execution.sampling import CorrelatedSampler

        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        circ = random_brickwork_circuit(4, 2, seed=3)
        sampler = CorrelatedSampler(
            circ,
            open_qubits=[0],
            backend=backend,
            fault_policy=FaultPolicy.retrying(),
        )
        assert sampler.fault_policy is not None
        assert not hasattr(backend, "fault_policy")
        assert not hasattr(backend, "fault_injector")
        backend.close()

    def test_planner_summary_exposes_recovery_counters(self, case):
        from repro.pipeline import SimulationPlanner

        injector = FaultInjector([FaultSpec("kill-worker", chunk=1)])

        class InjectingBackend(SharedMemoryProcessPoolBackend):
            # the planner has no injector argument: arm the run-scoped one
            def run_subtasks(self, *args, **kwargs):
                return super().run_subtasks(*args, **{**kwargs, "injector": injector})

        backend = InjectingBackend(max_workers=WORKERS)
        planner = SimulationPlanner(
            target_rank=6,
            max_trials=2,
            seed=7,
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=2),
        )
        circ = random_brickwork_circuit(5, 4, seed=11)
        plan = planner.plan_circuit(circ, bitstring=[0] * 5, concrete=True)
        with planner:
            planner.execute_plan(plan)
        summary = plan.summary()
        assert "retries" in summary and "faults" in summary
        assert "recovery_seconds" in summary
        if plan.slicing.num_sliced and plan.num_subtasks > 1:
            assert summary["faults"] >= 1.0

    def test_sampler_accumulates_resilience_stats(self):
        from repro.execution import CorrelatedSampler

        circ = random_brickwork_circuit(5, 4, seed=11)
        backend = SharedMemoryProcessPoolBackend(max_workers=WORKERS)
        sampler = CorrelatedSampler(
            circ,
            open_qubits=(0, 1),
            target_rank=4,
            max_trials=2,
            seed=3,
            backend=backend,
            fault_policy=FaultPolicy.retrying(max_retries=2),
        )
        reference = CorrelatedSampler(
            circ, open_qubits=(0, 1), target_rank=4, max_trials=2, seed=3
        )
        with sampler:
            batch = sampler.compute_batch([0] * 5)
        clean = reference.compute_batch([0] * 5)
        np.testing.assert_array_equal(batch.amplitudes, clean.amplitudes)
        assert sampler.stats.retries == 0  # no injector: clean run

    def test_sampler_fault_arguments_require_backend(self):
        from repro.execution import CorrelatedSampler

        circ = random_brickwork_circuit(4, 2, seed=5)
        with pytest.raises(ValueError, match="backend"):
            CorrelatedSampler(
                circ, open_qubits=(0,), fault_policy=FaultPolicy.retrying()
            )


# ----------------------------------------------------------------------
# Property: fault-injected runs are bit-identical to clean serial runs
# ----------------------------------------------------------------------
_PROP_CASE = _case(num_qubits=5, depth=3, seed=29)
_PROP_SLICED = sorted(_PROP_CASE[0].inner_indices())[:3]
_PROP_SERIAL = SlicedExecutor(
    _PROP_CASE[0], _PROP_CASE[1], _PROP_SLICED, backend=SerialBackend()
).amplitude()


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    chunk_size=st.sampled_from([1, 2, None]),
    mode=st.sampled_from(["retry", "degrade"]),
    substrate=st.sampled_from(["process-pool", "threads"]),
)
def test_property_fault_injected_runs_match_clean_serial(
    seed, chunk_size, mode, substrate
):
    tn, tree = _PROP_CASE
    injector = FaultInjector.seeded(seed, num_chunks=4, num_faults=1)
    if substrate == "process-pool":
        backend = SharedMemoryProcessPoolBackend(
            max_workers=WORKERS, chunk_size=chunk_size
        )
    else:
        backend = ThreadPoolBackend(max_workers=WORKERS, chunk_size=chunk_size)
    policy = (
        FaultPolicy.retrying(max_retries=3, backoff_seconds=0.0)
        if mode == "retry"
        else FaultPolicy.degrading(max_retries=1, backoff_seconds=0.0)
    )
    executor = SlicedExecutor(
        tn,
        tree,
        _PROP_SLICED,
        backend=backend,
        fault_policy=policy,
        fault_injector=injector,
    )
    try:
        assert executor.amplitude() == _PROP_SERIAL
    finally:
        backend.close()
