"""End-to-end tests of the SimulationPlanner pipeline."""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import SimulationPlan, SimulationPlanner, forking
from repro.circuits import amplitude, grid_circuit, random_brickwork_circuit
from repro.core import lifetime as lifetime_module
from repro.execution import SerialBackend, SlicedExecutor, strong_scaling
from repro.execution import backend as backend_module
from repro.execution.plan import StemSlots


@pytest.fixture(scope="module")
def planned_grid():
    planner = SimulationPlanner(target_rank=12, ldm_rank=7, max_trials=8, seed=0)
    circuit = grid_circuit(4, 5, cycles=8, seed=3)
    return planner.plan_circuit(circuit)


class TestPlanning:
    def test_plan_is_complete(self, planned_grid):
        plan = planned_grid
        assert isinstance(plan, SimulationPlan)
        assert plan.tree.num_leaves == plan.network.num_tensors
        assert plan.slicing.satisfies_target
        assert plan.slicing.max_rank <= 12
        assert plan.fused_plan.total_steps == plan.stem.length
        assert set(plan.timings) == {"step-by-step", "fused"}

    def test_summary_keys_and_values(self, planned_grid):
        summary = planned_grid.summary()
        expected_keys = {
            "num_tensors",
            "log10_total_cost",
            "max_rank",
            "num_sliced",
            "num_subtasks",
            "slicing_overhead",
            "stem_cost_fraction",
            "fused_groups",
            "average_fused_steps",
            "arithmetic_intensity_gain",
            "subtask_seconds",
            "thread_speedup",
        }
        assert expected_keys <= set(summary)
        assert summary["slicing_overhead"] >= 1.0
        assert summary["num_subtasks"] == 2 ** summary["num_sliced"]
        assert 0 < summary["stem_cost_fraction"] <= 1.0

    def test_scheduler_and_scaling(self, planned_grid):
        scheduler = planned_grid.scheduler()
        points = strong_scaling(scheduler, num_subtasks=1024, node_counts=[8, 16, 32])
        assert len(points) == 3
        assert points[0].elapsed_seconds >= points[-1].elapsed_seconds

    def test_compute_time_decreases_with_nodes(self, planned_grid):
        # per-node compute shrinks with more nodes; the (tiny-workload) total
        # may be dominated by the all-reduce, so compare the compute part
        scheduler = planned_grid.scheduler(result_bytes=8.0)
        subtasks = max(int(planned_grid.num_subtasks), 64)
        assert scheduler.compute_seconds(subtasks, 64) <= scheduler.compute_seconds(subtasks, 4)
        assert planned_grid.estimated_seconds(4) > 0

    def test_headline_projection_consistency(self, planned_grid):
        projection = planned_grid.headline_projection(measured_nodes=64, projected_nodes=1024)
        assert projection.projected_seconds == pytest.approx(
            projection.measured_seconds * 64 / 1024
        )
        assert projection.sustained_pflops >= 0

    def test_default_target_rank_comes_from_main_memory(self):
        planner = SimulationPlanner(seed=0)
        assert planner.target_rank == planner.hierarchy.target_rank_for("main_memory")
        assert planner.ldm_rank == 13

    def test_plan_network_directly(self, planned_grid):
        planner = SimulationPlanner(target_rank=12, ldm_rank=7, max_trials=4, seed=1)
        replanned = planner.plan_network(planned_grid.network)
        assert replanned.slicing.satisfies_target


class TestEndToEndCorrectness:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_planned_sliced_execution_matches_statevector(self, seed):
        circuit = random_brickwork_circuit(6, 4, seed=seed)
        bits = [(seed + q) % 2 for q in range(6)]
        planner = SimulationPlanner(target_rank=5, ldm_rank=4, max_trials=6, seed=seed)
        plan = planner.plan_circuit(circuit, bitstring=bits, concrete=True)
        value = planner.execute_plan(plan)
        assert value == pytest.approx(amplitude(circuit, bits), abs=1e-8)

    def test_forced_slicing_still_correct(self):
        """Push the target low enough that several edges must be sliced."""
        circuit = grid_circuit(3, 4, cycles=8, seed=5)
        bits = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0]
        planner = SimulationPlanner(target_rank=6, ldm_rank=4, max_trials=6, seed=2)
        plan = planner.plan_circuit(circuit, bitstring=bits, concrete=True)
        value = planner.execute_plan(plan)
        assert plan.slicing.num_sliced >= 1
        assert value == pytest.approx(amplitude(circuit, bits), abs=1e-8)

    def test_refinement_toggle(self):
        circuit = grid_circuit(3, 4, cycles=6, seed=6)
        base = SimulationPlanner(
            target_rank=8, ldm_rank=5, max_trials=4, refine_slices=False, seed=3
        ).plan_circuit(circuit)
        refined = SimulationPlanner(
            target_rank=8, ldm_rank=5, max_trials=4, refine_slices=True, seed=3
        ).plan_circuit(circuit)
        assert refined.slicing.overhead <= base.slicing.overhead + 1e-9


# ----------------------------------------------------------------------
# The front door's default: inline, or every core once a block shows a pool pays
# ----------------------------------------------------------------------
def _shm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _bits(value: complex) -> bytes:
    return np.array([value], dtype=complex).tobytes()


def _sliced_plan(plan, sliced):
    """What ``execute_plan`` reads of ``plan``, sliced ``sliced`` ways instead."""
    return SimpleNamespace(
        network=plan.network,
        tree=plan.tree,
        slicing=SimpleNamespace(sliced=frozenset(sliced)),
        scalar_prefactor=plan.scalar_prefactor,
        measured_stats=None,
    )


@pytest.fixture(scope="module")
def small_bench_plan():
    """The ``small_subtasks`` bench plan at seed 3: 512 subtasks, no inner fold."""
    bits = [int(b) for b in np.random.default_rng(3).integers(0, 2, 20)]
    planner = SimulationPlanner(target_rank=10, max_trials=8, seed=1)
    return planner, planner.plan_circuit(grid_circuit(4, 5, cycles=10, seed=3), bits, True)


@pytest.fixture(scope="module")
def folding_plan():
    """A 3x4 grid plan sliced 6 ways; compiled with ``INNER_FOLD_PRODUCT``
    lifted it folds inside, 8 blocks of 8 subtasks."""
    planner = SimulationPlanner(target_rank=6, max_trials=4, seed=0)
    return planner, planner.plan_circuit(grid_circuit(3, 4, cycles=8, seed=0), concrete=True)


@pytest.fixture
def crew_spy(monkeypatch):
    """The process count of every sweep crew a run forks (the real crew still runs)."""
    built = []

    class Spied(backend_module._RangeCrew):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(backend_module, "_RangeCrew", Spied)
    return built


@pytest.fixture
def may_fork(monkeypatch):
    """Two usable CPUs, a single-threaded BLAS and any block paying for a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(forking, "native_threads", lambda: 1)
    monkeypatch.setattr(forking, "_FORK_SECONDS", 0.0)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/dev/shm"),
    reason="the sweep forks its crew; the audit reads /dev/shm",
)
class TestFrontDoorPool:
    """``execute_plan`` without a backend (the executors' default): the
    serial bits, inline or split with forked twins that nothing outlives."""

    @pytest.fixture(autouse=True)
    def nothing_outlives_a_run(self):
        threads, segments = threading.active_count(), _shm_segments()
        yield
        with pytest.raises(ChildProcessError):  # no child, not even a zombie
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == threads
        assert _shm_segments() <= segments

    @pytest.mark.parametrize("branch", ["pool", "inline"])
    @pytest.mark.parametrize("case", ["small_bench", "inner_fold", "two_blocks", "one_block"])
    def test_the_amplitude_is_the_serial_one_bit_for_bit(
        self, request, monkeypatch, may_fork, crew_spy, branch, case
    ):
        if case == "inner_fold":
            planner, plan = request.getfixturevalue("folding_plan")
            monkeypatch.setattr(lifetime_module, "INNER_FOLD_PRODUCT", math.inf)
        else:
            planner, plan = request.getfixturevalue("small_bench_plan")
            if case != "small_bench":
                keep = 1 if case == "two_blocks" else 0
                plan = _sliced_plan(plan, sorted(plan.slicing.sliced)[:keep])
        if branch == "inline":
            monkeypatch.setattr(forking, "_FORK_SECONDS", math.inf)
        serial = SlicedExecutor(
            plan.network, plan.tree, plan.slicing.sliced, backend=SerialBackend()
        )
        expected = serial.amplitude() * plan.scalar_prefactor
        blocks = sum(1 for _ in serial.plan.blocks(serial.assignments()))
        assert blocks == {"small_bench": 512, "inner_fold": 8, "two_blocks": 2, "one_block": 1}[case]
        assert (serial.plan.inner_fold is not None) == (case == "inner_fold")

        value = planner.execute_plan(plan)
        assert _bits(value) == _bits(expected)
        assert crew_spy == ([2] if branch == "pool" and blocks > 3 else [])
        stats = plan.measured_stats
        assert stats.executions == serial.num_subtasks
        assert stats.faults == 0
        if branch == "inline":
            assert stats.steps_executed == serial.stats.steps_executed

    def test_a_pooled_sweep_adds_one_top_level_walk_per_chunk(
        self, small_bench_plan, may_fork, crew_spy
    ):
        planner, plan = small_bench_plan
        serial = SlicedExecutor(
            plan.network, plan.tree, plan.slicing.sliced, backend=SerialBackend()
        )
        serial.run()
        assert serial.stats.steps_executed == 5_227
        planner.execute_plan(plan)
        assert crew_spy == [2]
        # the 510 blocks left run as one range of 255 per process; the
        # parent's resumes the sweep it is in, the twin's first subtask
        # walks from the top (18 steps) where the serial sweep resumed: 9
        # steps more
        top_level = len(serial.plan._resume_suffixes[0][1])
        assert top_level == 18
        assert plan.measured_stats.steps_executed == 5_227 + 9 <= 5_227 + top_level

    def test_the_parent_sweeps_its_share_on_the_arena_it_keeps(
        self, monkeypatch, small_bench_plan, may_fork
    ):
        arenas, seen, parent = [], [], os.getpid()

        class Tracked(StemSlots):
            def __init__(self):
                super().__init__()
                arenas.append(self)

        real = backend_module._swept_blocks

        def spy(plan, network, assignments, cache, stats, slots, *rest):
            if os.getpid() == parent:
                seen.append(slots)
            return real(plan, network, assignments, cache, stats, slots, *rest)

        planner, plan = small_bench_plan
        arena_bytes = SlicedExecutor(plan.network, plan.tree, plan.slicing.sliced).plan.arena_bytes
        monkeypatch.setattr(backend_module, "StemSlots", Tracked)
        monkeypatch.setattr(backend_module, "_swept_blocks", spy)
        planner.execute_plan(plan)
        # the door's own arena, bound by blocks 0 and 1, sweeps on through
        # the parent's range in one loop; nothing else in the parent
        # allocates one
        (door, *unused) = arenas
        assert seen == [door] and door.allocated_bytes == arena_bytes == 65_792
        assert all(slots.allocated_bytes == 0 for slots in unused)

    @pytest.mark.parametrize(
        "rule",
        ["one_cpu", "live_thread", "native_thread", "daemon", "cheap_block", "one_block_left"],
    )
    def test_each_inline_rule_keeps_the_pool_unbuilt(
        self, monkeypatch, small_bench_plan, may_fork, rule
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep crew was forked")

        monkeypatch.setattr(backend_module, "_RangeCrew", refuse)
        if rule == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        if rule == "native_thread":
            monkeypatch.setattr(forking, "native_threads", lambda: 2)
        if rule == "daemon":  # a daemonic pool worker may not have children
            daemon = SimpleNamespace(daemon=True)
            monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
        if rule == "cheap_block":
            monkeypatch.setattr(forking, "_FORK_SECONDS", math.inf)
        planner, plan = small_bench_plan
        serial = SlicedExecutor(
            plan.network, plan.tree, plan.slicing.sliced, backend=SerialBackend()
        )
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        if rule == "live_thread":
            other.start()
        try:
            if rule == "one_block_left":
                # three blocks: one is left after the timed block 1
                ids = [0, 1, 2]
                door = SlicedExecutor(plan.network, plan.tree, plan.slicing.sliced)
                assert _bits(door.amplitude(ids)) == _bits(serial.amplitude(ids))
            else:
                value = planner.execute_plan(plan)
                assert _bits(value) == _bits(serial.amplitude() * plan.scalar_prefactor)
        finally:
            release.set()
            if rule == "live_thread":
                other.join(timeout=10)
                assert not other.is_alive()

    @pytest.mark.faults
    def test_a_killed_worker_costs_one_warning_and_not_the_bits(
        self, monkeypatch, small_bench_plan, may_fork, crew_spy, caplog
    ):
        planner, plan = small_bench_plan
        serial = SlicedExecutor(
            plan.network, plan.tree, plan.slicing.sliced, backend=SerialBackend()
        )
        expected = serial.amplitude() * plan.scalar_prefactor
        parent, sweep = os.getpid(), backend_module._swept_blocks

        def sweep_then_die(*args):
            if os.getpid() != parent:  # the twin dies in its range; the parent never does
                os._exit(1)
            return sweep(*args)

        monkeypatch.setattr(backend_module, "_swept_blocks", sweep_then_die)
        with caplog.at_level(logging.WARNING):
            value = planner.execute_plan(plan)
        assert crew_spy == [2]
        assert _bits(value) == _bits(expected)
        (record,) = caplog.records
        assert record.name == "repro.execution.backend" and record.levelno == logging.WARNING
        message = record.getMessage()
        assert message.startswith("sweep twin lost (EOFError: ")
        assert message.endswith("; running blocks 257-511 inline")
        stats = plan.measured_stats
        assert stats.faults == 1
        assert stats.executions == serial.num_subtasks

    def test_a_chunk_error_is_raised_as_inline(self, monkeypatch, small_bench_plan, may_fork):
        sweep = backend_module._swept_blocks

        def sweep_then_raise(plan, network, assignments, cache, stats, slots, start=0, *rest):
            # the twin's range raises, and so does the parent's inline rerun of it
            if start > 2:
                raise LookupError("chunk exploded")
            return sweep(plan, network, assignments, cache, stats, slots, start, *rest)

        monkeypatch.setattr(backend_module, "_swept_blocks", sweep_then_raise)
        planner, plan = small_bench_plan
        with pytest.raises(LookupError, match="chunk exploded"):
            planner.execute_plan(plan)
