"""Unified cost model: analytic + calibrated predictions, scaling.

Covers the two contract modes of the acceptance criteria:

* with **no** calibration data (no cost model anywhere), every planner /
  optimizer / executor / scaling output is bit-identical to the
  uncalibrated behaviour;
* with a model (analytic, or calibrated from measured timings), the §6.2
  projections use per-backend subtask seconds.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis import cost_model_summary, predicted_vs_measured
from repro.core import LifetimeSliceFinder
from repro.costs import (
    AnalyticCostModel,
    CalibratedCostModel,
    CalibrationRecord,
    CostModel,
    CostModelError,
    calibration_payload,
)
from repro.execution import (
    HeadlineProjection,
    PlanStats,
    ProcessScheduler,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
    compile_plan,
    strong_scaling,
    weak_scaling,
)
from repro.circuits import grid_circuit
from repro.paths import HyperOptimizer
from repro.pipeline import SimulationPlanner
from repro.tensornet import amplitude_network, simplify_network


@pytest.fixture(scope="module")
def workload():
    """Concrete network + tree + a slicing set of >= 2 inner indices."""
    circuit = grid_circuit(3, 3, cycles=6, seed=5)
    network = amplitude_network(circuit, [0] * circuit.num_qubits, concrete=True)
    simplify_network(network)
    tree = HyperOptimizer(max_trials=6, seed=2).search(network)
    target = max(tree.max_rank() - 3, 3)
    slicing = LifetimeSliceFinder(target).find(tree)
    inner = network.inner_indices()
    sliced = frozenset(ix for ix in slicing.sliced if ix in inner)
    assert len(sliced) >= 2, "workload must slice at least two indices"
    return network, tree, sliced


# ----------------------------------------------------------------------
# Analytic model
# ----------------------------------------------------------------------
class TestAnalyticCostModel:
    def test_positive_and_slicing_monotone(self, grid_tree):
        model = AnalyticCostModel()
        base = model.subtask_seconds(grid_tree)
        assert base > 0
        edge = max(grid_tree.all_indices())
        assert model.subtask_seconds(grid_tree, {edge}) <= base
        # total over subtasks is never below the per-subtask time
        assert model.total_seconds(grid_tree, {edge}) >= model.subtask_seconds(
            grid_tree, {edge}
        )

    def test_tree_cost_is_subtask_seconds(self, grid_tree):
        model = AnalyticCostModel()
        assert model.tree_cost(grid_tree) == model.subtask_seconds(grid_tree)

    def test_roofline_regimes(self):
        model = AnalyticCostModel()
        # a huge-flops step is compute bound, a tiny one bandwidth bound
        compute_bound = model.step_seconds(60.0, 10.0)
        assert compute_bound == pytest.approx(8.0 * 2.0**60 / model.peak_flops)
        bandwidth_bound = model.step_seconds(1.0, 30.0)
        assert bandwidth_bound == pytest.approx(
            model.element_bytes * 2.0**30 / model.memory_bandwidth
        )

    def test_subtask_flops_matches_tree_cost_convention(self, grid_tree):
        assert CostModel.subtask_flops(grid_tree) == pytest.approx(
            8.0 * grid_tree.contraction_cost()
        )


# ----------------------------------------------------------------------
# Measured timings → calibrated model
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def measured_run(workload):
    """A real serial run plus its executor (source of measured timings)."""
    network, tree, sliced = workload
    executor = SlicedExecutor(network, tree, sliced)
    value = executor.amplitude()
    return executor, value


class TestMeasuredTimings:
    def test_plan_stats_record_subtask_and_stage_times(self, measured_run):
        executor, _ = measured_run
        stats = executor.stats
        assert stats.timed_subtasks == stats.executions
        assert len(stats.subtask_seconds) == min(stats.timed_subtasks, 256)
        assert all(seconds >= 0 for seconds in stats.subtask_seconds)
        assert stats.stage_seconds["execute"] == pytest.approx(
            stats.subtask_seconds_sum
        )
        assert "warm_cache" in stats.stage_seconds
        assert stats.mean_subtask_seconds >= 0

    def test_stats_merge_folds_timings(self):
        first, second = PlanStats(), PlanStats()
        for seconds in (1.0, 2.0):
            first.record_subtask_time(seconds)
        first.record_stage("execute", 3.0)
        second.record_subtask_time(4.0)
        second.record_stage("execute", 4.0)
        second.record_stage("warm_cache", 0.5)
        first.merge(second)
        assert list(first.subtask_seconds) == [1.0, 2.0, 4.0]
        assert first.subtask_seconds_sum == 7.0
        assert first.timed_subtasks == 3
        assert first.mean_subtask_seconds == pytest.approx(7.0 / 3)
        assert first.stage_seconds == {"execute": 7.0, "warm_cache": 0.5}

    def test_timing_samples_are_bounded_but_aggregates_exact(self):
        from repro.execution.plan import MAX_TIMING_SAMPLES

        stats = PlanStats()
        total = MAX_TIMING_SAMPLES + 50
        for i in range(total):
            stats.record_subtask_time(1.0)
        assert len(stats.subtask_seconds) == MAX_TIMING_SAMPLES
        assert stats.timed_subtasks == total
        assert stats.mean_subtask_seconds == pytest.approx(1.0)
        other = PlanStats()
        other.record_subtask_time(1.0)
        stats.merge(other)  # capped list does not grow, aggregates do
        assert len(stats.subtask_seconds) == MAX_TIMING_SAMPLES
        assert stats.timed_subtasks == total + 1

    def test_timing_samples_at_the_cap_are_unboxed_doubles(self):
        """At the cap the samples cost 8 bytes each (an ``array('d')``), not a
        float object each: they sit in every worker's stats and in a fresh
        pass's memory peak."""
        import pickle
        import tracemalloc

        from repro.execution.plan import MAX_TIMING_SAMPLES

        stats = PlanStats()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(MAX_TIMING_SAMPLES + 50):
                stats.record_subtask_time(i / 1024)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(stats.subtask_seconds) == MAX_TIMING_SAMPLES
        # (256 boxed floats and their list held 8,288 bytes)
        assert held <= 8 * MAX_TIMING_SAMPLES + 1024
        # what merge, calibration, the complexity report and pool workers use
        assert stats.subtask_seconds[:3].tolist() == [0.0, 1 / 1024, 2 / 1024]
        assert tuple(stats.subtask_seconds)[-1] == (MAX_TIMING_SAMPLES - 1) / 1024
        copy = pickle.loads(pickle.dumps(stats))
        assert copy.subtask_seconds == stats.subtask_seconds
        merged = PlanStats()
        merged.merge(stats)
        assert merged.subtask_seconds == stats.subtask_seconds

    def test_calibration_record_from_stats(self, measured_run, workload):
        _, small_tree, small_sliced = workload
        executor, _ = measured_run
        record = executor.calibration_record()
        assert record.backend == "serial"
        # the samples time the cache-warm path, so the record pairs them
        # with the slice-dependent (not full Eq. 1) work
        assert record.num_steps == CostModel.dependent_step_count(
            small_tree, small_sliced
        )
        assert record.subtask_flops == pytest.approx(
            CostModel.dependent_subtask_flops(small_tree, small_sliced)
        )
        assert record.num_steps < len(small_tree.internal_nodes()) or (
            record.subtask_flops
            == pytest.approx(8.0 * small_tree.contraction_cost(small_sliced))
        )
        assert record.mean_seconds > 0

    def test_dependent_flops_exclude_the_invariant_fraction(self, workload):
        _, tree, sliced = workload
        dependent = CostModel.dependent_subtask_flops(tree, sliced)
        full = CostModel.subtask_flops(tree, sliced)
        assert 0 < dependent <= full
        # empty slicing: the one subtask runs everything
        assert CostModel.dependent_subtask_flops(tree) == pytest.approx(
            CostModel.subtask_flops(tree)
        )
        assert CostModel.dependent_step_count(tree) == len(tree.internal_nodes())

    def test_every_run_with_invariant_work_is_timed_cache_warm(self, workload):
        """Every compiled run warms the invariant cache before it times a
        subtask, so ``from_stats`` and ``calibration_payload`` pair every
        executor's samples with the dependent work: each ``PlanStats`` a
        run produces on a workload with invariant work has cache hits."""
        network, tree, sliced = workload
        assert CostModel.dependent_subtask_flops(tree, sliced) < CostModel.subtask_flops(
            tree, sliced
        )
        produced = []
        for backend in (
            SerialBackend(),
            ThreadPoolBackend(max_workers=2),
            SharedMemoryProcessPoolBackend(max_workers=2),
        ):
            executor = SlicedExecutor(network, tree, sliced, backend=backend)
            assert executor.plan.invariant_nodes
            executor.run()
            produced.append(executor.stats)
            single = SlicedExecutor(network, tree, sliced, backend=backend)
            single.run_subtask(0)
            produced.append(single.stats)
        stateless = PlanStats()
        plan = compile_plan(network, tree, sliced)
        plan.execute(network, dict.fromkeys(plan.sliced, 0), stats=stateless)
        produced.append(stateless)
        for stats in produced:
            assert stats.subtask_seconds and stats.cache_hits > 0
            payload = calibration_payload({"serial": stats}, tree, sliced)
            assert list(payload["backends"]) == ["serial"]

class TestCalibratedCostModel:
    def test_single_workload_fit_reproduces_the_mean(self, measured_run, workload):
        _, small_tree, small_sliced = workload
        executor, _ = measured_run
        record = executor.calibration_record()
        model = CalibratedCostModel.fit([record])
        predicted = model.subtask_seconds(small_tree, small_sliced, backend="serial")
        assert predicted == pytest.approx(record.mean_seconds, rel=1e-9)

    def test_two_workload_fit_is_exact_on_consistent_data(self):
        # seconds = 2e-9 * flops + 1e-4 * steps, two distinct workloads
        records = [
            CalibrationRecord("serial", 1e6, 10, (2e-9 * 1e6 + 1e-4 * 10,)),
            CalibrationRecord("serial", 4e6, 25, (2e-9 * 4e6 + 1e-4 * 25,)),
        ]
        model = CalibratedCostModel.fit(records)
        fitted = model.coefficients["serial"]
        assert fitted.seconds_per_flop == pytest.approx(2e-9, rel=1e-6)
        assert fitted.seconds_per_step == pytest.approx(1e-4, rel=1e-6)

    def test_unknown_backend_raises_without_fallback(self, measured_run, workload):
        _, small_tree, _ = workload
        executor, _ = measured_run
        model = CalibratedCostModel.fit([executor.calibration_record()])
        with pytest.raises(CostModelError, match="no calibration"):
            model.subtask_seconds(small_tree, backend="threads")

    def test_unknown_backend_uses_fallback(self, measured_run, workload):
        _, small_tree, _ = workload
        executor, _ = measured_run
        analytic = AnalyticCostModel()
        model = CalibratedCostModel.fit(
            [executor.calibration_record()], fallback=analytic
        )
        assert model.subtask_seconds(small_tree, backend="threads") == pytest.approx(
            analytic.subtask_seconds(small_tree)
        )

    def test_bench_json_round_trip(self, measured_run, workload, tmp_path):
        _, small_tree, small_sliced = workload
        executor, _ = measured_run
        payload = {
            "calibration": calibration_payload(
                {"serial": executor.stats}, small_tree, small_sliced
            )
        }
        path = tmp_path / "BENCH_exec_plan.json"
        path.write_text(json.dumps(payload))
        model = CalibratedCostModel.from_bench_json(path)
        assert model.backends == ("serial",)
        direct = CalibratedCostModel.fit([executor.calibration_record()])
        # the JSON persists at most MAX_SAMPLES_PERSISTED samples; on this
        # small workload that is all of them, so the fits agree exactly
        assert model.subtask_seconds(small_tree, small_sliced) == pytest.approx(
            direct.subtask_seconds(small_tree, small_sliced)
        )

    def test_empty_sources_raise(self, tmp_path):
        with pytest.raises(CostModelError):
            CalibratedCostModel.fit([])
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"calibration": {"backends": {}}}))
        with pytest.raises(CostModelError):
            CalibratedCostModel.from_bench_json(path)


class TestCalibrationKeys:
    """One coefficient key per backend: its name, never qualified."""

    def test_qualified_key_is_rejected(self, workload):
        _, small_tree, small_sliced = workload
        payload = {
            "calibration": {
                "subtask_flops": 1e6,
                "num_steps": 10,
                "backends": {
                    "serial": {"subtask_seconds": [0.4]},
                    "threads+foo": {"subtask_seconds": [0.2]},
                },
            }
        }
        with pytest.raises(CostModelError, match=r"'threads\+foo'"):
            CalibratedCostModel.from_bench_json(payload)
        # and a qualified backend name is not answered with the plain one's
        model = CalibratedCostModel.fit([CalibrationRecord("serial", 1e6, 10, (0.4,))])
        with pytest.raises(CostModelError, match=r"'serial\+native'"):
            model.subtask_seconds(small_tree, small_sliced, backend="serial+native")


# ----------------------------------------------------------------------
# Scaling projections from the model
# ----------------------------------------------------------------------
class TestScalingFromCostModel:
    def test_scheduler_uses_measured_subtask_seconds(self, measured_run, workload):
        _, small_tree, small_sliced = workload
        executor, _ = measured_run
        model = CalibratedCostModel.fit([executor.calibration_record()])
        scheduler = ProcessScheduler.from_cost_model(
            model, small_tree, small_sliced, backend="serial"
        )
        assert scheduler.subtask_seconds == pytest.approx(
            model.subtask_seconds(small_tree, small_sliced, backend="serial")
        )
        # the calibrated seconds cover only cache-warm dependent work, so
        # the flops bookkeeping pairs with the same work
        assert scheduler.subtask_flops == pytest.approx(
            CostModel.dependent_subtask_flops(small_tree, small_sliced)
        )
        analytic = ProcessScheduler.from_cost_model(
            AnalyticCostModel(), small_tree, small_sliced
        )
        assert analytic.subtask_flops == pytest.approx(
            8.0 * small_tree.contraction_cost(small_sliced)
        )

    def test_sweeps_accept_cost_model(self, grid_tree):
        model = AnalyticCostModel()
        strong = strong_scaling(
            cost_model=model, tree=grid_tree, num_subtasks=1024, node_counts=[8, 16, 32]
        )
        assert [p.num_nodes for p in strong] == [8, 16, 32]
        assert strong[0].speedup == pytest.approx(1.0)
        weak = weak_scaling(
            cost_model=model, tree=grid_tree, subtasks_per_node=4, node_counts=[8, 16]
        )
        assert weak[0].efficiency == pytest.approx(1.0)

    def test_sweeps_reject_both_scheduler_and_model(self, grid_tree):
        scheduler = ProcessScheduler(subtask_seconds=1.0, subtask_flops=1.0)
        with pytest.raises(ValueError, match="not both"):
            strong_scaling(scheduler, cost_model=AnalyticCostModel(), tree=grid_tree)
        with pytest.raises(ValueError, match="pass cost_model"):
            weak_scaling()

    def test_headline_projection_from_model(self, measured_run, workload):
        _, small_tree, small_sliced = workload
        executor, _ = measured_run
        model = CalibratedCostModel.fit([executor.calibration_record()])
        projection = HeadlineProjection.from_cost_model(
            model, small_tree, small_sliced, measured_nodes=64, projected_nodes=1024
        )
        summary = projection.summary()
        assert summary["projected_seconds"] == pytest.approx(
            summary["measured_seconds"] * 64 / 1024
        )
        assert summary["sustained_pflops"] > 0
        num_subtasks = round(
            math.prod(small_tree.index_size(ix) for ix in small_sliced)
        )
        assert num_subtasks == round(small_tree.num_subtasks(small_sliced))
        assert projection.total_flops == pytest.approx(
            CostModel.dependent_subtask_flops(small_tree, small_sliced) * num_subtasks
        )


# ----------------------------------------------------------------------
# Optimizer + pipeline integration
# ----------------------------------------------------------------------
class TestCostModelIntegration:
    def test_optimizer_records_predicted_cost(self, grid_network):
        model = AnalyticCostModel()
        opt = HyperOptimizer(max_trials=4, seed=0, cost_model=model)
        opt.search(grid_network)
        assert opt.trials
        for record in opt.trials:
            assert record.cost is not None and record.cost > 0
        best = opt.best_record()
        assert best.cost == min(r.cost for r in opt.trials)
        summary = opt.trial_summary()
        assert any("best_predicted_seconds" in row for row in summary.values())

    def test_optimizer_without_model_is_bit_identical(self, grid_network):
        plain = HyperOptimizer(max_trials=4, seed=0)
        plain.search(grid_network)
        assert all(record.cost is None for record in plain.trials)
        modelled = HyperOptimizer(max_trials=4, seed=0, cost_model=AnalyticCostModel())
        modelled.search(grid_network)
        # same seed → same trial trees either way (scoring never perturbs
        # the RNG stream)
        assert [(r.method, r.log10_flops, r.max_rank, r.seed) for r in plain.trials] == [
            (r.method, r.log10_flops, r.max_rank, r.seed) for r in modelled.trials
        ]

    def test_planner_threads_the_model(self, small_circuit):
        model = AnalyticCostModel()
        planner = SimulationPlanner(
            target_rank=12, ldm_rank=8, max_trials=4, seed=0, cost_model=model
        )
        plan = planner.plan_circuit(small_circuit, concrete=True)
        assert plan.cost_model is model
        summary = plan.summary()
        assert summary["predicted_subtask_seconds"] == pytest.approx(
            model.subtask_seconds(plan.tree, plan.slicing.sliced)
        )
        scheduler = plan.scheduler()
        assert scheduler.subtask_seconds == pytest.approx(
            summary["predicted_subtask_seconds"]
        )
        # executing the plan attaches measured stats → stage report
        planner.execute_plan(plan)
        assert plan.measured_stats is not None
        rows = plan.stage_costs()
        by_stage = {row["stage"]: row for row in rows}
        assert "predicted_subtask_seconds" in by_stage["execute"]
        assert "measured_seconds" in by_stage["execute"]
        vs = predicted_vs_measured(
            model, plan.measured_stats, plan.tree, plan.slicing.sliced
        )
        assert vs["ratio"] > 0

    def test_planner_without_model_keeps_summary_keys(self, small_circuit):
        planner = SimulationPlanner(target_rank=12, ldm_rank=8, max_trials=4, seed=0)
        plan = planner.plan_circuit(small_circuit, concrete=True)
        summary = plan.summary()
        assert "predicted_subtask_seconds" not in summary
        assert "measured_subtask_seconds" not in summary
        with pytest.raises(ValueError, match="without a cost model"):
            plan.predicted_subtask_seconds()

    def test_cost_model_summary_rows(self, measured_run, workload):
        _, small_tree, small_sliced = workload
        executor, _ = measured_run
        model = CalibratedCostModel.fit(
            [executor.calibration_record()], fallback=AnalyticCostModel()
        )
        rows = cost_model_summary(
            model, small_tree, small_sliced, backends=["serial", "threads"]
        )
        assert [row["backend"] for row in rows] == ["serial", "threads"]
        assert all(row["subtask_seconds"] > 0 for row in rows)
