"""Tests of the execution engines: tree executor, sliced executor, thread-level
simulator and the process-level scaling model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import amplitude, random_brickwork_circuit
from repro.core import LifetimeSliceFinder, SecondarySlicer, extract_stem
from repro.execution import (
    GORDON_BELL_2021_PFLOPS,
    HeadlineProjection,
    ProcessScheduler,
    SlicedExecutor,
    ThreadLevelSimulator,
    TreeExecutor,
    contract_tree,
    strong_scaling,
    weak_scaling,
)
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network


@pytest.fixture(scope="module")
def concrete_case():
    """A concrete network + tree + reference amplitude for execution tests."""
    circ = random_brickwork_circuit(6, 4, seed=13)
    bits = (1, 0, 1, 1, 0, 0)
    tn = amplitude_network(circ, bits)
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    return tn, tree, amplitude(circ, bits)


class TestTreeExecutor:
    def test_matches_statevector(self, concrete_case):
        tn, tree, reference = concrete_case
        assert TreeExecutor().amplitude(tn, tree) == pytest.approx(reference, abs=1e-9)
        assert SlicedExecutor(tn, tree, ()).amplitude() == pytest.approx(reference, abs=1e-9)

    def test_contract_tree_helper(self, concrete_case):
        tn, tree, reference = concrete_case
        result = contract_tree(tn, tree)
        assert complex(result.require_data()) == pytest.approx(reference, abs=1e-9)

    def test_single_precision_execution(self, concrete_case):
        tn, tree, reference = concrete_case
        for value in (
            TreeExecutor(dtype=np.complex64).amplitude(tn, tree),
            SlicedExecutor(tn, tree, (), dtype=np.complex64).amplitude(),
        ):
            assert value == pytest.approx(reference, abs=1e-4)

    def test_fixed_indices_consistency(self, concrete_case):
        tn, tree, reference = concrete_case
        inner = sorted(tn.inner_indices())[:2]
        total = 0.0 + 0.0j
        for v0 in range(2):
            for v1 in range(2):
                tensor = contract_tree(tn, tree, {inner[0]: v0, inner[1]: v1})
                total += complex(tensor.require_data())
        assert total == pytest.approx(reference, abs=1e-9)

    def test_abstract_network_rejected(self, concrete_case):
        _, tree, _ = concrete_case
        circ = random_brickwork_circuit(6, 4, seed=13)
        abstract = amplitude_network(circ, (1, 0, 1, 1, 0, 0), concrete=False)
        simplify_network(abstract)
        tree = GreedyOptimizer(seed=1).tree(abstract)
        with pytest.raises(ValueError):
            TreeExecutor().execute(abstract, tree)
        with pytest.raises(ValueError):
            contract_tree(abstract, tree)


class TestSlicedExecutor:
    @pytest.mark.parametrize("num_sliced", [1, 2, 3])
    def test_sliced_sum_equals_unsliced(self, concrete_case, num_sliced):
        tn, tree, reference = concrete_case
        sliced = sorted(tn.inner_indices())[:num_sliced]
        executor = SlicedExecutor(tn, tree, sliced)
        assert executor.num_subtasks == 2**num_sliced
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)

    def test_lifetime_finder_slices_execute_correctly(self, concrete_case):
        tn, tree, reference = concrete_case
        target = max(tree.max_rank() - 2, 2)
        slicing = LifetimeSliceFinder(target).find(tree)
        inner = tn.inner_indices()
        usable = frozenset(ix for ix in slicing.sliced if ix in inner)
        executor = SlicedExecutor(tn, tree, usable)
        assert executor.amplitude() == pytest.approx(reference, abs=1e-9)

    def test_assignment_decoding_roundtrip(self, concrete_case):
        tn, tree, _ = concrete_case
        sliced = sorted(tn.inner_indices())[:3]
        executor = SlicedExecutor(tn, tree, sliced)
        seen = set()
        for sid in range(executor.num_subtasks):
            assignment = executor.assignment(sid)
            seen.add(tuple(assignment[ix] for ix in executor.sliced))
        assert len(seen) == executor.num_subtasks

    def test_assignment_out_of_range(self, concrete_case):
        tn, tree, _ = concrete_case
        executor = SlicedExecutor(tn, tree, sorted(tn.inner_indices())[:1])
        with pytest.raises(ValueError):
            executor.assignment(5)

    def test_partial_subtasks_give_partial_sum(self, concrete_case):
        tn, tree, reference = concrete_case
        sliced = sorted(tn.inner_indices())[:2]
        executor = SlicedExecutor(tn, tree, sliced)
        total = sum(
            complex(executor.run([sid]).require_data()) for sid in range(executor.num_subtasks)
        )
        assert total == pytest.approx(reference, abs=1e-9)

    def test_open_index_slicing_rejected(self, concrete_case):
        tn, tree, _ = concrete_case
        circ = random_brickwork_circuit(3, 2, seed=1)
        from repro.tensornet import CircuitToTensorNetwork

        open_tn = CircuitToTensorNetwork().convert(circ).network
        open_tree = GreedyOptimizer(seed=0).tree(open_tn)
        open_index = sorted(open_tn.output_indices())[0]
        with pytest.raises(ValueError):
            SlicedExecutor(open_tn, open_tree, [open_index])

class TestThreadLevelSimulator:
    @pytest.fixture(scope="class")
    def timings(self, grid_tree, grid_stem):
        target = max(grid_tree.max_rank() - 4, 4)
        slicing = LifetimeSliceFinder(target).find(grid_tree, stem=grid_stem)
        simulator = ThreadLevelSimulator()
        plan = SecondarySlicer(ldm_rank=max(target - 3, 3)).plan(
            grid_stem, process_sliced=slicing.sliced
        )
        return {
            "step": simulator.simulate_step_by_step(grid_stem, slicing.sliced),
            "fused": simulator.simulate_fused(plan, slicing.sliced),
            "simulator": simulator,
        }

    def test_components_positive(self, timings):
        for key in ("step", "fused"):
            timing = timings[key]
            assert timing.total_seconds > 0
            assert timing.gemm_seconds > 0
            assert timing.flops > 0
            assert timing.dma_bytes > 0

    def test_flops_identical_between_schedules(self, timings):
        # fusion changes data movement, never the arithmetic performed
        assert timings["fused"].flops == pytest.approx(timings["step"].flops, rel=1e-9)

    def test_fused_moves_fewer_bytes(self, timings):
        assert timings["fused"].dma_bytes <= timings["step"].dma_bytes + 1e-9

    def test_fused_has_higher_arithmetic_intensity(self, timings):
        assert timings["fused"].arithmetic_intensity >= timings["step"].arithmetic_intensity

    def test_breakdown_keys(self, timings):
        breakdown = timings["fused"].breakdown()
        assert set(breakdown) == {"memory_access", "rma", "permutation", "gemm", "total"}
        assert breakdown["total"] == pytest.approx(timings["fused"].total_seconds)

    def test_roofline_point(self, timings):
        model = timings["simulator"].roofline()
        point = timings["fused"].roofline_point()
        assert point.achieved_flops <= model.peak_flops * 1.001

    def test_compare_helper(self, grid_stem, grid_tree):
        target = max(grid_tree.max_rank() - 4, 4)
        slicing = LifetimeSliceFinder(target).find(grid_tree, stem=grid_stem)
        results = ThreadLevelSimulator().compare(grid_stem, slicing.sliced)
        assert set(results) == {"step-by-step", "fused"}

    def test_naive_scattered_dma_is_much_slower(self, grid_stem, grid_tree):
        target = max(grid_tree.max_rank() - 4, 4)
        slicing = LifetimeSliceFinder(target).find(grid_tree, stem=grid_stem)
        plan = SecondarySlicer(ldm_rank=max(target - 3, 3)).plan(
            grid_stem, process_sliced=slicing.sliced
        )
        coop = ThreadLevelSimulator(cooperative_dma=True).simulate_fused(plan, slicing.sliced)
        naive = ThreadLevelSimulator(cooperative_dma=False).simulate_fused(plan, slicing.sliced)
        assert naive.memory_access_seconds > coop.memory_access_seconds * 5

    def test_in_situ_permutation_penalty(self, grid_stem, grid_tree):
        target = max(grid_tree.max_rank() - 4, 4)
        slicing = LifetimeSliceFinder(target).find(grid_tree, stem=grid_stem)
        fast = ThreadLevelSimulator(reduced_permutation_maps=True).simulate_step_by_step(
            grid_stem, slicing.sliced
        )
        slow = ThreadLevelSimulator(reduced_permutation_maps=False).simulate_step_by_step(
            grid_stem, slicing.sliced
        )
        assert slow.permutation_seconds == pytest.approx(10.0 * fast.permutation_seconds)


class TestProcessScheduler:
    def test_distribution_arithmetic(self):
        scheduler = ProcessScheduler(subtask_seconds=1.0, subtask_flops=1e12)
        assert scheduler.subtasks_on_slowest_node(65536, 1024) == 64
        assert scheduler.subtasks_on_slowest_node(65537, 1024) == 65
        assert scheduler.compute_seconds(65536, 1024) == pytest.approx(64.0)

    def test_reduce_cost_grows_logarithmically(self):
        scheduler = ProcessScheduler(subtask_seconds=1.0, subtask_flops=1e12)
        assert scheduler.reduce_seconds(1) == 0.0
        assert scheduler.reduce_seconds(1024) == pytest.approx(
            10 * scheduler.reduce_seconds(2), rel=1e-9
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProcessScheduler(subtask_seconds=0.0, subtask_flops=1.0)
        scheduler = ProcessScheduler(subtask_seconds=1.0, subtask_flops=1.0)
        with pytest.raises(ValueError):
            scheduler.compute_seconds(10, 0)

    def test_strong_scaling_curve(self):
        scheduler = ProcessScheduler(subtask_seconds=0.5, subtask_flops=1e12)
        points = strong_scaling(scheduler, num_subtasks=65536, node_counts=[64, 256, 1024])
        assert [p.num_nodes for p in points] == [64, 256, 1024]
        assert points[0].speedup == pytest.approx(1.0)
        # elapsed time strictly decreases, efficiency stays within (0, 1]
        times = [p.elapsed_seconds for p in points]
        assert times == sorted(times, reverse=True)
        for p in points:
            assert 0 < p.efficiency <= 1.0 + 1e-9
            assert p.sustained_flops > 0

    def test_strong_scaling_near_ideal_for_large_subtasks(self):
        scheduler = ProcessScheduler(subtask_seconds=5.0, subtask_flops=1e14)
        points = strong_scaling(scheduler, num_subtasks=65536, node_counts=[256, 512, 1024])
        assert all(p.efficiency > 0.95 for p in points)

    def test_weak_scaling_flat(self):
        scheduler = ProcessScheduler(subtask_seconds=2.0, subtask_flops=1e13)
        points = weak_scaling(scheduler, subtasks_per_node=16, node_counts=[64, 256, 1024])
        assert all(p.num_subtasks == 16 * p.num_nodes for p in points)
        assert all(p.efficiency > 0.9 for p in points)

    def test_empty_node_counts_rejected(self):
        scheduler = ProcessScheduler(subtask_seconds=1.0, subtask_flops=1.0)
        with pytest.raises(ValueError):
            strong_scaling(scheduler, node_counts=[])
        with pytest.raises(ValueError):
            weak_scaling(scheduler, node_counts=[])


class TestHeadlineProjection:
    def test_paper_arithmetic(self):
        # the paper: 10098.5 s on 1024 nodes -> 96.1 s on 107520 nodes
        projection = HeadlineProjection(
            measured_nodes=1024,
            measured_seconds=10098.5,
            projected_nodes=107_520,
            total_flops=308.6e15 * 96.1,
        )
        assert projection.projected_seconds == pytest.approx(96.17, abs=0.1)
        assert projection.projected_cores == 41_932_800
        assert projection.sustained_pflops == pytest.approx(308.6, rel=0.01)
        assert projection.speedup_over_gordon_bell() == pytest.approx(
            308.6 / GORDON_BELL_2021_PFLOPS, rel=0.01
        )
        assert 0 < projection.peak_fraction < 1

    def test_summary_keys(self):
        projection = HeadlineProjection(1024, 100.0, 2048, 1e18)
        summary = projection.summary()
        assert summary["projected_seconds"] == pytest.approx(50.0)
        assert {"sustained_pflops", "speedup_over_gb2021", "projected_cores"} <= set(summary)
