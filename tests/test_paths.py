"""Tests of the contraction-path optimizers (greedy, partition, community, DP, SA, hyper)."""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.circuits import amplitude, random_brickwork_circuit, sycamore_circuit
from repro.costs import AnalyticCostModel
from repro.execution import TreeExecutor
from repro.paths import optimizer as hyper
from repro.paths import (
    CommunityOptimizer,
    DynamicProgrammingOptimizer,
    GreedyOptimizer,
    HyperOptimizer,
    PartitionOptimizer,
    TreeAnnealer,
    anneal_tree,
    greedy_ssa_path,
    optimal_ssa_path,
)
from repro.tensornet import ContractionTree, amplitude_network, simplify_network


def _valid_tree(network, ssa_path):
    """Building the tree validates connectivity/consumption of the path."""
    return ContractionTree.from_network(network, ssa_path)


ALL_OPTIMIZERS = [
    GreedyOptimizer(seed=0),
    GreedyOptimizer(temperature=0.5, seed=1),
    PartitionOptimizer(seed=0),
    PartitionOptimizer(cutoff=4, seed=2),
    CommunityOptimizer(seed=0),
]


class TestPathValidity:
    @pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS, ids=lambda o: type(o).__name__)
    def test_paths_are_valid_on_grid_network(self, grid_network, optimizer):
        ssa = optimizer.ssa_path(grid_network)
        assert len(ssa) == grid_network.num_tensors - 1
        tree = _valid_tree(grid_network, ssa)
        assert tree.num_leaves == grid_network.num_tensors

    @pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS, ids=lambda o: type(o).__name__)
    def test_paths_are_valid_on_small_network(self, small_network, optimizer):
        tree = optimizer.tree(small_network)
        assert tree.num_leaves == small_network.num_tensors

    def test_greedy_single_tensor_network(self):
        circ = random_brickwork_circuit(2, 1, seed=0)
        tn = amplitude_network(circ, [0, 0])
        simplify_network(tn)
        if tn.num_tensors == 1:
            assert greedy_ssa_path(tn) == []

    def test_greedy_deterministic_at_zero_temperature(self, grid_network):
        a = GreedyOptimizer(seed=1).ssa_path(grid_network)
        b = GreedyOptimizer(seed=2).ssa_path(grid_network)
        assert a == b

    def test_greedy_temperature_changes_path(self, grid_network):
        a = GreedyOptimizer(temperature=1.0, seed=1).ssa_path(grid_network)
        b = GreedyOptimizer(temperature=1.0, seed=7).ssa_path(grid_network)
        # different noise realisations explore different trees (overwhelmingly likely)
        assert a != b


class TestPathQuality:
    def test_dp_is_optimal_among_methods(self, small_network):
        if small_network.num_tensors > 14:
            pytest.skip("network too large for DP")
        dp_tree = DynamicProgrammingOptimizer().tree(small_network)
        greedy_tree = GreedyOptimizer(seed=0).tree(small_network)
        assert dp_tree.contraction_cost() <= greedy_tree.contraction_cost() + 1e-6

    def test_dp_refuses_large_networks(self, grid_network):
        if grid_network.num_tensors <= 18:
            pytest.skip("grid network unexpectedly small")
        with pytest.raises(ValueError):
            DynamicProgrammingOptimizer().ssa_path(grid_network)

    def test_dp_size_objective(self, small_network):
        if small_network.num_tensors > 12:
            pytest.skip("network too large for DP")
        size_tree = DynamicProgrammingOptimizer(minimize="size").tree(small_network)
        flops_tree = DynamicProgrammingOptimizer(minimize="flops").tree(small_network)
        assert size_tree.max_rank() <= flops_tree.max_rank()

    def test_dp_invalid_objective(self):
        with pytest.raises(ValueError):
            DynamicProgrammingOptimizer(minimize="banana")

    def test_annealer_never_worse(self, grid_network):
        tree = GreedyOptimizer(temperature=1.0, seed=5).tree(grid_network)
        result = TreeAnnealer(seed=3).refine(tree)
        assert result.final_log10_cost <= result.initial_log10_cost + 1e-9
        assert result.tree.num_leaves == tree.num_leaves

    def test_annealer_respects_size_bound(self, grid_network):
        tree = GreedyOptimizer(seed=0).tree(grid_network)
        bound = tree.max_intermediate_log2_size()
        refined = anneal_tree(tree, seed=1, max_size_log2=bound)
        assert refined.max_intermediate_log2_size() <= bound + 1e-9

    def test_annealer_parameter_validation(self):
        with pytest.raises(ValueError):
            TreeAnnealer(cooling=1.5)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_annealer_running_cost_matches_a_recompute(self, grid_network, bounded):
        """The reported final cost is the running sum of deltas: it must not drift."""
        tree = GreedyOptimizer(temperature=1.0, seed=5).tree(grid_network)
        bound = tree.max_intermediate_log2_size() if bounded else None
        result = TreeAnnealer(seed=3).refine(tree, max_size_log2=bound)
        assert result.accepted_moves > 100
        assert result.initial_log10_cost == pytest.approx(tree.log10_total_cost(), rel=1e-12)
        assert result.final_log10_cost == pytest.approx(result.tree.log10_total_cost(), rel=1e-12)

    def test_annealer_emits_a_deep_stem_without_touching_the_recursion_limit(self, monkeypatch):
        """A 3000-leaf caterpillar is deeper than the interpreter's default limit."""
        n = 3000
        assert sys.getrecursionlimit() < n

        def forbidden(limit):
            raise AssertionError(f"sys.setrecursionlimit({limit}) is process-wide state")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        # a chain e1 .. e(n-1) contracted from one end: every step is on the stem
        leaves = [{f"e{i}", f"e{i + 1}"} for i in range(n)]
        leaves[0], leaves[-1] = {"e1"}, {f"e{n - 1}"}
        caterpillar = [(0, 1)] + [(n + k, k + 2) for k in range(n - 2)]
        tree = ContractionTree(leaves, {f"e{i}": 2 for i in range(1, n)}, caterpillar)
        result = TreeAnnealer(cooling=0.5, seed=0).refine(tree)
        assert result.accepted_moves > 0 and result.tree.num_leaves == n


class TestNumericalEquivalence:
    @pytest.mark.parametrize(
        "optimizer",
        [GreedyOptimizer(seed=0), PartitionOptimizer(seed=0), CommunityOptimizer(seed=0)],
        ids=lambda o: type(o).__name__,
    )
    def test_tree_execution_matches_statevector(self, optimizer):
        circ = random_brickwork_circuit(5, 3, seed=6)
        bits = [1, 0, 0, 1, 0]
        tn = amplitude_network(circ, bits)
        simplify_network(tn)
        tree = optimizer.tree(tn)
        value = TreeExecutor().amplitude(tn, tree)
        assert value == pytest.approx(amplitude(circ, bits), abs=1e-9)

    def test_annealed_tree_still_correct(self):
        circ = random_brickwork_circuit(5, 3, seed=7)
        bits = [0, 1, 1, 0, 1]
        tn = amplitude_network(circ, bits)
        simplify_network(tn)
        tree = anneal_tree(GreedyOptimizer(seed=0).tree(tn), seed=4)
        value = TreeExecutor().amplitude(tn, tree)
        assert value == pytest.approx(amplitude(circ, bits), abs=1e-9)


class TestHyperOptimizer:
    def test_search_returns_best_of_trials(self, grid_network):
        opt = HyperOptimizer(max_trials=6, seed=0)
        tree = opt.search(grid_network)
        assert opt.trials
        best = opt.best_record()
        assert best is not None
        assert tree.log10_total_cost() == pytest.approx(best.log10_flops, abs=1e-6)

    def test_memory_objective_respects_target_when_feasible(self, grid_network):
        unconstrained = HyperOptimizer(max_trials=6, minimize="flops", seed=0).search(
            grid_network
        )
        target = unconstrained.max_rank()
        constrained = HyperOptimizer(
            max_trials=6, minimize="combo", memory_target_rank=target, seed=0
        ).search(grid_network)
        assert constrained.max_rank() <= max(target, unconstrained.max_rank())

    def test_search_logs_every_trial_and_the_winner(self, grid_network, caplog):
        opt = HyperOptimizer(max_trials=5, seed=0)
        with caplog.at_level(logging.DEBUG, logger="repro.paths"):
            opt.search(grid_network)
        trials = [r for r in caplog.records if r.levelno == logging.DEBUG]
        winners = [r for r in caplog.records if r.levelno == logging.INFO]
        assert {r.name for r in caplog.records} == {"repro.paths"}
        assert len(trials) == len(opt.trials) == 5 and len(winners) == 1
        for log, trial in zip(trials, opt.trials):
            message = log.getMessage()
            for field in (f"method={trial.method} ", f"seed={trial.seed} ", "log10_flops=",
                          f"max_rank={trial.max_rank} ", "build_s=", "anneal_s="):
                assert field in message
        best = opt.best_record()
        assert f"method={best.method} seed={best.seed} " in winners[0].getMessage()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            HyperOptimizer(methods=("bogus",))
        with pytest.raises(ValueError):
            HyperOptimizer(minimize="bogus")
        with pytest.raises(ValueError, match="max_trials must be at least 1, got 0"):
            HyperOptimizer(max_trials=0)

    def test_trial_summary(self, grid_network):
        opt = HyperOptimizer(max_trials=4, seed=0)
        opt.search(grid_network)
        summary = opt.trial_summary()
        # keys follow ``methods``, never a set's hash order
        assert list(summary) == ["greedy", "partition", "community"]
        for stats in summary.values():
            assert stats["best_log10_flops"] <= stats["mean_log10_flops"] + 1e-9
        reordered = HyperOptimizer(methods=("community", "greedy"), max_trials=3, seed=0)
        reordered.search(grid_network)
        assert list(reordered.trial_summary()) == ["community", "greedy"]

    def test_fixed_seed_is_deterministic(self, grid_network):
        first = HyperOptimizer(max_trials=8, seed=42)
        first_tree = first.search(grid_network)
        second = HyperOptimizer(max_trials=8, seed=42)
        second_tree = second.search(grid_network)
        assert [
            (r.method, r.log10_flops, r.max_rank, r.seed) for r in first.trials
        ] == [(r.method, r.log10_flops, r.max_rank, r.seed) for r in second.trials]
        assert first_tree.log10_total_cost() == second_tree.log10_total_cost()
        assert first_tree.max_rank() == second_tree.max_rank()
        # a different seed explores different trials
        other = HyperOptimizer(max_trials=8, seed=43)
        other.search(grid_network)
        assert [r.seed for r in other.trials] != [r.seed for r in first.trials]

    @pytest.mark.parametrize("minimize", ["flops", "size", "combo"])
    def test_trial_summary_consistent_with_best_record(self, grid_network, minimize):
        opt = HyperOptimizer(
            max_trials=8, minimize=minimize, memory_target_rank=30, seed=7
        )
        opt.search(grid_network)
        best = opt.best_record()
        assert best is not None
        # the winner carries the minimal score over all recorded trials
        scores = [r.score(minimize, opt.memory_target_rank) for r in opt.trials]
        assert best.score(minimize, opt.memory_target_rank) == min(scores)
        # per-method summary agrees with the raw records, and the global
        # best flops is attained within the winning method's bucket
        summary = opt.trial_summary()
        for method, stats in summary.items():
            method_costs = [r.log10_flops for r in opt.trials if r.method == method]
            assert stats["trials"] == float(len(method_costs))
            assert stats["best_log10_flops"] == min(method_costs)
        assert summary[best.method]["best_log10_flops"] <= best.log10_flops + 1e-12


@pytest.fixture(scope="module")
def sycamore_network():
    """The abstract Sycamore-53, m=12 amplitude network the planning bench searches."""
    circuit = sycamore_circuit(cycles=12, seed=0)
    network = amplitude_network(circuit, [0] * circuit.num_qubits, concrete=False)
    simplify_network(network)
    return network


ROUND_TRIP_TREES = {
    "greedy": lambda tn: GreedyOptimizer(temperature=0.5, seed=1).tree(tn),
    "partition": lambda tn: PartitionOptimizer(seed=2).tree(tn),
    "community": lambda tn: CommunityOptimizer(seed=0).tree(tn),
    "annealed": lambda tn: TreeAnnealer(seed=3).refine(GreedyOptimizer(seed=0).tree(tn)).tree,
}


class TestSsaRoundTrip:
    """A tree rebuilt from its SSA path is the same tree, so a path is all a trial sends back."""

    @staticmethod
    def _assert_round_trip(network, tree):
        rebuilt = ContractionTree.from_network(network, tree.ssa_path)
        assert rebuilt.root == tree.root
        assert rebuilt.leaf_tids == tree.leaf_tids
        assert rebuilt.nodes() == tree.nodes()
        for node in tree.nodes():
            assert rebuilt.children(node) == tree.children(node)
            assert rebuilt.node_indices(node) == tree.node_indices(node)
        assert rebuilt.total_cost() == tree.total_cost()
        assert rebuilt.max_rank() == tree.max_rank()

    @pytest.mark.parametrize("network_name", ["grid_network", "sycamore_network"])
    @pytest.mark.parametrize("method", sorted(ROUND_TRIP_TREES))
    def test_optimiser_trees_rebuild_from_their_ssa_path(self, request, network_name, method):
        network = request.getfixturevalue(network_name)
        self._assert_round_trip(network, ROUND_TRIP_TREES[method](network))

    def test_a_dp_tree_rebuilds_from_its_ssa_path(self, small_network):
        assert small_network.num_tensors <= 16
        self._assert_round_trip(small_network, DynamicProgrammingOptimizer().tree(small_network))


@pytest.fixture
def pool_spy(monkeypatch):
    """The ``max_workers`` of every trial pool a search builds (the real pool still runs)."""
    built = []
    real = hyper.ProcessPoolExecutor

    def spy(*args, **kwargs):
        built.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(hyper, "ProcessPoolExecutor", spy)
    return built


@pytest.fixture
def pooled(monkeypatch, pool_spy):
    """Searches fork whenever they may: any first trial pays, two CPUs usable."""
    monkeypatch.setattr(hyper, "_FORK_SECONDS", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pool_spy


def _inline(monkeypatch, search):
    """``search()`` with the pool priced out, so every trial runs inline."""
    with monkeypatch.context() as patch:
        patch.setattr(hyper, "_FORK_SECONDS", float("inf"))
        return search()


def _searched(network, **kwargs):
    optimizer = HyperOptimizer(**kwargs)
    return optimizer, optimizer.search(network)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the trial pool forks"
)
class TestParallelTrials:
    """Trials on the fork pool give what the same trials give inline, and leave nothing behind."""

    @pytest.fixture(autouse=True)
    def nothing_outlives_a_search(self):
        threads = threading.active_count()
        yield
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("modelled", [False, True], ids=["flops", "cost_model"])
    @pytest.mark.parametrize(
        "network_name, trials", [("grid_network", 6), ("sycamore_network", 4)]
    )
    def test_pooled_trials_equal_inline_trials(
        self, request, monkeypatch, pooled, network_name, trials, modelled
    ):
        network = request.getfixturevalue(network_name)
        kwargs = dict(max_trials=trials, minimize="combo", memory_target_rank=30, seed=5)
        if modelled:
            kwargs["cost_model"] = AnalyticCostModel()
        inline, inline_tree = _inline(monkeypatch, lambda: _searched(network, **kwargs))
        assert pooled == []
        parallel, parallel_tree = _searched(network, **kwargs)
        assert pooled == [2]
        assert parallel_tree.ssa_path == inline_tree.ssa_path
        assert parallel.trials == inline.trials
        assert all((r.cost is not None) == modelled for r in parallel.trials)

    @pytest.mark.parametrize(
        "rule", ["one_cpu", "live_thread", "cheap_first_trial", "one_trial_left"]
    )
    def test_each_inline_rule_keeps_the_pool_unused(self, grid_network, monkeypatch, rule):
        def refuse(*args, **kwargs):
            raise AssertionError("the trial pool was constructed")

        monkeypatch.setattr(hyper, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(
            hyper, "_FORK_SECONDS", float("inf") if rule == "cheap_first_trial" else 0.0
        )
        cpus = {0} if rule == "one_cpu" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        trials = 2 if rule == "one_trial_left" else 5
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        if rule == "live_thread":
            other.start()
        try:
            optimizer, _ = _searched(grid_network, max_trials=trials, seed=0)
        finally:
            release.set()
            if rule == "live_thread":
                other.join(timeout=10)
                assert not other.is_alive()
        assert len(optimizer.trials) == trials

    def test_a_killed_worker_costs_one_warning_and_not_the_tree(
        self, grid_network, monkeypatch, caplog, pooled
    ):
        _, expected = _inline(monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0))
        parent, build = os.getpid(), hyper._build

        def build_then_die(network, trial):
            tree = build(network, trial)
            if os.getpid() != parent:  # a pool worker dies mid-trial; the parent never does
                os._exit(1)
            return tree

        monkeypatch.setattr(hyper, "_build", build_then_die)
        with caplog.at_level(logging.DEBUG, logger="repro.paths"):
            optimizer, tree = _searched(grid_network, max_trials=5, seed=0)
        assert pooled == [2]
        assert tree.ssa_path == expected.ssa_path
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "running the rest inline" in warnings[0].getMessage()
        trials = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(trials) == len(optimizer.trials) == 5
        assert all(message.endswith("worker=inline") for message in trials)

    def test_a_trial_error_means_no_tree_on_the_pool_too(self, grid_network, monkeypatch, pooled):
        def refuse(**params):
            raise ValueError("no partition here")

        monkeypatch.setitem(hyper._SEEDED, "partition", refuse)
        inline, inline_tree = _inline(
            monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0)
        )
        parallel, parallel_tree = _searched(grid_network, max_trials=5, seed=0)
        assert pooled == [2]
        assert [r.method for r in parallel.trials] == ["greedy", "community", "greedy"]
        assert parallel.trials == inline.trials
        assert parallel_tree.ssa_path == inline_tree.ssa_path

    def test_any_other_trial_exception_is_raised_as_inline(
        self, grid_network, monkeypatch, pooled
    ):
        def explode(**params):
            raise LookupError("partition exploded")

        monkeypatch.setitem(hyper._SEEDED, "partition", explode)
        with pytest.raises(LookupError, match="partition exploded"):
            _inline(monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0))
        with pytest.raises(LookupError, match="partition exploded"):
            _searched(grid_network, max_trials=5, seed=0)
        assert pooled == [2]

    def test_the_logging_contract_holds_on_a_pooled_search(self, grid_network, caplog, pooled):
        TestHyperOptimizer().test_search_logs_every_trial_and_the_winner(grid_network, caplog)
        assert pooled == [2]
        workers = [
            r.getMessage().rsplit("worker=", 1)[1]
            for r in caplog.records
            if r.levelno == logging.DEBUG
        ]
        assert workers[0] == "inline"
        assert all(w.isdigit() and int(w) != os.getpid() for w in workers[1:])
