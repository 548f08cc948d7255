"""Tests of the contraction-path optimizers (greedy, partition, community, DP, SA, hyper)."""

from __future__ import annotations

import gc
import itertools
import logging
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_paths_golden import NETWORKS as GOLDEN_NETWORKS
from test_paths_golden import _network as _golden_network

from repro import forking
from repro.circuits import amplitude, random_brickwork_circuit, sycamore_circuit
from repro.costs import AnalyticCostModel
from repro.execution import contract_tree
from repro.paths import optimizer as hyper
from repro.paths import partition
from repro.paths.draws import DrawStream
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
from repro.tensornet import (
    ContractionTree,
    Tensor,
    TensorNetwork,
    amplitude_network,
    simplify_network,
)


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

    @pytest.mark.parametrize("final", [0.0, -1.0, float("nan")])
    def test_an_annealing_schedule_that_never_ends_is_refused(self, final):
        """The temperature decays towards 0: a bound at or below it would loop forever."""
        with pytest.raises(ValueError, match="final_temperature"):
            TreeAnnealer(final_temperature=final)

    @pytest.mark.parametrize("moves", [0, -3])
    def test_a_sweep_without_moves_is_refused_not_defaulted(self, moves):
        with pytest.raises(ValueError, match="moves_per_sweep"):
            TreeAnnealer(moves_per_sweep=moves)

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
        value = complex(contract_tree(tn, tree).require_data())
        assert value == pytest.approx(amplitude(circ, bits), abs=1e-9)

    def test_annealed_tree_still_correct(self):
        circ = random_brickwork_circuit(5, 3, seed=7)
        bits = [0, 1, 1, 0, 1]
        tn = amplitude_network(circ, bits)
        simplify_network(tn)
        tree = anneal_tree(GreedyOptimizer(seed=0).tree(tn), seed=4)
        value = complex(contract_tree(tn, tree).require_data())
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
        trials = [r for r in caplog.records if re.match(r"trial \d+: ", r.getMessage())]
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

    def test_no_methods_is_refused_at_construction(self):
        """Not later, as a ZeroDivisionError from ``search``'s round robin."""
        with pytest.raises(ValueError, match="at least one method"):
            HyperOptimizer(methods=())

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


def _assert_trials_score_as_their_trees(network, **kwargs):
    """Every trial's ``(log10_flops, max_rank)`` is bitwise its tree's own."""
    optimizer = HyperOptimizer(max_trials=8, seed=0, **kwargs)
    outcomes = optimizer._run_trials(network, optimizer._draw_trials())
    scored = [outcome for outcome in outcomes if outcome.record is not None]
    assert scored
    for outcome in scored:
        tree = ContractionTree.from_network(network, outcome.ssa_path)
        record = outcome.record
        assert (record.log10_flops.hex(), record.max_rank) == (
            tree.log10_total_cost().hex(),
            tree.max_rank(),
        )


@st.composite
def _qubit_networks(draw):
    """Size-2 indices on 2-10 tensors: pair and hyper-indices, dangling legs
    open and closed, lone tensors and disconnected parts."""
    num_tensors = draw(st.integers(2, 10))
    legs = [[] for _ in range(num_tensors)]
    open_indices = []
    for k in range(draw(st.integers(1, 16))):
        owners = draw(st.lists(st.integers(0, num_tensors - 1), unique=True, min_size=1, max_size=4))
        for tensor in owners:
            legs[tensor].append(f"i{k}")
        if draw(st.sampled_from([False, False, True])):
            open_indices.append(f"i{k}")
    network = TensorNetwork(Tensor(ixs, sizes=dict.fromkeys(ixs, 2)) for ixs in legs)
    network.set_output_indices(open_indices)
    return network


class TestTrialRecordOracle:
    """A trial is scored on its masks; the score is the one its tree gives."""

    @pytest.fixture(scope="class", params=sorted(GOLDEN_NETWORKS))
    def golden_network(self, request):
        return _golden_network(request.param)

    @pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
    def test_every_trial_on_a_golden_network_scores_as_its_tree(self, golden_network, refine):
        _assert_trials_score_as_their_trees(golden_network, minimize="combo", refine=refine)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(network=_qubit_networks(), refine=st.booleans())
    def test_every_trial_on_a_hostile_qubit_network_scores_as_its_tree(self, network, refine):
        methods = ("greedy", "partition", "community", "dp")
        _assert_trials_score_as_their_trees(network, methods=methods, refine=refine)


#: a 20-tensor network whose index sizes are 2, 3, 5 and 7
_MIXED_SIZE_SEARCH = """
import numpy as np
from repro.paths import HyperOptimizer
from repro.tensornet import Tensor, TensorNetwork

rng = np.random.default_rng(0)
legs, sizes = [[] for _ in range(20)], {}
owners = [[a, int(rng.integers(a))] for a in range(1, 20)]
owners += [rng.choice(20, size=2, replace=False).tolist() for _ in range(40)]
for k, pair in enumerate(owners):
    sizes[f"e{k}"] = int(rng.choice([2, 3, 5, 7]))
    for tensor in pair:
        legs[tensor].append(f"e{k}")
optimizer = HyperOptimizer(max_trials=8, seed=0)
tree = optimizer.search(TensorNetwork(Tensor(ixs, sizes=sizes) for ixs in legs))
for r in optimizer.trials:
    print(r.method, r.seed, r.log10_flops.hex(), r.max_rank)
print(tree.ssa_path)
"""


class TestTrialRankingIgnoresStringHashes:
    def test_a_mixed_size_search_is_the_same_under_two_hash_seeds(self):
        """The trials are scored in ascending bit order: a tree's string-set
        sums once ranked them by ``PYTHONHASHSEED``."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        runs = [
            subprocess.run(
                [sys.executable, "-c", _MIXED_SIZE_SEARCH],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert len(runs[0].splitlines()) == 9
        assert runs[0] == runs[1]


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
def twin_spy(monkeypatch):
    """The pid of every trial twin a search forks (the real twin still runs)."""
    forked = []
    real = hyper.Twin

    def spy(serve):
        twin = real(serve)
        forked.append(twin.pid)
        return twin

    monkeypatch.setattr(hyper, "Twin", spy)
    return forked


@pytest.fixture
def twinned(monkeypatch, twin_spy):
    """Searches fork whenever they may: any first trial pays, two CPUs usable."""
    monkeypatch.setattr(forking, "_FORK_SECONDS", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return twin_spy


def _inline(monkeypatch, search):
    """``search()`` with a fork priced out, so every trial runs inline."""
    with monkeypatch.context() as patch:
        patch.setattr(forking, "_FORK_SECONDS", float("inf"))
        return search()


def _searched(network, **kwargs):
    optimizer = HyperOptimizer(**kwargs)
    return optimizer, optimizer.search(network)


def _die_in_the_twin(monkeypatch, die):
    """Make a trial twin ``die()`` once it has built its first tree."""
    parent, build = os.getpid(), hyper._build

    def build_then_die(network, trial):
        tree = build(network, trial)
        if os.getpid() != parent:
            die()
        return tree

    monkeypatch.setattr(hyper, "_build", build_then_die)


def _trial_lines(caplog):
    return [r.getMessage() for r in caplog.records if re.match(r"trial \d+: ", r.getMessage())]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/proc/self/fd"),
    reason="the trials fork; the audit reads /proc",
)
class TestParallelTrials:
    """Trials split with a forked twin give what the same trials give inline,
    and leave nothing behind."""

    @pytest.fixture(autouse=True)
    def nothing_outlives_a_search(self):
        threads, fds = threading.active_count(), set(os.listdir("/proc/self/fd"))
        ends = set(forking._PARENT_ENDS)
        yield
        with pytest.raises(ChildProcessError):  # no child, not even a zombie
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir("/proc/self/fd")) <= fds
        assert threading.active_count() == threads
        assert forking._PARENT_ENDS <= ends
        assert gc.isenabled()  # (the parent's share pauses the collector)

    @pytest.mark.parametrize("modelled", [False, True], ids=["flops", "cost_model"])
    @pytest.mark.parametrize(
        "network_name, trials", [("grid_network", 6), ("sycamore_network", 4)]
    )
    def test_pooled_trials_equal_inline_trials(
        self, request, monkeypatch, twinned, network_name, trials, modelled
    ):
        network = request.getfixturevalue(network_name)
        kwargs = dict(max_trials=trials, minimize="combo", memory_target_rank=30, seed=5)
        if modelled:
            kwargs["cost_model"] = AnalyticCostModel()
        inline, inline_tree = _inline(monkeypatch, lambda: _searched(network, **kwargs))
        assert twinned == []
        parallel, parallel_tree = _searched(network, **kwargs)
        assert len(twinned) == 1
        assert parallel_tree.ssa_path == inline_tree.ssa_path
        assert parallel.trials == inline.trials
        assert all((r.cost is not None) == modelled for r in parallel.trials)

    @pytest.mark.parametrize(
        "rule", ["one_cpu", "live_thread", "cheap_first_trial", "one_trial_left"]
    )
    def test_each_inline_rule_keeps_the_pool_unused(self, grid_network, monkeypatch, rule):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial twin was forked")

        monkeypatch.setattr(hyper, "Twin", refuse)
        monkeypatch.setattr(
            forking, "_FORK_SECONDS", float("inf") if rule == "cheap_first_trial" else 0.0
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

    @pytest.mark.faults
    def test_a_killed_worker_costs_one_warning_and_not_the_tree(
        self, grid_network, monkeypatch, caplog, twinned
    ):
        _, expected = _inline(monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0))
        _die_in_the_twin(monkeypatch, lambda: os._exit(1))
        with caplog.at_level(logging.DEBUG, logger="repro.paths"):
            optimizer, tree = _searched(grid_network, max_trials=5, seed=0)
        assert len(twinned) == 1
        assert tree.ssa_path == expected.ssa_path
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].getMessage().startswith("trial twin lost (EOFError(")
        assert warnings[0].getMessage().endswith("; running its 2 trials inline")
        trials = _trial_lines(caplog)
        assert len(trials) == len(optimizer.trials) == 5
        assert all(message.endswith("worker=inline") for message in trials)

    @pytest.mark.faults
    def test_a_sigkilled_twin_leaves_no_child_and_no_descriptor(
        self, grid_network, monkeypatch, twinned
    ):
        _, expected = _inline(monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0))
        _die_in_the_twin(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        fds = set(os.listdir("/proc/self/fd"))
        _, tree = _searched(grid_network, max_trials=5, seed=0)
        assert len(twinned) == 1 and tree.ssa_path == expected.ssa_path
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir("/proc/self/fd")) == fds

    def test_a_failed_fork_costs_one_warning_and_not_the_tree(
        self, grid_network, monkeypatch, caplog, twinned
    ):
        _, expected = _inline(monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0))

        def refuse(serve):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(hyper, "Twin", refuse)
        with caplog.at_level(logging.WARNING, logger="repro.paths"):
            _, tree = _searched(grid_network, max_trials=5, seed=0)
        assert tree.ssa_path == expected.ssa_path
        (warning,) = [r.getMessage() for r in caplog.records]
        assert warning.startswith("trial twin lost (BlockingIOError(")
        assert warning.endswith("; running its 2 trials inline")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_is_paused_for_the_parents_share_only(
        self, grid_network, monkeypatch, twinned, enabled
    ):
        states, run_share = [], hyper._run_share

        def spy(*args, **kwargs):
            states.append(gc.isenabled())
            return run_share(*args, **kwargs)

        monkeypatch.setattr(hyper, "_run_share", spy)
        if not enabled:
            gc.disable()
        try:
            _searched(grid_network, max_trials=5, seed=0)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert states == [False]  # (the twin's share runs in the twin)

    def test_a_trial_error_means_no_tree_on_the_pool_too(self, grid_network, monkeypatch, twinned):
        def refuse(**params):
            raise ValueError("no partition here")

        monkeypatch.setitem(hyper._SEEDED, "partition", refuse)
        inline, inline_tree = _inline(
            monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0)
        )
        parallel, parallel_tree = _searched(grid_network, max_trials=5, seed=0)
        assert len(twinned) == 1
        assert [r.method for r in parallel.trials] == ["greedy", "community", "greedy"]
        assert parallel.trials == inline.trials
        assert parallel_tree.ssa_path == inline_tree.ssa_path

    def test_any_other_trial_exception_is_raised_as_inline(
        self, grid_network, monkeypatch, caplog, twinned
    ):
        def explode(**params):
            raise LookupError("partition exploded")

        monkeypatch.setitem(hyper._SEEDED, "partition", explode)
        with pytest.raises(LookupError, match="partition exploded"):
            _inline(monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0))
        with caplog.at_level(logging.WARNING):
            with pytest.raises(LookupError, match="partition exploded"):
                _searched(grid_network, max_trials=5, seed=0)
        assert len(twinned) == 1
        assert caplog.records == []

    @pytest.mark.parametrize("failing", [(1, 4), (2, 3)], ids=["parent_first", "twin_first"])
    def test_the_first_trial_to_raise_in_trial_order_is_raised(
        self, grid_network, monkeypatch, twinned, failing
    ):
        """Of 5 trials the parent runs 1 and 3, the twin 2 and 4: the error
        raised is inline's, whichever process met it first."""
        seeds = [trial.seed for trial in HyperOptimizer(max_trials=5, seed=0)._draw_trials()]
        build = hyper._build

        def explode(network, trial):
            if trial.seed in [seeds[index] for index in failing]:
                raise LookupError(f"trial {seeds.index(trial.seed)} exploded")
            return build(network, trial)

        monkeypatch.setattr(hyper, "_build", explode)
        expected = f"trial {failing[0]} exploded"
        with pytest.raises(LookupError, match=expected):
            _inline(monkeypatch, lambda: _searched(grid_network, max_trials=5, seed=0))
        with pytest.raises(LookupError, match=expected):
            _searched(grid_network, max_trials=5, seed=0)
        assert len(twinned) == 1

    def test_the_logging_contract_holds_on_a_pooled_search(self, grid_network, caplog, twinned):
        TestHyperOptimizer().test_search_logs_every_trial_and_the_winner(grid_network, caplog)
        (pid,) = twinned
        (fork,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("forked ")]
        assert re.fullmatch(r"forked 1 trial children in \d+\.\d\d ms", fork)
        workers = [line.rsplit("worker=", 1)[1] for line in _trial_lines(caplog)]
        assert workers == ["inline", "inline", str(pid), "inline", str(pid)]


# ----------------------------------------------------------------------
# Oracles from outside the repo: numpy's Generator, networkx's bisection
# ----------------------------------------------------------------------
ORACLE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: small ranges, ranges just above 2**31 where Lemire's rejection fires on
#: about half the draws, and ranges up to the 32-bit edge itself
_RANGES = st.one_of(
    st.integers(1, 300),
    st.integers(2**31 - 40, 2**31 + 40),
    st.integers(2**32 - 40, 2**32),
    st.sampled_from([1, 2**31 - 1, 3 * 2**30 + 1, 2**32]),
)
_DRAW = st.one_of(
    st.tuples(st.just("integers"), _RANGES),
    st.tuples(st.just("random")),
    st.builds(
        lambda lo, width: ("uniform", lo, lo + width),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.floats(0.0, 1e3, allow_nan=False),
    ),
)


class TestDrawStream:
    """A stream serves what numpy's scalar calls return and leaves the generator where they do."""

    @ORACLE_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        warm=st.integers(0, 3),
        script=st.lists(_DRAW, max_size=700),  # past two refills
    )
    def test_a_stream_is_the_generator_draw_for_draw(self, seed, warm, script):
        numpy_rng, streamed = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (numpy_rng, streamed):
            for _ in range(warm):  # an odd count leaves half a raw value in the 32-bit buffer
                rng.integers(1000)
        with DrawStream(streamed) as draws:
            got = [getattr(draws, name)(*args) for name, *args in script]
        assert got == [getattr(numpy_rng, name)(*args) for name, *args in script]
        assert all(type(x) in (int, float) for x in got)
        assert streamed.bit_generator.state == numpy_rng.bit_generator.state
        for name, *args in [("integers", 2**31 + 1), ("random",), ("integers", 7), ("random",)]:
            assert getattr(streamed, name)(*args) == getattr(numpy_rng, name)(*args)

    def test_a_one_value_range_draws_nothing(self):
        rng = np.random.default_rng(3)
        rng.integers(10)  # half a raw value buffered: a draw would take it
        before = rng.bit_generator.state
        with DrawStream(rng) as draws:
            assert [draws.integers(1) for _ in range(5)] == [0] * 5
        assert rng.bit_generator.state == before

    def test_a_stream_may_draw_on_after_closing(self):
        numpy_rng, streamed = np.random.default_rng(11), np.random.default_rng(11)
        draws = DrawStream(streamed)
        first = [draws.integers(226) for _ in range(300)]
        draws.close()
        second = [draws.random() for _ in range(300)]
        draws.close()
        assert first == [numpy_rng.integers(226) for _ in range(300)]
        assert second == [numpy_rng.random() for _ in range(300)]
        assert streamed.bit_generator.state == numpy_rng.bit_generator.state

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_a_range_it_does_not_draw_like_numpy_is_refused(self, n):
        with pytest.raises(ValueError, match="needs 1 <= n <= 2"):
            DrawStream(np.random.default_rng(0)).integers(n)


def _networkx_tensor_graph(network: TensorNetwork) -> nx.Graph:
    """The tensor graph as ``repro.paths.partition`` built it on networkx, edge by edge."""
    g = nx.Graph()
    g.add_nodes_from(network.tensor_ids)
    for ix in network.indices:
        owners = sorted(network.index_owners(ix))
        w = math.log2(network.size_of(ix))
        for i, a in enumerate(owners):
            for b in owners[i + 1 :]:
                if g.has_edge(a, b):
                    g[a][b]["weight"] += w
                else:
                    g.add_edge(a, b, weight=w)
    return g


def _ordered(adjacency) -> list:
    """Nodes, neighbours and weights of a graph, in iteration order."""
    return [
        (u, [(v, w if isinstance(w, float) else w["weight"]) for v, w in nbrs.items()])
        for u, nbrs in adjacency.items()
    ]


@st.composite
def _weighted_graphs(draw):
    """Sparse int labels in a drawn order, tied and untied weights, isolated nodes."""
    labels = draw(st.lists(st.integers(0, 400), unique=True, max_size=28))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels)) if labels else st.nothing()
    edges = {}
    weights = st.sampled_from([1.0, 1.0, 1.0, 2.0, 0.5, math.log2(3)])
    for a, b in draw(st.lists(pairs, max_size=3 * len(labels))):
        if a != b:
            edges[a, b] = edges.get((a, b), 0.0) + draw(weights)
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    graph.add_weighted_edges_from((a, b, w) for (a, b), w in edges.items())
    return labels, edges, graph


#: ``import repro``, then an 8-trial search with community trials, its
#: trials twinned or inline, while any import of networkx raises, in a twin too
_SEARCH_WITHOUT_NETWORKX = """
import os, sys
import repro, repro.paths, repro.pipeline
from repro import forking
from repro.circuits import grid_circuit
from repro.paths import HyperOptimizer
from repro.paths import optimizer as hyper
from repro.tensornet import amplitude_network, simplify_network

loaded = "networkx" in sys.modules

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            raise ImportError(f"networkx imported in {os.getpid()}")

sys.meta_path.insert(0, Refuse())
twins, real = [], hyper.Twin
hyper.Twin = lambda serve: twins.append(real(serve)) or twins[-1]
forking._FORK_SECONDS = float(sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
circuit = grid_circuit(3, 4, cycles=6, seed=0)
network = amplitude_network(circuit, [0] * circuit.num_qubits, concrete=False)
simplify_network(network)
optimizer = HyperOptimizer(max_trials=8, seed=0)
optimizer.search(network)
print(loaded, "networkx" in sys.modules, len(twins), [r.method for r in optimizer.trials].count("community"))
"""


class TestKernighanLinOracle:
    """The dict bisection is networkx's, subgraph order and tie-breaks included."""

    @ORACLE_SETTINGS
    @given(
        graph=_weighted_graphs(),
        data=st.data(),
        seed=st.integers(0, 2**31 - 2),
        max_iter=st.integers(0, 12),
    )
    def test_the_dict_bisection_is_networkx_s(self, graph, data, seed, max_iter):
        labels, edges, nx_graph = graph
        adjacency = partition._adjacency(labels, edges)
        assert _ordered(adjacency) == _ordered(nx_graph._adj)
        if not labels:
            return
        # groups under and over half the graph: networkx orders the two differently
        group = data.draw(st.lists(st.sampled_from(labels), unique=True, min_size=1))
        sub, nx_sub = partition._induced(adjacency, group), nx_graph.subgraph(group).copy()
        assert _ordered(sub) == _ordered(nx_sub._adj)
        if len(sub) >= 2:
            assert partition._kernighan_lin_bisection(
                sub, max_iter, seed
            ) == nx.algorithms.community.kernighan_lin_bisection(
                nx_sub, max_iter=max_iter, weight="weight", seed=seed
            )

    @pytest.mark.parametrize(
        "group", [[300, 17, 64, 8], [64, 300, 17, 2, 99, 8]], ids=["under_half", "over_half"]
    )
    def test_a_subgraph_is_ordered_as_networkx_orders_it(self, group):
        """Under half the graph the nodes come in ``set(group)`` order, else in the graph's."""
        labels = [5, 300, 17, 64, 2, 99, 130, 8, 41, 77]
        edges = {(5, 300): 1.0, (300, 17): 2.0, (17, 64): 1.0, (64, 2): 1.0, (2, 99): 0.5,
                 (300, 64): 1.0, (8, 17): 1.0, (99, 8): 1.0, (64, 8): 2.0, (41, 77): 1.0}
        graph = nx.Graph()
        graph.add_nodes_from(labels)
        graph.add_weighted_edges_from((a, b, w) for (a, b), w in edges.items())
        sub = partition._induced(partition._adjacency(labels, edges), group)
        assert _ordered(sub) == _ordered(graph.subgraph(group).copy()._adj)
        # the two orders differ here, so each case pins its own rule
        assert [n for n in labels if n in group] != [n for n in set(group)]

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_the_tensor_graph_is_the_one_networkx_built(self, data):
        """Hyper-indices, dangling legs, parallel and zero-weight edges, lone tensors."""
        num_tensors = data.draw(st.integers(1, 9))
        legs = [[] for _ in range(num_tensors)]
        sizes = {}
        for k in range(data.draw(st.integers(0, 14))):
            ix = f"i{k}"
            sizes[ix] = data.draw(st.sampled_from([1, 2, 2, 3, 4]))
            owners = data.draw(
                st.lists(st.integers(0, num_tensors - 1), unique=True, min_size=1, max_size=4)
            )
            for tensor in owners:
                legs[tensor].append(ix)
        network = TensorNetwork(Tensor(ixs, sizes=sizes) for ixs in legs)
        adjacency = partition._adjacency(network.tensor_ids, partition._tensor_edges(network))
        assert _ordered(adjacency) == _ordered(_networkx_tensor_graph(network)._adj)

    @pytest.mark.parametrize("edgeless", [False, True], ids=["three_nodes", "edgeless"])
    def test_the_even_split_fallbacks_draw_nothing(self, sycamore_network, edgeless):
        adjacency = partition._adjacency(
            sycamore_network.tensor_ids, partition._tensor_edges(sycamore_network)
        )
        tids = sycamore_network.tensor_ids
        group = [tids[5], tids[90], tids[17]]
        if edgeless:  # six tensors no two of which share an index
            group = []
            for tid in tids:
                if len(group) < 6 and not set(adjacency[tid]) & set(group):
                    group.append(tid)
        sub = partition._induced(adjacency, group)
        assert len(sub) == len(group)
        assert not any(sub.values()) and len(sub) >= 4 if edgeless else len(sub) < 4
        expected = list(_networkx_tensor_graph(sycamore_network).subgraph(group).copy())
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with DrawStream(rng) as draws:
            halves = PartitionOptimizer(seed=0)._bisect(sub, draws)
        half = len(expected) // 2
        assert halves == (set(expected[:half]), set(expected[half:]))
        assert rng.bit_generator.state == before

    def test_importing_repro_leaves_networkx_unloaded(self):
        """Only two graph views of ``TensorNetwork`` import it, when they run:
        not ``import repro``, nor a search's community trials, inline or twinned."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        for fork_seconds, twins in (("0", 1), ("inf", 0)):
            out = subprocess.run(
                [sys.executable, "-c", _SEARCH_WITHOUT_NETWORKX, fork_seconds],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            assert out.stdout.split() == ["False", "False", str(twins), "2"]


class TestGreedyModularityOracle:
    """The dict greedy modularity is networkx's: same communities, same order."""

    @staticmethod
    def _both(labels, edges, graph, resolution):
        ours = partition._greedy_modularity_communities(
            partition._adjacency(labels, edges), resolution
        )
        theirs = nx.algorithms.community.greedy_modularity_communities(
            graph, weight="weight", resolution=resolution
        )
        return ours, theirs

    @ORACLE_SETTINGS
    @given(graph=_weighted_graphs(), resolution=st.floats(0.6, 1.6))
    def test_random_weighted_graphs(self, graph, resolution):
        """Tied weights, isolated nodes, several components, the edgeless and empty graphs."""
        ours, theirs = self._both(*graph, resolution)
        assert ours == theirs

    @pytest.mark.parametrize("resolution", [0.6, 1.0, 1.6])
    def test_equal_weights_tie_everywhere(self, resolution):
        """A torus and two cliques beside isolated nodes, every weight 1: one long run of ties."""
        labels = list(range(40))
        edges = {}
        for k in range(25):
            row, col = divmod(k, 5)
            edges[k, 5 * row + (col + 1) % 5] = 1.0
            edges[k, 5 * ((row + 1) % 5) + col] = 1.0
        for clique in (range(25, 31), range(31, 37)):
            edges.update(dict.fromkeys(itertools.combinations(clique, 2), 1.0))
        graph = nx.Graph()
        graph.add_nodes_from(labels)
        graph.add_weighted_edges_from((a, b, w) for (a, b), w in edges.items())
        ours, theirs = self._both(labels, edges, graph, resolution)
        assert ours == theirs and len(ours) > 3

    def test_zero_weight_edges_divide_by_zero_as_networkx_does(self):
        graph = nx.Graph()
        graph.add_weighted_edges_from([(0, 1, 0.0), (1, 2, 0.0)])
        with pytest.raises(ZeroDivisionError):
            partition._greedy_modularity_communities(
                partition._adjacency([0, 1, 2], {(0, 1): 0.0, (1, 2): 0.0}), 1.0
            )
        with pytest.raises(ZeroDivisionError):
            nx.algorithms.community.greedy_modularity_communities(graph, weight="weight")

    @pytest.mark.parametrize("resolution", [0.6, 1.0, 1.2345, 1.6])
    def test_the_sycamore_tensor_graph(self, sycamore_network, resolution):
        ours = partition._greedy_modularity_communities(
            partition._tensor_graph(sycamore_network), resolution
        )
        theirs = nx.algorithms.community.greedy_modularity_communities(
            _networkx_tensor_graph(sycamore_network), weight="weight", resolution=resolution
        )
        assert ours == theirs and len(ours) > 1
