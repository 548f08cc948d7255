"""The one place the benchmark touches ``repro``.

Every ``repro`` symbol the benchmark calls is imported here, and every
constructor whose keyword names the benchmark depends on is wrapped in a
small factory below, so a later PR that renames a keyword or replaces a
constructor (ROADMAP: one ``ExecutionConfig``, one scheduler) repairs the
instrument by editing this file only.

Deliberately absent: the deprecated entry points (``batch_index=``,
``max_workers=`` on executors, ``configure_faults``) and every private
attribute (``_ensure_plan``, ``_run_*``, ``_cache``) — ROADMAP plans to
remove them, and the benchmark must survive that.
"""

from __future__ import annotations

from repro.circuits import StateVectorSimulator, grid_circuit, sycamore_circuit
from repro.core import (
    GreedySliceBaseline,
    LifetimeSliceFinder,
    SecondarySlicer,
    SimulatedAnnealingSliceRefiner,
    SlicingCostModel,
    extract_stem,
)
from repro.costs import AnalyticCostModel
from repro.execution import (
    CheckpointStore,
    CorrelatedSampler,
    DistributedBackend,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedCoordinatorDeath,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadLevelSimulator,
    ThreadPoolBackend,
    contract_tree,
    linear_xeb_fidelity,
)
from repro.paths import GreedyOptimizer, HyperOptimizer, PartitionOptimizer, TreeAnnealer
from repro.pipeline import SimulationPlanner
from repro.tensornet import circuit_to_tensor_network, simplify_network

__all__ = [
    "AnalyticCostModel",
    "GreedyOptimizer",
    "GreedySliceBaseline",
    "InjectedCoordinatorDeath",
    "LifetimeSliceFinder",
    "PartitionOptimizer",
    "SecondarySlicer",
    "SlicingCostModel",
    "ThreadLevelSimulator",
    "TreeAnnealer",
    "contract_tree",
    "extract_stem",
    "grid_circuit",
    "linear_xeb_fidelity",
    "simplify_network",
    "sycamore_circuit",
    "backend",
    "checkpoint_policy",
    "checkpoint_store",
    "dense_state",
    "hyper_optimizer",
    "kill_coordinator_at",
    "network_of",
    "planner",
    "randomised_tree",
    "sampler",
    "slice_refiner",
    "sliced_executor",
]


def network_of(circuit, bitstring, concrete):
    """The (unsimplified) amplitude network of ``circuit`` for ``bitstring``."""
    return circuit_to_tensor_network(circuit, bitstring=bitstring, concrete=concrete)


def dense_state(circuit):
    """The oracle: the dense output state as a ``(2,) * n`` array."""
    return StateVectorSimulator(circuit.num_qubits).run(circuit).state


def planner(target_rank, max_trials, seed):
    """The front door, default configuration."""
    return SimulationPlanner(target_rank=target_rank, max_trials=max_trials, seed=seed)


def hyper_optimizer(target_rank, max_trials, seed):
    """The path search exactly as ``SimulationPlanner.plan_network`` builds it."""
    return HyperOptimizer(
        max_trials=max_trials,
        minimize="combo",
        memory_target_rank=target_rank,
        seed=seed,
    )


def slice_refiner(seed):
    """The SA slice refiner exactly as ``SimulationPlanner.plan_tree`` builds it."""
    return SimulatedAnnealingSliceRefiner(seed=seed)


def randomised_tree(network, seed):
    """One tree of the Fig. 10 protocol: alternating optimisers, then annealed."""
    if seed % 2 == 0:
        tree = PartitionOptimizer(seed=seed).tree(network)
    else:
        tree = GreedyOptimizer(temperature=0.3, seed=seed).tree(network)
    annealer = TreeAnnealer(seed=seed, initial_temperature=0.1, cooling=0.8)
    return annealer.refine(tree).tree


def backend(kind, workers):
    """An execution backend by short name."""
    if kind == "serial":
        return SerialBackend()
    if kind == "threads":
        return ThreadPoolBackend(max_workers=workers)
    if kind == "pool":
        return SharedMemoryProcessPoolBackend(max_workers=workers)
    if kind == "distributed":
        return DistributedBackend(num_workers=workers)
    raise ValueError(f"unknown backend kind {kind!r}")


def sliced_executor(
    network,
    tree,
    sliced,
    *,
    backend=None,
    mode="compiled",
    fused=False,
    batch_indices=None,
    fault_policy=None,
    fault_injector=None,
):
    """A ``SlicedExecutor``; everything not passed keeps the library default."""
    return SlicedExecutor(
        network,
        tree,
        sliced,
        backend=backend,
        mode=mode,
        fused=fused,
        batch_indices=batch_indices,
        fault_policy=fault_policy,
        fault_injector=fault_injector,
    )


def checkpoint_policy(every):
    """The retrying policy that arms the write-ahead ledger."""
    return FaultPolicy.retrying(checkpoint_every=every)


def checkpoint_store(root):
    return CheckpointStore(root)


def kill_coordinator_at(ordinal):
    """An injector that kills the coordinator after harvest ``ordinal``."""
    return FaultInjector([FaultSpec("kill-coordinator", chunk=ordinal)])


def sampler(circuit, open_qubits, target_rank, max_trials, seed):
    return CorrelatedSampler(
        circuit, open_qubits, target_rank=target_rank, max_trials=max_trials, seed=seed
    )
