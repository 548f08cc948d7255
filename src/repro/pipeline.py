"""End-to-end simulation pipeline.

:class:`SimulationPlanner` strings the whole system together the way the
paper's production runs do:

1.  convert the circuit (or accept a ready-made tensor network),
2.  simplify it (rank-1/rank-2 absorption),
3.  search for a contraction tree (hyper-optimizer + SA refinement),
4.  extract the stem and run the lifetime slice finder + SA slice refiner
    against the process-level memory target,
5.  plan the thread-level fused execution (secondary slicing),
6.  estimate the performance on the Sunway model (per-subtask time, node
    counts, sustained rate), and
7.  — for small circuits — numerically execute the sliced contraction
    (:meth:`SimulationPlanner.execute_plan`): inline, or, once a timed
    subtask block shows the rest pays for forked twins, on every usable
    core.

Every stage's artefacts are kept on the returned :class:`SimulationPlan` so
examples, tests and benchmarks can inspect any intermediate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuits.circuit import Circuit
from .core.secondary import FusedPlan, SecondarySlicer
from .core.slice_finder import LifetimeSliceFinder
from .core.slice_refiner import SimulatedAnnealingSliceRefiner
from .core.slicing import SlicingCostModel, SlicingResult
from .core.stem import Stem, extract_stem
from .costs.model import CostModel
from .execution.backend import ExecutionBackend
from .execution.fused import ThreadLevelSimulator, ThreadTiming
from .execution.plan import PlanStats
from .execution.resilience import FaultPolicy
from .execution.scaling import HeadlineProjection, ProcessScheduler
from .execution.sliced import SlicedExecutor
from .hardware.memory import MemoryHierarchy, sunway_hierarchy
from .hardware.spec import COMPLEX64_BYTES, SW26010PRO, SunwaySpec
from .paths.optimizer import HyperOptimizer
from .tensornet.circuit_to_tn import circuit_to_tensor_network
from .tensornet.contraction_tree import ContractionTree
from .tensornet.network import TensorNetwork
from .tensornet.simplify import simplify_network

__all__ = ["SimulationPlan", "SimulationPlanner"]


@dataclass
class SimulationPlan:
    """All artefacts of one planning run.

    Attributes
    ----------
    network:
        The (simplified) tensor network.
    tree:
        The chosen contraction tree.
    stem:
        Its stem.
    slicing:
        The process-level slicing decision.
    fused_plan:
        The thread-level fused execution plan.
    timings:
        Thread-level timing breakdowns (``"step-by-step"`` and ``"fused"``).
    subtask_seconds:
        Modelled time of one subtask on one node (fused schedule).
    scalar_prefactor:
        Scalar factor pulled out by the simplifier (multiply the contraction
        value by it).
    cost_model:
        The planner's :class:`~repro.costs.CostModel`, when one was
        supplied; :meth:`scheduler` and the summary's predicted-cost keys
        derive from it.
    measured_stats:
        Execution counters and wall timings of the last
        :meth:`SimulationPlanner.execute_plan` run of this plan (``None``
        until the plan is executed numerically).
    """

    network: TensorNetwork
    tree: ContractionTree
    stem: Stem
    slicing: SlicingResult
    fused_plan: FusedPlan
    timings: Dict[str, ThreadTiming]
    subtask_seconds: float
    scalar_prefactor: complex = 1.0 + 0.0j
    cost_model: Optional[CostModel] = None
    measured_stats: Optional[PlanStats] = None

    @property
    def num_subtasks(self) -> float:
        """Number of independent process-level subtasks."""
        return self.slicing.num_subtasks

    @property
    def total_flops(self) -> float:
        """Total useful flops of the sliced contraction (all subtasks)."""
        return 8.0 * self.tree.total_cost(self.slicing.sliced)

    def predicted_subtask_seconds(self, backend: Optional[str] = None) -> float:
        """The cost model's per-subtask prediction for this plan's slicing."""
        if self.cost_model is None:
            raise ValueError("this plan was made without a cost model")
        return self.cost_model.subtask_seconds(
            self.tree, self.slicing.sliced, backend=backend
        )

    def scheduler(
        self,
        spec: SunwaySpec = SW26010PRO,
        result_bytes: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> ProcessScheduler:
        """A process-level scheduler parameterised by this plan.

        With a cost model attached, the per-subtask time comes from the
        model (per ``backend`` when the model is calibrated); otherwise
        from the thread-level simulator's fused-schedule estimate.
        """
        kwargs = {}
        if result_bytes is not None:
            kwargs["result_bytes"] = result_bytes
        if self.cost_model is not None:
            return ProcessScheduler.from_cost_model(
                self.cost_model,
                self.tree,
                self.slicing.sliced,
                backend=backend,
                spec=spec,
                **kwargs,
            )
        subtask_flops = self.total_flops / max(self.num_subtasks, 1.0)
        return ProcessScheduler(
            subtask_seconds=self.subtask_seconds,
            subtask_flops=subtask_flops,
            spec=spec,
            **kwargs,
        )

    def stage_costs(self, backend: Optional[str] = None) -> List[Dict[str, float]]:
        """Predicted-vs-measured cost rows, one per execution stage.

        ``predicted_seconds`` comes from the cost model (per-subtask
        prediction for the ``"execute"`` stage), ``measured_seconds`` from
        the wall timings of the last numerical execution.  Either column
        is omitted when its source is missing.
        """
        rows: List[Dict[str, float]] = []
        measured = self.measured_stats
        for stage in ("warm_cache", "execute"):
            row: Dict[str, float] = {"stage": stage}  # type: ignore[dict-item]
            if self.cost_model is not None and stage == "execute":
                row["predicted_subtask_seconds"] = self.predicted_subtask_seconds(
                    backend
                )
            if measured is not None and stage in measured.stage_seconds:
                row["measured_seconds"] = measured.stage_seconds[stage]
                if stage == "execute" and measured.subtask_seconds:
                    row["measured_subtask_seconds"] = measured.mean_subtask_seconds
            rows.append(row)
        return rows

    def estimated_seconds(self, num_nodes: int, spec: SunwaySpec = SW26010PRO) -> float:
        """Modelled wall time of the whole contraction on ``num_nodes`` nodes."""
        return self.scheduler(spec).elapsed_seconds(int(round(self.num_subtasks)), num_nodes)

    def headline_projection(
        self,
        measured_nodes: int = 1024,
        projected_nodes: int = 107_520,
        spec: SunwaySpec = SW26010PRO,
    ) -> HeadlineProjection:
        """The §6.2-style projection from a measured node count to the full machine."""
        return HeadlineProjection(
            measured_nodes=measured_nodes,
            measured_seconds=self.estimated_seconds(measured_nodes, spec),
            projected_nodes=projected_nodes,
            total_flops=self.total_flops,
            spec=spec,
        )

    def summary(self) -> Dict[str, float]:
        """Headline planning metrics as a flat dict.

        Predicted-vs-measured keys appear only when their source exists
        (a cost model / an executed plan), so plans made without either
        keep the historical key set.
        """
        fused = self.timings["fused"]
        step = self.timings["step-by-step"]
        summary = {
            "num_tensors": float(self.network.num_tensors),
            "log10_total_cost": self.tree.log10_total_cost(self.slicing.sliced),
            "max_rank": float(self.slicing.max_rank),
            "num_sliced": float(self.slicing.num_sliced),
            "num_subtasks": float(self.num_subtasks),
            "slicing_overhead": self.slicing.overhead,
            "stem_cost_fraction": self.stem.cost_fraction(),
            "fused_groups": float(self.fused_plan.num_groups),
            "average_fused_steps": self.fused_plan.average_fused_steps,
            "arithmetic_intensity_gain": self.fused_plan.intensity_gain(),
            "subtask_seconds": self.subtask_seconds,
            "thread_speedup": step.total_seconds / fused.total_seconds
            if fused.total_seconds
            else math.inf,
        }
        if self.cost_model is not None:
            summary["predicted_subtask_seconds"] = self.predicted_subtask_seconds()
        if self.measured_stats is not None and self.measured_stats.subtask_seconds:
            summary["measured_subtask_seconds"] = (
                self.measured_stats.mean_subtask_seconds
            )
        if self.measured_stats is not None:
            # resilience counters of the executed run: zero everywhere on
            # a clean run, non-zero when crash recovery kicked in
            summary["retries"] = float(self.measured_stats.retries)
            summary["faults"] = float(self.measured_stats.faults)
            summary["recovery_seconds"] = self.measured_stats.recovery_seconds
        return summary


class SimulationPlanner:
    """Plans (and optionally executes) a sliced tensor-network simulation.

    Parameters
    ----------
    target_rank:
        Process-level memory target ``t`` (defaults to what fits in the
        united 96 GB main memory of one node).
    ldm_rank:
        Thread-level memory target (defaults to the LDM rank-13 bound).
    max_trials:
        Trials of the contraction-path hyper-optimizer.
    refine_slices:
        Whether to run the SA slice refiner after the lifetime finder.
    spec:
        Machine description.
    seed:
        Master PRNG seed for all stochastic components.
    backend:
        Optional :class:`~repro.execution.backend.ExecutionBackend` used by
        :meth:`execute_plan` to schedule the slicing subtasks (default:
        see :meth:`execute_plan`).  Wrap repeated :meth:`execute_plan` calls in
        ``with planner.session(): ...`` (or use the planner itself as a
        context manager) to keep the backend's resident state — the
        process pool of a
        :class:`~repro.execution.backend.SharedMemoryProcessPoolBackend` —
        alive across executions.
    fault_policy:
        Optional :class:`~repro.execution.resilience.FaultPolicy` for
        :meth:`execute_plan`: worker crashes and stuck chunks recover
        (bounded retries, pool rebuilds, degradation) bit-identically to
        a clean run, and the recovery counters surface through
        :meth:`SimulationPlan.summary` (``retries`` / ``faults`` /
        ``recovery_seconds``).  ``None`` (the default) fails fast.  A
        policy carrying ``checkpoint_dir`` arms the write-ahead ledger on
        any backend, the default included: such a run stays one ordered
        loop.
    cost_model:
        Optional :class:`~repro.costs.CostModel` threaded through every
        planning stage: the tree search ranks candidates by its predicted
        seconds, :meth:`SimulationPlan.scheduler` derives the §6.2
        projections from it, and :meth:`SimulationPlan.summary` reports
        predicted-vs-measured cost.  ``None`` keeps every stage
        bit-identical to the uncalibrated behaviour.
    """

    def __init__(
        self,
        target_rank: Optional[int] = None,
        ldm_rank: Optional[int] = None,
        max_trials: int = 16,
        refine_slices: bool = True,
        spec: SunwaySpec = SW26010PRO,
        seed: Optional[int] = None,
        backend: Optional[ExecutionBackend] = None,
        cost_model: Optional[CostModel] = None,
        fault_policy: Optional["FaultPolicy"] = None,
    ) -> None:
        self.spec = spec
        self.hierarchy: MemoryHierarchy = sunway_hierarchy(spec)
        if target_rank is None:
            target_rank = self.hierarchy.target_rank_for("main_memory")
        self.target_rank = int(target_rank)
        self.ldm_rank = int(ldm_rank) if ldm_rank is not None else spec.ldm_max_rank()
        self.max_trials = int(max_trials)
        self.refine_slices = bool(refine_slices)
        self.seed = seed
        self.backend = backend
        self.cost_model = cost_model
        self.fault_policy = fault_policy

    # ------------------------------------------------------------------
    def session(self):
        """Open (or reuse) the backend's persistent execution session.

        Returns a no-op session when the planner has no backend (serial
        execution has no resident state to keep alive).
        """
        from .execution.backend import NullExecutionSession

        if self.backend is None:
            return NullExecutionSession(None)
        return self.backend.session()

    def close(self) -> None:
        """Release the backend's resident session state (idempotent)."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "SimulationPlanner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def plan_circuit(
        self,
        circuit: Circuit,
        bitstring: Optional[Sequence[int]] = None,
        concrete: bool = False,
    ) -> SimulationPlan:
        """Plan the simulation of one amplitude of ``circuit``."""
        if bitstring is None:
            bitstring = [0] * circuit.num_qubits
        network = circuit_to_tensor_network(circuit, bitstring=bitstring, concrete=concrete)
        report = simplify_network(network)
        return self.plan_network(network, scalar_prefactor=report.scalar_prefactor)

    def plan_network(
        self, network: TensorNetwork, scalar_prefactor: complex = 1.0 + 0.0j
    ) -> SimulationPlan:
        """Plan the contraction of an arbitrary (already simplified) network."""
        optimizer = HyperOptimizer(
            max_trials=self.max_trials,
            minimize="combo",
            memory_target_rank=self.target_rank,
            seed=self.seed,
            cost_model=self.cost_model,
        )
        tree = optimizer.search(network)
        return self.plan_tree(network, tree, scalar_prefactor=scalar_prefactor)

    def plan_tree(
        self,
        network: TensorNetwork,
        tree: ContractionTree,
        scalar_prefactor: complex = 1.0 + 0.0j,
    ) -> SimulationPlan:
        """Plan slicing and execution for an existing contraction tree."""
        stem = extract_stem(tree)
        cost_model = SlicingCostModel(tree)

        effective_target = min(self.target_rank, cost_model.max_rank(frozenset()))
        finder = LifetimeSliceFinder(effective_target)
        slicing = finder.find(tree, stem=stem, cost_model=cost_model)
        if self.refine_slices and slicing.sliced:
            refiner = SimulatedAnnealingSliceRefiner(seed=self.seed)
            slicing = refiner.refine(
                tree, slicing.sliced, effective_target, cost_model=cost_model
            )

        secondary = SecondarySlicer(ldm_rank=self.ldm_rank, spec=self.spec)
        fused_plan = secondary.plan(stem, process_sliced=slicing.sliced)

        simulator = ThreadLevelSimulator(spec=self.spec)
        timings = {
            "step-by-step": simulator.simulate_step_by_step(stem, slicing.sliced),
            "fused": simulator.simulate_fused(fused_plan, slicing.sliced),
        }
        # one subtask = the fused stem execution plus the (small) branch
        # pre-contractions; branches are folded in via the tree/stem ratio
        stem_fraction = max(stem.cost_fraction(), 1e-9)
        subtask_seconds = timings["fused"].total_seconds / stem_fraction

        return SimulationPlan(
            network=network,
            tree=tree,
            stem=stem,
            slicing=slicing,
            fused_plan=fused_plan,
            timings=timings,
            subtask_seconds=subtask_seconds,
            scalar_prefactor=scalar_prefactor,
            cost_model=self.cost_model,
        )

    # ------------------------------------------------------------------
    def execute_plan(
        self, plan: SimulationPlan, backend: Optional[ExecutionBackend] = None
    ) -> complex:
        """Numerically execute a plan on a concrete network (small circuits).

        Runs every slicing subtask through ``backend`` (defaulting to the
        planner's backend) and accumulates the results; returns the
        amplitude including the simplifier's scalar prefactor.  Without
        either, the executor's default runs it: the sweep runs inline until
        a timed block shows that forked twins pay for the rest
        (:func:`repro.forking.pool_pays`); the parent then forks them from
        its warm state and sweeps its own range of the rest beside them on
        the arena it keeps.  The amplitude is the serial one, bit for bit.
        The run's counters and wall timings land on
        ``plan.measured_stats``, feeding the predicted-vs-measured stage
        report and :class:`~repro.costs.CalibratedCostModel` calibration.
        """
        if backend is None:
            backend = self.backend
        executor = SlicedExecutor(
            plan.network,
            plan.tree,
            plan.slicing.sliced,
            backend=backend,
            cost_model=self.cost_model,
            fault_policy=self.fault_policy,
        )
        amplitude = executor.amplitude() * plan.scalar_prefactor
        plan.measured_stats = executor.stats
        return amplitude
