"""Process-level scheduling and strong/weak scaling simulation (Fig. 11, §6.2).

After slicing, the ``2^|S|`` subtasks are embarrassingly parallel: every
process (node) contracts its share of subtasks independently and a single
all-reduce at the end accumulates the amplitudes.  This module models that
execution:

* :class:`ProcessScheduler` distributes subtasks over nodes (block
  distribution, exactly as independent slices are farmed out on the real
  machine) and accounts for the one-off input broadcast and the final
  all-reduce on a tree of the given fan-out;
* :func:`strong_scaling` / :func:`weak_scaling` sweep node counts to
  produce the two panels of Fig. 11;
* :class:`HeadlineProjection` reproduces the §6.2 arithmetic: measured time
  on 1024 nodes, projection to 107 520 nodes, sustained Pflop/s, and the
  comparison against the 2021 Gordon Bell baseline.

The scheduler historically assumed a homogeneous, externally supplied
``subtask_seconds``.  It now also composes with the unified cost model:
:meth:`ProcessScheduler.from_cost_model` (and the ``cost_model=`` forms of
the sweep helpers and :meth:`HeadlineProjection.from_cost_model`) derive
the per-subtask time from a :class:`~repro.costs.CostModel` — when that
model is a :class:`~repro.costs.CalibratedCostModel` fitted from real
runs, the §6.2 projections become self-calibrating, per backend, from
measured data.

With the distributed backend (:mod:`repro.execution.distributed`) the
curve is no longer only modelled: :func:`measure_strong_scaling` runs the
same workload against N real localhost workers per point, verifies every
point bit-identical to the serial reference, fits a calibrated model
(whose distributed coefficients include the measured per-subtask
communication term) and reports measured-vs-predicted
:class:`MeasuredScalingPoint` rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..hardware.spec import COMPLEX64_BYTES, SW26010PRO, SunwaySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs.model import CostModel
    from ..tensornet.contraction_tree import ContractionTree
    from ..tensornet.network import TensorNetwork
    from .backend import ExecutionBackend

__all__ = [
    "MeasuredScalingPoint",
    "ProcessScheduler",
    "ScalingPoint",
    "measure_strong_scaling",
    "strong_scaling",
    "weak_scaling",
    "HeadlineProjection",
    "GORDON_BELL_2021_PFLOPS",
]

#: Sustained performance of the 2021 Gordon Bell winner the paper compares to.
GORDON_BELL_2021_PFLOPS = 60.4


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve.

    Attributes
    ----------
    num_nodes:
        Nodes used.
    num_subtasks:
        Total subtasks executed.
    elapsed_seconds:
        Modelled wall time.
    compute_seconds:
        Time of the slowest node's subtask execution.
    reduce_seconds:
        Time of the final all-reduce.
    speedup:
        Relative to the smallest node count of the sweep (1.0 there).
    efficiency:
        ``speedup / (nodes / base nodes)`` for strong scaling, or
        ``base time / time`` for weak scaling.
    sustained_flops:
        Aggregate sustained flop rate at this point.
    """

    num_nodes: int
    num_subtasks: int
    elapsed_seconds: float
    compute_seconds: float
    reduce_seconds: float
    speedup: float
    efficiency: float
    sustained_flops: float


class ProcessScheduler:
    """Distributes slicing subtasks over nodes and models the wall time.

    Parameters
    ----------
    subtask_seconds:
        Time of one subtask on one node (from the thread-level simulator or
        a measurement).
    subtask_flops:
        Flops of one subtask (for sustained-rate bookkeeping).
    result_bytes:
        Size of the per-node partial result that the final all-reduce
        combines (one amplitude batch; 1 M single-precision complex
        amplitudes by default).
    spec:
        Machine description (network bandwidth, peak rate).
    reduce_latency_seconds:
        Per-hop latency of the all-reduce tree.
    """

    def __init__(
        self,
        subtask_seconds: float,
        subtask_flops: float,
        result_bytes: float = 1_000_000 * COMPLEX64_BYTES,
        spec: SunwaySpec = SW26010PRO,
        reduce_latency_seconds: float = 5e-6,
    ) -> None:
        if subtask_seconds <= 0:
            raise ValueError("subtask_seconds must be positive")
        self.subtask_seconds = float(subtask_seconds)
        self.subtask_flops = float(subtask_flops)
        self.result_bytes = float(result_bytes)
        self.spec = spec
        self.reduce_latency_seconds = float(reduce_latency_seconds)

    # ------------------------------------------------------------------
    @classmethod
    def from_cost_model(
        cls,
        cost_model: "CostModel",
        tree: "ContractionTree",
        sliced: AbstractSet[str] = frozenset(),
        backend: Optional[str] = None,
        result_bytes: Optional[float] = None,
        spec: SunwaySpec = SW26010PRO,
        reduce_latency_seconds: float = 5e-6,
    ) -> "ProcessScheduler":
        """A scheduler whose subtask time comes from a cost model.

        ``backend`` names the execution substrate the prediction is for
        (meaningful on a :class:`~repro.costs.CalibratedCostModel`, which
        fitted per-backend coefficients from measured subtask seconds);
        the analytic model ignores it.  ``subtask_flops`` is the model's
        :meth:`~repro.costs.CostModel.subtask_work_flops` — the flops of
        the same work the predicted seconds cover, so the derived
        sustained rates stay consistent (a calibrated model times only
        the cache-warm dependent portion of a subtask).
        """
        sliced = frozenset(sliced)
        kwargs = {} if result_bytes is None else {"result_bytes": result_bytes}
        return cls(
            subtask_seconds=cost_model.subtask_seconds(tree, sliced, backend=backend),
            subtask_flops=cost_model.subtask_work_flops(tree, sliced),
            spec=spec,
            reduce_latency_seconds=reduce_latency_seconds,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def subtasks_on_slowest_node(self, num_subtasks: int, num_nodes: int) -> int:
        """Block distribution: the slowest node runs ``ceil(tasks / nodes)``."""
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        return math.ceil(num_subtasks / num_nodes)

    def compute_seconds(self, num_subtasks: int, num_nodes: int) -> float:
        """Computation time of the slowest node."""
        return self.subtasks_on_slowest_node(num_subtasks, num_nodes) * self.subtask_seconds

    def reduce_seconds(self, num_nodes: int) -> float:
        """Binary-tree all-reduce of the partial results."""
        if num_nodes <= 1:
            return 0.0
        hops = math.ceil(math.log2(num_nodes))
        per_hop = self.result_bytes / self.spec.network_bandwidth + self.reduce_latency_seconds
        return hops * per_hop

    def elapsed_seconds(self, num_subtasks: int, num_nodes: int) -> float:
        """Total modelled wall time."""
        return self.compute_seconds(num_subtasks, num_nodes) + self.reduce_seconds(num_nodes)

    def sustained_flops(self, num_subtasks: int, num_nodes: int) -> float:
        """Aggregate sustained flop rate of the run."""
        elapsed = self.elapsed_seconds(num_subtasks, num_nodes)
        total_flops = self.subtask_flops * num_subtasks
        return total_flops / elapsed if elapsed else 0.0

    def parallel_efficiency(self, num_subtasks: int, num_nodes: int) -> float:
        """Fraction of ideal speedup retained at ``num_nodes``."""
        ideal = self.elapsed_seconds(num_subtasks, 1) / num_nodes
        actual = self.elapsed_seconds(num_subtasks, num_nodes)
        return ideal / actual if actual else 0.0


def _resolve_scheduler(
    scheduler: Optional[ProcessScheduler],
    cost_model: Optional["CostModel"],
    tree: Optional["ContractionTree"],
    sliced: AbstractSet[str],
    backend: Optional[str],
    spec: SunwaySpec,
) -> ProcessScheduler:
    """Either the given scheduler or one built from a cost model."""
    if scheduler is not None:
        if cost_model is not None:
            raise ValueError("pass either scheduler or cost_model=, not both")
        return scheduler
    if cost_model is None or tree is None:
        raise ValueError("without a scheduler, pass cost_model= and tree=")
    return ProcessScheduler.from_cost_model(
        cost_model, tree, sliced, backend=backend, spec=spec
    )


def strong_scaling(
    scheduler: Optional[ProcessScheduler] = None,
    num_subtasks: int = 65536,
    node_counts: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096),
    *,
    cost_model: Optional["CostModel"] = None,
    tree: Optional["ContractionTree"] = None,
    sliced: AbstractSet[str] = frozenset(),
    backend: Optional[str] = None,
    spec: SunwaySpec = SW26010PRO,
) -> List[ScalingPoint]:
    """Strong-scaling sweep (fixed total work) — the left panel of Fig. 11.

    Pass either a ready-made ``scheduler`` or ``cost_model=`` plus
    ``tree=`` (and optionally ``sliced=``/``backend=``) to derive the
    per-subtask time from the unified cost model.
    """
    scheduler = _resolve_scheduler(scheduler, cost_model, tree, sliced, backend, spec)
    if not node_counts:
        raise ValueError("node_counts must not be empty")
    base_nodes = node_counts[0]
    base_time = scheduler.elapsed_seconds(num_subtasks, base_nodes)
    points: List[ScalingPoint] = []
    for nodes in node_counts:
        elapsed = scheduler.elapsed_seconds(num_subtasks, nodes)
        speedup = base_time / elapsed if elapsed else 0.0
        efficiency = speedup / (nodes / base_nodes)
        points.append(
            ScalingPoint(
                num_nodes=nodes,
                num_subtasks=num_subtasks,
                elapsed_seconds=elapsed,
                compute_seconds=scheduler.compute_seconds(num_subtasks, nodes),
                reduce_seconds=scheduler.reduce_seconds(nodes),
                speedup=speedup,
                efficiency=efficiency,
                sustained_flops=scheduler.sustained_flops(num_subtasks, nodes),
            )
        )
    return points


def weak_scaling(
    scheduler: Optional[ProcessScheduler] = None,
    subtasks_per_node: int = 16,
    node_counts: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096),
    *,
    cost_model: Optional["CostModel"] = None,
    tree: Optional["ContractionTree"] = None,
    sliced: AbstractSet[str] = frozenset(),
    backend: Optional[str] = None,
    spec: SunwaySpec = SW26010PRO,
) -> List[ScalingPoint]:
    """Weak-scaling sweep (fixed work per node) — the right panel of Fig. 11.

    Accepts the same ``cost_model=``/``tree=`` alternative to a
    ready-made scheduler as :func:`strong_scaling`.
    """
    scheduler = _resolve_scheduler(scheduler, cost_model, tree, sliced, backend, spec)
    if not node_counts:
        raise ValueError("node_counts must not be empty")
    base_nodes = node_counts[0]
    base_time = scheduler.elapsed_seconds(subtasks_per_node * base_nodes, base_nodes)
    points: List[ScalingPoint] = []
    for nodes in node_counts:
        num_subtasks = subtasks_per_node * nodes
        elapsed = scheduler.elapsed_seconds(num_subtasks, nodes)
        efficiency = base_time / elapsed if elapsed else 0.0
        points.append(
            ScalingPoint(
                num_nodes=nodes,
                num_subtasks=num_subtasks,
                elapsed_seconds=elapsed,
                compute_seconds=scheduler.compute_seconds(num_subtasks, nodes),
                reduce_seconds=scheduler.reduce_seconds(nodes),
                speedup=elapsed and base_time / elapsed,
                efficiency=efficiency,
                sustained_flops=scheduler.sustained_flops(num_subtasks, nodes),
            )
        )
    return points


@dataclass(frozen=True)
class MeasuredScalingPoint:
    """One *measured* point of a strong-scaling sweep over real workers.

    Attributes
    ----------
    num_workers:
        Distributed workers the point ran against.
    num_subtasks:
        Total subtasks executed (fixed across the sweep — strong scaling).
    elapsed_seconds:
        Measured wall time of one full run (best of ``repeats``).
    predicted_seconds:
        What the calibrated cost model — fitted from this sweep's own
        per-subtask and communication measurements — predicts for this
        worker count through :meth:`ProcessScheduler.from_cost_model`.
    compute_seconds:
        Workers' own per-subtask compute time, summed across workers
        (per run, averaged over repeats).
    comms_seconds:
        Measured communication overhead of the chunk round-trips (per
        run, averaged over repeats).
    speedup:
        Serial reference time / :attr:`elapsed_seconds`.
    efficiency:
        ``speedup / num_workers``.
    relative_error:
        ``|elapsed - predicted| / elapsed`` — how well the calibrated
        projection matches the measurement at this worker count.
    """

    num_workers: int
    num_subtasks: int
    elapsed_seconds: float
    predicted_seconds: float
    compute_seconds: float
    comms_seconds: float
    speedup: float
    efficiency: float
    relative_error: float


def measure_strong_scaling(
    network: "TensorNetwork",
    tree: "ContractionTree",
    sliced: AbstractSet[str],
    worker_counts: Sequence[int] = (1, 2, 4),
    *,
    repeats: int = 1,
    chunk_size: Optional[int] = None,
    backend_factory: Optional[Callable[[int], "ExecutionBackend"]] = None,
    spec: SunwaySpec = SW26010PRO,
    result_bytes: Optional[float] = None,
    executor_kwargs: Optional[Dict] = None,
    verify_against_serial: bool = True,
) -> List[MeasuredScalingPoint]:
    """Measured strong-scaling sweep against N real localhost workers.

    For each worker count the workload runs on a
    :class:`~repro.execution.distributed.DistributedBackend` inside a
    persistent session (one cold run pays worker spawn + broadcast, then
    the best of ``repeats`` warm runs is the measurement).  Every
    distributed result is checked bit-identical to a serial reference
    run, the per-run calibration records — whose communication terms the
    coordinator measured — fit a
    :class:`~repro.costs.CalibratedCostModel`, and each point carries the
    model's own prediction via :meth:`ProcessScheduler.from_cost_model`,
    so the return value is directly a measured-vs-projected fig-11 row
    set.

    Parameters
    ----------
    network / tree / sliced:
        The workload, exactly as for
        :class:`~repro.execution.SlicedExecutor`.
    worker_counts:
        Distributed worker counts to measure (``1`` is a genuine
        one-worker remote run, not a local shortcut).
    repeats:
        Warm timed runs per point; the minimum is reported.
    chunk_size:
        Forwarded to the backend (default: ~4 chunks per worker).
    backend_factory:
        ``worker count -> backend`` override (tests use it to shim the
        transport); default builds
        ``DistributedBackend(num_workers=n, chunk_size=chunk_size)``.
    spec / result_bytes:
        Forwarded to the predicting scheduler; ``result_bytes`` defaults
        to the workload's actual root-contribution size.
    executor_kwargs:
        Extra :class:`~repro.execution.SlicedExecutor` arguments (e.g.
        ``dtype=``).
    verify_against_serial:
        Disable only when the serial reference itself is too slow to run
        (the sweep then trusts the backend's internal ordered fold).

    Returns one :class:`MeasuredScalingPoint` per worker count, in order.
    """
    import numpy as np

    from ..costs.calibration import CalibratedCostModel
    from .backend import SerialBackend
    from .distributed import DistributedBackend
    from .sliced import SlicedExecutor

    if not worker_counts:
        raise ValueError("worker_counts must not be empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    kwargs = dict(executor_kwargs or {})

    # serial reference: the bit-identity oracle and the speedup baseline
    serial_executor = SlicedExecutor(network, tree, sliced, backend=SerialBackend(), **kwargs)
    reference = serial_executor.run()  # warm (plan compile + cache)
    serial_seconds = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        reference = serial_executor.run()
        serial_seconds = min(serial_seconds, time.perf_counter() - start)
    # shape-preserving copy: ascontiguousarray would promote a 0-d
    # amplitude to shape (1,) and break the exact comparison below
    reference_data = np.array(reference.require_data(), copy=True)
    num_subtasks = serial_executor.num_subtasks

    records = []
    measured: List[Tuple[int, float, float, float]] = []
    for count in worker_counts:
        if backend_factory is not None:
            backend = backend_factory(count)
        else:
            backend = DistributedBackend(num_workers=count, chunk_size=chunk_size)
        executor = SlicedExecutor(network, tree, sliced, backend=backend, **kwargs)
        try:
            with executor.session():
                result = executor.run()  # cold: spawn + broadcast
                if verify_against_serial and not np.array_equal(
                    reference_data, np.asarray(result.require_data())
                ):
                    raise RuntimeError(
                        f"distributed result diverged from serial at "
                        f"{count} workers"
                    )
                compute_before = executor.stats.subtask_seconds_sum
                comms_before = executor.stats.comms_seconds
                elapsed = math.inf
                for _ in range(repeats):
                    start = time.perf_counter()
                    result = executor.run()
                    elapsed = min(elapsed, time.perf_counter() - start)
                if verify_against_serial and not np.array_equal(
                    reference_data, np.asarray(result.require_data())
                ):
                    raise RuntimeError(
                        f"distributed result diverged from serial at "
                        f"{count} workers (warm run)"
                    )
                compute = (
                    executor.stats.subtask_seconds_sum - compute_before
                ) / repeats
                comms = (executor.stats.comms_seconds - comms_before) / repeats
            records.append(executor.calibration_record())
            measured.append((count, elapsed, compute, comms))
        finally:
            backend.close()

    model = CalibratedCostModel.fit(records)
    scheduler = ProcessScheduler.from_cost_model(
        model,
        tree,
        frozenset(sliced),
        backend=records[0].backend,
        result_bytes=(
            float(reference_data.nbytes) if result_bytes is None else result_bytes
        ),
        spec=spec,
    )
    points: List[MeasuredScalingPoint] = []
    for count, elapsed, compute, comms in measured:
        predicted = scheduler.elapsed_seconds(num_subtasks, count)
        speedup = serial_seconds / elapsed if elapsed else 0.0
        points.append(
            MeasuredScalingPoint(
                num_workers=count,
                num_subtasks=num_subtasks,
                elapsed_seconds=elapsed,
                predicted_seconds=predicted,
                compute_seconds=compute,
                comms_seconds=comms,
                speedup=speedup,
                efficiency=speedup / count if count else 0.0,
                relative_error=(
                    abs(elapsed - predicted) / elapsed if elapsed else math.inf
                ),
            )
        )
    return points


@dataclass
class HeadlineProjection:
    """The §6.2 headline arithmetic.

    Attributes
    ----------
    measured_nodes:
        Node count of the measured run (1024 in the paper).
    measured_seconds:
        Measured/modelled wall time on ``measured_nodes`` (10098.5 s).
    projected_nodes:
        Node count of the projection (107 520 — the full machine).
    total_flops:
        Total useful flops of the workload (all subtasks, all samples).
    spec:
        Machine description.
    """

    measured_nodes: int
    measured_seconds: float
    projected_nodes: int
    total_flops: float
    spec: SunwaySpec = field(default_factory=lambda: SW26010PRO)

    @classmethod
    def from_cost_model(
        cls,
        cost_model: "CostModel",
        tree: "ContractionTree",
        sliced: AbstractSet[str] = frozenset(),
        num_subtasks: Optional[int] = None,
        measured_nodes: int = 1024,
        projected_nodes: int = 107_520,
        backend: Optional[str] = None,
        spec: SunwaySpec = SW26010PRO,
    ) -> "HeadlineProjection":
        """A §6.2 projection whose base point comes from the cost model.

        The "measured" wall time on ``measured_nodes`` is what a
        :meth:`ProcessScheduler.from_cost_model` scheduler predicts for
        this workload on ``backend``; with a calibrated model, that is a
        projection from real per-backend subtask measurements.
        ``num_subtasks`` defaults to ``prod w(e)`` over ``sliced``.
        """
        sliced = frozenset(sliced)
        scheduler = ProcessScheduler.from_cost_model(
            cost_model, tree, sliced, backend=backend, spec=spec
        )
        if num_subtasks is None:
            num_subtasks = int(round(tree.num_subtasks(sliced)))
        return cls(
            measured_nodes=measured_nodes,
            measured_seconds=scheduler.elapsed_seconds(num_subtasks, measured_nodes),
            projected_nodes=projected_nodes,
            total_flops=scheduler.subtask_flops * num_subtasks,
            spec=spec,
        )

    @property
    def projected_seconds(self) -> float:
        """Projected wall time assuming the demonstrated linear scaling."""
        return self.measured_seconds * self.measured_nodes / self.projected_nodes

    @property
    def projected_cores(self) -> int:
        """Cores used by the projected run (41 932 800 in the paper)."""
        return self.projected_nodes * self.spec.cores_per_node

    @property
    def sustained_pflops(self) -> float:
        """Sustained single-precision Pflop/s of the projected run."""
        return self.total_flops / self.projected_seconds / 1e15

    @property
    def peak_fraction(self) -> float:
        """Fraction of the machine's peak sustained by the projection."""
        peak = self.spec.peak_flops_system(self.projected_nodes)
        return (self.total_flops / self.projected_seconds) / peak if peak else 0.0

    def speedup_over_gordon_bell(self, baseline_pflops: float = GORDON_BELL_2021_PFLOPS) -> float:
        """Performance ratio against the 2021 Gordon Bell work (60.4 Pflop/s)."""
        return self.sustained_pflops / baseline_pflops

    def summary(self) -> Dict[str, float]:
        """All headline numbers as a flat dict (used by the benchmark harness)."""
        return {
            "measured_nodes": float(self.measured_nodes),
            "measured_seconds": self.measured_seconds,
            "projected_nodes": float(self.projected_nodes),
            "projected_cores": float(self.projected_cores),
            "projected_seconds": self.projected_seconds,
            "sustained_pflops": self.sustained_pflops,
            "peak_fraction": self.peak_fraction,
            "speedup_over_gb2021": self.speedup_over_gordon_bell(),
        }
