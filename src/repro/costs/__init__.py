"""Unified calibrated cost model shared by every planning layer.

One interface — :class:`CostModel` — now feeds the stages that used to
carry independent estimators:

* the path search (:class:`~repro.paths.optimizer.HyperOptimizer`) scores
  candidate trees with :meth:`CostModel.tree_cost`;
* the §6.2 scaling projections
  (:class:`~repro.execution.scaling.ProcessScheduler`,
  :func:`~repro.execution.scaling.strong_scaling` /
  :func:`~repro.execution.scaling.weak_scaling`,
  :class:`~repro.execution.scaling.HeadlineProjection`) derive per-backend
  subtask seconds from the model instead of assuming homogeneous times;
* :class:`~repro.pipeline.SimulationPlanner` threads one model through
  all of the above and reports predicted-vs-measured cost per stage.

Two implementations: :class:`AnalyticCostModel` (roofline over the
machine spec; no measurements needed) and :class:`CalibratedCostModel`
(per-backend coefficients fitted from the wall times the execution
backends record into :class:`~repro.execution.plan.PlanStats`, persisted
through the bench JSON).  Supplying no model anywhere keeps every default
bit-identical to the uncalibrated behaviour.
"""

from .calibration import (
    BackendCoefficients,
    CalibratedCostModel,
    CalibrationRecord,
    calibration_payload,
)
from .model import AnalyticCostModel, CostModel, CostModelError

__all__ = [
    "AnalyticCostModel",
    "BackendCoefficients",
    "CalibratedCostModel",
    "CalibrationRecord",
    "CostModel",
    "CostModelError",
    "calibration_payload",
]
