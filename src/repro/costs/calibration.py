"""Measurement-calibrated cost model.

The execution backends instrument every real run: each
:meth:`~repro.execution.plan.CompiledPlan.execute` call stamps its wall
time into :class:`~repro.execution.plan.PlanStats` (``subtask_seconds``
per subtask, ``stage_seconds`` per stage), and worker-local stats are
merged back into the caller's.  This module turns those measurements into
a :class:`~repro.costs.model.CostModel`:

* :class:`CalibrationRecord` packages one backend's timing samples for
  one workload (per-subtask seconds plus the workload's flops and step
  count) — built directly from a :class:`PlanStats`
  (:meth:`CalibrationRecord.from_stats`) or parsed from the benchmark
  JSON;
* :class:`CalibratedCostModel` fits per-backend coefficients
  ``seconds ≈ seconds_per_flop · flops + seconds_per_step · steps``
  (a two-term linear model: a throughput term for the GEMM work and an
  overhead term for per-step dispatch) and predicts subtask seconds for
  any tree/slicing pair on any measured backend;
* :func:`calibration_payload` / :meth:`CalibratedCostModel.from_bench_json`
  round-trip the measurements through
  ``benchmarks/results/BENCH_exec_plan.json`` so CI runs produce a real
  calibration input and the §6.2 projections become self-calibrating.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from .model import CostModel, CostModelError

__all__ = [
    "BackendCoefficients",
    "CalibratedCostModel",
    "CalibrationRecord",
    "calibration_payload",
]

#: Cap on per-subtask samples kept in the bench JSON (full stats can hold
#: thousands; the fit needs far fewer).
MAX_SAMPLES_PERSISTED = 64


@dataclass(frozen=True)
class CalibrationRecord:
    """Timing samples of one backend on one workload.

    Attributes
    ----------
    backend:
        Backend name (``"serial"``, ``"threads"``, ``"process-pool"`` —
        the :attr:`~repro.execution.backend.ExecutionBackend.name` of the
        substrate that produced the timings).
    subtask_flops:
        Real flops of the work each timing sample covers.  The samples
        measure the cache-warm path (invariant intermediates precomputed,
        only slice-dependent nodes recontracted), so this is the
        *dependent* per-subtask cost
        (:meth:`~repro.costs.model.CostModel.dependent_subtask_flops`),
        not the full Eq. 1 cost — pairing full-tree flops with
        cache-warm seconds would bias the fitted throughput by the
        workload's invariant fraction.
    num_steps:
        Pair contractions per cache-warm subtask.
    seconds:
        Measured per-subtask wall times.
    tape_engine:
        Which tape interpreter produced the samples — ``"python"`` (the
        default, also covering non-fused runs) or ``"native"`` (the
        numba-JIT program of :mod:`repro.execution.tape`).  Engines have
        very different per-step dispatch costs, so each fits its own
        coefficient key (see :attr:`key`) instead of polluting one
        global per-step overhead.
    comms_seconds_per_subtask:
        Mean per-subtask communication overhead measured by the
        distributed coordinator (chunk round-trip wall time not covered
        by the workers' own compute samples: serialization, transfer,
        dispatch).  Zero for the in-process backends, where nothing
        crosses a wire — their samples already cover all costs.
    payload_bytes_per_subtask:
        Mean steady-state bytes shipped per subtask (chunk frames out
        plus contribution frames back; one-time broadcasts excluded).
        Diagnostic companion of the comms term — lets scaling analyses
        relate overhead seconds to wire bytes.
    """

    backend: str
    subtask_flops: float
    num_steps: int
    seconds: Tuple[float, ...]
    tape_engine: str = "python"
    comms_seconds_per_subtask: float = 0.0
    payload_bytes_per_subtask: float = 0.0

    def __post_init__(self) -> None:
        if not self.seconds:
            raise CostModelError("a calibration record needs at least one sample")
        if self.subtask_flops <= 0:
            raise CostModelError("subtask_flops must be positive")

    @property
    def mean_seconds(self) -> float:
        """Mean measured subtask time."""
        return float(np.mean(self.seconds))

    @property
    def key(self) -> str:
        """The coefficient key these samples fit.

        The plain backend name for the Python walker (keeping every
        pre-tape calibration artifact valid) and ``"<backend>+native"``
        for the native engine — e.g. ``"serial+native"``.
        """
        if self.tape_engine in ("python", "", None):
            return self.backend
        return f"{self.backend}+{self.tape_engine}"

    @classmethod
    def from_stats(
        cls,
        stats: "PlanStats",  # noqa: F821 - import cycle; duck-typed
        tree: ContractionTree,
        sliced: AbstractSet[str],
        backend: str,
    ) -> "CalibrationRecord":
        """Build a record from the stats of a real run.

        ``tree``/``sliced`` must describe the workload the stats were
        collected on (they supply the flops and step count the samples are
        regressed against).  Batched-sweep stats are rejected: one of
        their samples covers many subtasks, so they are not per-subtask
        measurements.

        The flops/steps pairing follows what the samples measured: a
        cache-warm run (``stats.cache_hits > 0`` — every subtask was
        served frontier intermediates) timed only the slice-dependent
        work, while an uncached run (``cache_invariant=False``) timed the
        full Eq. 1 work; mislabelling either would bias the fitted
        throughput by the workload's invariant fraction.
        """
        if not stats.subtask_seconds:
            raise CostModelError(
                "stats carry no subtask timings; run the workload first"
            )
        if getattr(stats, "batched_executions", 0):
            raise CostModelError(
                "stats include batched sweeps; calibrate from non-batched runs"
            )
        if stats.cache_hits > 0:
            subtask_flops = CostModel.dependent_subtask_flops(tree, sliced)
            num_steps = CostModel.dependent_step_count(tree, sliced)
        else:
            subtask_flops = CostModel.subtask_flops(tree, sliced)
            num_steps = len(tree.internal_nodes())
        timed = getattr(stats, "timed_subtasks", 0) or len(stats.subtask_seconds)
        comms_seconds = float(getattr(stats, "comms_seconds", 0.0))
        comms_bytes = float(getattr(stats, "comms_bytes", 0))
        return cls(
            backend=backend,
            subtask_flops=subtask_flops,
            num_steps=num_steps,
            seconds=tuple(stats.subtask_seconds),
            tape_engine=getattr(stats, "tape_engine", None) or "python",
            comms_seconds_per_subtask=comms_seconds / timed if timed else 0.0,
            payload_bytes_per_subtask=comms_bytes / timed if timed else 0.0,
        )


@dataclass(frozen=True)
class BackendCoefficients:
    """Fitted per-backend coefficients of the linear model.

    Two regressed terms (throughput per flop, dispatch per step) plus an
    additive per-subtask *communication* constant measured — not fitted —
    from the distributed coordinator's round-trip accounting.  The
    constant is 0.0 for in-process backends, keeping their predictions
    exactly the pre-distributed two-term values.
    """

    seconds_per_flop: float
    seconds_per_step: float
    samples: int
    comms_seconds_per_subtask: float = 0.0
    payload_bytes_per_subtask: float = 0.0

    def predict(self, flops: float, num_steps: int) -> float:
        """Predicted subtask seconds at ``flops`` / ``num_steps``."""
        return (
            self.seconds_per_flop * flops
            + self.seconds_per_step * num_steps
            + self.comms_seconds_per_subtask
        )


def _fit_backend(records: List[CalibrationRecord]) -> BackendCoefficients:
    """Least-squares fit of one backend's samples, never negative.

    With a single workload the two regressors are collinear, so the fit
    degenerates to a through-origin throughput estimate (all of the time
    is attributed to the flops term); with two or more distinct workloads
    the per-step overhead becomes identifiable.
    """
    rows: List[Tuple[float, float]] = []
    times: List[float] = []
    for record in records:
        for sample in record.seconds:
            rows.append((record.subtask_flops, float(record.num_steps)))
            times.append(sample)
    a = np.asarray(rows, dtype=np.float64)
    y = np.asarray(times, dtype=np.float64)
    # the comms terms are measured constants, not regressors: average them
    # across records weighted by how many samples each contributed
    comms_seconds = float(
        sum(r.comms_seconds_per_subtask * len(r.seconds) for r in records) / len(times)
    )
    payload_bytes = float(
        sum(r.payload_bytes_per_subtask * len(r.seconds) for r in records) / len(times)
    )
    if len({row for row in rows}) >= 2:
        coefficients, *_ = np.linalg.lstsq(a, y, rcond=None)
        per_flop, per_step = (float(c) for c in coefficients)
        if per_flop >= 0 and per_step >= 0:
            return BackendCoefficients(
                per_flop, per_step, len(times), comms_seconds, payload_bytes
            )
    # degenerate (or sign-flipped) fit: attribute everything to throughput
    per_flop = float(np.sum(y * a[:, 0]) / np.sum(a[:, 0] ** 2))
    return BackendCoefficients(
        max(per_flop, 0.0), 0.0, len(times), comms_seconds, payload_bytes
    )


class CalibratedCostModel(CostModel):
    """Per-backend subtask-time predictions fitted from measured runs.

    Parameters
    ----------
    coefficients:
        Backend name → fitted :class:`BackendCoefficients`.
    default_backend:
        Backend assumed when a prediction names none; defaults to the
        first fitted backend (insertion order).
    fallback:
        Optional model consulted for backends with no measurements (an
        :class:`~repro.costs.model.AnalyticCostModel`, typically).
        Without one, predicting for an unmeasured backend raises
        :class:`~repro.costs.model.CostModelError`.
    memory_target_rank:
        Optional memory target for the lifetime-aware auto batch group.
    """

    def __init__(
        self,
        coefficients: Mapping[str, BackendCoefficients],
        default_backend: Optional[str] = None,
        fallback: Optional[CostModel] = None,
        memory_target_rank: Optional[int] = None,
    ) -> None:
        super().__init__(memory_target_rank)
        if not coefficients:
            raise CostModelError("a calibrated model needs at least one backend")
        self.coefficients: Dict[str, BackendCoefficients] = dict(coefficients)
        if default_backend is None:
            default_backend = next(iter(self.coefficients))
        if default_backend not in self.coefficients:
            raise CostModelError(
                f"default backend {default_backend!r} has no fitted coefficients"
            )
        self.default_backend = default_backend
        self.fallback = fallback

    # ------------------------------------------------------------------
    @property
    def backends(self) -> Tuple[str, ...]:
        """Backends with fitted coefficients."""
        return tuple(self.coefficients)

    def subtask_seconds(
        self,
        tree: ContractionTree,
        sliced: AbstractSet[str] = frozenset(),
        backend: Optional[str] = None,
    ) -> float:
        """Predicted cache-warm per-subtask seconds on ``backend``.

        The coefficients were regressed against slice-dependent work (the
        measured samples exclude the one-off invariant warm-up), so the
        prediction applies the same dependent-only flops/steps of the
        target workload — a tree whose subtasks are mostly cache-served
        is predicted cheap even if its full Eq. 1 cost is large.
        """
        name = backend if backend is not None else self.default_backend
        fitted = self.coefficients.get(name)
        if fitted is None:
            # "backend+native" without a native fit: the plain backend
            # coefficients are the closest measured substitute
            fitted = self.coefficients.get(name.partition("+")[0])
        if fitted is None:
            if self.fallback is not None:
                return self.fallback.subtask_seconds(tree, sliced, backend=backend)
            raise CostModelError(
                f"no calibration for backend {name!r} "
                f"(measured: {sorted(self.coefficients)}) and no fallback model"
            )
        sliced = frozenset(sliced)
        return fitted.predict(
            self.dependent_subtask_flops(tree, sliced),
            self.dependent_step_count(tree, sliced),
        )

    def subtask_work_flops(
        self, tree: ContractionTree, sliced: AbstractSet[str] = frozenset()
    ) -> float:
        """The dependent (cache-warm) flops this model's seconds cover."""
        return self.dependent_subtask_flops(tree, sliced)

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        records: Iterable[CalibrationRecord],
        default_backend: Optional[str] = None,
        fallback: Optional[CostModel] = None,
        memory_target_rank: Optional[int] = None,
    ) -> "CalibratedCostModel":
        """Fit per-backend coefficients from calibration records.

        Records are grouped by :attr:`CalibrationRecord.key`, so samples
        from the native tape engine fit a separate
        ``"<backend>+native"`` coefficient set instead of being averaged
        into the Python walker's.
        """
        by_backend: Dict[str, List[CalibrationRecord]] = {}
        for record in records:
            by_backend.setdefault(record.key, []).append(record)
        if not by_backend:
            raise CostModelError("no calibration records to fit")
        coefficients = {
            name: _fit_backend(backend_records)
            for name, backend_records in by_backend.items()
        }
        return cls(
            coefficients,
            default_backend=default_backend,
            fallback=fallback,
            memory_target_rank=memory_target_rank,
        )

    @classmethod
    def from_bench_json(
        cls,
        source: Union[str, Path, Mapping],
        default_backend: Optional[str] = None,
        fallback: Optional[CostModel] = None,
        memory_target_rank: Optional[int] = None,
    ) -> "CalibratedCostModel":
        """Fit from the ``calibration`` section of the bench JSON.

        ``source`` is a path to ``BENCH_exec_plan.json`` (or any mapping
        with the same shape); the section is written by
        :func:`calibration_payload` from the quick-bench run in CI.
        """
        if isinstance(source, (str, Path)):
            payload = json.loads(Path(source).read_text())
        else:
            payload = dict(source)
        calibration = payload.get("calibration", payload)
        backends = calibration.get("backends")
        if not backends:
            raise CostModelError("no 'calibration' backends in the bench JSON")
        subtask_flops = float(calibration["subtask_flops"])
        num_steps = int(calibration["num_steps"])
        records = []
        for name, entry in backends.items():
            if not entry.get("subtask_seconds"):
                continue
            # keys may be engine-qualified ("serial+native"); the entry's
            # own tape_engine field wins when both are present.  Entries
            # written before the array-module seam was removed may carry
            # an "array_module" field; it is ignored.
            base, _, key_engine = name.partition("+")
            records.append(
                CalibrationRecord(
                    backend=base,
                    subtask_flops=subtask_flops,
                    num_steps=num_steps,
                    seconds=tuple(entry["subtask_seconds"]),
                    tape_engine=entry.get("tape_engine") or key_engine or "python",
                    comms_seconds_per_subtask=float(
                        entry.get("comms_seconds_per_subtask", 0.0)
                    ),
                    payload_bytes_per_subtask=float(
                        entry.get("payload_bytes_per_subtask", 0.0)
                    ),
                )
            )
        return cls.fit(
            records,
            default_backend=default_backend,
            fallback=fallback,
            memory_target_rank=memory_target_rank,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CalibratedCostModel(backends={sorted(self.coefficients)}, "
            f"default={self.default_backend!r})"
        )


def calibration_payload(
    stats_by_backend: Mapping[str, "PlanStats"],  # noqa: F821 - duck-typed
    tree: ContractionTree,
    sliced: AbstractSet[str],
) -> Dict:
    """JSON-serializable calibration section for the bench results file.

    One entry per backend: the (truncated) per-subtask samples plus the
    per-stage wall times, alongside the workload's *dependent* (cache-warm)
    flops and step count — the work the samples actually cover, and
    exactly what :meth:`CalibratedCostModel.from_bench_json` consumes.
    Batched-sweep stats are skipped for the same reason
    :meth:`CalibrationRecord.from_stats` rejects them, and so are
    uncached runs (their samples time the full Eq. 1 work, which the
    section's single dependent-flops label cannot represent).
    """
    dependent_flops = CostModel.dependent_subtask_flops(tree, sliced)
    full_flops = CostModel.subtask_flops(tree, sliced)
    backends: Dict[str, Dict] = {}
    for name, stats in stats_by_backend.items():
        samples = list(stats.subtask_seconds)
        if not samples or getattr(stats, "batched_executions", 0):
            continue
        if stats.cache_hits == 0 and dependent_flops != full_flops:
            # uncached run on a workload with an invariant fraction:
            # mislabelled samples would bias the fit
            continue
        timed = getattr(stats, "timed_subtasks", 0) or len(samples)
        comms_seconds = float(getattr(stats, "comms_seconds", 0.0))
        comms_bytes = float(getattr(stats, "comms_bytes", 0))
        backends[name] = {
            "subtask_seconds": samples[:MAX_SAMPLES_PERSISTED],
            # exact aggregates — the sample list itself is bounded
            "subtask_seconds_mean": float(stats.mean_subtask_seconds),
            "subtask_seconds_count": int(timed),
            "stage_seconds": dict(stats.stage_seconds),
            "tape_engine": getattr(stats, "tape_engine", None) or "python",
            "comms_seconds_per_subtask": comms_seconds / timed if timed else 0.0,
            "payload_bytes_per_subtask": comms_bytes / timed if timed else 0.0,
        }
    return {
        "subtask_flops": dependent_flops,
        "num_steps": CostModel.dependent_step_count(tree, sliced),
        "backends": backends,
    }
