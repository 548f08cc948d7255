"""The two execution workloads: ``large_subtasks`` and ``small_subtasks``.

Same ``execution`` layer, used in opposite ways: 16 subtasks of ~45 ms
(GEMM-bound; kernels, buffers and worker parallelism matter) against 512
subtasks of ~0.5 ms (dispatch-bound; fusion, batching, chunking, pool and
checkpoint-write overhead matter).  An optimisation that helps one by
costing the other shows in both rows.

``--seed`` draws the circuit's gates and the output bitstring — the
numbers every amplitude is checked on.  The planner seed is pinned: the
tensor network's *structure* does not depend on the gate draws, so a
pinned planner returns the same tree and slicing for every ``--seed`` and
the realised size (in the stamp) stays put; a seed-driven planner moves
``execute_s`` tenfold between seeds (README, "why optimiser seeds are
pinned").
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import api
from .base import Workload
from .harness import (
    WORKERS,
    Probe,
    Value,
    probed,
    run_rounds,
    scratch_dir,
    timed,
    traced_peak_bytes,
)
from .stages import (
    bench_layers,
    check_plan,
    planning_layers,
    staged_plan,
    time_front_door,
)
from .trace import Recorder

#: Slots between ledger flushes on the checkpointed variant.
CHECKPOINT_EVERY = 16
#: The einsum reference runs this fraction of the subtasks and is scaled
#: up: a full reference pass of ``large_subtasks`` takes 29 s.
REFERENCE_FRACTION = 16

BACKENDS = ("serial", "threads", "pool", "distributed")
#: Engine name -> the variant that runs it (the reference runs apart, on a fraction).
ENGINES = {"stepwise": "serial", "fused": "fused", "batched": "batched"}


@dataclass(frozen=True)
class Size:
    rows: int
    cols: int
    cycles: int
    target_rank: int
    trials: int
    planner_seed: int
    #: Variants (besides serial) that get an end-to-end cell here.
    end_to_end: Tuple[str, ...]
    #: ``"dense"`` state vector, or the unsliced ``"tree"`` contraction
    #: where the register is past a dense state.
    oracle: str


SIZES = {
    "large_subtasks": Size(5, 7, 9, 18, 8, 1, ("threads", "distributed"), "tree"),
    "small_subtasks": Size(4, 5, 10, 10, 8, 1, ("fused", "batched", "pool"), "dense"),
}
SMOKE_SIZES = {
    "large_subtasks": Size(3, 4, 6, 4, 2, 1, ("threads", "distributed"), "tree"),
    "small_subtasks": Size(3, 4, 6, 3, 2, 1, ("fused", "batched", "pool"), "dense"),
}


class Variant:
    """One way of running the same sliced contraction, opened once, reused."""

    def __init__(self, kind: str, plan, subtask_ids: Optional[List[int]] = None) -> None:
        self.kind = kind
        self.backend = None
        self.session = None
        self.subtask_ids = subtask_ids
        kwargs: Dict[str, object] = {}
        if kind in ("threads", "pool", "distributed"):
            self.backend = kwargs["backend"] = api.backend(kind, WORKERS)
        elif kind == "fused":
            kwargs["fused"] = True
        elif kind == "batched":
            kwargs["batch_indices"] = "auto"
        elif kind == "reference":
            kwargs["mode"] = "reference"
        elif kind == "checkpointed":
            kwargs["backend"] = api.backend("serial", 1)
            kwargs["fault_policy"] = api.checkpoint_policy(CHECKPOINT_EVERY)
        elif kind != "serial":
            raise ValueError(f"unknown variant {kind!r}")
        self.compile_s, self.executor = timed(
            lambda: api.sliced_executor(plan.network, plan.tree, plan.slicing.sliced, **kwargs)
        )
        self.open_s = 0.0
        if kind != "reference":
            self.open_s, self.session = timed(self.executor.session)

    @property
    def workers(self) -> int:
        return WORKERS if self.backend is not None else 1

    def run(self) -> Tuple[float, complex]:
        """``(seconds, accumulated value)`` of one full pass."""
        if self.kind == "checkpointed":
            with scratch_dir("ckpt-") as root:  # a fresh store per sample
                return timed(
                    lambda: self.executor.amplitude(resume=api.checkpoint_store(root))
                )
        return timed(lambda: self.executor.amplitude(self.subtask_ids))

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.backend is not None:
            self.backend.close()
            self.backend = None


class ExecWorkload(Workload):
    """A concrete grid circuit planned by the front door, then executed."""

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.size = (SMOKE_SIZES if smoke else SIZES)[self.name]
        self.bitstring = self.bits(self.size.rows * self.size.cols)
        self.circuit = None
        self.plan = None
        self.variants: Dict[str, Variant] = {}
        self.serial_value: Optional[complex] = None

    # ------------------------------------------------------------------
    def _make_circuit(self):
        s = self.size
        return api.grid_circuit(s.rows, s.cols, cycles=s.cycles, seed=self.seed)

    def _front_door(self):
        s = self.size
        return time_front_door(
            s.target_rank, s.trials, s.planner_seed, self.circuit, self.bitstring, True
        )

    def _setup(self) -> None:
        """Everything before the first subtask can run, default configuration."""
        self.circuit = self._make_circuit()
        _, self.plan, _ = self._front_door()
        self.variants = {"serial": Variant("serial", self.plan)}

    def close(self) -> None:
        for variant in self.variants.values():
            variant.close()
        self.variants = {}

    def _open(self, kinds) -> None:
        for kind in kinds:
            if kind not in self.variants:
                self.variants[kind] = Variant(kind, self.plan)

    def _oracle(self) -> complex:
        if self.size.oracle == "dense":
            return complex(api.dense_state(self.circuit)[tuple(self.bitstring)])
        tensor = api.contract_tree(self.plan.network, self.plan.tree)
        return complex(tensor.require_data().reshape(())) * self.plan.scalar_prefactor

    def _ready(self) -> complex:
        """Checks that follow every set-up; returns the oracle amplitude."""
        check_plan(
            self.checks, self.plan.slicing, self.plan.network, self.size.target_rank, "front door"
        )
        executor = self.variants["serial"].executor
        subtasks = executor.num_subtasks
        self.sizes = {
            "qubits": self.circuit.num_qubits,
            "tensors": self.plan.network.num_tensors,
            "peak_rank": self.plan.tree.max_rank(),
            "sliced_rank": self.plan.slicing.max_rank,
            "sliced_edges": self.plan.slicing.num_sliced,
            "subtasks": subtasks,
        }
        return self._oracle()

    def _run_checked(self, kind: str, oracle: complex) -> float:
        """One timed pass of a variant, its value checked; returns seconds."""
        variant = self.variants[kind]
        seconds, value = variant.run()
        self.checks.close(value * self.plan.scalar_prefactor, oracle, f"{kind} amplitude")
        if kind == "serial":
            self.serial_value = value
        elif kind != "batched" and self.serial_value is not None:
            # batching sums in another order; every other variant folds
            # contributions in assignment order and must match bit for bit
            self.checks.same_bits(value, self.serial_value, f"{kind} vs serial")
        return seconds

    def _round(self, kinds, oracle: complex, metric_of=lambda kind: kind) -> Dict[str, float]:
        """One timed, checked pass of every variant in ``kinds``, in order."""
        out = {}
        for kind in kinds:
            spent = self.checks.guard(kind, lambda: self._run_checked(kind, oracle))
            if spent is not None:
                out[metric_of(kind)] = spent
        return out

    def _cold_amplitude(self, oracle: complex) -> float:
        """Fresh planner: ``plan_circuit`` + ``execute_plan``, nothing reused."""
        plan_s, plan, front_door = self._front_door()
        execute_s, value = timed(lambda: front_door.execute_plan(plan))
        self.checks.close(value, oracle, "front-door amplitude")
        return plan_s + execute_s

    # ------------------------------------------------------------------
    def measure(self, seconds: float, probe: Probe) -> Dict[str, Value]:
        setup = self.time_setup(probe, self._setup, self.close)
        oracle = self._ready()
        kinds = ("serial",) + self.size.end_to_end
        self._open(kinds)
        self._round(kinds + self.size.end_to_end, oracle)  # pools fork workers in their first passes

        def one_round():
            out = self._round(
                kinds, oracle, lambda k: "execute_s" if k == "serial" else f"execute_{k}_s"
            )
            cold = self.checks.guard("front door", lambda: self._cold_amplitude(oracle))
            if cold is not None:
                out["time_to_amplitude_s"] = cold
            return out

        timings = run_rounds(probe, one_round, seconds, self.min_rounds)
        self.raw_rounds = timings.dump()
        peak = self._peak_bytes("serial")
        headline = timings.value("execute_s")
        sliced = self.plan.slicing.sliced
        self.sizes["ms_per_subtask"] = 1e3 * headline.median / self.sizes["subtasks"]
        self.sizes["rounds"] = len(timings)
        values = {name: timings.value(name) for name in timings.names()}
        values.update(
            {
                "setup_s": setup,
                "peak_bytes": Value.exact("bytes", peak),
                "slicing_overhead": Value.exact("ratio", self.plan.slicing.overhead),
                "log10_sliced_flops": Value.exact(
                    "log10", self.plan.tree.log10_total_cost(sliced)
                ),
            }
        )
        return self.fill(values, headline)

    def _peak_bytes(self, kind: str, subtask_ids: Optional[List[int]] = None) -> int:
        """Peak traced bytes of a whole fresh execution: arena, cache, run."""

        def fresh_pass():
            variant = Variant(kind, self.plan, subtask_ids)
            try:
                variant.run()
            finally:
                variant.close()

        return traced_peak_bytes(fresh_pass)

    # ------------------------------------------------------------------
    def _staged_run(self, rec: Recorder):
        """The whole pipeline, one public call per span, subtask by subtask."""
        s = self.size
        staged = staged_plan(
            rec, self._make_circuit, self.bitstring, True, s.target_rank, s.trials, s.planner_seed
        )
        with rec.span("plan.compile", "plan"):
            executor = api.sliced_executor(staged.network, staged.tree, staged.slicing.sliced)
        with rec.span("plan.warm_cache", "plan"):
            session = executor.session()
        subtask_s: List[float] = []
        try:
            with rec.span("execute", "execution") as span:
                total = None
                for index in range(executor.num_subtasks):
                    with rec.span(f"subtask[{index}]", "execution") as sub:
                        data = executor.run_subtask(index).tensor.require_data()
                    subtask_s.append(sub.seconds)
                    total = np.array(data, copy=True) if total is None else total + data
                span.counts["subtasks"] = executor.num_subtasks
        finally:
            session.close()
        value = complex(total.reshape(())) * staged.prefactor
        return staged, executor, subtask_s, value

    def trace(self, seconds: float, probe: Probe, recorder: Recorder) -> Dict[str, Value]:
        started = time.perf_counter()
        s = self.size
        # the front door first: it warms every code path the staged passes
        # use, and what it adds over the layers it covers is a metric
        self.circuit = self._make_circuit()
        _, front_f, (front_door_s, self.plan, front_door) = probed(probe, self._front_door)
        execute_plan_s, execute_f, front_value = probed(
            probe, lambda: front_door.execute_plan(self.plan)
        )
        off = Recorder(self.name, enabled=False)
        untraced_s, untraced_f, _ = probed(probe, lambda: self._staged_run(off))

        def traced_pass():
            with recorder.span("pipeline", "bench"):
                return self._staged_run(recorder)

        traced_s, traced_f, (staged, staged_executor, subtask_s, staged_value) = probed(
            probe, traced_pass
        )

        self.variants = {"serial": Variant("serial", self.plan)}
        oracle = self._ready()
        self.checks.expect(
            self.plan.slicing.sliced == staged.slicing.sliced, "staged plan differs from plan_circuit"
        )
        self.checks.close(staged_value, oracle, "staged amplitude")
        self.checks.close(front_value, oracle, "front-door amplitude")
        values = planning_layers(
            recorder, staged, s.trials, s.planner_seed, front_door_s * front_f, traced_f
        )
        values["pipeline.execute_plan_s"] = Value.exact("s", execute_plan_s * execute_f)
        values.update(
            self._variant_layers(probe, oracle, seconds - (time.perf_counter() - started))
        )
        values.update(
            self._plan_layers(
                values,
                [seconds * traced_f for seconds in subtask_s],
                staged_executor.stats.steps_executed,
                traced_f * sum(recorder.seconds("plan.compile")),
                traced_f * sum(recorder.seconds("plan.warm_cache")),
            )
        )
        values.update(bench_layers(probe, traced_s * traced_f, untraced_s * untraced_f))
        return values

    def _variant_layers(self, probe: Probe, oracle: complex, budget: float) -> Dict[str, Value]:
        """Every engine and backend on this workload, timed round-robin."""
        subtasks = self.sizes["subtasks"]
        some = list(range(max(1, subtasks // REFERENCE_FRACTION)))
        # the pool forks its workers, so it opens before any thread exists
        self._open(("fused", "batched", "pool", "threads", "distributed", "checkpointed"))
        self.variants["reference"] = Variant("reference", self.plan, some)
        kinds = [k for k in self.variants if k != "reference"]
        self._round(kinds, oracle)
        before = {k: self._counters(k) for k in kinds}
        timings = run_rounds(
            probe, lambda: self._round(kinds, oracle), budget, 1 if self.smoke else 2
        )
        after = {k: self._counters(k) for k in kinds}
        wall = {k: timings.value(k) for k in timings.names()}
        serial = wall["serial"]

        def per_round(kind: str, key: str) -> float:
            return (after[kind][key] - before[kind][key]) / len(timings)

        reference_s, _ = self.variants["reference"].run()
        values = {
            "engine.reference.execute_s": Value.exact("s", reference_s * subtasks / len(some)),
            "engine.reference.peak_bytes": Value.exact(
                "bytes", self._peak_bytes("reference", some[:1])
            ),
        }
        for engine, kind in ENGINES.items():
            values[f"engine.{engine}.execute_s"] = wall[kind]
            values[f"engine.{engine}.peak_bytes"] = Value.exact("bytes", self._peak_bytes(kind))
        fused = self.variants["fused"]
        values.update(
            {
                "engine.fused.compile_s": Value.exact("s", fused.compile_s),
                "engine.fused.fused_steps": Value.exact("count", per_round("fused", "fused_steps")),
                "engine.fused.breaks": Value.exact(
                    "count", sum(fused.executor.stats.fusion_breaks.values())
                ),
                "engine.fused.native": Value.exact(
                    "flag", 1.0 if fused.executor.stats.tape_engine == "native" else 0.0
                ),
            }
        )
        for kind in BACKENDS:
            values[f"backend.{kind}.execute_s"] = wall[kind]
            busy = per_round(kind, "busy_s") / (
                self.variants[kind].workers * statistics.mean(timings.raw(kind))
            )
            values[f"backend.{kind}.busy_fraction"] = Value.exact("ratio", busy)
            if kind != "serial":
                values[f"backend.{kind}.speedup_vs_serial"] = Value.exact(
                    "ratio", serial.median / wall[kind].median
                )
        distributed = self.variants["distributed"]
        armed = wall["checkpointed"]
        values.update(
            {
                "backend.pool.session_open_s": Value.exact("s", self.variants["pool"].open_s),
                "backend.distributed.session_open_s": Value.exact("s", distributed.open_s),
                "distributed.comms_s": Value.exact("s", per_round("distributed", "comms_s")),
                "distributed.comms_bytes": Value.exact(
                    "bytes", per_round("distributed", "comms_bytes")
                ),
                "distributed.chunk_roundtrips": Value.exact(
                    "count", per_round("distributed", "roundtrips")
                ),
                "distributed.broadcast_bytes": Value.exact(
                    "bytes", distributed.session.broadcast_bytes
                ),
                "checkpoint.execute_s": armed,
                "checkpoint.overhead_ratio": Value.exact("ratio", armed.median / serial.median),
                "checkpoint.flush_s_per_slot": Value.exact(
                    "s", (armed.median - serial.median) / subtasks
                ),
                "plan.cache_hits": Value.exact("count", per_round("serial", "cache_hits")),
                "plan.slot_writes": Value.exact("count", per_round("serial", "slot_writes")),
            }
        )
        values.update(self._resume(subtasks))
        return values

    def _plan_layers(
        self,
        values: Dict[str, Value],
        subtask_s: List[float],
        steps_executed: int,
        compile_s: float,
        warm_cache_s: float,
    ) -> Dict[str, Value]:
        """The plan layer: subtask spans, counters, predicted against measured."""
        sliced = self.plan.slicing.sliced
        subtasks = self.sizes["subtasks"]
        predicted = api.AnalyticCostModel().subtask_seconds(self.plan.tree, sliced)
        peak_predicted = 16.0 * 2.0 ** self.plan.slicing.max_rank
        subtask = Value.of("s", subtask_s)
        ordered = sorted(subtask_s)
        serial_s = values["backend.serial.execute_s"].median
        return {
            "plan.compile_s": Value.exact("s", compile_s),
            "plan.warm_cache_s": Value.exact("s", warm_cache_s),
            "plan.subtask_s": subtask,
            "plan.subtask_p90_s": Value.exact("s", ordered[math.ceil(0.9 * len(ordered)) - 1]),
            "plan.steps_per_subtask": Value.exact("count", steps_executed / subtasks),
            "plan.useful_gflops": Value.exact(
                "GF/s", 8.0 * self.plan.tree.total_cost(sliced) / serial_s / 1e9
            ),
            "plan.peak_over_predicted": Value.exact(
                "ratio", values["engine.stepwise.peak_bytes"].median / peak_predicted
            ),
            "core.predicted_peak_bytes": Value.exact("bytes", peak_predicted),
            "costs.predicted_subtask_s": Value.exact("s", predicted),
            "costs.prediction_ratio": Value.exact("ratio", predicted / subtask.median),
        }

    def _counters(self, kind: str) -> Dict[str, float]:
        stats = self.variants[kind].executor.stats
        return {
            "busy_s": stats.subtask_seconds_sum,
            "cache_hits": stats.cache_hits,
            "slot_writes": stats.slot_writes,
            "fused_steps": stats.fused_steps,
            "comms_s": stats.comms_seconds,
            "comms_bytes": stats.comms_bytes,
            "roundtrips": stats.chunk_roundtrips,
        }

    def _resume(self, subtasks: int) -> Dict[str, Value]:
        """Kill the coordinator half-way, then time the resume of its ledger."""
        network, tree, sliced = self.plan.network, self.plan.tree, self.plan.slicing.sliced
        with scratch_dir("resume-") as root:
            store = api.checkpoint_store(root)

            def armed(injector=None):
                return api.sliced_executor(
                    network,
                    tree,
                    sliced,
                    backend=api.backend("serial", 1),
                    fault_policy=api.checkpoint_policy(CHECKPOINT_EVERY),
                    fault_injector=injector,
                )

            died = False
            try:
                armed(api.kill_coordinator_at(subtasks // 2)).run(resume=store)
            except api.InjectedCoordinatorDeath:
                died = True
            self.checks.expect(died, "kill-coordinator did not fire")
            survivor = armed()
            resume_s, value = timed(lambda: survivor.amplitude(resume=store))
            self.checks.same_bits(value, self.serial_value, "resumed vs serial")
            return {
                "checkpoint.resume_s": Value.exact("s", resume_s),
                "checkpoint.resumed_slots": Value.exact("count", survivor.stats.resumed_slots),
            }


class LargeSubtasks(ExecWorkload):
    name = "large_subtasks"


class SmallSubtasks(ExecWorkload):
    name = "small_subtasks"
    samples_under_a_second = True
