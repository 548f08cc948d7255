"""The ``correlated_sampling`` workload: the paper's headline deliverable.

One ``CorrelatedSampler.compute_batch`` call contracts a network with 8
open output qubits and returns 256 correlated amplitudes.  The sampler
re-plans and re-compiles per base bitstring, so ``tensornet``, ``paths``
and the plan compiler sit *inside* the serving loop — a faster path search
shows here as samples per second, not as set-up time.

``--seed`` draws the circuit's gates and every base bitstring; the open
qubits and the sampler's planner seed are pinned so every batch contracts
the same structure (see ``execution.py`` on why).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from . import api
from .base import Workload
from .harness import Probe, Value, probed, run_rounds, timed, traced_peak_bytes
from .stages import bench_layers
from .trace import Recorder

#: Two batches a round: five rounds already give ten samples, ten seconds 14.
BATCHES_PER_ROUND = 2
TRACED_BATCHES = 4


class CorrelatedSampling(Workload):
    name = "correlated_sampling"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        (self.rows, self.cols, self.cycles, self.open_qubits, self.target, self.trials) = (
            (3, 3, 6, (0, 2, 4), 3, 2) if smoke else (4, 5, 8, tuple(range(0, 16, 2)), 11, 8)
        )
        self.planner_seed = 1
        self.results_per_headline = 2 ** len(self.open_qubits)
        self._warm_base = self._base()
        self.circuit = None
        self.sampler = None
        self.session = None
        self.state = None
        self._last_plan = None

    def _base(self) -> List[int]:
        return self.bits(self.rows * self.cols)

    def _setup(self, rec: Optional[Recorder] = None) -> None:
        """Circuit, sampler, session and one batch to warm every code path."""
        rec = rec or Recorder(self.name, enabled=False)
        with rec.span("circuits.build", "circuits"):
            self.circuit = api.grid_circuit(
                self.rows, self.cols, cycles=self.cycles, seed=self.seed
            )
        self.sampler = api.sampler(
            self.circuit, self.open_qubits, self.target, self.trials, self.planner_seed
        )
        self.session = self.sampler.session()
        self.sampler.compute_batch(self._warm_base)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.sampler is not None:
            self.sampler.close()

    def _expected(self, base: List[int]) -> np.ndarray:
        """The oracle's 2^k amplitudes: closed qubits fixed, open ones free."""
        index = tuple(
            slice(None) if qubit in self.open_qubits else base[qubit]
            for qubit in range(len(base))
        )
        return self.state[index]

    def _slicing(self, network, tree):
        """The slicing ``compute_batch`` derives for a batch tree."""
        if tree.max_rank() <= self.target:
            return frozenset()
        found = api.LifetimeSliceFinder(self.target).find(tree)
        inner = network.inner_indices()
        return frozenset(ix for ix in found.sliced if ix in inner)

    def _batch(self) -> float:
        base = self._base()
        seconds, batch = timed(lambda: self.sampler.compute_batch(base))
        self.checks.close(batch.amplitudes, self._expected(base), "batch amplitudes")
        return seconds

    # ------------------------------------------------------------------
    def measure(self, seconds: float, probe: Probe) -> Dict[str, Value]:
        setup = self.time_setup(probe, self._setup, self.close)
        self.state = api.dense_state(self.circuit)

        def one_round():
            spent = [
                self.checks.guard("compute_batch", self._batch) for _ in range(BATCHES_PER_ROUND)
            ]
            return {"batch_s": [s for s in spent if s is not None]}

        timings = run_rounds(probe, one_round, seconds, self.min_rounds)
        self.raw_rounds = timings.dump()
        base = self._base()
        peak = traced_peak_bytes(lambda: self.sampler.compute_batch(base))
        network, _, _ = self.sampler.build_network(base)
        tree = self.sampler.plan_tree(network)
        sliced = self._slicing(network, tree)
        per = self.results_per_headline
        headline = timings.value("batch_s")
        self.sizes = {
            "qubits": self.circuit.num_qubits,
            "open_qubits": len(self.open_qubits),
            "tensors": network.num_tensors,
            "peak_rank": tree.max_rank(),
            "sliced_edges": len(sliced),
            "subtasks": tree.num_subtasks(sliced),
            "batches": len(timings.raw("batch_s")),
            "rounds": len(timings),
        }
        return self.fill(
            {
                "setup_s": setup,
                "samples_per_s": Value.of(
                    "1/s",
                    [per / s for s in timings.corrected("batch_s")],
                    [per / s for s in timings.raw("batch_s")],
                ),
                "peak_bytes": Value.exact("bytes", peak),
                "slicing_overhead": Value.exact("ratio", tree.slicing_overhead(sliced)),
                "log10_sliced_flops": Value.exact("log10", tree.log10_total_cost(sliced)),
            },
            headline,
        )

    # ------------------------------------------------------------------
    def _staged_batch(self, rec: Recorder, base: List[int], index: int) -> np.ndarray:
        """``compute_batch`` made of its public pieces, one span each."""
        sampler = self.sampler
        with rec.span(f"sampling.batch[{index}]", "sampling"):
            with rec.span("tensornet.convert", "tensornet") as span:
                network, open_index, prefactor = sampler.build_network(base)
                span.counts["num_tensors"] = network.num_tensors
            with rec.span("paths.search", "paths"):
                tree = sampler.plan_tree(network)
            with rec.span("core.slice_find", "core"):
                sliced = self._slicing(network, tree)
            self._last_plan = (network, tree, sliced)
            with rec.span("plan.compile", "plan"):
                executor = api.sliced_executor(network, tree, sliced)
            with rec.span("execute", "execution"):
                tensor = executor.run()
            order = tuple(open_index[q] for q in sampler.open_qubits)
            return np.asarray(tensor.transposed(order).require_data()) * prefactor

    def trace(self, seconds: float, probe: Probe, recorder: Recorder) -> Dict[str, Value]:
        self._setup(recorder)
        self.state = api.dense_state(self.circuit)
        off = Recorder(self.name, enabled=False)
        batches = 1 if self.smoke else TRACED_BATCHES
        front_door_s, probabilities = [], []
        untraced_s = traced_s = traced_raw_s = 0.0
        for index in range(batches):
            base = self._base()
            expected = self._expected(base)
            spent, factor, batch = probed(probe, lambda: self.sampler.compute_batch(base))
            front_door_s.append(spent * factor)
            self.checks.close(batch.amplitudes, expected, "batch amplitudes")
            spent, factor, _ = probed(probe, lambda: self._staged_batch(off, base, index))
            untraced_s += spent * factor
            spent, factor, staged = probed(
                probe, lambda: self._staged_batch(recorder, base, index)
            )
            traced_s += spent * factor
            traced_raw_s += spent
            self.checks.close(staged, expected, "staged batch amplitudes")
            # ideal probabilities of bitstrings drawn from the batch itself
            drawn = batch.sample(64, seed=self.seed + index)
            probabilities.extend(abs(self.state[tuple(bits)]) ** 2 for bits in drawn)

        drift = traced_s / traced_raw_s  # the traced batches' mean drift factor
        self.sizes = {"qubits": self.circuit.num_qubits, "open_qubits": len(self.open_qubits)}

        def span_s(name: str) -> float:
            return drift * sum(recorder.seconds(name))

        batch_s = span_s("sampling.batch")
        network, tree, sliced = self._last_plan
        seconds_of = {
            "circuits.build_s": span_s("circuits.build"),
            "tensornet.convert_s": span_s("tensornet.convert") / batches,
            "paths.search_s": span_s("paths.search") / batches,
            "paths.search_s_per_trial": span_s("paths.search") / batches / self.trials,
            "core.slice_find_s": span_s("core.slice_find") / batches,
            "plan.compile_s": span_s("plan.compile") / batches,
        }
        values = {name: Value.exact("s", s) for name, s in seconds_of.items()}
        values.update(
            {
                "tensornet.num_tensors": Value.exact("count", network.num_tensors),
                "paths.max_rank": Value.exact("count", tree.max_rank()),
                "paths.log10_flops": Value.exact("log10", tree.log10_total_cost()),
                "core.num_sliced": Value.exact("count", len(sliced)),
                "core.overhead_finder": Value.exact("ratio", tree.slicing_overhead(sliced)),
                "core.predicted_peak_bytes": Value.exact("bytes", 16.0 * 2.0 ** tree.max_rank(sliced)),
                "sampling.batch_s": Value.of("s", front_door_s),
                "sampling.build_share": Value.exact("ratio", span_s("tensornet.convert") / batch_s),
                "sampling.plan_share": Value.exact("ratio", span_s("paths.search") / batch_s),
                "sampling.execute_share": Value.exact("ratio", span_s("execute") / batch_s),
                "sampling.xeb": Value.exact(
                    "ratio", api.linear_xeb_fidelity(probabilities, self.circuit.num_qubits)
                ),
            }
        )
        values.update(bench_layers(probe, traced_s, untraced_s))
        return values
