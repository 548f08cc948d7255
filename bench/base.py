"""What the five workloads share: life cycle, set-up timing, cell filling."""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from . import metrics
from .harness import Checks, Probe, Timings, Value, timed
from .trace import Recorder


class Workload:
    """One benchmark workload.

    ``measure`` produces the end-to-end metrics from untraced, round-robin
    rounds; ``trace`` produces the per-layer metrics from a pass in which
    the benchmark calls each layer itself, under a :class:`Recorder`.
    ``close`` releases every pool, session and scratch directory.
    """

    name = ""
    #: Results a headline operation delivers (amplitudes, plans, trees).
    results_per_headline = 1
    #: Whether a round yields one sample of a timing that is under a second.
    samples_under_a_second = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.rng = np.random.default_rng(self.seed)
        self.checks = Checks()
        #: Realised sizes for the run stamp, so a shifted size is visible.
        self.sizes: Dict[str, float] = {}
        #: Every raw end-to-end sample by round, for the ``--out`` file.
        self.raw_rounds: Dict[str, object] = {}
        self.setup_repeats = 1 if smoke else 3
        #: At least 9 samples of a timing under 1 s, at least 5 above.
        self.min_rounds = 2 if smoke else (9 if self.samples_under_a_second else 5)

    # -- subclass surface ----------------------------------------------
    def measure(self, seconds: float, probe: Probe) -> Dict[str, Value]:
        raise NotImplementedError

    def trace(self, seconds: float, probe: Probe, recorder: Recorder) -> Dict[str, Value]:
        raise NotImplementedError

    def close(self) -> None:
        """Release resident resources (idempotent)."""

    # -- helpers -------------------------------------------------------
    def bits(self, count: int) -> list:
        return [int(b) for b in self.rng.integers(0, 2, count)]

    def time_setup(
        self, probe: Probe, setup: Callable[[], object], teardown: Optional[Callable[[], None]] = None,
        repeats: Optional[int] = None,
    ) -> Value:
        """Set up ``repeats`` times (the last one stays) and report the median."""
        timings = Timings(probe)
        for index in range(repeats or self.setup_repeats):
            if index and teardown is not None:
                teardown()
            timings.run_round(lambda: {"setup_s": timed(setup)[0]})
        return timings.value("setup_s")

    def fill(self, values: Dict[str, Value], headline: Value) -> Dict[str, Value]:
        """Give every end-to-end cell a value.

        The driver wants every end-to-end metric from every workload.  A
        seconds cell this workload does not exercise repeats the
        workload's headline wall, and ``samples_per_s`` is results per
        headline second, so such a cell moves exactly when the headline
        does and never on its own.
        """
        source = metrics.HEADLINE[self.name]
        per = self.results_per_headline
        for metric in metrics.END_TO_END:
            if metric.name in values:
                continue
            if metric.unit == "s":
                values[metric.name] = headline.mirrored(source)
            elif metric.name == "samples_per_s":
                values[metric.name] = headline.mirrored(source, lambda s: per / s, "1/s")
            else:
                raise KeyError(f"{self.name} reports no {metric.name}")
        return values
