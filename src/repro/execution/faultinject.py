"""Deterministic, seeded fault injection for the execution backends.

Every recovery path of the resilience layer
(:mod:`repro.execution.resilience`) is exercisable on demand and
*reproducibly*: a :class:`FaultInjector` holds a list of
:class:`FaultSpec` entries, each naming a fault kind and the 0-based
**chunk submission ordinal** it fires on.  Ordinals are assigned in the
parent, in submission order (retries increment the counter too), so a
given injector produces the same fault sequence on every run — no race,
no wall-clock dependence, no RNG in the worker.

The injector itself never crosses the process boundary.  At submission
time the parent asks :meth:`FaultInjector.directive_for_next_chunk` for a
small picklable *directive* tuple that travels with the chunk task; the
worker applies it via :func:`apply_directive` before executing the chunk:

========================= ============================================== =
kind                      worker-side effect                 recovery path
========================= ============================================== =
``"kill-worker"``         ``os._exit(1)`` — hard death, no    crew rebuild
                          teardown hooks run (the SIGKILL     (re-fork)
                          analogue)
``"delay-chunk"``         sleeps ``seconds`` before           chunk timeout
                          executing
``"fail-segment-attach"`` raises as a failed attach of the  chunk retry
                          worker's state would; the worker
                          lives on
``"poison-pickle"``       raises ``pickle.UnpicklingError``   chunk retry
                          as a corrupt chunk payload would
``"drop-connection"``     severs the worker's coordinator     rebalance onto
                          socket mid-chunk, then exits — the  survivors /
                          cut-network-link analogue for the   respawn
                          distributed backend (elsewhere it
                          behaves like ``"kill-worker"``)
``"corrupt-result"``      flips one seeded bit in the chunk's checksum verify
                          returned payload *after* its        at harvest →
                          checksums were computed             chunk retry
                          (:func:`corrupt_payload`; the
                          silent-data-corruption analogue)
``"kill-coordinator"``    fires in the *coordinator* at a     durable chunk
                          harvest ordinal, not in a worker:   ledger +
                          raises                              ``resume=``
                          :exc:`InjectedCoordinatorDeath`     (see
                          (a ``BaseException``) that escapes  :mod:`.checkpoint`)
                          every recovery path and takes the
                          whole process down mid-run
========================= ============================================== =

The last two kinds were added with the durable-checkpoint layer
(:mod:`repro.execution.checkpoint`): ``"corrupt-result"`` proves a
poisoned payload is caught by the end-to-end checksums before a ledger
slot is persisted, and ``"kill-coordinator"`` drives the
restart-and-resume harness.  Coordinator-side faults consume a separate
**harvest ordinal** counter (:attr:`FaultInjector.harvested`, consulted
via :meth:`FaultInjector.coordinator_directive_for_next_harvest`), so
arming them never shifts the submission ordinals worker-side specs fire
on.

Injection is **opt-in** end to end and run-scoped: the scheduler
consults an injector only when one was passed (``injector=`` on
``run_subtasks``, i.e. the ``fault_injector=`` argument of
:class:`~repro.execution.SlicedExecutor` and friends), and a ``None``
directive is the hot path.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedCoordinatorDeath",
    "InjectedFault",
    "apply_coordinator_directive",
    "apply_directive",
    "corrupt_payload",
]

#: Fault kinds applied inside the unit that executes chunks.  This is the
#: default draw set for :meth:`FaultInjector.seeded` — deliberately frozen
#: at the original five kinds so existing seeds keep producing the exact
#: same fault sequences.
WORKER_FAULT_KINDS = (
    "kill-worker",
    "delay-chunk",
    "fail-segment-attach",
    "poison-pickle",
    "drop-connection",
)

#: Fault kinds applied in the coordinator, at harvest ordinals.
COORDINATOR_FAULT_KINDS = ("kill-coordinator",)

#: Every injectable fault kind.
FAULT_KINDS = WORKER_FAULT_KINDS + ("corrupt-result",) + COORDINATOR_FAULT_KINDS

#: A picklable directive: ``(kind, seconds)``.
Directive = Tuple[str, float]


class InjectedFault(RuntimeError):
    """Raised inside a worker (or thread) by an injected fault directive."""


class InjectedCoordinatorDeath(BaseException):
    """Injected death of the coordinator process itself.

    Deliberately a ``BaseException``: every recovery path in
    :mod:`repro.execution.resilience` and the backends catches
    ``Exception``, and a real coordinator death (SIGKILL, OOM) is exactly
    the failure none of them can intercept.  Raising this mid-harvest
    unwinds through the session (marking it broken), kills the process
    with a nonzero exit, and still lets interpreter-shutdown finalizers
    kill and reap the pool's children.
    The durable write-ahead ledger (:mod:`repro.execution.checkpoint`)
    fsyncs each record before it is acknowledged, so the resume path this
    exercises is byte-for-byte the one a SIGKILL would leave behind.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    chunk:
        The 0-based ordinal the fault fires on: the chunk *submission*
        ordinal for worker-side kinds, the chunk *harvest* ordinal for
        ``"kill-coordinator"``.  Each counter is global across a run,
        including re-submissions, so a single-shot spec consumed by
        chunk ``n`` does not re-fire when chunk ``n`` is retried (the
        retry has a later ordinal).
    seconds:
        Sleep length for ``"delay-chunk"``; for ``"corrupt-result"`` the
        integer part is reused as the seeded *bit index* to flip (the
        directive wire format is a fixed ``(kind, seconds)`` tuple).
        Ignored by the other kinds.
    times:
        How many eligible ordinals (>= ``chunk``) the spec fires on
        before it is spent.  The default single shot models a transient
        fault; larger values model a persistent one (e.g. a worker that
        dies every time, forcing degradation).
    """

    kind: str
    chunk: int = 0
    seconds: float = 0.05
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.chunk < 0:
            raise ValueError("chunk ordinal must be >= 0")
        if self.times < 1:
            raise ValueError("times must be >= 1")


@dataclass
class FaultInjector:
    """Deterministic fault scheduler consulted at chunk submission time.

    Attributes
    ----------
    faults:
        The scheduled :class:`FaultSpec` list.  Multiple specs may be
        armed; at most one fires per ordinal (first eligible wins).
    submitted:
        Chunks submitted so far (the worker-side ordinal counter).
    harvested:
        Chunk results harvested so far (the coordinator-side ordinal
        counter — a separate stream, so coordinator faults never shift
        the submission ordinals worker-side specs key on).
    fired:
        ``(ordinal, kind)`` log of every directive handed out — what
        tests assert reproducibility against.
    """

    faults: List[FaultSpec] = field(default_factory=list)
    submitted: int = 0
    harvested: int = 0
    fired: List[Tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.faults = list(self.faults)
        self._remaining = [spec.times for spec in self.faults]

    # ------------------------------------------------------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        kinds: Sequence[str] = WORKER_FAULT_KINDS,
        num_chunks: int = 8,
        num_faults: int = 1,
        seconds: float = 0.05,
    ) -> "FaultInjector":
        """An injector whose fault kinds/ordinals are drawn from ``seed``.

        Deterministic: the same seed always schedules the same faults at
        the same submission ordinals — the property-test entry point.
        Uses a local PRNG so global RNG state is untouched.  The default
        draw set is :data:`WORKER_FAULT_KINDS` (not :data:`FAULT_KINDS`):
        it predates the coordinator-side kinds, and keeping it fixed
        keeps every existing seed's fault sequence stable.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        specs = [
            FaultSpec(
                kind=kinds[int(rng.integers(len(kinds)))],
                chunk=int(rng.integers(max(1, num_chunks))),
                seconds=seconds,
            )
            for _ in range(num_faults)
        ]
        return cls(faults=specs)

    # ------------------------------------------------------------------
    def directive_for_next_chunk(self) -> Optional[Directive]:
        """Consume one submission ordinal; the directive to attach, if any.

        Coordinator-side specs are skipped (without being consumed) —
        they key on the harvest counter via
        :meth:`coordinator_directive_for_next_harvest`.
        """
        ordinal = self.submitted
        self.submitted += 1
        for index, spec in enumerate(self.faults):
            if spec.kind in COORDINATOR_FAULT_KINDS:
                continue
            if self._remaining[index] <= 0:
                continue
            if ordinal < spec.chunk:
                continue
            self._remaining[index] -= 1
            self.fired.append((ordinal, spec.kind))
            return (spec.kind, spec.seconds)
        return None

    def coordinator_directive_for_next_harvest(self) -> Optional[Directive]:
        """Consume one harvest ordinal; the coordinator directive, if any.

        Called by the coordinator's harvest paths right after a chunk's
        contributions have been verified, written into their ordered
        slots and (when a checkpoint is armed) recorded to the ledger —
        so an injected coordinator death at harvest ordinal ``n`` leaves
        chunks ``0..n`` durable, the exact state a resume must complete
        from.
        """
        ordinal = self.harvested
        self.harvested += 1
        for index, spec in enumerate(self.faults):
            if spec.kind not in COORDINATOR_FAULT_KINDS:
                continue
            if self._remaining[index] <= 0:
                continue
            if ordinal < spec.chunk:
                continue
            self._remaining[index] -= 1
            self.fired.append((ordinal, spec.kind))
            return (spec.kind, spec.seconds)
        return None

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled fault has fired."""
        return all(remaining <= 0 for remaining in self._remaining)

    def reset(self) -> None:
        """Re-arm every spec and rewind both ordinal counters."""
        self.submitted = 0
        self.harvested = 0
        self.fired = []
        self._remaining = [spec.times for spec in self.faults]


def apply_directive(directive: Optional[Directive], in_process: bool = False) -> None:
    """Apply a fault directive at the start of a chunk (worker side).

    Called by the pool children's and socket workers' chunk runners and by
    the thread backend's in-thread chunk loop.  ``None`` (the hot path) returns immediately.
    With ``in_process=True`` (thread backend) a ``"kill-worker"``
    directive raises instead of exiting — a thread cannot be killed, and
    taking down the calling process would fault the wrong unit.
    """
    if directive is None:
        return
    kind, seconds = directive
    if kind == "kill-worker":
        if in_process:
            raise InjectedFault("injected worker death (thread substrate: raised)")
        # a hard death: no atexit hooks, no teardown — the closest
        # in-process analogue of a SIGKILLed (or OOM-killed) worker
        os._exit(1)
    if kind == "delay-chunk":
        time.sleep(seconds)
        return
    if kind == "fail-segment-attach":
        raise InjectedFault("injected segment attach failure")
    if kind == "poison-pickle":
        raise pickle.UnpicklingError("injected poisoned chunk payload")
    if kind == "drop-connection":
        # the distributed worker intercepts this kind *before* calling
        # apply_directive so it can shut its socket down first; on the
        # other substrates a dropped connection degenerates to a death
        if in_process:
            raise InjectedFault("injected dropped connection (thread substrate: raised)")
        os._exit(1)
    if kind == "corrupt-result":
        # fires *after* the chunk computes, via corrupt_payload() in the
        # chunk runner — nothing to do before execution
        return
    raise ValueError(f"unknown fault directive kind {kind!r}")


def apply_coordinator_directive(directive: Optional[Directive]) -> None:
    """Apply a coordinator-side directive at a harvest ordinal.

    ``None`` (the hot path) returns immediately; ``"kill-coordinator"``
    raises :exc:`InjectedCoordinatorDeath`.
    """
    if directive is None:
        return
    kind, _seconds = directive
    if kind == "kill-coordinator":
        raise InjectedCoordinatorDeath(
            "injected coordinator death at harvest ordinal"
        )
    raise ValueError(f"unknown coordinator directive kind {kind!r}")


def corrupt_payload(directive: Optional[Directive], arrays: List) -> None:
    """Apply a ``"corrupt-result"`` directive to a chunk's result payload.

    Called by the chunk runners *after* :func:`~repro.execution.checkpoint.
    payload_checksums` has been computed over the honest results, so the
    corruption models silent bit-rot in transit: the shipped checksums
    describe the true data and the coordinator's verification must catch
    the mismatch.  Flips exactly one bit — index ``int(seconds)`` modulo
    the payload's bit length (the directive's fixed ``(kind, seconds)``
    wire tuple is reused to carry the seeded bit index) — in the first
    non-empty array, replacing that list entry with the corrupted copy.
    No-op for ``None`` or any other kind.
    """
    if directive is None or directive[0] != "corrupt-result":
        return
    import numpy as np

    _kind, seconds = directive
    for index, array in enumerate(arrays):
        if getattr(array, "size", 0) == 0:
            continue
        corrupted = np.ascontiguousarray(array).copy()
        flat = corrupted.view(np.uint8).reshape(-1)
        bit = int(seconds) % (flat.size * 8)
        flat[bit // 8] ^= np.uint8(1 << (bit % 8))
        arrays[index] = corrupted.reshape(np.shape(array))
        return
