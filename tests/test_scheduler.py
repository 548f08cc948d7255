"""Scheduler conformance: ``run_chunks`` over a scripted in-memory transport.

The one resilient chunk scheduler (:func:`repro.execution.resilience.
run_chunks`) is exercised here without processes, sockets or sleeps: a
:class:`ScriptedTransport` decides the fate of every submission by its
ordinal, and a fake clock stands in for ``time``.  What is pinned is the
recovery *policy* — ordering, budgets, the harvest path, the error
mapping, the log — which is the same for every real transport; the
process-level suites (``test_resilience``, ``test_checkpoint``,
``test_distributed``) stay as the integration layer.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.execution import (
    ChunkIntegrityError,
    ChunkTimeoutError,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedCoordinatorDeath,
    PlanStats,
    RecoveryExhaustedError,
)
from repro.execution import resilience
from repro.execution.checkpoint import payload_checksums
from repro.execution.resilience import ChunkTransport, WorkerLost, run_chunks

pytestmark = pytest.mark.faults

LOGGER = "repro.execution.resilience"


def honest(position):
    """Slot ``position``'s contribution; magnitudes make the fold order-sensitive."""
    return np.array([(-1.0) ** position * 10.0 ** (16 - position), 1.0 / (position + 3)])


def make_chunks(num_chunks=4, size=2):
    return [
        [(chunk * size + offset, {"i": chunk * size + offset}) for offset in range(size)]
        for chunk in range(num_chunks)
    ]


def ordered_fold(contributions):
    total = contributions[0].copy()
    for contribution in contributions[1:]:
        total += contribution
    return total


class FakeClock:
    """Stands in for the ``time`` module inside ``resilience``."""

    def __init__(self, log):
        self.now = 0.0
        self.log = log

    def monotonic(self):
        return self.now

    perf_counter = monotonic

    def sleep(self, seconds):
        if seconds > 0:
            self.log.append(("sleep", seconds))
        self.now += seconds


class Ledger:
    """Duck-typed ``CheckpointJob``: remembers what was recorded, in order."""

    def __init__(self, log, loaded=None):
        self.loaded = dict(loaded or {})
        self.log = log
        self.slots = {}

    def record_chunk(self, positions, arrays):
        self.log.append(("record", tuple(positions)))
        for position, array in zip(positions, arrays):
            self.slots[position] = array.copy()


class ScriptedTransport(ChunkTransport):
    """Every submission's fate is scripted by its 0-based ordinal.

    ``script[ordinal]`` is one of ``"ok"`` (default), ``"raise"``,
    ``"corrupt"``, ``"hang"`` (never completes; only a sever ends it),
    ``"die"`` (its worker dies with it) or ``"die-all"`` (every worker
    dies, taking everything in flight).  An injected ``poison-pickle``
    directive raises like a real worker would.  ``wait`` hands back one
    completed handle per call, oldest first or — ``lifo=True`` — newest
    first, and advances the fake clock by the timeout when nothing can
    complete.
    """

    name = "scripted"
    preemptible = True
    rebuildable = True

    def __init__(self, clock, log, script=None, workers=None, lifo=False):
        self.clock = clock
        self.log = log
        self.script = dict(script or {})
        self.workers = workers  # None: unbounded, always alive
        self.launched = workers
        self.lifo = lifo
        self.submitted = 0
        self.flying = {}  # handle (submission ordinal) -> (action, chunk)
        self.error = ValueError("scripted chunk failure")

    def slots(self):
        return self.workers

    def submit(self, index, chunk, directive, retry):
        handle = self.submitted
        self.submitted += 1
        action = self.script.get(handle, "ok")
        if directive is not None and directive[0] == "poison-pickle":
            action = "raise"
        self.log.append(("submit", index, directive, retry))
        self.flying[handle] = (action, chunk)
        return handle

    def wait(self, handles, timeout):
        assert set(handles) == set(self.flying), "driver and transport disagree"
        ready = [h for h in handles if self.flying[h][0] != "hang"]
        if not ready:
            assert timeout is not None, "would block forever"
            self.clock.now += timeout
            return []
        handle = max(ready) if self.lifo else min(ready)
        action, chunk = self.flying.pop(handle)
        self.log.append(("done", handle, action))
        if action == "raise":
            return [(handle, self.error)]
        if action == "die":
            self.workers -= 1
            return [(handle, WorkerLost(ConnectionError("scripted link cut"), [handle]))]
        if action == "die-all":
            self.workers = 0
            lost = [handle, *self.flying]
            self.flying.clear()
            return [(handle, WorkerLost(ConnectionError("scripted total loss"), lost))]
        arrays = [honest(position) for position, _ in chunk]
        checksums = payload_checksums(arrays)
        if action == "corrupt":
            arrays[0] = arrays[0] + 1.0
        return [(handle, (arrays, checksums, PlanStats()))]

    def sever(self, handle):
        self.log.append(("sever", handle))
        del self.flying[handle]
        if self.workers is not None:
            self.workers -= 1
        return [handle]

    def rebuild(self):
        self.log.append(("rebuild",))
        self.workers = self.launched

    def abort(self):
        self.log.append(("abort",))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.log.append(("closed", self.name))


@pytest.fixture
def log():
    return []


@pytest.fixture
def clock(monkeypatch, log):
    fake = FakeClock(log)
    monkeypatch.setattr(resilience, "time", fake)
    return fake


def submits(log):
    return [entry[1] for entry in log if entry[0] == "submit"]


RETRY_ONCE = FaultPolicy.retrying(max_retries=1, backoff_seconds=0.0)
#: Retry mode whose *chunk* budget is zero: only worker losses are survivable.
LOSSES_ONLY = FaultPolicy(
    mode="retry", max_retries=0, max_pool_rebuilds=1, backoff_seconds=0.0
)


# ----------------------------------------------------------------------
# Ordered slots, whatever the arrival order
# ----------------------------------------------------------------------
class TestOrderedSlots:
    def test_adversarial_arrival_order_folds_bit_identically(self, clock, log, caplog):
        chunks = make_chunks(num_chunks=6, size=2)
        reference = ordered_fold([honest(p) for p in range(12)])
        for lifo in (False, True):
            transport = ScriptedTransport(clock, log, lifo=lifo)
            stats = PlanStats()
            with caplog.at_level(logging.DEBUG, logger=LOGGER):
                contributions = run_chunks(transport, chunks, RETRY_ONCE, stats=stats)
            assert ordered_fold(contributions).tobytes() == reference.tobytes()
            assert stats.faults == stats.retries == 0
        # newest-first really was a different arrival order ...
        done = [entry[1] for entry in log if entry[0] == "done"]
        assert done[:6] == sorted(done[:6]) and done[6:] == sorted(done[6:], reverse=True)
        # ... and the fault-free path logged nothing at all
        assert caplog.records == []

    def test_ledger_prefill_selects_only_chunks_with_empty_slots(self, clock, log):
        chunks = make_chunks(num_chunks=3, size=2)
        # chunk 0 fully durable, chunk 1 half durable (re-runs whole), chunk 2 empty
        ledger = Ledger(log, loaded={0: honest(0), 1: honest(1), 2: honest(2)})
        transport = ScriptedTransport(clock, log)
        contributions = run_chunks(transport, chunks, RETRY_ONCE, checkpoint=ledger)
        assert submits(log) == [1, 2]
        assert [c.tobytes() for c in contributions] == [
            honest(p).tobytes() for p in range(6)
        ]


# ----------------------------------------------------------------------
# The harvest path
# ----------------------------------------------------------------------
class TestHarvest:
    def test_corrupt_payload_never_reaches_a_slot_or_the_ledger(self, clock, log):
        chunks = make_chunks()
        ledger = Ledger(log)
        transport = ScriptedTransport(clock, log, script={1: "corrupt"})
        stats = PlanStats()
        contributions = run_chunks(
            transport, chunks, RETRY_ONCE, checkpoint=ledger, stats=stats
        )
        assert (stats.faults, stats.retries) == (1, 1)
        for position in range(8):
            assert contributions[position].tobytes() == honest(position).tobytes()
            assert ledger.slots[position].tobytes() == honest(position).tobytes()
        # the corrupt delivery of chunk 1 was not recorded; its retry was
        records = [entry[1] for entry in log if entry[0] == "record"]
        assert sorted(records) == [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert submits(log) == [0, 1, 2, 3, 1]

    def test_corruption_is_an_integrity_error_under_fail_fast(self, clock, log):
        transport = ScriptedTransport(clock, log, script={0: "corrupt"})
        with pytest.raises(ChunkIntegrityError):
            run_chunks(transport, make_chunks(), FaultPolicy.fail_fast())

    def test_ledger_record_precedes_the_coordinator_directive(self, clock, log):
        ledger = Ledger(log)
        injector = FaultInjector([FaultSpec("kill-coordinator", chunk=1)])
        transport = ScriptedTransport(clock, log)
        with pytest.raises(InjectedCoordinatorDeath):
            run_chunks(
                transport, make_chunks(), RETRY_ONCE, injector=injector, checkpoint=ledger
            )
        # the death fired at harvest ordinal 1 — after that chunk's record
        assert [entry[1] for entry in log if entry[0] == "record"] == [(0, 1), (2, 3)]
        assert injector.harvested == 2
        # a coordinator death is not a fault the driver handles
        assert ("abort",) not in log

    def test_injector_ordinals_equal_dispatch_order(self, clock, log):
        injector = FaultInjector([FaultSpec("poison-pickle", chunk=2)])
        transport = ScriptedTransport(clock, log, workers=2)
        run_chunks(transport, make_chunks(), RETRY_ONCE, injector=injector)
        directives = [entry[2] for entry in log if entry[0] == "submit"]
        assert [d is not None for d in directives] == [False, False, True, False, False]
        assert injector.fired == [(2, "poison-pickle")]
        assert injector.submitted == len(directives) == 5
        # the poisoned third submission was chunk 2; its retry is flagged
        assert [entry[1:] for entry in log if entry[0] == "submit"][-1] == (
            2, None, True,
        )


# ----------------------------------------------------------------------
# Budgets: chunk faults, worker losses, rebuilds
# ----------------------------------------------------------------------
class TestBudgets:
    def test_deadline_expiry_severs_and_requeues_at_the_front(self, clock, log):
        policy = FaultPolicy(
            mode="retry",
            max_retries=0,
            max_pool_rebuilds=1,
            backoff_seconds=0.0,
            chunk_timeout_seconds=5.0,
            min_timeout_seconds=0.0,
        )
        transport = ScriptedTransport(clock, log, script={0: "hang"}, workers=1)
        stats = PlanStats()
        contributions = run_chunks(transport, make_chunks(), policy, stats=stats)
        assert ("sever", 0) in log and ("rebuild",) in log
        assert clock.now >= 5.0
        # a zero chunk budget survived it, and chunk 0 went back to the
        # *front*: re-submitted before the never-run chunks 1, 2 and 3
        assert submits(log) == [0, 0, 1, 2, 3]
        assert (stats.faults, stats.retries) == (1, 1)
        assert all(c is not None for c in contributions)
        assert not any(entry[0] == "sleep" for entry in log)

    def test_lost_worker_does_not_consume_the_chunk_retry_budget(self, clock, log):
        transport = ScriptedTransport(clock, log, script={1: "die"}, workers=2)
        stats = PlanStats()
        # a zero chunk budget: this only completes if the loss is not charged
        contributions = run_chunks(transport, make_chunks(), LOSSES_ONLY, stats=stats)
        # chunk 1 went back to the front: the survivor runs it before chunk 3
        assert submits(log) == [0, 1, 2, 1, 3]
        assert ("rebuild",) not in log
        assert (stats.faults, stats.retries) == (1, 1)
        assert ordered_fold(contributions).tobytes() == ordered_fold(
            [honest(p) for p in range(8)]
        ).tobytes()

    def test_total_loss_spends_the_rebuild_budget_then_exhausts(self, clock, log):
        transport = ScriptedTransport(
            clock, log, script={1: "die-all", 2: "die-all"}, workers=1
        )
        stats = PlanStats()
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            run_chunks(transport, make_chunks(), LOSSES_ONLY, stats=stats)
        assert [entry for entry in log if entry[0] in ("rebuild", "abort")] == [
            ("rebuild",), ("abort",),
        ]
        # chunk 0 finished before the first loss; its slots travel with the error
        partial = excinfo.value.contributions
        assert [c is not None for c in partial] == [True, True] + [False] * 6
        assert partial[1].tobytes() == honest(1).tobytes()
        assert isinstance(excinfo.value.__cause__, ConnectionError)
        assert stats.faults == 2

    def test_chunk_retry_budget_exhaustion(self, clock, log):
        transport = ScriptedTransport(clock, log, script={0: "raise", 4: "raise"})
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            run_chunks(transport, make_chunks(), RETRY_ONCE)
        assert excinfo.value.__cause__ is transport.error
        assert sum(c is not None for c in excinfo.value.contributions) == 6

    def test_fail_fast_reraises_the_original_error(self, clock, log):
        transport = ScriptedTransport(clock, log, script={2: "raise"})
        with pytest.raises(ValueError) as excinfo:
            run_chunks(transport, make_chunks(), FaultPolicy.fail_fast())
        assert excinfo.value is transport.error
        assert log[-1] == ("abort",)

    def test_fail_fast_deadline_raises_chunk_timeout_error(self, clock, log):
        policy = FaultPolicy(chunk_timeout_seconds=2.0, min_timeout_seconds=0.0)
        transport = ScriptedTransport(clock, log, script={0: "hang"}, workers=1)
        with pytest.raises(ChunkTimeoutError):
            run_chunks(transport, make_chunks(), policy)
        assert ("sever", 0) in log

    def test_backoff_never_stalls_live_chunks(self, clock, log):
        policy = FaultPolicy.retrying(max_retries=1, backoff_seconds=1.0)
        transport = ScriptedTransport(clock, log, script={0: "raise"})
        stats = PlanStats()
        run_chunks(transport, make_chunks(num_chunks=3), policy, stats=stats)
        # chunk 0 failed first, yet chunks 1 and 2 were harvested before
        # anything slept; only then did the driver wait out the backoff
        order = [entry[:2] for entry in log if entry[0] in ("done", "sleep", "submit")]
        assert order == [
            ("submit", 0), ("submit", 1), ("submit", 2),
            ("done", 0), ("done", 1), ("done", 2),
            ("sleep", 1.0),
            ("submit", 0), ("done", 3),
        ]
        assert stats.recovery_seconds == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Degradation: the same driver over a local transport
# ----------------------------------------------------------------------
class TestDegradation:
    def test_degraded_slots_go_through_the_one_harvest_path(self, clock, log):
        chunks = make_chunks()
        ledger = Ledger(log)
        injector = FaultInjector([FaultSpec("poison-pickle", chunk=1, times=1000)])
        primary = ScriptedTransport(clock, log)
        opened = []

        def fallback(substrate):
            opened.append(substrate)
            local = ScriptedTransport(clock, log)
            local.name = substrate
            return local

        stats = PlanStats()
        contributions = run_chunks(
            primary,
            chunks,
            FaultPolicy.degrading(max_retries=1, backoff_seconds=0.0),
            injector=injector,
            checkpoint=ledger,
            stats=stats,
            fallback=fallback,
        )
        assert opened == ["threads"] and stats.degraded_to == "threads"
        assert ("abort",) in log and ("closed", "threads") in log
        # every slot is durable — the ones finished on the chain included
        assert sorted(ledger.slots) == list(range(8))
        assert all(
            contributions[p].tobytes() == honest(p).tobytes() for p in range(8)
        )
        # degraded chunks carry no injected worker faults and consume no
        # submission ordinals; they re-run only the still-empty slots
        degraded = [entry for entry in log if entry[0] == "submit"][injector.submitted:]
        assert degraded and all(entry[2] is None for entry in degraded)
        assert [entry[1] for entry in degraded] == [
            index
            for index in range(4)
            if ("record", tuple(p for p, _ in chunks[index]))
            not in log[: log.index(("abort",))]
        ]

    def test_failed_substrate_falls_through_the_chain(self, clock, log):
        primary = ScriptedTransport(clock, log, script={0: "raise"})

        def fallback(substrate):
            local = ScriptedTransport(
                clock, log, script={0: "raise"} if substrate == "threads" else None
            )
            local.name = substrate
            return local

        stats = PlanStats()
        policy = FaultPolicy.degrading(max_retries=0)
        contributions = run_chunks(
            primary, make_chunks(), policy, stats=stats, fallback=fallback
        )
        assert stats.degraded_to == "serial"
        assert all(c is not None for c in contributions)

    def test_without_a_fallback_degrade_exhausts(self, clock, log):
        primary = ScriptedTransport(clock, log, script={0: "raise"})
        with pytest.raises(RecoveryExhaustedError, match="degradation chain"):
            run_chunks(primary, make_chunks(), FaultPolicy.degrading(max_retries=0))


# ----------------------------------------------------------------------
# Observability: every recovery decision is logged once, by the driver
# ----------------------------------------------------------------------
class TestLogging:
    def test_warnings(self, clock, log, caplog):
        policy = FaultPolicy.degrading(
            max_retries=1,
            max_pool_rebuilds=0,
            backoff_seconds=0.0,
            chunk_timeout_seconds=1.0,
            min_timeout_seconds=0.0,
        )
        primary = ScriptedTransport(
            clock,
            log,
            script={0: "raise", 1: "corrupt", 2: "hang", 3: "die"},
            workers=2,
        )

        def fallback(substrate):
            local = ScriptedTransport(clock, log)
            local.name = substrate
            return local

        with caplog.at_level(logging.WARNING, logger=LOGGER):
            run_chunks(primary, make_chunks(), policy, fallback=fallback)
        messages = [r.getMessage() for r in caplog.records if r.name == LOGGER]
        assert all(r.levelno == logging.WARNING for r in caplog.records)

        def count(fragment):
            return sum(fragment in message for message in messages)

        assert count("chunk 0 fault 1: ValueError") == 1
        assert count("failed its payload checksum; payload discarded") == 1
        assert count("worker lost (ConnectionError('scripted link cut'))") == 1
        assert count("worker lost (ChunkTimeoutError('chunk 2 exceeded its") == 1
        assert count("giving up on scripted") == 1
        assert count("degrading from scripted to threads") == 1

    def test_info(self, clock, log, caplog):
        ledger = Ledger(log, loaded={0: honest(0), 1: honest(1)})
        transport = ScriptedTransport(
            clock, log, script={0: "raise", 1: "die-all"}, workers=2
        )
        with caplog.at_level(logging.INFO, logger=LOGGER):
            run_chunks(transport, make_chunks(), RETRY_ONCE, checkpoint=ledger)
        infos = [
            r.getMessage() for r in caplog.records if r.levelno == logging.INFO
        ]
        assert infos == [
            "ledger pre-filled 2 of 8 slots",
            "chunk 1 retry 1 of 1, not before 0.000 s from now",
            "rebuilding the scripted transport (1 of 1)",
        ]
