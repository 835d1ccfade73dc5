"""Regression tests for simulation-kernel bugfixes.

1. The transfer queue hands out payloads, never its internal
   ``(enqueue_time, payload)`` pairs, and keeps its wait statistics.
2. ``Simulator.step()`` used to abandon an event's remaining callbacks
   when one raised, stranding sibling waiters mid-event.
"""

from __future__ import annotations

import math

import pytest

from repro.sim import Simulator, TransferQueue


# ---------------------------------------------------------------------------
# 1. payloads, not (enqueue_time, payload) pairs
# ---------------------------------------------------------------------------
def test_immediate_get_returns_payload_not_pair():
    sim = Simulator()
    q = TransferQueue(sim, capacity=4, name="q")
    q.try_put("x")
    assert q.try_get() == (True, "x")


# ---------------------------------------------------------------------------
# 2. step() must run remaining callbacks when one raises
# ---------------------------------------------------------------------------
def test_step_runs_remaining_callbacks_after_exception():
    sim = Simulator()
    ev = sim.event()
    ran = []

    def boom(_e):
        ran.append("boom")
        raise RuntimeError("invariant violated")

    def sibling(_e):
        ran.append("sibling")

    ev.callbacks.append(boom)
    ev.callbacks.append(sibling)
    ev.succeed("v")
    with pytest.raises(RuntimeError, match="invariant violated"):
        sim.run()
    assert ran == ["boom", "sibling"]


def test_step_first_exception_wins():
    sim = Simulator()
    ev = sim.event()

    def boom1(_e):
        raise RuntimeError("first")

    def boom2(_e):
        raise ValueError("second")

    ev.callbacks.append(boom1)
    ev.callbacks.append(boom2)
    ev.succeed()
    with pytest.raises(RuntimeError, match="first"):
        sim.run()


def test_step_exception_does_not_strand_sibling_process():
    """A raising checker callback must not strand a co-waiting process."""
    sim = Simulator()
    gate = sim.event()
    resumed = []

    def checker(_e):
        raise RuntimeError("strict-mode violation")

    def waiter():
        yield gate
        resumed.append(sim.now)

    gate.callbacks.append(checker)
    sim.process(waiter())
    gate.succeed()
    with pytest.raises(RuntimeError):
        sim.run()
    # The waiter was resumed at the same instant despite the checker
    # raising first.
    sim.run()
    assert resumed == [0.0]


def test_resolved_event_yields_inline():
    sim = Simulator()
    seen = []
    done = sim.event()
    done.resolve(42)

    def proc():
        value = yield done
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(0.0, 42)]


def test_resolve_resumes_a_waiting_process_in_the_callers_step():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def proc():
        seen.append((yield gate))

    sim.process(proc())
    sim.run()  # the process now waits on the gate
    sim.schedule_call(1.0, lambda: (gate.resolve("go"), seen.append("after")))
    sim.run()
    assert seen == ["go", "after"]


def test_transfer_queue_stats_survive_take():
    sim = Simulator()
    q = TransferQueue(sim, capacity=2, name="q")
    q.try_put("a")
    sim.schedule_call(0.5, lambda: q.try_get())
    sim.run()
    s = q.stats()
    assert s.dequeued == 1
    assert math.isclose(s.mean_wait, 0.5)
