"""Regression tests for two simulation-kernel bugfixes.

1. ``TransferQueue._unwrap`` used to rewrite ``event._value`` in place on
   the already-triggered branch, corrupting the event for every other
   reader.
2. ``Simulator.step()`` used to abandon an event's remaining callbacks
   when one raised, stranding sibling waiters mid-event.

Each test here fails against the pre-fix kernel.
"""

from __future__ import annotations

import math

import pytest

from repro.sim import Simulator, TransferQueue, already_done


# ---------------------------------------------------------------------------
# 1. _unwrap must not mutate the underlying Store.get event
# ---------------------------------------------------------------------------
def test_unwrap_preserves_underlying_event_value():
    sim = Simulator()
    q = TransferQueue(sim, capacity=4, name="q")
    q.put("payload")

    ev = TransferQueue.__mro__[1].get(q)  # raw Store.get event
    assert ev.triggered
    from repro.sim.queues import _unwrap

    p1 = _unwrap(ev)
    p2 = _unwrap(ev)
    sim.run()
    # Both unwraps see the payload; the raw event still holds the
    # (enqueue_time, payload) pair it was triggered with.
    assert p1.value == "payload"
    assert p2.value == "payload"
    assert ev.value == (0.0, "payload")


def test_double_get_waiters_each_receive_their_item():
    sim = Simulator()
    q = TransferQueue(sim, capacity=8, name="q")
    got = []

    def consumer():
        while True:
            item = yield q.get()
            got.append((sim.now, item))

    sim.process(consumer())

    def producer():
        yield sim.timeout(1.0)
        q.put("a")
        yield sim.timeout(1.0)
        q.put("b")

    sim.process(producer())
    sim.run()
    assert got == [(1.0, "a"), (2.0, "b")]


def test_immediate_get_returns_payload_not_pair():
    sim = Simulator()
    q = TransferQueue(sim, capacity=4, name="q")
    q.put("x")
    seen = []

    def consumer():
        item = yield q.get()
        seen.append(item)

    sim.process(consumer())
    sim.run()
    assert seen == ["x"]


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


def test_already_done_yields_inline():
    sim = Simulator()
    seen = []

    def proc():
        value = yield already_done(sim, 42)
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(0.0, 42)]


def test_transfer_queue_stats_survive_unwrap():
    sim = Simulator()
    q = TransferQueue(sim, capacity=2, name="q")

    def flow():
        q.put("a")
        yield sim.timeout(0.5)
        item = yield q.get()
        assert item == "a"

    sim.process(flow())
    sim.run()
    s = q.stats()
    assert s.dequeued == 1
    assert math.isclose(s.mean_wait, 0.5)
