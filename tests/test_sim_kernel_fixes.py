"""Regression tests for simulation-kernel bugfixes.

1. The transfer queue hands out payloads, never its internal
   ``(enqueue_time, payload)`` pairs, and keeps its wait statistics.
2. A calendar entry that raises leaves the entries due at the same
   instant in place, so a resumed run still reaches them.
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
# 2. an entry that raises must not strand the others due at that instant
# ---------------------------------------------------------------------------
def test_step_exception_does_not_strand_sibling_process():
    """A raising checker callback must not strand a chain due at the
    same instant: its entry stays on the calendar."""
    sim = Simulator()
    resumed = []

    def checker():
        raise RuntimeError("strict-mode violation")

    sim.schedule_call(0.0, checker)
    sim.schedule_call(0.0, lambda: resumed.append(sim.now))
    with pytest.raises(RuntimeError):
        sim.run()
    # The sibling still runs at the same instant once the run resumes.
    sim.run()
    assert resumed == [0.0]


def test_transfer_queue_stats_survive_take():
    sim = Simulator()
    q = TransferQueue(sim, capacity=2, name="q")
    q.try_put("a")
    sim.schedule_call(0.5, lambda: q.try_get())
    sim.run()
    s = q.stats()
    assert s.dequeued == 1
    assert math.isclose(s.total_wait_time, 0.5)
