"""Unit tests for the DES kernel: clock, calendar order, run modes."""

import pytest

from repro.sim import Simulator, SimulationError, each, every


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.schedule_call(2.5, lambda: None)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_call(-1.0, lambda: None)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule_call(delay, lambda d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule_call(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_call_soon_runs_ahead_of_ordinary_entries_due_now():
    sim = Simulator()
    order = []
    sim.schedule_call(0.0, lambda: order.append("ordinary"))
    sim.call_soon(lambda: order.append("urgent 1"))
    sim.call_soon(lambda: order.append("urgent 2"))
    sim.run()
    assert order == ["urgent 1", "urgent 2", "ordinary"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.schedule_call(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_time_processes_boundary_event():
    sim = Simulator()
    hits = []
    sim.schedule_call(4.0, lambda: hits.append("x"))
    sim.run(until=4.0)
    assert hits == ["x"]


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_unhandled_failure_surfaces_in_step():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    sim.schedule_call(0.0, boom)
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.schedule_call(7.0, lambda: None)
    assert sim.peek() == 7.0
    sim.run()
    assert sim.peek() == float("inf")


def test_each_runs_steps_in_order_then_continues():
    sim = Simulator()
    log = []

    def step(item, k):
        log.append((sim.now, item))
        if item % 2:
            sim.schedule_call(1.0, k)  # a step that waits
        else:
            k()  # a step done at once

    each(range(4), step, lambda: log.append((sim.now, "then")))
    sim.run()
    assert log == [(0.0, 0), (0.0, 1), (1.0, 2), (1.0, 3), (2.0, "then")]


def test_every_runs_once_per_period():
    sim = Simulator()
    ticks = []
    every(sim, 0.5, lambda: ticks.append(sim.now))
    sim.run(until=2.0)
    assert ticks == [0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("calendar", ["heap", "array"])
def test_idle_when_only_background_waits_are_pending(calendar):
    """A periodic chain's timer wait is background: the simulator is idle
    while only such waits are pending, and busy while any work is."""
    sim = Simulator(calendar=calendar)
    ticks, work = [], []
    every(sim, 0.5, lambda: ticks.append(sim.now))
    assert not sim.idle  # the chain's start is an urgent work entry
    sim.step()
    assert sim.idle
    sim.schedule_call(0.7, lambda: work.append(sim.now))
    assert not sim.idle
    sim.run(until=0.6)
    assert not sim.idle and ticks == [0.5]
    sim.run(until=0.8)
    assert sim.idle and work == [0.7]
    sim.run(until=2.0)
    assert sim.idle and ticks == [0.5, 1.0, 1.5, 2.0]


def test_background_waits_keep_the_order_and_name_of_plain_entries():
    """A background wait draws its key from the same sequence as
    ``schedule_call`` and its wrapper keeps the callback's name, so
    same-instant order and ``sim.step`` records do not move."""
    from repro.trace import MemoryTracer

    sim = Simulator()
    sim.tracer = MemoryTracer(categories={"sim"})
    log = []

    def sample():
        log.append("sample")

    sim.schedule_call(1.0, lambda: log.append("a"))
    sim.schedule_background(1.0, sample)
    sim.schedule_call(1.0, lambda: log.append("b"))
    sim.call_soon(lambda: log.append("soon"))
    sim.run()
    assert log == ["soon", "a", "sample", "b"]
    events = [r["event"] for r in sim.tracer.records]
    assert events[2] == sample.__qualname__
    assert sim.idle


def test_deterministic_interleaving():
    def build():
        sim = Simulator()
        trace = []

        def worker(name, delay, left):
            def wake():
                trace.append((sim.now, name))
                if left > 1:
                    worker(name, delay, left - 1)

            sim.schedule_call(delay, wake)

        sim.call_soon(lambda: worker("a", 1.0, 3))
        sim.call_soon(lambda: worker("b", 1.0, 3))
        sim.run()
        return trace

    trace = build()
    assert trace == build()
    assert trace == [(t, n) for t in (1.0, 2.0, 3.0) for n in "ab"]
