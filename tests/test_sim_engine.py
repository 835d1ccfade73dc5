"""Unit tests for the DES kernel: clock, events, run modes."""

import pytest

from repro.sim import Simulator, SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        ev = sim.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: order.append(e.value))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        ev = sim.timeout(1.0, value=i)
        ev.callbacks.append(lambda e: order.append(e.value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_time_processes_boundary_event():
    sim = Simulator()
    hits = []
    ev = sim.timeout(4.0, value="x")
    ev.callbacks.append(lambda e: hits.append(e.value))
    sim.run(until=4.0)
    assert hits == ["x"]


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_unhandled_failure_surfaces_in_step():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(7.0)
    assert sim.peek() == 7.0
    sim.run()
    assert sim.peek() == float("inf")


def test_timeout_carries_value():
    sim = Simulator()

    def proc(sim, out):
        got = yield sim.timeout(1.0, value="payload")
        out.append(got)

    out = []
    sim.process(proc(sim, out))
    sim.run()
    assert out == ["payload"]


def test_deterministic_interleaving():
    def build():
        sim = Simulator()
        trace = []

        def worker(sim, name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                trace.append((sim.now, name))

        sim.process(worker(sim, "a", 1.0))
        sim.process(worker(sim, "b", 1.0))
        sim.run()
        return trace

    assert build() == build()
