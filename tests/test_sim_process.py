"""Unit tests for Process: sequencing and failure propagation."""

import pytest

from repro.sim import Simulator, SimulationError


def test_process_runs_to_completion():
    sim = Simulator()
    steps = []

    def proc(sim):
        steps.append(sim.now)
        yield sim.timeout(1.0)
        steps.append(sim.now)
        yield sim.timeout(2.0)
        steps.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert steps == [0.0, 1.0, 3.0]


def test_process_return_value_is_event_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "done"
    assert p.ok


def test_process_waits_on_other_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5.0)
        return 7

    def parent(sim, out):
        result = yield sim.process(child(sim))
        out.append((sim.now, result))

    out = []
    sim.process(parent(sim, out))
    sim.run()
    assert out == [(5.0, 7)]


def test_process_waits_on_already_finished_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return "early"

    def parent(sim, child_proc, out):
        yield sim.timeout(10.0)
        result = yield child_proc
        out.append((sim.now, result))

    out = []
    c = sim.process(child(sim))
    sim.process(parent(sim, c, out))
    sim.run()
    assert out == [(10.0, "early")]


def test_uncaught_process_exception_surfaces():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    sim.process(bad(sim))
    with pytest.raises(KeyError):
        sim.run()


def test_waiting_process_receives_child_exception():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child failed"]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_process_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(42)


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3.0)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive
