"""The array-backed calendar must order events identically to the heap."""

from __future__ import annotations

import random

import pytest

from repro.sim import Simulator
from repro.sim.calendar import ArrayCalendar
from repro.sim.engine import SimulationError


def test_calendar_pop_order_matches_sorted():
    rng = random.Random(7)
    cal = ArrayCalendar(capacity=4)
    entries = []
    for i in range(500):
        when = rng.choice([0.0, 1.0, 2.5, rng.random() * 10])
        key = rng.randrange(1 << 40) * 2 + rng.randrange(2) * (1 << 62)
        cal.push(when, key, ("ev", i))
        entries.append((when, key, ("ev", i)))
    popped = []
    while cal:
        when, ev = cal.pop()
        popped.append((when, ev))
    expected = [(w, e) for w, k, e in sorted(entries, key=lambda t: (t[0], t[1]))]
    assert popped == expected


def test_calendar_interleaved_push_pop_recycles_slots():
    cal = ArrayCalendar(capacity=2)
    for round_ in range(50):
        cal.push(float(round_), round_, round_)
        if round_ % 3 == 2:
            cal.pop()
    drained = []
    while cal:
        drained.append(cal.pop()[1])
    assert drained == sorted(drained)


def test_calendar_capacity_validation():
    with pytest.raises(ValueError):
        ArrayCalendar(capacity=0)


def _trace_run(calendar: str):
    """A mixed workload producing a full ordering fingerprint."""
    sim = Simulator(calendar=calendar)
    log = []
    rng = random.Random(13)

    def worker(name, gaps):
        for g in gaps:
            yield sim.timeout(g)
            log.append((sim.now, name))

    for w in range(5):
        gaps = [round(rng.random() * 2, 3) for _ in range(40)]
        sim.process(worker(f"w{w}", gaps))

    def same_instant():
        # Many events at the exact same time exercise FIFO tie-breaks.
        yield sim.timeout(1.0)
        for i in range(20):
            ev = sim.event()
            ev.callbacks.append(lambda _e, i=i: log.append((sim.now, f"tie{i}")))
            ev.succeed()
        yield sim.timeout(0.0)
        log.append((sim.now, "after-ties"))

    sim.process(same_instant())
    sim.run()
    return log


def test_array_calendar_run_identical_to_heap():
    assert _trace_run("array") == _trace_run("heap")


def test_argument_selects_calendar():
    assert isinstance(Simulator(calendar="array")._cal, ArrayCalendar)
    assert Simulator(calendar="heap")._cal is None
    assert Simulator()._cal is None  # the heap is the default


def test_unknown_calendar_rejected():
    with pytest.raises(SimulationError):
        Simulator(calendar="wheel")


def test_array_calendar_step_and_peek():
    sim = Simulator(calendar="array")
    sim.timeout(2.0)
    sim.timeout(1.0)
    assert sim.peek() == 1.0
    sim.step()
    assert sim.now == 1.0
    sim.step()
    assert sim.now == 2.0
    with pytest.raises(SimulationError):
        sim.step()
