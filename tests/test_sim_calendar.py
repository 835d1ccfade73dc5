"""The array-backed calendar must order entries identically to the heap."""

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
        def wake():
            log.append((sim.now, name))
            worker(name, gaps)

        gap = next(gaps, None)
        if gap is not None:
            sim.schedule_call(gap, wake)

    for w in range(5):
        gaps = iter([round(rng.random() * 2, 3) for _ in range(40)])
        sim.call_soon(lambda w=w, gaps=gaps: worker(f"w{w}", gaps))

    def same_instant():
        # Many entries at the exact same time exercise FIFO tie-breaks;
        # the urgent ones, scheduled last, still run first.
        for i in range(20):
            sim.schedule_call(0.0, lambda i=i: log.append((sim.now, f"tie{i}")))
        for i in range(3):
            sim.call_soon(lambda i=i: log.append((sim.now, f"urgent{i}")))
        sim.schedule_call(0.0, lambda: log.append((sim.now, "after-ties")))

    sim.schedule_call(1.0, same_instant)
    sim.run()
    return log


def test_array_calendar_run_identical_to_heap():
    log = _trace_run("heap")
    assert _trace_run("array") == log
    at_one = [name for t, name in log if t == 1.0 and not name.startswith("w")]
    assert at_one == (
        [f"urgent{i}" for i in range(3)]
        + [f"tie{i}" for i in range(20)]
        + ["after-ties"]
    )


def test_argument_selects_calendar():
    assert isinstance(Simulator(calendar="array")._cal, ArrayCalendar)
    assert Simulator(calendar="heap")._cal is None
    assert Simulator()._cal is None  # the heap is the default


def test_unknown_calendar_rejected():
    with pytest.raises(SimulationError):
        Simulator(calendar="wheel")


def test_array_calendar_step_and_peek():
    sim = Simulator(calendar="array")
    sim.schedule_call(2.0, lambda: None)
    sim.schedule_call(1.0, lambda: None)
    assert sim.peek() == 1.0
    sim.step()
    assert sim.now == 1.0
    sim.step()
    assert sim.now == 2.0
    with pytest.raises(SimulationError):
        sim.step()
