"""Unit tests for RingMemoryRegion and StreamSlicer."""

import pytest

from repro.net import RingMemoryRegion, StreamSlicer
from repro.sim import Simulator, SimulationError


# ----------------------------------------------------------------------
# RingMemoryRegion
# ----------------------------------------------------------------------
def _granted():
    pass


def test_ring_alloc_free_cycle():
    sim = Simulator()
    ring = RingMemoryRegion(sim, 1000)
    ring.alloc(400, _granted)
    ring.alloc(400, _granted)
    assert ring.outstanding == 2 and ring.peak_used == 800
    assert ring.free_oldest() == 400
    assert ring.outstanding == 1


def test_ring_alloc_blocks_until_free():
    sim = Simulator()
    ring = RingMemoryRegion(sim, 100)
    grants = []

    def second():
        grants.append(("second", sim.now))

    def first():
        grants.append(("first", sim.now))
        ring.alloc(80, second)

    ring.alloc(80, first)
    sim.schedule_call(5.0, ring.free_oldest)
    sim.run()
    assert grants == [("first", 0.0), ("second", 5.0)]
    assert ring.alloc_stalls == 1


def test_ring_fifo_waiters():
    sim = Simulator()
    ring = RingMemoryRegion(sim, 100)
    order = []
    ring.alloc(100, _granted)
    ring.alloc(60, lambda: order.append("a"))
    ring.alloc(40, lambda: order.append("b"))
    sim.schedule_call(1.0, ring.free_oldest)
    sim.run()
    assert order == ["a", "b"]


def test_ring_oversized_alloc_rejected():
    sim = Simulator()
    ring = RingMemoryRegion(sim, 100)
    with pytest.raises(SimulationError):
        ring.alloc(101, _granted)
    with pytest.raises(SimulationError):
        ring.alloc(0, _granted)


def test_ring_free_without_outstanding_rejected():
    sim = Simulator()
    ring = RingMemoryRegion(sim, 100)
    with pytest.raises(SimulationError):
        ring.free_oldest()


def test_ring_peak_used_tracked():
    sim = Simulator()
    ring = RingMemoryRegion(sim, 1000)
    ring.alloc(700, _granted)
    ring.free_oldest()
    ring.alloc(100, _granted)
    assert ring.peak_used == 700


# ----------------------------------------------------------------------
# StreamSlicer
# ----------------------------------------------------------------------
def collect_flushes():
    flushed = []

    def on_flush(items, nbytes):
        flushed.append((list(items), nbytes))

    return flushed, on_flush


def test_slicer_flushes_at_mms():
    sim = Simulator()
    flushed, on_flush = collect_flushes()
    s = StreamSlicer(sim, mms_bytes=100, wtl_s=10.0, on_flush=on_flush)

    def feed():
        s.add("a", 40)
        s.add("b", 40)
        s.add("c", 40)  # 120 >= 100 -> flush

    sim.call_soon(feed)
    sim.run(until=1.0)
    assert flushed == [(["a", "b", "c"], 120)]
    assert s.flushes_by_size == 1
    sim.run(until=20.0)  # nothing left buffered for the WTL timer
    assert flushed == [(["a", "b", "c"], 120)]


def test_slicer_flushes_on_wtl_timer():
    sim = Simulator()
    flushed, on_flush = collect_flushes()
    s = StreamSlicer(sim, mms_bytes=10**6, wtl_s=0.5, on_flush=on_flush)
    stamps = []

    def watch():
        if flushed:
            stamps.append(sim.now)
        else:
            sim.schedule_call(0.01, watch)

    sim.call_soon(lambda: s.add("only", 10))
    sim.call_soon(watch)
    sim.run(until=2.0)
    assert flushed == [(["only"], 10)]
    assert s.flushes_by_timer == 1
    assert stamps[0] == pytest.approx(0.5, abs=0.02)


def test_slicer_wtl_measured_from_oldest_item():
    sim = Simulator()
    flushed, on_flush = collect_flushes()
    s = StreamSlicer(sim, mms_bytes=10**6, wtl_s=1.0, on_flush=on_flush)

    sim.call_soon(lambda: s.add("first", 10))
    # does NOT extend the deadline
    sim.schedule_call(0.9, lambda: s.add("second", 10))
    sim.run(until=5.0)
    assert len(flushed) == 1
    assert flushed[0][0] == ["first", "second"]


def test_slicer_size_flush_cancels_timer():
    sim = Simulator()
    flushed, on_flush = collect_flushes()
    s = StreamSlicer(sim, mms_bytes=50, wtl_s=1.0, on_flush=on_flush)

    def feed():
        s.add("a", 30)
        s.add("b", 30)  # size flush at t=0

    sim.call_soon(feed)
    sim.run(until=5.0)
    assert len(flushed) == 1  # no spurious timer flush later
    assert s.flushes_by_timer == 0


def test_slicer_flush_now():
    sim = Simulator()
    flushed, on_flush = collect_flushes()
    s = StreamSlicer(sim, mms_bytes=10**6, wtl_s=10.0, on_flush=on_flush)
    s.add("x", 5)
    s.flush_now()
    assert flushed == [(["x"], 5)]
    s.flush_now()  # empty: no-op
    assert len(flushed) == 1


def test_slicer_rearms_for_next_batch():
    sim = Simulator()
    flushed, on_flush = collect_flushes()
    s = StreamSlicer(sim, mms_bytes=10**6, wtl_s=0.5, on_flush=on_flush)

    sim.call_soon(lambda: s.add("a", 10))  # timer flush at 0.5
    sim.schedule_call(1.0, lambda: s.add("b", 10))  # timer flush at 1.5
    sim.run(until=5.0)
    assert [items for items, _ in flushed] == [["a"], ["b"]]
    assert s.flushes_by_timer == 2


def test_slicer_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        StreamSlicer(sim, mms_bytes=0, wtl_s=1.0, on_flush=lambda i, b: None)
    with pytest.raises(ValueError):
        StreamSlicer(sim, mms_bytes=10, wtl_s=0, on_flush=lambda i, b: None)
    s = StreamSlicer(sim, mms_bytes=10, wtl_s=1.0, on_flush=lambda i, b: None)
    with pytest.raises(ValueError):
        s.add("x", 0)
