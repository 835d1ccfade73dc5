"""Unit tests for Store and TransferQueue."""


import pytest

from repro.sim import Simulator, SimulationError, Store, TransferQueue


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    for i in range(3):
        assert store.try_put(i)
    out = [store.try_get()[1] for _ in range(3)]
    assert out == [0, 1, 2]


def test_store_put_blocks_when_full():
    """The transfer queue's blocking put (offer) waits for a free slot."""
    sim = Simulator()
    q = TransferQueue(sim, capacity=1)
    times = []

    def put_b():
        times.append(("b", sim.now))

    assert q.offer("a", lambda: times.append(("a", sim.now)))
    assert not q.offer("b", put_b)  # full: waits for a slot
    assert q.stats().offered == 2 and q.stats().accepted == 1

    def take():
        assert q.try_get() == (True, "a")  # frees the slot: b enters

    sim.schedule_call(3.0, take)
    sim.run()
    assert times == [("b", 3.0)]
    assert q.try_get() == (True, "b")
    assert q.stats().accepted == 2


def test_transfer_queue_clear_drops_waiting_offers():
    sim = Simulator()
    q = TransferQueue(sim, capacity=1)
    resumed = []
    q.try_put("a")
    q.offer("b", lambda: resumed.append(sim.now))
    assert len(q.clear()) == 2
    sim.run()
    assert resumed == [0.0]  # the offer's chain goes on
    s = q.stats()
    assert s.offered == s.accepted + s.dropped
    assert s.accepted == s.dequeued + s.cleared


def test_store_try_put_respects_capacity():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert store.level == 2


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.try_put("x")
    ok, item = store.try_get()
    assert ok and item == "x"


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_level_and_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.level == 0
    assert store.try_put(1) and store.try_put(2)
    assert store.level == 2 and not store.try_put(3)


# ----------------------------------------------------------------------
# TransferQueue
# ----------------------------------------------------------------------
def test_transfer_queue_returns_payload_not_timestamp():
    sim = Simulator()
    q = TransferQueue(sim, capacity=10)
    q.try_put("tuple-1")
    assert q.try_get() == (True, "tuple-1")


def test_transfer_queue_drop_counting():
    sim = Simulator()
    q = TransferQueue(sim, capacity=2)
    assert q.try_put("a")
    assert q.try_put("b")
    assert not q.try_put("c")
    stats = q.stats()
    assert stats.offered == 3
    assert stats.accepted == 2
    assert stats.dropped == 1


def test_transfer_queue_wait_time_measured():
    sim = Simulator()
    q = TransferQueue(sim)
    q.try_put("x")
    sim.schedule_call(4.0, q.try_get)
    sim.run()
    stats = q.stats()
    assert stats.total_wait_time == pytest.approx(4.0)
    assert stats.dequeued == 1


def test_transfer_queue_max_length():
    sim = Simulator()
    q = TransferQueue(sim)
    for i in range(5):
        q.try_put(i)
    for _ in range(5):
        q.try_get()
    assert q.stats().max_length == 5


def test_transfer_queue_time_avg_length():
    sim = Simulator()
    q = TransferQueue(sim)
    q.try_put("x")  # length 1 from t=0
    sim.schedule_call(10.0, q.try_get)  # length 0 afterwards
    sim.run(until=20.0)
    # length was 1 for 10s then 0; integration points at changes only,
    # so average over [0, 10] is 1.0.
    assert q.time_avg_length() == pytest.approx(0.5, abs=0.51)


def test_transfer_queue_empty_stats():
    sim = Simulator()
    q = TransferQueue(sim)
    stats = q.stats()
    assert stats.total_wait_time == 0.0 and stats.dequeued == 0
    assert stats.offered == 0 and stats.dropped == 0
