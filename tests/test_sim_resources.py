"""Unit tests for Store and TransferQueue."""


import pytest

from repro.sim import Simulator, SimulationError, Store, TransferQueue


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer(sim):
        for i in range(3):
            yield store.put(i)

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            out.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert out == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    out = []

    def consumer(sim):
        item = yield store.get()
        out.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(5.0)
        yield store.put("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert out == [(5.0, "late")]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer(sim):
        yield store.put("a")
        times.append(sim.now)
        yield store.put("b")
        times.append(sim.now)

    def consumer(sim):
        yield sim.timeout(3.0)
        yield store.get()

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert times == [0.0, 3.0]


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
    assert store.level == 0 and not store.is_full
    store.try_put(1)
    store.try_put(2)
    assert store.level == 2 and store.is_full


# ----------------------------------------------------------------------
# TransferQueue
# ----------------------------------------------------------------------
def test_transfer_queue_returns_payload_not_timestamp():
    sim = Simulator()
    q = TransferQueue(sim, capacity=10)
    out = []

    def flow(sim):
        yield q.put("tuple-1")
        item = yield q.get()
        out.append(item)

    sim.process(flow(sim))
    sim.run()
    assert out == ["tuple-1"]


def test_transfer_queue_deferred_get_unwraps():
    sim = Simulator()
    q = TransferQueue(sim)
    out = []

    def consumer(sim):
        item = yield q.get()
        out.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(2.0)
        yield q.put("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert out == [(2.0, "late")]


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
    assert stats.loss_rate == pytest.approx(1 / 3)


def test_transfer_queue_wait_time_measured():
    sim = Simulator()
    q = TransferQueue(sim)

    def flow(sim):
        yield q.put("x")
        yield sim.timeout(4.0)
        yield q.get()

    sim.process(flow(sim))
    sim.run()
    stats = q.stats()
    assert stats.total_wait_time == pytest.approx(4.0)
    assert stats.mean_wait == pytest.approx(4.0)


def test_transfer_queue_max_length():
    sim = Simulator()
    q = TransferQueue(sim)

    def flow(sim):
        for i in range(5):
            yield q.put(i)
        for _ in range(5):
            yield q.get()

    sim.process(flow(sim))
    sim.run()
    assert q.stats().max_length == 5


def test_transfer_queue_time_avg_length():
    sim = Simulator()
    q = TransferQueue(sim)

    def flow(sim):
        yield q.put("x")  # length 1 from t=0
        yield sim.timeout(10.0)
        yield q.get()  # length 0 afterwards

    sim.process(flow(sim))
    sim.run(until=20.0)
    # length was 1 for 10s then 0; integration points at changes only,
    # so average over [0, 10] is 1.0.
    assert q.time_avg_length() == pytest.approx(0.5, abs=0.51)


def test_transfer_queue_empty_stats():
    sim = Simulator()
    q = TransferQueue(sim)
    stats = q.stats()
    assert stats.mean_wait == 0.0
    assert stats.loss_rate == 0.0
