"""Tests for workload generators and application logic."""

import numpy as np
import pytest

from repro.apps.ridehailing import (
    AggregateBolt,
    MatchingBolt,
    ride_hailing_topology,
)
from repro.apps.stocks import (
    SplitBolt,
    StockMatchingBolt,
    VolumeBolt,
    stock_exchange_topology,
)
from repro.dsps.api import TupleContext
from repro.dsps.tuples import StreamTuple
from repro.workloads import (
    ConstantArrivals,
    DriverLocationGenerator,
    DynamicRateArrivals,
    PassengerRequestGenerator,
    PoissonArrivals,
    RateStep,
    StockOrderGenerator,
    didi_stats,
    nasdaq_stats,
)
from repro.workloads.arrivals import FiniteArrivals


# ----------------------------------------------------------------------
# arrivals
# ----------------------------------------------------------------------
def test_constant_arrivals():
    a = ConstantArrivals(100.0)
    assert a(0.0) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        ConstantArrivals(0.0)


def test_poisson_arrivals_mean_gap():
    rng = np.random.default_rng(0)
    a = PoissonArrivals(1000.0, rng)
    gaps = [a(0.0) for _ in range(5000)]
    assert np.mean(gaps) == pytest.approx(1e-3, rel=0.1)


def test_dynamic_rate_steps():
    rng = np.random.default_rng(0)
    a = DynamicRateArrivals(
        [RateStep(0.0, 100.0), RateStep(10.0, 1000.0)], rng
    )
    assert a.rate_at(5.0) == 100.0
    assert a.rate_at(10.0) == 1000.0
    assert a.rate_at(50.0) == 1000.0
    with pytest.raises(ValueError):
        DynamicRateArrivals([], rng)
    with pytest.raises(ValueError):
        DynamicRateArrivals([RateStep(5.0, 100.0)], rng)  # no step at t=0
    with pytest.raises(ValueError):
        DynamicRateArrivals([RateStep(0.0, -1.0)], rng)


def test_finite_arrivals_stops():
    a = FiniteArrivals(ConstantArrivals(10.0), limit=2)
    assert a(0.0) is not None
    assert a(0.0) is not None
    assert a(0.0) is None


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def test_driver_generator_fields_and_bounds():
    g = DriverLocationGenerator(np.random.default_rng(1), n_drivers=100)
    for _ in range(200):
        rec = g.next_record()
        assert 0 <= rec["driver_id"] < 100
        assert 0.0 <= rec["lat"] <= 1.0
        assert 0.0 <= rec["lon"] <= 1.0


def test_driver_positions_evolve():
    g = DriverLocationGenerator(np.random.default_rng(1), n_drivers=5)
    seen = {}
    for _ in range(500):
        rec = g.next_record()
        seen.setdefault(rec["driver_id"], set()).add((rec["lat"], rec["lon"]))
    assert len(seen) == 5
    assert all(len(positions) > 1 for positions in seen.values())


def test_request_generator_ids_increase():
    g = PassengerRequestGenerator(np.random.default_rng(2))
    ids = [g.next_record()["request_id"] for _ in range(10)]
    assert ids == list(range(1, 11))


def test_stock_generator_schema_and_skew():
    g = StockOrderGenerator(np.random.default_rng(3), n_symbols=100)
    records = [g.next_record() for _ in range(3000)]
    for rec in records[:50]:
        assert rec["side"] in ("buy", "sell")
        assert rec["price"] > 0
        assert 1 <= rec["quantity"] < 1000
    # Zipf popularity: the top symbol dominates a uniform share.
    counts = np.bincount([r["symbol"] for r in records], minlength=100)
    assert counts.max() > 3 * counts.mean()


def test_generator_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        DriverLocationGenerator(rng, n_drivers=0)
    with pytest.raises(ValueError):
        StockOrderGenerator(rng, n_symbols=0)
    with pytest.raises(ValueError):
        StockOrderGenerator(rng, zipf_s=1.0)


def test_table2_stats():
    didi = didi_stats()
    assert didi.n_tuples == 13_000_000_000 and didi.n_keys == 6_000_000
    nasdaq = nasdaq_stats()
    assert nasdaq.n_tuples == 274_000_000 and nasdaq.n_keys == 6_649
    scaled = didi.scaled(1e-6)
    assert scaled.n_tuples == 13_000
    with pytest.raises(ValueError):
        didi.scaled(0)


# ----------------------------------------------------------------------
# ride-hailing logic (operators exercised directly)
# ----------------------------------------------------------------------
class FakeCollector:
    def __init__(self):
        self.emitted = []

    def emit(self, stream=None, values=None, key=None, payload_bytes=None, anchor=None):
        self.emitted.append((values, key))


def driver_tuple(driver_id, lat, lon):
    return StreamTuple(
        stream="driver_locations",
        values={"driver_id": driver_id, "lat": lat, "lon": lon},
        key=driver_id,
        payload_bytes=150,
    )


def request_tuple(request_id, lat, lon):
    return StreamTuple(
        stream="requests",
        values={"request_id": request_id, "passenger_id": 1, "lat": lat, "lon": lon},
        payload_bytes=150,
    )


def test_matching_bolt_finds_nearest_driver():
    bolt = MatchingBolt(expected_local_drivers=10)
    col = FakeCollector()
    bolt.execute(driver_tuple(1, 0.50, 0.50), col)
    bolt.execute(driver_tuple(2, 0.52, 0.50), col)
    bolt.execute(driver_tuple(3, 0.90, 0.90), col)
    assert col.emitted == []
    bolt.execute(request_tuple(77, 0.51, 0.50), col)
    assert len(col.emitted) == 1
    values, key = col.emitted[0]
    assert values["driver_id"] == 1  # 0.01 away beats 0.01... wait
    assert key == 77


def test_matching_bolt_no_driver_in_radius():
    bolt = MatchingBolt(expected_local_drivers=10)
    col = FakeCollector()
    bolt.execute(driver_tuple(1, 0.9, 0.9), col)
    bolt.execute(request_tuple(5, 0.1, 0.1), col)
    assert col.emitted == []


def test_matching_bolt_service_time_scales_with_drivers():
    bolt = MatchingBolt(expected_local_drivers=0)
    t_empty = bolt.service_time(request_tuple(1, 0.5, 0.5))
    col = FakeCollector()
    for i in range(100):
        bolt.execute(driver_tuple(i, 0.5, 0.5), col)
    t_full = bolt.service_time(request_tuple(2, 0.5, 0.5))
    assert t_full > t_empty


def test_aggregate_bolt_keeps_best():
    bolt = AggregateBolt()
    col = FakeCollector()
    t1 = StreamTuple(
        stream="matching",
        values={"request_id": 1, "driver_id": 10, "distance": 0.04},
        key=1, payload_bytes=48,
    )
    t2 = StreamTuple(
        stream="matching",
        values={"request_id": 1, "driver_id": 11, "distance": 0.01},
        key=1, payload_bytes=48,
    )
    bolt.execute(t1, col)
    bolt.execute(t2, col)
    assert bolt.best[1]["driver_id"] == 11


def test_ride_hailing_topology_wiring():
    topo = ride_hailing_topology(parallelism=16)
    topo.validate()
    matching = topo.operators["matching"]
    assert matching.inputs["requests"].one_to_many
    assert not matching.inputs["driver_locations"].one_to_many
    assert topo.operators["aggregate"].terminal
    with pytest.raises(ValueError):
        ride_hailing_topology(parallelism=0)


# ----------------------------------------------------------------------
# stock-exchange logic
# ----------------------------------------------------------------------
def order_tuple(symbol, side, price, qty=10, valid=True):
    return StreamTuple(
        stream="split",
        values={
            "order_id": 1, "symbol": symbol, "side": side,
            "price": price, "quantity": qty, "valid": valid,
        },
        key=symbol,
        payload_bytes=64,
    )


def prepared_matching(task_index=0, parallelism=1):
    bolt = StockMatchingBolt(n_symbols=10)
    bolt.prepare(
        TupleContext(
            task_id=task_index, task_index=task_index,
            parallelism=parallelism, operator="matching", machine_id=0,
        )
    )
    return bolt


def test_split_bolt_filters_invalid():
    bolt = SplitBolt()
    col = FakeCollector()
    raw = StreamTuple(
        stream="orders",
        values={"symbol": 3, "side": "buy", "price": 10.0, "quantity": 5,
                "valid": False, "order_id": 9},
        key=3, payload_bytes=64,
    )
    bolt.execute(raw, col)
    assert col.emitted == [] and bolt.filtered == 1


def test_stock_matching_crosses_book():
    bolt = prepared_matching()
    col = FakeCollector()
    bolt.execute(order_tuple(3, "sell", 100.0), col)
    assert col.emitted == []  # resting ask
    bolt.execute(order_tuple(3, "buy", 101.0), col)  # crosses
    assert len(col.emitted) == 1
    trade, key = col.emitted[0]
    assert trade["symbol"] == 3 and trade["price"] == 100.0
    assert bolt.trades == 1


def test_stock_matching_no_cross_when_prices_apart():
    bolt = prepared_matching()
    col = FakeCollector()
    bolt.execute(order_tuple(3, "sell", 100.0), col)
    bolt.execute(order_tuple(3, "buy", 99.0), col)  # bid below ask
    assert col.emitted == []
    assert bolt.book_entries() == 2


def test_stock_matching_ignores_unowned_symbols():
    bolt = prepared_matching(task_index=0, parallelism=4)
    col = FakeCollector()
    for symbol in range(10):
        bolt.execute(order_tuple(symbol, "buy", 50.0), col)
    # Only ~1/4 of symbols are owned.
    assert 0 < bolt.orders_owned < 10


def test_stock_book_depth_bounded():
    bolt = prepared_matching()
    col = FakeCollector()
    for i in range(50):
        bolt.execute(order_tuple(3, "sell", 100.0 + i), col)
    assert bolt.book_entries() <= bolt.book_depth


def test_volume_bolt_accumulates():
    bolt = VolumeBolt()
    col = FakeCollector()
    trade = StreamTuple(
        stream="matching",
        values={"symbol": 3, "price": 10.0, "quantity": 5},
        key=3, payload_bytes=32,
    )
    bolt.execute(trade, col)
    bolt.execute(trade, col)
    assert bolt.total_volume == pytest.approx(100.0)
    assert bolt.volume[3] == pytest.approx(100.0)


def test_stock_topology_wiring():
    topo = stock_exchange_topology(parallelism=8)
    topo.validate()
    assert topo.operators["matching"].inputs["split"].one_to_many
    assert topo.operators["volume"].terminal
    with pytest.raises(ValueError):
        stock_exchange_topology(parallelism=0)
