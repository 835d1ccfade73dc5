"""Unit tests for MetricsHub, trackers, and SystemConfig validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsps import MetricsHub, SystemConfig
from repro.dsps.metrics import LatencySamples, LatencySummary
from repro.net.rdma import Verb
from repro.sim import Simulator


# ----------------------------------------------------------------------
# LatencySummary
# ----------------------------------------------------------------------
def test_latency_summary_stats():
    s = LatencySummary.from_samples([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.p50 == pytest.approx(2.5)
    assert s.max == 4.0


def test_latency_summary_empty():
    s = LatencySummary.from_samples([])
    assert s.count == 0
    assert math.isnan(s.mean)


_latency = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
#: one append: a run of latencies and its multiplicity, or one sample
_append = st.one_of(
    st.tuples(st.lists(_latency, max_size=6), st.integers(1, 20)),
    _latency.map(lambda x: ([x], 1)),
)


@given(st.lists(_append, max_size=40))
def test_latency_samples_read_as_the_replicated_list(appends):
    """The store reads as ``latencies * k`` appended in turn: the same
    length, iteration order, sort and summary, to the bit."""
    store, replicated = LatencySamples(), []
    for latencies, k in appends:
        store.extend(latencies, k)
        replicated.extend(latencies * k)
    assert len(store) == len(replicated)
    assert bool(store) == bool(replicated)
    assert list(store) == replicated
    assert sorted(store) == sorted(replicated)
    assert np.asarray(store).tolist() == replicated
    summary = LatencySummary.from_samples(store)
    if replicated:  # every field compared with ==, the mean included
        assert summary == LatencySummary.from_samples(replicated)
    else:
        assert summary.count == 0 and math.isnan(summary.mean)


def test_empty_latency_samples_are_falsy_with_a_nan_summary():
    store = LatencySamples()
    store.extend([], 16)
    assert not store and len(store) == 0 and list(store) == []
    s = LatencySummary.from_samples(store)
    assert s.count == 0 and math.isnan(s.mean) and math.isnan(s.max)


# ----------------------------------------------------------------------
# trackers
# ----------------------------------------------------------------------
def test_multicast_tracker_completes_on_last_receive():
    sim = Simulator()
    hub = MetricsHub(sim)
    hub.multicast.register(1, [10, 11, 12], start=0.0)
    sim.run(until=2.0)
    hub.multicast.reached(1, [10, 11], sim.now)  # one packet, two destinations
    assert hub.multicast.completed == 0
    hub.multicast.reached(1, [12], sim.now)
    assert hub.multicast.completed == 1
    assert hub.multicast.latencies == [pytest.approx(2.0)]
    assert hub.multicast.outstanding == 0


def test_multicast_tracker_ignores_duplicate_delivery():
    """Regression: a re-delivered tuple used to double-decrement the
    remaining-destination counter and complete the multicast early."""
    sim = Simulator()
    hub = MetricsHub(sim)
    hub.multicast.register(1, [10, 11], start=0.0)
    hub.multicast.reached(1, [10], sim.now)
    hub.multicast.reached(1, [10], sim.now)  # duplicate: must not count as 11
    assert hub.multicast.completed == 0
    assert hub.multicast.outstanding == 1
    hub.multicast.reached(1, [11], sim.now)
    assert hub.multicast.completed == 1


def test_multicast_tracker_ignores_unknown_and_cancelled():
    sim = Simulator()
    hub = MetricsHub(sim)
    hub.multicast.reached(99, [0], sim.now)  # unknown: no-op
    hub.multicast.register(1, [10, 11], 0.0)
    hub.multicast.cancel(1)
    hub.multicast.reached(1, [10], sim.now)
    assert hub.multicast.completed == 0


def test_completion_tracker():
    sim = Simulator()
    hub = MetricsHub(sim)
    hub.completion.register(5, [20, 21], start=0.0)
    sim.run(until=1.5)
    hub.completion.reached(5, [20], sim.now)
    hub.completion.reached(5, [20], sim.now)  # duplicate execution report
    assert hub.completion.completed == 0
    hub.completion.reached(5, [21], sim.now)
    assert hub.completion.completed == 1
    assert hub.completion.latencies == [pytest.approx(1.5)]


def test_tracker_completes_at_the_latest_reach_not_the_last_call():
    """Lazy sinks realise executions out of completion-time order: a
    tuple completes at the running max of its reach instants, and a
    duplicate reach moves nothing."""
    hub = MetricsHub(Simulator())
    hub.completion.register(5, [20, 21, 22], start=0.0)
    hub.completion.reached(5, [20], 3.0)
    hub.completion.reached(5, [20], 9.0)  # duplicate: no new instant
    hub.completion.reached(5, [21, 22], 2.0)
    assert hub.completion.latencies == [3.0]
    assert hub.completion.open_roots == frozenset()


def test_tracker_register_merges_repeat_registration():
    """Two one-to-many edges from the same emit register the same tuple
    id twice; the destination sets merge and the earliest time wins."""
    sim = Simulator()
    hub = MetricsHub(sim)
    hub.multicast.register(1, [10], start=1.0)
    hub.multicast.register(1, [11], start=2.0)
    sim.run(until=3.0)
    hub.multicast.reached(1, [10], sim.now)
    assert hub.multicast.completed == 0
    hub.multicast.reached(1, [11], sim.now)
    assert hub.multicast.completed == 1
    assert hub.multicast.latencies == [pytest.approx(2.0)]  # 3.0 - 1.0


def test_tracker_register_validation():
    sim = Simulator()
    hub = MetricsHub(sim)
    with pytest.raises(ValueError):
        hub.multicast.register(1, [], 0.0)


# ----------------------------------------------------------------------
# measurement window
# ----------------------------------------------------------------------
def test_window_gates_recording():
    sim = Simulator()
    hub = MetricsHub(sim)
    hub.on_processed("op")  # before window: ignored
    hub.open_window()
    hub.on_processed("op")
    sim.run(until=2.0)
    hub.close_window()
    sim.run(until=3.0)
    hub.on_processed("op")  # after window: ignored
    assert hub.processed["op"] == 1
    assert hub.throughput("op") == pytest.approx(0.5)


def test_window_close_requires_open():
    hub = MetricsHub(Simulator())
    with pytest.raises(RuntimeError):
        hub.close_window()
    with pytest.raises(RuntimeError):
        _ = hub.window_duration


# ----------------------------------------------------------------------
# SystemConfig
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(name="x", transport="carrier-pigeon")
    with pytest.raises(ValueError):
        SystemConfig(name="x", multicast="star")
    with pytest.raises(ValueError):
        SystemConfig(name="x", transfer_queue_capacity=0)
    with pytest.raises(ValueError):
        SystemConfig(name="x", transport="tcp", slicing=True)
    with pytest.raises(ValueError):
        SystemConfig(name="x", d_star=0)
    with pytest.raises(ValueError, match="d_star must be an int"):
        SystemConfig(name="x", d_star=None)


def test_config_waterline_derived():
    cfg = SystemConfig(name="x", transfer_queue_capacity=100)
    assert cfg.warning_waterline == 50.0  # l_w = Q / 2


def test_config_with_overrides():
    cfg = SystemConfig(name="x")
    cfg2 = cfg.with_overrides(transport="rdma", data_verb=Verb.READ)
    assert cfg2.transport == "rdma"
    assert cfg.transport == "tcp"


def test_preset_table_matches_docs():
    from repro.dsps import rdma_storm_config, storm_config
    from repro.dsps.presets import rdmc_config
    from repro.core import (
        whale_full_config,
        whale_woc_config,
        whale_woc_rdma_config,
    )

    assert storm_config().transport == "tcp"
    assert not storm_config().worker_oriented
    assert rdma_storm_config().transport == "rdma"
    assert not rdma_storm_config().worker_oriented
    assert rdmc_config().multicast == "binomial"
    assert whale_woc_config().worker_oriented
    assert whale_woc_config().transport == "tcp"
    rdma = whale_woc_rdma_config()
    assert rdma.slicing and rdma.data_verb == Verb.READ
    full = whale_full_config()
    assert full.multicast == "nonblocking" and full.adaptive
