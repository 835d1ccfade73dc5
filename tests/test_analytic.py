"""Tests for the closed-form models, including DES cross-checks."""

import math

import pytest

from repro.analytic import (
    SystemShape,
    multicast_latency_estimate,
    per_hop_time,
    queueing_wait_md1,
    source_capacity,
    source_service_time,
    sustainable_rate,
)
from repro.core import whale_full_config, whale_woc_config, whale_woc_rdma_config
from repro.dsps import rdma_storm_config, storm_config


SHAPE = SystemShape(parallelism=480, n_machines=30, payload_bytes=150)


def test_source_service_ordering_across_variants():
    """The heart of the paper, in closed form: each mechanism shortens
    the source's per-tuple service time."""
    t_storm = source_service_time(storm_config(), SHAPE)
    t_rdma = source_service_time(rdma_storm_config(), SHAPE)
    t_woc = source_service_time(whale_woc_config(), SHAPE)
    t_woc_rdma = source_service_time(whale_woc_rdma_config(), SHAPE)
    t_full = source_service_time(whale_full_config(), SHAPE)
    assert t_storm > t_rdma > t_woc > t_woc_rdma > t_full


def test_storm_capacity_matches_hand_computation():
    cfg = storm_config()
    shape = SystemShape(parallelism=480, n_machines=30, payload_bytes=150)
    # 464 remote instances x (serialize + kernel send) + 16 local dispatches.
    ser = cfg.costs.serialize_time(150 + 24 + 4)
    expected = 464 * (ser + cfg.costs.tcp_send_cpu_s) + 16 * cfg.costs.dispatch_cpu_s
    assert source_service_time(cfg, shape) == pytest.approx(expected)


def test_capacity_declines_with_parallelism_for_storm_only():
    """Fig. 13's crossing shapes, analytically."""
    for parallelism in (120, 240, 480):
        pass
    storm_caps = [
        source_capacity(
            storm_config(),
            SystemShape(parallelism=p, n_machines=30, payload_bytes=150),
        )
        for p in (120, 240, 480)
    ]
    whale_caps = [
        source_capacity(
            whale_full_config(),
            SystemShape(parallelism=p, n_machines=30, payload_bytes=150),
        )
        for p in (120, 240, 480)
    ]
    assert storm_caps[0] > storm_caps[1] > storm_caps[2]
    # Whale's source capacity is flat in parallelism (worker count fixed).
    assert whale_caps[2] > whale_caps[0] * 0.5
    assert whale_caps[2] > storm_caps[2] * 20


def test_sustainable_rate_takes_minimum():
    cfg = whale_full_config()
    r = sustainable_rate(cfg, SHAPE, downstream_service_s=1e-3)
    assert r == pytest.approx(1000.0)  # downstream-bound
    with pytest.raises(ValueError):
        sustainable_rate(cfg, SHAPE, downstream_service_s=1e-3, safety=0.0)


def test_queueing_wait_md1():
    assert queueing_wait_md1(0.0, 100.0) == 0.0
    # rho = 0.5, mu = 1: Wq = 0.5 / (2 * 1 * 0.5) = 0.5
    assert queueing_wait_md1(0.5, 1.0) == pytest.approx(0.5)
    assert queueing_wait_md1(2.0, 1.0) == math.inf
    with pytest.raises(ValueError):
        queueing_wait_md1(1.0, 0.0)


def test_md1_closed_form_sanity():
    # rho -> 1 diverges; rho = 0 means no wait.
    assert queueing_wait_md1(0.0, 1000.0) == 0.0
    assert math.isinf(queueing_wait_md1(1000.0, 1000.0))


def test_per_hop_time_rdma_below_tcp():
    tcp = per_hop_time(whale_woc_config(), payload_bytes=150, batch_ids=16)
    rdma = per_hop_time(whale_woc_rdma_config(), payload_bytes=150, batch_ids=16)
    assert rdma < tcp


def test_multicast_latency_nonblocking_wins_under_load():
    """Figs. 21/22: at high input rates the non-blocking tree beats both
    the binomial tree and sequential multicast."""
    cfg = whale_woc_rdma_config()
    n = 30
    hop = per_hop_time(cfg, 150, batch_ids=16)
    # Load most of the *binomial* tree's source capacity (d0 = 5): its
    # queue blows up while the non-blocking tree (d0 = 3) stays light;
    # sequential (d0 = 30) is outright unstable at this rate.
    rate = 0.9 / (5 * hop)
    seq = multicast_latency_estimate(cfg, "sequential", n, 150, rate, batch_ids=16)
    bino = multicast_latency_estimate(cfg, "binomial", n, 150, rate, batch_ids=16)
    nonb = multicast_latency_estimate(
        cfg, "nonblocking", n, 150, rate, d_star=3, batch_ids=16
    )
    assert nonb < bino < seq


def test_multicast_latency_binomial_wins_unloaded():
    """At negligible load the binomial tree's shorter critical path wins —
    the non-blocking tree's advantage is specifically a *queueing* one."""
    cfg = whale_woc_rdma_config()
    seq = multicast_latency_estimate(cfg, "sequential", 30, 150, 1.0, batch_ids=16)
    bino = multicast_latency_estimate(cfg, "binomial", 30, 150, 1.0, batch_ids=16)
    nonb = multicast_latency_estimate(
        cfg, "nonblocking", 30, 150, 1.0, d_star=3, batch_ids=16
    )
    assert bino <= nonb <= seq


def test_multicast_latency_unknown_structure():
    with pytest.raises(ValueError):
        multicast_latency_estimate(whale_woc_config(), "star", 30, 150, 1.0)


def test_analytic_matches_des_for_storm_throughput():
    """Cross-check: the DES's measured Storm throughput agrees with the
    closed-form source capacity within 15%."""
    import numpy as np

    from repro.dsps import AllGrouping, Bolt, DspsSystem, Spout, Topology
    from repro.net import Cluster
    from repro.workloads import PoissonArrivals

    class S(Spout):
        def next_tuple(self):
            return {}, None, 150

    class B(Bolt):
        base_service_s = 1e-6

    parallelism, machines = 64, 8
    topo = Topology("x")
    topo.add_spout("src", S)
    topo.add_bolt("sink", B, parallelism=parallelism, inputs={"src": AllGrouping()})
    cfg = storm_config()
    shape = SystemShape(
        parallelism=parallelism, n_machines=machines, payload_bytes=150
    )
    cap = source_capacity(cfg, shape)
    system = DspsSystem(
        topo,
        cfg,
        cluster=Cluster(machines, 1, 16),
        arrivals={"src": PoissonArrivals(cap * 1.5, np.random.default_rng(2))},
    )
    metrics = system.run_measured(warmup_s=0.3, measure_s=1.0)
    measured = metrics.throughput("sink") / parallelism
    assert measured == pytest.approx(cap, rel=0.15)
