"""Tests for fabric fault injection and rack-uplink oversubscription."""

import pytest

from repro.net import Cluster, CostModel, CpuAccount, Fabric, RdmaTransport, WireMessage
from repro.sim import Simulator, each


def make_fabric(sim, n_machines=4, n_racks=1, **kwargs):
    cluster = Cluster(n_machines=n_machines, n_racks=n_racks)
    return Fabric(sim, cluster, 1e9, 10e-6, rack_hop_latency_s=1e-6, **kwargs)


# ----------------------------------------------------------------------
# loss injection
# ----------------------------------------------------------------------
def test_loss_drops_roughly_the_configured_fraction():
    sim = Simulator()
    fabric = make_fabric(sim, loss_probability=0.2, loss_seed=7)
    delivered = []
    fabric.bind(1, delivered.append)
    n = 2000
    for i in range(n):
        fabric.send(
            WireMessage(payload=i, size_bytes=10, src_machine=0, dst_machine=1)
        )
    sim.run()
    assert fabric.messages_lost + len(delivered) == n
    assert fabric.messages_lost == pytest.approx(0.2 * n, rel=0.2)


def test_loss_zero_by_default():
    sim = Simulator()
    fabric = make_fabric(sim)
    fabric.bind(1, lambda m: None)
    for i in range(100):
        fabric.send(
            WireMessage(payload=i, size_bytes=10, src_machine=0, dst_machine=1)
        )
    sim.run()
    assert fabric.messages_lost == 0


def test_loss_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator()
        fabric = make_fabric(sim, loss_probability=0.3, loss_seed=seed)
        got = []
        fabric.bind(1, lambda m: got.append(m.payload))
        for i in range(200):
            fabric.send(
                WireMessage(payload=i, size_bytes=10, src_machine=0, dst_machine=1)
            )
        sim.run()
        return got

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_loss_still_recycles_ring_regions():
    """A lost message must not leak its sender-side ring region."""
    sim = Simulator()
    costs = CostModel()
    cluster = Cluster(2, 1, 16)
    fabric = Fabric(
        sim, cluster, 56e9, 1.5e-6, loss_probability=0.5, loss_seed=3
    )
    rdma = RdmaTransport(sim, fabric, costs, ring_capacity_bytes=2048)
    fabric.bind(1, lambda _msg: None)
    cpu = CpuAccount(sim, "s")
    each(
        range(50),
        lambda i, k: rdma.send(0, 1, i, 512, cpu, then=k),
        lambda: None,
    )
    sim.run()
    assert fabric.messages_lost > 0
    assert rdma.rnics[0].ring.outstanding == 0  # no leak despite losses


def test_loss_probability_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        make_fabric(sim, loss_probability=1.0)
    with pytest.raises(ValueError):
        make_fabric(sim, loss_probability=-0.1)


# ----------------------------------------------------------------------
# rack uplink oversubscription
# ----------------------------------------------------------------------
def test_uplink_serializes_cross_rack_traffic():
    sim = Simulator()
    # 1 Gbps NICs, 10 Mbps shared uplink: cross-rack tx dominated by core.
    fabric = make_fabric(
        sim, n_machines=4, n_racks=2, rack_uplink_bandwidth_bps=10e6
    )
    arrivals = []
    fabric.bind(1, lambda m: arrivals.append(sim.now))  # machine 1: rack 1
    for _ in range(3):
        fabric.send(
            WireMessage(payload=None, size_bytes=12_500, src_machine=0, dst_machine=1)
        )
    sim.run()
    # 12500 B at 10 Mbps = 10 ms per message on the uplink, serialized.
    assert arrivals[1] - arrivals[0] == pytest.approx(10e-3, rel=0.05)
    assert arrivals[2] - arrivals[1] == pytest.approx(10e-3, rel=0.05)
    assert fabric.uplinks[0].bytes_sent == 3 * 12_500


def test_uplink_not_used_within_rack():
    sim = Simulator()
    fabric = make_fabric(
        sim, n_machines=4, n_racks=2, rack_uplink_bandwidth_bps=10e6
    )
    arrivals = []
    fabric.bind(2, lambda m: arrivals.append(sim.now))  # machine 2: rack 0
    fabric.send(
        WireMessage(payload=None, size_bytes=12_500, src_machine=0, dst_machine=2)
    )
    sim.run()
    # NIC tx (100 us) + latency only; no 10 ms uplink serialization.
    assert arrivals[0] < 1e-3
    assert fabric.uplinks[0].bytes_sent == 0


def test_uplink_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        make_fabric(sim, n_racks=2, rack_uplink_bandwidth_bps=0)


def test_no_uplinks_by_default():
    sim = Simulator()
    fabric = make_fabric(sim, n_racks=2)
    assert fabric.uplinks == {}
