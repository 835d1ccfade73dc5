"""Unit tests for Cluster, Fabric/NicPort delivery, and transports."""

import pytest

from repro.net import (
    Cluster,
    CostModel,
    CpuAccount,
    Fabric,
    RdmaTransport,
    Verb,
    WireMessage,
)
from repro.sim import Simulator, each


def make_fabric(sim, n_machines=4, n_racks=1, bandwidth=1e9, latency=50e-6):
    cluster = Cluster(n_machines=n_machines, n_racks=n_racks)
    return Fabric(sim, cluster, bandwidth, latency, rack_hop_latency_s=0.5e-6)


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------
def test_cluster_round_robin_racks():
    c = Cluster(n_machines=6, n_racks=3)
    assert [m.rack for m in c] == [0, 1, 2, 0, 1, 2]


def test_cluster_rack_hops():
    c = Cluster(n_machines=4, n_racks=2)
    assert c.rack_hops(0, 2) == 0  # same rack
    assert c.rack_hops(0, 1) == 1  # different rack
    assert c.rack_hops(3, 3) == 0


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(n_machines=0)
    with pytest.raises(ValueError):
        Cluster(n_machines=3, n_racks=5)


def test_cluster_total_cores():
    assert sum(m.cores for m in Cluster(n_machines=30, cores=16)) == 480


# ----------------------------------------------------------------------
# Fabric
# ----------------------------------------------------------------------
def test_fabric_delivers_after_tx_plus_latency():
    sim = Simulator()
    fabric = make_fabric(sim, bandwidth=1e9, latency=50e-6)
    arrivals = []
    fabric.bind(1, lambda m: arrivals.append((sim.now, m.payload)))
    msg = WireMessage(payload="x", size_bytes=1250, src_machine=0, dst_machine=1)
    fabric.send(msg)
    sim.run()
    # 1250 B at 1 Gbps = 10 us tx, + 50 us latency.
    assert arrivals == [(pytest.approx(60e-6), "x")]


def test_fabric_egress_serializes_messages():
    sim = Simulator()
    fabric = make_fabric(sim, bandwidth=1e9, latency=0.0)
    arrivals = []
    fabric.bind(1, lambda m: arrivals.append(sim.now))
    for _ in range(3):
        fabric.send(
            WireMessage(payload=None, size_bytes=1250, src_machine=0, dst_machine=1)
        )
    sim.run()
    # Each 10us transmission must wait for the previous one.
    assert arrivals == [
        pytest.approx(10e-6),
        pytest.approx(20e-6),
        pytest.approx(30e-6),
    ]


def test_fabric_loopback_is_instant():
    sim = Simulator()
    fabric = make_fabric(sim)
    arrivals = []
    fabric.bind(0, lambda m: arrivals.append(sim.now))
    fabric.send(WireMessage(payload=None, size_bytes=10**6, src_machine=0, dst_machine=0))
    sim.run()
    assert arrivals == [0.0]
    # loopback never touches the NIC
    assert sum(p.bytes_sent for p in fabric.ports.values()) == 0


def test_fabric_rack_hop_latency():
    sim = Simulator()
    fabric = make_fabric(sim, n_machines=4, n_racks=2, latency=10e-6)
    assert fabric.latency(0, 2) == pytest.approx(10e-6)
    assert fabric.latency(0, 1) == pytest.approx(10.5e-6)


def test_fabric_unbound_receiver_counted_as_dead():
    sim = Simulator()
    fabric = make_fabric(sim)
    fabric.send(WireMessage(payload=None, size_bytes=1, src_machine=0, dst_machine=3))
    sim.run()
    assert fabric.messages_dead == 1
    assert fabric.messages_delivered == 0


def test_fabric_double_bind_rejected():
    sim = Simulator()
    fabric = make_fabric(sim)
    fabric.bind(0, lambda m: None)
    with pytest.raises(ValueError):
        fabric.bind(0, lambda m: None)


def test_fabric_traffic_accounting():
    sim = Simulator()
    fabric = make_fabric(sim)
    fabric.bind(1, lambda m: None)
    fabric.send(WireMessage(payload=None, size_bytes=100, src_machine=0, dst_machine=1))
    fabric.send(
        WireMessage(
            payload=None, size_bytes=50, src_machine=0, dst_machine=1, kind="control"
        )
    )
    sim.run()
    assert fabric.bytes_by_kind["data"] == 100
    assert fabric.bytes_by_kind["control"] == 50
    assert sum(p.bytes_sent for p in fabric.ports.values()) == 150


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        WireMessage(payload=None, size_bytes=-1, src_machine=0, dst_machine=1)


# ----------------------------------------------------------------------
# the kernel TCP route (a TCP system: no data verb)
# ----------------------------------------------------------------------
def test_tcp_send_charges_sender_cpu_and_sets_recv_cpu():
    sim = Simulator()
    costs = CostModel()
    fabric = make_fabric(sim)
    tcp = RdmaTransport(sim, fabric, costs, data_verb=None)
    inbox = []
    fabric.bind(1, inbox.append)
    cpu = CpuAccount(sim, "sender")
    sent_at = []

    tcp.send(0, 1, "hello", 200, cpu, then=lambda: sent_at.append(sim.now))
    sim.run()
    assert cpu.total_busy_s == pytest.approx(costs.tcp_send_cpu_s)
    # The sender continues once the kernel send path is paid.
    assert sent_at == [pytest.approx(costs.tcp_send_cpu_s)]
    [msg] = inbox
    assert msg.payload == "hello"
    assert msg.recv_cpu_s == costs.tcp_recv_cpu_s

    # A same-machine control send pays the kernel send path on a TCP
    # system, and the two-sided verb's post on an RDMA system.
    verb_cpu_s = costs.rdma_post_cpu_s + costs.rdma_send_credit_cpu_s
    for data_verb, category, send_cpu_s, recv_cpu_s in (
        (None, "network", costs.tcp_send_cpu_s, costs.tcp_recv_cpu_s),
        (Verb.READ, "rdma_post", verb_cpu_s, costs.rdma_twosided_recv_cpu_s),
    ):
        sim = Simulator()
        fabric = make_fabric(sim)
        transport = RdmaTransport(sim, fabric, costs, data_verb=data_verb)
        inbox = []
        fabric.bind(2, inbox.append)
        cpu = CpuAccount(sim, "controller")
        transport.send(2, 2, "rewire", 64, cpu, kind="control")
        sim.run()
        assert cpu.busy_s == {category: pytest.approx(send_cpu_s)}
        [msg] = inbox
        assert msg.recv_cpu_s == recv_cpu_s
        assert transport.rnics[2].wrs_posted == 0


# ----------------------------------------------------------------------
# RdmaTransport
# ----------------------------------------------------------------------
def test_rdma_send_cheaper_for_sender_than_tcp():
    sim = Simulator()
    costs = CostModel()
    fabric = make_fabric(sim, bandwidth=56e9, latency=1.5e-6)
    rdma = RdmaTransport(sim, fabric, costs)
    fabric.bind(1, lambda _msg: None)
    cpu = CpuAccount(sim, "sender")
    rdma.send(0, 1, "x", 200, cpu)
    sim.run()
    assert cpu.total_busy_s < costs.tcp_send_cpu_s / 3


def test_rdma_verbs_profiles_ordering():
    """Fig. 29/30 shape: read >= write > send on throughput economics."""
    costs = CostModel()
    sim = Simulator()
    rdma = RdmaTransport(sim, make_fabric(sim), costs)
    send = rdma.profile(Verb.SEND)
    write = rdma.profile(Verb.WRITE)
    read = rdma.profile(Verb.READ)
    # Per-message bottleneck cost (pipelined sender/receiver stages).
    def bottleneck(p):
        return max(p.sender_cpu_s, p.receiver_cpu_s, costs.rnic_wr_service_s)

    assert bottleneck(read) < bottleneck(write) < bottleneck(send)
    # One-sided verbs free the non-initiating side.
    assert read.sender_cpu_s < send.sender_cpu_s
    assert write.receiver_cpu_s < send.receiver_cpu_s


def send_in_turn(transport, cpu, messages, then=lambda: None):
    """Send ``(dst, payload, size)`` messages from machine 0, each once
    the previous send's continuation ran."""
    each(
        messages,
        lambda m, k: transport.send(0, m[0], m[1], m[2], cpu, then=k),
        then,
    )


def test_rdma_delivery_and_ring_recycling():
    sim = Simulator()
    costs = CostModel()
    fabric = make_fabric(sim, bandwidth=56e9, latency=1.5e-6)
    rdma = RdmaTransport(sim, fabric, costs, ring_capacity_bytes=1024)
    inbox = []
    fabric.bind(1, inbox.append)
    cpu = CpuAccount(sim, "sender")
    send_in_turn(rdma, cpu, [(1, i, 512) for i in range(10)])
    sim.run()
    assert [msg.payload for msg in inbox] == list(range(10))
    ring = rdma.rnics[0].ring
    assert ring.outstanding == 0  # everything recycled
    assert ring.allocs == 10 and ring.frees == 10


def test_rdma_ring_backpressure_blocks_sender():
    sim = Simulator()
    costs = CostModel()
    # Tiny ring: one message in flight at a time.
    fabric = make_fabric(sim, bandwidth=1e6, latency=1e-3)  # slow wire
    rdma = RdmaTransport(sim, fabric, costs, ring_capacity_bytes=600)
    fabric.bind(1, lambda _msg: None)
    cpu = CpuAccount(sim, "sender")
    done_at = []
    # The second send must wait for the first region's recycle.
    send_in_turn(rdma, cpu, [(1, "a", 512), (1, "b", 512)],
                 then=lambda: done_at.append(sim.now))
    sim.run()
    # Second alloc waited for the first delivery (~512*8/1e6 + 1e-3 > 5ms).
    assert done_at[0] > 4e-3
    assert rdma.rnics[0].ring.alloc_stalls == 1


def test_rdma_loopback_skips_rnic():
    sim = Simulator()
    fabric = make_fabric(sim)
    rdma = RdmaTransport(sim, fabric, CostModel())
    inbox = []
    fabric.bind(0, inbox.append)
    cpu = CpuAccount(sim, "sender")
    rdma.send(0, 0, "local", 100, cpu)
    sim.run()
    assert len(inbox) == 1
    assert rdma.rnics[0].wrs_posted == 0
