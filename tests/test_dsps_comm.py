"""Focused tests of the communication engine: packet shapes, relaying,
slicing integration, and determinism."""

import pytest

from repro.core import create_system, whale_full_config, whale_woc_rdma_config
from repro.dsps import (
    AllGrouping, Bolt, Spout, Topology, rdma_storm_config, storm_config,
)
from repro.net import Cluster
from repro.workloads import ConstantArrivals


class OneSpout(Spout):
    payload_bytes = 150

    def __init__(self):
        self.n = 0

    def next_tuple(self):
        self.n += 1
        return {"n": self.n}, None, 150


class SinkBolt(Bolt):
    base_service_s = 1e-6


def broadcast_system(config, parallelism=16, machines=4, rate=200.0):
    topo = Topology("t")
    topo.add_spout("src", OneSpout)
    topo.add_bolt(
        "sink", SinkBolt, parallelism=parallelism, inputs={"src": AllGrouping()}
    )
    return create_system(
        topo,
        config,
        cluster=Cluster(machines, 1, 16),
        arrivals={"src": ConstantArrivals(rate)},
    )


# ----------------------------------------------------------------------
# message counts on the wire
# ----------------------------------------------------------------------
def test_storm_sends_one_message_per_remote_instance():
    system = broadcast_system(storm_config(), parallelism=16, machines=4)
    system.run_measured(warmup_s=0.0, measure_s=0.5)
    emitted = system.metrics.emitted["src"]
    # 12 of 16 instances are remote (4 local on machine 0).  Coalesced
    # per machine on the wire, but the byte count is per instance.
    per_tuple = system.traffic_bytes("data") / emitted
    single = system.serialization.instance_message_bytes(150)
    assert per_tuple == pytest.approx(12 * single, rel=0.1)


@pytest.mark.parametrize("make_config", [storm_config, rdma_storm_config])
def test_coalesced_instance_messages_each_pay_a_receive(make_config):
    """A machine hosting n destination tasks of one emit receives n
    instance-oriented messages, coalesced into one wire packet: its
    worker pays n receives per tuple, as the sender pays n sends."""
    system = broadcast_system(make_config(), parallelism=8, machines=2)
    system.start()
    system.sim.run(until=0.1)
    system.drain(0.2)
    [spout] = system.spout_executors
    [remote] = [m for m in system.workers if m != spout.machine_id]
    worker = system.workers[remote]
    n = len(worker.executors)
    assert n >= 2
    transport = system.transport
    if make_config is storm_config:
        per_message = system.costs.tcp_recv_cpu_s
    else:
        per_message = transport.profile(transport.data_verb).receiver_cpu_s
    assert worker.messages_received == spout.emitted > 0
    assert worker.cpu.busy_s["network"] == pytest.approx(
        spout.emitted * n * per_message
    )


def test_worker_oriented_sends_one_batch_per_remote_machine():
    system = broadcast_system(whale_woc_rdma_config(), parallelism=16, machines=4)
    system.run_measured(warmup_s=0.0, measure_s=0.5)
    emitted = system.metrics.emitted["src"]
    per_tuple = system.traffic_bytes("data") / emitted
    batch = system.serialization.batch_message_bytes(150, 4)
    assert per_tuple == pytest.approx(3 * batch, rel=0.1)


def test_nonblocking_source_sends_only_dstar_messages():
    config = whale_full_config(d_star=2, adaptive=False)
    system = broadcast_system(config, parallelism=16, machines=4)
    service = system.multicast_services[0]
    assert service.source_out_degree() <= 2
    # Endpoints = machines hosting sink tasks.
    assert len(service.endpoints) == 4
    system.run_measured(warmup_s=0.0, measure_s=0.3)
    # Every instance still received everything (via relays).
    assert system.metrics.processed["sink"] > 0
    counts = [
        system.executors[t].processed
        for t in system.placement.tasks_of["sink"]
    ]
    assert max(counts) - min(counts) <= 2


def test_relay_tree_covers_all_machines():
    config = whale_full_config(d_star=1, adaptive=False)
    system = broadcast_system(config, parallelism=32, machines=8)
    service = system.multicast_services[0]
    tree = service.tree
    machines = {service.machine_of(ep) for ep in service.endpoints}
    assert machines == set(range(8))
    # d*=1 gives a chain: depth == number of endpoints.
    assert tree.depth() == len(service.endpoints)
    system.run_measured(warmup_s=0.0, measure_s=0.3)
    assert system.metrics.multicast.completed > 0


def test_instance_level_tree_for_non_worker_oriented():
    from repro.dsps.presets import rdmc_config

    system = broadcast_system(rdmc_config(), parallelism=16, machines=4)
    service = system.multicast_services[0]
    # RDMC trees span instances, not workers.
    assert len(service.endpoints) == 16
    for ep in service.endpoints:
        kind, _ = ep
        assert kind == "t"


def test_mcast_service_rejects_foreign_tree():
    system = broadcast_system(whale_full_config(adaptive=False))
    service = system.multicast_services[0]
    from repro.multicast import build_sequential_tree, plan_switch

    _tree, plan = plan_switch(service.tree, 2)
    with pytest.raises(ValueError):
        service.install(
            build_sequential_tree(["x", "y"]), plan.status, [(None, plan)]
        )


# ----------------------------------------------------------------------
# slicing integration
# ----------------------------------------------------------------------
def test_slicing_batches_messages_into_fewer_wire_packets():
    sliced = broadcast_system(
        whale_woc_rdma_config(), parallelism=16, machines=4, rate=2_000.0
    )
    sliced.run_measured(warmup_s=0.0, measure_s=0.5)
    unsliced = broadcast_system(
        whale_woc_rdma_config().with_overrides(slicing=False),
        parallelism=16,
        machines=4,
        rate=2_000.0,
    )
    unsliced.run_measured(warmup_s=0.0, measure_s=0.5)
    assert sliced.fabric.messages_delivered < unsliced.fabric.messages_delivered / 2
    # Same tuples still arrive.
    assert (
        sliced.metrics.processed["sink"]
        == pytest.approx(unsliced.metrics.processed["sink"], rel=0.05)
    )


def test_slicer_created_per_destination_machine():
    system = broadcast_system(whale_woc_rdma_config(), parallelism=16, machines=4)
    system.run_measured(warmup_s=0.0, measure_s=0.2)
    # Source on machine 0 slices to machines 1..3.
    assert len(system.comm._slicers) == 3


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make_config",
    [storm_config, whale_woc_rdma_config, lambda: whale_full_config(d_star=3)],
    ids=["storm", "woc-rdma", "whale-full"],
)
def test_runs_are_deterministic(make_config):
    def run():
        system = broadcast_system(make_config(), parallelism=16, machines=4)
        m = system.run_measured(warmup_s=0.1, measure_s=0.4)
        return (
            m.processed["sink"],
            m.emitted["src"],
            tuple(m.multicast.latencies[:20]),
            system.traffic_bytes(),
        )

    assert run() == run()
