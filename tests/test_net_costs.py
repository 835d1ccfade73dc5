"""Unit tests for the cost model, CPU accounting, and serialization model."""

import pytest

from repro.net import CostModel, CpuAccount, SerializationModel
from repro.net import cpu as cats
from repro.sim import Simulator


# ----------------------------------------------------------------------
# CostModel
# ----------------------------------------------------------------------
def test_serialize_time_scales_with_bytes():
    c = CostModel()
    assert c.serialize_time(1000) > c.serialize_time(100) > c.serialize_base_s


def test_wire_time():
    c = CostModel()
    # 1 Gbps: 125 MB/s -> 125 bytes in 1 us.
    assert c.wire_time(125, 1e9) == pytest.approx(1e-6)


def test_with_overrides_is_nondestructive():
    base = CostModel()
    tweaked = base.with_overrides(tcp_send_cpu_s=1.0)
    assert tweaked.tcp_send_cpu_s == 1.0
    assert base.tcp_send_cpu_s != 1.0


def test_rdma_cheaper_than_tcp():
    """The premise of the paper: RDMA saves sender CPU per message."""
    c = CostModel()
    assert c.rdma_post_cpu_s < c.tcp_send_cpu_s / 5


# ----------------------------------------------------------------------
# CpuAccount
# ----------------------------------------------------------------------
def test_cpu_work_advances_time_and_accrues():
    sim = Simulator()
    acct = CpuAccount(sim, "t0")
    done = []
    acct.spend(
        2.0, cats.SERIALIZATION,
        lambda: acct.spend(3.0, cats.NETWORK, lambda: done.append(sim.now)),
    )
    sim.run()
    assert done == [5.0]
    assert acct.busy_s[cats.SERIALIZATION] == 2.0
    assert acct.busy_s[cats.NETWORK] == 3.0
    assert acct.total_busy_s == 5.0


def test_cpu_zero_work_records_without_yield():
    sim = Simulator()
    acct = CpuAccount(sim, "t0")
    done = []
    acct.spend(0.0, cats.OTHER, lambda: done.append(sim.now))
    assert done == [0.0]  # continued at once, no calendar entry
    assert sim.peek() == float("inf")
    assert acct.busy_s[cats.OTHER] == 0.0


def test_cpu_negative_work_rejected():
    sim = Simulator()
    acct = CpuAccount(sim, "t0")
    with pytest.raises(ValueError):
        acct.spend(-1.0, cats.OTHER, lambda: None)
    with pytest.raises(ValueError):
        acct.charge(-1.0)


def test_cpu_utilization_capped_at_one():
    sim = Simulator()
    acct = CpuAccount(sim, "t0")
    acct.charge(100.0)
    sim.run(until=10.0)
    assert acct.utilization() == 1.0


def test_cpu_breakdown_fractions():
    sim = Simulator()
    acct = CpuAccount(sim, "t0")
    acct.charge(3.0, cats.SERIALIZATION)
    acct.charge(1.0, cats.NETWORK)
    bd = acct.breakdown()
    assert bd[cats.SERIALIZATION] == pytest.approx(0.75)
    assert bd[cats.NETWORK] == pytest.approx(0.25)


def test_cpu_reset():
    sim = Simulator()
    acct = CpuAccount(sim, "t0")
    acct.charge(3.0)
    acct.reset()
    assert acct.total_busy_s == 0.0
    assert acct.breakdown() == {}


# ----------------------------------------------------------------------
# SerializationModel
# ----------------------------------------------------------------------
def test_instance_vs_batch_message_bytes():
    m = SerializationModel(CostModel())
    payload = 150
    single = m.instance_message_bytes(payload)
    batch16 = m.batch_message_bytes(payload, 16)
    # 16 destinations in one batch cost 15 extra ids, not 15 extra payloads.
    assert batch16 - single == 15 * m.costs.dst_id_bytes


def test_batch_requires_destinations():
    m = SerializationModel(CostModel())
    with pytest.raises(ValueError):
        m.batch_message_bytes(100, 0)


def test_worker_oriented_traffic_beats_sequential():
    """The Fig. 27/28 effect: Whale's traffic is ~flat in parallelism."""
    m = SerializationModel(CostModel())
    payload = 150
    # 480 instances on 30 workers (16 each): Storm sends one message per
    # instance, Whale one BatchTuple per worker.
    seq = 480 * m.instance_message_bytes(payload)
    woc = 30 * m.batch_message_bytes(payload, 16)
    assert woc < seq / 10
    # Doubling instances per worker grows Whale's bytes far slower than
    # sequential's strict doubling (only the 4-byte ids are added).
    woc2 = 30 * m.batch_message_bytes(payload, 32)
    assert (woc2 - woc) / woc < 0.5


def test_serialize_batch_cheaper_than_n_singles():
    m = SerializationModel(CostModel())
    payload = 150
    one_batch = m.serialize_batch_message(payload, 16)
    n_singles = 16 * m.serialize_instance_message(payload)
    assert one_batch < n_singles / 5
