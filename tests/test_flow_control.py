"""Overload protection: credits, shedding, admission, replay budget.

Covers the flow layer end to end on the small broadcast topology — every
run here is strict-checked, so the ``bounded_queues`` and
``shed_conservation`` invariants are exercised alongside the assertions.
"""

import re
from pathlib import Path

import pytest

from repro.core import create_system, whale_full_config
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.sim.engine import Simulator
from repro.sim.queues import TransferQueue
from repro.trace import MemoryTracer
from repro.trace.tracer import ALL_CATEGORIES

from repro.dsps import AllGrouping, Topology

from tests._check_util import (
    RecordingBolt,
    SeqSpout,
    broadcast_topology,
    build_checked_system,
    finite_arrivals,
)

pytestmark = pytest.mark.faults


def _build(
    config,
    n_tuples=100_000,
    gap_s=0.001,
    seed=1,
    service_s=2e-4,
    parallelism=6,
    n_machines=3,
    tracer=None,
    fault_schedule=None,
    fabric_options=None,
    check="strict",
):
    """Like ``build_checked_system`` but with a tunable bolt service
    time — slow enough that an overload burst actually queues."""
    log = []

    def factory():
        bolt = RecordingBolt(log)
        bolt.base_service_s = service_s
        return bolt

    topo = Topology("flow")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt(
        "sink",
        factory,
        parallelism=parallelism,
        inputs={"src": AllGrouping()},
        terminal=True,
    )
    system = create_system(
        topo,
        config,
        cluster=Cluster(n_machines, 1, 16),
        arrivals={"src": finite_arrivals(gap_s, n_tuples)},
        seed=seed,
        tracer=tracer,
        fault_schedule=fault_schedule,
        fabric_options=fabric_options,
    )
    if check:
        system.attach_checker(mode=check)
    return system, log


def _flow_config(delivery="at_most_once", **overrides):
    defaults = dict(
        name=f"test-flow-{delivery}",
        delivery=delivery,
        flow=True,
        credit_window=8,
        ack_timeout_s=0.1,
        ack_sweep_interval_s=0.02,
        max_replays=10,
        epoch_interval_s=0.05,
    )
    defaults.update(overrides)
    return whale_full_config(adaptive=False).with_overrides(**defaults)


def _run(system, duration_s=0.4, drain_s=0.6):
    system.run_measured(0.0, duration_s, drain_s=drain_s)
    if system.checker is not None:
        report = system.checker.finalize()
        assert report.ok, report.summary()
    return system


def _burst_schedule(magnitude=10.0, at=0.05, duration=0.2):
    return FaultSchedule([FaultEvent.flash_crowd(at, magnitude, duration)])


def _hwm(system):
    return max(
        getattr(ex, "inqueue_hwm", 0) for ex in system.executors.values()
    )


# ----------------------------------------------------------------------
# credits bound queues; without flow the same burst grows them
# ----------------------------------------------------------------------
def test_credits_bound_inqueues_under_flash_crowd():
    system, log = _build(
        _flow_config(),
        fault_schedule=_burst_schedule(),
    )
    _run(system)
    assert log, "nothing was delivered"
    window = system.config.credit_window
    assert 0 < _hwm(system) <= 2 * window
    assert system.flow is not None
    assert system.flow.credit_stalls > 0  # the burst actually pushed back


def test_without_flow_the_same_burst_grows_queues():
    protected, unprotected = [], []
    for flow, out in ((True, protected), (False, unprotected)):
        system, _ = _build(
            _flow_config(flow=flow),
            fault_schedule=_burst_schedule(),
        )
        _run(system)
        out.append(_hwm(system))
    assert protected[0] < unprotected[0]


# ----------------------------------------------------------------------
# shedding (unreliable) and defer-and-nack (reliable)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["drop_tail", "drop_head", "random"])
def test_shed_policy_accounts_for_every_message(policy):
    system, _ = _build(
        _flow_config(shed_policy=policy, transfer_queue_capacity=2),
        gap_s=0.0005,
        fault_schedule=_burst_schedule(magnitude=20.0),
    )
    _run(system)
    metrics = system.metrics
    flow = system.flow
    assert metrics.messages_shed > 0
    assert metrics.messages_shed == flow.shed_refusals + flow.shed_evictions
    if policy == "drop_tail":
        assert flow.shed_evictions == 0  # refuses the newcomer instead
    else:
        assert flow.shed_evictions > 0
    # shedding must not masquerade as queue drops (metrics_replay_equiv
    # cross-checks those against the trace)
    assert all(
        not where.endswith(".transfer_queue")
        for where in metrics.dropped
        if metrics.dropped[where]
    )


def test_reliable_spout_defers_instead_of_shedding():
    system, log = _build(
        _flow_config("at_least_once", transfer_queue_capacity=2),
        gap_s=0.0005,
        fault_schedule=_burst_schedule(magnitude=20.0),
    )
    _run(system)
    assert log, "nothing was delivered"
    assert system.metrics.messages_deferred > 0
    assert system.metrics.messages_shed == 0
    assert system.flow.deferred == system.metrics.messages_deferred


# ----------------------------------------------------------------------
# TransferQueue.evict
# ----------------------------------------------------------------------
def test_evict_conserves_and_admits_waiting_putter():
    sim = Simulator()
    q = TransferQueue(sim, capacity=2, name="t")
    assert q.try_put("a") and q.try_put("b")
    got = {}
    # blocks: queue full
    assert not q.offer("c", lambda: got.setdefault("put", True))
    victim = q.evict(0)
    assert victim == "a"
    sim.run(until=0.01)
    assert q.shed == 1
    assert q.level == 2  # "c" was admitted into the freed slot
    assert [payload for _, payload in q.items] == ["b", "c"]
    # accepted (3) == dequeued (0) + cleared (0) + shed (1) + level (2)
    assert q.accepted == q.dequeued + q.cleared + q.shed + q.level


def test_evict_empty_queue_raises():
    q = TransferQueue(Simulator(), capacity=2, name="t")
    with pytest.raises(IndexError):
        q.evict()


# ----------------------------------------------------------------------
# replay budget: leaky bucket + congestion backoff
# ----------------------------------------------------------------------
def test_replay_gate_enforces_rate_and_tracks_congestion():
    topo, _ = broadcast_topology(2)
    system = create_system(
        topo,
        _flow_config(
            "at_least_once", replay_rate_per_s=100.0, replay_burst=3
        ),
        cluster=Cluster(2, 1, 16),
        arrivals={"src": finite_arrivals(0.01, 1)},
        seed=1,
    )
    flow = system.flow
    delays = [flow.replay_gate()[0] for _ in range(6)]
    assert delays[:3] == [0.0, 0.0, 0.0]  # burst allowance
    assert all(d > 0 for d in delays[3:])  # then the bucket throttles
    assert delays[3] < delays[4] < delays[5]
    assert flow.replays_granted == 3
    assert flow.replays_throttled == 3
    assert flow.congestion == 3
    # grants spaced at the token rate decay congestion back to zero
    system.sim.run(until=1.0)
    for _ in range(3):
        flow.replay_gate()
    assert flow.congestion == 0


def test_congested_replays_back_off_further():
    """The same seeded run replays less aggressively with the budget on."""
    counts = {}
    for flow_on in (False, True):
        system, _ = build_checked_system(
            _flow_config(
                "at_least_once",
                flow=flow_on,
                replay_rate_per_s=50.0,
                replay_burst=2,
            ),
            n_tuples=60,
            gap_s=0.002,
            fabric_options={"loss_probability": 0.3, "loss_seed": 7},
        )
        _run(system, duration_s=0.3, drain_s=1.2)
        counts[flow_on] = system.reliability.replays
    assert 0 < counts[True] < counts[False]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_overload_run_is_bit_identical_per_seed():
    def fingerprint():
        system, log = _build(
            _flow_config("at_least_once", shed_policy="random"),
            n_tuples=400,
            seed=5,
            fault_schedule=_burst_schedule(),
        )
        _run(system)
        return (
            tuple(log),
            system.flow.snapshot(),
            system.metrics.messages_deferred,
            system.sim.now,
        )

    assert fingerprint() == fingerprint()


# ----------------------------------------------------------------------
# every emitted trace category is registered
# ----------------------------------------------------------------------
def test_every_emitted_trace_category_is_registered():
    """Unregistered categories are silently dropped by the tracer — a
    typo in an emit call would lose records without failing anything, so
    pin every source-level emit kind to the registry."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    pattern = re.compile(r"""emit\(\s*f?["']([a-z_]+)\.""")
    found = set()
    for path in src.rglob("*.py"):
        found |= set(pattern.findall(path.read_text()))
    assert found  # the scan itself must not silently go blind
    unregistered = found - ALL_CATEGORIES
    assert not unregistered, (
        f"emit() calls use unregistered categories: {sorted(unregistered)}"
    )


def test_flow_records_reach_an_attached_tracer():
    tracer = MemoryTracer()
    system, _ = _build(
        _flow_config(transfer_queue_capacity=2, shed_policy="drop_head"),
        gap_s=0.0005,
        tracer=tracer,
        fault_schedule=_burst_schedule(magnitude=20.0),
    )
    _run(system)
    kinds = {r["kind"] for r in tracer.records}
    assert "flow.credit_stall" in kinds or "shed.evict" in kinds
    assert "fault.flash_crowd" in kinds
