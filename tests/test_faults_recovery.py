"""Fault injection, failure detection, tree repair, and acker replay.

The whole module carries the ``faults`` marker so CI can run it as a
dedicated suite: ``python -m pytest -m faults``.
"""

import pytest

from repro.bench.faults import node_failure_run
from repro.core import FailureDetector, create_system, whale_full_config
from repro.faults import FaultEvent, FaultSchedule
from repro.multicast import build_nonblocking_tree, plan_reattach, plan_repair
from repro.multicast.tree import TreeError
from repro.net import Cluster, Fabric, WireMessage
from repro.sim import Simulator
from repro.trace import MemoryTracer
from repro.workloads import PoissonArrivals

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# FaultSchedule
# ----------------------------------------------------------------------
def test_schedule_orders_events_by_time():
    sched = FaultSchedule(
        [FaultEvent.crash(0.5, 1), FaultEvent.crash(0.1, 2)]
    )
    assert [e.time for e in sched] == [0.1, 0.5]


def test_schedule_rejects_double_crash():
    with pytest.raises(ValueError):
        FaultSchedule([FaultEvent.crash(0.1, 1), FaultEvent.crash(0.2, 1)])


def test_schedule_rejects_recover_while_up():
    with pytest.raises(ValueError):
        FaultSchedule([FaultEvent.recover(0.1, 1)])


def test_single_crash_requires_recovery_after_crash():
    with pytest.raises(ValueError):
        FaultSchedule.single_crash(1, crash_at=0.2, recover_at=0.1)


def test_random_schedule_is_deterministic_per_seed():
    def build(seed):
        sched = FaultSchedule.random(
            list(range(10)), horizon_s=2.0, n_crashes=3, seed=seed,
            n_link_flaps=2,
        )
        return [(e.time, e.kind, e.machine, e.link) for e in sched]

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_random_schedule_respects_horizon_and_victim_distinctness():
    sched = FaultSchedule.random(
        list(range(6)), horizon_s=1.0, n_crashes=3, seed=1
    )
    crashes = [e for e in sched if e.kind == "crash"]
    assert len({e.machine for e in crashes}) == 3
    assert all(0.0 <= e.time <= 1.0 for e in sched)


def test_overload_events_validate_their_shape():
    with pytest.raises(ValueError):  # magnitude must amplify, not shrink
        FaultEvent.flash_crowd(0.1, magnitude=0.5, duration=0.2)
    with pytest.raises(ValueError):  # duration must be positive
        FaultEvent.flash_crowd(0.1, magnitude=4.0, duration=0.0)
    with pytest.raises(ValueError):  # flash crowds are global, no machine
        FaultEvent(time=0.1, kind="flash_crowd", machine=2,
                   magnitude=4.0, duration=0.2)
    with pytest.raises(ValueError):  # slow_node needs a machine
        FaultEvent(time=0.1, kind="slow_node", magnitude=2.0, duration=0.2)
    with pytest.raises(ValueError):  # other kinds reject overload fields
        FaultEvent(time=0.1, kind="crash", machine=1, magnitude=2.0)


def test_schedule_rejects_overlapping_overload_windows():
    with pytest.raises(ValueError):
        FaultSchedule([
            FaultEvent.flash_crowd(0.1, 4.0, 0.3),
            FaultEvent.flash_crowd(0.2, 4.0, 0.3),  # first still active
        ])
    with pytest.raises(ValueError):
        FaultSchedule([
            FaultEvent.slow_node(0.1, 2, 2.0, 0.3),
            FaultEvent.slow_node(0.2, 2, 2.0, 0.3),  # same machine
        ])
    # distinct machines may degrade concurrently
    FaultSchedule([
        FaultEvent.slow_node(0.1, 2, 2.0, 0.3),
        FaultEvent.slow_node(0.2, 3, 2.0, 0.3),
    ])


# ----------------------------------------------------------------------
# fabric-level crash semantics
# ----------------------------------------------------------------------
def _make_fabric(sim, n_machines=4):
    cluster = Cluster(n_machines=n_machines, n_racks=1)
    return Fabric(sim, cluster, 1e9, 10e-6, rack_hop_latency_s=1e-6)


def test_send_to_down_machine_is_a_counted_drop():
    sim = Simulator()
    fabric = _make_fabric(sim)
    fabric.bind(1, lambda m: None)
    fabric.set_machine_up(1, False)
    fabric.send(
        WireMessage(payload=None, size_bytes=10, src_machine=0, dst_machine=1)
    )
    sim.run()
    assert fabric.messages_dead == 1
    assert fabric.messages_delivered == 0


def test_machine_recovery_restores_delivery():
    sim = Simulator()
    fabric = _make_fabric(sim)
    got = []
    fabric.bind(1, got.append)
    fabric.set_machine_up(1, False)
    fabric.set_machine_up(1, True)
    fabric.send(
        WireMessage(payload="x", size_bytes=10, src_machine=0, dst_machine=1)
    )
    sim.run()
    assert len(got) == 1 and fabric.messages_dead == 0


def test_link_down_drops_in_flight_traffic():
    sim = Simulator()
    fabric = _make_fabric(sim)
    fabric.bind(1, lambda m: None)
    fabric.set_link_up(0, 1, False)
    fabric.send(
        WireMessage(payload=None, size_bytes=10, src_machine=0, dst_machine=1)
    )
    sim.run()
    assert fabric.messages_dead == 1
    fabric.set_link_up(0, 1, True)
    fabric.send(
        WireMessage(payload=None, size_bytes=10, src_machine=0, dst_machine=1)
    )
    sim.run()
    assert fabric.messages_delivered == 1


# ----------------------------------------------------------------------
# repair planners
# ----------------------------------------------------------------------
def test_plan_repair_excises_failed_node_and_keeps_dstar():
    endpoints = [("w", m) for m in range(9)]
    tree = build_nonblocking_tree(endpoints, d_star=2)
    interior = next(n for n in endpoints if tree.children(n))
    new_tree, plan = plan_repair(tree, interior, d_star=2)
    assert plan.status == "repair"
    assert interior not in new_tree
    new_tree.validate(d_star=2)
    # every orphaned child was rewired somewhere else
    assert {op.node for op in plan.ops} == set(tree.children(interior))
    assert all(op.new_parent != interior for op in plan.ops)


def test_plan_repair_rejects_root_and_unknown_nodes():
    tree = build_nonblocking_tree([("w", 0), ("w", 1)], d_star=2)
    with pytest.raises(TreeError):
        plan_repair(tree, tree.root, d_star=2)
    with pytest.raises(TreeError):
        plan_repair(tree, ("w", 99), d_star=2)


def test_plan_reattach_round_trips_a_repair():
    endpoints = [("w", m) for m in range(7)]
    tree = build_nonblocking_tree(endpoints, d_star=2)
    victim = next(n for n in endpoints if tree.children(n))
    repaired, _ = plan_repair(tree, victim, d_star=2)
    restored, plan = plan_reattach(repaired, victim, d_star=2)
    assert plan.status == "reattach"
    assert victim in restored
    restored.validate(d_star=2)
    assert sorted(restored.destinations()) == sorted(endpoints)


# ----------------------------------------------------------------------
# failure detector
# ----------------------------------------------------------------------
def test_detector_suspects_silent_machine_and_clears_on_ack():
    now = [0.0]
    det = FailureDetector(
        now_fn=lambda: now[0], machines=[1, 2], suspicion_timeout_s=0.1
    )
    now[0] = 0.05
    det.heard_from(1)
    now[0] = 0.12
    assert det.sweep() == [2]
    assert det.suspected == frozenset({2})
    # the ack that clears an active suspicion reports the recovery
    assert det.heard_from(2) is True
    assert det.suspected == frozenset()
    assert det.heard_from(2) is False


def test_detector_ignores_unwatched_machines():
    det = FailureDetector(now_fn=lambda: 0.0, machines=[1], suspicion_timeout_s=0.1)
    assert det.heard_from(99) is False
    assert det.machines == [1]


# ----------------------------------------------------------------------
# whole-system crash/recovery + replay
# ----------------------------------------------------------------------
def _build_system(
    seed=42, tracer=None, fault_schedule=None, fabric_options=None, **overrides
):
    from repro.apps.ridehailing import ride_hailing_topology

    import numpy as np

    defaults = dict(
        name="whale-test",
        ack_timeout_s=0.1,
        ack_sweep_interval_s=0.02,
        max_replays=10,
    )
    defaults.update(overrides)
    config = whale_full_config(adaptive=False).with_overrides(**defaults)
    topology = ride_hailing_topology(
        8, n_drivers=1000, compute_real_matches=False
    )
    rng = np.random.default_rng(seed)
    arrivals = {
        "requests": PoissonArrivals(150.0, rng),
        "driver_locations": PoissonArrivals(150.0, rng),
    }
    return create_system(
        topology,
        config,
        cluster=Cluster(5, 1, 16),
        arrivals=arrivals,
        seed=seed,
        tracer=tracer,
        fault_schedule=fault_schedule,
        fabric_options=fabric_options,
    )


def test_injector_applies_crash_and_recovery_with_traces():
    tracer = MemoryTracer(categories={"fault"})
    schedule = FaultSchedule.single_crash(3, crash_at=0.05, recover_at=0.1)
    system = _build_system(tracer=tracer, fault_schedule=schedule)
    system.start()
    system.sim.run(until=0.2)
    assert system.crash_count == 1 and system.recovery_count == 1
    assert not system.machine_is_crashed(3)
    assert not system.workers[3].crashed
    assert system.fault_injector.crashes_applied == 1
    kinds = [r["kind"] for r in tracer.records]
    assert "fault.crash" in kinds and "fault.recover" in kinds


def test_injector_applies_and_restores_overload_events():
    tracer = MemoryTracer(categories={"fault"})
    schedule = FaultSchedule([
        FaultEvent.flash_crowd(0.02, 6.0, 0.05),
        FaultEvent.slow_node(0.03, 2, 3.0, 0.05),
    ])
    system = _build_system(tracer=tracer, fault_schedule=schedule)
    system.start()
    system.sim.run(until=0.04)  # both windows active
    assert system.load_factor == 6.0
    slowed = [
        ex for ex in system.executors.values()
        if ex.machine_id == 2 and not ex.is_spout
    ]
    assert slowed and all(ex.service_scale == 3.0 for ex in slowed)
    system.sim.run(until=0.2)  # both windows expired
    assert system.load_factor == 1.0
    assert all(ex.service_scale == 1.0 for ex in system.executors.values())
    assert system.fault_injector.overload_events_applied == 2
    kinds = [r["kind"] for r in tracer.records]
    assert "fault.flash_crowd" in kinds and "fault.slow_node" in kinds


def test_crash_halts_executors_until_recovery():
    schedule = FaultSchedule.single_crash(3, crash_at=0.05)
    system = _build_system(fault_schedule=schedule)
    system.start()
    system.sim.run(until=0.1)
    victims = [
        ex for ex in system.executors.values() if ex.machine_id == 3
    ]
    assert victims and all(ex.halted for ex in victims)
    system.recover_machine(3)
    assert all(not ex.halted for ex in victims)


def test_replay_completes_all_trees_under_injected_loss():
    system = _build_system(
        delivery="at_least_once",
        fabric_options={"loss_probability": 0.05, "loss_seed": 3},
    )
    system.start()
    system.sim.run(until=0.3)
    assert system.drain(3.0).quiet
    reliability = system.reliability
    assert reliability.outstanding == 0
    assert reliability.registered > 0
    assert reliability.replays > 0, "loss should have forced replays"
    assert len(reliability.completions) == reliability.registered
    # backoff schedule: replayed trees took more than one attempt
    assert any(r.attempts > 0 for r in reliability.completions)
    assert not reliability.gave_up


def test_replay_gives_up_after_retry_budget():
    schedule = FaultSchedule.single_crash(3, crash_at=0.02)  # never recovers
    system = _build_system(
        delivery="at_least_once",
        failure_detection=False,
        max_replays=2,
        fault_schedule=schedule,
    )
    system.start()
    system.sim.run(until=0.1)
    system.drain(2.0)
    reliability = system.reliability
    # trees with a destination on the dead machine exhaust their budget
    assert reliability.gave_up
    assert reliability.outstanding == 0


def test_end_to_end_recovery_after_interior_relay_crash():
    point = node_failure_run(
        parallelism=12,
        n_machines=6,
        duration_s=0.6,
        crash_at=0.2,
        downtime_s=0.15,
        offered_rate=150.0,
        seed=42,
        check="strict",
    )
    assert point["check_report"].ok, point["check_report"].summary()
    assert point["outstanding"] == 0, "every registered tuple completes"
    assert point["gave_up"] == 0
    assert point["replays"] > 0
    assert point["repairs"] >= 1 and point["reattaches"] >= 1
    assert point["recovery_s"] > 0.0
    # full delivery restored after the machine came back
    assert point["recovery_s"] < 0.15 + 0.5


def test_end_to_end_recovery_is_deterministic():
    def run():
        point = node_failure_run(
            parallelism=12,
            n_machines=6,
            duration_s=0.6,
            crash_at=0.2,
            downtime_s=0.15,
            offered_rate=150.0,
            seed=42,
        )
        return (
            point["recovery_s"],
            point["completed"],
            point["replays"],
            point["repairs"],
            point["reattaches"],
            point["messages_dead"],
        )

    assert run() == run()


def test_tcp_tree_quarantines_a_machine_its_detector_suspects():
    """A TCP system with a multicast tree records suspicion the way an
    RDMA system does: a machine that crashes for good and stays
    suspected to the end of the run is on the degraded route."""
    import numpy as np

    from repro.apps.ridehailing import ride_hailing_topology

    config = whale_full_config(adaptive=False).with_overrides(
        transport="tcp", slicing=False, failure_detection=True
    )
    topology = ride_hailing_topology(
        24, n_drivers=1000, compute_real_matches=False
    )
    rng = np.random.default_rng(1)
    system = create_system(
        topology,
        config,
        cluster=Cluster(8, 1, 16),
        arrivals={
            "requests": PoissonArrivals(100.0, rng),
            "driver_locations": PoissonArrivals(100.0, rng),
        },
        seed=1,
        fault_schedule=FaultSchedule.single_crash(7, crash_at=0.1),
    )
    checker = system.attach_checker(mode="warn")
    system.run_measured(0, 0.5)
    report = checker.finalize()
    assert report.violations == []
    assert system.transport.is_degraded(7)
