"""Delivery-semantics layer: exactly-once dedup, atomic multicast,
epoch GC, jittered replay backoff, and abandonment accounting.

The whole module carries the ``faults`` marker: every guarantee here is
only interesting under injected loss, crashes, or link flaps.
"""

from collections import Counter

import pytest

from repro.core import create_system, whale_full_config
from repro.dsps import AllGrouping, Topology
from repro.dsps.config import DELIVERY_MODES, SystemConfig
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.trace import MemoryTracer
from repro.workloads import PoissonArrivals

from tests._check_util import (
    RecordingBolt,
    SeqSpout,
    build_checked_system,
    finite_arrivals,
)

pytestmark = pytest.mark.faults

LOSSY = {"loss_probability": 0.08, "loss_seed": 3}


def _delivery_config(delivery, **overrides):
    defaults = dict(
        name=f"test-{delivery}",
        delivery=delivery,
        ack_timeout_s=0.1,
        ack_sweep_interval_s=0.02,
        max_replays=10,
        epoch_interval_s=0.05,
    )
    defaults.update(overrides)
    return whale_full_config(adaptive=False).with_overrides(**defaults)


def _drain(system, deadline_s=4.0):
    reliability = system.reliability
    while (
        reliability is not None
        and (reliability.outstanding or reliability.held_entries)
        and system.sim.now < deadline_s
    ):
        system.sim.run(until=system.sim.now + 0.05)
    # a few more epochs so the GC barrier can pass over settled roots
    system.sim.run(until=system.sim.now + 0.3)


def _run_broadcast(delivery, seed=1, n_tuples=60, check="strict", **overrides):
    config = _delivery_config(delivery, **overrides)
    system, log = build_checked_system(
        config,
        parallelism=6,
        n_machines=3,
        n_tuples=n_tuples,
        gap_s=0.002,
        seed=seed,
        fabric_options=dict(LOSSY),
        check=check,
    )
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    if check:
        report = system.checker.finalize()
        assert report.ok, report.summary()
    return system, log


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------
def test_delivery_mode_catalog_and_validation():
    assert DELIVERY_MODES == (
        "at_most_once", "at_least_once", "exactly_once", "atomic"
    )
    with pytest.raises(ValueError):
        SystemConfig(name="bad", delivery="exactly_twice")
    with pytest.raises(ValueError):
        SystemConfig(name="bad", epoch_interval_s=0.0)


def test_delivery_defaults_to_at_most_once():
    assert SystemConfig(name="c").delivery == "at_most_once"
    assert not SystemConfig(name="c").reliability_enabled
    strong = SystemConfig(name="c", delivery="exactly_once")
    assert strong.reliability_enabled


def test_legacy_at_least_once_flag_is_rejected():
    # `delivery` is the only switch; the old bool must fail loudly, not
    # be silently ignored.
    legacy = {"at_least_once": True}
    with pytest.raises(TypeError):
        SystemConfig(name="c", **legacy)
    with pytest.raises(TypeError):
        whale_full_config().with_overrides(**legacy)


# ----------------------------------------------------------------------
# exactly-once: dedup + selective replay
# ----------------------------------------------------------------------
def test_exactly_once_executes_each_tuple_once_under_loss():
    alo_system, alo_log = _run_broadcast("at_least_once")
    eo_system, eo_log = _run_broadcast("exactly_once")

    assert alo_system.reliability.replays > 0
    assert eo_system.reliability.replays > 0, "loss must force replays"

    alo_dups = [k for k, n in Counter(alo_log).items() if n > 1]
    eo_dups = [k for k, n in Counter(eo_log).items() if n > 1]
    assert alo_dups, "at-least-once replays re-execute delivered tuples"
    assert not eo_dups, f"exactly-once leaked duplicates: {eo_dups[:5]}"
    assert eo_system.reliability.duplicate_executions == 0
    # both modes delivered the same distinct (seq, task) set
    assert set(eo_log) == set(alo_log)


def test_exactly_once_suppresses_replayed_copies_not_first_deliveries():
    system, log = _run_broadcast("exactly_once", seed=5)
    coord = system.reliability
    # the idempotent-execution contract: a replayed copy that reaches an
    # already-executed task is acked but never re-executed
    assert coord.duplicates_suppressed > 0
    assert coord.duplicate_executions == 0
    assert len(set(log)) == len(log)
    assert coord.outstanding == 0 and not coord.gave_up


# ----------------------------------------------------------------------
# atomic: sender order + all-or-none
# ----------------------------------------------------------------------
def test_atomic_commits_in_sender_order_under_loss():
    system, log = _run_broadcast("atomic")
    coord = system.reliability
    assert coord.commits > 0
    assert coord.audit_violations() == []
    for sender, seqs in coord.commit_order.items():
        assert seqs == sorted(seqs), (
            f"sender {sender} committed out of order: {seqs}"
        )
    assert coord.duplicate_executions == 0
    assert len(set(log)) == len(log)


def test_notice_batching_preserves_commit_order_and_saves_messages():
    """Batched commit notices are an optimisation, not a semantic change:
    the same seeded lossy run must commit the same roots in the same
    per-sender order with and without batching — batching may only lower
    the control-message count."""
    outcomes = {}
    for batching in (True, False):
        config = _delivery_config("atomic")
        system, log = build_checked_system(
            config,
            parallelism=6,
            n_machines=3,
            n_tuples=60,
            gap_s=0.002,
            seed=1,
            fabric_options=dict(LOSSY),
            check="strict",
        )
        system.reliability._notice_batching = batching
        system.start()
        system.sim.run(until=0.3)
        _drain(system)
        report = system.checker.finalize()
        assert report.ok, report.summary()
        coord = system.reliability
        assert coord.audit_violations() == []
        outcomes[batching] = {
            "log": tuple(log),
            "commit_order": {
                sender: tuple(seqs)
                for sender, seqs in coord.commit_order.items()
            },
            "commits": coord.commits,
            "notices": coord.notice_messages,
        }
    batched, unbatched = outcomes[True], outcomes[False]
    assert batched["commits"] > 0
    assert batched["commit_order"] == unbatched["commit_order"]
    assert batched["log"] == unbatched["log"]
    assert batched["notices"] <= unbatched["notices"]


def test_atomic_aborts_whole_groups_on_exhausted_budget():
    schedule = FaultSchedule.single_crash(2, crash_at=0.01, recover_at=5.0)
    config = _delivery_config(
        "atomic", max_replays=1, failure_detection=False
    )
    system, log = build_checked_system(
        config,
        parallelism=6,
        n_machines=3,
        n_tuples=40,
        gap_s=0.002,
        seed=2,
        fault_schedule=schedule,
        fabric_options=dict(LOSSY),
        check="strict",
    )
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    coord = system.reliability
    # aborted groups left no partial executions behind (all-or-none);
    # the group_atomicity invariant re-checks the same audit trail
    assert coord.audit_violations() == []
    assert system.metrics.messages_abandoned == coord.aborts
    report = system.checker.finalize()
    assert report.ok, report.summary()


# ----------------------------------------------------------------------
# one tree per root: a spout feeding two one-to-many edges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delivery", ["at_least_once", "exactly_once", "atomic"])
def test_spout_with_two_one_to_many_edges_is_one_tree(delivery):
    """Both broadcast edges of one spout tuple form a single delivery
    tree over the union of their destinations: it completes (or, in
    atomic mode, commits or aborts) once, and nothing is left pending."""
    n_tuples = 40
    log = []
    topo = Topology("two-edges")
    topo.add_spout("src", SeqSpout)
    for name in ("left", "right"):
        topo.add_bolt(
            name,
            lambda: RecordingBolt(log),
            parallelism=4,
            inputs={"src": AllGrouping()},
            terminal=True,
        )
    system = create_system(
        topo,
        _delivery_config(delivery),
        cluster=Cluster(3, 1, 16),
        arrivals={"src": finite_arrivals(0.002, n_tuples)},
        seed=1,
        fabric_options=dict(LOSSY),
    )
    system.attach_checker(mode="strict")
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    report = system.checker.finalize()
    assert report.ok, report.summary()
    coord = system.reliability
    assert coord.outstanding == 0
    assert coord.held_entries == 0
    tasks = {
        task
        for name in ("left", "right")
        for task in system.placement.tasks_of[name]
    }
    assert len(tasks) == 8
    if delivery == "exactly_once":
        expected = {(seq, task) for seq in range(1, n_tuples + 1) for task in tasks}
        assert Counter(log) == Counter(expected)
    if delivery == "atomic":
        executed_at = {}
        for seq, task in log:
            executed_at.setdefault(seq, set()).add(task)
        partial = {
            seq: sorted(at) for seq, at in executed_at.items() if at != tasks
        }
        assert not partial, f"roots executed at a strict subset: {partial}"
        assert len(set(log)) == len(log)


# ----------------------------------------------------------------------
# epoch barriers GC dedup state
# ----------------------------------------------------------------------
def test_epoch_commit_garbage_collects_dedup_state():
    system, _ = _run_broadcast("exactly_once")
    coord = system.reliability
    assert coord.epochs_committed > 0
    assert coord.dedup_entries == 0, (
        "epoch barrier must GC dedup state once every root settles"
    )


def test_epoch_barrier_traces_open_and_commit():
    tracer = MemoryTracer(categories={"epoch"})
    config = _delivery_config("exactly_once")
    system, _ = build_checked_system(
        config, n_tuples=30, seed=3, tracer=tracer, check=None
    )
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    kinds = {r["kind"] for r in tracer.records}
    assert {"epoch.open", "epoch.commit"} <= kinds


# ----------------------------------------------------------------------
# jittered replay backoff (seeded "acker" stream)
# ----------------------------------------------------------------------
def _replay_backoffs(seed):
    tracer = MemoryTracer(categories={"fault"})
    config = _delivery_config("at_least_once")
    system, _ = build_checked_system(
        config,
        n_tuples=60,
        seed=seed,
        tracer=tracer,
        fabric_options=dict(LOSSY),
        check=None,
    )
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    return [
        r["backoff_s"] for r in tracer.records if r["kind"] == "fault.replay"
    ]


def test_replay_backoff_is_jittered_and_deterministic():
    first = _replay_backoffs(seed=1)
    assert len(first) >= 2
    # jitter spreads same-sweep replays instead of lockstep retries
    assert len(set(first)) > 1
    base = _delivery_config("at_least_once").replay_backoff_base_s
    assert all(b >= base for b in first)
    assert all(b < base * 2 ** 11 for b in first)
    # the jitter is drawn from the seeded "acker" stream: repeatable
    assert _replay_backoffs(seed=1) == first


# ----------------------------------------------------------------------
# abandonment accounting
# ----------------------------------------------------------------------
def test_abandoned_counter_matches_give_up_log():
    schedule = FaultSchedule.single_crash(2, crash_at=0.01, recover_at=5.0)
    config = _delivery_config(
        "at_least_once", max_replays=1, failure_detection=False
    )
    system, _ = build_checked_system(
        config,
        n_tuples=40,
        seed=4,
        fault_schedule=schedule,
        check="strict",
    )
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    coord = system.reliability
    assert coord.gave_up, "a never-recovering machine must exhaust budgets"
    assert system.metrics.messages_abandoned == len(coord.gave_up)
    report = system.checker.finalize()
    assert report.ok, report.summary()


# ----------------------------------------------------------------------
# degraded-fallback re-promotion after a link flap (RDMA -> TCP -> RDMA)
# ----------------------------------------------------------------------
def _ridehailing_system(seed, tracer=None, fault_schedule=None):
    from repro.apps.ridehailing import ride_hailing_topology

    import numpy as np

    config = _delivery_config("exactly_once", failure_detection=True)
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
    )


def test_link_flap_degrades_then_repromotes_to_rdma():
    # probe run: same build is deterministic per seed, so the probe's
    # relay-tree geometry tells us which machines the flap must cut
    probe = _ridehailing_system(seed=42)
    service = probe.multicast_services[0]
    src = service.src_machine
    victim = next(
        m for m in sorted(probe.workers)
        if m != src and service.endpoints_on_machine(m)
    )

    tracer = MemoryTracer(categories={"fault"})
    # long enough for the heartbeat detector (period 0.02 s, suspicion
    # timeout 0.06 s) to suspect the machine behind the dead link
    schedule = FaultSchedule(
        [
            FaultEvent.link_down(0.10, src, victim),
            FaultEvent.link_up(0.30, src, victim),
        ]
    )
    system = _ridehailing_system(
        seed=42, tracer=tracer, fault_schedule=schedule
    )
    system.start()

    system.sim.run(until=0.25)
    kinds = [r["kind"] for r in tracer.records]
    assert "fault.suspect" in kinds
    assert system.transport.is_degraded(victim), (
        "a suspected machine falls back to the TCP path"
    )

    system.sim.run(until=0.8)
    kinds = [r["kind"] for r in tracer.records]
    assert "fault.restore" in kinds
    assert not system.transport.is_degraded(victim), (
        "the cleared machine must be re-promoted to the RDMA path"
    )
    live = system.multicast_services[0]
    assert all(
        ep in live.tree for ep in live.endpoints_on_machine(victim)
    ), "re-promotion reattaches the machine's relay endpoints"
    assert sum(s.repair_count for s in system.multicast_services) >= 1
    assert sum(s.reattach_count for s in system.multicast_services) >= 1
