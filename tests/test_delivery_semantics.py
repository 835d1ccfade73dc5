"""Delivery-semantics layer: exactly-once dedup, atomic multicast,
epoch GC, jittered replay backoff, abandonment accounting, and acks
batched per machine and instant.

The whole module carries the ``faults`` marker: every guarantee here is
only interesting under injected loss, crashes, or link flaps.
"""

from collections import Counter

import pytest

from repro.core import create_system, whale_full_config
from repro.dsps import AllGrouping, Bolt, FieldsGrouping, Topology
from repro.dsps.config import DELIVERY_MODES, SystemConfig
from repro.dsps.reliability import ACK_PAIR_BYTES, REPLAY_BACKOFF_BASE_S, AckMessage
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
    system.drain(deadline_s)
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
    assert not any(coord._executed.values()), (
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
    base = REPLAY_BACKOFF_BASE_S
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


def test_repair_and_reattach_post_control_messages_before_the_ack_wait():
    """Repair and reattach run Section 3.4's round in a switch's order:
    every ControlMessage of a round is posted at least ``SWITCH_DELAY_S``
    before the round installs its tree (its ``switch.repair`` records)."""
    from repro.core.controller import SWITCH_DELAY_S

    probe = _ridehailing_system(seed=42)
    service = probe.multicast_services[0]
    src = service.src_machine
    victim = next(
        m for m in sorted(probe.workers)
        if m != src and service.endpoints_on_machine(m)
    )
    schedule = FaultSchedule(
        [
            FaultEvent.link_down(0.10, src, victim),
            FaultEvent.link_up(0.30, src, victim),
        ]
    )
    tracer = MemoryTracer(categories={"switch"})
    system = _ridehailing_system(
        seed=42, tracer=tracer, fault_schedule=schedule
    )
    posts = []
    post = system.control_post

    def recording_post(src, dst, payload, cpu, then=None):
        posts.append((system.sim.now, type(payload).__name__))
        post(src, dst, payload, cpu, then=then)

    system.control_post = recording_post
    system.start()
    system.sim.run(until=0.8)
    rounds = [r for c in system.controllers for r in c.repairs]
    assert {r.action for r in rounds} == {"repair", "reattach"}
    installs = [r["t"] for r in tracer.records if r["kind"] == "switch.repair"]
    checked = 0
    for rnd in rounds:
        end = rnd.time + rnd.duration_s + 1e-9
        installed = [t for t in installs if rnd.time <= t <= end]
        assert installed, rnd
        for t, kind in posts:
            if kind == "ControlMessage" and rnd.time <= t <= end:
                assert t + SWITCH_DELAY_S <= min(installed), (rnd, t)
                checked += 1
    assert checked, "no round posted a ControlMessage"


# ----------------------------------------------------------------------
# worker-oriented acks: one AckMessage per machine per instant
# ----------------------------------------------------------------------
# Batching must keep pairs in execution order, add no delay, let acks die
# with a machine that crashes before the flush, keep atomic commit order,
# and conserve pairs between the sending machines and the acker.
class _AckWire:
    """Records every AckMessage sent (``(now, src, payload, size)``) and
    every one the acker's machine receives (``(now, payload)``)."""

    def __init__(self, system):
        self.system = system
        self.posted = []
        self.delivered = []
        transport = system.transport
        send = transport.send

        def recording_send(src, dst, payload, size, cpu, **kwargs):
            if isinstance(payload, AckMessage):
                self.posted.append((system.sim.now, src, payload, size))
            send(src, dst, payload, size, cpu, **kwargs)

        transport.send = recording_send
        home = system.workers[system.reliability.home_machine]
        home.add_control_handler(self._on_control)

    def _on_control(self, payload):
        if isinstance(payload, AckMessage):
            self.delivered.append((self.system.sim.now, payload))


def _record_executions(system):
    """``(now, task, root)`` of every bolt execution, in order."""
    executions = []
    reliability = system.reliability
    notify = reliability.notify_executed

    def recording_notify(task_id, tup):
        executions.append((system.sim.now, task_id, tup.root_id))
        notify(task_id, tup)

    reliability.notify_executed = recording_notify
    return executions


def test_co_located_acks_of_one_instant_share_one_message():
    """Two machines, six sinks each: one tuple yields exactly one
    AckMessage per machine, each carrying its six pairs in execution
    order, sized as a header plus five extra pairs."""
    system, log = build_checked_system(
        _delivery_config("exactly_once"), parallelism=12, n_machines=2, n_tuples=1,
        check="strict",
    )
    executions = _record_executions(system)
    wire = _AckWire(system)
    system.start()
    system.sim.run(until=0.3)
    report = system.checker.finalize()
    assert report.ok, report.summary()
    assert len(log) == 12
    assert len(wire.posted) == 2 and len(wire.delivered) == 2
    machine_of = system.placement.machine_of
    header = system.serialization.control_message_bytes()
    for now, src, payload, size in wire.posted:
        expected = [
            (root, task) for t, task, root in executions
            if machine_of[task] == src
        ]
        assert {t for t, task, _ in executions if machine_of[task] == src} == {now}
        assert list(payload.acks) == expected and len(expected) == 6
        assert size == header + 5 * ACK_PAIR_BYTES
    assert [p for _, p in wire.delivered] == [p for _, _, p, _ in wire.posted]
    assert system.reliability.outstanding == 0
    assert len(system.reliability.completions) == 1


def test_lone_ack_is_posted_at_its_execution_instant():
    """Batching adds no delay: a lone ack leaves at the instant its
    execution finished, as a per-copy ack did."""
    system, _log = build_checked_system(
        _delivery_config("exactly_once"), parallelism=1, n_machines=2, n_tuples=5,
        gap_s=0.01, check=None,
    )
    executions = _record_executions(system)
    wire = _AckWire(system)
    system.start()
    system.sim.run(until=0.3)
    assert len(executions) == 5
    assert [(now, [(root, task)]) for now, task, root in executions] == [
        (now, list(payload.acks)) for now, _src, payload, _size in wire.posted
    ]
    header = system.serialization.control_message_bytes()
    assert {size for *_rest, size in wire.posted} == {header}


def test_acks_buffered_on_a_machine_that_crashes_before_the_flush_die():
    """A machine that crashes between buffering its acks and the flush
    sends nothing; the tree expires, replays, and completes only once
    the recovered machine re-acks."""
    system, log = build_checked_system(
        _delivery_config("exactly_once", failure_detection=True),
        parallelism=6, n_machines=2, n_tuples=1, check=None,
    )
    reliability = system.reliability
    wire = _AckWire(system)
    machine_of = system.placement.machine_of
    victim = 1
    assert victim != reliability.home_machine
    lost = []
    crashed_at = []
    flush = reliability._flush_acks

    def crash_then_flush():
        buffered = reliability._ack_outbox.get(victim)
        if buffered and not lost:
            lost.extend(buffered)
            crashed_at.append(system.sim.now)
            system.crash_machine(victim)
            system.sim.schedule_call(
                0.05, lambda: system.recover_machine(victim)
            )
        flush()

    reliability._flush_acks = crash_then_flush
    system.start()
    system.sim.run(until=1.0)
    assert len(lost) == 3 and {machine_of[t] for _, t in lost} == {victim}
    (crash_t,) = crashed_at
    assert all(now != crash_t for now, *_ in wire.posted)
    delivered_pairs = [
        (now, pair) for now, payload in wire.delivered for pair in payload.acks
    ]
    for now, pair in delivered_pairs:
        if pair in lost:
            # only the replay's re-ack, after recovery, gets through
            assert now > crash_t + 0.05
    assert {pair for _, pair in delivered_pairs} >= set(lost)
    assert reliability.replays >= 1
    assert reliability.outstanding == 0
    (completion,) = reliability.completions
    assert completion.attempts >= 1
    assert len(set(log)) == len(log) == 6


def test_atomic_receipt_acks_batch_and_commit_in_sender_order():
    system, log = build_checked_system(
        _delivery_config("atomic"), parallelism=12, n_machines=2, n_tuples=40,
        check="strict",
    )
    wire = _AckWire(system)
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    report = system.checker.finalize()
    assert report.ok, report.summary()
    reliability = system.reliability
    assert reliability.audit_violations() == []
    assert reliability.commits == 40
    for seqs in reliability.commit_order.values():
        assert seqs == list(range(len(seqs)))
    pairs = [pair for _, p in wire.delivered for pair in p.acks]
    assert len(pairs) == len(set(pairs)) == 40 * 12
    assert max(len(p.acks) for _, p in wire.delivered) > 1
    assert len(wire.delivered) < len(pairs)
    assert Counter(log) == Counter(
        (seq, task) for seq in range(1, 41) for task in range(1, 13)
    )


def test_ack_pairs_are_conserved_across_a_crash():
    """Pairs delivered to the acker are the pairs buffered, minus those
    dropped at the flush on a crashed machine and those in messages that
    died with a crash in flight."""
    config = _delivery_config("exactly_once", failure_detection=True)
    probe, _log = build_checked_system(
        config, parallelism=6, n_machines=3, n_tuples=60, check=None
    )
    probe_wire = _AckWire(probe)
    probe.start()
    probe.sim.run(until=0.3)
    # The build is deterministic: crash machine 1 one microsecond after
    # it posts an ack message, so that message is on the wire.
    post_t = [now for now, src, *_ in probe_wire.posted if src == 1][10]
    schedule = FaultSchedule.single_crash(
        1, crash_at=post_t + 1e-6, recover_at=0.1
    )
    system, _log = build_checked_system(
        config, parallelism=6, n_machines=3, n_tuples=60,
        fault_schedule=schedule, check="strict",
    )
    reliability = system.reliability
    wire = _AckWire(system)
    buffered = Counter()
    dropped = Counter()
    flush = reliability._flush_acks

    def counting_flush():
        for machine, acks in reliability._ack_outbox.items():
            buffered.update(acks)
            if system.machine_is_crashed(machine):
                dropped.update(acks)
        flush()

    reliability._flush_acks = counting_flush
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    report = system.checker.finalize()
    assert report.ok, report.summary()
    posted = Counter(pair for *_t, p, _s in wire.posted for pair in p.acks)
    assert buffered == posted + dropped
    delivered_ids = Counter(id(p) for _, p in wire.delivered)
    assert set(delivered_ids.values()) == {1}
    in_flight_lost = Counter()
    for _now, src, payload, _size in wire.posted:
        if id(payload) not in delivered_ids:
            assert src == 1  # only the crashed machine loses messages
            in_flight_lost.update(payload.acks)
    assert in_flight_lost
    delivered = Counter(pair for _, p in wire.delivered for pair in p.acks)
    assert delivered == buffered - dropped - in_flight_lost
    assert reliability.outstanding == 0 and not reliability.gave_up


class _OneCandidate(Bolt):
    """Each replica emits one anchored candidate per input tuple."""

    base_service_s = 2e-6

    def prepare(self, ctx):
        self.task_id = ctx.task_id

    def execute(self, tup, collector):
        collector.emit(values={"seq": tup.values["seq"], "from": self.task_id},
                       key=tup.values["seq"], anchor=tup)


class _CountingSink(Bolt):
    base_service_s = 2e-6

    def __init__(self, log):
        self.log = log

    def execute(self, tup, collector):
        self.log.append((tup.values["seq"], tup.values["from"]))


@pytest.mark.xfail(
    strict=True,
    reason="dedup keys on (root, task) for every tuple whose root is "
    "tracked, so distinct candidates derived from one root that reach "
    "the same downstream task are suppressed as duplicates",
)
def test_exactly_once_executes_every_derived_candidate():
    log = []
    topo = Topology("derived-candidates")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt("match", _OneCandidate, parallelism=4,
                  inputs={"src": AllGrouping()})
    topo.add_bolt("sink", lambda: _CountingSink(log), parallelism=1,
                  inputs={"match": FieldsGrouping()}, terminal=True)
    system = create_system(
        topo, _delivery_config("exactly_once"), cluster=Cluster(2, 1, 16),
        arrivals={"src": finite_arrivals(0.002, 10)}, seed=1,
    )
    system.start()
    system.sim.run(until=0.3)
    _drain(system)
    match_tasks = system.placement.tasks_of["match"]
    assert Counter(log) == Counter(
        (seq, task) for seq in range(1, 11) for task in match_tasks
    )
