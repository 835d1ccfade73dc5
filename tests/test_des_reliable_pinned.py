"""Pinned DES observables of the reliable delivery path.

Five small runs cover the control traffic of the delivery layer: acks,
commit/abort notices, heartbeat answers, slicer flushes and the TCP
fallback toward a suspected peer.  The last one also pins the order of
same-instant events: starting a service ahead of events already due at
that instant changes its tree latencies.  ``tests/data/des_reliable_small.json``
holds what the simulator computes for each of them.  A change that only
makes the simulator faster (fewer calendar steps, fewer generator
processes) must reproduce every value bit for bit.

Regenerate the data file (only when a change is *meant* to move these
values, and say why in the change description) with::

    PYTHONPATH=src python -m tests.test_des_reliable_pinned
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core import create_system, whale_full_config, whale_woc_config
from repro.dsps import AllGrouping, Bolt, FieldsGrouping, Spout, Topology
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.trace import JsonlTracer
from repro.workloads import PoissonArrivals

pytestmark = pytest.mark.faults

PINNED = Path(__file__).with_name("data") / "des_reliable_small.json"
SEED = 5
HORIZON_S = 0.6
DRAIN_S = 2.0
#: calendar steps per bolt execution on the ``exactly_once_flow`` run
#: with one generator process per ack, notice, heartbeat answer, slicer
#: flush, received message and bolt service (54,262 steps for 3,956
#: executions)
PARENT_STEPS_PER_EXECUTION = 54262 / 3956
#: trace kinds whose counts must not move with the engine; a
#: ``worker.dispatch`` (one per packet) or ``tuple.execute`` (one per
#: service) record counts once per task it names, so these are copies
COUNTED_KINDS = ("tuple.execute", "net.post", "worker.dispatch")


class _Requests(Spout):
    def __init__(self):
        self.seq = 0

    def next_tuple(self):
        self.seq += 1
        return {"seq": self.seq}, self.seq, 120


class _Matching(Bolt):
    """Every fourth request emits a candidate toward the aggregators."""

    base_service_s = 150e-6

    def execute(self, tup, collector):
        seq = tup.values["seq"]
        if seq % 4 == 0:
            collector.emit("matching", {"seq": seq}, key=seq,
                           payload_bytes=48, anchor=tup)


class _Aggregate(Bolt):
    base_service_s = 10e-6


def _topology():
    topo = Topology("pinned-reliable")
    topo.add_spout("requests", _Requests)
    topo.add_bolt("matching", _Matching, parallelism=12,
                  inputs={"requests": AllGrouping()})
    topo.add_bolt("aggregate", _Aggregate, parallelism=2,
                  inputs={"matching": FieldsGrouping()}, terminal=True)
    return topo


def _reliable(base, delivery):
    return base.with_overrides(
        delivery=delivery,
        failure_detection=True,
        ack_timeout_s=0.15,
        ack_sweep_interval_s=0.02,
        max_replays=8,
        epoch_interval_s=0.1,
    )


def _exactly_once_flow():
    config = _reliable(whale_full_config(adaptive=False), "exactly_once")
    config = config.with_overrides(
        flow=True, shed_policy="drop_head", credit_window=4,
        max_spout_pending=48, replay_rate_per_s=400.0, replay_burst=16,
    )
    faults = FaultSchedule([
        FaultEvent.crash(0.1, 2), FaultEvent.recover(0.25, 2),
        FaultEvent.flash_crowd(0.15, 8.0, 0.1),
        FaultEvent.slow_node(0.3, 3, 3.0, 0.1),
    ])
    return config, faults, 600.0


def _atomic():
    config = _reliable(whale_full_config(adaptive=False), "atomic")
    faults = FaultSchedule([
        FaultEvent.crash(0.2, 3), FaultEvent.recover(0.45, 3),
    ])
    return config, faults, 400.0


def _at_least_once_tcp():
    config = _reliable(whale_woc_config(), "at_least_once")
    faults = FaultSchedule([
        FaultEvent.crash(0.15, 1), FaultEvent.recover(0.3, 1),
    ])
    return config, faults, 300.0


def _degraded_peer():
    # A flapped link starves the detector of one live machine's
    # heartbeat answers: it is suspected while still executing, so its
    # acks and the sender's traffic toward it take the TCP fallback.
    config = _reliable(whale_full_config(adaptive=False), "exactly_once")
    faults = FaultSchedule([
        FaultEvent.link_down(0.1, 0, 2), FaultEvent.link_up(0.3, 0, 2),
    ])
    return config, faults, 400.0


def _atomic_flow_faults():
    config = _reliable(whale_full_config(adaptive=False), "atomic")
    config = config.with_overrides(flow=True, credit_window=8,
                                   max_spout_pending=48)
    faults = FaultSchedule([
        FaultEvent.crash(0.1, 2), FaultEvent.recover(0.25, 2),
        FaultEvent.link_down(0.3, 0, 3), FaultEvent.link_up(0.45, 0, 3),
        FaultEvent.flash_crowd(0.15, 6.0, 0.1),
    ])
    return config, faults, 500.0


RUNS = {
    "exactly_once_flow": _exactly_once_flow,
    "atomic": _atomic,
    "at_least_once_tcp": _at_least_once_tcp,
    "degraded_peer": _degraded_peer,
    "atomic_flow_faults": _atomic_flow_faults,
}


def run_pinned(name, tracer=None):
    """Run one pinned scenario; returns ``(system, calendar steps)``."""
    config, faults, rate = RUNS[name]()
    system = create_system(
        _topology(),
        config,
        cluster=Cluster(4, 1, 16),
        arrivals={"requests": PoissonArrivals(rate, np.random.default_rng(SEED))},
        seed=SEED,
        tracer=tracer,
        fault_schedule=faults,
    )
    sim = system.sim
    reliability = system.reliability
    system.start()
    system.metrics.open_window()
    steps = 0
    while sim.peek() <= HORIZON_S:  # sim.run(until=...), counted
        sim.step()
        steps += 1
    sim.run(until=HORIZON_S)
    for spout in system.spout_executors:
        spout.stop()
    deadline = HORIZON_S + DRAIN_S
    while (reliability.outstanding or reliability.held_entries) and sim.now < deadline:
        horizon = min(deadline, sim.now + 0.05)
        while sim.peek() <= horizon:
            sim.step()
            steps += 1
        sim.run(until=horizon)
    system.metrics.close_window()
    return system, steps


def observables(system):
    """Everything the pinned data file records for one run."""
    reliability = system.reliability
    accounts = (
        [worker.cpu for worker in system.workers.values()]
        + [ex.cpu for ex in system.executors.values()]
        + [controller.cpu for controller in system.controllers]
    )
    bolts = [ex for ex in system.executors.values() if not ex.is_spout]
    fabric = system.fabric
    return {
        "completion_latencies": sorted(system.metrics.completion.latencies),
        "tree_latencies": sorted(
            r.completed_at - r.registered_at for r in reliability.completions
        ),
        "busy_s": {
            acc.name: dict(sorted(acc.busy_s.items())) for acc in accounts
        },
        "reliability": {
            "duplicates_suppressed": reliability.duplicates_suppressed,
            "duplicate_executions": reliability.duplicate_executions,
            "replays": reliability.replays,
            "commits": reliability.commits,
            "aborts": reliability.aborts,
            "notice_messages": reliability.notice_messages,
            "outstanding": reliability.outstanding,
        },
        "fabric": {
            "messages_delivered": fabric.messages_delivered,
            "messages_dead": fabric.messages_dead,
            "bytes_by_kind": dict(sorted(fabric.bytes_by_kind.items())),
        },
        "processed": [ex.processed for ex in bolts],
        "inqueue_hwm": [ex.inqueue_hwm for ex in bolts],
        "messages_received": [
            system.workers[m].messages_received for m in sorted(system.workers)
        ],
        "heartbeats_answered": [
            system.workers[m].heartbeats_answered
            for m in sorted(system.workers)
        ],
        "repairs": [
            [r.action, r.machine, r.time, r.n_endpoints, r.n_ops, r.duration_s]
            for controller in system.controllers
            for r in controller.repairs
        ],
    }


def trace_counts(path):
    counts = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            kind = record["kind"]
            if kind in COUNTED_KINDS or kind.startswith("ack."):
                counts[kind] += len(record.get("tasks", (None,)))
    return dict(sorted(counts.items()))


def _expected():
    return json.loads(PINNED.read_text())


def _assert_matches(got, expected):
    assert set(got) == set(expected)
    for key, value in expected.items():
        if key != "busy_s":
            assert got[key] == value, key
    assert set(got["busy_s"]) == set(expected["busy_s"])
    for name, busy in expected["busy_s"].items():
        assert got["busy_s"][name] == busy, name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reliable_run_matches_pinned_values(name):
    system, _steps = run_pinned(name)
    _assert_matches(observables(system), _expected()["runs"][name])


@pytest.mark.parametrize(
    "name", ["atomic", "atomic_flow_faults", "degraded_peer", "exactly_once_flow"]
)
def test_pinned_run_repairs_and_reattaches(name):
    """The pinned ``repairs`` cover the controller's tree repair and
    reattachment: each of these runs suspects a machine and later hears
    from it again."""
    system, _steps = run_pinned(name)
    actions = [r.action for c in system.controllers for r in c.repairs]
    assert "repair" in actions and "reattach" in actions


def test_reliable_path_calendar_step_budget():
    """Acks, notices, heartbeat answers and both threads are flat
    callbacks, and one machine's acks of one instant share one message:
    the reliable path costs at most 0.51 of the calendar steps per bolt
    execution it cost with one generator process and one message per ack
    (0.4935 measured: 26,778 steps for 3,956 executions)."""
    system, steps = run_pinned("exactly_once_flow")
    executions = sum(
        ex.processed for ex in system.executors.values() if not ex.is_spout
    )
    assert steps / executions <= 0.51 * PARENT_STEPS_PER_EXECUTION


def test_tracer_does_not_change_the_engine(tmp_path):
    """An attached tracer observes the same engine: the observables are
    the untraced pinned ones, and the record counts are pinned too."""
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(str(path))
    try:
        system, _steps = run_pinned("exactly_once_flow", tracer=tracer)
    finally:
        tracer.close()
    expected = _expected()
    _assert_matches(observables(system), expected["runs"]["exactly_once_flow"])
    assert trace_counts(path) == expected["trace_counts"]


def _moved(old, new, key):
    """Lines naming each value that differs between ``old`` and ``new``:
    ``key old -> new`` per scalar (nested keys and list indices joined
    into ``key``), a count for the latency lists."""
    if key.endswith("_latencies"):
        old = old or []
        moved = sum(a != b for a, b in zip(old, new))
        moved += abs(len(old) - len(new))
        if moved:
            yield f"{key}: {moved} moved ({len(old)} -> {len(new)} entries)"
    elif isinstance(old, dict) and isinstance(new, dict):
        for sub in sorted(set(old) | set(new)):
            yield from _moved(old.get(sub), new.get(sub), f"{key}.{sub}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from _moved(a, b, f"{key}[{index}]")
    elif old != new:
        yield f"{key} {old!r} -> {new!r}"


def _regenerate():
    import tempfile

    runs = {name: observables(run_pinned(name)[0]) for name in sorted(RUNS)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        tracer = JsonlTracer(str(path))
        system, steps = run_pinned("exactly_once_flow", tracer=tracer)
        tracer.close()
        counts = trace_counts(path)
    executions = sum(runs["exactly_once_flow"]["processed"])
    stored = _expected() if PINNED.exists() else {}
    for name in sorted(runs):
        old = stored.get("runs", {}).get(name, {})
        for line in _moved(old, runs[name], name):
            print(line)
    for line in _moved(stored.get("trace_counts", {}), counts, "trace_counts"):
        print(line)
    PINNED.write_text(json.dumps(
        {"runs": runs, "trace_counts": counts}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {PINNED}; exactly_once_flow: {steps} steps, "
          f"{executions} executions, {steps / executions!r} per execution")


if __name__ == "__main__":
    _regenerate()
