"""Replay-budget exhaustion semantics.

A tuple whose multicast tree keeps timing out must be counted as failed
*exactly once* (one ``gave_up`` entry, one ``fault.replay_give_up``
trace record) and must never be replayed again afterwards — a permanent
crash with no failure detection is the cleanest way to starve a tree of
its acks.
"""

from collections import Counter

import pytest

from repro.core import whale_full_config
from repro.faults import FaultSchedule
from repro.trace import MemoryTracer

from tests._check_util import build_checked_system

pytestmark = pytest.mark.faults

MAX_REPLAYS = 2


def _run_to_exhaustion():
    config = whale_full_config(adaptive=False).with_overrides(
        delivery="at_least_once",
        failure_detection=False,
        max_replays=MAX_REPLAYS,
        ack_timeout_s=0.05,
        ack_sweep_interval_s=0.02,
    )
    schedule = FaultSchedule.single_crash(2, crash_at=0.03)  # never recovers
    tracer = MemoryTracer()
    system, _ = build_checked_system(
        config, n_machines=3, parallelism=6, n_tuples=30, gap_s=0.002,
        fault_schedule=schedule, tracer=tracer, check="strict",
    )
    system.start()
    system.sim.run(until=0.1)
    system.drain(3.0)
    return system, system.reliability, tracer


def test_budget_exhaustion_counts_each_failure_exactly_once():
    system, reliability, tracer = _run_to_exhaustion()
    assert reliability.gave_up, "the dead machine must starve some trees"
    assert reliability.outstanding == 0

    # exactly once in the counter...
    root_counts = Counter(reliability.gave_up)
    assert all(n == 1 for n in root_counts.values())
    # ...and exactly one give-up trace record per failed root
    give_up_records = [
        r for r in tracer.records if r["kind"] == "fault.replay_give_up"
    ]
    assert Counter(r["root"] for r in give_up_records) == root_counts
    assert all(r["attempts"] == MAX_REPLAYS for r in give_up_records)

    # conservation closes: everything registered either completed or
    # gave up, with no double counting
    assert reliability.registered == (
        len(reliability.completions) + len(reliability.gave_up)
    )
    completed_roots = {c.root_id for c in reliability.completions}
    assert completed_roots.isdisjoint(root_counts)

    # the invariant checker agrees the run stayed consistent throughout
    assert system.checker.finalize().ok


def test_exhausted_tuples_never_replay_again():
    system, reliability, tracer = _run_to_exhaustion()
    failed = set(reliability.gave_up)

    # each failed root consumed its full budget and not one replay more
    replay_attempts = Counter(
        r["root"] for r in tracer.records if r["kind"] == "fault.replay"
    )
    for root in failed:
        assert replay_attempts[root] == MAX_REPLAYS

    # run well past several ack-timeout sweeps: counters must be frozen
    replays_before = reliability.replays
    gave_up_before = list(reliability.gave_up)
    system.sim.run(until=system.sim.now + 1.0)
    assert reliability.replays == replays_before
    assert reliability.gave_up == gave_up_before
    assert reliability.outstanding == 0
    later_replays = Counter(
        r["root"] for r in tracer.records if r["kind"] == "fault.replay"
    )
    assert later_replays == replay_attempts
