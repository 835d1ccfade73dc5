"""The runtime invariant checker: catalog, clean runs, seeded bugs.

Every "seeded bug" test corrupts one subsystem through a test-only
monkeypatch and asserts the checker names the matching invariant — the
acceptance test that the catalog actually *detects*, not just passes.
"""

import pytest

from repro.check import (
    REGISTRY,
    InvariantChecker,
    InvariantViolation,
    Violation,
    default_invariants,
)
from repro.core import whale_full_config
from repro.dsps import storm_config
from repro.dsps.metrics import FanoutTracker
from repro.faults import FaultSchedule
from repro.sim.queues import TransferQueue
from repro.trace import MemoryTracer

from tests._check_util import build_checked_system, run_windowed

EXPECTED_CATALOG = {
    "clock_monotone": "record",
    "queue_conservation": "state",
    "tracker_conservation": "state",
    "replay_conservation": "state",
    "no_duplicate_side_effects": "state",
    "group_atomicity": "final",
    "tree_structure": "state",
    "bounded_queues": "state",
    "shed_conservation": "state",
    "partition_routing": "state",
    "fabric_conservation": "state",
    "crash_quarantine": "final",
    "suspects_degraded": "final",
    "metrics_replay_equiv": "final",
}


# ----------------------------------------------------------------------
# catalog + plumbing
# ----------------------------------------------------------------------
def test_registry_holds_the_documented_catalog():
    scopes = {inv.name: inv.scope for inv in default_invariants()}
    assert scopes == EXPECTED_CATALOG
    for inv in default_invariants():
        assert inv.description


def test_violation_is_an_assertion_error_with_structure():
    v = Violation(invariant="queue_conservation", t=1.25, message="boom",
                  context={"queue": "sink[3].transfer"})
    exc = InvariantViolation(v)
    assert isinstance(exc, AssertionError)
    assert exc.violation is v
    assert "queue_conservation" in str(exc)
    assert "sink[3].transfer" in str(exc)


def test_checker_rejects_unknown_mode_and_double_attach():
    system, _ = build_checked_system(whale_full_config(), check=None)
    with pytest.raises(ValueError):
        InvariantChecker(system, mode="loud")
    checker = system.attach_checker(mode="strict")
    with pytest.raises(RuntimeError):
        checker.attach()
    checker.detach()
    assert system.sim.tracer is None


def test_checker_tap_preserves_inner_tracer_stream():
    tracer = MemoryTracer()
    system, _ = build_checked_system(
        whale_full_config(adaptive=False), tracer=tracer, n_tuples=20
    )
    run_windowed(system, drain_s=0.1)
    report = system.checker.finalize()
    assert report.ok
    # The tap forwarded the trace: the wrapped tracer saw the run.
    kinds = {r["kind"] for r in tracer.records}
    assert "tuple.emit" in kinds and "metrics.window" in kinds
    assert tracer.records_emitted == len(tracer.records)


def test_invariant_subset_selection_by_name():
    system, _ = build_checked_system(
        whale_full_config(adaptive=False),
        check="strict",
        invariants=["clock_monotone", "queue_conservation"],
    )
    names = {inv.name for inv in system.checker.invariants}
    assert names == {"clock_monotone", "queue_conservation"}
    run_windowed(system, drain_s=0.1)
    assert system.checker.finalize().ok


# ----------------------------------------------------------------------
# clean runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_fn", [storm_config, whale_full_config])
def test_clean_run_passes_strict(config_fn):
    system, log = build_checked_system(config_fn(), check="strict")
    run_windowed(system)
    report = system.checker.finalize()
    assert report.ok and report.finalized
    assert report.records_seen > 0 and report.checks_run > 0
    assert log, "the run actually delivered tuples"


def test_clean_fault_run_with_replay_passes_strict():
    config = whale_full_config(adaptive=False).with_overrides(
        delivery="at_least_once",
        failure_detection=True,
        ack_timeout_s=0.1,
        ack_sweep_interval_s=0.02,
        max_replays=5,
    )
    schedule = FaultSchedule.single_crash(2, crash_at=0.08, recover_at=0.2)
    system, _ = build_checked_system(
        config, n_machines=4, parallelism=8, n_tuples=80,
        fault_schedule=schedule, check="strict",
    )
    run_windowed(system, warmup_s=0.02, measure_s=0.4, drain_s=0.6)
    report = system.checker.finalize()
    assert report.ok
    assert system.crash_count == 1 and system.recovery_count == 1


# ----------------------------------------------------------------------
# seeded bugs: the checker must catch each one by name
# ----------------------------------------------------------------------
def test_seeded_tracker_leak_is_caught_strict(monkeypatch):
    """A tracker that drops pending entries without counting them breaks
    registered == completed + cancelled + outstanding (on the lazy path
    the checked run now takes, as on the working thread)."""

    def leaky_reached(self, tuple_id, tasks, at):
        self._pending.pop(tuple_id, None)  # lost, never counted anywhere

    monkeypatch.setattr(FanoutTracker, "reached", leaky_reached)
    system, _ = build_checked_system(whale_full_config(adaptive=False))
    with pytest.raises(InvariantViolation) as exc:
        run_windowed(system)
    assert exc.value.violation.invariant == "tracker_conservation"


def test_seeded_queue_count_drift_is_caught_strict(monkeypatch):
    """Forgetting to count a dequeue breaks
    accepted == dequeued + cleared + level."""
    original = TransferQueue._on_get

    def forgetful_on_get(self, item):
        original(self, item)
        self.dequeued -= 1  # the lost counter update

    monkeypatch.setattr(TransferQueue, "_on_get", forgetful_on_get)
    system, _ = build_checked_system(whale_full_config(adaptive=False))
    with pytest.raises(InvariantViolation) as exc:
        run_windowed(system)
    assert exc.value.violation.invariant == "queue_conservation"


def test_seeded_orphaned_tree_node_is_caught():
    system, _ = build_checked_system(
        whale_full_config(adaptive=False), check="warn", parallelism=8,
        n_machines=4,
    )
    run_windowed(system, drain_s=0.1)
    service = system.multicast_services[0]
    tree = service.tree
    leaf = next(
        n for n in tree.destinations() if not tree.children(n)
    )
    # Corrupt the structure: unlink the leaf from its parent's child list
    # (the node is now unreachable from the root).
    tree._children[tree.parent(leaf)].remove(leaf)
    report = system.checker.finalize()
    assert any(v.invariant == "tree_structure" for v in report.violations)


def test_seeded_metrics_divergence_is_caught_at_finalize():
    system, _ = build_checked_system(
        whale_full_config(adaptive=False), check="warn"
    )
    run_windowed(system, drain_s=0.1)
    system.metrics.emitted["src"] += 1  # live counter drifts off the trace
    report = system.checker.finalize()
    assert any(
        v.invariant == "metrics_replay_equiv" for v in report.violations
    )


def test_seeded_quarantine_breach_is_caught_at_finalize():
    system, _ = build_checked_system(
        whale_full_config(adaptive=False), check="warn", n_machines=4,
        parallelism=8,
    )
    run_windowed(system, drain_s=0.1)
    system.crash_machine(3)
    victim = next(
        ex for ex in system.executors.values() if ex.machine_id == 3
    )
    victim.halted = False  # an executor escaping the crash quarantine
    report = system.checker.finalize()
    assert any(v.invariant == "crash_quarantine" for v in report.violations)


def test_warn_mode_collects_and_traces_instead_of_raising(monkeypatch):
    def leaky_reached(self, tuple_id, tasks, at):
        self._pending.pop(tuple_id, None)

    monkeypatch.setattr(FanoutTracker, "reached", leaky_reached)
    tracer = MemoryTracer()
    system, _ = build_checked_system(
        whale_full_config(adaptive=False), tracer=tracer, check="warn"
    )
    run_windowed(system, drain_s=0.1)  # must not raise
    report = system.checker.finalize()
    assert not report.ok
    assert all(isinstance(v, Violation) for v in report.violations)
    assert {v.invariant for v in report.violations} == {
        "tracker_conservation", "metrics_replay_equiv",
    }
    # warn mode also leaves an audit trail in the wrapped tracer
    check_records = [
        r for r in tracer.records if r["kind"] == "check.violation"
    ]
    assert check_records
    assert all(r["invariant"] for r in check_records)
    assert "violation" in report.summary()


def test_clock_monotonicity_violation_detected():
    system, _ = build_checked_system(
        whale_full_config(adaptive=False), check="warn"
    )
    checker = system.checker
    checker._on_record({"kind": "zz.tick", "t": 0.0})
    assert checker.report.ok
    checker._on_record({"kind": "zz.tick", "t": -1.0})
    assert any(
        v.invariant == "clock_monotone" for v in checker.report.violations
    )


def test_registry_rejects_duplicate_names():
    from repro.check import invariant

    with pytest.raises(ValueError):
        invariant("clock_monotone", "record", "dup")(lambda ctx: None)
    assert set(REGISTRY) == set(EXPECTED_CATALOG)
