"""Property-based testing of the simulator under the invariant catalog.

Two kinds of properties live here:

* **Fuzzed end-to-end runs** — Hypothesis draws topology shapes, d*
  settings, workload mixes and fault schedules; every drawn scenario
  must finish a strict-checked run with zero violations, and must be
  bit-identically deterministic per seed (including with the checker
  attached, which must not perturb the run).
* **Pure structure properties** — multicast tree construction and the
  repair/reattach planners, checked directly without a simulation.

The end-to-end tests pin a small ``max_examples`` (each example is a
full simulation); the pure ones inherit the active Hypothesis profile,
so the CI profile's deeper example count applies to them.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps import storm_config
from repro.core import whale_full_config
from repro.faults import FaultSchedule
from repro.multicast import build_nonblocking_tree, plan_reattach, plan_repair
from repro.trace import MemoryTracer

from tests._check_util import build_checked_system, run_windowed

END_TO_END = settings(max_examples=10, deadline=None)


def _config(mode: str, d_star: int, at_least_once: bool):
    delivery = "at_least_once" if at_least_once else "at_most_once"
    if mode == "storm":
        return storm_config().with_overrides(delivery=delivery)
    return whale_full_config(d_star=d_star, adaptive=False).with_overrides(
        delivery=delivery,
        **({"ack_timeout_s": 0.1, "ack_sweep_interval_s": 0.02}
           if at_least_once else {}),
    )


# ----------------------------------------------------------------------
# fuzzed end-to-end runs
# ----------------------------------------------------------------------
@END_TO_END
@given(
    mode=st.sampled_from(["whale", "storm"]),
    parallelism=st.integers(min_value=2, max_value=10),
    n_machines=st.integers(min_value=2, max_value=5),
    d_star=st.integers(min_value=1, max_value=4),
    n_tuples=st.integers(min_value=5, max_value=60),
    gap_us=st.sampled_from([500, 2000, 8000]),
    at_least_once=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fuzzed_scenarios_hold_every_invariant(
    mode, parallelism, n_machines, d_star, n_tuples, gap_us,
    at_least_once, seed,
):
    system, log = build_checked_system(
        _config(mode, d_star, at_least_once),
        parallelism=parallelism,
        n_machines=n_machines,
        n_tuples=n_tuples,
        gap_s=gap_us * 1e-6,
        seed=seed,
        check="strict",
    )
    run_windowed(system)
    report = system.checker.finalize()
    assert report.ok
    assert log, "every scenario must deliver at least one tuple"


@END_TO_END
@given(
    n_crashes=st.integers(min_value=1, max_value=2),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    max_replays=st.integers(min_value=1, max_value=6),
)
def test_fuzzed_fault_schedules_hold_every_invariant(
    n_crashes, fault_seed, max_replays
):
    config = whale_full_config(adaptive=False).with_overrides(
        delivery="at_least_once",
        failure_detection=True,
        ack_timeout_s=0.1,
        ack_sweep_interval_s=0.02,
        max_replays=max_replays,
    )
    schedule = FaultSchedule.random(
        machines=[1, 2, 3], horizon_s=0.4, n_crashes=n_crashes,
        seed=fault_seed,
    )
    system, _ = build_checked_system(
        config, n_machines=4, parallelism=8, n_tuples=60,
        fault_schedule=schedule, check="strict",
    )
    run_windowed(system, measure_s=0.4, drain_s=0.6)
    assert system.checker.finalize().ok
    assert system.crash_count == n_crashes


def _first_divergence(records_a, records_b):
    """A compact description of where two traces diverge (asserting raw
    multi-MB record lists would drown the report in a useless diff)."""
    if len(records_a) != len(records_b):
        return f"lengths differ: {len(records_a)} vs {len(records_b)}"
    for i, (a, b) in enumerate(zip(records_a, records_b)):
        if a != b:
            return f"record {i} differs: {a!r} vs {b!r}"
    return None


def _traced_run(seed: int, check: bool):
    tracer = MemoryTracer()
    system, log = build_checked_system(
        whale_full_config(adaptive=False).with_overrides(
            delivery="at_least_once"
        ),
        n_tuples=40, seed=seed, tracer=tracer,
        check="strict" if check else None,
    )
    run_windowed(system)
    if check:
        assert system.checker.finalize().ok
    return tracer.records, sorted(log)


@END_TO_END
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_runs_are_bit_identical_per_seed(seed):
    records_a, log_a = _traced_run(seed, check=True)
    records_b, log_b = _traced_run(seed, check=True)
    assert log_a == log_b
    # bit-identical: the serialized traces match byte for byte
    assert json.dumps(records_a) == json.dumps(records_b), (
        _first_divergence(records_a, records_b)
    )


@END_TO_END
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_checker_does_not_perturb_the_run(seed):
    """Attaching the checker must leave the event stream untouched: the
    tap piggybacks on trace emission and schedules nothing."""
    checked_records, checked_log = _traced_run(seed, check=True)
    plain_records, plain_log = _traced_run(seed, check=False)
    assert checked_log == plain_log
    assert json.dumps(checked_records) == json.dumps(plain_records), (
        _first_divergence(checked_records, plain_records)
    )


# ----------------------------------------------------------------------
# pure structure properties (inherit the active Hypothesis profile)
# ----------------------------------------------------------------------
tree_shapes = st.tuples(
    st.integers(min_value=1, max_value=40),   # destinations
    st.integers(min_value=1, max_value=6),    # d*
)


@given(shape=tree_shapes)
def test_nonblocking_tree_always_satisfies_its_invariants(shape):
    n, d_star = shape
    tree = build_nonblocking_tree(list(range(n)), d_star)
    tree.validate(d_star=d_star)
    assert sorted(tree.destinations()) == list(range(n))


@given(
    shape=tree_shapes,
    victim_index=st.integers(min_value=0, max_value=39),
)
def test_repair_then_reattach_restores_a_valid_tree(shape, victim_index):
    n, d_star = shape
    tree = build_nonblocking_tree(list(range(n)), d_star)
    victim = victim_index % n
    repaired, _plan = plan_repair(tree, victim, d_star)
    repaired.validate(d_star=d_star)
    assert victim not in repaired
    assert sorted(repaired.destinations()) == sorted(
        set(range(n)) - {victim}
    )
    if n > 1:
        restored, _plan = plan_reattach(repaired, victim, d_star)
        restored.validate(d_star=d_star)
        assert sorted(restored.destinations()) == list(range(n))


@given(
    n_crashes=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_link_flaps=st.integers(min_value=0, max_value=3),
)
def test_random_fault_schedules_are_well_formed(n_crashes, seed, n_link_flaps):
    horizon = 1.0
    schedule = FaultSchedule.random(
        machines=list(range(6)), horizon_s=horizon, n_crashes=n_crashes,
        seed=seed, n_link_flaps=n_link_flaps,
    )
    events = schedule.events
    assert events == sorted(events, key=lambda ev: ev.time)
    crashes = [ev for ev in events if ev.kind == "crash"]
    recoveries = {ev.machine: ev.time for ev in events if ev.kind == "recover"}
    assert len(crashes) == n_crashes
    assert len({ev.machine for ev in crashes}) == n_crashes
    for ev in crashes:
        assert 0.0 <= ev.time <= horizon
        assert ev.time < recoveries[ev.machine] <= horizon
    # determinism: the same seed redraws the identical schedule
    again = FaultSchedule.random(
        machines=list(range(6)), horizon_s=horizon, n_crashes=n_crashes,
        seed=seed, n_link_flaps=n_link_flaps,
    )
    assert again.events == schedule.events
