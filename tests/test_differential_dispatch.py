"""Differential testing: lazy terminal sinks vs. the bolt working thread.

The working thread (``"slow"`` mode, see
:class:`repro.dsps.executor.BoltExecutor`) evaluates every service
start — flow hook, crash check, delivery verdict, CPU charge — and
schedules one callback at the service's end.  Batched dispatch
(``SystemConfig.batched_dispatch``) runs terminal sinks without the
reliability and flow layers in ``"lazy"`` mode instead:
closed-form FIFO arithmetic with no per-tuple events; every other bolt
runs the working thread either way.  It must never change *what* the
system computes: the delivered tuple multiset, completion counts, drop
counts, and per-tuple latency values have to match the working thread
exactly — observable differences are limited to same-instant tie
ordering, which multiset comparison is deliberately blind to.

For a sink the working thread is the reference path, reached by
``batched_dispatch=False`` in the config.  A tracer or invariant
checker selects no path: its lifecycle records are one per packet and
one per service, so a traced or checked run is the plain run's engine,
calendar entry for calendar entry (covered here too).
"""

import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_system, whale_full_config, whale_woc_rdma_config
from repro.dsps import (
    AllGrouping,
    Bolt,
    DspsSystem,
    ShuffleGrouping,
    Spout,
    Topology,
    storm_config,
)
from repro.dsps.grouping import inqueue_depth
from repro.dsps.tuples import StreamTuple
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.net import cpu as cats
from repro.trace import MemoryTracer
from repro.workloads import PoissonArrivals
from tests._check_util import build_checked_system, run_windowed

END_TO_END = settings(max_examples=8, deadline=None)


def _run(config, *, batched, check=None, parallelism=6, n_machines=3,
         n_tuples=60, seed=1):
    system, log = build_checked_system(
        config.with_overrides(batched_dispatch=batched),
        parallelism=parallelism, n_machines=n_machines,
        n_tuples=n_tuples, seed=seed, check=check,
    )
    run_windowed(system, drain_s=0.5)
    return system, log


def _modes(system):
    return {
        ex._mode
        for ex in system.executors.values()
        if type(ex).__name__ == "BoltExecutor"
    }


CONFIGS = [
    ("whale_full", lambda: whale_full_config(adaptive=False)),
    ("whale_woc_rdma", whale_woc_rdma_config),
    ("storm", storm_config),
]


@pytest.mark.parametrize("name,make_config", CONFIGS)
def test_batched_and_slow_paths_deliver_identical_multisets(
    name, make_config
):
    fast_sys, fast_log = _run(make_config(), batched=True)
    slow_sys, slow_log = _run(make_config(), batched=False)
    # The gate actually took different branches.
    assert "slow" not in _modes(fast_sys)
    assert _modes(slow_sys) == {"slow"}
    assert Counter(fast_log) == Counter(slow_log)
    assert set(Counter(fast_log).values()) == {1}  # exactly-once


@pytest.mark.parametrize("name,make_config", CONFIGS)
def test_batched_and_slow_paths_agree_on_metrics(name, make_config):
    fast_sys, _ = _run(make_config(), batched=True)
    slow_sys, _ = _run(make_config(), batched=False)
    fm, sm = fast_sys.metrics, slow_sys.metrics
    assert fm.completion.completed == sm.completion.completed
    assert sum(fm.dropped.values()) == sum(sm.dropped.values())
    # Completion instants are computed, not scheduled, on the fast path
    # — but they are the *same* instants, so the per-tuple latency
    # multiset matches exactly (ordering may differ on ties).
    assert set(fm.sink_latencies) == set(sm.sink_latencies)
    for op in fm.sink_latencies:
        assert sorted(fm.sink_latencies[op]) == sorted(sm.sink_latencies[op])


def _counted_run(**kwargs):
    """A small lazy fan-out (two sinks per machine, fixed seed) whose
    calendar entries are counted; returns ``(system, log, entries)``."""
    system, log = build_checked_system(
        whale_full_config(adaptive=False), parallelism=6, n_machines=3,
        n_tuples=60, seed=3, **kwargs,
    )
    run_windowed(system, drain_s=0.5)
    sim = system.sim
    # Each scheduled entry takes one sequence number; those run are the
    # ones no longer pending.
    return system, log, next(sim._seq) - len(sim._queue)


def test_plain_traced_and_checked_runs_share_one_engine():
    """Attaching a tracer or a checker selects no dispatch path: the
    three runs take the same calendar entries and compute the same
    figures, with every sink lazy."""
    plain, plain_log, plain_entries = _counted_run(check=None)
    traced, traced_log, traced_entries = _counted_run(
        check=None, tracer=MemoryTracer())
    checked, checked_log, checked_entries = _counted_run(check="strict")
    sinks = [ex for ex in plain.executors.values() if not ex.is_spout]
    assert min(Counter(ex.machine_id for ex in sinks).values()) >= 2
    for system in (plain, traced, checked):
        assert {ex._mode for ex in system.executors.values()
                if not ex.is_spout} == {"lazy"}
    assert traced_entries == plain_entries
    assert checked_entries == plain_entries
    live = plain.metrics
    for system in (traced, checked):
        metrics = system.metrics
        assert metrics.completion.latencies == live.completion.latencies
        assert metrics.multicast.latencies == live.multicast.latencies
        assert dict(metrics.processed) == dict(live.processed)
    assert checked.checker.finalize().ok
    assert traced_log == plain_log == checked_log


def test_batched_dispatch_is_deterministic_per_seed():
    runs = [
        _run(whale_full_config(adaptive=False), batched=True, seed=7)[1]
        for _ in range(2)
    ]
    # Full ordered log, not just the multiset: same seed, same trace.
    assert runs[0] == runs[1]


@END_TO_END
@given(
    parallelism=st.integers(min_value=2, max_value=8),
    n_machines=st.integers(min_value=2, max_value=4),
    n_tuples=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_dispatch_equivalence_holds_for_fuzzed_scenarios(
    parallelism, n_machines, n_tuples, seed
):
    _, fast_log = _run(
        whale_full_config(adaptive=False), batched=True,
        parallelism=parallelism, n_machines=n_machines,
        n_tuples=n_tuples, seed=seed,
    )
    _, slow_log = _run(
        whale_full_config(adaptive=False), batched=False,
        parallelism=parallelism, n_machines=n_machines,
        n_tuples=n_tuples, seed=seed,
    )
    assert Counter(fast_log) == Counter(slow_log)
    assert set(Counter(fast_log).values()) == {1}


# ----------------------------------------------------------------------
# Pinned DES observables: the fig03 fan-out shape (one 150 B spout, 20 us
# all-grouped terminal bolts, full Whale, Poisson arrivals at 8000/s) at
# small scale — 48 bolts on three machines, so every worker hosts 16
# co-located replicas.  PINNED_FANOUT holds what the simulator computes
# for this seed; a dispatch or drain-timer change that only makes the
# simulator faster must reproduce it bit for bit.
# ----------------------------------------------------------------------
PINNED_FANOUT = Path(__file__).with_name("data") / "des_fanout_small.json"
FANOUT_SEED = 11
FANOUT_RUN_S = 0.02


class _Requests(Spout):
    def next_tuple(self):
        return {}, None, 150


class _LightMatching(Bolt):
    base_service_s = 20e-6


def _start_small_fanout(n_machines=3, replicas=16, rate=8000.0):
    """The fan-out with ``replicas`` bolts per machine, fed at ``rate``
    tuples/s, started inside an open measurement window."""
    topo = Topology("small-des-fanout")
    topo.add_spout("src", _Requests)
    topo.add_bolt("matching", _LightMatching,
                  parallelism=replicas * n_machines,
                  inputs={"src": AllGrouping()}, terminal=True)
    system = create_system(
        topo,
        whale_full_config(),
        cluster=Cluster(n_machines, 1, 16),
        arrivals={"src": PoissonArrivals(
            rate, np.random.default_rng(FANOUT_SEED))},
        seed=FANOUT_SEED,
    )
    system.start()
    system.metrics.open_window()
    return system


def _run_small_fanout(n_machines=3, replicas=16, profile=None):
    """Run the fan-out with ``replicas`` bolts per machine for
    FANOUT_RUN_S simulated seconds inside a measurement window, under
    the ``sys.setprofile`` hook ``profile`` if given; returns ``(system,
    calendar steps)``."""
    system = _start_small_fanout(n_machines, replicas)
    sim = system.sim
    steps = 0
    sys.setprofile(profile)
    try:
        while sim.peek() <= FANOUT_RUN_S:  # sim.run(until=...), counted
            sim.step()
            steps += 1
    finally:
        sys.setprofile(None)
    sim.run(until=FANOUT_RUN_S)
    system.metrics.close_window()
    return system, steps


def _fanout_observables(system):
    metrics = system.metrics
    accounts = (
        [worker.cpu for worker in system.workers.values()]
        + [ex.cpu for ex in system.executors.values()]
        + [controller.cpu for controller in system.controllers]
    )
    bolts = system.operator_executors("matching")
    return {
        "completion_latencies": sorted(metrics.completion.latencies),
        "multicast_latencies": sorted(metrics.multicast.latencies),
        "busy_s": {
            acc.name: dict(sorted(acc.busy_s.items())) for acc in accounts
        },
        "processed": [ex.processed for ex in bolts],
        "inqueue_hwm": [ex.inqueue_hwm for ex in bolts],
        "dropped": dict(sorted(metrics.dropped.items())),
    }


def test_des_fanout_observables_match_pinned_values():
    system, _steps = _run_small_fanout()
    assert {ex._mode for ex in system.operator_executors("matching")} == {"lazy"}
    # Every packet reached all 16 replicas of a worker, so each worker's
    # sinks stayed one cohort: the per-packet path was taken throughout.
    for worker in system.workers.values():
        assert [len(c.members) for c in worker._cohorts] == [16]
    got = _fanout_observables(system)
    expected = json.loads(PINNED_FANOUT.read_text())
    assert set(got) == set(expected)
    assert got["completion_latencies"] == expected["completion_latencies"]
    assert got["multicast_latencies"] == expected["multicast_latencies"]
    assert set(got["busy_s"]) == set(expected["busy_s"])
    for name, busy in expected["busy_s"].items():
        assert got["busy_s"][name] == busy, name
    assert got["processed"] == expected["processed"]
    assert got["inqueue_hwm"] == expected["inqueue_hwm"]
    assert got["dropped"] == expected["dropped"]


def test_co_located_replicas_share_calendar_steps():
    """16 replicas per worker fall due together: a packet must cost about
    one drain timer per worker, not one per replica.  (Six machines, so
    the per-tuple spout, send and fabric events — paid once per tuple or
    per machine, not per replica — do not dominate the ratio; with one
    drain timer per replica it is about 0.67.)"""
    system, steps = _run_small_fanout(n_machines=6)
    executions = sum(ex.processed for ex in system.operator_executors("matching"))
    assert executions > 10_000
    assert steps / executions <= 0.25


#: Comprehensions are calls before Python 3.12 and inlined from it on.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def test_delivered_packets_stay_within_a_call_budget():
    """A delivered packet costs one pass through the receiving worker:
    one loop over the relay's children, the packet's dispatch, and no
    per-copy call to a bolt hook the sink inherits.  With one sink per
    machine most of a run's Python calls are per packet, so calls per
    delivered packet measure that pass, deterministically.  (The
    callback threads with a per-child loop and per-copy hooks made
    about 61 calls per packet here.)"""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name not in _INLINED:
            calls += 1

    system, _steps = _run_small_fanout(n_machines=8, replicas=1,
                                       profile=count)
    packets = sum(worker.dispatched for worker in system.workers.values())
    assert packets > 1000
    assert calls / packets <= 56


def test_fan_out_sink_latencies_are_stored_once_per_packet():
    """A cohort stores a flush's sink latencies once, with its member
    count, so the memory a run keeps grows with packets, not copies.
    Python allocations are deterministic, so the bytes tracemalloc still
    holds after 0.2 simulated seconds of 4 machines x 16 sinks, per sink
    execution, are a budget.  (One list slot per copy kept about 12 B
    per execution here; the store keeps under 3 B.)"""
    tracemalloc.start()
    try:
        system = _start_small_fanout(n_machines=4, replicas=16, rate=4000.0)
        before, _peak = tracemalloc.get_traced_memory()
        system.sim.run(until=0.2)
        system.metrics.close_window()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    executions = sum(ex.processed for ex in system.operator_executors("matching"))
    assert executions > 40_000
    assert len(system.metrics.sink_latencies["matching"]) == executions
    assert (after - before) / executions <= 5.5


class _SlowSink(Bolt):
    base_service_s = 1e-3


def test_finished_batched_work_is_not_queue_depth():
    """A lazy sink's FIFO head may hold tuples that already executed and
    only wait to be realised; load-adaptive routing, the rebalancer and
    the credit check must not see them as queued."""
    topo = Topology("depth")
    topo.add_spout("src", _Requests)
    topo.add_bolt("sink", _SlowSink, parallelism=1,
                  inputs={"src": AllGrouping()}, terminal=True)
    system = DspsSystem(topo, storm_config(), cluster=Cluster(1, 1, 16))
    sink = system.operator_executors("sink")[0]
    sim = system.sim
    last_done = 0.0
    for _ in range(3):
        last_done += _SlowSink.base_service_s
    depths = []
    # Scheduled before any drain timer, so at the last completion instant
    # it reads the depth before anything realises the finished tuples.
    for at in (0.5e-3, 1.5e-3, last_done):
        sim.schedule_call(at, lambda: depths.append(inqueue_depth(sink)))
    for _ in range(3):
        assert sink.accept(StreamTuple(stream="src", values={}, payload_bytes=10))
    assert sink._mode == "lazy"
    sim.run(until=last_done)
    assert depths == [3, 2, 0]
    system.metrics.flush()
    assert sink.processed == 3
    assert inqueue_depth(sink) == 0


class _PickySink(Bolt):
    """20 us, except 50 us at the task a tuple names in ``slow_at``."""

    def prepare(self, ctx):
        self._task_id = ctx.task_id

    def service_time(self, tup):
        return 50e-6 if tup.values.get("slow_at") == self._task_id else 20e-6


def test_cohorts_split_exactly_the_touched_members():
    topo = Topology("split")
    topo.add_spout("src", _Requests)
    topo.add_bolt("sink", _PickySink, parallelism=4,
                  inputs={"src": AllGrouping()}, terminal=True)
    system = DspsSystem(topo, storm_config(), cluster=Cluster(1, 1, 16))
    worker = system.workers[0]
    sinks = system.operator_executors("sink")
    for ex in sinks:
        ex.bolt.prepare(ex.context())
    t0, t1, t2, t3 = (ex.task_id for ex in sinks)

    def packet(tasks, **values):
        worker.dispatch(
            StreamTuple(stream="src", values=values, payload_bytes=10), tasks)
        return sorted((c.tasks, len(c.fifo)) for c in worker._cohorts)

    assert packet([t0, t1, t2, t3]) == [([t0, t1, t2, t3], 1)]
    # A packet to a strict subset splits off the touched members.
    assert packet([t1, t2]) == [([t0, t3], 1), ([t1, t2], 2)]
    # Members that disagree on a service time split by value.
    assert packet([t1, t2], slow_at=t2) == [([t0, t3], 1), ([t1], 3), ([t2], 3)]
    assert [inqueue_depth(ex) for ex in sinks] == [1, 3, 3, 1]
    system.sim.run(until=1e-3)
    system.metrics.flush()
    assert [ex.processed for ex in sinks] == [1, 3, 3, 1]
    assert sinks[2].cpu.busy_s[cats.PROCESSING] == 20e-6 + 20e-6 + 50e-6
    assert [inqueue_depth(ex) for ex in sinks] == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# Slow node: the working thread scales a service by the service_scale in
# force when the service starts.  A lazy sink must do the same, so an
# entry queued before a slow-node event and started during it takes the
# slowed service (and vice versa at the end of the event).
# ----------------------------------------------------------------------
class _Relay(Bolt):
    base_service_s = 100e-6

    def execute(self, tup, collector):
        collector.emit(values={}, payload_bytes=64, anchor=tup)


class _LazySink(Bolt):
    base_service_s = 200e-6


def _run_slow_node(batched):
    topo = Topology("slow-node")
    topo.add_spout("src", _Requests)
    topo.add_bolt("sink", _LazySink, parallelism=6,
                  inputs={"src": AllGrouping()}, terminal=True)
    topo.add_bolt("relay", _Relay, parallelism=3,
                  inputs={"src": ShuffleGrouping()})
    topo.add_bolt("tail", _LazySink, parallelism=3,
                  inputs={"relay": ShuffleGrouping()}, terminal=True)
    system = create_system(
        topo,
        whale_full_config(adaptive=False, batched_dispatch=batched),
        cluster=Cluster(3, 1, 16),
        arrivals={"src": PoissonArrivals(4000.0, np.random.default_rng(2))},
        seed=2,
        fault_schedule=FaultSchedule([FaultEvent.slow_node(0.05, 1, 4.0, 0.03)]),
    )
    system.run_measured(0.0, 0.2)
    system.drain(0.4)
    system.metrics.flush()
    return system


@pytest.mark.faults
def test_slow_node_scales_each_service_at_its_start():
    fast, slow = _run_slow_node(True), _run_slow_node(False)
    modes = {op: {ex._mode for ex in fast.operator_executors(op)}
             for op in ("sink", "relay", "tail")}
    assert modes == {"sink": {"lazy"}, "relay": {"slow"}, "tail": {"lazy"}}
    assert _modes(slow) == {"slow"}
    slowed = [ex for ex in fast.executors.values()
              if ex.machine_id == 1 and not ex.is_spout]
    assert {ex.operator for ex in slowed} == {"sink", "relay", "tail"}
    fm, sm = fast.metrics, slow.metrics
    assert sorted(fm.completion.latencies) == sorted(sm.completion.latencies)
    assert set(fm.sink_latencies) == set(sm.sink_latencies) == {"sink", "tail"}
    for op in fm.sink_latencies:
        assert sorted(fm.sink_latencies[op]) == sorted(sm.sink_latencies[op])
    for task, ex in fast.executors.items():
        if not ex.is_spout:
            assert inqueue_depth(ex) == 0  # drained
            assert ex.processed == slow.executors[task].processed, task
            assert (ex.cpu.busy_s[cats.PROCESSING]
                    == slow.executors[task].cpu.busy_s[cats.PROCESSING]), task


# ----------------------------------------------------------------------
# A cohort that diverges: co-located lazy sinks share one FIFO while they
# move in lockstep.  Single-task (shuffle) packets interleave with full
# (all-grouped) ones, replicas disagree on some service times, and a
# slow node and a crash hit whole machines, so cohorts split every way
# they can; the results must still be the working thread's.
# ----------------------------------------------------------------------
class _NumberedSpout(Spout):
    def __init__(self):
        self.n = 0

    def next_tuple(self):
        self.n += 1
        return {"n": self.n}, None, 100


class _DisagreeingSink(Bolt):
    """20/40/60 us by task index and tuple number; logs every execution."""

    def __init__(self, log):
        self._log = log

    def prepare(self, ctx):
        self._task_index = ctx.task_index
        self._task_id = ctx.task_id

    def service_time(self, tup):
        return 20e-6 * (1 + (self._task_index + tup.values["n"]) % 3)

    def execute(self, tup, collector):
        self._log.append((tup.source_operator, tup.values["n"], self._task_id))


class _InstanceBaseSink(Bolt):
    """20/40 us by task index, set as an instance ``base_service_s``;
    logs every execution."""

    def __init__(self, log):
        self._log = log

    def prepare(self, ctx):
        self._task_id = ctx.task_id
        self.base_service_s = 20e-6 * (1 + ctx.task_index % 2)

    def execute(self, tup, collector):
        self._log.append((tup.source_operator, tup.values["n"], self._task_id))


class _PropertyBaseSink(_InstanceBaseSink):
    """The same services through a class property: inherited, yet not a
    constant."""

    def prepare(self, ctx):
        self._task_id, self._task_index = ctx.task_id, ctx.task_index

    @property
    def base_service_s(self):
        return 20e-6 * (1 + self._task_index % 2)


class _QuietSink(Bolt):
    """Inherits ``service_time`` and ``execute`` (40 us); with ``record``
    the instance logs every execution through an ``execute`` of its own."""

    base_service_s = 40e-6

    def __init__(self, log, record):
        self._log, self._record = log, record

    def prepare(self, ctx):
        if self._record:
            task_id = ctx.task_id
            self.execute = lambda tup, collector: self._log.append(
                (tup.source_operator, tup.values["n"], task_id))


class _BriskSink(_QuietSink):
    base_service_s = 20e-6


def _mixed_sinks(log):
    """Co-located sinks that mix an instance ``execute``, inherited hooks
    and two classes' constant services."""
    made = iter(range(10**6))
    kinds = [lambda: _QuietSink(log, True), lambda: _QuietSink(log, False),
             lambda: _BriskSink(log, True), lambda: _QuietSink(log, True)]
    return lambda: kinds[next(made) % 4]()


#: log -> bolt factory, one per way a bolt defines (or inherits) its hooks
DIVERGING_SINKS = {
    "service_time": lambda log: lambda: _DisagreeingSink(log),
    "instance_base": lambda log: lambda: _InstanceBaseSink(log),
    "property_base": lambda log: lambda: _PropertyBaseSink(log),
    "instance_execute": lambda log: lambda: _QuietSink(log, True),
    "mixed": _mixed_sinks,
}

DIVERGING_FAULTS = {
    "no_fault": lambda: None,
    "slow_and_crash": lambda: FaultSchedule([
        FaultEvent.slow_node(0.02, 1, 3.0, 0.02),
        FaultEvent.crash(0.03, 2),
        FaultEvent.recover(0.05, 2),
    ]),
}


def _run_diverging(batched, capacity, faults, sinks="service_time"):
    log = []
    topo = Topology("diverging")
    topo.add_spout("a", _NumberedSpout)
    topo.add_spout("b", _NumberedSpout)
    topo.add_bolt("sink", DIVERGING_SINKS[sinks](log), parallelism=12,
                  inputs={"a": AllGrouping(), "b": ShuffleGrouping()},
                  terminal=True)
    system = create_system(
        topo,
        whale_full_config(adaptive=False, batched_dispatch=batched,
                          executor_queue_capacity=capacity),
        cluster=Cluster(3, 1, 16),
        arrivals={
            "a": PoissonArrivals(6000.0, np.random.default_rng(31)),
            "b": PoissonArrivals(6000.0, np.random.default_rng(32)),
        },
        seed=31,
        fault_schedule=DIVERGING_FAULTS[faults](),
    )
    system.run_measured(0.0, 0.08)
    system.drain(0.3)
    system.metrics.flush()
    return system, log


@pytest.mark.faults
@pytest.mark.parametrize("capacity,faults,sinks", [
    # the original sink keeps its case ids
    pytest.param(capacity, faults, sinks, id="-".join(
        [str(capacity), faults] + [sinks] * (sinks != "service_time")))
    for capacity in (2, 1000)
    for faults in sorted(DIVERGING_FAULTS)
    for sinks in sorted(DIVERGING_SINKS)
])
def test_diverging_cohorts_match_the_working_thread(capacity, faults, sinks):
    """A cohort pays a copy's service once per packet when every member
    inherits one class's constant, and calls ``execute`` only where a
    member defines it; each way of defining the hooks must still give
    the working thread's results."""
    fast, fast_log = _run_diverging(True, capacity, faults, sinks)
    slow, slow_log = _run_diverging(False, capacity, faults, sinks)
    assert _modes(fast) == {"lazy"} and _modes(slow) == {"slow"}
    assert len(fast_log) > 1000
    assert Counter(fast_log) == Counter(slow_log)
    fm, sm = fast.metrics, slow.metrics
    assert sorted(fm.completion.latencies) == sorted(sm.completion.latencies)
    assert sorted(fm.sink_latencies["sink"]) == sorted(sm.sink_latencies["sink"])
    assert fm.dropped == sm.dropped
    if capacity == 2:
        assert sum(fm.dropped.values()) > 0
    for task, ex in fast.executors.items():
        if not ex.is_spout:
            twin = slow.executors[task]
            assert ex.processed == twin.processed, task
            assert (ex.cpu.busy_s[cats.PROCESSING]
                    == twin.cpu.busy_s[cats.PROCESSING]), task
            assert inqueue_depth(ex) == 0 == inqueue_depth(twin), task


# ----------------------------------------------------------------------
# Vectorized arrivals: the block-buffered exponential draws must be
# bit-identical to scalar ``rng.exponential`` calls, including when
# several arrival processes share one generator.
# ----------------------------------------------------------------------
def test_poisson_arrivals_bit_identical_to_scalar_draws():
    from repro.workloads import PoissonArrivals

    rate = 4000.0
    vec = PoissonArrivals(rate, np.random.default_rng(42))
    ref = np.random.default_rng(42)
    gaps = [vec(0.0) for _ in range(3000)]  # spans block boundaries
    expected = [float(ref.exponential(1.0 / rate)) for _ in range(3000)]
    assert gaps == expected


def test_dynamic_arrivals_bit_identical_to_scalar_draws():
    from repro.workloads import DynamicRateArrivals, RateStep

    steps = [RateStep(0.0, 2000.0), RateStep(1.0, 8000.0)]
    vec = DynamicRateArrivals(steps, np.random.default_rng(9))
    ref = np.random.default_rng(9)
    for now in (0.0, 0.5, 1.0, 1.5, 2.0) * 600:
        rate = vec.rate_at(now)
        assert vec(now) == float(ref.exponential(1.0 / rate))


def test_shared_rng_interleaving_matches_scalar_semantics():
    from repro.workloads import PoissonArrivals

    rng = np.random.default_rng(5)
    a = PoissonArrivals(1000.0, rng)
    b = PoissonArrivals(3000.0, rng)
    ref = np.random.default_rng(5)
    # Alternate draws across two processes sharing one generator: the
    # shared buffer must hand out variates in global draw order.
    for i in range(2100):
        proc, rate = (a, 1000.0) if i % 2 == 0 else (b, 3000.0)
        assert proc(0.0) == float(ref.exponential(1.0 / rate))
