"""The end-of-run quiet rule on both backends.

A drain stops the spouts and runs until *quiet*: no pending work is
left that could change a result.  On the DES only the timer waits of
periodic chains (sweeps, watchdogs, monitors, heartbeats) remain, and no
reliability tree or flow waiter is left for them to act on.  On rt every
posted data and ack message has been handled and no host holds work.
The drain's :class:`~repro.dsps.metrics.Quiescence` record says whether
quiet was reached, when, and what was left.
"""

import asyncio
import time
from collections import Counter

import numpy as np
import pytest

from repro.apps.ridehailing import ride_hailing_topology
from repro.core import create_system, whale_full_config
from repro.dsps import AllGrouping, Bolt, Spout, SystemConfig, Topology
from repro.faults import FaultSchedule
from repro.net.cluster import Cluster
from repro.rt.runtime import AsyncRuntime, default_cluster
from repro.rt.topologies import Recorder, make_topology
from repro.rt.worker import _Receiver
from repro.trace import MemoryTracer
from repro.workloads import PoissonArrivals

from tests._check_util import SeqSpout

FANOUT_SINKS = 480


class _Requests(Spout):
    """150-byte requests (the fig03 source)."""

    def next_tuple(self):
        return {}, None, 150


class _Matching(Bolt):
    """A 20 us matching sink that tallies its ``(root, task)`` executions."""

    base_service_s = 20e-6

    def __init__(self, executed: Counter):
        self.executed = executed

    def prepare(self, ctx):
        self.task = ctx.task_id

    def execute(self, tup, collector):
        self.executed[(tup.root_id, self.task)] += 1


@pytest.fixture(scope="module")
def fanout():
    """The des_fanout shape from library parts: 480 all-grouping sinks,
    full Whale, 8000 requests/s, seed 42; window open, run to 0.5 s,
    then drained with a 0.55 s deadline."""
    executed: Counter = Counter()
    topo = Topology("quiet-fanout")
    topo.add_spout("src", _Requests)
    topo.add_bolt("matching", lambda: _Matching(executed),
                  parallelism=FANOUT_SINKS, inputs={"src": AllGrouping()},
                  terminal=True)
    system = create_system(
        topo,
        whale_full_config(),
        cluster=Cluster(30, 1, 16),
        arrivals={"src": PoissonArrivals(8000.0, np.random.default_rng(42))},
        seed=42,
    )
    system.start()
    system.metrics.open_window()
    system.sim.run(until=0.5)
    return system, system.drain(deadline=0.55), executed


def test_fanout_drain_reaches_quiet_and_lists_the_open_roots(fanout):
    system, quiescence, executed = fanout
    assert quiescence.quiet
    assert 0.5 <= quiescence.at <= 0.51
    assert system.sim.idle
    tracker = system.metrics.completion
    # The open roots are exactly the roots the completion tracker still
    # holds: each lacks an execution at some sink, every other root has
    # all of them.
    assert len(quiescence.open_roots) == tracker.outstanding
    assert tracker.outstanding == (
        tracker.registered - tracker.completed - tracker.cancelled)
    sinks_of: Counter = Counter(root for root, _task in executed)
    for root in quiescence.open_roots:
        assert sinks_of[root] < FANOUT_SINKS
    assert tracker.completed == sum(
        1 for root, n in sinks_of.items()
        if n == FANOUT_SINKS and root not in quiescence.open_roots)
    assert quiescence.outstanding == quiescence.held == 0
    assert quiescence.queued == quiescence.slicer_bytes == 0
    assert quiescence.in_flight == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: a dynamic switch loses the copies in flight "
    "on the rewired edges, so some roots never reach every sink",
)
def test_fanout_drain_leaves_no_open_root_and_no_double_execution(fanout):
    _system, quiescence, executed = fanout
    assert not quiescence.open_roots
    assert max(executed.values()) == 1


def _fingerprint(system):
    """What a result is made of: executions, completions, replays and
    data-plane bytes."""
    system.metrics.flush()
    reliability = system.reliability
    return (
        sum(ex.processed for op in system.topology.bolts()
            for ex in system.operator_executors(op.name)),
        system.metrics.completion.completed,
        system.metrics.multicast.completed,
        len(reliability.completions) if reliability else 0,
        reliability.replays if reliability else 0,
        system.traffic_bytes("data"),
    )


#: calendar entries of the data plane: none of these may run once quiet.
_DATA_PLANE = ("SpoutExecutor.", "BoltExecutor.", "LazyCohort.",
               "ExecutorBase.", "Worker._drain", "StreamSlicer.")


def _assert_nothing_more_happens(system):
    """One more simulated second changes no result, and only the
    periodic chains' rounds run."""
    before = _fingerprint(system)
    tracer = MemoryTracer(categories={"sim"})
    system.sim.tracer = tracer
    try:
        system.sim.run(until=system.sim.now + 1.0)
    finally:
        system.sim.tracer = None
    assert _fingerprint(system) == before
    events = {record["event"] for record in tracer.records}
    assert events  # the periodic chains kept running
    assert not [e for e in events if e.startswith(_DATA_PLANE)], events


def test_quiet_fanout_stays_quiet(fanout):
    system, _quiescence, executed = fanout
    before = Counter(executed)
    _assert_nothing_more_happens(system)
    assert executed == before


def test_quiet_reliable_ride_hailing_stays_quiet():
    config = whale_full_config(adaptive=False).with_overrides(
        name="quiet-reliable",
        delivery="at_least_once",
        flow=True,
        failure_detection=True,
        ack_timeout_s=0.1,
        ack_sweep_interval_s=0.02,
    )
    rng = np.random.default_rng(5)
    system = create_system(
        ride_hailing_topology(24, n_drivers=2_000, compute_real_matches=False),
        config,
        cluster=Cluster(8, 1, 16),
        arrivals={"requests": PoissonArrivals(300.0, rng),
                  "driver_locations": PoissonArrivals(300.0, rng)},
        seed=5,
    )
    # Crash a machine that hosts neither a source nor the acker mid-run,
    # so the drain waits out replays and a tree repair.
    protected = {s.src_machine for s in system.multicast_services}
    protected.add(system.reliability.home_machine)
    victim = min(set(system.workers) - protected)
    system.add_fault_schedule(FaultSchedule.single_crash(victim, 0.15, 0.3))
    system.run_measured(0.05, 0.3, drain_s=2.0)
    quiescence = system.metrics.quiescence
    assert quiescence.quiet
    assert quiescence.at < 0.35 + 2.0
    assert system.reliability.replays
    assert quiescence.outstanding == quiescence.held == 0
    _assert_nothing_more_happens(system)
    assert not system.reliability.outstanding


# ----------------------------------------------------------------------
# rt: drain by the same rule, exactly
# ----------------------------------------------------------------------
class _Split(Bolt):
    def execute(self, tup, collector):
        seq = tup.values["seq"]
        for word in ("a", "b", f"w{seq % 7}"):
            collector.emit("words", {"word": word, "seq": seq}, key=word,
                           payload_bytes=32, anchor=tup)


class _SlowTally(Bolt):
    """A terminal (word, seq) tally that holds the loop 1 ms a tuple."""

    def __init__(self, tally: Counter, last: list):
        self.tally, self.last = tally, last

    def execute(self, tup, collector):
        time.sleep(0.001)
        self.tally[(tup.values["word"], tup.values["seq"])] += 1
        self.last[0] = time.monotonic()


def test_rt_drain_returns_after_the_last_execution_exactly(monkeypatch):
    """Word count through one-credit windows into a slow sink with
    one-slot queues: receivers park on the backlog, and work is still
    pending when ``drive`` returns.  ``drain`` returns once the last word
    is counted, with the exact multiset."""
    budget = 40
    tally: Counter = Counter()
    last = [0.0]
    parks = []
    park = _Receiver._park
    monkeypatch.setattr(_Receiver, "_park",
                        lambda self: parks.append(self) or park(self))
    topo = Topology("rt-quiet")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt("split", _Split, parallelism=4, inputs={"src": "shuffle"})
    topo.add_bolt("count", lambda: _SlowTally(tally, last), parallelism=4,
                  inputs={"split": "fields"}, terminal=True)
    config = SystemConfig(name="rt-quiet", backend="asyncio", flow=True,
                          credit_window=1, executor_queue_capacity=1,
                          rt_drain_timeout_s=10.0)
    runtime = AsyncRuntime(topo, config, cluster=default_cluster(), seed=2)

    async def scenario():
        await runtime.setup()
        try:
            runtime.clock.start()
            runtime.metrics.open_window()
            await runtime.drive(2000.0, budget=budget)
            pending = not runtime.is_quiet()
            quiescence = await runtime.drain()
            return pending, quiescence, time.monotonic()
        finally:
            await runtime.shutdown()

    pending, quiescence, returned = asyncio.run(
        asyncio.wait_for(scenario(), timeout=30.0))
    assert parks and pending
    assert quiescence.quiet and quiescence.in_flight == 0
    expected = Counter()
    for seq in range(1, budget + 1):
        for word in ("a", "b", f"w{seq % 7}"):
            expected[(word, seq)] += 1
    assert tally == expected
    assert last[0] <= returned


def test_rt_light_fanout_drains_in_under_20_ms():
    recorder = Recorder()
    runtime = AsyncRuntime(
        make_topology("fanout", 8, recorder),
        SystemConfig(name="rt-quiet-fanout", backend="asyncio",
                     delivery="at_least_once"),
        cluster=default_cluster(),
        seed=4,
        recorder=recorder,
    )

    async def scenario():
        await runtime.setup()
        try:
            runtime.clock.start()
            runtime.metrics.open_window()
            await runtime.drive(500.0, budget=20)
            t0 = time.monotonic()
            quiescence = await runtime.drain()
            return quiescence, time.monotonic() - t0
        finally:
            await runtime.shutdown()

    quiescence, drain_s = asyncio.run(scenario())
    assert quiescence.quiet
    assert drain_s < 0.02
    assert recorder.total == 20 * 8
    assert not quiescence.open_roots


def test_rt_cli_exits_1_when_the_drain_misses_quiet(monkeypatch, capsys):
    from repro.rt import cli

    config = cli.differential_config
    monkeypatch.setattr(cli, "differential_config", lambda **kw: config(
        **kw).with_overrides(rt_drain_timeout_s=0.05))
    monkeypatch.setattr(AsyncRuntime, "is_quiet", lambda self: False)
    assert cli.main(["run", "--topology", "fanout", "--budget", "10"]) == 1
    out, err = capsys.readouterr()
    assert "NOT quiet" in out and "deadline" in err
