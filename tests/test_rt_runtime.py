"""The rt backend end-to-end: relay planning, real-socket topology
runs, trace reach, and worker-restart grouping state handoff.

The end-to-end tests run whole topologies over real localhost TCP
(ephemeral ports) inside ``asyncio.run`` — they are the rt analogue of
``test_dsps_system.py`` and double as the smoke the CI ``rt-smoke`` job
executes.  Workloads are tiny (tens of tuples) so the suite stays
seconds-fast even on a loaded box.
"""

import asyncio
import time
from collections import Counter

import pytest

from repro.dsps import AllGrouping, Bolt, Topology
from repro.dsps.config import SystemConfig
from repro.rt.framing import FrameError
from repro.rt.relay import plan_relay, tree_edges
from repro.rt.runtime import AsyncRuntime, SimRuntime, create_runtime, default_cluster
from repro.rt.topologies import SENTENCES, Recorder, make_topology
from repro.trace import MemoryTracer
from repro.trace.tracer import ALL_CATEGORIES, DEFAULT_CATEGORIES

from tests._check_util import SeqSpout


# ----------------------------------------------------------------------
# relay planning (pure units)
# ----------------------------------------------------------------------
def test_plan_relay_empty_and_degenerate():
    assert plan_relay([], 3) == []
    assert plan_relay([7], 3) == [(7, [])]
    with pytest.raises(ValueError):
        plan_relay([1, 2], 0)


def test_plan_relay_partitions_members_exactly_once():
    members = list(range(10, 27))
    branches = plan_relay(members, 3)
    assert len(branches) == 3  # at most d* direct children
    covered = [m for child, rest in branches for m in [child, *rest]]
    assert sorted(covered) == members  # no loss, no duplication
    sizes = [1 + len(rest) for _, rest in branches]
    assert max(sizes) - min(sizes) <= 1  # balanced subtrees


def test_plan_relay_d_star_one_is_a_chain():
    branches = plan_relay([1, 2, 3, 4], 1)
    assert branches == [(1, [2, 3, 4])]


def test_tree_edges_reaches_every_member():
    members = list(range(1, 14))
    edges = tree_edges(0, members, 3)
    reached = [dst for dsts in edges.values() for dst in dsts]
    assert sorted(reached) == members  # every member exactly once
    assert all(len(dsts) <= 3 for dsts in edges.values())  # degree bound


# ----------------------------------------------------------------------
# end-to-end over real sockets
# ----------------------------------------------------------------------
def _expected_word_multiset(budget: int) -> Counter:
    expected: Counter = Counter()
    for i in range(budget):
        for word in SENTENCES[i % len(SENTENCES)].split():
            expected[("count", repr({"word": word}))] += 1
    return expected


def test_word_count_end_to_end_on_asyncio_backend():
    """The real runtime executes exactly the deterministic workload's
    expected multiset — no loss, no duplication, across machines."""
    budget = 24
    recorder = Recorder()
    runtime = AsyncRuntime(
        make_topology("word_count", parallelism=4, recorder=recorder),
        SystemConfig(name="rt-e2e", backend="asyncio"),
        cluster=default_cluster(),
        seed=3,
        recorder=recorder,
    )
    report = runtime.run(800.0, budget=budget)
    assert report.backend == "asyncio"
    assert sum(report.emitted.values()) > 0
    assert recorder.executed == _expected_word_multiset(budget)
    assert report.executed_total == recorder.total
    assert report.goodput_tps > 0


def test_message_over_the_frame_limit_fails_the_run():
    """A tuple too big for ``rt_frame_limit_bytes`` is never written and
    fails the run with the FrameError, after a full teardown."""
    recorder = Recorder()
    runtime = AsyncRuntime(
        make_topology("word_count", parallelism=4, recorder=recorder),
        SystemConfig(
            name="rt-oversize",
            backend="asyncio",
            rt_frame_limit_bytes=64,
            rt_drain_timeout_s=1.0,
        ),
        cluster=default_cluster(),
        seed=3,
        recorder=recorder,
    )
    with pytest.raises(FrameError, match="exceeds the 64-byte limit"):
        runtime.run(800.0, budget=10)
    for host in runtime.hosts.values():
        assert host.server is None and not host.peers


def test_fanout_at_least_once_with_credits_is_exact():
    """One-to-many over the relay tree with the acker and flow control
    on: every tick reaches every instance exactly once."""
    budget, parallelism = 20, 8
    recorder = Recorder()
    config = SystemConfig(
        name="rt-fanout",
        backend="asyncio",
        delivery="at_least_once",
        flow=True,
        credit_window=4,
    )
    runtime = AsyncRuntime(
        make_topology("fanout", parallelism=parallelism, recorder=recorder),
        config,
        cluster=default_cluster(),
        seed=5,
        recorder=recorder,
    )
    report = runtime.run(800.0, budget=budget)
    assert recorder.total == budget * parallelism
    assert all(n == parallelism for n in recorder.executed.values())
    assert report.abandoned == 0
    # every host's credit gates stayed within the window
    for host in runtime.hosts.values():
        for gate in host.gates.values():
            assert gate.max_in_flight <= config.credit_window


class _HotSplit(Bolt):
    """Splits each tick into five keyed words: a hot key three times
    plus two keys that spread over every count task."""

    def execute(self, tup, collector):
        seq = tup.values["seq"]
        for word in ("hot", "hot", "hot", f"w{seq % 16}", f"v{seq % 11}"):
            collector.emit("words", {"word": word, "seq": seq}, key=word,
                           payload_bytes=32, anchor=tup)


class _WordTally(Bolt):
    """Terminal (word, seq) tally."""

    def __init__(self, tally: Counter):
        self.tally = tally

    def execute(self, tup, collector):
        self.tally[(tup.values["word"], tup.values["seq"])] += 1


def test_crossed_credit_stalls_do_not_deadlock():
    """Split tasks on every host send to count tasks on every other host
    through one-credit windows into two-slot queues, so hosts stall on
    each other's credits while their own count queues are full.  A stall
    must park only the task that lacks credit: the run completes with
    the exact (word, seq) multiset inside every bound."""
    budget, capacity, window = 80, 2, 1
    tally: Counter = Counter()
    topo = Topology("rt-crossed-stalls")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt("split", _HotSplit, parallelism=8, inputs={"src": "shuffle"})
    topo.add_bolt("count", lambda: _WordTally(tally), parallelism=8,
                  inputs={"split": "fields"}, terminal=True)
    config = SystemConfig(
        name="rt-crossed-stalls",
        backend="asyncio",
        flow=True,
        credit_window=window,
        executor_queue_capacity=capacity,
        rt_drain_timeout_s=10.0,
    )
    runtime = AsyncRuntime(topo, config, cluster=default_cluster(), seed=6)
    assert len(runtime.cluster) >= 4

    async def scenario():
        await runtime.setup()
        try:
            runtime.clock.start()
            runtime.metrics.open_window()
            await runtime.drive(4000.0, budget=budget)
            await runtime.drain()
        finally:
            await runtime.shutdown()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
    expected: Counter = Counter()
    for seq in range(1, budget + 1):
        for word in ("hot", "hot", "hot", f"w{seq % 16}", f"v{seq % 11}"):
            expected[(word, seq)] += 1
    assert tally == expected
    for host in runtime.hosts.values():
        for gate in host.gates.values():
            # every directed host pair carried data, never over the window
            assert gate.max_in_flight == window
    depths = {
        key: depth for key, depth in runtime.metrics.queue_depth_hwm.items()
        if key.endswith(".inqueue")
    }
    assert depths and max(depths.values()) <= capacity
    assert sum(runtime.metrics.credit_stall_s.values()) > 0


class _Faulty(Bolt):
    """Raises when it executes tick 3."""

    def execute(self, tup, collector):
        if tup.values["seq"] == 3:
            raise RuntimeError("bolt failed on seq 3")


def test_bolt_error_fails_the_run_and_leaves_nothing_behind():
    """A bolt that raises in ``execute`` fails ``AsyncRuntime.run`` with
    that exception, after a teardown that leaves no listener, connection
    or task behind."""

    def runtime():
        topo = Topology("rt-faulty")
        topo.add_spout("src", SeqSpout)
        topo.add_bolt("sink", _Faulty, parallelism=4,
                      inputs={"src": AllGrouping()}, terminal=True)
        config = SystemConfig(name="rt-faulty", backend="asyncio",
                              rt_drain_timeout_s=2.0)
        return AsyncRuntime(topo, config, cluster=default_cluster(), seed=7)

    failed = runtime()
    with pytest.raises(RuntimeError, match="bolt failed on seq 3"):
        failed.run(800.0, budget=10)
    for host in failed.hosts.values():
        assert host.server is None and not host.peers

    async def scenario():
        phased = runtime()
        with pytest.raises(RuntimeError, match="bolt failed on seq 3"):
            await phased._run(800.0, 10, None)
        current = asyncio.current_task()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 2.0
        while any(t is not current and not t.done() for t in asyncio.all_tasks()):
            assert loop.time() < deadline, asyncio.all_tasks()
            await asyncio.sleep(0.001)
        return phased

    phased = asyncio.run(scenario())
    for host in phased.hosts.values():
        assert host.server is None and not host.peers


class _SlowTally(Bolt):
    """Blocks the event loop 3 ms per execute, so acks outlive a 2 ms
    ack timeout and the acker's sweep must replay or abandon."""

    def __init__(self, tally: Counter):
        self.tally = tally
        self.task_id = None

    def prepare(self, ctx):
        self.task_id = ctx.task_id

    def execute(self, tup, collector):
        time.sleep(0.003)
        self.tally[(tup.values["seq"], self.task_id)] += 1


@pytest.mark.parametrize("max_replays", [5, 0])
def test_acker_replays_or_abandons_late_acks_without_reexecuting(max_replays):
    """Acks slower than the timeout drive the acker's replay path (with a
    budget) or its abandon path (without one); receiver dedup keeps
    every (seq, task) at exactly one execution either way."""
    budget, parallelism = 20, 4
    tally: Counter = Counter()
    topo = Topology("rt-slow-broadcast")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt(
        "sink",
        lambda: _SlowTally(tally),
        parallelism=parallelism,
        inputs={"src": AllGrouping()},
        terminal=True,
    )
    config = SystemConfig(
        name="rt-slow-acks",
        backend="asyncio",
        delivery="at_least_once",
        ack_timeout_s=0.002,
        ack_sweep_interval_s=0.001,
        max_replays=max_replays,
    )
    runtime = AsyncRuntime(topo, config, cluster=default_cluster(), seed=4)
    report = runtime.run(800.0, budget=budget)
    if max_replays:
        assert report.replays > 0
        assert report.abandoned == 0
    else:
        assert report.replays == 0
        assert report.abandoned > 0
    assert len(tally) == budget * parallelism
    assert set(tally.values()) == {1}


def test_create_runtime_dispatches_on_backend():
    topo = make_topology("word_count")
    sim = create_runtime(topo, SystemConfig(name="x", backend="sim"))
    real = create_runtime(
        make_topology("word_count"), SystemConfig(name="x", backend="asyncio")
    )
    assert isinstance(sim, SimRuntime)
    assert isinstance(real, AsyncRuntime)


@pytest.mark.parametrize("delivery", ["exactly_once", "atomic"])
def test_asyncio_backend_rejects_unimplemented_delivery(delivery):
    """The asyncio backend implements at-most-once and at-least-once
    only; a stronger guarantee is refused, not silently weakened."""
    config = SystemConfig(name="x", backend="asyncio", delivery=delivery)
    with pytest.raises(ValueError, match=delivery):
        create_runtime(make_topology("fanout"), config)
    with pytest.raises(ValueError, match=delivery):
        AsyncRuntime(make_topology("fanout"), config)
    # the DES backend honours every mode
    sim_config = config.with_overrides(backend="sim")
    assert isinstance(create_runtime(make_topology("fanout"), sim_config), SimRuntime)


@pytest.mark.parametrize("delivery", ["exactly_once", "atomic"])
def test_rt_cli_refuses_unimplemented_delivery(delivery, capsys):
    from repro.rt.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["run", "--topology", "fanout", "--delivery", delivery, "--smoke"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_sim_runtime_is_bit_identical_per_seed():
    """The DES backend stays deterministic under the runtime wrapper:
    same seed, same trace, record for record."""

    def one_run():
        tracer = MemoryTracer(categories=ALL_CATEGORIES)
        recorder = Recorder()
        runtime = SimRuntime(
            make_topology("word_count", parallelism=4, recorder=recorder),
            SystemConfig(name="det", backend="sim"),
            cluster=default_cluster(),
            seed=11,
            tracer=tracer,
            recorder=recorder,
        )
        report = runtime.run(400.0, budget=32)
        return tracer.records, recorder.executed, report.window_s

    first, second = one_run(), one_run()
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


# ----------------------------------------------------------------------
# rt trace records
# ----------------------------------------------------------------------
def test_rt_category_is_registered_and_on_by_default():
    assert "rt" in ALL_CATEGORIES
    assert "rt" in DEFAULT_CATEGORIES
    tracer = MemoryTracer(categories={"queue"})
    assert not tracer.wants("rt.listen")  # filtering still applies


def test_rt_records_reach_an_attached_tracer():
    """Every rt lifecycle record lands in a default-filtered tracer —
    the rt extension of the tracer-reach regression."""
    tracer = MemoryTracer()
    recorder = Recorder()
    runtime = AsyncRuntime(
        make_topology("word_count", parallelism=2, recorder=recorder),
        SystemConfig(name="rt-trace", backend="asyncio"),
        cluster=default_cluster(),
        seed=1,
        tracer=tracer,
        recorder=recorder,
    )
    runtime.run(800.0, budget=8)
    kinds = {r["kind"] for r in tracer.records}
    assert {"rt.listen", "rt.connect", "rt.drain", "rt.shutdown"} <= kinds
    machines = {
        r["machine"] for r in tracer.records if r["kind"] == "rt.listen"
    }
    assert machines == set(runtime.hosts)  # every host announced itself


# ----------------------------------------------------------------------
# worker restart: grouping state survives via export/import
# ----------------------------------------------------------------------
def test_worker_restart_carries_grouping_state_across():
    """Satellite-1 regression: a bounced worker rebuilds its grouping
    instances from exported state, so the shuffle cursor *continues*
    instead of restarting at zero (which would skew round-robin
    placement after every restart)."""

    async def scenario():
        recorder = Recorder()
        runtime = AsyncRuntime(
            make_topology("word_count", parallelism=4, recorder=recorder),
            SystemConfig(name="rt-restart", backend="asyncio"),
            cluster=default_cluster(),
            seed=2,
            recorder=recorder,
        )
        await runtime.setup()
        runtime.clock.start()
        runtime.metrics.open_window()
        await runtime.drive(800.0, budget=30)
        await runtime.drain()

        spout_host = next(
            h for h in runtime.hosts.values()
            if any(ex.is_spout for ex in h.executors.values())
        )
        edge = spout_host._edges[("sentences", "split")]
        cursor_before = edge.export_state()
        assert cursor_before == 30  # one shuffle choice per spout emit

        await spout_host.restart()
        assert spout_host.restarts == 1
        assert ("sentences", "split") not in spout_host._edges

        await runtime.drive(800.0, budget=10)
        await runtime.drain()
        runtime.metrics.close_window()
        rebuilt = spout_host._edges[("sentences", "split")]
        await runtime.shutdown()
        return edge, rebuilt, recorder

    edge, rebuilt, recorder = asyncio.run(scenario())
    assert rebuilt is not edge  # a genuinely fresh instance...
    assert rebuilt.export_state() == 40  # ...that continued the cursor
    # and no tuples were lost around the bounce
    assert recorder.total == sum(
        len(SENTENCES[i % len(SENTENCES)].split()) for i in range(40)
    )
