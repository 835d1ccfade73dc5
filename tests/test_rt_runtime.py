"""The rt backend end-to-end: the relay tree, real-socket topology
runs and trace reach.

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

from repro.core import create_system
from repro.dsps import AllGrouping, Bolt, Topology
from repro.dsps.config import SystemConfig
from repro.dsps.scheduler import schedule
from repro.dsps.system import DspsSystem
from repro.dsps.tuples import StreamTuple
from repro.multicast import SOURCE
from repro.net.cluster import Cluster
from repro.rt import framing
from repro.rt.differential import differential_config
from repro.rt.framing import PREFIX, FrameError, run_message
from repro.rt.runtime import AsyncRuntime, SimRuntime, create_runtime, default_cluster
from repro.rt.topologies import SENTENCES, Recorder, make_topology
from repro.rt.transport import CreditGate, FramedConnection
from repro.rt.worker import _Receiver, _Sender, relay_tree, tuple_to_wire
from repro.trace import MemoryTracer
from repro.trace.tracer import ALL_CATEGORIES, DEFAULT_CATEGORIES
from repro.workloads.arrivals import ConstantArrivals, FiniteArrivals

from tests._check_util import SeqSpout


# ----------------------------------------------------------------------
# the relay tree is the DES's worker-level tree
# ----------------------------------------------------------------------
def _des_relay_edges(config, cluster, parallelism):
    """Machine-level ``(parent, child)`` edges of the DES's worker-level
    multicast tree on the fanout topology's one-to-many edge, with the
    source machine's endpoint folded into SOURCE: its children are the
    source's, and the edge into it is gone."""
    system = DspsSystem(make_topology("fanout", parallelism),
                        config.with_overrides(backend="sim", worker_oriented=True),
                        cluster=cluster)
    (spout,) = system.placement.tasks_of["ticks"]
    service = system.multicast_service(spout, "match")
    source = ("w", service.src_machine)
    tree = service.tree
    return {
        (service.src_machine if parent in (SOURCE, source) else service.machine_of(parent),
         service.machine_of(child))
        for parent in tree.bfs() for child in tree.children(parent) if child != source
    }


@pytest.mark.parametrize("structure", ["nonblocking", "binomial"])
@pytest.mark.parametrize("d_star", [1, 2, 3])
@pytest.mark.parametrize("n_hosts", [4, 8])
def test_relay_tree_is_the_des_tree_with_the_source_folded_in(structure, d_star, n_hosts):
    """rt's relay edges are the DES's worker-level tree edges for the
    same config, bar the edges the folded source endpoint removes."""
    cluster = Cluster(n_hosts, 1, 16)
    config = SystemConfig(name="rt-relay-tree", multicast=structure, d_star=d_star)
    placement = schedule(make_topology("fanout", 16), cluster)
    (spout,) = placement.tasks_of["ticks"]
    tree = relay_tree(structure, placement.machines_hosting("match"),
                      placement.machine_of[spout], d_star)
    edges = {(parent, child) for parent, children in tree.items() for child in children}
    assert edges == _des_relay_edges(config, cluster, 16)


@pytest.mark.parametrize("n_hosts, d_star", [(8, 3), (4, 1)])
def test_relay_rows_cross_exactly_the_des_edges(n_hosts, d_star, monkeypatch):
    """On real sockets every connection carries one relay row per tick
    along each edge of the DES's tree (source endpoint folded in) and
    none elsewhere: at 8 hosts and d* = 3 machines 1 and 2 forward, and
    at 4 hosts and d* = 1 the tree is a chain.  The executed multiset is
    exact under at-least-once."""
    budget, parallelism = 12, 16
    relay_rows = Counter()
    real_post_row = FramedConnection.post_row

    def post_row(conn, header, tasks, wire):
        if header[0] == "relay":
            relay_rows[id(conn)] += 1
        return real_post_row(conn, header, tasks, wire)

    monkeypatch.setattr(FramedConnection, "post_row", post_row)
    cluster = Cluster(n_hosts, 1, 16)
    config = SystemConfig(name="rt-relay-hops", backend="asyncio",
                          delivery="at_least_once", worker_oriented=True,
                          multicast="nonblocking", d_star=d_star)
    recorder = Recorder()
    runtime = AsyncRuntime(make_topology("fanout", parallelism, recorder), config,
                           cluster=cluster, seed=5, recorder=recorder)

    async def scenario():
        await runtime.setup()
        try:
            runtime.clock.start()
            await runtime.drive(800.0, budget=budget)
            await runtime.drain()
            return {
                (src, dst): relay_rows[id(conn)]
                for src, host in runtime.hosts.items()
                for dst, conn in host.peers.items() if relay_rows[id(conn)]
            }
        finally:
            await runtime.shutdown()

    rows = asyncio.run(scenario())
    edges = _des_relay_edges(config, cluster, parallelism)
    assert rows == {edge: budget for edge in edges}
    assert {parent for parent, _ in edges} - {0}  # some hop forwards
    assert recorder.executed == Counter(
        {("match", repr({"seq": seq})): parallelism for seq in range(budget)})


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


def test_message_over_the_frame_limit_fails_the_run(monkeypatch):
    """A tuple too big for ``framing.DEFAULT_FRAME_LIMIT`` is never
    written and fails the run with the FrameError, after a full
    teardown."""
    monkeypatch.setattr(framing, "DEFAULT_FRAME_LIMIT", 64)
    recorder = Recorder()
    runtime = AsyncRuntime(
        make_topology("word_count", parallelism=4, recorder=recorder),
        SystemConfig(
            name="rt-oversize",
            backend="asyncio",
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


@pytest.mark.parametrize("multicast", ["sequential", "binomial", "nonblocking"])
def test_fanout_at_least_once_with_credits_is_exact(multicast):
    """One-to-many over each relay tree with the acker and flow control
    on: every tick reaches every instance exactly once."""
    budget, parallelism = 20, 8
    recorder = Recorder()
    config = SystemConfig(
        name="rt-fanout",
        backend="asyncio",
        delivery="at_least_once",
        flow=True,
        credit_window=4,
        multicast=multicast,
        d_star=1,
    )
    runtime = AsyncRuntime(
        make_topology("fanout", parallelism=parallelism, recorder=recorder),
        config,
        cluster=default_cluster(),
        seed=5,
        recorder=recorder,
    )
    report = runtime.run(800.0, budget=budget)
    assert recorder.executed == Counter(
        {("match", repr({"seq": seq})): parallelism for seq in range(budget)})
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


# ----------------------------------------------------------------------
# errors on the wire fail the run
# ----------------------------------------------------------------------
class _TaggedSpout(SeqSpout):
    """SeqSpout whose values carry a set, which JSON cannot encode."""

    def next_tuple(self):
        values, key, payload_bytes = super().next_tuple()
        return {**values, "tags": {1, 2}}, key, payload_bytes


class _Forward(Bolt):
    def execute(self, tup, collector):
        collector.emit("out", tup.values, key=tup.values["seq"], anchor=tup)


class _Log(Bolt):
    """Terminal: appends ``(seq, task)`` per execution."""

    def __init__(self, log):
        self.log = log
        self.task_id = None

    def prepare(self, ctx):
        self.task_id = ctx.task_id

    def execute(self, tup, collector):
        self.log.append((tup.values["seq"], self.task_id))


def test_value_json_cannot_carry_fails_the_run():
    """A tuple value the codec cannot encode fails the run with a
    FrameError naming the type, instead of silently losing the peer's
    outbox."""
    topo = Topology("rt-unencodable")
    topo.add_spout("src", _TaggedSpout)
    topo.add_bolt("mid", _Forward, parallelism=4, inputs={"src": "shuffle"})
    topo.add_bolt("sink", lambda: _Log([]), parallelism=4,
                  inputs={"mid": "fields"}, terminal=True)
    config = SystemConfig(name="rt-unencodable", backend="asyncio",
                          rt_drain_timeout_s=2.0)
    runtime = AsyncRuntime(topo, config, cluster=default_cluster(), seed=8)
    with pytest.raises(FrameError, match="set"):
        runtime.run(800.0, budget=20)
    for host in runtime.hosts.values():
        assert host.server is None and not host.peers


def _fails_the_run(inject, match):
    """Run word_count on four hosts with ``inject(runtime)`` applied
    after setup: ``drain`` stops, ``shutdown`` raises a FrameError
    matching ``match``, and no listener, connection or task remains."""
    runtime = AsyncRuntime(
        make_topology("word_count", parallelism=4),
        SystemConfig(name="rt-wire-error", backend="asyncio", rt_drain_timeout_s=30.0),
        cluster=default_cluster(),
        seed=9,
    )

    async def scenario():
        await runtime.setup()
        inject(runtime)
        runtime.clock.start()
        runtime.metrics.open_window()
        loop = asyncio.get_running_loop()
        await runtime.drive(800.0, budget=24)
        t0 = loop.time()
        await runtime.drain()
        drain_s = loop.time() - t0
        with pytest.raises(FrameError, match=match):
            await runtime.shutdown()
        current = asyncio.current_task()
        deadline = loop.time() + 2.0
        while any(t is not current and not t.done() for t in asyncio.all_tasks()):
            assert loop.time() < deadline, asyncio.all_tasks()
            await asyncio.sleep(0.001)
        return drain_s

    assert asyncio.run(scenario()) < 10.0
    for host in runtime.hosts.values():
        assert host.server is None and not host.peers


def test_corrupt_inbound_frame_fails_the_run():
    def inject(runtime):
        runtime.hosts[0].peers[1].transport.write(b"\x00\x00\x00\x05hello")

    _fails_the_run(inject, "undecodable frame payload")


def test_run_with_a_short_column_fails_the_run():
    def inject(runtime):
        wire = ["split", {"seq": 0}, None, 64, 0.0, "split", 1, 1]
        run = run_message(("data", "count", None), [[1], [1]], [wire, wire])
        run["cols"][2] = run["cols"][2][:1]
        runtime.hosts[0].peers[1].post(run)

    _fails_the_run(inject, "malformed run")


def test_failed_peer_connection_ends_a_parked_drive():
    """Corrupt frames kill every peer's reader of the spout host's
    connections, so no credit ever comes back.  The spout, parked on
    credits, raises the first host's FrameError instead of waiting for
    ever: ``drive`` fails long before its 0.5 s of work, ``shutdown``
    raises the same error, and no listener, connection or task remains."""
    runtime = AsyncRuntime(
        make_topology("word_count", parallelism=4),
        differential_config(flow=True, credit_window=1, delivery="at_most_once"),
        cluster=default_cluster(),
        seed=9,
    )

    async def scenario():
        await runtime.setup()
        (spout,) = runtime.spout_executors
        for conn in spout.host.peers.values():
            conn.transport.write(PREFIX.pack(5) + b"{bad}")
        runtime.clock.start()
        runtime.metrics.open_window()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        try:
            with pytest.raises(FrameError, match="undecodable frame payload"):
                await asyncio.wait_for(runtime.drive(800.0, budget=400), timeout=2.0)
            drive_s = loop.time() - t0
        finally:
            with pytest.raises(FrameError, match="undecodable frame payload"):
                await runtime.shutdown()
        current = asyncio.current_task()
        deadline = loop.time() + 2.0
        while any(t is not current and not t.done() for t in asyncio.all_tasks()):
            assert loop.time() < deadline, asyncio.all_tasks()
            await asyncio.sleep(0.001)
        return drive_s

    assert asyncio.run(scenario()) < 0.5
    assert sum(host.error is not None for host in runtime.hosts.values()) == 3
    for host in runtime.hosts.values():
        assert host.server is None and not host.peers


# ----------------------------------------------------------------------
# half-window credit grants
# ----------------------------------------------------------------------
def _two_host_sink(log, window, capacity=4096):
    topo = Topology("rt-half-window")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt("sink", lambda: _Log(log), parallelism=4,
                  inputs={"src": "shuffle"}, terminal=True)
    config = SystemConfig(name="rt-half-window", backend="asyncio", flow=True,
                          credit_window=window, executor_queue_capacity=capacity)
    return AsyncRuntime(topo, config, cluster=Cluster(2, 1, 4), seed=10)


@pytest.mark.parametrize("window", [1, 2, 3, 64])
def test_sender_parked_on_a_full_window_is_always_woken(window):
    """A sender that fills the window parks; the receiver's half-window
    grants always wake it, and no gate ever exceeds the window."""
    log = []
    runtime = _two_host_sink(log, window)
    rows = 4 * window + 1

    async def scenario():
        await runtime.setup()
        try:
            src, dst = runtime.hosts.values()
            task = runtime.placement.colocated_tasks("sink", dst.machine_id)[0]
            sender = _Sender(src, "test")
            for seq in range(rows):
                wire = tuple_to_wire(StreamTuple("src", {"seq": seq}, source_operator="src"))
                sender.plan.append((dst.machine_id, (("data", "sink", None), [task], wire)))
            parks = 0
            while not src.advance(sender):
                parks += 1
                await sender.park()
            while len(log) < rows:
                await asyncio.sleep(0.001)
            return parks, src.gates[dst.machine_id]
        finally:
            await runtime.shutdown()

    parks, gate = asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))
    assert parks >= 1
    assert gate.max_in_flight == window
    assert sorted(seq for seq, _ in log) == list(range(rows))
    for host in runtime.hosts.values():
        for other in host.gates.values():
            assert other.max_in_flight <= window


def test_credit_messages_are_one_per_half_window_plus_parks(monkeypatch):
    """On two hosts running word_count both ways, each receiver sends
    at most ceil(rows / threshold) credit messages plus one per park of
    its inbound handler."""
    window = 8
    threshold = window // 2
    rows, credits, parks = Counter(), Counter(), Counter()
    real_post_row, real_grant, real_park = (
        FramedConnection.post_row, CreditGate.grant, _Receiver._park)

    def post_row(conn, *row):
        rows[id(conn)] += 1
        return real_post_row(conn, *row)

    def grant(gate, n=1):
        credits[id(gate)] += 1
        return real_grant(gate, n)

    def park(sender):
        parks[sender.stall_key] += 1
        return real_park(sender)

    monkeypatch.setattr(FramedConnection, "post_row", post_row)
    monkeypatch.setattr(CreditGate, "grant", grant)
    monkeypatch.setattr(_Receiver, "_park", park)
    budget = 120
    recorder = Recorder()
    runtime = AsyncRuntime(
        make_topology("word_count", parallelism=4, recorder=recorder),
        SystemConfig(name="rt-credit-messages", backend="asyncio", flow=True,
                     credit_window=window, executor_queue_capacity=4),
        cluster=Cluster(2, 1, 4),
        seed=11,
        recorder=recorder,
    )

    async def scenario():
        await runtime.setup()
        try:
            runtime.clock.start()
            await runtime.drive(4000.0, budget=budget)
            await runtime.drain()
            hosts = list(runtime.hosts.values())
            return [
                (rows[id(src.peers[dst.machine_id])],
                 credits[id(src.gates[dst.machine_id])],
                 parks[f"relay@m{dst.machine_id}"])
                for src in hosts for dst in hosts if src is not dst
            ]
        finally:
            await runtime.shutdown()

    pairs = asyncio.run(scenario())
    assert recorder.executed == _expected_word_multiset(budget)
    for n_rows, n_credits, n_parks in pairs:
        assert n_rows > 0
        assert n_credits <= -(-n_rows // threshold) + n_parks


def test_paused_reader_resumes_in_order():
    """An inbound connection whose handler parks on a full inqueue
    (capacity 1, its bolt held) stops reading its socket; once the bolt
    is released, the handler delivers the rest of the parked read, then
    the later read, FIFO, nothing lost or repeated, and its credits
    follow the half-window rule."""
    log = []
    window = 8
    threshold = window // 2
    runtime = _two_host_sink(log, window, capacity=1)
    first_read, second_read = 6, 2

    async def scenario():
        await runtime.setup()
        try:
            src, dst = runtime.hosts.values()
            task = runtime.placement.colocated_tasks("sink", dst.machine_id)[0]
            sink = dst.executors[task]
            (conn,) = dst.inbound
            receiver = next(s for s in dst.senders
                            if isinstance(s, _Receiver) and s.conn is conn)
            gate = src.gates[dst.machine_id]
            grants = []
            real_grant = gate.grant
            gate.grant = lambda n=1: (grants.append(n), real_grant(n))
            sink.parked = True  # held: the dispatcher never runs it
            sender = _Sender(src, "test")

            async def post(seqs):
                for seq in seqs:
                    wire = tuple_to_wire(StreamTuple("src", {"seq": seq}, source_operator="src"))
                    sender.plan.append((dst.machine_id, (("data", "sink", None), [task], wire)))
                assert src.advance(sender)

            await post(range(first_read))
            await _until(lambda: receiver.parked)
            parked = (conn.transport.is_reading(), sink.inqueue.level, len(receiver.held))
            await post(range(first_read, first_read + second_read))
            await asyncio.sleep(0.05)
            unread = (receiver.parked, conn.transport.is_reading(), len(log))
            sink.wake()
            total = first_read + second_read
            await _until(lambda: len(log) == total and conn.transport.is_reading())
            await _until(lambda: sum(grants) == total - receiver.owed)
            return parked, unread, grants, receiver.owed, gate.in_flight
        finally:
            await runtime.shutdown()

    parked, unread, grants, owed, in_flight = asyncio.run(asyncio.wait_for(scenario(), 10.0))
    assert parked == (False, 1, 0)  # one row queued, the rest kept in the run
    assert unread == (True, False, 0)
    assert [seq for seq, _ in log] == list(range(first_read + second_read))
    assert grants and all(1 <= n <= threshold for n in grants)
    assert owed < threshold and in_flight == owed


async def _until(predicate, timeout=2.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.001)


class _StampedSpout(SeqSpout):
    """SeqSpout that stamps the loop clock at every emission."""

    def __init__(self, stamps):
        super().__init__()
        self.stamps = stamps

    def next_tuple(self):
        self.stamps.append(asyncio.get_running_loop().time())
        return super().next_tuple()


def test_paced_spout_emits_on_time_and_never_early():
    """The paced spout emits each tuple at its due instant: none before
    it, and the median under a quarter millisecond late (a plain sleep
    wakes up to 1 ms late, because the poller rounds timeouts up to
    whole milliseconds)."""
    rate, budget = 200.0, 100
    stamps = []
    topo = Topology("rt-pacing")
    topo.add_spout("src", lambda: _StampedSpout(stamps))
    topo.add_bolt("sink", lambda: _Log([]), parallelism=4,
                  inputs={"src": AllGrouping()}, terminal=True)
    runtime = AsyncRuntime(topo, SystemConfig(name="rt-pacing", backend="asyncio"),
                           cluster=default_cluster(), seed=3)
    runtime.run(rate, budget=budget)
    lateness = [t - (stamps[0] + i / rate) for i, t in enumerate(stamps)]
    assert len(stamps) == budget
    # the first stamp trails the schedule's start by the microseconds
    # before ``next_tuple``; allow that and the clock's resolution.
    assert min(lateness) > -1e-4
    assert sorted(lateness)[budget // 2] < 0.25e-3


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


def test_sim_backend_runs_the_controllers_create_system_attaches():
    """``create_runtime(backend="sim")`` builds the same system as
    ``create_system``: an adaptive, failure-detecting config gets its
    multicast controllers on both, so heartbeats are answered and the
    switch history matches."""
    config = SystemConfig(
        name="sim-controllers", backend="sim", worker_oriented=True,
        multicast="nonblocking", adaptive=True, failure_detection=True,
    )
    cluster = Cluster(8, 1, 16)
    rate, budget = 2000.0, 400

    runtime = create_runtime(make_topology("fanout", 16), config, cluster=cluster)
    runtime.run(rate, budget=budget)

    direct = create_system(
        make_topology("fanout", 16), config, cluster=cluster,
        arrivals={"ticks": FiniteArrivals(ConstantArrivals(rate), budget)},
    )
    direct.run_measured(0.0, (budget + 0.5) / rate,
                        drain_s=config.rt_drain_timeout_s)

    def answered(system):
        return sum(w.heartbeats_answered for w in system.workers.values())

    def switches(system):
        return [c.history for c in system.controllers]

    assert len(runtime.system.controllers) == len(direct.controllers) == 1
    assert answered(runtime.system) == answered(direct) > 0
    assert switches(runtime.system) == switches(direct)


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

