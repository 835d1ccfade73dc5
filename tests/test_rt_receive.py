"""The rt receive path: the per-task inqueue, the host dispatcher's
task parking, one decode and one tracker update per message, and one
``acks`` message per peer per loop turn.

The inqueue tests drive ``_InQueue`` and parked coroutine senders on a
bare event loop; the rest set up a real
:class:`~repro.rt.runtime.AsyncRuntime` (localhost sockets on ephemeral
ports) and poke one host at a time.
"""

import asyncio

import pytest

import repro.rt.worker as rt_worker
from repro.dsps import AllGrouping, Bolt, Topology
from repro.dsps.config import SystemConfig
from repro.dsps.tuples import StreamTuple
from repro.net.cluster import Cluster
from repro.rt.runtime import AsyncRuntime, default_cluster
from repro.rt.topologies import make_topology
from repro.rt.worker import _InQueue, _Sender, tuple_to_wire

from tests._check_util import SeqSpout


# ----------------------------------------------------------------------
# _InQueue
# ----------------------------------------------------------------------
async def _put(q, sender, item):
    """Enqueue ``item`` as a coroutine sender does: push, else register
    the sender's wake-up and park until a pop frees room."""
    while not q.push(item):
        q.when_room(sender.wake)
        await sender.park()


def _sender():
    return _Sender(None, "test")


def test_inqueue_is_fifo_and_level_counts_queued_items():
    q = _InQueue(8)
    levels = []
    for item in "abcde":
        assert q.push(item)
        levels.append(q.level)
    got = [q.pop() for _ in range(5)]
    assert levels == [1, 2, 3, 4, 5]
    assert got == list("abcde")
    assert q.level == 0


def test_put_at_capacity_blocks_and_putters_enter_in_arrival_order():
    async def scenario():
        q = _InQueue(2)
        assert q.push("a") and q.push("b")
        refused = not q.push("x")
        putters = [asyncio.create_task(_put(q, _sender(), item)) for item in "cde"]
        await asyncio.sleep(0)
        blocked = [not p.done() for p in putters]
        level_full = q.level
        trace = []
        for _ in range(5):
            trace.append((q.pop(), q.level))
            await asyncio.sleep(0)
            trace.append([p.done() for p in putters])
        return refused, blocked, level_full, trace

    refused, blocked, level_full, trace = asyncio.run(scenario())
    assert refused  # the capacity bound
    assert blocked == [True, True, True]
    assert level_full == 2
    # each pop wakes every parked putter; they retry in arrival order,
    # so the oldest takes the slot and the items leave in arrival order
    assert trace == [
        ("a", 1), [True, False, False],
        ("b", 1), [True, True, False],
        ("c", 1), [True, True, True],
        ("d", 1), [True, True, True],
        ("e", 0), [True, True, True],
    ]


def test_cancelled_parked_put_never_happens():
    async def scenario():
        q = _InQueue(1)
        q.push("a")
        doomed = asyncio.create_task(_put(q, _sender(), "lost"))
        later = asyncio.create_task(_put(q, _sender(), "b"))
        await asyncio.sleep(0)
        doomed.cancel()
        await asyncio.gather(doomed, return_exceptions=True)
        got = [q.pop()]
        await asyncio.wait_for(later, timeout=1.0)
        got.append(q.pop())
        return got, q.level

    got, level = asyncio.run(scenario())
    assert got == ["a", "b"]
    assert level == 0


def test_putter_cancelled_after_its_wake_holds_up_no_one():
    """A parked put woken by a pop but cancelled (teardown) before it
    resumed leaves the slot to the putter behind it."""

    async def scenario():
        q = _InQueue(1)
        q.push("a")
        doomed = asyncio.create_task(_put(q, _sender(), "lost"))
        later = asyncio.create_task(_put(q, _sender(), "b"))
        await asyncio.sleep(0)
        first = q.pop()  # wakes both putters...
        doomed.cancel()  # ...and the first is cancelled before it resumes
        await asyncio.gather(doomed, return_exceptions=True)
        await asyncio.wait_for(later, timeout=1.0)
        return doomed.cancelled(), [first, q.pop()], q.level

    cancelled, got, level = asyncio.run(scenario())
    assert cancelled
    assert got == ["a", "b"]
    assert level == 0


# ----------------------------------------------------------------------
# runtime fixtures
# ----------------------------------------------------------------------
class _Keep(Bolt):
    """Records every input object it executes, with its task."""

    def __init__(self, log):
        self.log = log
        self.task_id = None

    def prepare(self, ctx):
        self.task_id = ctx.task_id

    def execute(self, tup, collector):
        self.log.append((self.task_id, tup))


def _broadcast_runtime(log, delivery="at_least_once") -> AsyncRuntime:
    topo = Topology("rt-receive")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt(
        "sink",
        lambda: _Keep(log),
        parallelism=8,
        inputs={"src": AllGrouping()},
        terminal=True,
    )
    config = SystemConfig(name="rt-receive", backend="asyncio", delivery=delivery)
    return AsyncRuntime(topo, config, cluster=default_cluster(), seed=1)


async def _until(predicate, timeout=2.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.001)


def _spout_host(runtime):
    return next(
        h for h in runtime.hosts.values()
        if any(ex.is_spout for ex in h.executors.values())
    )


# ----------------------------------------------------------------------
# the dispatcher: a stall parks only its task
# ----------------------------------------------------------------------
class _Forward(Bolt):
    def execute(self, tup, collector):
        collector.emit("out", tup.values, anchor=tup)


def test_parked_task_runs_no_input_until_woken():
    """A task whose plan meets a full local queue parks with the rest of
    its plan: input arriving meanwhile leaves it parked, and the slot a
    pop frees resumes it, plan first, then its queue in FIFO order."""
    log = []
    topo = Topology("rt-park")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt("first", _Forward, parallelism=1, inputs={"src": "shuffle"})
    topo.add_bolt("second", lambda: _Keep(log), parallelism=1,
                  inputs={"first": "shuffle"}, terminal=True)
    config = SystemConfig(name="rt-park", backend="asyncio", executor_queue_capacity=1)
    runtime = AsyncRuntime(topo, config, cluster=Cluster(1, 1, 4), seed=1)

    def item(seq):
        return StreamTuple(stream="src", values={"seq": seq}, source_operator="src"), None

    async def scenario():
        await runtime.setup()
        try:
            (host,) = runtime.hosts.values()
            first, second = (
                host.executors[runtime.placement.tasks_of[op][0]]
                for op in ("first", "second")
            )
            assert second.inqueue.push(item(0))  # full, and not runnable
            first.inqueue.push(item(1))
            host.ready(first)
            await asyncio.sleep(0)
            parked = (first.parked, len(first.plan), first.inqueue.level)
            first.inqueue.push(item(2))
            host.ready(first)
            await asyncio.sleep(0)
            still = (first.parked, first.inqueue.level, len(log))
            host.ready(second)
            await _until(lambda: len(log) == 3)
            return parked, still, [tup.values["seq"] for _, tup in log], first
        finally:
            await runtime.shutdown()

    parked, still, seqs, first = asyncio.run(scenario())
    assert parked == (True, 1, 0)
    assert still == (True, 1, 0)
    assert seqs == [0, 1, 2]
    assert not first.parked and not first.plan and first.processed == 2


# ----------------------------------------------------------------------
# acks: one message per peer per loop turn
# ----------------------------------------------------------------------
def test_remote_acks_of_one_turn_reach_the_acker_as_one_message_in_order():
    async def scenario():
        runtime = _broadcast_runtime([])
        await runtime.setup()
        try:
            spout = _spout_host(runtime)
            other = next(h for h in runtime.hosts.values() if h is not spout)
            conn = other.peers[spout.machine_id]
            posted = []
            real_post = conn.post

            def post(message):
                posted.append(message)
                return real_post(message)

            conn.post = post
            applied = []
            spout.acker.on_ack = lambda root, task: applied.append((root, task))
            frames_before = conn.frames_sent
            for root, task in [(11, 1), (12, 2), (11, 3), (13, 1)]:
                other.send_ack(spout.machine_id, root, task)
            assert posted == []  # folded until the end of the turn
            await _until(lambda: len(applied) == 4)
            return posted, applied, conn.frames_sent - frames_before
        finally:
            await runtime.shutdown()

    posted, applied, frames = asyncio.run(scenario())
    assert posted == [{"type": "acks", "a": [11, 1, 12, 2, 11, 3, 13, 1]}]
    assert applied == [(11, 1), (12, 2), (11, 3), (13, 1)]
    assert frames == 1


def test_local_ack_goes_straight_to_the_acker_and_never_touches_the_wire():
    async def scenario():
        runtime = _broadcast_runtime([])
        await runtime.setup()
        try:
            spout = _spout_host(runtime)
            written = []
            for conn in spout.peers.values():
                conn.transport.write = written.append
            applied = []
            spout.acker.on_ack = lambda root, task: applied.append((root, task))
            spout.send_ack(spout.machine_id, 21, 5)
            synchronous = list(applied)
            await asyncio.sleep(0.01)
            return synchronous, spout._acks, written
        finally:
            await runtime.shutdown()

    synchronous, buffered, written = asyncio.run(scenario())
    assert synchronous == [(21, 5)]
    assert buffered == {}
    assert written == []


# ----------------------------------------------------------------------
# decode once, one tracker update per row
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mtype", ["data", "relay"])
def test_message_for_colocated_tasks_is_decoded_and_tracked_once(mtype, monkeypatch):
    decoded = []
    real_decode = rt_worker.tuple_from_wire

    def counting_decode(wire):
        decoded.append(wire[6])  # the positional wire tuple's id
        return real_decode(wire)

    monkeypatch.setattr(rt_worker, "tuple_from_wire", counting_decode)

    async def scenario():
        log = []
        runtime = _broadcast_runtime(log)
        await runtime.setup()
        try:
            received = []
            multicast = runtime.metrics.multicast
            real_reached = multicast.reached

            def counting_reached(tuple_id, tasks, at):
                received.append((tuple_id, list(tasks)))
                return real_reached(tuple_id, tasks, at)

            multicast.reached = counting_reached
            placement = runtime.placement
            target, local = max(
                (
                    (m, placement.colocated_tasks("sink", m))
                    for m in runtime.hosts
                ),
                key=lambda item: len(item[1]),
            )
            assert len(local) >= 2
            sender = next(m for m in runtime.hosts if m != target)
            tup = StreamTuple(stream="src", values={"seq": 7}, source_operator="src")
            if mtype == "data":
                row = (("data", "sink", None), list(local), tuple_to_wire(tup))
            else:
                # the default sequential tree: the source sends to every
                # machine itself, so the target forwards nothing
                row = (("relay", "sink", None, sender), None, tuple_to_wire(tup))
            conn = runtime.hosts[sender].peers[target]
            conn.post_row(*row)
            await _until(lambda: len(log) == len(local))
            # a duplicate is decoded, then filtered before any tracking
            conn.post_row(*row)
            await _until(lambda: len(decoded) == 2)
            await asyncio.sleep(0.01)
            return tup.tuple_id, local, log, received
        finally:
            await runtime.shutdown()

    tuple_id, local, log, received = asyncio.run(scenario())
    assert decoded == [tuple_id, tuple_id]
    assert received == [(tuple_id, list(local))]
    assert sorted(task for task, _ in log) == sorted(local)
    # every co-located task executed the one decoded object
    assert len({id(tup) for _, tup in log}) == 1


def test_emitting_host_hands_local_tasks_the_emitted_tuple(monkeypatch):
    """No wire round trip on the emitting host: co-located destination
    tasks execute the spout's own tuple object."""
    decoded = []
    real_decode = rt_worker.tuple_from_wire
    monkeypatch.setattr(
        rt_worker, "tuple_from_wire", lambda wire: decoded.append(1) or real_decode(wire)
    )
    log = []
    runtime = _broadcast_runtime(log, delivery="at_most_once")
    runtime.run(200.0, budget=3)
    spout_machine = _spout_host(runtime).machine_id
    local = set(runtime.placement.colocated_tasks("sink", spout_machine))
    assert local
    by_seq = {}
    for task, tup in log:
        by_seq.setdefault(tup.values["seq"], []).append((task, tup))
    assert sorted(by_seq) == [1, 2, 3]
    for copies in by_seq.values():
        assert len(copies) == 8
        local_objs = {id(tup) for task, tup in copies if task in local}
        assert len(local_objs) == 1
    # one decode per remote sink host per tuple, none for the local copies
    remote_hosts = {
        runtime.placement.machine_of[task]
        for task in runtime.placement.tasks_of["sink"]
    } - {spout_machine}
    assert len(decoded) == 3 * len(remote_hosts)


# ----------------------------------------------------------------------
# inqueue high-water mark
# ----------------------------------------------------------------------
def test_inqueue_hwm_counts_the_tuple_being_enqueued():
    """The HWM reads the depth after the put, as the DES reads it after
    the copy joined: a light run that queued 80 tuples reports at least
    one per task, never 0."""
    runtime = AsyncRuntime(
        make_topology("fanout", parallelism=8),
        SystemConfig(name="rt-hwm", backend="asyncio"),
        cluster=default_cluster(),
        seed=1,
    )
    report = runtime.run(50.0, budget=10)
    assert report.processed == {"match": 80}
    hwm = runtime.metrics.queue_depth_hwm
    for task in runtime.placement.tasks_of["match"]:
        assert hwm[f"match[{task}].inqueue"] >= 1, task
