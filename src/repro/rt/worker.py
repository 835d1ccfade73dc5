"""Worker hosts: the rt backend's per-machine runtime.

One :class:`WorkerHost` plays the role one simulated machine plays in
the DES — it listens on an ephemeral localhost TCP port, holds the
executors of every task placed on its machine, and owns the per-host
grouping instances that route emissions.  The dataplane is strictly
sockets: a tuple bound for another machine crosses a real framed TCP
connection (:mod:`repro.rt.transport`), while tuples for co-located
tasks are enqueued directly (the same local short-circuit both Storm
and the simulated worker-oriented path take).

Wire protocol (JSON messages; see :mod:`repro.rt.framing`).  Every
message a host sends one peer in one loop turn leaves as one ``batch``
frame and one socket write (:mod:`repro.rt.transport`), so the transport
cost is paid once per destination worker, not once per message:

* ``hello``  — connection preamble naming the dialing machine;
* ``data``   — a tuple for an explicit task list on the receiving
  machine (one message per machine: worker-oriented batching);
* ``relay``  — a one-to-many tuple plus the subtree of machines the
  receiver must keep forwarding to (Whale's d*-ary relay tree, planned
  hop-by-hop with :func:`repro.rt.relay.plan_relay`, so the source sends
  at most d* relay messages per emit); the receiver delivers to all of
  its co-located destination tasks;
* ``acks``   — ``{"a": [root, task, root, task, ...]}``: the tracked
  spout tuples the sender's tasks executed this loop turn, in order (one
  message per acker host per turn, posted without awaiting ``drain()``;
  the spout host's :class:`Acker` applies the pairs in order);
* ``credit`` — receiver-driven flow control: one credit per data-plane
  message, granted once the work is enqueued and coalesced into one
  ``credit`` message per flush (only when ``SystemConfig.flow`` is on).

**Receive side**, paid per message, not per copy: a ``data`` or
``relay`` message is decoded once (a relay forwards the wire dict it
received), and :meth:`WorkerHost.deliver_local` enqueues that one
:class:`StreamTuple` for every local task, after one dedup pass and one
tracker update; the emitting host hands co-located tasks the emitted
tuple itself.  Tasks share the object, as the DES's ``Worker.dispatch``
shares one across a packet's tasks: **bolts must not mutate their
input.**

**At-least-once** (``config.reliability_enabled``): the spout's host
tracks every one-to-many spout emit in its :class:`Acker`, whose
completion state is the DES acker's
:class:`~repro.dsps.acker.PendingTable` (root id -> destination tasks
still owed an execution; a second one-to-many edge of the same tuple
joins the same root).  A sweep task replays expired roots
*selectively* — direct ``data`` messages to just the missing tasks — up
to ``max_replays`` times, after which the root is abandoned
(``metrics.on_abandoned``).  Receivers dedup by tuple id, so replays
cannot double-execute and the executed multiset stays exact.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.dsps.acker import PendingTable
from repro.dsps.api import TupleContext
from repro.dsps.grouping import Grouping, make_grouping
from repro.dsps.tuples import StreamTuple
from repro.rt.relay import plan_relay
from repro.rt.transport import CreditGate, FramedConnection, dial, serve


def tuple_to_wire(tup: StreamTuple) -> Dict[str, Any]:
    """Serialize a tuple for the framed transport (JSON-safe fields)."""
    return {
        "stream": tup.stream,
        "values": tup.values,
        "key": tup.key,
        "payload_bytes": tup.payload_bytes,
        "created_at": tup.created_at,
        "source_operator": tup.source_operator,
        "tuple_id": tup.tuple_id,
        "root_id": tup.root_id,
    }


def tuple_from_wire(wire: Dict[str, Any]) -> StreamTuple:
    """Rebuild a :class:`StreamTuple` from its wire form."""
    return StreamTuple(
        stream=wire["stream"],
        values=wire["values"],
        key=wire["key"],
        payload_bytes=wire["payload_bytes"],
        created_at=wire["created_at"],
        source_operator=wire["source_operator"],
        tuple_id=wire["tuple_id"],
        root_id=wire["root_id"],
    )


class _InQueue:
    """Bounded FIFO executor input queue exposing the DES ``Store``
    surface (``.level``) so :func:`repro.dsps.grouping.inqueue_depth`
    and the load-adaptive grouping read rt executors unmodified.

    One getter (the task's bolt loop) and a FIFO of puts parked on a
    full queue; each ``get`` pops, then admits the oldest parked item.
    ``get`` pops only after it wakes, so a bolt task cancelled by
    ``stop``/``restart`` leaves its item to the replacement."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: deque = deque()
        self._getter: Optional[asyncio.Future] = None
        #: (future, item) of puts waiting for room, oldest first.
        self._putters: deque = deque()

    @property
    def level(self) -> int:
        return len(self._items)

    async def put(self, item: Any) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
            getter = self._getter
            if getter is not None and not getter.done():
                getter.set_result(None)
            return
        future = asyncio.get_running_loop().create_future()
        self._putters.append((future, item))
        await future

    async def get(self) -> Any:
        items = self._items
        while not items:
            self._getter = asyncio.get_running_loop().create_future()
            try:
                await self._getter
            finally:
                self._getter = None
        item = items.popleft()
        putters = self._putters
        while putters and len(items) < self.capacity:
            future, parked = putters.popleft()
            if not future.done():  # a cancelled put never happened
                items.append(parked)
                future.set_result(None)
        return item


class _BufferingCollector:
    """Collects a bolt's synchronous emits; the executor loop routes
    them asynchronously after ``execute`` returns."""

    def __init__(self) -> None:
        self.emissions: List[tuple] = []

    def emit(self, stream, values, key=None, payload_bytes=None, anchor=None):
        self.emissions.append((stream, values, key, payload_bytes, anchor))

    def drain(self) -> List[tuple]:
        out, self.emissions = self.emissions, []
        return out


class RtExecutorBase:
    """Shared surface of rt executors (what bound groupings consume)."""

    is_spout = False

    def __init__(self, host: "WorkerHost", task_id: int):
        self.host = host
        #: the runtime — exposes ``.metrics/.placement/.cluster/
        #: .executors`` exactly like ``DspsSystem`` for bound groupings.
        self.system = host.runtime
        self.task_id = task_id
        self.operator = self.system.placement.operator_of[task_id]
        self.machine_id = host.machine_id
        self.spec = self.system.topology.operators[self.operator]
        self.emitted = 0
        self.processed = 0
        self._task: Optional[asyncio.Task] = None

    def context(self) -> TupleContext:
        return TupleContext(
            task_id=self.task_id,
            task_index=self.system.placement.index_of[self.task_id],
            parallelism=self.spec.parallelism,
            operator=self.operator,
            machine_id=self.machine_id,
        )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None


class RtBoltExecutor(RtExecutorBase):
    """One bolt task: an asyncio loop over a bounded input queue."""

    def __init__(self, host: "WorkerHost", task_id: int):
        super().__init__(host, task_id)
        self.bolt = self.spec.factory()
        self.inqueue = _InQueue(host.config.executor_queue_capacity)
        #: ``MetricsHub.queue_depth_hwm`` key of the inqueue.
        self.depth_key = f"{self.operator}[{task_id}].inqueue"
        self.bolt.prepare(self.context())

    def rebuild(self) -> None:
        """Worker restart: a fresh operator instance (queued work and the
        task's identity survive; in-operator state does not — exactly a
        process bounce)."""
        self.bolt.close()
        self.bolt = self.spec.factory()
        self.bolt.prepare(self.context())

    def start(self) -> None:
        self._task = asyncio.create_task(self._run(), name=f"bolt-{self.task_id}")

    async def _run(self) -> None:
        host = self.host
        metrics = self.system.metrics
        while True:
            tup, ack_to = await self.inqueue.get()
            collector = _BufferingCollector()
            self.bolt.execute(tup, collector)
            self.processed += 1
            metrics.on_processed(self.operator)
            metrics.completion.on_executed(tup.tuple_id, self.task_id)
            if self.spec.terminal:
                metrics.on_sink_latency(
                    self.operator, host.clock.now - tup.created_at
                )
            for stream, values, key, payload_bytes, anchor in collector.drain():
                if anchor is not None:
                    derived = anchor.derive(
                        stream=self.operator,
                        values=values,
                        key=key,
                        payload_bytes=payload_bytes,
                        source_operator=self.operator,
                    )
                else:
                    derived = StreamTuple(
                        stream=self.operator,
                        values=values,
                        key=key,
                        payload_bytes=payload_bytes or 128,
                        created_at=host.clock.now,
                        source_operator=self.operator,
                    )
                await host.route(derived, self)
            if ack_to is not None:
                host.send_ack(ack_to, tup.root_id, self.task_id)


class RtSpoutExecutor(RtExecutorBase):
    """One spout task, paced by the runtime (absolute-deadline schedule
    so sleep overshoot never accumulates into a rate deficit)."""

    is_spout = True

    def __init__(self, host: "WorkerHost", task_id: int):
        super().__init__(host, task_id)
        self.spout = self.spec.factory()
        self.spout.prepare(self.context())
        #: spouts never queue input; 0-depth for ``inqueue_depth``.
        self.inqueue = _InQueue(1)

    async def run_paced(
        self,
        rate: float,
        budget: Optional[int] = None,
        duration_s: Optional[float] = None,
    ) -> int:
        """Emit at ``rate`` tuples/s until the budget or duration runs
        out; returns the number of tuples emitted."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        i = 0
        while budget is None or i < budget:
            target = t0 + i / rate
            if duration_s is not None and target - t0 >= duration_s:
                break
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            values, key, payload_bytes = self.spout.next_tuple()
            tup = StreamTuple(
                stream=self.operator,
                values=values,
                key=key,
                payload_bytes=payload_bytes,
                created_at=self.host.clock.now,
                source_operator=self.operator,
            )
            await self.host.route(tup, self)
            i += 1
        self.emitted = i
        return i


class Acker:
    """Spout-host acker for at-least-once one-to-many delivery: the
    shared pending table plus an asyncio sweep that replays or abandons
    expired roots."""

    def __init__(self, host: "WorkerHost"):
        self.host = host
        self.config = host.config
        self.table = PendingTable()
        #: root id -> (wire tuple, replays so far) until it completes or
        #: is abandoned.
        self._roots: Dict[int, Tuple[Dict[str, Any], int]] = {}
        self.completed = 0
        self.replays = 0
        self.abandoned = 0
        self._task: Optional[asyncio.Task] = None

    @property
    def pending(self) -> int:
        """Roots still owed an ack."""
        return len(self.table)

    def register(self, wire: Dict[str, Any], tasks: Sequence[int]) -> None:
        root = wire["root_id"]
        self._roots.setdefault(root, (wire, 0))
        self.table.arm(root, tasks, self.host.clock.now)
        self.host.runtime.metrics.note_acker_pending(len(self.table))

    def on_ack(self, root: int, task: int) -> None:
        if self.table.ack(root, task):
            del self._roots[root]
            self.completed += 1

    def start(self) -> None:
        self._task = asyncio.create_task(self._sweep(), name="acker-sweep")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    async def _sweep(self) -> None:
        host = self.host
        cfg = self.config
        while True:
            await asyncio.sleep(cfg.ack_sweep_interval_s)
            now = host.clock.now
            # Re-arm every expired root before the first send yields, so
            # ``pending`` never reads empty while a replay is in flight.
            replays = []
            for root, outstanding in self.table.expired(now, cfg.ack_timeout_s):
                wire, attempts = self._roots[root]
                if attempts >= cfg.max_replays:
                    del self._roots[root]
                    self.abandoned += 1
                    metrics = host.runtime.metrics
                    metrics.on_abandoned()
                    metrics.multicast.cancel(wire["tuple_id"])
                    metrics.completion.cancel(root)
                    host.clock.emit("rt.abandon", root=root, replays=attempts)
                    continue
                self._roots[root] = (wire, attempts + 1)
                self.table.arm(root, outstanding, now)
                self.replays += 1
                host.clock.emit(
                    "rt.replay",
                    root=root,
                    attempt=attempts + 1,
                    outstanding=len(outstanding),
                )
                replays.append((wire, sorted(outstanding)))
            for wire, tasks in replays:
                await host.replay(wire, tasks)


class WorkerHost:
    """All runtime state of one simulated machine in the rt backend."""

    def __init__(self, runtime, machine_id: int):
        self.runtime = runtime
        self.machine_id = machine_id
        self.config = runtime.config
        self.clock = runtime.clock
        #: local task id -> executor.
        self.executors: Dict[int, RtExecutorBase] = {}
        for task_id in runtime.placement.tasks_on_machine(machine_id):
            operator = runtime.placement.operator_of[task_id]
            kind = runtime.topology.operators[operator].kind
            cls = RtSpoutExecutor if kind == "spout" else RtBoltExecutor
            self.executors[task_id] = cls(self, task_id)
        #: per-host grouping instance per edge (built from the
        #: prototype's :meth:`~repro.dsps.grouping.Grouping.spec`).
        self._edges: Dict[Tuple[str, str], Grouping] = {}
        #: per-emitter bound wrappers (``for_emitter``), keyed by
        #: (src, dst, emitting task).
        self._bound: Dict[Tuple[str, str, int], Grouping] = {}
        #: routing state stashed by :meth:`restart`, imported when the
        #: replacement instances are (lazily) rebuilt.
        self._edge_restore: Dict[Tuple[str, str], Any] = {}
        self._bound_restore: Dict[Tuple[str, str, int], Any] = {}
        #: per-task tuple-id dedup sets (only maintained when replays are
        #: possible, i.e. a reliability mode is on — TCP never duplicates
        #: on its own, and unbounded growth would hurt duration-mode runs)
        self._seen: Dict[int, Set[int]] = {}
        #: acker machine -> this turn's remote acks, flat
        #: ``[root, task, root, task, ...]`` (see :meth:`send_ack`).
        self._acks: Dict[int, List[int]] = {}
        self.acker: Optional[Acker] = (
            Acker(self)
            if self.config.reliability_enabled and self._hosts_spout()
            else None
        )
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self.peers: Dict[int, FramedConnection] = {}
        self.gates: Dict[int, CreditGate] = {}
        self._reader_tasks: List[asyncio.Task] = []
        self.restarts = 0

    def _hosts_spout(self) -> bool:
        return any(ex.is_spout for ex in self.executors.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind the host's listener; returns the ephemeral port."""
        self.server, self.port = await serve(
            self._handle_inbound, self.config.rt_frame_limit_bytes
        )
        self.clock.emit("rt.listen", machine=self.machine_id, port=self.port)
        return self.port

    async def connect(self, ports: Dict[int, int]) -> None:
        """Dial every other host (full mesh) and start executor loops."""
        window = self.config.credit_window if self.config.flow else None
        for machine, port in sorted(ports.items()):
            if machine == self.machine_id:
                continue
            conn = await dial(port, self.config.rt_frame_limit_bytes)
            await conn.send({"type": "hello", "machine": self.machine_id})
            self.peers[machine] = conn
            self.gates[machine] = CreditGate(window)
            self._reader_tasks.append(
                asyncio.create_task(
                    self._read_outbound(machine, conn),
                    name=f"out-m{self.machine_id}-m{machine}",
                )
            )
            self.clock.emit(
                "rt.connect", src=self.machine_id, dst=machine, port=port
            )
        for ex in self.executors.values():
            if isinstance(ex, RtBoltExecutor):
                ex.start()
        if self.acker is not None:
            self.acker.start()

    async def stop(self) -> None:
        """Tear the host down, then raise the first error an executor or
        connection met (a bolt task that died, a message over the frame
        limit), so a broken run fails loudly without leaking sockets."""
        self.clock.emit("rt.shutdown", machine=self.machine_id)
        if self.acker is not None:
            await self.acker.stop()
        errors = await asyncio.gather(
            *(ex.stop() for ex in self.executors.values()), return_exceptions=True
        )
        for task in self._reader_tasks:
            task.cancel()
        for task in self._reader_tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._reader_tasks.clear()
        errors += await asyncio.gather(
            *(conn.close() for conn in self.peers.values()), return_exceptions=True
        )
        self.peers.clear()
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        for ex in self.executors.values():
            operator = getattr(ex, "bolt", None) or getattr(ex, "spout", None)
            if operator is not None:
                operator.close()
        for error in errors:
            if error is not None:
                raise error

    async def restart(self) -> None:
        """Bounce this worker: fresh operator and grouping instances,
        with routing state carried across via ``export_state`` /
        ``import_state`` (the satellite-1 contract).  Connections,
        queues, and dedup bookkeeping survive — this models a graceful
        worker restart, not a crash."""
        self.restarts += 1
        self._edge_restore = {
            key: inst.export_state() for key, inst in self._edges.items()
        }
        self._bound_restore = {
            key: inst.export_state() for key, inst in self._bound.items()
        }
        self._edges.clear()
        self._bound.clear()
        for ex in self.executors.values():
            if isinstance(ex, RtBoltExecutor):
                await ex.stop()
                ex.rebuild()
                ex.start()
        self.clock.emit("rt.restart", machine=self.machine_id)

    # ------------------------------------------------------------------
    # grouping wiring
    # ------------------------------------------------------------------
    def _edge_instance(self, src: str, dst: str) -> Grouping:
        key = (src, dst)
        inst = self._edges.get(key)
        if inst is None:
            proto = self.runtime.edge_grouping(src, dst)
            name, params = proto.spec()
            inst = make_grouping(name, **params) if name is not None else proto
            state = self._edge_restore.pop(key, None)
            if state is not None:
                inst.import_state(state)
            self._edges[key] = inst
        return inst

    def grouping_for(self, executor: RtExecutorBase, dst: str) -> Grouping:
        key = (executor.operator, dst, executor.task_id)
        bound = self._bound.get(key)
        if bound is None:
            edge = self._edge_instance(executor.operator, dst)
            bound = edge.for_emitter(executor)
            if bound is not edge:
                state = self._bound_restore.pop(key, None)
                if state is not None:
                    bound.import_state(state)
            self._bound[key] = bound
        return bound

    # ------------------------------------------------------------------
    # emission / routing
    # ------------------------------------------------------------------
    async def route(self, tup: StreamTuple, executor: RtExecutorBase) -> None:
        """Route one emitted tuple through every downstream edge."""
        runtime = self.runtime
        metrics = runtime.metrics
        placement = runtime.placement
        metrics.on_emit(executor.operator)
        executor.emitted += 1
        wire = tuple_to_wire(tup)
        for spec in runtime.topology.downstream_of(executor.operator):
            dst = spec.name
            grouping = self.grouping_for(executor, dst)
            chosen = grouping.choose(tup, placement.tasks_of[dst])
            ack_to = None
            if grouping.one_to_many and metrics.in_window:
                metrics.multicast.register(tup.tuple_id, chosen, self.clock.now)
                metrics.completion.register(tup.tuple_id, chosen, tup.created_at)
            if (
                grouping.one_to_many
                and executor.is_spout
                and self.acker is not None
            ):
                self.acker.register(wire, chosen)
                ack_to = self.machine_id
            by_machine: Dict[int, List[int]] = {}
            for task in chosen:
                by_machine.setdefault(placement.machine_of[task], []).append(task)
            local = by_machine.pop(self.machine_id, None)
            if local:
                await self.deliver_local(tup, local, ack_to)
            if not by_machine:
                continue
            if grouping.one_to_many:
                # Whale's relay tree: the source sends at most d* relay
                # messages; receivers forward the subtree hop by hop.
                members = sorted(by_machine)
                d_star = self.config.d_star or 3
                for child, subtree in plan_relay(members, d_star):
                    await self.send(
                        child,
                        {
                            "type": "relay",
                            "dst": dst,
                            "subtree": subtree,
                            "ack_to": ack_to,
                            "tuple": wire,
                        },
                        stall_key=executor.operator,
                    )
            else:
                # Worker-oriented batching: one message per machine.
                for machine, tasks in sorted(by_machine.items()):
                    await self.send(
                        machine,
                        {
                            "type": "data",
                            "dst": dst,
                            "tasks": tasks,
                            "ack_to": ack_to,
                            "tuple": wire,
                        },
                        stall_key=executor.operator,
                    )

    async def replay(self, wire: Dict[str, Any], tasks: Sequence[int]) -> None:
        """Selective retransmission to just the unacked destinations (a
        root may span several edges, so messages address tasks only)."""
        placement = self.runtime.placement
        by_machine: Dict[int, List[int]] = {}
        for task in tasks:
            by_machine.setdefault(placement.machine_of[task], []).append(task)
        local = by_machine.pop(self.machine_id, None)
        if local:
            await self.deliver_local(tuple_from_wire(wire), local, self.machine_id)
        for machine, machine_tasks in sorted(by_machine.items()):
            await self.send(
                machine,
                {
                    "type": "data",
                    "tasks": machine_tasks,
                    "ack_to": self.machine_id,
                    "tuple": wire,
                },
                stall_key="acker",
            )

    async def send(
        self, machine: int, message: Dict[str, Any], stall_key: str = "rt"
    ) -> None:
        """Send one message to a peer, honouring the credit window for
        data-plane messages and feeding stall time into the metrics hub."""
        conn = self.peers[machine]
        if message["type"] in ("data", "relay"):
            stalled = await self.gates[machine].acquire()
            if stalled > 0:
                self.runtime.metrics.add_credit_stall(stall_key, stalled)
        await conn.send(message)

    def send_ack(self, ack_to: int, root: int, task: int) -> None:
        """Ack one execution to the acker on ``ack_to``: directly when it
        is this host, else folded into the one ``acks`` message that
        :meth:`_flush_acks` posts to that peer at the end of this turn."""
        if ack_to == self.machine_id:
            if self.acker is not None:
                self.acker.on_ack(root, task)
            return
        if not self._acks:
            asyncio.get_running_loop().call_soon(self._flush_acks)
        self._acks.setdefault(ack_to, []).extend((root, task))

    def _flush_acks(self) -> None:
        acks, self._acks = self._acks, {}
        for machine, pairs in acks.items():
            self.peers[machine].post({"type": "acks", "a": pairs})

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    async def deliver_local(
        self,
        tup: StreamTuple,
        tasks: Sequence[int],
        ack_to: Optional[int],
    ) -> None:
        """Enqueue one tuple object for every local task (after the dedup
        guard when replays are possible), with one tracker update for
        the whole group."""
        metrics = self.runtime.metrics
        tuple_id = tup.tuple_id
        if self.config.reliability_enabled:
            fresh = []
            for task in tasks:
                seen = self._seen.setdefault(task, set())
                if tuple_id not in seen:
                    seen.add(tuple_id)
                    fresh.append(task)
            if not fresh:
                return
            tasks = fresh
        metrics.multicast.on_receive(tuple_id, tasks)
        item = (tup, ack_to)
        for task in tasks:
            executor = self.executors[task]
            inqueue = executor.inqueue
            await inqueue.put(item)
            metrics.note_queue_depth(executor.depth_key, inqueue.level)

    # ------------------------------------------------------------------
    # inbound handlers
    # ------------------------------------------------------------------
    async def _handle_inbound(self, conn: FramedConnection) -> None:
        flow = self.config.flow
        async for message in conn.messages():
            mtype = message["type"]
            if mtype == "data":
                await self.deliver_local(
                    tuple_from_wire(message["tuple"]),
                    message["tasks"],
                    message["ack_to"],
                )
                if flow:
                    conn.grant(1)
            elif mtype == "relay":
                await self._on_relay(message)
                if flow:
                    conn.grant(1)
            elif mtype == "acks":
                acker = self.acker
                if acker is not None:
                    pairs = iter(message["a"])
                    for root, task in zip(pairs, pairs):
                        acker.on_ack(root, task)
            elif mtype == "hello":
                continue
            else:  # pragma: no cover - protocol hygiene
                raise ValueError(f"unknown message type {mtype!r}")

    async def _on_relay(self, message: Dict[str, Any]) -> None:
        """Deliver a relayed tuple locally and forward its subtree."""
        wire = message["tuple"]
        dst = message["dst"]
        ack_to = message["ack_to"]
        placement = self.runtime.placement
        local = placement.colocated_tasks(dst, self.machine_id)
        if local:
            await self.deliver_local(tuple_from_wire(wire), local, ack_to)
        subtree = message["subtree"]
        if not subtree:
            return
        d_star = self.config.d_star or 3
        for child, rest in plan_relay(subtree, d_star):
            await self.send(
                child,
                {
                    "type": "relay",
                    "dst": dst,
                    "subtree": rest,
                    "ack_to": ack_to,
                    "tuple": wire,
                },
                stall_key=f"relay@m{self.machine_id}",
            )

    async def _read_outbound(
        self, machine: int, conn: FramedConnection
    ) -> None:
        """Consume the return direction of an outbound connection
        (credit grants)."""
        gate = self.gates[machine]
        async for message in conn.messages():
            if message["type"] == "credit":
                gate.grant(message["n"])

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Work still pending on this host (drain condition input)."""
        if any(ex.inqueue.level > 0 for ex in self.executors.values()):
            return True
        return self.acker is not None and bool(self.acker.pending)
