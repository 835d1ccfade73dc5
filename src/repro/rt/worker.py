"""Worker hosts: the rt backend's per-machine runtime.

One :class:`WorkerHost` plays the role one simulated machine plays in
the DES — it listens on an ephemeral localhost TCP port, holds the
executors of every task placed on its machine, and owns the per-host
grouping instances that route emissions.  The dataplane is strictly
sockets: a tuple bound for another machine crosses a real framed TCP
connection (:mod:`repro.rt.transport`), while tuples for co-located
tasks are enqueued directly (the same local short-circuit both Storm
and the simulated worker-oriented path take).

Wire protocol (JSON messages; see :mod:`repro.rt.framing`).  Everything
a host sends one peer in one loop turn leaves as one ``batch`` frame and
one socket write (:mod:`repro.rt.transport`), so the transport cost is
paid once per destination worker, not once per message.  Each data-plane
send is a *row* — a header plus ``(tasks, wire)``, the tuple as the
positional list of its eight fields (:func:`tuple_to_wire`) — and
consecutive rows with one header travel as one field-major *run*:

* ``data``   — header ``("data", dst, ack_to)``: a tuple for the row's
  task list on the receiving machine (one row per machine:
  worker-oriented batching; a replay's ``dst`` is ``None``);
* ``relay``  — header ``("relay", dst, ack_to, src)``: a one-to-many
  tuple from source machine ``src``.  The receiver delivers it to all of
  its co-located destination tasks and forwards it to its own children
  in the ``(dst, src)`` relay tree (:func:`relay_tree`): the DES's
  worker-level ``SystemConfig.multicast`` tree over the machines hosting
  ``dst``, with the source machine's endpoint folded into the root.
  Every host builds that tree once per ``(dst, src)``, so a row names
  no members and a hop plans nothing;
* ``acks``   — ``{"a": [root, task, root, task, ...]}``: the tracked
  spout tuples the sender's tasks executed this loop turn, in order (one
  message per acker host per turn, posted without ever waiting; the
  spout host's :class:`Acker` applies the pairs in order);
* ``credit`` — receiver-driven flow control: one credit per row once
  the work is enqueued, granted per half window and before the receiver
  parks (only when ``SystemConfig.flow`` is on).

**One dispatcher per host.**  A bolt task is a bounded FIFO
(:class:`_InQueue`) and a plan, not an asyncio task.  Enqueuing marks it
runnable; one ``loop.call_soon`` drain per host runs the runnable bolts
synchronously, FIFO per task, on one clock read.  Routing only plans
(the emit's local enqueues and peer sends, in order) and
:meth:`WorkerHost.advance` carries plans out.  A step without credit,
into a full queue or behind a backlogged writer parks *only its sender*
until the grant, the pop or ``resume_writing``; parking the whole
dispatcher would deadlock hosts whose tasks wait on each other's
credits.  Each connection's :class:`_Receiver` handles a socket read's
messages in the read's own callback, with no loop turn between the
socket and the local enqueues and relay forwards; one that must wait
pauses reading until it is woken.  A row is decoded once, and its one
:class:`StreamTuple` goes to every local task after one dedup pass and
one tracker update (the emitting host hands co-located tasks the emitted
tuple itself), so tasks share the object, as in the DES's
``Worker.dispatch``: **bolts must not mutate their input.**  A
connection's error fails the run.

**Pacing.**  A paced spout sleeps only the part of a wait the poller
can honour (``epoll_wait`` rounds every timeout up to a whole
millisecond, :data:`POLL_GRANULARITY_S`) and yields loop turns for the
rest, so each tuple leaves at its due instant, not up to a millisecond
after it.  Each yield is a full loop turn with a zero-timeout poll, so
every host's I/O keeps running meanwhile.

**At-least-once** (``config.reliability_enabled``): the spout's host
tracks every one-to-many spout emit in its :class:`Acker`, whose
completion state is the DES acker's
:class:`~repro.dsps.acker.PendingTable` (root id -> destination tasks
still owed an execution; a second one-to-many edge of the same tuple
joins the same root).  A sweep task replays expired roots
*selectively* — ``data`` rows to just the missing tasks — up
to ``max_replays`` times, after which the root is abandoned
(``metrics.on_abandoned``).  Receivers dedup by tuple id, so replays
cannot double-execute and the executed multiset stays exact.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dsps.acker import PendingTable
from repro.dsps.api import TupleContext
from repro.dsps.grouping import Grouping, make_grouping
from repro.dsps.tuples import StreamTuple
from repro.multicast.build import build_tree
from repro.multicast.tree import SOURCE
from repro.rt import framing
from repro.rt.framing import FrameError, run_rows
from repro.rt.transport import CreditGate, FramedConnection, dial, serve


def tuple_to_wire(tup: StreamTuple) -> List[Any]:
    """Serialize a tuple for the framed transport: its eight fields,
    JSON-safe, in :class:`StreamTuple` order."""
    return [tup.stream, tup.values, tup.key, tup.payload_bytes, tup.created_at,
            tup.source_operator, tup.tuple_id, tup.root_id]


def tuple_from_wire(wire: Sequence[Any]) -> StreamTuple:
    """Rebuild a :class:`StreamTuple` from its wire form."""
    return StreamTuple(*wire)


def relay_tree(structure: str, machines: Sequence[int], source: int,
               d_star: int) -> Dict[int, List[int]]:
    """The ``structure`` tree the DES's worker-level multicast service
    builds over ``machines``, as ``{machine: children in send order}``,
    with ``source``'s endpoint folded into the root: the source machine
    delivers to its own tasks locally, sends to the root's children and
    then to its endpoint's, and no machine sends back to it."""
    tree = build_tree(structure, machines, d_star)
    children = {m: [c for c in tree.children(m) if c != source] for m in machines}
    children[source] = [c for c in tree.children(SOURCE) if c != source] + children.get(source, [])
    return children


class _InQueue:
    """Bounded FIFO input queue of one task, exposing the DES ``Store``
    surface (``.level``, ``.capacity``) that ``inqueue_depth``, the
    load-adaptive grouping and the checker read.  :meth:`push` refuses a
    full queue; a :meth:`pop` wakes every sender that registered with
    :meth:`when_room`, and they retry in arrival order (a cancelled one
    never enqueues)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: deque = deque()
        self._waiters: List[Callable[[], None]] = []

    @property
    def level(self) -> int:
        return len(self.items)

    def push(self, item: Any) -> bool:
        if len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        return True

    def when_room(self, wake: Callable[[], None]) -> None:
        self._waiters.append(wake)

    def pop(self) -> Any:
        item = self.items.popleft()
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for wake in waiters:
                wake()
        return item


class _Sender:
    """Carries out a *plan*: the ordered steps of its emits, each a local
    enqueue ``(executor, item)`` or a send ``(machine, message)``.  When
    :meth:`WorkerHost.advance` meets a step that must wait, the sender
    parks with the rest of its plan until :meth:`wake`.  This base wakes
    a coroutine awaiting :meth:`park`; a bolt task overrides
    :meth:`wake` to rejoin its host's dispatcher instead, and a
    connection's :class:`_Receiver` to resume handling its read.  Once a
    host of the run has failed, a parked spout or receiver fails with
    that error instead of waiting (:meth:`AsyncRuntime.fail`)."""

    def __init__(self, host: "WorkerHost", stall_key: str):
        self.host = host
        #: ``MetricsHub.credit_stall_s`` key its credit stalls feed.
        self.stall_key = stall_key
        self.plan: deque = deque()
        #: when the sender parked on a credit gate (``time.monotonic``).
        self.stalled_at: Optional[float] = None
        self._woken: Optional[asyncio.Future] = None
        #: the run's error once :meth:`abort` ran; every park raises it.
        self.failed: Optional[Exception] = None

    def wake(self) -> None:
        woken = self._woken
        if woken is not None and not woken.done():
            woken.set_result(None)

    def park(self) -> asyncio.Future:
        """A future :meth:`wake` completes (coroutine senders run
        ``while not host.advance(sender): await sender.park()``), or
        :meth:`abort` fails; failed at once after a host error."""
        self._woken = asyncio.get_running_loop().create_future()
        if self.failed is not None:
            self._woken.set_exception(self.failed)
        return self._woken

    def abort(self, error: Exception) -> None:
        """Make the parked coroutine, and every later park, raise
        ``error``."""
        self.failed = error
        woken = self._woken
        if woken is not None and not woken.done():
            woken.set_exception(error)


class _Receiver(_Sender):
    """The receiving side of one connection.  :meth:`on_messages` runs in
    the socket's callback and handles the read's messages synchronously:
    rows and acks in, and on an outbound connection the credit grants for
    ``gate``.  Per row it plans the local enqueues and the relay
    forwards, then advances them.  A step that must wait parks the
    receiver: it grants the credits it owes, pauses reading and keeps
    the rest of the read; :meth:`wake` resumes it on the next loop turn,
    and once it has handled what it kept it resumes reading.  With flow
    on, a row owes a credit; owed credits carry across reads and are
    granted at half the window and before parking: a sender waits only
    with a full window in flight, so they reach it unless this receiver
    parks.  An error it meets (an unknown type, a malformed run) ends
    the connection (:meth:`FramedConnection.fail`)."""

    def __init__(self, host: "WorkerHost", conn: FramedConnection,
                 gate: Optional[CreditGate]):
        super().__init__(host, f"relay@m{host.machine_id}")
        self.conn = conn
        self.gate = gate
        config = host.config
        self.flow, self.threshold = int(config.flow), max(1, config.credit_window // 2)
        self.owed = 0
        #: the messages of the parked read still to handle; the rest of
        #: the run being handled, and its ``(dst, ack_to, src)``.
        self.held: deque = deque()
        self.rows: Iterator[Any] = iter(())
        self.header: Tuple[Any, Any, Any] = (None, None, None)
        self.parked = False
        conn.on_messages = self.on_messages

    def on_messages(self, messages: List[Dict[str, Any]]) -> None:
        self.held.extend(messages)
        if not self.parked:
            self._handle()
            self.host.runtime.check_quiet()

    def wake(self) -> None:
        if self.parked:
            self.parked = False
            asyncio.get_running_loop().call_soon(self._resume)

    def abort(self, error: Exception) -> None:
        """A parked receiver never resumes: its connection ends with
        ``error``; one handling a read fails at its next park."""
        super().abort(error)
        if self.parked:
            self.conn.fail(error)

    def _resume(self) -> None:
        try:
            if self._advance() and self._handle():
                self.conn.transport.resume_reading()
                self.host.runtime.check_quiet()
        except Exception as exc:
            self.conn.fail(exc)

    def _handle(self) -> bool:
        """Handle the held messages in order, the rest of the current run
        first; False once a step must wait."""
        host, plan, held = self.host, self.plan, self.held
        while True:
            dst, ack_to, src = self.header
            for tasks, wire in self.rows:
                if tasks:
                    host._plan_local(plan, tuple_from_wire(wire), tasks, ack_to)
                if src is not None:
                    host._relay_rows(plan, dst, ack_to, src, wire)
                if not self._advance():
                    return False
            if not held:
                return True
            message = held.popleft()
            mtype = message["type"]
            if mtype == "credit":
                self.gate.grant(message["n"])
                continue
            if mtype == "acks":
                host.handled += 1
                if host.acker is not None:
                    pairs = iter(message["a"])
                    for root, task in zip(pairs, pairs):
                        host.acker.on_ack(root, task)
                continue
            dst = message["dst"]
            if mtype == "data":
                local, src = None, None
            elif mtype == "relay":  # deliver locally, forward down the tree
                local, src = host._colocated[dst], message["src"]
            else:
                raise FrameError(f"unknown message type {mtype!r}")
            self.header = (dst, message["ack_to"], src)
            self.rows = run_rows(message, local)

    def _advance(self) -> bool:
        """Carry out the planned row, then owe its credit; False, after
        parking, when a step must wait."""
        host = self.host
        if not host.advance(self):
            self._park()
            return False
        host.handled += 1
        self.owed += self.flow
        if self.owed == self.threshold:
            self.conn.grant(self.owed)
            self.owed = 0
        return True

    def _park(self) -> None:
        if self.failed is not None:
            raise self.failed
        if self.owed:  # the rows before this one
            self.conn.grant(self.owed)
            self.owed = 0
        self.parked = True
        self.conn.transport.pause_reading()


class RtExecutorBase(_Sender):
    """Shared surface of rt executors (what bound groupings consume)."""

    is_spout = False

    def __init__(self, host: "WorkerHost", task_id: int):
        operator = host.runtime.placement.operator_of[task_id]
        super().__init__(host, operator)
        #: the runtime — exposes ``.metrics/.placement/.cluster/
        #: .executors`` exactly like ``DspsSystem`` for bound groupings.
        self.system = host.runtime
        self.task_id = task_id
        self.operator = operator
        self.machine_id = host.machine_id
        self.spec = self.system.topology.operators[operator]
        self.emitted = 0
        self.processed = 0

    def context(self) -> TupleContext:
        return TupleContext(
            task_id=self.task_id,
            task_index=self.system.placement.index_of[self.task_id],
            parallelism=self.spec.parallelism,
            operator=self.operator,
            machine_id=self.machine_id,
        )


class RtBoltExecutor(RtExecutorBase):
    """One bolt task: a bounded input queue its host's dispatcher drains,
    and the collector its bolt emits into."""

    def __init__(self, host: "WorkerHost", task_id: int):
        super().__init__(host, task_id)
        self.bolt = self.spec.factory()
        self.inqueue = _InQueue(host.config.executor_queue_capacity)
        #: ``MetricsHub.queue_depth_hwm`` key of the inqueue.
        self.depth_key = f"{self.operator}[{task_id}].inqueue"
        #: on the host's runnable list / waiting for a wake-up; the clock
        #: read of the drain running it.
        self.runnable, self.parked, self._now = False, False, 0.0
        self.bolt.prepare(self.context())

    def wake(self) -> None:
        self.parked = False
        self.host.ready(self)

    def run(self, now: float) -> None:
        """Finish the parked plan, then execute queued tuples in FIFO
        order until the queue is empty or a step must wait; metrics are
        booked once per run, at the drain's clock read ``now``."""
        host = self.host
        self._now = now
        metrics = self.system.metrics
        executed_at = metrics.completion.reached
        execute = self.bolt.execute
        task_id = self.task_id
        tasks = (task_id,)
        queue = self.inqueue
        terminal = self.spec.terminal
        latencies: List[float] = []
        executed, emitted = 0, self.emitted
        try:
            while True:
                if self.plan and not host.advance(self):
                    self.parked = True
                    return
                if not queue.items:
                    return
                tup, ack_to = queue.pop()
                execute(tup, self)
                executed += 1
                executed_at(tup.tuple_id, tasks, now)
                if terminal:
                    latencies.append(now - tup.created_at)
                if ack_to is not None:
                    host.send_ack(ack_to, tup.root_id, task_id)
        finally:
            if executed:
                self.processed += executed
                metrics.on_processed(self.operator, executed)
                metrics.on_sink_latency(self.operator, latencies)
            if self.emitted > emitted:
                metrics.on_emit(self.operator, self.emitted - emitted)

    def emit(self, stream, values, key=None, payload_bytes=None, anchor=None):
        """The bolt's collector: plan the emit at once (an anchored one
        derives from its anchor's root)."""
        self.emitted += 1
        if anchor is not None:
            tup = anchor.derive(self.operator, values, key, payload_bytes, self.operator)
        else:
            tup = StreamTuple(self.operator, values, key, payload_bytes or 128,
                              self._now, self.operator)
        self.host.route(tup, self)


#: the poller's timeout resolution: ``epoll_wait`` takes whole
#: milliseconds, and the selector rounds every timeout up to one.
POLL_GRANULARITY_S = 1e-3


class RtSpoutExecutor(RtExecutorBase):
    """One spout task, paced by the runtime on an absolute-deadline
    schedule: it sleeps the part of a wait the poller can honour and
    yields loop turns for the sub-millisecond rest, so a tuple leaves at
    its due instant, never before it, and lateness never accumulates
    into a rate deficit."""

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
        host = self.host
        metrics = self.system.metrics
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        i = 0
        while budget is None or i < budget:
            target = t0 + i / rate
            if duration_s is not None and target - t0 >= duration_s:
                break
            delay = target - loop.time()
            if delay > POLL_GRANULARITY_S:
                await asyncio.sleep(delay - POLL_GRANULARITY_S)
            while loop.time() < target:  # each turn polls every host's I/O
                await asyncio.sleep(0)
            values, key, payload_bytes = self.spout.next_tuple()
            tup = StreamTuple(
                stream=self.operator,
                values=values,
                key=key,
                payload_bytes=payload_bytes,
                created_at=host.clock.now,
                source_operator=self.operator,
            )
            metrics.on_emit(self.operator)
            host.route(tup, self)
            while not host.advance(self):
                await self.park()
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
        self._roots: Dict[int, Tuple[List[Any], int]] = {}
        self.completed = 0
        self.replays = 0
        self.abandoned = 0
        #: carries out the replays (credit stalls feed ``"acker"``).
        self.sender = _Sender(host, "acker")
        self._task: Optional[asyncio.Task] = None

    @property
    def pending(self) -> int:
        """Roots still owed an ack."""
        return len(self.table)

    def register(self, wire: List[Any], tasks: Sequence[int]) -> None:
        root = wire[7]  # the root id
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
            # Re-arm every expired root before the first send can wait, so
            # ``pending`` never reads empty while a replay is in flight.
            for root, outstanding in self.table.expired(now, cfg.ack_timeout_s):
                wire, attempts = self._roots[root]
                if attempts >= cfg.max_replays:
                    del self._roots[root]
                    self.abandoned += 1
                    metrics = host.runtime.metrics
                    metrics.on_abandoned()
                    metrics.multicast.cancel(wire[6])  # the tuple id
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
                host.replay(self.sender.plan, wire, sorted(outstanding))
            while not host.advance(self.sender):
                await self.sender.park()
            host.runtime.check_quiet()


class WorkerHost:
    """All runtime state of one simulated machine in the rt backend."""

    def __init__(self, runtime, machine_id: int):
        self.runtime = runtime
        self.machine_id = machine_id
        self.config = runtime.config
        self.clock = runtime.clock
        topology, placement = runtime.topology, runtime.placement
        #: local task id -> executor.
        self.executors: Dict[int, RtExecutorBase] = {}
        for task_id in placement.tasks_on_machine(machine_id):
            kind = topology.operators[placement.operator_of[task_id]].kind
            cls = RtSpoutExecutor if kind == "spout" else RtBoltExecutor
            self.executors[task_id] = cls(self, task_id)
        #: per operator: the bolts consuming it, and its tasks on this
        #: machine (read on every route and relay hop); per ``(dst, source
        #: machine)``: this machine's children in the relay tree.
        self._downstream = {op: [spec.name for spec in topology.downstream_of(op)]
                            for op in topology.operators}
        self._colocated = {op: placement.colocated_tasks(op, machine_id)
                           for op in topology.operators}
        self._relay_children: Dict[Tuple[str, int], List[int]] = {}
        #: per-host grouping instance per edge (built from the
        #: prototype's :meth:`~repro.dsps.grouping.Grouping.spec`).
        self._edges: Dict[Tuple[str, str], Grouping] = {}
        #: per-emitter bound wrappers (``for_emitter``), keyed by
        #: (src, dst, emitting task).
        self._bound: Dict[Tuple[str, str, int], Grouping] = {}
        #: per-task tuple-id dedup sets (only maintained when replays are
        #: possible, i.e. a reliability mode is on — TCP never duplicates
        #: on its own, and unbounded growth would hurt duration-mode runs)
        self._seen: Dict[int, Set[int]] = {task: set() for task in self.executors}
        #: acker machine -> this turn's remote acks, flat
        #: ``[root, task, root, task, ...]`` (see :meth:`send_ack`).
        self._acks: Dict[int, List[int]] = {}
        #: bolt tasks the next drain runs, in the order they became
        #: runnable; ``_drain_armed`` while a drain is scheduled.
        self._runnable: deque = deque()
        self._drain_armed = False
        #: data rows and ack messages this host posted to peers, and the
        #: ones its receivers handled (the quiet rule compares the sums).
        self.posted = 0
        self.handled = 0
        #: the first exception a bolt or a connection raised; :meth:`stop`
        #: raises it.
        self.error: Optional[Exception] = None
        self.acker: Optional[Acker] = (
            Acker(self)
            if self.config.reliability_enabled and self._hosts_spout()
            else None
        )
        #: the senders :meth:`AsyncRuntime.fail` aborts: the spouts and
        #: every connection's receiver (:meth:`stop` stops the acker).
        self.senders: List[_Sender] = [
            ex for ex in self.executors.values() if ex.is_spout]
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        #: outbound connections (and their credit gates) per peer machine;
        #: the connections peers dialed in.
        self.peers: Dict[int, FramedConnection] = {}
        self.gates: Dict[int, CreditGate] = {}
        self.inbound: List[FramedConnection] = []

    def _hosts_spout(self) -> bool:
        return any(ex.is_spout for ex in self.executors.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind the host's listener; returns the ephemeral port."""
        self.server, self.port = await serve(self._accept, framing.DEFAULT_FRAME_LIMIT)
        self.clock.emit("rt.listen", machine=self.machine_id, port=self.port)
        return self.port

    async def connect(self, ports: Dict[int, int]) -> None:
        """Dial every other host (full mesh) and start the acker."""
        window = self.config.credit_window if self.config.flow else None
        for machine, port in sorted(ports.items()):
            if machine == self.machine_id:
                continue
            gate = self.gates[machine] = CreditGate(window)
            conn = await dial(port, framing.DEFAULT_FRAME_LIMIT,
                              on_connect=lambda conn, gate=gate: self._receive(conn, gate))
            self.peers[machine] = conn
            self.clock.emit(
                "rt.connect", src=self.machine_id, dst=machine, port=port
            )
        if self.acker is not None:
            self.acker.start()

    async def stop(self) -> None:
        """Tear the host down, then raise the first error a bolt or a
        connection met (an exception in ``execute``, a message over the
        frame limit, a corrupt inbound frame), so a broken run fails
        loudly without leaking sockets."""
        self.clock.emit("rt.shutdown", machine=self.machine_id)
        self._runnable.clear()
        if self.acker is not None:
            await self.acker.stop()
        if self.server is not None:
            self.server.close()
        errors = await asyncio.gather(
            *(conn.close() for conn in [*self.peers.values(), *self.inbound]),
            return_exceptions=True,
        )
        self.peers.clear()
        self.inbound.clear()
        if self.server is not None:
            await self.server.wait_closed()
            self.server = None
        for ex in self.executors.values():
            operator = getattr(ex, "bolt", None) or getattr(ex, "spout", None)
            if operator is not None:
                operator.close()
        for error in [self.error, *errors]:
            if error is not None:
                raise error

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
            self._edges[key] = inst
        return inst

    def grouping_for(self, executor: RtExecutorBase, dst: str) -> Grouping:
        key = (executor.operator, dst, executor.task_id)
        bound = self._bound.get(key)
        if bound is None:
            bound = self._edge_instance(executor.operator, dst).for_emitter(executor)
            self._bound[key] = bound
        return bound

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------
    def ready(self, executor: RtBoltExecutor) -> None:
        """Mark a bolt task runnable unless it is parked (the first one
        schedules the drain)."""
        if executor.runnable or executor.parked:
            return
        executor.runnable = True
        self._runnable.append(executor)
        if not self._drain_armed:
            self._drain_armed = True
            asyncio.get_running_loop().call_soon(self._drain)

    def _drain(self) -> None:
        """Run every runnable task, including those made runnable on the
        way, on one clock read."""
        now = self.clock.now
        runnable = self._runnable
        while runnable:
            executor = runnable.popleft()
            executor.runnable = False
            try:
                executor.run(now)
            except Exception as exc:
                executor.parked = True  # a failed task runs no more
                self.fail(exc)
        self._drain_armed = False
        self.runtime.check_quiet()

    def advance(self, sender: _Sender) -> bool:
        """Carry out ``sender``'s plan in order.  Returns False when a
        step must wait — no credit, a full local queue, a writer above
        its high-water mark — after registering the sender's wake-up
        with what it waits on; the step and the rest stay planned."""
        plan = sender.plan
        metrics = self.runtime.metrics
        while plan:
            target, payload = plan[0]
            if target.__class__ is int:
                gate = self.gates[target]
                if not gate.take():
                    if sender.stalled_at is None:
                        sender.stalled_at = time.monotonic()
                    gate.when_granted(sender.wake)
                    return False
                if sender.stalled_at is not None:
                    stalled = time.monotonic() - sender.stalled_at
                    metrics.add_credit_stall(sender.stall_key, stalled)
                    sender.stalled_at = None
                plan.popleft()
                conn = self.peers[target]
                self.posted += 1
                if conn.post_row(*payload) and conn.writing_paused:
                    conn.when_writable(sender.wake)
                    return False
            else:
                queue = target.inqueue
                if not queue.push(payload):
                    queue.when_room(sender.wake)
                    return False
                plan.popleft()
                metrics.note_queue_depth(target.depth_key, queue.level)
                self.ready(target)
        return True

    # ------------------------------------------------------------------
    # emission / routing
    # ------------------------------------------------------------------
    def route(self, tup: StreamTuple, executor: RtExecutorBase) -> None:
        """Plan one emitted tuple through every downstream edge: its
        local enqueues and peer sends join the emitter's plan, in order,
        for :meth:`advance` (the emitter counts the emit)."""
        runtime = self.runtime
        metrics = runtime.metrics
        placement = runtime.placement
        machine_of = placement.machine_of
        plan = executor.plan
        wire = tuple_to_wire(tup)
        for dst in self._downstream[executor.operator]:
            grouping = self.grouping_for(executor, dst)
            chosen = grouping.choose(tup, placement.tasks_of[dst])
            ack_to = None
            if grouping.one_to_many:
                if metrics.in_window:
                    metrics.multicast.register(tup.tuple_id, chosen, self.clock.now)
                    metrics.completion.register(tup.tuple_id, chosen, tup.created_at)
                if executor.is_spout and self.acker is not None:
                    self.acker.register(wire, chosen)
                    ack_to = self.machine_id
                # every task: the local ones, the rest down the relay tree
                local = self._colocated[dst]
                if local:
                    self._plan_local(plan, tup, local, ack_to)
                self._relay_rows(plan, dst, ack_to, self.machine_id, wire)
                continue
            by_machine: Dict[int, List[int]] = {}
            for task in chosen:
                by_machine.setdefault(machine_of[task], []).append(task)
            local = by_machine.pop(self.machine_id, None)
            if local:
                self._plan_local(plan, tup, local, ack_to)
            # Worker-oriented batching: one row per machine.
            header = ("data", dst, ack_to)
            for machine, tasks in sorted(by_machine.items()):
                plan.append((machine, (header, tasks, wire)))

    def replay(self, plan: deque, wire: List[Any], tasks: Sequence[int]) -> None:
        """Plan a selective retransmission to just the unacked
        destinations (a root may span several edges, so its rows address
        tasks only)."""
        placement = self.runtime.placement
        by_machine: Dict[int, List[int]] = {}
        for task in tasks:
            by_machine.setdefault(placement.machine_of[task], []).append(task)
        local = by_machine.pop(self.machine_id, None)
        if local:
            self._plan_local(plan, tuple_from_wire(wire), local, self.machine_id)
        for machine, machine_tasks in sorted(by_machine.items()):
            plan.append((machine, (("data", None, self.machine_id), machine_tasks, wire)))

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
        self.posted += len(acks)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _plan_local(self, plan: deque, tup: StreamTuple, tasks: Sequence[int],
                    ack_to: Optional[int]) -> None:
        """Plan one enqueue of the one tuple object per local task (after
        the dedup guard when replays are possible), with one tracker
        update for the whole group."""
        tuple_id = tup.tuple_id
        if self.config.reliability_enabled:
            seen = self._seen
            tasks = [task for task in tasks if tuple_id not in seen[task]]
            if not tasks:
                return
            for task in tasks:
                seen[task].add(tuple_id)
        self.runtime.metrics.multicast.reached(tuple_id, tasks, self.clock.now)
        item = (tup, ack_to)
        executors = self.executors
        plan.extend([(executors[task], item) for task in tasks])

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def _accept(self, conn: FramedConnection) -> None:
        self.inbound.append(conn)
        self._receive(conn, None)

    def _receive(self, conn: FramedConnection, gate: Optional[CreditGate]) -> None:
        """Handle ``conn``'s reads (``gate`` takes an outbound
        connection's credits)."""
        self.senders.append(_Receiver(self, conn, gate))
        conn.on_lost = self._lost

    def _lost(self, error: Optional[Exception]) -> None:
        """A connection ended; its error (a corrupt frame, an unknown
        type, a malformed run) fails the run as a bolt's does."""
        if error is not None:
            self.fail(error)

    def fail(self, error: Exception) -> None:
        """Record this host's first error and fail the run with it."""
        self.error = self.error or error
        self.runtime.fail(error)

    def _relay_rows(self, plan: deque, dst: str, ack_to: Optional[int],
                    src: int, wire: Sequence[Any]) -> None:
        """Whale's relay tree: one ``relay`` row to each of this machine's
        children in the ``(dst, src)`` tree (built on first use)."""
        children = self._relay_children.get((dst, src))
        if children is None:
            tree = relay_tree(self.config.multicast, self.runtime.placement.machines_hosting(dst),
                              src, self.config.d_star)
            children = self._relay_children[(dst, src)] = tree[self.machine_id]
        header = ("relay", dst, ack_to, src)
        for child in children:
            plan.append((child, (header, None, wire)))

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Work still pending on this host: a runnable bolt, acks not yet
        posted, a queued input or planned step, a parked receiver, or a
        root the acker still tracks."""
        if self._runnable or self._acks:
            return True
        if any(ex.inqueue.level or ex.plan for ex in self.executors.values()):
            return True
        if any(isinstance(s, _Receiver) and s.parked for s in self.senders):
            return True
        return self.acker is not None and bool(self.acker.pending)
