"""Worker processes: one per machine, hosting task threads.

The worker is the machine's fabric receiver and runs its **receive
thread**: take a wire message, pay the receive CPU (kernel TCP path or
RDMA completion), then deliver its packets — deserialization, local
dispatch to executor incoming-queues, and (for multicast packets)
relaying to cascading endpoints all run on this thread, exactly like the
"specialized receiving thread" + dispatcher of Section 4.

The thread is a chain of scheduled callbacks: one calendar entry at the
end of a message's receive (+ deserialize) CPU starts its dispatch and
relay, and the thread takes the next message when the relay's sends are
done; messages arriving meanwhile wait in a FIFO backlog.  The thread
holds one message at a time, so it walks a sliced packet group by index:
each packet is dispatched and relayed in the calendar entry at the end
of its own deserialization.

A delivered packet is one unit of work: :meth:`Worker.dispatch` hands
its tuple to every local destination task in one call, and to lazy
(batched-dispatch) sinks one cohort at a time
(:class:`~repro.dsps.executor.LazyCohort`).  The worker also keeps the
cohorts' drain timers, one calendar entry per instant however many
cohorts fall due then.

Control-plane packets (``kind="control"``) are fanned out to registered
handlers (the multicast controller, the replay coordinator).  Heartbeat
pings are answered by the worker itself, so liveness reflects the
machine, not any single component.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence,
)

from repro.dsps.tuples import StreamTuple
from repro.net import cpu as cats
from repro.net.cpu import CpuAccount
from repro.net.message import WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.executor import BoltExecutor, LazyCohort
    from repro.dsps.system import DspsSystem


@dataclass(frozen=True)
class HeartbeatPing:
    """Liveness probe from a failure detector to a worker machine."""

    reply_to: int
    seq: int


@dataclass(frozen=True)
class HeartbeatAck:
    """A worker's reply to a :class:`HeartbeatPing`."""

    machine: int
    seq: int


class Worker:
    """One worker process on one machine."""

    def __init__(self, system: "DspsSystem", machine_id: int):
        self.system = system
        self.sim = system.sim
        self.machine_id = machine_id
        self.cpu = CpuAccount(self.sim, f"worker[{machine_id}]")
        #: messages delivered while the receive thread was busy
        self.backlog: Deque[WireMessage] = deque()
        #: True while the receive thread holds a message (or before start)
        self._busy = True
        #: the message the thread holds and, for a sliced group, its
        #: packets and the index of the current one
        self._msg: Optional[WireMessage] = None
        self._packets: Sequence = ()
        self._index = 0
        system.fabric.bind(machine_id, self._on_message)
        #: local task id -> executor (filled by the system during build).
        self.executors: Dict[int, "BoltExecutor"] = {}
        #: handlers for control-plane packets (controller, acker, ...);
        #: every handler sees every control payload and filters by type.
        self._control_handlers: List[Callable] = []
        #: True while this machine is crashed.
        self.crashed = False
        self.messages_received = 0
        self.dispatched = 0
        self.heartbeats_answered = 0
        #: lazy cohorts (batched terminal sinks) hosted here, realised by
        #: this worker's one flush hook
        self._cohorts: List["LazyCohort"] = []
        #: drain instant -> cohorts due then (one calendar entry)
        self._drains: Dict[float, List["LazyCohort"]] = {}

    def start(self) -> None:
        self._take_messages()

    # ------------------------------------------------------------------
    def add_control_handler(self, handler: Callable) -> None:
        """Register a control-plane payload handler."""
        self._control_handlers.append(handler)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Machine crash: everything buffered in this process is lost."""
        self.crashed = True
        self.backlog.clear()
        for cohort in self._cohorts:
            cohort.halt()

    def on_recover(self) -> None:
        self.crashed = False

    # ------------------------------------------------------------------
    def dispatch(self, tup: StreamTuple, tasks: Sequence[int]) -> None:
        """Hand one delivered packet's tuple to its local destination
        tasks (distinct tasks of one operator): one ``worker.dispatch``
        record and one multicast-tracker update for the packet.  Dispatch
        CPU is summed in task order from the account's total (the float
        of one charge per copy); lazy sinks take the packet per (carved)
        cohort."""
        executors = self.executors
        try:
            lead = executors[tasks[0]]
            if lead._mode is None:
                lead.choose_mode()
            cohort = lead.cohort
            whole = cohort is not None and tasks == cohort.tasks
            hosted = (cohort.members if whole
                      else [executors[task] for task in tasks])
        except KeyError as missing:
            raise LookupError(f"task {missing} is not hosted on machine "
                              f"{self.machine_id}") from None
        busy = self.cpu.busy_s
        spent = busy[cats.DISPATCH]
        cost = self.system.costs.dispatch_cpu_s
        for _ in tasks:
            spent += cost
        busy[cats.DISPATCH] = spent
        now = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("worker.dispatch", now, id=tup.tuple_id,
                        tasks=list(tasks), machine=self.machine_id)
        if whole:
            cohort.accept(tup, hosted)
        elif cohort is not None:
            touched: Dict["LazyCohort", List["BoltExecutor"]] = {}
            for executor in hosted:
                touched.setdefault(executor.cohort, []).append(executor)
            for cohort, members in touched.items():
                cohort.carve(members).accept(tup, members)
        else:
            flow = self.system.flow
            for executor in hosted:
                executor.accept(tup)
                if flow is not None:
                    # Return the sender's credit reservation for this copy.
                    flow.on_dispatch(executor)
        self.dispatched += len(tasks)
        self.system.metrics.multicast.reached(tup.tuple_id, tasks, now)

    # ------------------------------------------------------------------
    # drain timers of lazy cohorts (batched terminal sinks)
    # ------------------------------------------------------------------
    def add_cohort(self, cohort: "LazyCohort") -> None:
        """Host a lazy cohort: this worker's flush hook (one per worker)
        realises its completions at window boundaries."""
        if not self._cohorts:
            self.system.metrics.add_flush_hook(self._flush_lazy)
        self._cohorts.append(cohort)

    def _flush_lazy(self) -> None:
        now = self.sim.now
        start, end = self.system.metrics.window_bounds()
        for cohort in self._cohorts:
            cohort.flush(now, start, end)

    def arm_drain(self, cohort: "LazyCohort", at: float) -> None:
        """Realise ``cohort``'s completions at ``at`` (its busy-until
        instant), so the calendar never runs dry while lazy work is
        logically pending.  Cohorts due at the same instant share one
        calendar entry."""
        cohort.armed_at = at
        due = self._drains.get(at)
        if due is None:
            self._drains[at] = [cohort]
            self.sim.schedule_call(at - self.sim.now, lambda: self._drain(at))
        else:
            due.append(cohort)

    def _drain(self, at: float) -> None:
        now = self.sim.now
        start, end = self.system.metrics.window_bounds()
        for cohort in self._drains.pop(at):
            cohort.armed_at = None
            cohort.flush(now, start, end)
            if cohort.fifo:
                # Still busy: the next drain is due when it goes idle.
                self.arm_drain(cohort, cohort.busy_until)

    # ------------------------------------------------------------------
    # the receive thread
    # ------------------------------------------------------------------
    def _on_message(self, msg: WireMessage) -> None:
        self.backlog.append(msg)
        if not self._busy:
            self._take_messages()

    def _take_messages(self) -> None:
        """Run the thread until the backlog is empty: each message is
        taken once the previous one is done.  A take waits like the
        working thread's."""
        self._busy = True
        backlog, sim = self.backlog, self.sim
        while backlog:
            msg = backlog.popleft()
            if sim.peek() <= sim.now:
                self._msg = msg
                sim.schedule_call(0.0, self._taken)
                return
            if not self._receive(msg):
                return
        self._busy = False

    def _taken(self) -> None:
        if self._receive(self._msg):
            self._take_messages()

    def _receive(self, msg: WireMessage) -> bool:
        """Receive one message.  True when it was done at once;
        otherwise the thread goes on from the entry where it is."""
        if self.crashed:
            return True  # it raced the crash and dies here
        self.messages_received += 1
        cpu = self.cpu
        payload = msg.payload
        recv = msg.recv_cpu_s
        if recv > 0:
            cpu.charge(recv, cats.NETWORK)
        if msg.kind == "control":
            if recv > 0:
                self._msg = msg
                self.sim.schedule_call(recv, self._control_received)
                return False
            self._control(payload)
            return True
        if (deser := getattr(payload, "deserialize_cpu_s", None)) is None:
            # PacketGroup (sliced WR): its packets charge their
            # deserialization one by one.
            self._packets, self._index = payload.packets, 0
            if recv > 0:
                self.sim.schedule_call(recv, self._received)
                return False
            return self._unpack()
        # Fused receive + deserialize: two CPU categories, one wait.
        if deser > 0:
            cpu.charge(deser, cats.DESERIALIZATION)
        wait = recv + deser
        if wait > 0:
            self._msg = msg
            self.sim.schedule_call(wait, self._fused)
            return False
        return self._arrive(payload, self._take_messages)

    def _fused(self) -> None:
        """A lone packet is received and deserialized: dispatch and
        relay it."""
        if self._arrive(self._msg.payload, self._take_messages):
            self._take_messages()

    def _control_received(self) -> None:
        self._control(self._msg.payload)
        self._take_messages()

    def _unpack(self) -> bool:
        """Deserialize the current group's packets from ``_index`` on,
        one after another; each is dispatched and relayed in the entry
        at the end of its deserialization.  True when the rest of the
        group was done at once."""
        packets = self._packets
        busy = self.cpu.busy_s
        while self._index < len(packets):
            packet = packets[self._index]
            deser = packet.deserialize_cpu_s
            busy[cats.DESERIALIZATION] += deser
            if deser > 0:
                self.sim.schedule_call(deser, self._deserialized)
                return False
            if self.crashed:
                return True  # the rest of the group dies here
            if not self._arrive(packet, self._relayed):
                return False
            self._index += 1
        return True

    def _received(self) -> None:
        """Go on with the current group's packets."""
        if self._unpack():
            self._take_messages()

    def _deserialized(self) -> None:
        """The group's current packet is deserialized: dispatch and relay
        it.  On a machine that crashed meanwhile the rest of the group
        dies here, as a message does that arrives after the crash."""
        if self.crashed:
            self._take_messages()
        elif self._arrive(self._packets[self._index], self._relayed):
            self._relayed()

    def _relayed(self) -> None:
        """The current packet is done: go on with the group's next."""
        self._index += 1
        if self._unpack():
            self._take_messages()

    def _arrive(self, packet, then: Callable[[], None]) -> bool:
        """Dispatch a deserialized packet, then relay it, if relayed.
        True when the relay's sends were done at once; otherwise
        ``then()`` runs from the entry where the last one is."""
        self.dispatch(packet.tuple, packet.dst_tasks)
        if packet.relay is None:
            return True
        service, endpoint = packet.relay
        return service.relay_from(self, endpoint, packet.tuple, then)

    def deliver(self, packet, then: Callable[[], None]) -> None:
        """Deserialize, dispatch and relay a packet sent from this
        machine (on the sender's thread), then run ``then()``."""

        def arrived() -> None:
            if self._arrive(packet, then):
                then()

        self.cpu.spend(packet.deserialize_cpu_s, cats.DESERIALIZATION, arrived)

    def _control(self, payload) -> None:
        if isinstance(payload, HeartbeatPing):
            self._answer_heartbeat(payload)
        else:
            for handler in self._control_handlers:
                handler(payload)

    def _answer_heartbeat(self, ping: HeartbeatPing) -> None:
        if self.crashed:
            return
        self.heartbeats_answered += 1
        self.system.control_post(
            self.machine_id,
            ping.reply_to,
            HeartbeatAck(machine=self.machine_id, seq=ping.seq),
            self.cpu,
        )
