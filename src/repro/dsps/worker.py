"""Worker processes: one per machine, hosting task threads.

The worker is the machine's fabric receiver and runs its **receive
thread**: take a wire message, pay the receive CPU (kernel TCP path or
RDMA completion), then let the packet deliver itself — deserialization,
local dispatch to executor incoming-queues, and (for multicast packets)
relaying to cascading endpoints all run on this thread, exactly like the
"specialized receiving thread" + dispatcher of Section 4.

The thread is a chain of scheduled callbacks: one calendar entry at the
end of a message's receive (+ deserialize) CPU starts its dispatch and
relay, and the thread takes the next message when the relay's sends are
done; messages arriving meanwhile wait in a FIFO backlog.  A sliced
packet group deserializes its packets one after another, each ending in
its own calendar entry.

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
    TYPE_CHECKING, Callable, Deque, Dict, Iterator, List, Sequence,
)

from repro.dsps.tuples import StreamTuple
from repro.net import cpu as cats
from repro.net.cpu import CpuAccount
from repro.net.message import WireMessage
from repro.sim.engine import each

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
        tasks (distinct tasks of one operator).  Dispatch CPU is summed in
        task order from the account's total (the float of one charge per
        copy); lazy sinks take the packet per (carved) cohort."""
        try:
            hosted = [self.executors[task] for task in tasks]
        except KeyError as missing:
            raise LookupError(f"task {missing} is not hosted on machine "
                              f"{self.machine_id}") from None
        busy = self.cpu.busy_s
        spent = busy[cats.DISPATCH]
        cost = self.system.costs.dispatch_cpu_s
        for _ in hosted:
            spent += cost
        busy[cats.DISPATCH] = spent
        lead = hosted[0]
        if lead._mode is None:
            lead.choose_mode()
        cohort = lead.cohort
        if cohort is not None and tasks == cohort.tasks:
            cohort.accept(tup, hosted)
        elif cohort is not None:
            touched: Dict["LazyCohort", List["BoltExecutor"]] = {}
            for executor in hosted:
                touched.setdefault(executor.cohort, []).append(executor)
            for cohort, members in touched.items():
                cohort.carve(members).accept(tup, members)
        else:
            tracer = self.sim.tracer
            flow = self.system.flow
            for executor in hosted:
                if tracer is not None:
                    tracer.emit(
                        "worker.dispatch",
                        self.sim.now,
                        id=tup.tuple_id,
                        task=executor.task_id,
                        machine=self.machine_id,
                    )
                executor.accept(tup)
                if flow is not None:
                    # Return the sender's credit reservation for this copy.
                    flow.on_dispatch(executor)
        self.dispatched += len(tasks)
        self.system.metrics.multicast.on_receive(tup.tuple_id, tasks)

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
        taken once the previous one is done."""
        self._busy = True
        each(self._backlog(), self._take, self._go_idle)

    def _backlog(self) -> Iterator[WireMessage]:
        while self.backlog:
            yield self.backlog.popleft()

    def _go_idle(self) -> None:
        self._busy = False

    def _take(self, msg: WireMessage, then: Callable[[], None]) -> None:
        """A take waits like the working thread's."""
        if self.sim.peek() <= self.sim.now:
            self.sim.schedule_call(0.0, lambda: self._receive(msg, then))
        else:
            self._receive(msg, then)

    def _receive(self, msg: WireMessage, then: Callable[[], None]) -> None:
        """Receive one message, then run ``then()``."""
        if self.crashed:
            then()  # it raced the crash and dies here
            return
        self.messages_received += 1
        cpu = self.cpu
        payload = msg.payload
        recv = msg.recv_cpu_s
        if recv > 0:
            cpu.charge(recv, cats.NETWORK)
        if msg.kind == "control":
            wait = recv

            def finish() -> None:
                self._control(payload)
                then()
        elif (deser := getattr(payload, "deserialize_cpu_s", None)) is None:
            # PacketGroup (sliced WR): its packets charge their
            # deserialization one by one.
            wait = recv

            def finish() -> None:
                each(payload.packets, self.deliver, then)
        else:
            # Fused receive + deserialize: two CPU categories, one wait.
            if deser > 0:
                cpu.charge(deser, cats.DESERIALIZATION)
            wait = recv + deser

            def finish() -> None:
                payload.arrive(self, then)
        if wait > 0:
            self.sim.schedule_call(wait, finish)
        else:
            finish()

    def deliver(self, packet, then: Callable[[], None]) -> None:
        """Deserialize, dispatch and relay one packet on this worker's
        thread, then run ``then()``."""
        self.cpu.spend(
            packet.deserialize_cpu_s,
            cats.DESERIALIZATION,
            lambda: packet.arrive(self, then),
        )

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
