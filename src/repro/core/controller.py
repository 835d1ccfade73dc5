"""The multicast controller (Sections 3.3, 3.4 and 4).

One controller watches one multicast service (one one-to-many edge).  It
periodically samples the source's transfer queue and input rate; when the
waterline rules fire it derives a new ``d*`` from the M/D/1 model and
performs *dynamic switching*.  With failure detection on, it also
heartbeats the endpoint machines, repairs a suspected machine's
endpoints out of the tree and reattaches them once it answers again.

Every tree change -- switch, repair, reattach -- is one round in
Section 3.4's order:

1. pause the source's multicast output (Theorem 4's premise: output rate
   drops to zero during the switch);
2. multicast a ``StatusMessage`` to every endpoint, then send
   ``ControlMessages`` to the endpoints that must disconnect/re-connect
   (real control traffic on the wire, so Figs. 27/28 account for it);
3. wait for ACKs (modelled as the configured switching delay + the
   control round-trips already simulated);
4. install the new tree (:meth:`MulticastService.install`) and resume
   the source.

Rounds never interleave.  A repair or reattach that meets a running
round waits in a FIFO and starts the instant that round ends; a switch
that meets one is skipped.  Every switch is recorded as a
:class:`SwitchRecord` and every repair or reattach as a
:class:`RepairRecord`, so experiments can report switching delay and
frequency (Figs. 23/24).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List

from repro.core.monitor import FailureDetector, QueueMonitor, StreamMonitor
from repro.dsps.worker import HeartbeatAck, HeartbeatPing
from repro.multicast import (
    binomial_out_degree,
    max_out_degree,
    plan_reattach,
    plan_repair,
    plan_switch,
)
from repro.net.cpu import CpuAccount
from repro.sim.engine import each

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.comm import MulticastService
    from repro.dsps.system import DspsSystem

#: Section 3.3's waterline rules: scale down when one interval's growth
#: is at least ``T_DOWN`` of the headroom left below l_w; scale up (below
#: l_w) when one interval's drain is at least ``T_UP`` of the previous
#: length.
T_DOWN = 0.4
T_UP = 0.5
#: EMA weight of the input-rate estimate lambda(t) (Section 4)
ALPHA = 0.6
#: simulated one-way controller->instances switching delay budget
SWITCH_DELAY_S = 0.002
#: failure detection: heartbeat ping period, and the silence span after
#: which an endpoint machine is suspected
HEARTBEAT_PERIOD_S = 0.02
SUSPICION_TIMEOUT_S = 0.06


@dataclass(frozen=True)
class SwitchRecord:
    """One completed dynamic switch."""

    time: float
    direction: str  # "scale_down" | "scale_up"
    old_d_star: int
    new_d_star: int
    n_ops: int
    duration_s: float


@dataclass(frozen=True)
class RepairRecord:
    """One completed tree repair or endpoint reattachment."""

    time: float
    action: str  # "repair" | "reattach"
    machine: int
    n_endpoints: int
    n_ops: int
    duration_s: float


@dataclass(frozen=True)
class StatusMessage:
    """Broadcast to all endpoints announcing a switching phase."""

    direction: str
    new_d_star: int


class MulticastController:
    """Self-adjusting mechanism for one multicast service."""

    def __init__(self, system: "DspsSystem", service: "MulticastService"):
        self.system = system
        self.service = service
        self.sim = system.sim
        cfg = system.config
        self.config = cfg
        self.source = system.executors[service.src_task]
        self.queue_monitor = QueueMonitor(
            self.source.transfer_queue,
            warning_waterline=cfg.warning_waterline,
            t_down=T_DOWN,
            t_up=T_UP,
        )
        self.stream_monitor = StreamMonitor(alpha=ALPHA)
        self.cpu = CpuAccount(self.sim, f"controller[{service.src_task}]")
        self.history: List[SwitchRecord] = []
        self.repairs: List[RepairRecord] = []
        self.detector: "FailureDetector | None" = None
        #: the running round first, then the repair and reattach rounds
        #: waiting for it: rounds never interleave.
        self._rounds: Deque[tuple] = deque()
        self._running = False
        self._heartbeat_seq = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("controller already started")
        self._running = True
        if self.config.adaptive and self.config.multicast == "nonblocking":
            self.sim.call_soon(self._loop)
        if self.config.failure_detection:
            self.system.workers[self.service.src_machine].add_control_handler(
                self._on_control
            )
            self.sim.call_soon(self._start_heartbeats)

    @property
    def d_star(self) -> int:
        return self.service.d_star

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        """Wait one monitor interval (a background wait), then
        :meth:`_sample`."""
        self.sim.schedule_background(self.config.monitor_interval_s, self._sample)

    def _sample(self) -> None:
        cfg = self.config
        lam = self.stream_monitor.observe(
            self.source.emitted, cfg.monitor_interval_s
        )
        decision = self.queue_monitor.sample()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "monitor.sample",
                self.sim.now,
                src_task=self.service.src_task,
                lam=lam,
                action=decision.action,
                queue_len=decision.queue_length,
                delta=decision.delta,
            )
        te = self.source.te_estimate
        if te is None or lam <= 0 or decision.action == "hold":
            self._loop()
            return
        target = self._target_d_star(lam, te)
        if tracer is not None:
            tracer.emit(
                "controller.dstar",
                self.sim.now,
                src_task=self.service.src_task,
                lam=lam,
                te=te,
                target=target,
                current=self.service.d_star,
            )
        if (
            decision.action == "scale_down" and target < self.service.d_star
        ) or (decision.action == "scale_up" and target > self.service.d_star):
            self._switch(decision.action, target, self._loop)
        else:
            self._loop()

    def _target_d_star(self, lam: float, te: float) -> int:
        d = max_out_degree(lam, te, self.config.transfer_queue_capacity)
        # More out-degree than a binomial tree needs is useless.
        cap = binomial_out_degree(max(1, len(self.service.endpoints)))
        return max(1, min(d, cap))

    # ------------------------------------------------------------------
    def _pause(self) -> None:
        """Hold the source's multicast output (Theorem 4's premise:
        output rate drops to zero until the structure settles)."""
        self.service.paused_until = []

    def _resume(self) -> None:
        """Release every send held since :meth:`_pause`, in one entry
        due now."""
        waiting = self.service.paused_until
        self.service.paused_until = None

        def release() -> None:
            for send in waiting:
                send()

        self.sim.schedule_call(0.0, release)

    def _switch(self, direction: str, new_d_star: int, then) -> None:
        """One dynamic switch to ``new_d_star``; ``then()`` when done.  A
        switch that meets a running round is skipped."""
        if self._rounds:
            then()
            return
        self._enqueue(direction, None, new_d_star, then)

    def _enqueue(self, action: str, machine, new_d_star, then) -> None:
        """Run one round now, or the instant the rounds before it end."""
        self._rounds.append((action, machine, new_d_star, then))
        if len(self._rounds) == 1:
            self._round(action, machine, new_d_star, then)

    def _round(self, action: str, machine, new_d_star, then) -> None:
        """One Section 3.4 round: pause the source, multicast a
        StatusMessage, send the plan's ControlMessages, wait for the
        ACKs, install the new tree, resume and record.  A dynamic switch
        (``machine`` None) plans the tree for ``new_d_star``; a repair or
        reattach plans each endpoint of ``machine`` still in (or out of)
        the tree when the round starts, and ends at once if there is
        none."""
        service = self.service
        start = self.sim.now
        old_d_star = service.d_star
        if machine is None:
            tree, plan = plan_switch(service.tree, new_d_star)
            plans = [(None, plan)]
        else:
            new_d_star = old_d_star
            edit = plan_repair if action == "repair" else plan_reattach
            tree, plans = service.tree, []
            for ep in service.endpoints_on_machine(machine):
                if (ep in service.tree) == (action == "repair"):
                    tree, plan = edit(tree, ep, new_d_star)
                    plans.append((ep, plan))
            if not plans:
                self._end_round(then)
                return
        n_ops = sum(plan.n_ops for _, plan in plans)
        self._pause()
        tracer = self.sim.tracer
        if tracer is not None and machine is None:
            tracer.emit(
                "switch.begin",
                self.sim.now,
                src_task=service.src_task,
                direction=action,
                old_d_star=old_d_star,
                new_d_star=new_d_star,
                n_ops=n_ops,
            )
        # A repaired machine hears nothing of its own excision.
        skip = {machine} if action == "repair" else set()

        def install() -> None:
            service.install(tree, action, plans)
            self._resume()
            duration_s = self.sim.now - start
            if machine is None:
                if tracer is not None:
                    tracer.emit(
                        "switch.end",
                        self.sim.now,
                        src_task=service.src_task,
                        direction=action,
                        new_d_star=new_d_star,
                        duration_s=duration_s,
                    )
                self.history.append(SwitchRecord(
                    start, action, old_d_star, new_d_star, n_ops, duration_s))
            else:
                self.repairs.append(RepairRecord(
                    start, action, machine, len(plans), n_ops, duration_s))
            self._end_round(then)

        def ack_wait() -> None:
            # ACK round + channel re-establishment.
            self.sim.schedule_call(SWITCH_DELAY_S, install)

        status = StatusMessage(direction=action, new_d_star=new_d_star)
        self._broadcast_status(
            status, skip, lambda: self._send_plan_ops(plans, skip, ack_wait)
        )

    def _end_round(self, then) -> None:
        """``then()``, then start the next waiting round, if any."""
        then()
        self._rounds.popleft()
        if self._rounds:
            self._round(*self._rounds[0])

    # ------------------------------------------------------------------
    # failure detection + tree self-healing
    # ------------------------------------------------------------------
    def _endpoint_machines(self) -> List[int]:
        service = self.service
        return sorted(
            {service.machine_of(ep) for ep in service.endpoints}
            - {service.src_machine}
        )

    def _start_heartbeats(self) -> None:
        self.detector = FailureDetector(
            lambda: self.sim.now,
            self._endpoint_machines(),
            SUSPICION_TIMEOUT_S,
        )
        self._heartbeat_wait()

    def _heartbeat_wait(self) -> None:
        self.sim.schedule_background(HEARTBEAT_PERIOD_S, self._heartbeat)

    def _heartbeat(self) -> None:
        """Ping every endpoint machine, then repair the tree around each
        machine that newly became suspected."""
        self._heartbeat_seq += 1
        src = self.service.src_machine
        ping = HeartbeatPing(reply_to=src, seq=self._heartbeat_seq)
        self._post_each(
            [(machine, ping) for machine in self.detector.machines],
            lambda: each(self.detector.sweep(), self._repair,
                         self._heartbeat_wait),
        )

    def _on_control(self, payload) -> None:
        """Control-plane handler on the source machine's worker."""
        if not isinstance(payload, HeartbeatAck):
            return
        if self.detector is None:
            return
        if self.detector.heard_from(payload.machine):
            # First ack after a suspicion: the machine recovered.
            self.sim.call_soon(lambda: self._restore(payload.machine))

    def _repair(self, machine: int, then) -> None:
        """Excise every endpoint of a suspected machine (Section 3.4
        primitives), after degrading its channels to the TCP path."""
        service = self.service
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "fault.suspect",
                self.sim.now,
                machine=machine,
                src_task=service.src_task,
                n_endpoints=sum(
                    ep in service.tree
                    for ep in service.endpoints_on_machine(machine)
                ),
            )
        self.system.transport.set_degraded(machine, True)
        self._enqueue("repair", machine, None, then)

    def _restore(self, machine: int) -> None:
        """Reattach a recovered machine's endpoints and lift the TCP
        degraded mode."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "fault.restore",
                self.sim.now,
                machine=machine,
                src_task=self.service.src_task,
            )
        self.system.transport.set_degraded(machine, False)
        self._enqueue("reattach", machine, None, lambda: None)

    def _suspected(self):
        return self.detector.suspected if self.detector else frozenset()

    def _broadcast_status(self, status: StatusMessage, skip: set,
                          then) -> None:
        """StatusMessage to every reachable endpoint machine."""
        suspected = self._suspected()
        self._post_each(
            [
                (machine, status)
                for machine in self._endpoint_machines()
                if machine not in skip and machine not in suspected
            ],
            then,
        )

    def _send_plan_ops(self, plans, skip: set, then) -> None:
        """ControlMessages to the endpoints each rewire op of each
        ``(endpoint, plan)`` touches."""
        service = self.service
        suspected = self._suspected()
        posts = []
        for msg in (m for _, plan in plans for m in plan.control_messages()):
            node = msg.op.node
            if node not in service.endpoints:
                continue
            machine = service.machine_of(node)
            if (
                machine != service.src_machine
                and machine not in skip
                and machine not in suspected
            ):
                posts.append((machine, msg))
        self._post_each(posts, then)

    def _post_each(self, posts, then) -> None:
        """Send each ``(machine, payload)`` control message in turn from
        the source machine, then ``then()``."""
        src = self.service.src_machine
        post = self.system.control_post
        each(
            posts,
            lambda p, k: post(src, p[0], p[1], self.cpu, then=k),
            then,
        )
