"""The multicast controller (Sections 3.3, 3.4 and 4).

One controller watches one multicast service (one one-to-many edge).  It
periodically samples the source's transfer queue and input rate; when the
waterline rules fire it derives a new ``d*`` from the M/D/1 model and
performs *dynamic switching*:

1. pause the source's multicast output (Theorem 4's premise: output rate
   drops to zero during the switch);
2. multicast a ``StatusMessage`` to every endpoint, then send
   ``ControlMessages`` to the endpoints that must disconnect/re-connect
   (real control traffic on the wire, so Figs. 27/28 account for it);
3. wait for ACKs (modelled as the configured switching delay + the
   control round-trips already simulated);
4. install the rewired tree and resume the source.

Every switch is recorded as a :class:`SwitchRecord` so experiments can
report switching delay and frequency (Figs. 23/24).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.core.monitor import FailureDetector, QueueMonitor, StreamMonitor
from repro.dsps.worker import HeartbeatAck, HeartbeatPing
from repro.multicast import (
    binomial_out_degree,
    max_out_degree,
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
        #: guards the service's pause: adaptive switches and failure
        #: repairs are serialized, never interleaved.
        self._switching = False
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
        """One dynamic switch to ``new_d_star``; ``then()`` when done."""
        if self._switching:
            then()  # a repair/restore holds the pause; skip this round
            return
        self._switching = True
        service = self.service
        start = self.sim.now
        old_d_star = service.d_star
        self._pause()
        new_tree, plan = plan_switch(service.tree, new_d_star)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "switch.begin",
                self.sim.now,
                src_task=service.src_task,
                direction=direction,
                old_d_star=old_d_star,
                new_d_star=new_d_star,
                n_ops=plan.n_ops,
            )

        def install() -> None:
            service.apply_tree(new_tree)
            service.d_star = new_d_star
            if tracer is not None:
                # Audit log: every applied RewireOp, stamped at the
                # instant the rewired tree is installed.
                for op in plan.ops:
                    tracer.emit(
                        "switch.rewire",
                        self.sim.now,
                        src_task=service.src_task,
                        direction=direction,
                        node=op.node,
                        old_parent=op.old_parent,
                        new_parent=op.new_parent,
                    )
            self._resume()
            if tracer is not None:
                tracer.emit(
                    "switch.end",
                    self.sim.now,
                    src_task=service.src_task,
                    direction=direction,
                    new_d_star=new_d_star,
                    duration_s=self.sim.now - start,
                )
            self.history.append(
                SwitchRecord(
                    time=start,
                    direction=direction,
                    old_d_star=old_d_star,
                    new_d_star=new_d_star,
                    n_ops=plan.n_ops,
                    duration_s=self.sim.now - start,
                )
            )
            self._switching = False
            then()

        def ack_round() -> None:
            # ACK round + channel re-establishment.
            self.sim.schedule_call(SWITCH_DELAY_S, install)

        # StatusMessage to every endpoint machine, then ControlMessages
        # to the endpoints that rewire.
        status = StatusMessage(direction=direction, new_d_star=new_d_star)
        self._broadcast_status(
            status, set(), lambda: self._send_plan_ops(plan, set(), ack_round)
        )

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
        victims = [
            ep
            for ep in service.endpoints_on_machine(machine)
            if ep in service.tree
        ]
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "fault.suspect",
                self.sim.now,
                machine=machine,
                src_task=service.src_task,
                n_endpoints=len(victims),
            )
        self.system.transport.set_degraded(machine, True)
        self._rewire("repair", machine, victims, service.detach_endpoint,
                     {machine}, then)

    def _restore(self, machine: int) -> None:
        """Reattach a recovered machine's endpoints and lift the TCP
        degraded mode."""
        service = self.service
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "fault.restore",
                self.sim.now,
                machine=machine,
                src_task=service.src_task,
            )
        self.system.transport.set_degraded(machine, False)
        victims = [
            ep
            for ep in service.endpoints_on_machine(machine)
            if ep not in service.tree
        ]
        self._rewire("reattach", machine, victims, service.reattach_endpoint,
                     set(), lambda: None)

    def _rewire(self, action: str, machine: int, victims, edit, skip: set,
                then) -> None:
        """Once no switch holds the pause: pause the source, announce
        ``action``, wait the switching delay, then ``edit`` each victim
        endpoint out of (or back into) the tree and send its plan's
        ControlMessages."""
        if not victims:
            then()
            return
        if self._switching:
            self.sim.schedule_call(
                HEARTBEAT_PERIOD_S,
                lambda: self._rewire(action, machine, victims, edit, skip,
                                     then),
            )
            return
        self._switching = True
        service = self.service
        start = self.sim.now
        self._pause()
        n_ops = 0

        def rewire_one(ep, k) -> None:
            nonlocal n_ops
            plan = edit(ep)
            if plan is None:
                k()
                return
            n_ops += plan.n_ops
            self._send_plan_ops(plan, skip, k)

        def done() -> None:
            self._resume()
            self._switching = False
            self.repairs.append(
                RepairRecord(
                    time=start,
                    action=action,
                    machine=machine,
                    n_endpoints=len(victims),
                    n_ops=n_ops,
                    duration_s=self.sim.now - start,
                )
            )
            then()

        def rewire_all() -> None:
            each(victims, rewire_one, done)

        status = StatusMessage(direction=action, new_d_star=service.d_star)
        self._broadcast_status(
            status,
            skip,
            lambda: self.sim.schedule_call(SWITCH_DELAY_S, rewire_all),
        )

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

    def _send_plan_ops(self, plan, skip: set, then) -> None:
        """ControlMessages to the endpoints each rewire op touches."""
        service = self.service
        suspected = self._suspected()
        posts = []
        for msg in plan.control_messages():
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
