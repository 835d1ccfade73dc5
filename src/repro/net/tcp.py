"""TCP/IP transport over the Ethernet fabric.

Every message costs the sender a full kernel network-stack traversal
(syscall, data copies, protocol processing) and the receiver likewise —
the "packet processing with multi-layer network protocol" CPU slice that
dominates the upstream instance in the paper's Fig. 2d.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator

from repro.net import cpu as cpu_categories
from repro.net.costs import CostModel
from repro.net.cpu import CpuAccount
from repro.net.fabric import Fabric
from repro.net.message import WireMessage
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class TcpTransport:
    """Instance-level transport API over a TCP/Ethernet fabric."""

    name = "tcp"

    def __init__(self, sim: "Simulator", fabric: Fabric, costs: CostModel):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs
        self._inboxes: Dict[int, Store] = {}

    # ------------------------------------------------------------------
    # fault-handling API parity with RdmaTransport
    # ------------------------------------------------------------------
    def set_degraded(self, machine_id: int, degraded: bool) -> None:
        """No-op: TCP *is* the degraded mode the RDMA transport falls
        back to, so suspicion changes nothing on this transport."""

    def is_degraded(self, machine_id: int) -> bool:
        return False

    def on_machine_crash(self, machine_id: int) -> None:
        """No per-machine sender state to reset on the TCP transport."""

    # ------------------------------------------------------------------
    def bind_inbox(self, machine_id: int) -> Store:
        """Create (once) and return the delivery inbox for a machine."""
        inbox = self._inboxes.get(machine_id)
        if inbox is None:
            inbox = Store(self.sim)
            self._inboxes[machine_id] = inbox
            self.fabric.bind(machine_id, inbox.try_put)
        return inbox

    def send(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
    ) -> Iterator:
        """Send one message (generator; charges sender CPU, then returns).

        The caller's thread blocks only for the kernel send path; the wire
        transfer proceeds asynchronously.  Returns the
        :class:`WireMessage` placed on the wire.
        """
        yield from cpu.work(self.costs.tcp_send_cpu_s, cpu_categories.NETWORK)
        return self._launch(src_machine, dst_machine, payload, size_bytes, kind)

    def post(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
    ) -> None:
        """Fire-and-forget :meth:`send`: same costs and instants, no process."""
        cost = self.costs.tcp_send_cpu_s
        cpu.charge(cost, cpu_categories.NETWORK)
        args = (src_machine, dst_machine, payload, size_bytes, kind)
        if cost > 0:
            self.sim.schedule_call(cost, lambda: self._launch(*args))
        else:
            self._launch(*args)

    def _launch(
        self, src_machine: int, dst_machine: int, payload: Any,
        size_bytes: int, kind: str,
    ) -> WireMessage:
        """Trace, build and wire one message whose sender CPU is paid."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.post",
                self.sim.now,
                transport=self.name,
                src=src_machine,
                dst=dst_machine,
                msg_kind=kind,
                bytes=size_bytes,
            )
        msg = WireMessage(
            payload=payload,
            size_bytes=size_bytes,
            src_machine=src_machine,
            dst_machine=dst_machine,
            kind=kind,
            recv_cpu_s=self.costs.tcp_recv_cpu_s,
        )
        self.fabric.send(msg)
        return msg
