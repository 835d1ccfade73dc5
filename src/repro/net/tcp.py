"""TCP/IP transport over the Ethernet fabric.

Every message costs the sender a full kernel network-stack traversal
(syscall, data copies, protocol processing) and the receiver likewise —
the "packet processing with multi-layer network protocol" CPU slice that
dominates the upstream instance in the paper's Fig. 2d.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net import cpu as cpu_categories
from repro.net.costs import CostModel
from repro.net.cpu import CpuAccount
from repro.net.fabric import Fabric
from repro.net.message import WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class TcpTransport:
    """Instance-level transport API over a TCP/Ethernet fabric."""

    name = "tcp"

    def __init__(self, sim: "Simulator", fabric: Fabric, costs: CostModel):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs

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
    def send(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
        verb: Any = None,
        then: Optional[Callable[[], None]] = None,
        n_messages: int = 1,
    ) -> None:
        """Send one message: charge the kernel send path to ``cpu``, put
        the message on the wire once it is paid, then run ``then()`` (if
        given) — the sending thread's continuation.  The wire transfer
        proceeds asynchronously.  A payload that coalesces ``n_messages``
        messages costs the receiver one kernel receive each.  ``verb`` is
        accepted for parity with :class:`~repro.net.rdma.RdmaTransport`
        and ignored."""
        cpu.spend(
            self.costs.tcp_send_cpu_s,
            cpu_categories.NETWORK,
            lambda: self._launch(
                src_machine, dst_machine, payload, size_bytes, kind, then,
                self.costs.tcp_recv_cpu_s * n_messages,
            ),
        )

    def _launch(
        self, src_machine: int, dst_machine: int, payload: Any,
        size_bytes: int, kind: str, then: Optional[Callable[[], None]],
        recv_cpu_s: float,
    ) -> None:
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
            recv_cpu_s=recv_cpu_s,
        )
        self.fabric.send(msg)
        if then is not None:
            then()
