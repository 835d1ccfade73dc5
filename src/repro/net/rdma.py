"""The transport: RDMA verbs through per-machine RNICs, or the kernel TCP route.

Whale uses two verb families (Section 4):

* **two-sided send/recv** — for control messages (tree rewiring), where
  the receiver cannot know data addresses in advance;
* **one-sided read** — for the multicast data path, where the ring memory
  region gives destinations sequential access to data addresses, so reads
  stay pipelined and the *data sender* pays almost no CPU.

Storm's kernel TCP path is the third route: full kernel-stack CPU on both
sides, straight onto the wire.  A TCP system (no data verb) sends every
message on it; an RDMA system falls back to it for suspected peers.

Each route has one :class:`MessageProfile` (sender CPU and its category,
receiver CPU, whether the RNIC applies); see
:class:`repro.net.costs.CostModel` for calibration notes.  Every verb
traverses the RNIC work-request queue and holds a ring memory region
until the fabric consumes the message.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional

from repro.net import cpu as cpu_categories
from repro.net.costs import CostModel
from repro.net.cpu import CpuAccount
from repro.net.fabric import Fabric
from repro.net.message import WireMessage
from repro.net.rnic import Rnic

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Verb(enum.Enum):
    """RDMA operation kinds."""

    SEND = "send"  # two-sided send/recv
    WRITE = "write"  # one-sided write
    READ = "read"  # one-sided read (receiver-initiated, ring-prefetched)


class MessageProfile(NamedTuple):
    """What one message costs on its route."""

    #: the route's name (``net.post``'s ``verb`` field)
    label: str
    sender_cpu_s: float
    #: CPU category the sender's cost is charged to
    category: str
    receiver_cpu_s: float
    #: posted through the RNIC work-request queue, holding a ring region
    #: (the kernel route goes straight onto the wire)
    rnic: bool


def message_profile(costs: CostModel, verb: Optional[Verb]) -> MessageProfile:
    """The effective per-message costs of ``verb`` in Whale's pipeline;
    ``None`` is the kernel TCP route."""
    if verb is None:
        return MessageProfile("tcp", costs.tcp_send_cpu_s, cpu_categories.NETWORK,
                              costs.tcp_recv_cpu_s, False)
    sender, receiver = {
        Verb.SEND: (costs.rdma_post_cpu_s + costs.rdma_send_credit_cpu_s,
                    costs.rdma_twosided_recv_cpu_s),
        Verb.WRITE: (costs.rdma_post_cpu_s, costs.rdma_write_poll_cpu_s),
        Verb.READ: (costs.rdma_read_sender_cpu_s, costs.rdma_read_receiver_cpu_s),
    }[verb]
    return MessageProfile(verb.value, sender, cpu_categories.RDMA_POST,
                          receiver, True)


def transport_verb(transport: str, data_verb: Verb) -> Optional[Verb]:
    """The verb a ``transport`` system sends data with: ``None`` for TCP,
    which posts no verbs."""
    return {"tcp": None, "rdma": data_verb}[transport]


class RdmaTransport:
    """Machine-to-machine messages, each on one route.

    Parameters
    ----------
    data_verb:
        Verb used for data messages.  ``Verb.SEND`` models RDMA-based
        Storm (naive two-sided replacement of TCP); ``Verb.READ`` models
        Whale's optimized primitives ("Whale_DiffVerbs").  Control
        messages use two-sided SEND, because control receivers cannot
        learn addresses from the ring.  ``None`` is a TCP system: every
        message, loopback and control included, takes the kernel route.
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: Fabric,
        costs: CostModel,
        data_verb: Optional[Verb] = Verb.SEND,
        ring_capacity_bytes: int = 8 * 1024 * 1024,
    ):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs
        self.data_verb = data_verb
        self.rnics: Dict[int, Rnic] = {
            m.machine_id: Rnic(
                sim,
                m.machine_id,
                fabric,
                costs,
                ring_capacity_bytes=ring_capacity_bytes,
            )
            for m in fabric.cluster
        }
        self._profiles: Dict[Optional[Verb], MessageProfile] = {
            v: message_profile(costs, v) for v in (None, *Verb)
        }
        kernel = self._profiles[None]
        if data_verb is None:
            self.name = "tcp"
            self._data = self._control = self._fallback = kernel
        else:
            self.name = "rdma"
            self._data = self._profiles[data_verb]
            self._control = self._profiles[Verb.SEND]
            self._fallback = kernel._replace(label="tcp-fallback")
        #: machines currently reached via the TCP degraded path.
        self._degraded: set = set()

    # ------------------------------------------------------------------
    def profile(self, verb: Optional[Verb]) -> MessageProfile:
        return self._profiles[verb]

    # ------------------------------------------------------------------
    # degraded mode (failure suspicion) + crash handling
    # ------------------------------------------------------------------
    def set_degraded(self, machine_id: int, degraded: bool) -> None:
        """Toggle the RDMA->TCP fallback for one peer.

        While a peer is suspected its RDMA channel state (queue pairs,
        ring addresses) cannot be trusted, so traffic to it falls back to
        the kernel TCP path: full kernel send/recv CPU, no ring memory
        region, no RNIC work-request pipeline.  Reverted on recovery.  A
        TCP system records suspicion the same way; its route is the
        kernel one either way.
        """
        if degraded:
            self._degraded.add(machine_id)
        else:
            self._degraded.discard(machine_id)

    def is_degraded(self, machine_id: int) -> bool:
        return machine_id in self._degraded

    def on_machine_crash(self, machine_id: int) -> None:
        """Reset the crashed machine's RNIC (WR queue + ring)."""
        self.rnics[machine_id].reset()

    def send(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
        then: Optional[Callable[[], None]] = None,
        n_messages: int = 1,
    ) -> None:
        """Send one message: charge its route's sender CPU to ``cpu``,
        then put it on the wire (kernel route, loopback) or post a WR
        (ring region + RNIC), and run ``then()`` (if given) — the sending
        thread's continuation — once the wire or the RNIC has it.  A
        payload that coalesces ``n_messages`` messages costs the receiver
        the route's receive CPU once per message.

        Applies ring-memory-region backpressure: while the ring is full
        the continuation waits until a region is recycled — the RDMA
        analogue of a full transfer queue.
        """
        route = self._route(src_machine, dst_machine, kind)
        cpu.spend(
            route.sender_cpu_s,
            route.category,
            lambda: self._launch(
                src_machine, dst_machine, payload, size_bytes, kind, route,
                then, route.receiver_cpu_s * n_messages,
            ),
        )

    def _route(self, src_machine: int, dst_machine: int, kind: str) -> MessageProfile:
        """The profile of one message.  Traffic to or from a suspected
        peer takes the TCP fallback."""
        if src_machine != dst_machine and (
            dst_machine in self._degraded or src_machine in self._degraded
        ):
            return self._fallback
        return self._data if kind == "data" else self._control

    def _launch(
        self, src_machine: int, dst_machine: int, payload: Any,
        size_bytes: int, kind: str, route: MessageProfile,
        then: Optional[Callable[[], None]], recv_cpu_s: float,
    ) -> None:
        """Trace and build one message whose sender CPU is paid, then
        hand it to the fabric (kernel route, loopback) or to ring + RNIC."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.post",
                self.sim.now,
                transport=self.name,
                verb=route.label,
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
        if not route.rnic or src_machine == dst_machine:
            self.fabric.send(msg)
            if then is not None:
                then()
            return
        rnic = self.rnics[src_machine]
        if size_bytes > 0:
            rnic.ring.alloc(size_bytes, lambda: rnic.post(msg, then))
        else:
            rnic.post(msg, then)
