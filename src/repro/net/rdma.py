"""RDMA transport: verbs over the InfiniBand fabric through per-machine RNICs.

Whale uses two verb families (Section 4):

* **two-sided send/recv** — for control messages (tree rewiring), where
  the receiver cannot know data addresses in advance;
* **one-sided read** — for the multicast data path, where the ring memory
  region gives destinations sequential access to data addresses, so reads
  stay pipelined and the *data sender* pays almost no CPU.

Each verb has an *effective per-message profile* (sender CPU, receiver
CPU); see :class:`repro.net.costs.CostModel` for calibration notes.  All
verbs traverse the RNIC work-request queue and, when ``use_ring`` is on,
hold a ring memory region until the fabric consumes the message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.net import cpu as cpu_categories
from repro.net.costs import CostModel
from repro.net.cpu import CpuAccount
from repro.net.fabric import Fabric
from repro.net.message import WireMessage
from repro.net.rnic import Rnic, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Verb(enum.Enum):
    """RDMA operation kinds."""

    SEND = "send"  # two-sided send/recv
    WRITE = "write"  # one-sided write
    READ = "read"  # one-sided read (receiver-initiated, ring-prefetched)


@dataclass(frozen=True)
class VerbProfile:
    """Effective per-message CPU costs of a verb in Whale's pipeline."""

    verb: Verb
    sender_cpu_s: float
    receiver_cpu_s: float

    @staticmethod
    def from_costs(costs: CostModel, verb: Verb) -> "VerbProfile":
        if verb is Verb.SEND:
            return VerbProfile(
                verb,
                sender_cpu_s=costs.rdma_post_cpu_s + costs.rdma_send_credit_cpu_s,
                receiver_cpu_s=costs.rdma_twosided_recv_cpu_s,
            )
        if verb is Verb.WRITE:
            return VerbProfile(
                verb,
                sender_cpu_s=costs.rdma_post_cpu_s,
                receiver_cpu_s=costs.rdma_write_poll_cpu_s,
            )
        if verb is Verb.READ:
            return VerbProfile(
                verb,
                sender_cpu_s=costs.rdma_read_sender_cpu_s,
                receiver_cpu_s=costs.rdma_read_receiver_cpu_s,
            )
        raise ValueError(f"unknown verb {verb!r}")


class RdmaTransport:
    """Machine-to-machine RDMA with selectable verbs.

    Parameters
    ----------
    data_verb:
        Verb used for data messages.  ``Verb.SEND`` models RDMA-based
        Storm (naive two-sided replacement of TCP); ``Verb.READ`` models
        Whale's optimized primitives ("Whale_DiffVerbs").  Control
        messages always use two-sided SEND, because control receivers
        cannot learn addresses from the ring.
    """

    name = "rdma"

    def __init__(
        self,
        sim: "Simulator",
        fabric: Fabric,
        costs: CostModel,
        data_verb: Verb = Verb.SEND,
        use_ring: bool = True,
        ring_capacity_bytes: int = 8 * 1024 * 1024,
    ):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs
        self.data_verb = data_verb
        self.use_ring = use_ring
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
        self._profiles: Dict[Verb, VerbProfile] = {
            v: VerbProfile.from_costs(costs, v) for v in Verb
        }
        #: machines currently reached via the TCP degraded path.
        self._degraded: set = set()

    # ------------------------------------------------------------------
    def profile(self, verb: Verb) -> VerbProfile:
        return self._profiles[verb]

    # ------------------------------------------------------------------
    # degraded mode (failure suspicion) + crash handling
    # ------------------------------------------------------------------
    def set_degraded(self, machine_id: int, degraded: bool) -> None:
        """Toggle the RDMA->TCP fallback for one peer.

        While a peer is suspected its RDMA channel state (queue pairs,
        ring addresses) cannot be trusted, so traffic to it falls back to
        the kernel TCP path: full kernel send/recv CPU, no ring memory
        region, no RNIC work-request pipeline.  Reverted on recovery.
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
        verb: Optional[Verb] = None,
        then: Optional[Callable[[], None]] = None,
        n_messages: int = 1,
    ) -> None:
        """Send one message: charge the verb's sender CPU to ``cpu``, then
        post a WR (ring region + RNIC) and run ``then()`` (if given) — the
        sending thread's continuation — once the RNIC admits it.  A
        payload that coalesces ``n_messages`` messages costs the receiver
        the verb's receive CPU once per message.

        Applies ring-memory-region backpressure: while the ring is full
        the continuation waits until a region is recycled — the RDMA
        analogue of a full transfer queue.
        """
        route = self._route(src_machine, dst_machine, kind, verb)
        cpu.spend(
            route[0],
            route[1],
            lambda: self._launch(
                src_machine, dst_machine, payload, size_bytes, kind, route,
                then, route[3] * n_messages,
            ),
        )

    def _route(self, src_machine: int, dst_machine: int, kind: str, verb):
        """``(sender CPU, CPU category, verb label, receiver CPU,
        direct)`` of one message.  Traffic to or from a suspected peer
        takes the TCP fallback: kernel-stack CPU on both sides, straight
        onto the wire (``direct``, like loopback: no ring, no RNIC)."""
        if src_machine != dst_machine and (
            dst_machine in self._degraded or src_machine in self._degraded
        ):
            costs = self.costs
            return (costs.tcp_send_cpu_s, cpu_categories.NETWORK,
                    "tcp-fallback", costs.tcp_recv_cpu_s, True)
        if verb is None:
            verb = self.data_verb if kind == "data" else Verb.SEND
        prof = self._profiles[verb]
        return (prof.sender_cpu_s, cpu_categories.RDMA_POST, verb.value,
                prof.receiver_cpu_s, src_machine == dst_machine)

    def _launch(
        self, src_machine: int, dst_machine: int, payload: Any,
        size_bytes: int, kind: str, route: tuple,
        then: Optional[Callable[[], None]], recv_cpu_s: float,
    ) -> None:
        """Trace and build one message whose sender CPU is paid, then
        hand it to the fabric (direct routes) or to ring + RNIC."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.post",
                self.sim.now,
                transport=self.name,
                verb=route[2],
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
        if route[4]:
            self.fabric.send(msg)
            if then is not None:
                then()
            return
        rnic = self.rnics[src_machine]
        ring_bytes = size_bytes if self.use_ring else 0
        wr = WorkRequest(msg, ring_bytes=ring_bytes)
        if ring_bytes > 0:
            rnic.ring.alloc(ring_bytes, lambda: rnic.post(wr, then))
        else:
            rnic.post(wr, then)
