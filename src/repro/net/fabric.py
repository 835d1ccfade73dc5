"""Link fabric: per-machine NIC egress ports over a shared parameter set.

Each machine has one :class:`NicPort` per fabric (one Ethernet, one
InfiniBand in the standard setup).  A port serializes outgoing messages at
link bandwidth — this is what makes a 1 Gbps NIC an honest bottleneck —
and then the message propagates for the base latency (+ rack-hop latency)
before being handed to the destination machine's bound receiver.

Ingress contention is intentionally not modelled: in all of the paper's
experiments the bottleneck is sender-side (upstream CPU or egress), and
the evaluation's receivers are many and lightly loaded.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.net.cluster import Cluster
from repro.net.message import WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

Receiver = Callable[[WireMessage], None]

# FIFO entry of an arithmetic link server: [start, done, msg, live].
# ``live`` goes False when the entry is cancelled (crash drop); its
# completion timeout then fires into a no-op.
_START, _DONE, _MSG, _LIVE = 0, 1, 2, 3


class NicPort:
    """One egress port: a FIFO at ``bandwidth_bps`` that hands each
    transmitted message to ``forward`` — a machine's NIC on a fabric, or
    a rack's shared uplink.

    The port is an *arithmetic* FIFO server: because transmission times
    are a pure function of message size, each message's start/done
    instants are computed at enqueue (``start = max(now, busy_until)``)
    and exactly one completion timeout is scheduled — there is no drain
    process and no per-message queue hand-off event.  The head entry with
    ``start <= now`` is in transmission; like the old drain loop's
    in-flight message it completes and propagates even if the machine
    crashes mid-transmission (the sender NIC had already committed the
    wire time).  Rack uplinks are never paused: the core switch does not
    crash in our fault model.
    """

    def __init__(
        self, sim: "Simulator", fabric: "Fabric", bandwidth_bps: float,
        forward: Receiver,
    ):
        self.sim = sim
        self.fabric = fabric
        self.bandwidth_bps = bandwidth_bps
        self._forward = forward
        self._fifo: Deque[list] = deque()
        self._busy_until = sim.now
        self.bytes_sent = 0
        self._paused = False

    def enqueue(self, msg: WireMessage) -> None:
        """Hand a message to the NIC (non-blocking for the caller)."""
        if self._paused:
            # Crashed: the NIC eats anything handed to it.
            self.fabric._drop_dead(msg, "crash_egress")
            return
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if start < now:
            start = now
        done = start + msg.size_bytes * 8.0 / self.bandwidth_bps
        self._busy_until = done
        entry = [start, done, msg, True]
        self._fifo.append(entry)
        sim.schedule_call(done - now, lambda: self._complete(entry))

    def pause(self) -> list:
        """Crash: drop the queued backlog (returned); the in-transmission
        head, if any, still completes ("the wire already has it")."""
        self._paused = True
        now = self.sim.now
        fifo = self._fifo
        zombie = None
        if fifo and fifo[0][_START] <= now:
            zombie = fifo.popleft()
        dropped = []
        while fifo:
            entry = fifo.popleft()
            entry[_LIVE] = False
            dropped.append(entry[_MSG])
        if zombie is not None:
            fifo.append(zombie)
            self._busy_until = zombie[_DONE]
        else:
            self._busy_until = now
        return dropped

    def resume(self) -> None:
        """Recover.  Messages enqueued during the outage were already
        dropped dead at enqueue, so there is never a stale backlog."""
        self._paused = False

    @property
    def paused(self) -> bool:
        return self._paused

    def _complete(self, entry: list) -> None:
        if not entry[_LIVE]:
            return
        # Completions fire in FIFO order and cancelled entries left the
        # deque at pause time, so a live completion is always the head.
        self._fifo.popleft()
        msg = entry[_MSG]
        self.bytes_sent += msg.size_bytes
        self._forward(msg)


class Fabric:
    """A homogeneous network fabric connecting all machines of a cluster."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: Cluster,
        bandwidth_bps: float,
        base_latency_s: float,
        rack_hop_latency_s: float = 0.0,
        name: str = "fabric",
        loss_probability: float = 0.0,
        loss_seed: int = 0,
        rack_uplink_bandwidth_bps: Optional[float] = None,
    ):
        """``loss_probability`` drops that fraction of messages in flight
        (fault injection; lost messages count in ``messages_lost``).
        ``rack_uplink_bandwidth_bps`` adds per-rack uplink ports that
        cross-rack traffic must additionally traverse (oversubscription);
        ``None`` models a non-blocking core (the default)."""
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        if base_latency_s < 0:
            raise ValueError(f"negative latency: {base_latency_s}")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        if rack_uplink_bandwidth_bps is not None and rack_uplink_bandwidth_bps <= 0:
            raise ValueError("uplink bandwidth must be positive")
        self.sim = sim
        self.cluster = cluster
        self.bandwidth_bps = bandwidth_bps
        self.base_latency_s = base_latency_s
        self.rack_hop_latency_s = rack_hop_latency_s
        self.name = name
        self.loss_probability = loss_probability
        self.messages_lost = 0
        self._loss_rng = None
        if loss_probability > 0.0:
            import numpy as np

            self._loss_rng = np.random.default_rng(loss_seed)
        self.ports: Dict[int, NicPort] = {
            m.machine_id: NicPort(sim, self, bandwidth_bps, self._propagate)
            for m in cluster
        }
        self.uplinks: Dict[int, NicPort] = {}
        if rack_uplink_bandwidth_bps is not None:
            self.uplinks = {
                rack: NicPort(
                    sim, self, rack_uplink_bandwidth_bps, self._schedule_delivery
                )
                for rack in range(cluster.n_racks)
            }
        self._receivers: Dict[int, Receiver] = {}
        self.bytes_by_kind: Dict[str, int] = defaultdict(int)
        #: messages handed to :meth:`send`; every one ends up delivered,
        #: dead, or lost (or is still in flight) — the conservation
        #: inequality checked by ``repro.check``.
        self.messages_injected = 0
        self.messages_delivered = 0
        #: messages that could not be delivered (crashed/unbound receiver,
        #: downed link, crashed sender NIC) — the dead-letter counter.
        self.messages_dead = 0
        self._machine_down: set = set()
        self._links_down: set = set()  # frozenset({a, b}) per downed link

    # ------------------------------------------------------------------
    def bind(self, machine_id: int, receiver: Receiver) -> None:
        """Register the delivery callback for ``machine_id``."""
        if machine_id in self._receivers:
            raise ValueError(
                f"machine {machine_id} already bound on fabric {self.name!r}"
            )
        self._receivers[machine_id] = receiver

    def send(self, msg: WireMessage) -> None:
        """Inject ``msg`` at its source machine's egress port."""
        self.messages_injected += 1
        if msg.src_machine == msg.dst_machine:
            # Loopback: no NIC, no wire; deliver at the current instant.
            # Delivery is synchronous (receivers only enqueue/schedule, so
            # re-entrancy is safe) — no trip through the event queue.
            self._deliver(msg)
            return
        self.ports[msg.src_machine].enqueue(msg)

    def latency(self, src: int, dst: int) -> float:
        """One-way propagation latency between two machines."""
        hops = self.cluster.rack_hops(src, dst)
        return self.base_latency_s + hops * self.rack_hop_latency_s

    # ------------------------------------------------------------------
    # fault state (driven by the FaultInjector / DspsSystem)
    # ------------------------------------------------------------------
    def machine_is_up(self, machine_id: int) -> bool:
        return machine_id not in self._machine_down

    def set_machine_up(self, machine_id: int, up: bool) -> None:
        """Crash (``up=False``) or recover a machine's fabric presence.

        A crashed machine's NIC stops draining its egress (the queued
        backlog is dropped dead), and deliveries addressed to it vanish.
        """
        port = self.ports[machine_id]
        if not up:
            self._machine_down.add(machine_id)
            for msg in port.pause():
                self._drop_dead(msg, "crash_egress")
        else:
            self._machine_down.discard(machine_id)
            port.resume()

    def set_link_up(self, a: int, b: int, up: bool) -> None:
        """Flap the (undirected) link between two machines."""
        if a == b:
            raise ValueError("a machine has no link to itself")
        key = frozenset((a, b))
        if up:
            self._links_down.discard(key)
        else:
            self._links_down.add(key)

    def _drop_dead(self, msg: WireMessage, reason: str) -> None:
        """Count one undeliverable message and recycle its resources."""
        self.messages_dead += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.dead",
                self.sim.now,
                fabric=self.name,
                src=msg.src_machine,
                dst=msg.dst_machine,
                msg_kind=msg.kind,
                bytes=msg.size_bytes,
                reason=reason,
            )
        if msg.on_delivered is not None:
            # Ring regions must be recycled even for dead letters.
            msg.on_delivered(msg)
            msg.on_delivered = None

    # ------------------------------------------------------------------
    def _propagate(self, msg: WireMessage) -> None:
        if self._loss_rng is not None and (
            self._loss_rng.random() < self.loss_probability
        ):
            # Fault injection: the message vanishes in flight (but the
            # sender's NIC already spent the transmission — as on a real
            # lossy link).
            self.messages_lost += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "net.lost",
                    self.sim.now,
                    fabric=self.name,
                    src=msg.src_machine,
                    dst=msg.dst_machine,
                    bytes=msg.size_bytes,
                )
            if msg.on_delivered is not None:
                # Ring regions must still be recycled: the sender-side
                # buffer was consumed regardless of delivery.
                msg.on_delivered(msg)
                msg.on_delivered = None
            return
        if frozenset((msg.src_machine, msg.dst_machine)) in self._links_down:
            # Link flap: the message falls off a dead link.
            self._drop_dead(msg, "link_down")
            return
        # Oversubscribed core: cross-rack traffic transits the source
        # rack's uplink before propagating.
        if self.uplinks and self.cluster.rack_hops(
            msg.src_machine, msg.dst_machine
        ):
            self.uplinks[self.cluster[msg.src_machine].rack].enqueue(msg)
            return
        self._schedule_delivery(msg)

    def _schedule_delivery(self, msg: WireMessage) -> None:
        delay = self.latency(msg.src_machine, msg.dst_machine)
        self.sim.schedule_call(delay, lambda: self._deliver(msg))

    def _deliver(self, msg: WireMessage) -> None:
        if msg.dst_machine in self._machine_down:
            # The destination crashed while the message was in flight.
            self._drop_dead(msg, "machine_down")
            return
        receiver = self._receivers.get(msg.dst_machine)
        if receiver is None:
            # A dead letter, not a simulator bug: fault runs legitimately
            # deliver to machines whose receiver never bound (or unbound).
            self._drop_dead(msg, "unbound")
            return
        self.bytes_by_kind[msg.kind] += msg.size_bytes
        self.messages_delivered += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.deliver",
                self.sim.now,
                fabric=self.name,
                src=msg.src_machine,
                dst=msg.dst_machine,
                msg_kind=msg.kind,
                bytes=msg.size_bytes,
            )
        if msg.on_delivered is not None:
            msg.on_delivered(msg)
        receiver(msg)
