"""Communication modes: how an emitted tuple crosses the cluster.

Three mechanisms, matching the paper's design space:

* **Instance-oriented** (Storm, RDMA-based Storm): the data item is
  serialized once *per destination instance* and sent as an independent
  message.  (As a pure event-count optimization, messages of one emit
  bound for the same machine are coalesced into one wire packet whose
  size/CPU equal the sum of the individual messages — the economics are
  bit-identical to sending them back to back.)
* **Worker-oriented** (Whale, Section 3.5): destinations are grouped by
  worker; the data item is serialized once per *worker* into a
  ``BatchTuple`` whose header carries the destination task ids; the
  receiving worker's dispatcher fans it out locally.
* **Relay multicast** (Section 3.2): a :class:`MulticastService` holds a
  multicast tree over *endpoints* (workers, or instances for the RDMC
  baseline); the source sends only to the root's children and each
  endpoint's worker relays the already-serialized bytes onward.

Stream slicing (MMS/WTL, Section 4) wraps the RDMA data path when
enabled: serialized messages to the same machine are buffered and posted
as a single work request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.multicast import (
    MulticastTree,
    SOURCE,
    build_binomial_tree,
    build_nonblocking_tree,
    build_sequential_tree,
    plan_reattach,
    plan_repair,
)
from repro.net import cpu as cats
from repro.net.slicing import StreamSlicer
from repro.dsps.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.executor import Executor
    from repro.dsps.system import DspsSystem
    from repro.dsps.worker import Worker


# ----------------------------------------------------------------------
# outbound envelope (what sits in an executor's transfer queue)
# ----------------------------------------------------------------------
@dataclass
class Envelope:
    """One emitted tuple plus its routing decision."""

    tuple: StreamTuple
    dst_operator: str
    dst_tasks: List[int]
    #: True when this envelope came from a one-to-many (all) grouping.
    one_to_many: bool = False
    #: True for a selective replay (exactly-once point repair): deliver
    #: only to ``dst_tasks``, bypassing the multicast tree.
    selective: bool = False


# ----------------------------------------------------------------------
# wire packet payloads
# ----------------------------------------------------------------------
def deliver_packet(packet, worker: "Worker") -> Iterator:
    """Deserialize, dispatch and relay one packet on ``worker``'s thread."""
    yield from worker.cpu.work(packet.deserialize_cpu_s, cats.DESERIALIZATION)
    relay = packet.arrive(worker)
    if relay is not None:
        yield from relay


@dataclass
class InstancePacket:
    """Coalesced instance-oriented messages for one machine: one
    independently-serialized single-destination message per task in
    ``dst_tasks``, all carrying the same tuple."""

    tuple: StreamTuple
    dst_tasks: List[int]
    deserialize_cpu_s: float  # total for all messages

    def arrive(self, worker: "Worker") -> None:
        """Dispatch the deserialized packet; nothing to relay."""
        worker.dispatch(self.tuple, self.dst_tasks)


@dataclass
class WorkerPacket:
    """One Whale WorkerMessage: data item serialized once + dstIds."""

    tuple: StreamTuple
    dst_tasks: List[int]
    deserialize_cpu_s: float
    #: relay coordinates: (service, endpoint id) when part of a multicast.
    relay: Optional[Tuple["MulticastService", Any]] = None

    def arrive(self, worker: "Worker") -> Optional[Iterator]:
        """Dispatch the deserialized packet; returns its relay, if any."""
        worker.dispatch(self.tuple, self.dst_tasks)
        if self.relay is None:
            return None
        service, endpoint = self.relay
        return service.relay_from(worker, endpoint, self.tuple)


@dataclass
class PacketGroup:
    """Several packets delivered in one sliced work request."""

    packets: List[Any]

    def deliver(self, worker: "Worker") -> Iterator:
        for packet in self.packets:
            yield from deliver_packet(packet, worker)


# ----------------------------------------------------------------------
# multicast service
# ----------------------------------------------------------------------
class MulticastService:
    """Shared relay state for one one-to-many edge (src task -> operator).

    Endpoints are ``("w", machine_id)`` for worker-level trees (Whale) or
    ``("t", task_id)`` for instance-level trees (the RDMC baseline without
    worker-oriented communication).
    """

    def __init__(
        self,
        system: "DspsSystem",
        src_task: int,
        dst_operator: str,
        structure: str,
        d_star: int,
        worker_level: bool,
    ):
        self.system = system
        self.src_task = src_task
        self.dst_operator = dst_operator
        self.structure = structure
        self.d_star = d_star
        self.worker_level = worker_level
        placement = system.placement
        dst_tasks = placement.tasks_of[dst_operator]
        src_machine = placement.machine_of[src_task]
        self._tasks_of_endpoint: Dict[Any, List[int]] = {}
        self._machine_of_endpoint: Dict[Any, int] = {}
        if worker_level:
            for machine in placement.machines_hosting(dst_operator):
                ep = ("w", machine)
                self._tasks_of_endpoint[ep] = placement.colocated_tasks(
                    dst_operator, machine
                )
                self._machine_of_endpoint[ep] = machine
        else:
            for task in dst_tasks:
                ep = ("t", task)
                self._tasks_of_endpoint[ep] = [task]
                self._machine_of_endpoint[ep] = placement.machine_of[task]
        self.src_machine = src_machine
        self.tree = self._build(list(self._tasks_of_endpoint))
        #: event set while a dynamic switch is in progress (source pauses).
        self.paused_until = None  # type: Optional[Any]
        self.switch_count = 0
        #: endpoints excised from the tree because their machine is
        #: suspected/crashed; restored on recovery.
        self._detached: set = set()
        self.repair_count = 0
        self.reattach_count = 0

    # ------------------------------------------------------------------
    def _build(self, endpoints: Sequence[Any]) -> MulticastTree:
        if self.structure == "sequential":
            return build_sequential_tree(endpoints)
        if self.structure == "binomial":
            return build_binomial_tree(endpoints)
        if self.structure == "nonblocking":
            return build_nonblocking_tree(endpoints, d_star=self.d_star)
        raise ValueError(f"unknown structure {self.structure!r}")

    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> List[Any]:
        return list(self._tasks_of_endpoint)

    @property
    def active_endpoints(self) -> List[Any]:
        """Endpoints currently wired into the tree (not detached)."""
        return [
            ep for ep in self._tasks_of_endpoint if ep not in self._detached
        ]

    def endpoints_on_machine(self, machine_id: int) -> List[Any]:
        return [
            ep
            for ep, m in self._machine_of_endpoint.items()
            if m == machine_id
        ]

    def tasks_of(self, endpoint: Any) -> List[int]:
        return self._tasks_of_endpoint[endpoint]

    def machine_of(self, endpoint: Any) -> int:
        return self._machine_of_endpoint[endpoint]

    def root_children(self) -> List[Any]:
        return self.tree.children(SOURCE)

    def source_out_degree(self) -> int:
        return self.tree.out_degree(SOURCE)

    # ------------------------------------------------------------------
    def send_from_source(
        self, executor: "Executor", tup: StreamTuple
    ) -> Iterator:
        """Source side: transmit ``tup`` to the root's direct children."""
        if self.paused_until is not None and not self.paused_until.processed:
            # Dynamic switching in progress: output rate drops to zero
            # until the structure settles (Theorem 4's premise).
            yield self.paused_until
        comm = self.system.comm
        for child in self.tree.children(SOURCE):
            yield from comm.send_to_endpoint(
                executor.cpu,
                self.src_machine,
                self,
                child,
                tup,
                serialize=True,
            )

    def relay_from(
        self, worker: "Worker", endpoint: Any, tup: StreamTuple
    ) -> Iterator:
        """Relay side: forward already-serialized bytes to children."""
        if endpoint not in self.tree:
            # Stale in-flight packet: the endpoint was repaired out of
            # the tree while this message was on the wire.  Local
            # dispatch already happened; nothing left to relay.
            return
        comm = self.system.comm
        for child in self.tree.children(endpoint):
            yield from comm.send_to_endpoint(
                worker.cpu,
                self.machine_of(endpoint),
                self,
                child,
                tup,
                serialize=False,
            )

    # ------------------------------------------------------------------
    def apply_tree(self, new_tree: MulticastTree) -> None:
        """Install a rewired tree (same endpoint set)."""
        if sorted(map(repr, new_tree.destinations())) != sorted(
            map(repr, self.tree.destinations())
        ):
            raise ValueError("rewired tree changes the endpoint set")
        self.tree = new_tree
        self.switch_count += 1

    # ------------------------------------------------------------------
    # failure repair (tree self-healing)
    # ------------------------------------------------------------------
    def detach_endpoint(self, endpoint: Any):
        """Excise a failed endpoint, reattaching its orphaned subtrees.

        Returns the :class:`~repro.multicast.SwitchPlan` applied, or
        ``None`` when the endpoint was already detached.  Each applied
        rewire is traced as ``switch.repair``.
        """
        if endpoint not in self._tasks_of_endpoint:
            raise ValueError(f"unknown endpoint {endpoint!r}")
        if endpoint in self._detached or endpoint not in self.tree:
            return None
        new_tree, plan = plan_repair(self.tree, endpoint, self.d_star)
        self.tree = new_tree
        self._detached.add(endpoint)
        self.repair_count += 1
        self._trace_repair(plan, endpoint)
        return plan

    def reattach_endpoint(self, endpoint: Any):
        """Re-admit a recovered endpoint as a leaf; returns the plan
        applied, or ``None`` when the endpoint was never detached."""
        if endpoint not in self._tasks_of_endpoint:
            raise ValueError(f"unknown endpoint {endpoint!r}")
        if endpoint not in self._detached:
            return None
        new_tree, plan = plan_reattach(self.tree, endpoint, self.d_star)
        self.tree = new_tree
        self._detached.discard(endpoint)
        self.reattach_count += 1
        self._trace_repair(plan, endpoint)
        return plan

    def _trace_repair(self, plan, endpoint: Any) -> None:
        tracer = self.system.sim.tracer
        if tracer is None:
            return
        now = self.system.sim.now
        for op in plan.ops:
            tracer.emit(
                "switch.repair",
                now,
                direction=plan.status,
                endpoint=endpoint,
                node=op.node,
                old_parent=op.old_parent,
                new_parent=op.new_parent,
                src_task=self.src_task,
                dst_operator=self.dst_operator,
            )
        if not plan.ops:
            # A leaf failure detaches with zero rewires; still record it.
            tracer.emit(
                "switch.repair",
                now,
                direction=plan.status,
                endpoint=endpoint,
                node=endpoint,
                old_parent=None,
                new_parent=None,
                src_task=self.src_task,
                dst_operator=self.dst_operator,
            )


# ----------------------------------------------------------------------
# the communication engine
# ----------------------------------------------------------------------
class CommEngine:
    """Implements the configured communication mode for a system."""

    def __init__(self, system: "DspsSystem"):
        self.system = system
        self.config = system.config
        self.costs = system.costs
        self.ser = system.serialization
        # (src executor id, dst machine) -> slicer, when slicing is on.
        self._slicers: Dict[Tuple[int, int], StreamSlicer] = {}

    def _trace_serialize(
        self, src_machine: int, dst_machine: int, nbytes: int,
        cpu_s: float, n_messages: int = 1,
    ) -> None:
        tracer = self.system.sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.serialize",
                self.system.sim.now,
                src=src_machine,
                dst=dst_machine,
                bytes=nbytes,
                cpu_s=cpu_s,
                n_messages=n_messages,
            )

    # ------------------------------------------------------------------
    # top-level send (called by the executor's send thread)
    # ------------------------------------------------------------------
    def send(self, executor: "Executor", env: Envelope) -> Iterator:
        """Transmit one envelope.  Returns the number of direct
        transmissions the source performed (its effective out-degree)."""
        service = self.system.multicast_service(executor.task_id, env.dst_operator)
        if env.one_to_many and service is not None and not env.selective:
            yield from service.send_from_source(executor, env.tuple)
            return service.source_out_degree()
        if self.config.worker_oriented:
            n = yield from self._send_worker_oriented(executor, env)
        else:
            n = yield from self._send_instance_oriented(executor, env)
        return n

    # ------------------------------------------------------------------
    def _send_instance_oriented(
        self, executor: "Executor", env: Envelope
    ) -> Iterator:
        placement = self.system.placement
        src_machine = executor.machine_id
        by_machine: Dict[int, List[int]] = {}
        for task in env.dst_tasks:
            by_machine.setdefault(placement.machine_of[task], []).append(task)
        sends = 0
        for machine, tasks in sorted(by_machine.items()):
            if machine == src_machine:
                # Intra-worker transfer: no serialization, no network.
                yield from executor.cpu.work(
                    self.costs.dispatch_cpu_s * len(tasks), cats.DISPATCH
                )
                self.system.workers[machine].dispatch(env.tuple, tasks)
                continue
            # One serialization + one network send *per destination task*.
            n = len(tasks)
            msg_bytes = self.ser.instance_message_bytes(env.tuple.payload_bytes)
            serialize_cpu = n * self.costs.serialize_time(msg_bytes)
            yield from executor.cpu.work(serialize_cpu, cats.SERIALIZATION)
            self._trace_serialize(src_machine, machine, n * msg_bytes, serialize_cpu, n)
            packet = InstancePacket(
                tuple=env.tuple,
                dst_tasks=tasks,
                deserialize_cpu_s=n * self.costs.deserialize_time(msg_bytes),
            )
            yield from self._transmit(
                executor.cpu,
                src_machine,
                machine,
                packet,
                size_bytes=n * msg_bytes,
                n_messages=n,
            )
            sends += n
        return sends

    # ------------------------------------------------------------------
    def _send_worker_oriented(
        self, executor: "Executor", env: Envelope
    ) -> Iterator:
        placement = self.system.placement
        src_machine = executor.machine_id
        by_machine: Dict[int, List[int]] = {}
        for task in env.dst_tasks:
            by_machine.setdefault(placement.machine_of[task], []).append(task)
        sends = 0
        for machine, tasks in sorted(by_machine.items()):
            if machine == src_machine:
                yield from executor.cpu.work(
                    self.costs.dispatch_cpu_s * len(tasks), cats.DISPATCH
                )
                self.system.workers[machine].dispatch(env.tuple, tasks)
                continue
            yield from self._send_batch(
                executor.cpu, src_machine, machine, env.tuple, tasks,
                serialize=True, relay=None,
            )
            sends += 1
        return sends

    def _send_batch(
        self,
        cpu_account,
        src_machine: int,
        dst_machine: int,
        tup: StreamTuple,
        tasks: List[int],
        serialize: bool,
        relay: Optional[Tuple[MulticastService, Any]],
    ) -> Iterator:
        """Serialize (optionally) and transmit one BatchTuple."""
        msg_bytes = self.ser.batch_message_bytes(tup.payload_bytes, len(tasks))
        if serialize:
            serialize_cpu = self.ser.serialize_batch_message(
                tup.payload_bytes, len(tasks)
            )
            yield from cpu_account.work(serialize_cpu, cats.SERIALIZATION)
            self._trace_serialize(src_machine, dst_machine, msg_bytes, serialize_cpu)
        packet = WorkerPacket(
            tuple=tup,
            dst_tasks=list(tasks),
            deserialize_cpu_s=self.costs.deserialize_time(msg_bytes),
            relay=relay,
        )
        yield from self._transmit(
            cpu_account, src_machine, dst_machine, packet,
            size_bytes=msg_bytes, n_messages=1,
        )

    # ------------------------------------------------------------------
    # multicast endpoint send (source or relay)
    # ------------------------------------------------------------------
    def send_to_endpoint(
        self,
        cpu_account,
        src_machine: int,
        service: MulticastService,
        endpoint: Any,
        tup: StreamTuple,
        serialize: bool,
    ) -> Iterator:
        dst_machine = service.machine_of(endpoint)
        tasks = service.tasks_of(endpoint)
        if self.config.worker_oriented:
            yield from self._send_batch(
                cpu_account, src_machine, dst_machine, tup, tasks,
                serialize=serialize, relay=(service, endpoint),
            )
        else:
            # Instance-level tree (RDMC baseline): single-destination
            # message; serialization per message when not relaying.
            msg_bytes = self.ser.instance_message_bytes(tup.payload_bytes)
            if serialize:
                serialize_cpu = self.costs.serialize_time(msg_bytes)
                yield from cpu_account.work(serialize_cpu, cats.SERIALIZATION)
                self._trace_serialize(
                    src_machine, dst_machine, msg_bytes, serialize_cpu
                )
            packet = WorkerPacket(
                tuple=tup,
                dst_tasks=list(tasks),
                deserialize_cpu_s=self.costs.deserialize_time(msg_bytes),
                relay=(service, endpoint),
            )
            yield from self._transmit(
                cpu_account, src_machine, dst_machine, packet,
                size_bytes=msg_bytes, n_messages=1,
            )

    # ------------------------------------------------------------------
    # transport shim (+ optional slicing)
    # ------------------------------------------------------------------
    def _transmit(
        self,
        cpu_account,
        src_machine: int,
        dst_machine: int,
        packet: Any,
        size_bytes: int,
        n_messages: int,
    ) -> Iterator:
        if src_machine == dst_machine:
            # Same machine: hand straight to the local worker.
            yield from deliver_packet(packet, self.system.workers[dst_machine])
            return
        transport = self.system.transport
        if self.config.slicing and self.config.transport == "rdma":
            self._slice(cpu_account, src_machine, dst_machine, packet, size_bytes)
            return
        if self.config.transport == "tcp":
            # The kernel path runs once per message even when coalesced.
            yield from cpu_account.work(
                self.costs.tcp_send_cpu_s * (n_messages - 1), cats.NETWORK
            )
            yield from transport.send(
                src_machine, dst_machine, packet, size_bytes, cpu_account
            )
        else:
            prof = transport.profile(transport.data_verb)
            yield from cpu_account.work(
                prof.sender_cpu_s * (n_messages - 1), cats.RDMA_POST
            )
            yield from transport.send(
                src_machine, dst_machine, packet, size_bytes, cpu_account
            )

    def _slice(
        self, cpu_account, src_machine: int, dst_machine: int,
        packet: Any, size_bytes: int,
    ) -> None:
        key = (src_machine, dst_machine)
        slicer = self._slicers.get(key)
        if slicer is None:
            slicer = StreamSlicer(
                self.system.sim,
                mms_bytes=self.config.costs.mms_bytes,
                wtl_s=self.config.costs.wtl_s,
                on_flush=lambda items, nbytes, k=key: self._flush(k, items, nbytes),
            )
            self._slicers[key] = slicer
        # The per-tuple recv-side cost rides inside the packet; the WR post
        # cost is paid once per flush (charged to the flusher below).
        slicer.add((packet, cpu_account), size_bytes)

    def _flush(self, key: Tuple[int, int], items: List[Any], nbytes: int) -> None:
        src_machine, dst_machine = key
        # Charge the post cost to the account of the last contributor
        # (whoever's add() triggered the flush, or the timer's victim).
        self.system.transport.post(
            src_machine, dst_machine, PacketGroup([p for p, _ in items]),
            nbytes, items[-1][1],
        )

    def flush_all_slicers(self) -> None:
        """Flush pending slices (end of run)."""
        for slicer in self._slicers.values():
            slicer.flush_now()
