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

Every send of one tuple by one thread — the source's, a relay hop's, an
emit's per-machine legs — walks its legs in one loop (:class:`_Legs`),
sliced or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.multicast import MulticastTree, RewireOp, SOURCE, build_tree
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
@dataclass
class Packet:
    """One data packet for one machine: Whale's worker-oriented
    ``BatchTuple`` (Fig. 9b: the item serialized once + the dstIds of
    every task in ``dst_tasks``, the paper's WorkerMessage on the wire),
    or coalesced instance-oriented messages (Fig. 9a: one
    independently-serialized message per task in ``dst_tasks``).
    The receiving worker dispatches it and, when ``relay`` is set,
    forwards it to the endpoint's children."""

    tuple: StreamTuple
    dst_tasks: List[int]
    deserialize_cpu_s: float  # total for all messages
    #: relay coordinates: (service, endpoint id) when part of a multicast.
    relay: Optional[Tuple["MulticastService", Any]] = None


@dataclass
class PacketGroup:
    """Several packets delivered in one sliced work request."""

    packets: List[Any]


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
        self.tree = build_tree(structure, list(self._tasks_of_endpoint), d_star)
        #: while a dynamic switch or repair is in progress, the source's
        #: held sends (the controller releases them); ``None`` otherwise.
        self.paused_until: Optional[List[Callable[[], None]]] = None
        self.switch_count = 0
        #: endpoints excised from the tree because their machine is
        #: suspected/crashed; restored on recovery.
        self._detached: set = set()
        self.repair_count = 0
        self.reattach_count = 0

    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> List[Any]:
        return list(self._tasks_of_endpoint)

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

    def source_out_degree(self) -> int:
        return self.tree.out_degree(SOURCE)

    # ------------------------------------------------------------------
    def send_from_source(
        self, executor: "Executor", tup: StreamTuple,
        then: Callable[[], None],
    ) -> None:
        """Source side: transmit ``tup`` to the root's direct children."""
        paused = self.paused_until
        if paused is not None:
            # Dynamic switching in progress: output rate drops to zero
            # until the structure settles (Theorem 4's premise).
            paused.append(lambda: self._source_sends(executor, tup, then))
            return
        self._source_sends(executor, tup, then)

    def relay_from(
        self, worker: "Worker", endpoint: Any, tup: StreamTuple,
        then: Callable[[], None],
    ) -> bool:
        """Relay side: forward already-serialized bytes to children.
        True when every send was done at once; otherwise ``then()`` runs
        from the entry where the last one is."""
        tree = self.tree
        if endpoint not in tree:
            # Stale in-flight packet: the endpoint was repaired out of
            # the tree while this message was on the wire.  Local
            # dispatch already happened; nothing left to relay.
            return True
        return _Legs(
            self.system.comm, worker.cpu, self._machine_of_endpoint[endpoint],
            tup, False, self, tree.children(endpoint), then,
        ).run()

    def _source_sends(self, executor: "Executor", tup: StreamTuple,
                      then: Callable[[], None]) -> None:
        """Serialize and send ``tup`` to the root's children."""
        _Legs(self.system.comm, executor.cpu, self.src_machine, tup, True,
              self, self.tree.children(SOURCE), then).start()

    # ------------------------------------------------------------------
    def install(self, tree: MulticastTree, action: str, plans) -> None:
        """Install ``tree``, the result of ``plans``: a dynamic switch's
        one ``(None, plan)`` (``action`` its direction), or one
        ``(endpoint, plan)`` per endpoint a repair excises or a reattach
        re-admits.  Each applied rewire is traced as ``switch.rewire``
        (switch) or ``switch.repair`` (repair, reattach)."""
        detached = set(self._detached)
        for endpoint, _plan in plans:
            if action == "repair":
                detached.add(endpoint)
            elif action == "reattach":
                detached.discard(endpoint)
        if set(tree.destinations()) != set(self._tasks_of_endpoint) - detached:
            raise ValueError("the tree does not span the attached endpoints")
        self.tree = tree
        self._detached = detached
        if action == "repair":
            self.repair_count += len(plans)
        elif action == "reattach":
            self.reattach_count += len(plans)
        else:
            self.switch_count += 1
            self.d_star = plans[0][1].d_star
        tracer = self.system.sim.tracer
        if tracer is None:
            return
        now = self.system.sim.now
        # Audit log: every applied RewireOp, stamped at the instant the
        # tree is installed.
        for endpoint, plan in plans:
            if endpoint is None:
                for op in plan.ops:
                    tracer.emit(
                        "switch.rewire",
                        now,
                        src_task=self.src_task,
                        direction=action,
                        node=op.node,
                        old_parent=op.old_parent,
                        new_parent=op.new_parent,
                    )
            else:
                # A leaf failure detaches with zero rewires; still
                # record it.
                for op in plan.ops or [RewireOp(endpoint, None, None)]:
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
        self.worker_oriented = self.config.worker_oriented
        #: serialized messages to one peer share RDMA work requests
        self.sliced = self.config.slicing
        # (src executor id, dst machine) -> slicer, when slicing is on.
        self._slicers: Dict[Tuple[int, int], StreamSlicer] = {}

    # ------------------------------------------------------------------
    # top-level send (called by the executor's sending thread)
    # ------------------------------------------------------------------
    def send(
        self, executor: "Executor", env: Envelope,
        then: Callable[[int], None],
    ) -> None:
        """Transmit one envelope, then run ``then(n)`` with the number of
        direct transmissions the source performed (its effective
        out-degree)."""
        service = self.system.multicast_service(executor.task_id, env.dst_operator)
        if env.one_to_many and service is not None and not env.selective:
            service.send_from_source(
                executor, env.tuple, lambda: then(service.source_out_degree())
            )
            return
        placement = self.system.placement
        by_machine: Dict[int, List[int]] = {}
        for task in env.dst_tasks:
            by_machine.setdefault(placement.machine_of[task], []).append(task)
        src_machine = executor.machine_id
        remote = [tasks for m, tasks in by_machine.items() if m != src_machine]
        # Worker-oriented: one BatchTuple per remote worker; instance-
        # oriented: one message per remote destination task.
        sends = (
            len(remote) if self.worker_oriented
            else sum(len(tasks) for tasks in remote)
        )
        _Legs(self, executor.cpu, src_machine, env.tuple, True, None,
              sorted(by_machine.items()), lambda: then(sends)).start()

    # ------------------------------------------------------------------
    # stream slicing
    # ------------------------------------------------------------------
    @property
    def sliced_bytes(self) -> int:
        """Bytes waiting in the stream slicers for a size or timer flush."""
        return sum(s.buffered_bytes for s in self._slicers.values())

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
        self.system.transport.send(
            src_machine, dst_machine, PacketGroup([p for p, _ in items]),
            nbytes, items[-1][1],
        )


class _Legs:
    """One thread's sends of one tuple, one leg after another, then
    ``then()``: to each child of a multicast tree node (the source's
    sends and every relay hop, ``service`` set), or to each machine
    hosting an emit's destination tasks (``legs`` of ``(machine,
    tasks)``, ``service`` None).

    A remote leg serializes (unless it relays bytes) and transmits one
    packet: one BatchTuple (worker-oriented), or one single-destination
    message per task (instance-oriented; on an RDMC tree an endpoint is
    one task).  A leg done at once (a sliced RDMA post, a free local
    dispatch) goes on to the next inline; a leg that waits (unsliced
    RDMA, TCP, serialization, a same-machine delivery) resumes the loop
    from its continuation :meth:`_sent`.  That continuation may also run
    inside the leg (a transport that admits at once), so ``looping`` and
    ``ready`` tell the two apart, as in :func:`repro.sim.engine.each`.
    """

    __slots__ = (
        "comm", "cpu", "src", "tup", "serialize", "service", "legs", "then",
        "i", "looping", "ready", "dst", "tasks", "packet", "n", "size",
        "serialize_cpu",
    )

    def __init__(self, comm: CommEngine, cpu_account, src_machine: int,
                 tup: StreamTuple, serialize: bool,
                 service: Optional[MulticastService], legs: List[Any],
                 then: Callable[[], None]):
        self.comm, self.cpu, self.src, self.tup = (
            comm, cpu_account, src_machine, tup)
        self.serialize, self.service, self.legs, self.then = (
            serialize, service, legs, then)
        self.i = 0
        self.looping = self.ready = False

    def start(self) -> None:
        """Send every leg, then run ``then()``."""
        if self.run():
            self.then()

    def run(self) -> bool:
        """Send the legs from the current one on.  True when they were
        all done at once; otherwise ``then()`` runs from the entry where
        the last one is."""
        legs, i = self.legs, self.i
        self.looping = True
        for leg in legs[i:] if i else legs:
            self.ready = False
            self._leg(leg)
            if not self.ready:
                self.looping = False
                return False
            self.i += 1
        self.looping = False
        return True

    def _sent(self) -> None:
        """The current leg is done: go on with the next."""
        if self.looping:
            self.ready = True
        else:
            self.i += 1
            self.start()

    def _leg(self, leg: Any) -> None:
        comm = self.comm
        service = self.service
        if service is None:
            dst, tasks = leg
            relay = None
            if dst == self.src:
                # Intra-worker transfer: no serialization, no network.
                self.dst, self.tasks = dst, tasks
                cost = comm.costs.dispatch_cpu_s * len(tasks)
                self.cpu.busy_s[cats.DISPATCH] += cost
                if cost > 0:
                    comm.system.sim.schedule_call(cost, self._dispatched)
                else:
                    self._dispatched()
                return
        else:
            dst = service._machine_of_endpoint[leg]
            tasks = service._tasks_of_endpoint[leg]
            relay = (service, leg)
        ser, costs = comm.ser, comm.costs
        payload_bytes = self.tup.payload_bytes
        if comm.worker_oriented:
            n = 1
            msg_bytes = ser.batch_message_bytes(payload_bytes, len(tasks))
        else:
            n = len(tasks)
            msg_bytes = ser.instance_message_bytes(payload_bytes)
        self.dst, self.n, self.size = dst, n, n * msg_bytes
        self.packet = Packet(self.tup, list(tasks),
                             n * costs.deserialize_time(msg_bytes), relay)
        if not self.serialize:
            self._transmit()
            return
        if comm.worker_oriented:
            cpu_s = ser.serialize_batch_message(payload_bytes, len(tasks))
        else:
            cpu_s = n * costs.serialize_time(msg_bytes)
        self.serialize_cpu = cpu_s
        self.cpu.busy_s[cats.SERIALIZATION] += cpu_s
        if cpu_s > 0:
            comm.system.sim.schedule_call(cpu_s, self._serialized)
        else:
            self._serialized()

    def _dispatched(self) -> None:
        self.comm.system.workers[self.dst].dispatch(self.tup, self.tasks)
        self._sent()

    def _serialized(self) -> None:
        sim = self.comm.system.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.serialize", sim.now, src=self.src, dst=self.dst,
                bytes=self.size, cpu_s=self.serialize_cpu, n_messages=self.n,
            )
        self._transmit()

    def _transmit(self) -> None:
        comm, src, dst = self.comm, self.src, self.dst
        if src == dst:
            # Same machine: hand straight to the local worker.
            comm.system.workers[dst].deliver(self.packet, self._sent)
        elif comm.sliced:
            comm._slice(self.cpu, src, dst, self.packet, self.size)
            self._sent()
        else:
            # The send path runs once per message even when coalesced
            # (and the transport charges the receiver once per message).
            transport = comm.system.transport
            profile = transport.profile(transport.data_verb)
            extra = profile.sender_cpu_s * (self.n - 1)
            self.cpu.busy_s[profile.category] += extra
            if extra > 0:
                comm.system.sim.schedule_call(extra, self._post)
            else:
                self._post()

    def _post(self) -> None:
        self.comm.system.transport.send(
            self.src, self.dst, self.packet, self.size, self.cpu,
            then=self._sent, n_messages=self.n,
        )
