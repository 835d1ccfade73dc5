"""System assembly: topology + config + cluster -> a runnable simulation.

``DspsSystem`` builds the whole object graph (fabric, transport, workers,
executors, multicast services, metrics) and provides the standard
measurement protocol used by every experiment:

>>> system = DspsSystem(topology, config, arrivals={"requests": arrivals})
>>> result = system.run_measured(warmup_s=0.2, measure_s=1.0, drain_s=2.0)
>>> result.quiescence.quiet
True

Measurement excludes warmup; throughput/latency come from the metrics hub
restricted to the window.  With ``drain_s`` the spouts stop when the
window's ``measure_s`` ends and the run drains to quiet (or ``drain_s``
more) inside the window: :meth:`DspsSystem.drain` and its
:class:`~repro.dsps.metrics.Quiescence` record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.dsps.comm import CommEngine, MulticastService
from repro.dsps.config import SystemConfig
from repro.dsps.executor import BoltExecutor, ExecutorBase, SpoutExecutor
from repro.dsps.flow import FlowController
from repro.dsps.grouping import Grouping, edge_grouping, inqueue_depth
from repro.dsps.metrics import MetricsHub, Quiescence
from repro.dsps.rebalance import PartitionRouter, Rebalancer
from repro.dsps.reliability import ReplayCoordinator
from repro.dsps.scheduler import Placement, schedule
from repro.dsps.topology import Topology
from repro.dsps.tuples import reset_ids as reset_tuple_ids
from repro.dsps.worker import Worker
from repro.faults import FaultInjector, FaultSchedule
from repro.net.cluster import Cluster
from repro.net.fabric import Fabric
from repro.net.rdma import RdmaTransport, transport_verb
from repro.net.serialization import SerializationModel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import MulticastController

#: gap function: seconds until the next tuple, or None to stop.
ArrivalFn = Callable[[float], Optional[float]]


class DspsSystem:
    """One fully-wired stream processing system on a simulated cluster."""

    def __init__(
        self,
        topology: Topology,
        config: SystemConfig,
        cluster: Optional[Cluster] = None,
        arrivals: Optional[Dict[str, ArrivalFn]] = None,
        seed: int = 0,
        fabric_options: Optional[Dict] = None,
        tracer=None,
        fault_schedule: Optional[FaultSchedule] = None,
    ):
        """``fabric_options`` are forwarded to :class:`~repro.net.fabric.
        Fabric` (fault injection: ``loss_probability``; oversubscription:
        ``rack_uplink_bandwidth_bps``).  ``tracer`` is an optional
        :class:`~repro.trace.Tracer` attached to the simulator; with none
        attached every trace hook is a single attribute check.
        ``fault_schedule`` (a :class:`~repro.faults.FaultSchedule`)
        attaches a :class:`~repro.faults.FaultInjector` that crashes and
        recovers machines at the scheduled sim times."""
        # Restart the process-global tuple id stream so a run's trace is
        # bit-identical for a given seed no matter how many systems were
        # built earlier in the same process.
        reset_tuple_ids()
        fabric_options = fabric_options or {}
        self.topology = topology
        self.config = config
        self.costs = config.costs
        self.cluster = cluster if cluster is not None else Cluster(30, 1, 16)
        self.sim = Simulator()
        self.sim.tracer = tracer
        self.rng = RngRegistry(seed)
        self.serialization = SerializationModel(self.costs)
        self.metrics = MetricsHub(self.sim)

        # --- network ------------------------------------------------------
        link = self.costs.link(config.transport)
        self.fabric = Fabric(
            self.sim,
            self.cluster,
            bandwidth_bps=link.bandwidth_bps,
            base_latency_s=link.latency_s,
            rack_hop_latency_s=self.costs.rack_hop_latency_s,
            name=link.name,
            **fabric_options,
        )
        self.transport = RdmaTransport(
            self.sim,
            self.fabric,
            self.costs,
            data_verb=transport_verb(config.transport, config.data_verb),
        )

        # --- placement + runtime objects -----------------------------------
        self.placement: Placement = schedule(topology, self.cluster)
        #: per-edge grouping instances for the ``config.partitioning``
        #: override (shared per edge, mirroring the topology's sharing)
        self._edge_groupings: Dict[tuple, Grouping] = {}
        #: live routing directory + migration controller (rebalance mode)
        self.partition_router: Optional[PartitionRouter] = (
            PartitionRouter(self) if config.rebalance else None
        )
        self.rebalancer: Optional[Rebalancer] = (
            Rebalancer(self) if config.rebalance else None
        )
        self.workers: Dict[int, Worker] = {
            m.machine_id: Worker(self, m.machine_id) for m in self.cluster
        }
        self.comm = CommEngine(self)
        self.executors: Dict[int, ExecutorBase] = {}
        self.spout_executors: List[SpoutExecutor] = []
        for op in topology.spouts():
            for task_id in self.placement.tasks_of[op.name]:
                ex = SpoutExecutor(self, task_id)
                self.executors[task_id] = ex
                self.spout_executors.append(ex)
        for op in topology.bolts():
            for task_id in self.placement.tasks_of[op.name]:
                ex = BoltExecutor(self, task_id)
                self.executors[task_id] = ex
                self.workers[ex.machine_id].executors[task_id] = ex

        # --- multicast services --------------------------------------------
        self._services: Dict[tuple, MulticastService] = {}
        if config.multicast != "sequential":
            for bolt in topology.bolts():
                for upstream, grouping in bolt.inputs.items():
                    if not grouping.one_to_many:
                        continue
                    for src_task in self.placement.tasks_of[upstream]:
                        self._services[(src_task, bolt.name)] = MulticastService(
                            self,
                            src_task=src_task,
                            dst_operator=bolt.name,
                            structure=config.multicast,
                            d_star=config.d_star,
                            worker_level=config.worker_oriented,
                        )

        # --- reliability (delivery semantics) -------------------------------
        self.reliability: Optional[ReplayCoordinator] = (
            ReplayCoordinator(self) if config.reliability_enabled else None
        )

        # --- overload protection -------------------------------------------
        self.flow: Optional[FlowController] = (
            FlowController(self) if config.flow else None
        )
        #: arrival-rate multiplier applied to every spout (flash crowds)
        self.load_factor = 1.0

        # --- fault injection -----------------------------------------------
        self._crashed: set = set()
        self.crash_count = 0
        self.recovery_count = 0
        self.fault_injector: Optional[FaultInjector] = None
        #: runtime invariant checker, set by :meth:`attach_checker`.
        self.checker = None
        self._started = False
        if fault_schedule is not None:
            self.add_fault_schedule(fault_schedule)

        # --- arrivals --------------------------------------------------------
        if arrivals:
            self.set_arrivals(arrivals)

        # --- Whale's multicast controllers -------------------------------------
        #: one per multicast service when the config adapts d* (Sections
        #: 3.3-3.4) or detects failures; empty otherwise.
        self.controllers: List["MulticastController"] = []
        if (
            config.adaptive and config.multicast == "nonblocking"
        ) or config.failure_detection:
            from repro.core.controller import MulticastController

            self.controllers = [
                MulticastController(self, service)
                for service in self.multicast_services
            ]

    # ------------------------------------------------------------------
    def set_arrivals(self, arrivals: Dict[str, ArrivalFn]) -> None:
        for name, gap_fn in arrivals.items():
            tasks = self.placement.tasks_of.get(name)
            if tasks is None:
                raise KeyError(f"no spout named {name!r}")
            for task_id in tasks:
                ex = self.executors[task_id]
                if not isinstance(ex, SpoutExecutor):
                    raise TypeError(f"{name!r} is not a spout")
                ex.set_arrival_process(gap_fn)

    @property
    def tracer(self):
        """The tracer attached to this system's simulator (or ``None``)."""
        return self.sim.tracer

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def edge_grouping(self, src_operator: str, dst_operator: str) -> Grouping:
        """The grouping routing the ``src -> dst`` edge (see
        :func:`repro.dsps.grouping.edge_grouping`)."""
        return edge_grouping(self.topology, self.config, self._edge_groupings,
                             src_operator, dst_operator)

    def attach_checker(self, mode: str = "strict", **kwargs):
        """Attach a runtime :class:`~repro.check.InvariantChecker`.

        Call before :meth:`start` so the checker sees the whole run.
        ``mode`` is ``"strict"`` (raise on first breach) or ``"warn"``
        (collect into the report); extra ``kwargs`` are forwarded to the
        checker.  The checker is exposed as ``self.checker``; call
        ``self.checker.finalize()`` after the run for the end-of-run
        invariants and the report."""
        from repro.check import InvariantChecker

        checker = InvariantChecker(self, mode=mode, **kwargs)
        checker.attach()
        self.checker = checker
        return checker

    def multicast_service(
        self, src_task: int, dst_operator: str
    ) -> Optional[MulticastService]:
        return self._services.get((src_task, dst_operator))

    @property
    def multicast_services(self) -> List[MulticastService]:
        return list(self._services.values())

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def add_fault_schedule(self, schedule: FaultSchedule) -> FaultInjector:
        """Attach (and, if already running, start) a fault injector."""
        if self.fault_injector is not None:
            raise RuntimeError("a fault schedule is already attached")
        self.fault_injector = FaultInjector(self, schedule)
        if self._started:
            self.fault_injector.start()
        return self.fault_injector

    def machine_is_crashed(self, machine_id: int) -> bool:
        return machine_id in self._crashed

    def crash_machine(self, machine_id: int) -> None:
        """Fail-stop one machine: freeze its NIC, drop its in-flight
        deliveries, reset its transport state, halt its processes."""
        if machine_id in self._crashed:
            raise RuntimeError(f"machine {machine_id} is already crashed")
        if machine_id not in self.workers:
            raise KeyError(f"unknown machine {machine_id}")
        self._crashed.add(machine_id)
        self.crash_count += 1
        self.fabric.set_machine_up(machine_id, False)
        self.transport.on_machine_crash(machine_id)
        self.workers[machine_id].on_crash()
        for ex in self.executors.values():
            if ex.machine_id == machine_id:
                ex.halt()
        if self.reliability is not None:
            self.reliability.on_machine_crash(machine_id)
        if self.flow is not None:
            self.flow.on_machine_crash(machine_id)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("fault.crash", self.sim.now, machine=machine_id)

    def recover_machine(self, machine_id: int) -> None:
        """Bring a crashed machine back (empty queues, fresh state)."""
        if machine_id not in self._crashed:
            raise RuntimeError(f"machine {machine_id} is not crashed")
        self._crashed.discard(machine_id)
        self.recovery_count += 1
        self.fabric.set_machine_up(machine_id, True)
        self.workers[machine_id].on_recover()
        for ex in self.executors.values():
            if ex.machine_id == machine_id:
                ex.resume_from_crash()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("fault.recover", self.sim.now, machine=machine_id)

    # ------------------------------------------------------------------
    # overload events (flash crowds, gray failures)
    # ------------------------------------------------------------------
    def begin_flash_crowd(self, magnitude: float) -> None:
        """Multiply every spout's arrival rate by ``magnitude``."""
        if magnitude <= 0:
            raise ValueError("flash-crowd magnitude must be positive")
        self.load_factor = magnitude

    def end_flash_crowd(self) -> None:
        self.load_factor = 1.0

    def begin_slow_node(self, machine_id: int, magnitude: float) -> None:
        """Gray failure: inflate service times of every executor on one
        machine by ``magnitude`` (the machine stays up and acking)."""
        if magnitude <= 0:
            raise ValueError("slow-node magnitude must be positive")
        if machine_id not in self.workers:
            raise KeyError(f"unknown machine {machine_id}")
        for ex in self.executors.values():
            if ex.machine_id == machine_id:
                ex.set_service_scale(magnitude)

    def end_slow_node(self, machine_id: int) -> None:
        for ex in self.executors.values():
            if ex.machine_id == machine_id:
                ex.set_service_scale(1.0)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch every worker and executor process."""
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        for worker in self.workers.values():
            worker.start()
        for ex in self.executors.values():
            ex.start()
        if self.reliability is not None:
            self.reliability.start()
        if self.flow is not None:
            self.flow.start()
        if self.rebalancer is not None:
            self.rebalancer.start()
        if self.fault_injector is not None:
            self.fault_injector.start()
        for controller in self.controllers:
            controller.start()

    def run_measured(
        self, warmup_s: float, measure_s: float, drain_s: float = 0.0
    ) -> MetricsHub:
        """Run warmup, then a measurement window; return the metrics hub.

        With ``drain_s > 0`` the spouts stop at the end of the window and
        :meth:`drain` runs up to ``drain_s`` more, still inside it; its
        record is ``metrics.quiescence``."""
        if not self._started:
            self.start()
        if warmup_s > 0:
            self.sim.run(until=self.sim.now + warmup_s)
        self.metrics.open_window()
        self.sim.run(until=self.sim.now + measure_s)
        if drain_s > 0:
            self.drain(self.sim.now + drain_s)
        self.metrics.close_window()
        return self.metrics

    def drain(self, deadline: float) -> Quiescence:
        """Stop the spouts, then run until quiet or ``deadline``.

        Quiet means no pending work could change a result: only the
        periodic chains' timer waits are pending (:attr:`Simulator.idle`),
        and none of them has anything to act on, no reliability tree or
        held entry for the sweep and no parked flow waiter for the
        watchdog.  Short of quiet the clock stops at ``deadline``.  The
        record is also kept as ``metrics.quiescence``."""
        for spout in self.spout_executors:
            spout.stop()
        sim = self.sim
        start = sim.now
        while not self._quiet() and sim.peek() <= deadline:
            sim.step()
        quiet = self._quiet()
        if not quiet and deadline > sim.now:
            sim.run(until=deadline)
        reliability = self.reliability
        fabric = self.fabric
        self.metrics.quiescence = Quiescence(
            quiet=quiet,
            at=sim.now,
            drain_s=sim.now - start,
            open_roots=self.metrics.completion.open_roots,
            outstanding=reliability.outstanding if reliability else 0,
            held=reliability.held_entries if reliability else 0,
            queued=sum(
                inqueue_depth(ex) + ex.transfer_queue.level
                for ex in self.executors.values()
            ),
            slicer_bytes=self.comm.sliced_bytes,
            in_flight=fabric.messages_injected - fabric.messages_delivered
            - fabric.messages_dead - fabric.messages_lost,
        )
        return self.metrics.quiescence

    def _quiet(self) -> bool:
        if not self.sim.idle:
            return False
        reliability = self.reliability
        if reliability is not None and (
            reliability.outstanding or reliability.held_entries
        ):
            return False
        return self.flow is None or not self.flow.parked

    # ------------------------------------------------------------------
    # control-plane helper (used by the Whale controller)
    # ------------------------------------------------------------------
    def control_post(
        self, src_machine: int, dst_machine: int, payload, cpu_account,
        then=None,
    ) -> None:
        """Send one control message; ``then()`` (if given) runs where the
        sender's thread continues."""
        size = self.serialization.control_message_bytes()
        self.transport.send(
            src_machine, dst_machine, payload, size, cpu_account,
            kind="control", then=then,
        )

    # ------------------------------------------------------------------
    # convenience accessors for experiments
    # ------------------------------------------------------------------
    def source_executor(self, spout_name: str) -> SpoutExecutor:
        task = self.placement.tasks_of[spout_name][0]
        ex = self.executors[task]
        assert isinstance(ex, SpoutExecutor)
        return ex

    def operator_executors(self, operator: str) -> List[ExecutorBase]:
        return [self.executors[t] for t in self.placement.tasks_of[operator]]

    def traffic_bytes(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(self.fabric.bytes_by_kind.values())
        return self.fabric.bytes_by_kind.get(kind, 0)
