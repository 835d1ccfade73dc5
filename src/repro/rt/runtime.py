"""Execution backends: one topology API, two runtimes.

:class:`RuntimeBackend` is the abstract contract the differential
harness and the CLI program against: *run this* :class:`~repro.dsps.
topology.Topology` *at this offered rate for this budget/duration and
hand back a* :class:`RunReport`.  Two implementations:

* :class:`SimRuntime` — wraps the existing discrete-event
  :class:`~repro.dsps.system.DspsSystem` unchanged.  Every figure and
  claim still runs through this backend; the wrapper only standardizes
  driving (seeded finite arrival budgets) and reporting.
* :class:`AsyncRuntime` — the wall-clock asyncio runtime: one
  :class:`~repro.rt.worker.WorkerHost` per simulated machine, framed
  TCP between hosts over ephemeral localhost ports, relay-tree
  one-to-many, receiver-driven credits, and the at-least-once acker.
  It executes the *same* ``Topology`` objects, resolves groupings
  through the same strategy registry, and feeds a *stock*
  :class:`~repro.dsps.metrics.MetricsHub` via the
  :class:`~repro.rt.bridge.WallClock` — so a :class:`RunReport` means
  the same thing from either backend.

Both end a run by one rule: the spouts stop and the run drains until
*quiet*, no pending work left that could change a result, or until
``config.rt_drain_timeout_s``; ``RunReport.quiescence`` says which.

All hosts live in one OS process on one event loop; the *dataplane* is
strictly sockets, which keeps hosts process-separable by construction
(topology factories are closures, so true multi-process would require
picklable operators — out of scope here and noted in DESIGN.md §12).
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dsps.config import SystemConfig
from repro.dsps.grouping import Grouping, edge_grouping
from repro.dsps.metrics import MetricsHub, Quiescence
from repro.dsps.scheduler import Placement, schedule
from repro.dsps.system import DspsSystem
from repro.dsps.topology import Topology
from repro.dsps.tuples import reset_ids
from repro.net.cluster import Cluster
from repro.rt.bridge import WallClock
from repro.rt.topologies import Recorder
from repro.rt.worker import RtSpoutExecutor, WorkerHost
from repro.workloads.arrivals import ConstantArrivals, FiniteArrivals


#: delivery guarantees the asyncio backend implements.  ``exactly_once``
#: and ``atomic`` need the DES reliability layer (epoch-GC'd dedup,
#: hold/commit); the asyncio backend rejects them rather than silently
#: running at-least-once.
RT_DELIVERY_MODES = ("at_most_once", "at_least_once")


def default_cluster() -> Cluster:
    """The small symmetric cluster both backends default to (4 machines
    keeps an rt run at 4 socket servers).  A one-to-many edge from one of
    its machines to all four forwards along relay hops only at d* = 1: at
    d* >= 2 the source reaches the other three itself."""
    return Cluster(n_machines=4, n_racks=1, cores=4)


@dataclass
class RunReport:
    """What one backend run produced, in backend-neutral terms."""

    backend: str
    #: per-operator emit / execute counts from the metrics window.
    emitted: Dict[str, int]
    processed: Dict[str, int]
    #: measurement-window length in the backend's own seconds.
    window_s: float
    #: terminal executed multiset ``(operator, repr(values)) -> count``
    #: (present when the topology carried a Recorder).
    executed: Optional[Counter] = None
    #: first/last terminal execution instants (backend time base).
    first_t: Optional[float] = None
    last_t: Optional[float] = None
    #: cumulative seconds spent stalled on credits.
    credit_stall_s: float = 0.0
    replays: int = 0
    abandoned: int = 0
    #: per-operator sink latency means (seconds), terminal ops only.
    sink_latency_mean_s: Dict[str, float] = field(default_factory=dict)
    #: how the run's drain ended.
    quiescence: Optional[Quiescence] = None

    @classmethod
    def of(cls, backend: "RuntimeBackend", metrics: MetricsHub,
           replays: int) -> "RunReport":
        """The report of ``backend``'s finished run."""
        recorder = backend.recorder
        return cls(
            backend=backend.name,
            emitted=dict(metrics.emitted),
            processed=dict(metrics.processed),
            window_s=metrics.window_duration,
            executed=Counter(recorder.executed) if recorder else None,
            first_t=recorder.first_t if recorder else None,
            last_t=recorder.last_t if recorder else None,
            credit_stall_s=sum(metrics.credit_stall_s.values()),
            replays=replays,
            abandoned=metrics.messages_abandoned,
            sink_latency_mean_s={
                op.name: metrics.sink_latency_summary(op.name).mean
                for op in backend.topology.bolts()
                if op.terminal and metrics.sink_latencies[op.name]
            },
            quiescence=metrics.quiescence,
        )

    @property
    def executed_total(self) -> int:
        return sum(self.executed.values()) if self.executed else 0

    @property
    def span_s(self) -> float:
        """Active span: first to last terminal execution."""
        if self.first_t is None or self.last_t is None:
            return 0.0
        return self.last_t - self.first_t

    @property
    def goodput_tps(self) -> float:
        """Terminal executions per second over the active span (falls
        back to the window length for degenerate zero-length spans)."""
        denominator = self.span_s if self.span_s > 0 else self.window_s
        if denominator <= 0:
            return 0.0
        return self.executed_total / denominator


class RuntimeBackend(ABC):
    """One way of executing a :class:`~repro.dsps.topology.Topology`."""

    name: str = "abstract"

    def __init__(
        self,
        topology: Topology,
        config: SystemConfig,
        cluster: Optional[Cluster] = None,
        seed: int = 0,
        tracer=None,
        recorder: Optional[Recorder] = None,
    ):
        self.topology = topology
        self.config = config
        self.cluster = cluster if cluster is not None else default_cluster()
        self.seed = seed
        self.tracer = tracer
        self.recorder = recorder

    def run(
        self,
        rate: float,
        budget: Optional[int] = None,
        duration_s: Optional[float] = None,
    ) -> RunReport:
        """Drive every spout at ``rate`` tuples/s until ``budget`` tuples
        have been emitted (per spout) or ``duration_s`` elapses, drain to
        quiet (at most ``config.rt_drain_timeout_s``, in the backend's own
        seconds), and report."""
        if budget is None and duration_s is None:
            raise ValueError("need a tuple budget or a duration")
        return self._execute(rate, budget, duration_s)

    @abstractmethod
    def _execute(self, rate: float, budget: Optional[int],
                 duration_s: Optional[float]) -> RunReport:
        """:meth:`run` once its arguments are checked."""


class SimRuntime(RuntimeBackend):
    """The discrete-event backend (a thin driver over ``DspsSystem``)."""

    name = "sim"
    system: Optional[DspsSystem] = None

    def _execute(self, rate: float, budget: Optional[int],
                 duration_s: Optional[float]) -> RunReport:
        arrivals = {}
        for op in self.topology.spouts():
            gap = ConstantArrivals(rate)
            arrivals[op.name] = (
                FiniteArrivals(gap, budget) if budget is not None else gap
            )
        system = DspsSystem(
            self.topology,
            self.config,
            cluster=self.cluster,
            arrivals=arrivals,
            seed=self.seed,
            tracer=self.tracer,
        )
        self.system = system
        if self.recorder is not None:
            self.recorder.clock = system.sim
        # A budget's last arrival is due at budget / rate; the spouts stop
        # half a gap later, so float rounding of its instant cannot drop it.
        measure_s = duration_s if budget is None else (budget + 0.5) / rate
        metrics = system.run_measured(
            0.0, measure_s, drain_s=self.config.rt_drain_timeout_s)
        replays = getattr(system.reliability, "replays", 0)
        return RunReport.of(self, metrics, replays)


class AsyncRuntime(RuntimeBackend):
    """The wall-clock asyncio backend (real sockets, real execution).

    Exposes the same observable surface as ``DspsSystem`` (``metrics``,
    ``placement``, ``cluster``, ``executors``, ``edge_grouping``) so the
    placement-aware groupings bind against it unmodified.  A runtime is
    one-shot: :meth:`run` builds the hosts, runs, and tears down.  Tests
    that need mid-run control call :meth:`setup` / :meth:`drive` /
    :meth:`drain` / :meth:`shutdown` from their own event loop instead.
    """

    name = "asyncio"

    def __init__(
        self,
        topology: Topology,
        config: SystemConfig,
        cluster: Optional[Cluster] = None,
        seed: int = 0,
        tracer=None,
        recorder: Optional[Recorder] = None,
    ):
        if config.delivery not in RT_DELIVERY_MODES:
            raise ValueError(
                f"the asyncio backend does not implement "
                f"delivery={config.delivery!r} (supported: "
                f"{', '.join(RT_DELIVERY_MODES)}); use backend='sim'"
            )
        topology.validate()
        super().__init__(topology, config, cluster, seed, tracer, recorder)
        self.clock = WallClock(tracer)
        self.metrics = MetricsHub(self.clock)
        self.placement: Placement = schedule(topology, self.cluster)
        self.hosts: Dict[int, WorkerHost] = {}
        self.executors: Dict[int, object] = {}
        self._edge_groupings: Dict[tuple, Grouping] = {}
        self._started = False
        #: the first error any host met (see :meth:`fail`).
        self.error: Optional[Exception] = None
        #: while :meth:`drain` waits: the future quiet resolves.
        self.draining: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    def edge_grouping(self, src_operator: str, dst_operator: str) -> Grouping:
        """Prototype grouping for an edge, as the DES routes it (see
        :func:`repro.dsps.grouping.edge_grouping`); hosts then
        instantiate per-host copies from its ``spec()``."""
        return edge_grouping(self.topology, self.config, self._edge_groupings,
                             src_operator, dst_operator)

    @property
    def spout_executors(self) -> List[RtSpoutExecutor]:
        return [
            ex for ex in self.executors.values()
            if isinstance(ex, RtSpoutExecutor)
        ]

    # ------------------------------------------------------------------
    # phased lifecycle (tests drive these directly)
    # ------------------------------------------------------------------
    async def setup(self) -> None:
        """Build hosts, bind listeners, connect the mesh."""
        if self._started:
            raise RuntimeError("runtime already started")
        self._started = True
        reset_ids()
        if self.recorder is not None:
            self.recorder.clock = self.clock
        for machine in self.cluster:
            host = WorkerHost(self, machine.machine_id)
            self.hosts[machine.machine_id] = host
            self.executors.update(host.executors)
        ports = {}
        for machine_id, host in sorted(self.hosts.items()):
            ports[machine_id] = await host.start()
        for host in self.hosts.values():
            await host.connect(ports)

    def fail(self, error: Exception) -> None:
        """A host met ``error``.  The first one fails the run: every
        parked spout and connection receiver, and every later park,
        fails with it instead of waiting, so a :meth:`drive` stalled on a
        dead peer raises it at once."""
        if self.error is not None:
            return
        self.error = error
        for host in self.hosts.values():
            for sender in host.senders:
                sender.abort(error)
        self.check_quiet()

    async def drive(
        self,
        rate: float,
        budget: Optional[int] = None,
        duration_s: Optional[float] = None,
    ) -> int:
        """Run every spout's paced emission loop; returns tuples emitted.
        A spout's error stops the others and is raised."""
        spouts = [
            asyncio.create_task(ex.run_paced(rate, budget, duration_s))
            for ex in self.spout_executors
        ]
        try:
            return sum(await asyncio.gather(*spouts))
        finally:
            for spout in spouts:
                spout.cancel()

    def is_quiet(self) -> bool:
        """No pending work could change a result: every data row and ack
        message posted to a connection has been handled by its receiving
        host, and no host is busy (a runnable bolt, a queued input, a
        planned step, a parked receiver, a root its acker tracks)."""
        hosts = self.hosts.values()
        if sum(h.posted for h in hosts) != sum(h.handled for h in hosts):
            return False
        return not any(host.busy for host in hosts)

    def check_quiet(self) -> None:
        """A host step ended: while :meth:`drain` waits, resolve it once
        the runtime is quiet or has failed."""
        draining = self.draining
        if draining is None or draining.done():
            return
        if self.error is not None or self.is_quiet():
            draining.set_result(None)

    async def drain(self) -> Quiescence:
        """Wait until quiet (:meth:`is_quiet`), at most
        ``config.rt_drain_timeout_s``.  The host step that makes the
        runtime quiet resolves the wait, and a failed host ends it
        (``shutdown`` raises the error).  The record is also kept as
        ``metrics.quiescence``."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        self.draining = loop.create_future()
        self.check_quiet()
        try:
            await asyncio.wait_for(self.draining, self.config.rt_drain_timeout_s)
        except asyncio.TimeoutError:
            pass
        finally:
            self.draining = None
        quiet = self.error is None and self.is_quiet()
        hosts = self.hosts.values()
        record = self.metrics.quiescence = Quiescence(
            quiet=quiet,
            at=self.clock.now,
            drain_s=loop.time() - start,
            open_roots=self.metrics.completion.open_roots,
            outstanding=sum(h.acker.pending for h in hosts if h.acker),
            queued=sum(ex.inqueue.level for ex in self.executors.values()),
            in_flight=sum(h.posted for h in hosts) - sum(h.handled for h in hosts),
        )
        self.clock.emit("rt.drain", quiet=quiet, processed=sum(
            ex.processed for ex in self.executors.values()))
        return record

    async def shutdown(self) -> None:
        """Stop every host, then raise the first error one of them met."""
        errors = []
        for host in self.hosts.values():
            try:
                await host.stop()
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    def _execute(self, rate: float, budget: Optional[int],
                 duration_s: Optional[float]) -> RunReport:
        return asyncio.run(self._run(rate, budget, duration_s))

    async def _run(self, rate: float, budget: Optional[int],
                   duration_s: Optional[float]) -> RunReport:
        await self.setup()
        self.clock.start()
        self.metrics.open_window()
        try:
            await self.drive(rate, budget, duration_s)
            await self.drain()
            self.metrics.close_window()
            replays = sum(h.acker.replays for h in self.hosts.values() if h.acker)
            return RunReport.of(self, self.metrics, replays)
        finally:
            await self.shutdown()


def create_runtime(
    topology: Topology, config: SystemConfig, **kwargs
) -> RuntimeBackend:
    """Build the backend ``config.backend`` names for this topology."""
    if config.backend == "sim":
        return SimRuntime(topology, config, **kwargs)
    return AsyncRuntime(topology, config, **kwargs)
