"""Experiment runner: one system variant, one application, one point.

The paper's measurement protocol (Section 5.1): feed the topology the
maximum Poisson rate the system can sustain, measure throughput (tuples
processed / unit time), processing latency (source -> sink, with
one-to-many completion meaning *all* destination instances processed the
tuple), multicast latency, serialization/communication CPU shares, and
wire traffic.  The offered rate comes from the closed-form model
(:mod:`repro.analytic`), slightly over-driven so the bottleneck stage is
saturated.

Simulated durations scale with the offered rate so each point processes
a fixed tuple budget — a Storm point at 90 tuples/s simulates seconds,
a Whale point at 5,000 tuples/s simulates a fraction of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analytic import SystemShape, sustainable_rate
from repro.apps.ridehailing import (
    MATCH_BASE_S,
    MATCH_PER_DRIVER_S,
    ride_hailing_topology,
)
from repro.apps.stocks import (
    BOOK_DEPTH,
    MATCH_BASE_S as STOCK_MATCH_BASE_S,
    MATCH_PER_BOOK_ENTRY_S,
    stock_exchange_topology,
)
from repro.core import create_system
from repro.dsps.config import SystemConfig
from repro.dsps.metrics import LatencySummary
from repro.dsps.system import DspsSystem
from repro.net.cluster import Cluster
from repro.workloads import PoissonArrivals
from repro.workloads.ridehailing import REQUEST_RECORD_BYTES
from repro.workloads.stocks import N_SYMBOLS, ORDER_RECORD_BYTES

#: Default broadcast-tuple budget per measured point.
DEFAULT_TUPLE_BUDGET = 500
#: Ride-hailing driver population (laptop-scale Didi; see DESIGN.md).
N_DRIVERS = 60_000


def downstream_service_estimate(app: str, parallelism: int) -> float:
    """Steady-state per-broadcast-tuple service time of one matching
    instance (used to derive the sustainable rate)."""
    if app == "ridehailing":
        return MATCH_BASE_S + MATCH_PER_DRIVER_S * (N_DRIVERS / parallelism)
    if app == "stocks":
        return STOCK_MATCH_BASE_S + MATCH_PER_BOOK_ENTRY_S * (
            (N_SYMBOLS / parallelism) * BOOK_DEPTH
        )
    raise ValueError(f"unknown app {app!r}")


def _broadcast_payload(app: str) -> int:
    return REQUEST_RECORD_BYTES if app == "ridehailing" else ORDER_RECORD_BYTES


@dataclass
class AppRun:
    """All metrics from one measured point."""

    app: str
    variant: str
    parallelism: int
    offered_rate: float
    duration_s: float
    throughput: float  # broadcast tuples fully processed / s (system-wide)
    processing_latency: LatencySummary
    multicast_latency: LatencySummary
    drops: int
    data_bytes: int
    control_bytes: int
    broadcast_tuples: int
    source_util: float
    source_breakdown: Dict[str, float]
    downstream_util_mean: float
    serialization_share: float
    comm_cpu_s: float
    serialization_cpu_s: float
    #: transfer-queue load factor: max observed length / capacity Q
    source_queue_load: float = 0.0
    #: path of the JSONL trace captured for this point
    trace_path: Optional[str] = None
    #: invariant-check report when the run was checked
    check_report: Optional[object] = field(default=None, repr=False)
    #: kept for experiments that need deeper inspection
    system: Optional[DspsSystem] = field(default=None, repr=False)

    @property
    def traffic_per_10k_tuples(self) -> float:
        """Bytes on the wire per 10,000 generated broadcast tuples
        (the paper's communication-traffic metric)."""
        if self.broadcast_tuples == 0:
            return 0.0
        return self.data_bytes * 10_000 / self.broadcast_tuples


def run_app(
    app: str,
    config: SystemConfig,
    parallelism: int,
    n_machines: int = 30,
    n_racks: int = 1,
    offered_rate: Optional[float] = None,
    overdrive: float = 1.1,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    seed: int = 42,
    keep_system: bool = False,
    fabric_options: Optional[Dict] = None,
    trace_path: Optional[str] = None,
    fault_schedule=None,
    check: Optional[str] = None,
) -> AppRun:
    """Measure one (app, variant, parallelism) point.

    ``trace_path`` streams a structured JSONL trace of the run (with a
    manifest carrying config/seed/git rev) to that file; summarize it
    with ``python -m repro.trace PATH``.  ``fault_schedule`` (a
    :class:`~repro.faults.FaultSchedule`) injects machine crashes and
    recoveries at the scheduled sim times.  ``check`` attaches a runtime
    :class:`~repro.check.InvariantChecker` (``"strict"`` raises on the
    first breach, ``"warn"`` collects into ``AppRun.check_report``).
    """
    if app == "ridehailing":
        topology = ride_hailing_topology(
            parallelism, n_drivers=N_DRIVERS, compute_real_matches=False
        )
        broadcast_spout = "requests"
        side_streams = {"driver_locations": 1000.0}
    elif app == "stocks":
        topology = stock_exchange_topology(parallelism)
        broadcast_spout = "orders"
        side_streams = {}
    else:
        raise ValueError(f"unknown app {app!r}")

    shape = SystemShape(
        parallelism=parallelism,
        n_machines=n_machines,
        payload_bytes=_broadcast_payload(app),
    )
    if offered_rate is None:
        offered_rate = (
            sustainable_rate(
                config, shape, downstream_service_estimate(app, parallelism)
            )
            * overdrive
        )

    rng = np.random.default_rng(seed)
    arrivals = {broadcast_spout: PoissonArrivals(offered_rate, rng)}
    for name, rate in side_streams.items():
        arrivals[name] = PoissonArrivals(min(rate, offered_rate), rng)

    tracer = None
    if trace_path is not None:
        from repro.trace import JsonlTracer, run_manifest

        tracer = JsonlTracer(
            trace_path,
            manifest=run_manifest(
                config=config,
                seed=seed,
                app=app,
                parallelism=parallelism,
                offered_rate=offered_rate,
            ),
        )
    try:
        system = create_system(
            topology,
            config,
            cluster=Cluster(n_machines, n_racks, 16),
            arrivals=arrivals,
            seed=seed,
            fabric_options=fabric_options,
            tracer=tracer,
            fault_schedule=fault_schedule,
        )
        checker = system.attach_checker(mode=check) if check else None
        measure_s = min(2.0, max(0.1, tuple_budget / offered_rate))
        warmup_s = min(0.5, max(0.05, 0.3 * measure_s))
        # Reset traffic counters after warmup by snapshotting.
        system.start()
        system.sim.run(until=warmup_s)
        # Realize lazily-batched completions before snapshotting/resetting
        # counters, so warmup work is attributed to warmup.
        system.metrics.flush()
        data0 = system.traffic_bytes("data")
        ctrl0 = system.traffic_bytes("control")
        src = (
            system.source_executor(broadcast_spout)
            if app == "ridehailing"
            else None
        )
        source_ex = (
            src
            if src is not None
            else system.operator_executors("split")[0]  # stocks: split is the source
        )
        source_ex.cpu.reset()
        downstream = system.operator_executors("matching")
        for ex in downstream:
            ex.cpu.reset()
        window_start = system.sim.now
        # Warmup ran above, so the accounts reset at the window boundary.
        metrics = system.run_measured(0.0, measure_s)
        check_report = checker.finalize() if checker is not None else None
    finally:
        if tracer is not None:
            tracer.close()

    completion = metrics.completion.summary()
    multicast = metrics.multicast.summary()
    breakdown = source_ex.cpu.breakdown()
    ser_cpu = source_ex.cpu.busy_s.get("serialization", 0.0)
    net_cpu = source_ex.cpu.busy_s.get("network", 0.0) + source_ex.cpu.busy_s.get(
        "rdma_post", 0.0
    )
    comm_cpu = ser_cpu + net_cpu
    down_utils = [ex.cpu.utilization(since=window_start) for ex in downstream]

    run = AppRun(
        app=app,
        variant=config.name,
        parallelism=parallelism,
        offered_rate=offered_rate,
        duration_s=measure_s,
        throughput=metrics.completion.completed / measure_s,
        processing_latency=completion,
        multicast_latency=multicast,
        drops=sum(metrics.dropped.values()),
        data_bytes=system.traffic_bytes("data") - data0,
        control_bytes=system.traffic_bytes("control") - ctrl0,
        broadcast_tuples=metrics.emitted.get(broadcast_spout, 0)
        if app == "ridehailing"
        else metrics.emitted.get("split", 0),
        source_util=source_ex.cpu.utilization(since=window_start),
        source_breakdown=breakdown,
        downstream_util_mean=float(np.mean(down_utils)) if down_utils else 0.0,
        serialization_share=(ser_cpu / comm_cpu) if comm_cpu > 0 else 0.0,
        comm_cpu_s=comm_cpu,
        serialization_cpu_s=ser_cpu,
        source_queue_load=(
            source_ex.transfer_queue.stats().max_length
            / config.transfer_queue_capacity
        ),
        trace_path=trace_path,
        check_report=check_report,
        system=system if keep_system else None,
    )
    return run
