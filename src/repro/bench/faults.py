"""Robustness ablations: lossy links, oversubscribed uplinks, crashes.

Not figures from the paper — these probe whether Whale's wins survive a
less forgiving cluster than the paper's non-blocking InfiniBand core:

* :func:`ablation_lossy_network` — inject in-flight message loss and
  compare the fraction of broadcast tuples that reach *all* destination
  instances.  Exposes the relay tree's loss amplification: one lost
  message near the root cuts off a whole subtree, whereas Storm's
  per-instance messages lose exactly one copy each.
* :func:`ablation_oversubscribed_racks` — re-run the Figs. 33/34 rack
  sweep with a bandwidth-limited per-rack uplink instead of the paper's
  latency-only rack effect, and report how much uplink headroom each
  system leaves.  The stable result is *explained*, not assumed: all
  three systems are CPU-bound long before a 4:1 core congests.
* :func:`ablation_node_failure` — crash an interior relay machine
  mid-run with failure detection, tree self-healing, and acker-driven
  replay enabled, and report recovery time (crash until full delivery
  is restored for every affected broadcast tuple) and goodput.
* :func:`ablation_delivery_semantics` / :func:`ablation_overload` — all
  four delivery guarantees, and the flow layer on/off, under one seeded
  crash (+ flash-crowd) timeline.

Every table is a registered experiment:
``python -m repro.exp run ablation_node_failure``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analytic import SystemShape, sustainable_rate
from repro.apps.ridehailing import ride_hailing_topology
from repro.bench.report import Table
from repro.bench.runner import (
    N_DRIVERS,
    downstream_service_estimate,
    run_app,
)
from repro.core import create_system, whale_full_config
from repro.dsps import rdma_storm_config, storm_config
from repro.faults import FaultEvent, FaultSchedule
from repro.multicast import SOURCE
from repro.net.cluster import Cluster
from repro.workloads import PoissonArrivals
from repro.workloads.ridehailing import REQUEST_RECORD_BYTES


def ablation_lossy_network(
    loss_values: Optional[List[float]] = None,
    parallelism: int = 240,
    seed: int = 42,
) -> Table:
    """Full-delivery fraction of Storm vs Whale under injected loss."""
    loss_values = loss_values if loss_values is not None else [0.0, 0.001, 0.01]
    # Fixed tree (adaptive=False): mid-run switches can strand an
    # in-flight copy, which would contaminate the loss measurement.
    configs = [storm_config(), whale_full_config(adaptive=False)]
    table = Table(
        f"Ablation: in-flight message loss (parallelism {parallelism})",
        ["loss prob"]
        + [f"{c.name} full-delivery frac" for c in configs]
        + [f"{c.name} wire msgs lost" for c in configs],
    )
    for loss in loss_values:
        fractions, lost = [], []
        for config in configs:
            run = run_app(
                "ridehailing",
                config,
                parallelism,
                tuple_budget=300,
                overdrive=0.7,  # sub-saturation isolates the wire loss
                seed=seed,
                keep_system=True,
                fabric_options={"loss_probability": loss, "loss_seed": 11},
            )
            system = run.system
            assert system is not None
            # Drain before measuring: tuples still in flight when the
            # window closes are races against the clock, not losses.
            # Once quiet, what remains pending really was lost.
            system.drain(deadline=system.sim.now + 0.25)
            tracker = system.metrics.multicast
            tracked = tracker.completed + tracker.outstanding
            fractions.append(
                tracker.completed / tracked if tracked else float("nan")
            )
            lost.append(system.fabric.messages_lost)
        table.add(loss, *fractions, *lost)
    table.note(
        "full delivery = every destination instance received the tuple, "
        "measured after a post-run drain so in-flight tuples are not "
        "miscounted as losses. Whale sends ~8x fewer wire messages per "
        "tuple, but its relay tree amplifies each loss (an upstream loss "
        "cuts off the whole subtree) — reliability needs the acker/"
        "replay layer either way (repro.dsps.reliability)"
    )
    return table


def ablation_oversubscribed_racks(
    rack_counts: Optional[List[int]] = None,
    parallelism: int = 240,
    oversubscription: float = 4.0,
    seed: int = 42,
) -> Table:
    """Figs. 33/34 with a congested core: each rack's uplink carries
    1/oversubscription of the NIC bandwidth."""
    rack_counts = rack_counts or [1, 3, 5]
    configs = [storm_config(), rdma_storm_config(), whale_full_config()]
    table = Table(
        f"Ablation: rack sweep with {oversubscription:g}:1 oversubscribed "
        "uplinks",
        ["racks"]
        + [f"{c.name} thru" for c in configs]
        + [f"{c.name} uplink util" for c in configs],
    )
    for racks in rack_counts:
        runs, utils = [], []
        for config in configs:
            uplink_bw = (
                config.costs.link(config.transport).bandwidth_bps
                / oversubscription
            )
            run = run_app(
                "ridehailing",
                config,
                parallelism,
                n_racks=racks,
                tuple_budget=300,
                seed=seed,
                keep_system=True,
                fabric_options={"rack_uplink_bandwidth_bps": uplink_bw},
            )
            runs.append(run)
            system = run.system
            assert system is not None
            total_up = sum(u.bytes_sent for u in system.fabric.uplinks.values())
            capacity = uplink_bw / 8.0 * system.sim.now * max(1, racks)
            utils.append(total_up / capacity if capacity else 0.0)
        table.add(
            racks,
            *[r.throughput for r in runs],
            *utils,
        )
    table.note(
        "throughput is rack-insensitive for all systems because the "
        "bottleneck is CPU, not the core: even at 4:1 oversubscription "
        "the busiest uplink stays far below saturation (utilization "
        "columns) — which is why the paper's Figs. 33/34 are flat"
    )
    return table


# ----------------------------------------------------------------------
# shared scaffolding of the crash, delivery and overload runs
# ----------------------------------------------------------------------
def _ride_hailing_system(config, parallelism, n_machines, seed, arrivals=None):
    """Ride-hailing at ``parallelism`` on ``Cluster(n_machines, 1, 16)``.

    Without ``arrivals`` the system is a placement probe: placement and
    multicast trees depend only on the config, cluster and seed, so a
    probe answers "which machine hosts what" for every run it stands for.
    """
    return create_system(
        ride_hailing_topology(
            parallelism, n_drivers=N_DRIVERS, compute_real_matches=False
        ),
        config,
        cluster=Cluster(n_machines, 1, 16),
        arrivals=arrivals,
        seed=seed,
    )


def _protected_machines(system) -> set:
    """The acker's machine and every multicast source.  The fault
    experiments measure relay recovery and delivery guarantees, not
    source loss, so these machines are never crashed."""
    protected = {service.src_machine for service in system.multicast_services}
    if system.reliability is not None:
        protected.add(system.reliability.home_machine)
    return protected


def _crash_candidates(config, parallelism, n_machines, seed) -> List[int]:
    """Machines a random fault schedule may crash (placement is identical
    across a table's rows, so one probe serves them all)."""
    probe = _ride_hailing_system(config, parallelism, n_machines, seed)
    return sorted(set(probe.workers) - _protected_machines(probe))


def _fault_run(
    config,
    fault_schedule: Optional[FaultSchedule],
    duration_s: float,
    parallelism: int,
    n_machines: int,
    offered_rate: Optional[float],
    seed: int,
    drain_s: float,
    check: Optional[str],
):
    """Run one ride-hailing point under ``fault_schedule`` and drain it.

    The spouts stop at ``duration_s``; the sim then drains to quiet
    inside the window, for at most ``drain_s`` more, or 0.25 s when
    nothing tracks delivery.  ``offered_rate=None``
    offers half the analytic sustainable rate, capped at 400/s.  Returns
    ``(system, offered_rate, check_report)``.
    """
    if offered_rate is None:
        shape = SystemShape(
            parallelism=parallelism,
            n_machines=n_machines,
            payload_bytes=REQUEST_RECORD_BYTES,
        )
        offered_rate = min(
            400.0,
            0.5
            * sustainable_rate(
                config,
                shape,
                downstream_service_estimate("ridehailing", parallelism),
            ),
        )
    rng = np.random.default_rng(seed)
    arrivals = {
        "requests": PoissonArrivals(offered_rate, rng),
        "driver_locations": PoissonArrivals(min(1000.0, offered_rate), rng),
    }
    system = _ride_hailing_system(
        config, parallelism, n_machines, seed, arrivals
    )
    if fault_schedule is not None:
        # A fresh schedule object per run: the events are shared frozen
        # data, so every row sees the identical fault timeline.
        system.add_fault_schedule(FaultSchedule(fault_schedule.events))
    if check:
        system.attach_checker(mode=check)
    system.run_measured(0.0, duration_s, drain_s=(
        drain_s if system.reliability is not None else 0.25))
    report = system.checker.finalize() if system.checker is not None else None
    return system, offered_rate, report


def _recovery_s(reliability, crash_at: Optional[float]) -> float:
    """Crash until the last replayed tuple completed at every
    destination: 0 when nothing needed a replay, nan without a crash or
    without delivery tracking."""
    if reliability is None or crash_at is None:
        return math.nan
    replayed = reliability.replayed_completions()
    return max(r.completed_at for r in replayed) - crash_at if replayed else 0.0


# ----------------------------------------------------------------------
# node failure: crash an interior relay, measure recovery
# ----------------------------------------------------------------------
def _interior_relay_machine(system) -> int:
    """Pick the machine of an interior (relaying, non-root) tree node
    outside :func:`_protected_machines`.  (A side stream's spout landing
    on the victim is fine — it just pauses.)"""
    protected = _protected_machines(system)
    for service in system.multicast_services:
        for node in service.tree.bfs():
            if node is SOURCE or not service.tree.children(node):
                continue
            machine = service.machine_of(node)
            if machine not in protected:
                return machine
    raise RuntimeError("no interior relay endpoint available to crash")


def node_failure_run(
    crash: bool = True,
    crash_at: float = 0.3,
    downtime_s: float = 0.25,
    duration_s: float = 1.0,
    parallelism: int = 24,
    n_machines: int = 8,
    offered_rate: Optional[float] = None,
    seed: int = 42,
    drain_s: float = 2.0,
    check: Optional[str] = None,
) -> Dict[str, Any]:
    """One crash-recovery point; returns the raw measurements.

    Builds full Whale with failure detection and at-least-once replay,
    crashes the machine of an interior relay node at ``crash_at``,
    recovers it ``downtime_s`` later, then keeps the sim running after
    arrivals stop until every registered broadcast tuple completed (or
    exhausted its retry budget).  Recovery time is crash -> the last
    replayed tuple's completion, i.e. how long the crash kept full
    delivery from being restored.
    """
    config = whale_full_config(adaptive=False).with_overrides(
        name="whale-faults",
        delivery="at_least_once",
        failure_detection=True,
        ack_timeout_s=0.15,
        ack_sweep_interval_s=0.02,
        max_replays=8,
    )
    victim = _interior_relay_machine(
        _ride_hailing_system(config, parallelism, n_machines, seed)
    )
    schedule = (
        FaultSchedule.single_crash(victim, crash_at, crash_at + downtime_s)
        if crash
        else None
    )
    system, offered_rate, report = _fault_run(
        config, schedule, duration_s, parallelism, n_machines,
        offered_rate, seed, drain_s, check,
    )
    reliability = system.reliability
    return {
        "variant": config.name,
        "victim_machine": victim,
        "offered_rate": offered_rate,
        "registered": reliability.registered,
        "completed": len(reliability.completions),
        "outstanding": reliability.outstanding,
        "goodput": len(reliability.completions) / duration_s,
        "recovery_s": _recovery_s(reliability, crash_at if crash else None),
        "replays": reliability.replays,
        "replayed_roots": len(reliability.replayed_completions()),
        "gave_up": len(reliability.gave_up),
        "repairs": sum(s.repair_count for s in system.multicast_services),
        "reattaches": sum(
            s.reattach_count for s in system.multicast_services
        ),
        "messages_dead": system.fabric.messages_dead,
        "check_report": report,
        "system": system,
    }


def ablation_node_failure(
    crash_at: float = 0.3,
    downtime_s: float = 0.25,
    duration_s: float = 1.0,
    parallelism: int = 24,
    n_machines: int = 8,
    seed: int = 42,
    check: Optional[str] = "strict",
) -> Table:
    """Recovery time and goodput after an interior-relay crash."""
    table = Table(
        f"Ablation: interior-relay crash (k={parallelism}, crash at "
        f"{crash_at:g}s, down {downtime_s:g}s, run {duration_s:g}s)",
        [
            "scenario",
            "goodput tuple/s",
            "recovery time s",
            "tuples completed",
            "replays",
            "replayed roots",
            "gave up",
            "repairs",
            "reattaches",
            "msgs dead",
        ],
    )
    for label, crash in (("no fault", False), ("crash+recover", True)):
        point = node_failure_run(
            crash=crash,
            crash_at=crash_at,
            downtime_s=downtime_s,
            duration_s=duration_s,
            parallelism=parallelism,
            n_machines=n_machines,
            seed=seed,
            check=check,
        )
        table.add(
            label,
            point["goodput"],
            point["recovery_s"],
            point["completed"],
            point["replays"],
            point["replayed_roots"],
            point["gave_up"],
            point["repairs"],
            point["reattaches"],
            point["messages_dead"],
        )
    table.note(
        "recovery time = crash until the last replayed broadcast tuple "
        "completed at every destination instance; goodput counts "
        "distinct fully-delivered tuples (replay duplicates are deduped "
        "by the set-based trackers). The crashed machine's endpoint is "
        "repaired out of the relay tree on suspicion and reattached on "
        "recovery; timed-out tuples are replayed by the acker."
    )
    return table


# ----------------------------------------------------------------------
# delivery semantics: all four guarantees under one fault schedule
# ----------------------------------------------------------------------
def _delivery_config(delivery: str) -> Any:
    """Full Whale tuned for fast fault turnaround, in one delivery mode."""
    return whale_full_config(adaptive=False).with_overrides(
        name=f"whale-{delivery}",
        delivery=delivery,
        failure_detection=True,
        ack_timeout_s=0.15,
        ack_sweep_interval_s=0.02,
        max_replays=8,
        epoch_interval_s=0.1,
    )


def delivery_semantics_run(
    delivery: str,
    fault_schedule: Optional[FaultSchedule] = None,
    duration_s: float = 1.0,
    parallelism: int = 24,
    n_machines: int = 8,
    offered_rate: Optional[float] = None,
    seed: int = 42,
    drain_s: float = 2.0,
    check: Optional[str] = None,
) -> Dict[str, Any]:
    """One measured run under ``delivery``; returns the raw measurements.

    ``check`` attaches a runtime :class:`~repro.check.InvariantChecker`
    (``"strict"`` raises on the first breach — in particular
    no-duplicate-side-effects and group-atomicity for the strong modes)
    and finalizes it after the drain.  Delivered-tuple counts come from
    the mode-independent completion tracker (a
    :class:`~repro.dsps.metrics.FanoutTracker`), so goodput means the same thing in every mode: distinct broadcast
    tuples executed at every destination instance.
    """
    system, offered_rate, report = _fault_run(
        _delivery_config(delivery), fault_schedule, duration_s,
        parallelism, n_machines, offered_rate, seed, drain_s, check,
    )
    reliability = system.reliability
    completion = system.metrics.completion
    crash_times = fault_schedule.crash_times if fault_schedule else []
    first_crash = min((t for t, _ in crash_times), default=None)
    counters = {
        name: getattr(reliability, name, 0)
        for name in ("replays", "duplicate_executions", "duplicates_suppressed",
                     "commits", "aborts", "epochs_committed", "outstanding")
    }
    counters["registered"] = (
        reliability.registered if reliability else completion.registered)
    delivered = completion.completed
    return {
        "delivery": delivery,
        "offered_rate": offered_rate,
        "delivered": delivered,
        "goodput": delivered / duration_s,
        "p50_latency_s": completion.summary().p50,
        "recovery_s": _recovery_s(reliability, first_crash),
        "abandoned": system.metrics.messages_abandoned,
        "control_bytes": system.traffic_bytes("control"),
        "check_report": report,
        "system": system,
        **counters,
    }


def ablation_delivery_semantics(
    duration_s: float = 0.8,
    parallelism: int = 18,
    n_machines: int = 8,
    offered_rate: Optional[float] = 200.0,
    seed: int = 42,
    n_crashes: int = 2,
    n_link_flaps: int = 2,
    check: Optional[str] = "strict",
) -> Table:
    """Goodput/latency/recovery of all four delivery guarantees under
    one identical seeded crash + link-flap schedule."""
    eligible = _crash_candidates(
        _delivery_config("at_least_once"), parallelism, n_machines, seed
    )
    schedule = FaultSchedule.random(
        eligible,
        horizon_s=duration_s,
        n_crashes=min(n_crashes, len(eligible)),
        seed=seed,
        min_downtime_s=0.1,
        max_downtime_s=0.25,
        n_link_flaps=n_link_flaps,
    )
    table = Table(
        f"Ablation: delivery semantics under {n_crashes} crashes + "
        f"{n_link_flaps} link flaps (k={parallelism}, run {duration_s:g}s, "
        f"seed {seed})",
        [
            "delivery",
            "goodput tuple/s",
            "p50 latency ms",
            "recovery ms",
            "replays",
            "dup execs",
            "dups suppressed",
            "abandoned",
            "commits",
            "aborts",
            "ctl KB",
        ],
    )
    for mode in ("at_most_once", "at_least_once", "exactly_once", "atomic"):
        point = delivery_semantics_run(
            mode,
            fault_schedule=schedule,
            duration_s=duration_s,
            parallelism=parallelism,
            n_machines=n_machines,
            offered_rate=offered_rate,
            seed=seed,
            check=check,
        )
        table.add(
            mode,
            point["goodput"],
            1e3 * point["p50_latency_s"],
            1e3 * point["recovery_s"],
            point["replays"],
            point["duplicate_executions"],
            point["duplicates_suppressed"],
            point["abandoned"],
            point["commits"],
            point["aborts"],
            point["control_bytes"] / 1e3,
        )
    table.note(
        "identical seeded fault schedule for every row; goodput counts "
        "distinct broadcast tuples executed at every destination "
        "instance (set-based tracker, so at-least-once duplicates do "
        "not inflate it). exactly_once adds per-destination dedup + "
        "selective replay + epoch GC on top of at_least_once; atomic "
        "buffers at the destinations and releases commits in per-sender "
        "order (all-or-none). Runs are strict-checked: "
        "no-duplicate-side-effects and group-atomicity hold throughout."
    )
    return table


# ----------------------------------------------------------------------
# overload: flash crowd + crash, with and without the flow layer
# ----------------------------------------------------------------------
#: receiver credit window used by the overload ablation; its table
#: reports it per row so the claim check can bound queue depths by it.
OVERLOAD_CREDIT_WINDOW = 32


def _overload_config(delivery: str, flow: bool) -> Any:
    """:func:`_delivery_config` with or without the overload-protection
    (flow) layer."""
    return _delivery_config(delivery).with_overrides(
        name=f"whale-{delivery}-{'flow' if flow else 'noflow'}",
        flow=flow,
        shed_policy="drop_head",
        credit_window=OVERLOAD_CREDIT_WINDOW,
        max_spout_pending=64,
        replay_rate_per_s=400.0,
        replay_burst=16,
    )


def overload_run(
    delivery: str,
    flow: bool,
    fault_schedule: Optional[FaultSchedule] = None,
    duration_s: float = 0.8,
    parallelism: int = 18,
    n_machines: int = 8,
    offered_rate: float = 200.0,
    seed: int = 42,
    drain_s: float = 2.0,
    check: Optional[str] = None,
) -> Dict[str, Any]:
    """One measured run under overload; returns the raw measurements.

    Goodput comes from the mode-independent completion tracker, so flow
    on/off rows are comparable: distinct broadcast tuples executed at
    every destination instance.  Queue pressure is reported as the
    worst per-executor input-queue high-water mark — the figure that
    grows without bound when nothing pushes back on the spouts.
    """
    system, offered_rate, report = _fault_run(
        _overload_config(delivery, flow), fault_schedule, duration_s,
        parallelism, n_machines, offered_rate, seed, drain_s, check,
    )
    reliability = system.reliability
    metrics = system.metrics
    completion = metrics.completion
    delivered = completion.completed
    inqueue_hwm = max(
        (getattr(ex, "inqueue_hwm", 0) for ex in system.executors.values()),
        default=0,
    )
    transfer_hwm = max(
        (ex.transfer_queue.max_length for ex in system.executors.values()),
        default=0,
    )
    flow_stats = system.flow.snapshot() if system.flow is not None else {}
    return {
        "delivery": delivery,
        "flow": flow,
        "offered_rate": offered_rate,
        "delivered": delivered,
        "goodput": delivered / duration_s,
        "inqueue_hwm": inqueue_hwm,
        "transfer_hwm": transfer_hwm,
        "shed": metrics.messages_shed,
        "deferred": metrics.messages_deferred,
        "stall_s": sum(metrics.credit_stall_s.values()),
        "acker_pending_hwm": metrics.acker_pending_hwm,
        "replays": reliability.replays if reliability is not None else 0,
        "abandoned": metrics.messages_abandoned,
        "outstanding": (
            reliability.outstanding if reliability is not None else 0
        ),
        "flow_stats": flow_stats,
        "check_report": report,
        "system": system,
    }


def ablation_overload(
    duration_s: float = 0.8,
    parallelism: int = 18,
    n_machines: int = 8,
    offered_rate: float = 200.0,
    seed: int = 42,
    burst_at: float = 0.15,
    burst_magnitude: float = 8.0,
    burst_duration_s: float = 0.3,
    n_crashes: int = 1,
    check: Optional[str] = "strict",
) -> Table:
    """Goodput and queue growth with and without the flow layer, under
    one identical seeded flash-crowd + slow-node + crash schedule."""
    eligible = _crash_candidates(
        _overload_config("at_least_once", False), parallelism, n_machines, seed
    )
    crash_schedule = FaultSchedule.random(
        eligible,
        horizon_s=duration_s,
        n_crashes=min(n_crashes, len(eligible)),
        seed=seed,
        min_downtime_s=0.1,
        max_downtime_s=0.2,
    )
    events = list(crash_schedule.events)
    events.append(
        FaultEvent.flash_crowd(burst_at, burst_magnitude, burst_duration_s)
    )
    events.append(
        FaultEvent.slow_node(burst_at, eligible[0], 3.0, burst_duration_s)
    )
    schedule = FaultSchedule(events)
    table = Table(
        f"Ablation: overload protection under a {burst_magnitude:g}x flash "
        f"crowd + slow node + {n_crashes} crash (k={parallelism}, run "
        f"{duration_s:g}s, seed {seed})",
        [
            "delivery",
            "flow",
            "goodput tuple/s",
            "delivered",
            "inqueue hwm",
            "credit window",
            "shed",
            "deferred",
            "stall s",
            "replays",
            "abandoned",
        ],
    )
    for mode in ("at_most_once", "at_least_once", "exactly_once"):
        for flow in (False, True):
            point = overload_run(
                mode,
                flow,
                fault_schedule=schedule,
                duration_s=duration_s,
                parallelism=parallelism,
                n_machines=n_machines,
                offered_rate=offered_rate,
                seed=seed,
                check=check,
            )
            table.add(
                mode,
                "on" if flow else "off",
                point["goodput"],
                point["delivered"],
                point["inqueue_hwm"],
                OVERLOAD_CREDIT_WINDOW if flow else 0,
                point["shed"],
                point["deferred"],
                point["stall_s"],
                point["replays"],
                point["abandoned"],
            )
    table.note(
        "identical seeded overload timeline for every row: a flash crowd "
        f"multiplies every spout's arrival rate by {burst_magnitude:g}x "
        f"for {burst_duration_s:g}s, one machine runs 3x slow over the "
        "same window, and one machine crashes and recovers. With the "
        "flow layer off nothing pushes back on the spouts, so executor "
        "input queues grow toward their hard caps; with it on, "
        "receiver-driven credits bound every input queue near the "
        f"credit window ({OVERLOAD_CREDIT_WINDOW}), unreliable spouts "
        "shed at the source (drop_head), reliable spouts defer behind "
        "the admission gate, and replays are rate-limited. Runs are "
        "strict-checked: bounded-queues and shed-conservation hold "
        "throughout."
    )
    return table
