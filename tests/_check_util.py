"""Shared builders for the ``repro.check`` test suites.

A tiny broadcast topology (one spout, one all-grouped sink operator)
with deterministic finite arrivals: small enough that fuzzed scenarios
run in milliseconds, real enough to exercise every subsystem the
invariant catalog watches (multicast trees, transfer queues, trackers,
fabric, replay).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import create_system
from repro.dsps import AllGrouping, Bolt, Spout, Topology
from repro.net import Cluster


class SeqSpout(Spout):
    """Emits ``{"seq": 1}``, ``{"seq": 2}``, ... — the sequence number
    makes delivered tuples comparable across system variants."""

    payload_bytes = 120

    def __init__(self):
        self.sequence = 0

    def next_tuple(self):
        self.sequence += 1
        return {"seq": self.sequence}, None, self.payload_bytes


class RecordingBolt(Bolt):
    """Appends ``(seq, task_id)`` for every executed tuple to a shared
    log — the delivered-tuple multiset of the run."""

    base_service_s = 2e-6

    def __init__(self, log: List[Tuple[int, int]]):
        self._log = log
        self._task_id: Optional[int] = None

    def prepare(self, ctx):
        self._task_id = ctx.task_id

    def execute(self, tup, collector):
        self._log.append((tup.values["seq"], self._task_id))


def broadcast_topology(parallelism: int, log: Optional[list] = None):
    """One-to-many topology; returns ``(topology, log)`` where ``log``
    collects the executed (seq, task_id) pairs."""
    shared: list = [] if log is None else log
    topo = Topology("check")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt(
        "sink",
        lambda: RecordingBolt(shared),
        parallelism=parallelism,
        inputs={"src": AllGrouping()},
        terminal=True,
    )
    return topo, shared


def finite_arrivals(gap_s: float, n_tuples: int):
    """Deterministic arrival process: ``n_tuples`` at a fixed gap, then
    stop (the spout's arrival loop exits)."""
    remaining = [n_tuples]

    def gap(now: float):
        if remaining[0] <= 0:
            return None
        remaining[0] -= 1
        return gap_s

    return gap


def build_checked_system(
    config,
    parallelism: int = 6,
    n_machines: int = 3,
    n_tuples: int = 50,
    gap_s: float = 0.002,
    seed: int = 1,
    tracer=None,
    fault_schedule=None,
    fabric_options=None,
    check: Optional[str] = "strict",
    **checker_kwargs,
):
    """Build a small broadcast system; returns ``(system, log)``.

    With ``check`` set, an :class:`~repro.check.InvariantChecker` is
    attached (as ``system.checker``) before anything runs.
    """
    topo, log = broadcast_topology(parallelism)
    system = create_system(
        topo,
        config,
        cluster=Cluster(n_machines, 1, 16),
        arrivals={"src": finite_arrivals(gap_s, n_tuples)},
        seed=seed,
        tracer=tracer,
        fault_schedule=fault_schedule,
        fabric_options=fabric_options,
    )
    if check:
        system.attach_checker(mode=check, **checker_kwargs)
    return system, log


def run_windowed(system, warmup_s=0.02, measure_s=0.3, drain_s=0.3):
    """The standard measured-run shape: warmup, window, then a drain to
    quiet (at most ``drain_s``) after the window closes."""
    system.run_measured(warmup_s, measure_s)
    if drain_s > 0:
        system.drain(system.sim.now + drain_s)
    return system
