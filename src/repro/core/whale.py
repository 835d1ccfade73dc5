"""Whale system presets and builder.

The evaluation's ablation ladder (Section 5.1 notation):

* **Whale-WOC** — worker-oriented communication only, still TCP;
* **Whale-WOC-RDMA** — + the optimized RDMA primitives: one-sided READ
  data path, ring memory region, MMS/WTL stream slicing;
* **Whale-WOC-RDMA-Nonblock** (= full Whale) — + the self-adjusting
  non-blocking multicast tree;
* **Whale_DiffVerbs** — the verb-selection ablation of Figs. 31/32
  (READ for data, two-sided SEND for control), identical to
  Whale-WOC-RDMA.

:func:`create_system` builds a :class:`~repro.dsps.system.DspsSystem`
from any config; an adaptive or failure-detecting system carries one
:class:`~repro.core.controller.MulticastController` per one-to-many edge.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dsps.config import SystemConfig
from repro.dsps.system import ArrivalFn, DspsSystem
from repro.dsps.topology import Topology
from repro.net.cluster import Cluster
from repro.net.costs import CostModel
from repro.net.rdma import Verb


def whale_woc_config(costs: Optional[CostModel] = None, **overrides) -> SystemConfig:
    """Whale-WOC: worker-oriented communication over TCP."""
    cfg = SystemConfig(
        name="whale-woc",
        transport="tcp",
        worker_oriented=True,
        multicast="sequential",
        adaptive=False,
        slicing=False,
        costs=costs or CostModel(),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def whale_woc_rdma_config(
    costs: Optional[CostModel] = None, **overrides
) -> SystemConfig:
    """Whale-WOC-RDMA: + one-sided READ data path, ring memory region,
    and MMS/WTL stream slicing."""
    cfg = SystemConfig(
        name="whale-woc-rdma",
        transport="rdma",
        data_verb=Verb.READ,
        worker_oriented=True,
        multicast="sequential",
        adaptive=False,
        slicing=True,
        costs=costs or CostModel(),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def whale_full_config(
    costs: Optional[CostModel] = None,
    d_star: int = 3,
    adaptive: bool = True,
    **overrides,
) -> SystemConfig:
    """Whale-WOC-RDMA-Nonblock: the complete system."""
    cfg = SystemConfig(
        name="whale",
        transport="rdma",
        data_verb=Verb.READ,
        worker_oriented=True,
        multicast="nonblocking",
        d_star=d_star,
        adaptive=adaptive,
        slicing=True,
        costs=costs or CostModel(),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def whale_diffverbs_config(
    costs: Optional[CostModel] = None, **overrides
) -> SystemConfig:
    """Whale_DiffVerbs (Figs. 31/32): suitable verbs per message class."""
    return whale_woc_rdma_config(costs, **overrides).with_overrides(
        name="whale-diffverbs"
    )


def create_system(
    topology: Topology,
    config: SystemConfig,
    cluster: Optional[Cluster] = None,
    arrivals: Optional[Dict[str, ArrivalFn]] = None,
    seed: int = 0,
    fabric_options: Optional[Dict] = None,
    tracer=None,
    fault_schedule=None,
) -> DspsSystem:
    """Build a :class:`~repro.dsps.system.DspsSystem`.

    The system carries its controllers as ``system.controllers`` (empty
    for non-adaptive variants): one per multicast service when the config
    adapts d*, or when ``config.failure_detection`` runs the heartbeat
    failure detector and tree self-healing.  ``tracer`` (a
    :class:`~repro.trace.Tracer`) enables structured run tracing;
    ``fault_schedule`` (a :class:`~repro.faults.FaultSchedule`) injects
    machine crashes/recoveries at the scheduled sim times.
    """
    return DspsSystem(
        topology,
        config,
        cluster=cluster,
        arrivals=arrivals,
        seed=seed,
        fabric_options=fabric_options,
        tracer=tracer,
        fault_schedule=fault_schedule,
    )
