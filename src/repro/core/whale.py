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
from any config and — when the config is adaptive — attaches one
:class:`~repro.core.controller.MulticastController` per one-to-many edge.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.controller import MulticastController
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
        control_verb=Verb.SEND,
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
        control_verb=Verb.SEND,
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
    """Build a system; attach and start controllers for adaptive configs.

    Controllers are exposed as ``system.controllers`` (empty for
    non-adaptive variants).  A controller is also attached per multicast
    service when ``config.failure_detection`` is on, running the
    heartbeat failure detector and tree self-healing.  ``tracer`` (a
    :class:`~repro.trace.Tracer`) enables structured run tracing;
    ``fault_schedule`` (a :class:`~repro.faults.FaultSchedule`) injects
    machine crashes/recoveries at the scheduled sim times.
    """
    # Restart the process-global id streams (tuples, wire messages) so a
    # run's trace is bit-identical for a given seed no matter how many
    # systems were built earlier in the same process.
    from repro.dsps import tuples as _tuples
    from repro.net import message as _message

    _tuples.reset_ids()
    _message.reset_ids()
    system = DspsSystem(
        topology,
        config,
        cluster=cluster,
        arrivals=arrivals,
        seed=seed,
        fabric_options=fabric_options,
        tracer=tracer,
        fault_schedule=fault_schedule,
    )
    controllers: List[MulticastController] = []
    need_controllers = (
        config.adaptive and config.multicast == "nonblocking"
    ) or config.failure_detection
    if need_controllers:
        for service in system.multicast_services:
            controllers.append(MulticastController(system, service))
    system.controllers = controllers  # type: ignore[attr-defined]
    _orig_start = system.start

    def _start_with_controllers() -> None:
        _orig_start()
        for controller in controllers:
            controller.start()

    system.start = _start_with_controllers  # type: ignore[method-assign]
    return system
