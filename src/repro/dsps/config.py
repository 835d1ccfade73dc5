"""System configuration: which of the paper's mechanisms are enabled.

One :class:`SystemConfig` describes a complete system variant.  The
baselines and every Whale ablation of Section 5 are points in this space:

==========================  =========  ==============  =========  ============
variant                     transport  communication   multicast  adaptive d*
==========================  =========  ==============  =========  ============
Storm                       tcp        instance        sequential no
RDMA-based Storm            rdma/send  instance        sequential no
RDMC                        rdma/send  instance        binomial   no
Whale-WOC                   tcp        worker          sequential no
Whale-WOC-RDMA              rdma/read  worker          sequential no
Whale-WOC-RDMA-Nonblock     rdma/read  worker          nonblocking yes
==========================  =========  ==============  =========  ============
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.multicast.build import STRUCTURES
from repro.net.costs import CostModel
from repro.net.rdma import Verb

#: delivery guarantees understood by the reliability layer, weakest first.
DELIVERY_MODES = ("at_most_once", "at_least_once", "exactly_once", "atomic")

#: execution backends a topology can run on: the discrete-event
#: simulation (figures/claims) and the wall-clock asyncio runtime
#: (:mod:`repro.rt`, real sockets).
BACKENDS = ("sim", "asyncio")

#: warning waterline l_w as a fraction of the transfer-queue capacity Q
#: (Section 3.3).
WARNING_WATERLINE_FRACTION = 0.5


@dataclass(frozen=True)
class SystemConfig:
    """Feature switches + tuning knobs for one system variant."""

    name: str
    #: "tcp" or "rdma"
    transport: str = "tcp"
    #: verb for data messages on the RDMA transport (control messages
    #: always use two-sided SEND)
    data_verb: Verb = Verb.SEND
    #: instance-oriented (Storm) vs worker-oriented (Whale) communication
    worker_oriented: bool = False
    #: multicast structure for one-to-many streams:
    #: "sequential" | "binomial" | "nonblocking"
    multicast: str = "sequential"
    #: initial d* for the nonblocking structure
    d_star: int = 3
    #: queue-based self-adjusting mechanism (Section 3.3) on/off
    adaptive: bool = False
    #: MMS/WTL stream slicing on the RDMA data path (Section 4)
    slicing: bool = False
    #: batched terminal-bolt dispatch: terminal sinks compute service
    #: completions arithmetically instead of one working-thread callback
    #: per service.  Only engages on terminal operators with no
    #: downstream and no reliability or flow layer (see
    #: ``BoltExecutor``), traced or not; results are equivalent up to
    #: same-instant tie ordering.  ``False`` keeps every bolt on the
    #: working thread, the reference path.
    batched_dispatch: bool = True

    # --- queues -----------------------------------------------------------
    #: transfer-queue capacity Q (tuples) of each executor's send queue
    transfer_queue_capacity: int = 512
    #: executor incoming-queue capacity
    executor_queue_capacity: int = 4096

    # --- adaptive mechanism (Section 3.3; thresholds in core.controller) ---
    monitor_interval_s: float = 0.05  # Delta t

    # --- reliability (delivery semantics via the acker) ---------------------
    #: delivery guarantee for one-to-many spout tuples:
    #: ``"at_most_once"`` (fire-and-forget), ``"at_least_once"``
    #: (acker-driven full-tree replay), ``"exactly_once"`` (at-least-once
    #: + per-destination dedup, selective replay, epoch GC), or
    #: ``"atomic"`` (sender-ordered all-or-none multicast).
    delivery: str = "at_most_once"
    #: tree age at which the acker declares a timeout (Storm's
    #: TOPOLOGY_MESSAGE_TIMEOUT_SECS, scaled to simulated seconds)
    ack_timeout_s: float = 0.5
    #: how often the replay coordinator sweeps for expired trees
    ack_sweep_interval_s: float = 0.05
    #: replay attempts per root before giving up
    max_replays: int = 5
    #: epoch barrier period for exactly-once/atomic dedup-state GC: the
    #: replay coordinator closes an epoch at the spout every interval and
    #: garbage-collects dedup tables once every tree of a closed epoch
    #: has settled (completed, committed, or abandoned)
    epoch_interval_s: float = 0.25

    # --- overload protection (flow control + shedding) ----------------------
    #: end-to-end overload-protection layer: receiver-driven credits on
    #: one-to-many sends, a spout admission gate on the acker's pending
    #: count, load shedding at full transfer queues (reliable modes
    #: defer-and-retry instead of shedding), and a global replay-rate
    #: budget.  See :mod:`repro.dsps.flow`.
    flow: bool = False
    #: what to do when an unreliable send meets a full transfer queue:
    #: ``"drop_tail"`` (refuse the newcomer), ``"drop_head"`` (evict the
    #: oldest queued envelope), or ``"random"`` (evict a seeded-random
    #: victim)
    shed_policy: str = "drop_tail"
    #: per-destination-task credit window: a one-to-many send waits until
    #: every destination's input queue + in-flight reservations fit
    credit_window: int = 64
    #: admission gate: spouts pause while the acker tracks this many
    #: outstanding tuple trees (Storm's TOPOLOGY_MAX_SPOUT_PENDING);
    #: ``None`` disables the gate
    max_spout_pending: Optional[int] = None
    #: global replay budget: token-bucket rate (replays/s) shared by all
    #: pending trees, so a post-crash replay storm cannot flood the fabric
    replay_rate_per_s: float = 200.0
    #: token-bucket burst: replays admitted back-to-back before the rate
    #: limit bites
    replay_burst: int = 20

    # --- partitioning + runtime rebalancing ---------------------------------
    #: system-wide partitioning-strategy override: a registry name from
    #: :data:`repro.dsps.grouping.STRATEGIES` (``"shuffle"``,
    #: ``"fields"``, ``"consistent_hash"``, ``"key_split"``,
    #: ``"locality"``, ``"load_adaptive"``).  Applied to every
    #: non-one-to-many edge (broadcast edges keep their ``all``
    #: semantics); ``None`` keeps the groupings declared on the topology.
    partitioning: Optional[str] = None
    #: constructor kwargs for the ``partitioning`` strategy (e.g.
    #: ``{"replicas": 3, "hot_threshold": 0.15}`` for ``key_split``)
    partitioning_params: Optional[Mapping[str, Any]] = None
    #: runtime rebalancer: periodically migrates partitions off
    #: overloaded executors by parking them (routing-level rewiring of
    #: the live task lists) and restoring them once drained.  Its scan
    #: period, waterline and cooldown are constants of
    #: :mod:`repro.dsps.rebalance`.
    rebalance: bool = False

    # --- execution backend ---------------------------------------------------
    #: which runtime executes the topology: ``"sim"`` (the DES — every
    #: figure and claim) or ``"asyncio"`` (the :mod:`repro.rt` wall-clock
    #: runtime: real sockets, real Python execution).  The config object
    #: is shared — both backends read the same delivery/flow/multicast
    #: knobs, which is what makes the sim-vs-real differential a fair
    #: comparison.
    backend: str = "sim"
    #: upper bound on a runtime's drain after the spouts stop: it ends at
    #: quiet, or after this many of the backend's seconds (wall-clock on
    #: asyncio, simulated on sim)
    rt_drain_timeout_s: float = 5.0

    # --- failure detection + tree self-healing -----------------------------
    #: heartbeat-based failure detector in the multicast controller
    #: (period and suspicion timeout in :mod:`repro.core.controller`)
    failure_detection: bool = False

    #: cost model (shared by all variants of one experiment)
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "rdma"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.multicast not in STRUCTURES:
            raise ValueError(f"unknown multicast structure {self.multicast!r}")
        if self.transfer_queue_capacity < 1:
            raise ValueError("transfer queue capacity must be >= 1")
        if self.slicing and self.transport != "rdma":
            raise ValueError("stream slicing requires the RDMA transport")
        if not isinstance(self.d_star, int) or self.d_star < 1:
            raise ValueError(f"d_star must be an int >= 1, got {self.d_star!r}")
        if self.ack_timeout_s <= 0:
            raise ValueError("ack timeout must be positive")
        if self.ack_sweep_interval_s <= 0:
            raise ValueError("ack sweep interval must be positive")
        if self.max_replays < 0:
            raise ValueError("max_replays must be >= 0")
        if self.delivery not in DELIVERY_MODES:
            raise ValueError(
                f"unknown delivery mode {self.delivery!r}; "
                f"choices: {DELIVERY_MODES}"
            )
        if self.epoch_interval_s <= 0:
            raise ValueError("epoch interval must be positive")
        if self.shed_policy not in ("drop_tail", "drop_head", "random"):
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; "
                "choices: drop_tail, drop_head, random"
            )
        if self.credit_window < 1:
            raise ValueError("credit window must be >= 1")
        if self.max_spout_pending is not None and self.max_spout_pending < 1:
            raise ValueError("max_spout_pending must be None or >= 1")
        if self.replay_rate_per_s <= 0:
            raise ValueError("replay rate must be positive")
        if self.replay_burst < 1:
            raise ValueError("replay burst must be >= 1")
        if self.partitioning is not None:
            from repro.dsps.grouping import STRATEGIES

            if self.partitioning not in STRATEGIES:
                raise ValueError(
                    f"unknown partitioning strategy {self.partitioning!r}; "
                    f"choices: {sorted(STRATEGIES)}"
                )
        if self.partitioning_params and self.partitioning is None:
            raise ValueError(
                "partitioning_params given without a partitioning strategy"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choices: {BACKENDS}"
            )
        if self.rt_drain_timeout_s <= 0:
            raise ValueError("rt drain timeout must be positive")

    @property
    def reliability_enabled(self) -> bool:
        """True when a :class:`~repro.dsps.reliability.ReplayCoordinator`
        tracks one-to-many spout tuples."""
        return self.delivery != "at_most_once"

    @property
    def warning_waterline(self) -> float:
        """l_w in tuples."""
        return WARNING_WATERLINE_FRACTION * self.transfer_queue_capacity

    def with_overrides(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)
