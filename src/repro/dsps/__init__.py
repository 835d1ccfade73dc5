"""A Storm-like distributed stream processing substrate.

Whale is published as a modification of Apache Storm; this package is the
Storm it modifies.  It provides:

* a logical topology model (spouts, bolts, stream groupings) —
  :mod:`repro.dsps.topology`, :mod:`repro.dsps.api`,
  :mod:`repro.dsps.grouping`;
* task placement onto a simulated cluster (one worker per machine, tasks
  round-robin) — :mod:`repro.dsps.scheduler`;
* the execution engine: executors with bounded incoming/transfer queues,
  worker processes with receive threads and dispatchers —
  :mod:`repro.dsps.executor`, :mod:`repro.dsps.worker`;
* pluggable communication modes (instance-oriented as in Storm,
  worker-oriented as in Whale, relay multicast over any
  :class:`~repro.multicast.tree.MulticastTree`) — :mod:`repro.dsps.comm`;
* metrics (throughput, processing latency, multicast latency, traffic,
  CPU breakdowns) — :mod:`repro.dsps.metrics`;
* system assembly + the baseline presets (Storm, RDMA-based Storm) —
  :mod:`repro.dsps.system`, :mod:`repro.dsps.presets`.
"""

from repro.dsps.api import Bolt, Spout, TupleContext
from repro.dsps.config import BACKENDS, SystemConfig
from repro.dsps.grouping import (
    STRATEGIES,
    AllGrouping,
    ConsistentHashGrouping,
    FieldsGrouping,
    Grouping,
    KeySplitGrouping,
    LoadAdaptiveGrouping,
    LocalityAwareGrouping,
    ShuffleGrouping,
    make_grouping,
    register_strategy,
)
from repro.dsps.metrics import MetricsHub
from repro.dsps.rebalance import PartitionRouter, Rebalancer
from repro.dsps.scheduler import Placement
from repro.dsps.system import DspsSystem
from repro.dsps.topology import Topology
from repro.dsps.tuples import StreamTuple
from repro.dsps.presets import rdma_storm_config, storm_config

__all__ = [
    "AllGrouping",
    "BACKENDS",
    "Bolt",
    "ConsistentHashGrouping",
    "DspsSystem",
    "FieldsGrouping",
    "Grouping",
    "KeySplitGrouping",
    "LoadAdaptiveGrouping",
    "LocalityAwareGrouping",
    "MetricsHub",
    "PartitionRouter",
    "Placement",
    "Rebalancer",
    "STRATEGIES",
    "ShuffleGrouping",
    "Spout",
    "StreamTuple",
    "SystemConfig",
    "Topology",
    "TupleContext",
    "make_grouping",
    "rdma_storm_config",
    "register_strategy",
    "storm_config",
]
