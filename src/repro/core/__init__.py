"""Whale: the paper's contribution, assembled on the DSPS substrate.

* :mod:`repro.core.monitor` — the statistics-monitoring module
  (Section 4): ``StreamMonitor`` (alpha-weighted input-rate estimate) and
  ``QueueMonitor`` (transfer-queue waterline tracking).
* :mod:`repro.core.controller` — the multicast controller: the
  queue-based self-adjusting mechanism (Section 3.3) driving dynamic
  switching (Section 3.4) of the non-blocking multicast tree.
* :mod:`repro.core.whale` — system presets for every Whale variant of the
  evaluation and :func:`~repro.core.whale.create_system`.
"""

from repro.core.controller import MulticastController, RepairRecord, SwitchRecord
from repro.core.monitor import FailureDetector, QueueMonitor, StreamMonitor
from repro.core.whale import (
    create_system,
    whale_diffverbs_config,
    whale_full_config,
    whale_woc_config,
    whale_woc_rdma_config,
)

__all__ = [
    "FailureDetector",
    "MulticastController",
    "QueueMonitor",
    "RepairRecord",
    "StreamMonitor",
    "SwitchRecord",
    "create_system",
    "whale_diffverbs_config",
    "whale_full_config",
    "whale_woc_config",
    "whale_woc_rdma_config",
]
