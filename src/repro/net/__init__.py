"""Network and CPU cost substrate.

This package replaces the paper's physical testbed (30 machines, 1 Gbps
Ethernet + 56 Gbps InfiniBand FDR, Mellanox RNICs) with an explicit cost
model on top of the DES kernel:

* :mod:`repro.net.costs` — every per-operation CPU/wire cost in one place,
* :mod:`repro.net.cluster` — machines, racks, NIC ports,
* :mod:`repro.net.fabric` — links with bandwidth/latency and per-NIC egress
  serialization,
* :mod:`repro.net.cpu` — per-thread CPU time accounting (busy time broken
  down by category, for the paper's Fig. 2c/2d),
* :mod:`repro.net.serialization` — tuple wire-size model,
* :mod:`repro.net.tcp` / :mod:`repro.net.rdma` — the two transports,
* :mod:`repro.net.rnic`, :mod:`repro.net.ring`, :mod:`repro.net.slicing`
  — the RNIC work-request pipeline, ring memory region, and Whale's
  MMS/WTL stream-slicing batcher (Section 4 of the paper).
"""

from repro.net.costs import CostModel
from repro.net.cluster import Cluster, Machine
from repro.net.cpu import CpuAccount
from repro.net.fabric import Fabric, NicPort
from repro.net.message import WireMessage
from repro.net.serialization import SerializationModel
from repro.net.tcp import TcpTransport
from repro.net.rdma import RdmaTransport, Verb
from repro.net.ring import RingMemoryRegion
from repro.net.rnic import Rnic, WorkRequest
from repro.net.slicing import StreamSlicer

__all__ = [
    "Cluster",
    "CostModel",
    "CpuAccount",
    "Fabric",
    "Machine",
    "NicPort",
    "RdmaTransport",
    "RingMemoryRegion",
    "Rnic",
    "SerializationModel",
    "StreamSlicer",
    "TcpTransport",
    "Verb",
    "WireMessage",
    "WorkRequest",
]
