"""The calibrated cost model.

All per-operation CPU costs and wire parameters live here so that every
experiment states its economics in one auditable place.  Defaults are
calibrated to land the paper's qualitative knees (e.g. Storm's upstream
CPU saturating around parallelism ≈ 300 on a 16-core/1 Gbps node) while
staying honest about absolute numbers: we model a simulator, not the
authors' cluster.

Cost provenance (order-of-magnitude, from the RDMA/DSPS literature the
paper builds on):

* Kryo-style tuple serialization: a few µs fixed + tens of ns per byte.
* TCP/IP per-message kernel cost: 10–20 µs each way (syscall, copies,
  protocol processing) — the "packet processing with multi-layer network
  protocol" slice of the paper's Fig. 2d.
* RDMA verb post: ~1 µs of CPU; one-sided verbs cost the *target* zero
  CPU, which is the entire point of the paper's design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple


class Link(NamedTuple):
    """The wire a fabric is made of."""

    name: str
    bandwidth_bps: float
    latency_s: float


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU costs (seconds) and wire parameters."""

    # --- serialization (paper: Kryo on the JVM) --------------------------
    serialize_base_s: float = 3.0e-6
    serialize_per_byte_s: float = 25.0e-9
    deserialize_base_s: float = 2.0e-6
    deserialize_per_byte_s: float = 15.0e-9

    # --- TCP/IP kernel path ----------------------------------------------
    tcp_send_cpu_s: float = 18.0e-6
    tcp_recv_cpu_s: float = 12.0e-6

    # --- RDMA verbs --------------------------------------------------------
    #: CPU to build + post one work request (send/write/read initiator).
    rdma_post_cpu_s: float = 1.2e-6
    #: CPU at the receiver to reap a two-sided completion.
    rdma_twosided_recv_cpu_s: float = 1.0e-6
    #: CPU at the target of a one-sided verb (zero: kernel bypass + no CPU).
    rdma_onesided_target_cpu_s: float = 0.0
    #: Extra initiator CPU for a READ (it must also reap the response).
    rdma_read_completion_cpu_s: float = 0.6e-6
    #: RNIC work-request service time (DMA setup per WR, sender side).
    rnic_wr_service_s: float = 0.7e-6

    # Effective per-message verb profiles in Whale's ring pipeline
    # (Figs. 29/30: read >= write > send/recv on throughput, reversed on
    # latency).  READ is receiver-initiated; with the ring memory region
    # receivers know addresses ahead of time and keep reads pipelined, so
    # the *data sender* pays only ring bookkeeping.
    rdma_send_credit_cpu_s: float = 0.5e-6
    rdma_write_poll_cpu_s: float = 0.6e-6
    rdma_read_sender_cpu_s: float = 0.25e-6
    rdma_read_receiver_cpu_s: float = 1.0e-6

    # --- local work ---------------------------------------------------------
    #: Worker-side dispatch of one tuple copy to a local executor.
    dispatch_cpu_s: float = 0.5e-6
    #: Enqueue/dequeue bookkeeping on an executor queue.
    queue_op_cpu_s: float = 0.1e-6

    # --- wire format ----------------------------------------------------------
    tuple_header_bytes: int = 24
    dst_id_bytes: int = 4
    control_message_bytes: int = 64

    # --- links -------------------------------------------------------------
    ethernet_bandwidth_bps: float = 1.0e9
    ethernet_latency_s: float = 50.0e-6
    infiniband_bandwidth_bps: float = 56.0e9
    infiniband_latency_s: float = 1.5e-6
    #: Additional one-way latency per rack boundary crossed.
    rack_hop_latency_s: float = 0.5e-6

    # --- Whale knobs (Section 4 defaults chosen by the paper) -----------------
    mms_bytes: int = 256 * 1024
    wtl_s: float = 1.0e-3

    # ------------------------------------------------------------------
    # derived costs
    # ------------------------------------------------------------------
    def serialize_time(self, payload_bytes: int) -> float:
        """CPU time to serialize a payload of ``payload_bytes``."""
        return self.serialize_base_s + self.serialize_per_byte_s * payload_bytes

    def deserialize_time(self, payload_bytes: int) -> float:
        """CPU time to deserialize a payload of ``payload_bytes``."""
        return (
            self.deserialize_base_s + self.deserialize_per_byte_s * payload_bytes
        )

    def wire_time(self, nbytes: int, bandwidth_bps: float) -> float:
        """Pure transmission time of ``nbytes`` on a link."""
        return nbytes * 8.0 / bandwidth_bps

    def link(self, transport: str) -> Link:
        """The fabric a ``transport`` system runs on: Ethernet for TCP,
        InfiniBand for RDMA."""
        return {
            "tcp": Link("ethernet", self.ethernet_bandwidth_bps,
                        self.ethernet_latency_s),
            "rdma": Link("infiniband", self.infiniband_bandwidth_bps,
                         self.infiniband_latency_s),
        }[transport]

    def with_overrides(self, **kwargs) -> "CostModel":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


#: The default calibration used throughout the reproduction.
DEFAULT_COSTS = CostModel()
