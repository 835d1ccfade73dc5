"""Tuple wire-size model (the paper's Fig. 9 formats).

Storm's instance-oriented format carries *one* destination task id per
message and serializes the data item once **per destination**:

    ``[header | dstId | payload]``            (Fig. 9a)

Whale's worker-oriented ``BatchTuple`` carries *all* destination task ids
hosted on the target worker and serializes the data item once **per
worker**:

    ``[header | k × dstId | payload]``        (Fig. 9b)

This module computes the wire sizes and the CPU serialization costs for
both, so the traffic (Figs. 27/28) and serialization-share (Fig. 26)
experiments fall straight out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.costs import CostModel


@dataclass(frozen=True)
class SerializationModel:
    """Wire sizes + CPU costs derived from a :class:`CostModel`."""

    costs: CostModel

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    def instance_message_bytes(self, payload_bytes: int) -> int:
        """Size of one Storm-style single-destination message."""
        return (
            self.costs.tuple_header_bytes
            + self.costs.dst_id_bytes
            + payload_bytes
        )

    def batch_message_bytes(self, payload_bytes: int, n_dst_ids: int) -> int:
        """Size of one Whale-style BatchTuple / WorkerMessage."""
        if n_dst_ids < 1:
            raise ValueError(f"BatchTuple needs >= 1 destination, got {n_dst_ids}")
        return (
            self.costs.tuple_header_bytes
            + self.costs.dst_id_bytes * n_dst_ids
            + payload_bytes
        )

    def control_message_bytes(self) -> int:
        return self.costs.control_message_bytes

    # ------------------------------------------------------------------
    # CPU costs
    # ------------------------------------------------------------------
    def serialize_instance_message(self, payload_bytes: int) -> float:
        """CPU to serialize one single-destination message."""
        return self.costs.serialize_time(self.instance_message_bytes(payload_bytes))

    def serialize_batch_message(self, payload_bytes: int, n_dst_ids: int) -> float:
        """CPU to serialize one BatchTuple (data item serialized once;
        the id list is a cheap header append)."""
        return self.costs.serialize_time(
            self.batch_message_bytes(payload_bytes, n_dst_ids)
        )

    def deserialize(self, size_bytes: int) -> float:
        return self.costs.deserialize_time(size_bytes)
