"""Wire message model.

A :class:`WireMessage` is what actually crosses a link: an opaque byte
blob of ``size_bytes`` with enough metadata for the receiver to account
its CPU and for the metrics layer to count traffic.  The logical content
(tuple, BatchTuple, ControlMessage, ...) rides in ``payload`` untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class WireMessage:
    """One message on the wire."""

    payload: Any
    size_bytes: int
    src_machine: int
    dst_machine: int
    #: "data" | "control" | "ack" — control traffic is Whale's tree rewiring.
    kind: str = "data"
    #: CPU seconds the receiver must spend to take delivery (kernel TCP
    #: receive path, or RDMA completion reaping; 0 for one-sided verbs).
    recv_cpu_s: float = 0.0
    #: Invoked by the fabric at delivery time (used by the RNIC layer to
    #: recycle ring memory regions once the wire has consumed them).
    on_delivered: Optional[Callable[["WireMessage"], None]] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size: {self.size_bytes}")
