"""Tuple model.

A :class:`StreamTuple` is the logical unit of data; ``payload_bytes`` is
its serialized data-item size (what the cost model charges for).  A
worker's dispatcher hands it straight to each local destination
executor: Section 4's ``AddressedTuple`` (a tuple plus its task id) is
that call's argument pair, not an object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_tuple_ids = itertools.count()


def reset_ids() -> None:
    """Restart tuple-id allocation (called per system build so traces
    are reproducible regardless of prior runs in the process)."""
    global _tuple_ids
    _tuple_ids = itertools.count()


@dataclass
class StreamTuple:
    """One logical data item flowing through the topology."""

    stream: str
    values: Any
    key: Optional[Any] = None
    payload_bytes: int = 128
    #: Simulated time the tuple entered the system (spout emit).
    created_at: float = 0.0
    #: Operator that emitted this tuple.
    source_operator: str = ""
    tuple_id: int = field(default_factory=lambda: next(_tuple_ids))
    #: Id of the root (spout) tuple this one descends from, for
    #: end-to-end latency tracking across operator hops.
    root_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError(
                f"payload_bytes must be positive, got {self.payload_bytes}"
            )
        if self.root_id is None:
            self.root_id = self.tuple_id

    def derive(
        self,
        stream: str,
        values: Any,
        key: Optional[Any] = None,
        payload_bytes: Optional[int] = None,
        source_operator: str = "",
    ) -> "StreamTuple":
        """Create a child tuple anchored to this tuple's root."""
        return StreamTuple(
            stream=stream,
            values=values,
            key=key,
            payload_bytes=payload_bytes or self.payload_bytes,
            created_at=self.created_at,
            source_operator=source_operator,
            root_id=self.root_id,
        )
