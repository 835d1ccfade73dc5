"""Worker-oriented tuple formats (Fig. 9b and Section 3.5).

Storm's format (Fig. 9a) repeats ``[header | dstId | data]`` once per
destination instance; Whale's ``BatchTuple`` packages the destination
instance ids hosted on one worker together with the data item, so the
item is serialized once per *worker*:

    ``BatchTuple = [header | dstIds... | data item]``

A serialized ``BatchTuple`` travelling the wire is a ``WorkerMessage``;
the receiving worker's dispatcher deserializes it once and hands the
tuple to every local destination executor in one call
(:meth:`~repro.dsps.worker.Worker.dispatch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.dsps.scheduler import Placement
from repro.dsps.tuples import StreamTuple
from repro.net.serialization import SerializationModel


@dataclass(frozen=True)
class BatchTuple:
    """One data item + the destination task ids on one worker."""

    tuple: StreamTuple
    dst_task_ids: tuple

    def __post_init__(self) -> None:
        if not self.dst_task_ids:
            raise ValueError("BatchTuple needs at least one destination id")

    @property
    def n_destinations(self) -> int:
        return len(self.dst_task_ids)

    def wire_bytes(self, ser: SerializationModel) -> int:
        return ser.batch_message_bytes(
            self.tuple.payload_bytes, len(self.dst_task_ids)
        )


@dataclass(frozen=True)
class WorkerMessage:
    """A serialized BatchTuple addressed to one destination worker."""

    batch: BatchTuple
    dst_machine: int
    size_bytes: int


def group_tasks_by_machine(
    placement: Placement, tasks: Sequence[int]
) -> Dict[int, List[int]]:
    """Group destination task ids by hosting machine (stable order)."""
    groups: Dict[int, List[int]] = {}
    for task in tasks:
        groups.setdefault(placement.machine_of[task], []).append(task)
    return dict(sorted(groups.items()))


def make_worker_messages(
    placement: Placement,
    ser: SerializationModel,
    tup: StreamTuple,
    dst_tasks: Sequence[int],
) -> List[WorkerMessage]:
    """Build the WorkerMessages one emit produces under worker-oriented
    communication: one per destination machine."""
    messages = []
    for machine, tasks in group_tasks_by_machine(placement, dst_tasks).items():
        batch = BatchTuple(tuple=tup, dst_task_ids=tuple(tasks))
        messages.append(
            WorkerMessage(
                batch=batch,
                dst_machine=machine,
                size_bytes=batch.wire_bytes(ser),
            )
        )
    return messages
