"""The monitored, bounded transfer queue.

The *transfer queue* is the central object of the paper's queueing model:
the source instance's outgoing buffer with capacity ``Q``.  Whale's
self-adjusting mechanism watches its waterline; Storm and RDMC simply let
it fill up.  This subclass of :class:`~repro.sim.resources.Store` records
everything the monitors and the evaluation need:

* instantaneous and high-watermark length,
* time-weighted average length (for ``E(L)`` comparisons with the M/D/1
  model),
* offered/accepted/dropped counts (``try_put`` drops when full — the
  paper's *stream input loss*, Definition 4),
* per-item enqueue timestamps, so dequeue latency (the paper's queueing
  component of multicast latency) is measurable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional, Tuple

from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass
class QueueStats:
    """Aggregated statistics snapshot of a :class:`TransferQueue`."""

    offered: int
    accepted: int
    dropped: int
    max_length: int
    time_avg_length: float
    total_wait_time: float
    dequeued: int
    cleared: int = 0
    shed: int = 0


class TransferQueue(Store):
    """Bounded FIFO with waterline statistics.

    Items are stored as ``(enqueue_time, payload)`` internally;
    ``try_get`` returns only the payload.  Besides the refusing
    ``try_put``, :meth:`offer` is the blocking put of a callback chain
    (a replay must not lose its envelope to a full queue): offers wait
    FIFO for a slot, and a slot freed by ``try_get`` or ``evict`` admits
    the oldest one.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = math.inf,
        name: Optional[str] = None,
    ):
        super().__init__(sim, capacity)
        #: label used in trace records (``queue.put/get/drop``)
        self.name = name
        self.offered = 0
        self.accepted = 0
        self.dropped = 0
        self.max_length = 0
        self.total_wait_time = 0.0
        self.dequeued = 0
        #: items lost to ``clear()`` (machine crash); together with the
        #: other counters this closes the conservation identities checked
        #: by ``repro.check``: offered == accepted + dropped + waiting,
        #: accepted == dequeued + cleared + shed + level.
        self.cleared = 0
        #: items evicted by a shed policy (``evict``) to make room for a
        #: newcomer — accepted items that never reached a consumer
        self.shed = 0
        #: offers waiting for a slot: ``((enqueue_time, payload), then)``
        self.waiting: Deque[Tuple[Tuple[float, Any], Callable[[], None]]] = deque()
        self._area = 0.0  # integral of length over time
        self._created = sim.now
        self._last_change = sim.now

    # ------------------------------------------------------------------
    # Store hooks
    # ------------------------------------------------------------------
    def _on_put(self, item: Any) -> None:
        self._integrate()
        self.accepted += 1
        if len(self.items) > self.max_length:
            self.max_length = len(self.items)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "queue.put", self.sim.now, queue=self.name, level=len(self.items)
            )

    def _on_get(self, item: Any) -> None:
        self._integrate()
        enq_time, _payload = item
        wait_s = self.sim.now - enq_time
        self.total_wait_time += wait_s
        self.dequeued += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "queue.get",
                self.sim.now,
                queue=self.name,
                level=len(self.items),
                wait_s=wait_s,
            )

    # ------------------------------------------------------------------
    # timestamped wrappers
    # ------------------------------------------------------------------
    def try_put(self, item: Any) -> bool:
        self.offered += 1
        ok = super().try_put((self.sim.now, item))
        if not ok:
            self.dropped += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "queue.drop",
                    self.sim.now,
                    queue=self.name,
                    level=len(self.items),
                )
        return ok

    def offer(self, item: Any, then: Callable[[], None]) -> bool:
        """Blocking put.  Returns ``True`` when ``item`` entered at once;
        the caller then continues by itself.  Otherwise the offer waits
        for a slot (offers only wait on a full queue), and ``then()``
        runs one calendar entry after the item enters, or after
        :meth:`clear` drops it."""
        self.offered += 1
        stamped = (self.sim.now, item)
        if super().try_put(stamped):
            return True
        self.waiting.append((stamped, then))
        return False

    def try_get(self) -> Tuple[bool, Any]:
        ok, item = super().try_get()
        if not ok:
            return False, None
        if self.waiting:
            self._admit_offer()
        return True, item[1]

    def _admit_offer(self) -> None:
        stamped, then = self.waiting.popleft()
        super().try_put(stamped)
        self.sim.schedule_call(0.0, then)

    def evict(self, index: int = 0) -> Any:
        """Remove and return the payload at ``index`` without serving a
        consumer — the shed policies' victim ejection.

        The evicted item counts as ``shed`` (not ``dequeued``); the freed
        slot admits the oldest waiting offer, as ``try_get`` does.
        """
        if not self.items:
            raise IndexError("evict() from an empty queue")
        self._integrate()
        _enq_time, payload = self.items[index]
        del self.items[index]
        self.shed += 1
        if self.waiting:
            self._admit_offer()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "queue.evict",
                self.sim.now,
                queue=self.name,
                level=len(self.items),
            )
        return payload

    def clear(self) -> list:
        # Waiting offers never passed _on_put; they count as
        # accepted-then-lost, so fold them into ``accepted`` before
        # everything lands in ``cleared``.  Their chains go on.
        self._integrate()
        lost = super().clear()
        waiting, self.waiting = self.waiting, deque()
        for stamped, then in waiting:
            lost.append(stamped)
            self.sim.schedule_call(0.0, then)
        self.accepted += len(waiting)
        self.cleared += len(lost)
        return lost

    # ------------------------------------------------------------------
    def _integrate(self) -> None:
        now = self.sim.now
        self._area += len(self.items) * (now - self._last_change)
        self._last_change = now

    def time_avg_length(self) -> float:
        """Time-weighted mean queue length since creation."""
        self._integrate()
        span = self._last_change - self._created
        return self._area / span if span > 0 else float(len(self.items))

    def stats(self) -> QueueStats:
        return QueueStats(
            offered=self.offered,
            accepted=self.accepted,
            dropped=self.dropped,
            max_length=self.max_length,
            time_avg_length=self.time_avg_length(),
            total_wait_time=self.total_wait_time,
            dequeued=self.dequeued,
            cleared=self.cleared,
            shed=self.shed,
        )

