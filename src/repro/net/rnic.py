"""RNIC model: per-machine work-request pipeline.

Senders post wire messages as work requests (WRs); the RNIC services
them FIFO (DMA setup takes :attr:`CostModel.rnic_wr_service_s` per WR)
and injects each message into the InfiniBand fabric.  A WR holds a ring
memory region of its message's size, recycled when the fabric reports
delivery — modelling the paper's "each memory region can be reused after
consumed by the RNIC coordinator".

The service pipeline is an arithmetic FIFO server (like
:class:`~repro.net.fabric.NicPort`): completion instants are computed at
admission and one calendar entry is scheduled per WR.  An uncontended
post continues its sender's chain at once; a post that finds the WR
queue full continues one calendar entry after its admission.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from repro.net.costs import CostModel
from repro.net.fabric import Fabric
from repro.net.message import WireMessage
from repro.net.ring import RingMemoryRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

_START, _DONE, _MSG, _LIVE = 0, 1, 2, 3

#: WRs the queue holds behind the one in DMA service.
WR_QUEUE_DEPTH = 4096


class Rnic:
    """One machine's RDMA NIC: WR queue + DMA service pipeline."""

    def __init__(
        self,
        sim: "Simulator",
        machine_id: int,
        fabric: Fabric,
        costs: CostModel,
        ring_capacity_bytes: int = 8 * 1024 * 1024,
    ):
        self.sim = sim
        self.machine_id = machine_id
        self.fabric = fabric
        self.costs = costs
        self.ring = RingMemoryRegion(sim, ring_capacity_bytes)
        #: admitted WRs: the head with ``start <= now`` is in DMA service.
        self._pending: Deque[list] = deque()
        #: posts blocked on a full WR queue, FIFO.
        self._waiters: Deque[
            Tuple[Optional[Callable[[], None]], WireMessage]
        ] = deque()
        self._busy_until = sim.now
        self.wrs_posted = 0

    # ------------------------------------------------------------------
    def post(
        self, msg: WireMessage, then: Optional[Callable[[], None]] = None
    ) -> None:
        """Post ``msg`` as a work request; ``then()`` (if given) runs once
        it is admitted to the WR queue: at once, or one calendar entry
        after a full queue admits it."""
        self.wrs_posted += 1
        if msg.size_bytes > 0:
            msg.on_delivered = self._recycle
        # The queue holds up to ``WR_QUEUE_DEPTH`` WRs *behind* the one in
        # service, so total unfinished admits up to depth + 1.
        if self._waiters or len(self._pending) > WR_QUEUE_DEPTH:
            self._waiters.append((then, msg))
            return
        self._admit(msg)
        if then is not None:
            then()

    def reset(self) -> int:
        """Crash handling: drop queued work requests and re-register the
        ring from scratch.  Returns the number of dropped WRs.

        The WR in DMA service, if any, still completes into the fabric
        (matching the old drain loop, whose in-flight WR was already past
        the queue); waiting posters are admitted dead — their WRs are
        dropped but their senders continue.
        """
        now = self.sim.now
        pending = self._pending
        zombie = None
        if pending and pending[0][_START] <= now:
            zombie = pending.popleft()
        dropped = 0
        while pending:
            entry = pending.popleft()
            entry[_LIVE] = False
            entry[_MSG].on_delivered = None
            dropped += 1
        while self._waiters:
            then, msg = self._waiters.popleft()
            msg.on_delivered = None
            dropped += 1
            if then is not None:
                self.sim.schedule_call(0.0, then)
        if zombie is not None:
            pending.append(zombie)
            self._busy_until = zombie[_DONE]
        else:
            self._busy_until = now
        self.ring.reset()
        return dropped

    # ------------------------------------------------------------------
    def _admit(self, msg: WireMessage) -> None:
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if start < now:
            start = now
        done = start + self.costs.rnic_wr_service_s
        self._busy_until = done
        entry = [start, done, msg, True]
        self._pending.append(entry)
        if done > now:
            sim.schedule_call(done - now, lambda: self._complete(entry))
        else:
            self._complete(entry)

    def _complete(self, entry: list) -> None:
        if not entry[_LIVE]:
            return
        self._pending.popleft()  # live completions fire in FIFO order
        self.fabric.send(entry[_MSG])
        while self._waiters and len(self._pending) <= WR_QUEUE_DEPTH:
            then, msg = self._waiters.popleft()
            self._admit(msg)
            if then is not None:
                self.sim.schedule_call(0.0, then)

    def _recycle(self, _msg: WireMessage) -> None:
        if self.ring.outstanding:
            # Zero outstanding regions happen only after a crash reset()
            # forgot the in-flight message's region wholesale.
            self.ring.free_oldest()
