"""RNIC model: per-machine work-request pipeline.

Senders post :class:`WorkRequest`\\ s; the RNIC services them FIFO (DMA
setup takes :attr:`CostModel.rnic_wr_service_s` per WR) and injects the
wire message into the InfiniBand fabric.  If the WR carries a ring memory
region, the region is recycled when the fabric reports delivery —
modelling the paper's "each memory region can be reused after consumed by
the RNIC coordinator".

The service pipeline is an arithmetic FIFO server (like
:class:`~repro.net.fabric.NicPort`): completion instants are computed at
admission and one calendar entry is scheduled per WR.  An uncontended
post continues its sender's chain at once; a post that finds the WR
queue full continues one calendar entry after its admission.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from repro.net.costs import CostModel
from repro.net.fabric import Fabric
from repro.net.message import WireMessage
from repro.net.ring import RingMemoryRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

_START, _DONE, _WR, _LIVE = 0, 1, 2, 3


@dataclass
class WorkRequest:
    """One posted RDMA work request."""

    message: WireMessage
    #: Ring region size to recycle on delivery (0 = none attached).
    ring_bytes: int = 0


class Rnic:
    """One machine's RDMA NIC: WR queue + DMA service pipeline."""

    def __init__(
        self,
        sim: "Simulator",
        machine_id: int,
        fabric: Fabric,
        costs: CostModel,
        ring_capacity_bytes: int = 8 * 1024 * 1024,
        wr_queue_depth: int = 4096,
    ):
        self.sim = sim
        self.machine_id = machine_id
        self.fabric = fabric
        self.costs = costs
        self.ring = RingMemoryRegion(sim, ring_capacity_bytes)
        self._depth = wr_queue_depth
        #: admitted WRs: the head with ``start <= now`` is in DMA service.
        self._pending: Deque[list] = deque()
        #: posts blocked on a full WR queue, FIFO.
        self._waiters: Deque[
            Tuple[Optional[Callable[[], None]], WorkRequest]
        ] = deque()
        self._busy_until = sim.now
        self.wrs_posted = 0
        self.wrs_completed = 0

    # ------------------------------------------------------------------
    def post(
        self, wr: WorkRequest, then: Optional[Callable[[], None]] = None
    ) -> None:
        """Post a work request; ``then()`` (if given) runs once it is
        admitted to the WR queue: at once, or one calendar entry after a
        full queue admits it."""
        self.wrs_posted += 1
        if wr.ring_bytes > 0:
            wr.message.on_delivered = self._recycle
        # The old Store-backed queue held up to ``depth`` WRs *behind* the
        # one in service, so total unfinished admits up to depth + 1.
        if self._waiters or len(self._pending) > self._depth:
            self._waiters.append((then, wr))
            return
        self._admit(wr)
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
            entry[_WR].message.on_delivered = None
            dropped += 1
        while self._waiters:
            then, wr = self._waiters.popleft()
            wr.message.on_delivered = None
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
    def _admit(self, wr: WorkRequest) -> None:
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if start < now:
            start = now
        done = start + self.costs.rnic_wr_service_s
        self._busy_until = done
        entry = [start, done, wr, True]
        self._pending.append(entry)
        if done > now:
            sim.schedule_call(done - now, lambda: self._complete(entry))
        else:
            self._complete(entry)

    def _complete(self, entry: list) -> None:
        if not entry[_LIVE]:
            return
        self._pending.popleft()  # live completions fire in FIFO order
        self.fabric.send(entry[_WR].message)
        self.wrs_completed += 1
        while self._waiters and len(self._pending) <= self._depth:
            then, wr = self._waiters.popleft()
            self._admit(wr)
            if then is not None:
                self.sim.schedule_call(0.0, then)

    def _recycle(self, _msg: WireMessage) -> None:
        if self.ring.outstanding:
            # Zero outstanding regions happen only after a crash reset()
            # forgot the in-flight message's region wholesale.
            self.ring.free_oldest()
