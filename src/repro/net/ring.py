"""Ring memory region (Section 4, "Ring Memory Region Multiplexing").

To avoid registering/recycling RNIC memory regions per message, Whale
registers one continuous address space and runs head/tail pointers over
it; a region is reused after the RNIC coordinator consumes it.  We model
exactly that: a byte-capacity ring where ``alloc`` waits while the ring
lacks contiguous-free space and ``free`` returns space in FIFO order.

The FIFO discipline matters: RDMA consumers (and Whale's sequential-access
readers) complete in post order, so the tail only ever advances in order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Tuple

from repro.sim.events import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class RingMemoryRegion:
    """A registered ring buffer with waiting allocation."""

    def __init__(self, sim: "Simulator", capacity_bytes: int):
        if capacity_bytes <= 0:
            raise SimulationError(
                f"ring capacity must be positive, got {capacity_bytes}"
            )
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self._used = 0
        #: FIFO of outstanding region sizes (post order == completion order).
        self._regions: Deque[int] = deque()
        self._waiters: Deque[Tuple[Callable[[], None], int]] = deque()
        # stats
        self.allocs = 0
        self.frees = 0
        self.alloc_stalls = 0
        self.peak_used = 0

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Number of allocated-but-not-yet-freed regions."""
        return len(self._regions)

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, then: Callable[[], None]) -> None:
        """Reserve ``nbytes``, then run ``then()``: at once when the ring
        has room and nobody waits, else one calendar entry after the
        grant (waiters are served FIFO)."""
        if nbytes <= 0:
            raise SimulationError(f"alloc size must be positive, got {nbytes}")
        if nbytes > self.capacity_bytes:
            raise SimulationError(
                f"alloc of {nbytes} B exceeds ring capacity "
                f"{self.capacity_bytes} B"
            )
        if not self._waiters and self._used + nbytes <= self.capacity_bytes:
            self._grant(nbytes)
            then()
            return
        self.alloc_stalls += 1
        self._waiters.append((then, nbytes))

    def reset(self) -> None:
        """Forget every outstanding region (fault injection: the RNIC of
        a crashed machine re-registers its ring from scratch).

        Waiting allocators are admitted against the now-empty ring.
        """
        self._regions.clear()
        self._used = 0
        self._admit_waiters()

    def free_oldest(self) -> int:
        """Release the oldest outstanding region; returns its size."""
        if not self._regions:
            raise SimulationError("free_oldest() with no outstanding region")
        nbytes = self._regions.popleft()
        self._used -= nbytes
        self.frees += 1
        self._admit_waiters()
        return nbytes

    # ------------------------------------------------------------------
    def _admit_waiters(self) -> None:
        """Grant as many waiters as now fit (they stay FIFO)."""
        while self._waiters:
            then, want = self._waiters[0]
            if self._used + want > self.capacity_bytes:
                break
            self._waiters.popleft()
            self._grant(want)
            self.sim.schedule_call(0.0, then)

    def _grant(self, nbytes: int) -> None:
        self._used += nbytes
        self._regions.append(nbytes)
        self.allocs += 1
        if self._used > self.peak_used:
            self.peak_used = self._used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingMemoryRegion(used={self._used}/{self.capacity_bytes} B, "
            f"outstanding={len(self._regions)})"
        )
