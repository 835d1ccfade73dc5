"""Stream Slicing (Section 4): MMS/WTL batching of tuples into work requests.

The sender buffers serialized tuples destined for the same peer.  The
buffer is flushed into a single RDMA work request when either

* the buffered size reaches **MMS** (*Max Memory Size*), or
* the oldest buffered tuple has waited **WTL** (*Wait Time Limit*).

The paper sweeps MMS (Fig. 11) and WTL (Fig. 12) and settles on 256 KB /
1 ms.  Batching amortizes the per-WR post cost (raising throughput with
MMS) at the price of queueing delay (raising latency with both knobs) —
exactly the trade-off those figures show.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: A flush callback receives (items, total_bytes).
FlushFn = Callable[[List[Any], int], None]


class StreamSlicer:
    """Per-destination tuple batcher with MMS size and WTL time triggers."""

    def __init__(
        self,
        sim: "Simulator",
        mms_bytes: int,
        wtl_s: float,
        on_flush: FlushFn,
    ):
        if mms_bytes <= 0:
            raise ValueError(f"MMS must be positive, got {mms_bytes}")
        if wtl_s <= 0:
            raise ValueError(f"WTL must be positive, got {wtl_s}")
        self.sim = sim
        self.mms_bytes = mms_bytes
        self.wtl_s = wtl_s
        self.on_flush = on_flush
        self._items: List[Any] = []
        #: bytes buffered for the next flush
        self.buffered_bytes = 0
        self._oldest_at: Optional[float] = None
        # stats
        self.flushes_by_size = 0
        self.flushes_by_timer = 0
        self.tuples_buffered = 0

    # ------------------------------------------------------------------
    def add(self, item: Any, nbytes: int) -> None:
        """Buffer one serialized tuple of ``nbytes``."""
        if nbytes <= 0:
            raise ValueError(f"item size must be positive, got {nbytes}")
        self._items.append(item)
        self.buffered_bytes += nbytes
        self.tuples_buffered += 1
        if self._oldest_at is None:
            self._oldest_at = self.sim.now
            self._arm_timer()
        if self.buffered_bytes >= self.mms_bytes:
            self.flushes_by_size += 1
            self._flush()

    def flush_now(self) -> None:
        """Force a flush (e.g. at stream end)."""
        if self._items:
            self._flush()

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        items, nbytes = self._items, self.buffered_bytes
        self._items = []
        self.buffered_bytes = 0
        self._oldest_at = None
        self.on_flush(items, nbytes)

    def _arm_timer(self) -> None:
        # A flat one-shot callback instead of an interruptible process:
        # a size-flush simply lets the timer fire stale (the armed-for
        # stamp no longer matches), which is far cheaper than scheduling
        # an interrupt per flushed batch.
        armed_for = self._oldest_at
        self.sim.schedule_call(self.wtl_s, lambda: self._on_timer(armed_for))

    def _on_timer(self, armed_for: float) -> None:
        # The WTL expired for the batch that armed this timer.  If that
        # batch is still pending (no size-flush happened), flush it.
        if self._items and self._oldest_at == armed_for:
            self.flushes_by_timer += 1
            self._flush()
