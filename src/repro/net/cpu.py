"""Per-thread CPU time accounting.

Every simulated thread (executor, receive thread, spout, relay) owns a
:class:`CpuAccount`.  All CPU-consuming work is attributed to a category
through it: :meth:`CpuAccount.spend` charges the work and continues the
thread's callback chain when it is done, :meth:`CpuAccount.charge` only
attributes time a caller waits out itself.  This is what lets the reproduction draw the
paper's Fig. 2c (upstream vs downstream utilization) and Fig. 2d (CPU-time
breakdown into serialization vs packet processing) without any external
profiler.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Canonical categories used across the code base.
SERIALIZATION = "serialization"
DESERIALIZATION = "deserialization"
NETWORK = "network"
RDMA_POST = "rdma_post"
DISPATCH = "dispatch"
PROCESSING = "processing"
OTHER = "other"


class CpuAccount:
    """Tracks busy time of one simulated thread, by category."""

    def __init__(self, sim: "Simulator", name: str):
        self.sim = sim
        self.name = name
        self.busy_s: Dict[str, float] = defaultdict(float)
        self._started = sim.now

    def spend(
        self, duration_s: float, category: str, then: Callable[[], None]
    ) -> None:
        """Consume ``duration_s`` of CPU, attributed to ``category``, then
        run ``then()``: one calendar entry at the end of the work, or at
        once when it takes no time (still recorded)."""
        if duration_s < 0:
            raise ValueError(f"negative CPU work: {duration_s}")
        self.busy_s[category] += duration_s
        if duration_s > 0:
            self.sim.schedule_call(duration_s, then)
        else:
            then()

    def charge(self, duration_s: float, category: str = OTHER) -> None:
        """Attribute CPU time without advancing the clock.

        For costs the caller waits out itself (e.g. a receive thread
        fusing receive and deserialization into one wait).
        """
        if duration_s < 0:
            raise ValueError(f"negative CPU charge: {duration_s}")
        self.busy_s[category] += duration_s

    # ------------------------------------------------------------------
    @property
    def total_busy_s(self) -> float:
        return sum(self.busy_s.values())

    def utilization(self, since: float | None = None) -> float:
        """Busy fraction of wall time since ``since`` (default: creation).

        Capped at 1.0: a single thread cannot be more than fully busy,
        matching how the paper reports "CPU overload".
        """
        start = self._started if since is None else since
        elapsed = self.sim.now - start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy_s / elapsed)

    def breakdown(self) -> Dict[str, float]:
        """Fraction of busy time per category (sums to 1 if busy)."""
        total = self.total_busy_s
        if total == 0:
            return {}
        return {cat: t / total for cat, t in sorted(self.busy_s.items())}

    def reset(self) -> None:
        """Zero the counters and begin a new utilization window."""
        self.busy_s.clear()
        self._started = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuAccount({self.name!r}, busy={self.total_busy_s:.6f}s)"
