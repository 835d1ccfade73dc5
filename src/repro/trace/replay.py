"""Trace replay: rebuild run metrics from the records alone.

:func:`replay` walks a trace in order and re-derives what the live
:class:`~repro.dsps.metrics.MetricsHub` measured — window emit/processed
counts, multicast latency (last ``worker.dispatch`` of each registered
tuple minus its registration time) and processing-completion latency
(last ``tuple.execute``).  Because the replay applies the *same*
arithmetic to the *same* timestamps, the reconstructed figures match the
live counters exactly; any divergence means a lifecycle event was lost,
double-counted, or mis-ordered — which is exactly what the replay test
guards against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple


@dataclass
class ReplayResult:
    """Metrics re-derived from a trace."""

    window_start: Optional[float] = None
    window_end: Optional[float] = None
    emitted: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    processed: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    dropped: int = 0
    multicast_latencies: List[float] = field(default_factory=list)
    completion_latencies: List[float] = field(default_factory=list)
    multicast_completed: int = 0
    completion_completed: int = 0
    rewires: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def window_duration(self) -> float:
        if self.window_start is None or self.window_end is None:
            raise RuntimeError("trace holds no closed measurement window")
        return self.window_end - self.window_start

    def throughput(self, operator: str) -> float:
        duration = self.window_duration
        return self.processed[operator] / duration if duration > 0 else 0.0

    def emit_rate(self, operator: str) -> float:
        duration = self.window_duration
        return self.emitted[operator] / duration if duration > 0 else 0.0


def replay(records: Iterable[Dict[str, Any]]) -> ReplayResult:
    """Re-derive run metrics from trace ``records`` (in file order).

    Records must be in emission order (trace files are — simulated time
    never decreases along a trace).
    """
    result = ReplayResult()
    # Window state evolves exactly like the live hub's: open sets the
    # start, close the end; a record is in-window when its timestamp
    # falls inside the then-current bounds.
    start: Optional[float] = None
    end: Optional[float] = None
    # tuple id -> (register time, outstanding destination tasks)
    mc_pending: Dict[int, Tuple[float, Set[int]]] = {}
    # tuple id -> (created_at, outstanding executor tasks)
    exec_pending: Dict[int, Tuple[float, Set[int]]] = {}

    def in_window(t: float) -> bool:
        return start is not None and t >= start and (end is None or t <= end)

    for rec in records:
        kind = rec["kind"]
        t = rec.get("t", 0.0)
        if kind == "metrics.window":
            if rec["action"] == "open":
                start, end = t, None
                result.window_start = t
            else:
                end = t
                result.window_end = t
        elif kind == "tuple.emit":
            if in_window(t):
                result.emitted[rec["operator"]] += 1
        elif kind == "mc.register":
            dsts = set(rec["dsts"])
            entry = mc_pending.get(rec["id"])
            if entry is None:
                mc_pending[rec["id"]] = (t, dsts)
            else:
                entry[1].update(dsts)
            exec_entry = exec_pending.get(rec["id"])
            if exec_entry is None:
                exec_pending[rec["id"]] = (rec["created_at"], set(dsts))
            else:
                exec_entry[1].update(dsts)
        elif kind == "tuple.drop":
            mc_pending.pop(rec["id"], None)
            exec_pending.pop(rec["id"], None)
            if in_window(t):
                result.dropped += 1
        elif kind == "worker.dispatch":
            entry = mc_pending.get(rec["id"])
            if entry is not None:
                register_t, outstanding = entry
                outstanding.discard(rec["task"])
                if not outstanding:
                    del mc_pending[rec["id"]]
                    result.multicast_latencies.append(t - register_t)
                    result.multicast_completed += 1
        elif kind == "tuple.execute":
            if in_window(t):
                result.processed[rec["operator"]] += 1
            entry = exec_pending.get(rec["id"])
            if entry is not None:
                created_at, outstanding = entry
                outstanding.discard(rec["task"])
                if not outstanding:
                    del exec_pending[rec["id"]]
                    result.completion_latencies.append(t - created_at)
                    result.completion_completed += 1
        elif kind == "switch.rewire":
            result.rewires.append(rec)
    return result
