"""Trace replay: rebuild run metrics from the records alone.

:func:`replay` walks a trace in order and re-derives what the live
:class:`~repro.dsps.metrics.MetricsHub` measured — window emit/processed
counts, multicast latency (the last ``worker.dispatch`` packet to reach
a registered tuple's destinations, minus its registration time) and
processing-completion latency (the latest ``done`` of the
``tuple.execute`` records that cover its destinations).  Because the
replay applies the *same* arithmetic to the *same* instants, the
reconstructed figures match the live counters exactly; any divergence means a lifecycle event was lost,
double-counted, or mis-ordered — which is exactly what the replay test
guards against.
"""

from __future__ import annotations

from collections import defaultdict
from math import inf
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set


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

    Records must be in emission order (trace files are — their stamps
    never decrease along a trace).
    """
    result = ReplayResult()
    # Window state evolves exactly like the live hub's: open sets the
    # start, close the end; an instant is in-window when it falls inside
    # the then-current bounds.
    start: Optional[float] = None
    end: Optional[float] = None
    # tuple id -> [start instant, outstanding tasks, latest reach], per
    # figure: the register instant for multicast, creation for execution
    mc_pending: Dict[int, list] = {}
    exec_pending: Dict[int, list] = {}

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
            for pending, begin in ((mc_pending, t),
                                   (exec_pending, rec["created_at"])):
                entry = pending.get(rec["id"])
                if entry is None:
                    pending[rec["id"]] = [begin, set(rec["dsts"]), -inf]
                else:
                    entry[1].update(rec["dsts"])
        elif kind == "tuple.drop":
            mc_pending.pop(rec["id"], None)
            exec_pending.pop(rec["id"], None)
            if in_window(t):
                result.dropped += 1
        elif kind == "worker.dispatch":
            latency = _reach(mc_pending, rec, t)
            if latency is not None:
                result.multicast_latencies.append(latency)
                result.multicast_completed += 1
        elif kind == "tuple.execute":
            # A lazy sink realises a service after it is done: window
            # membership and latency go by its computed ``done``.
            done = rec["done"]
            if in_window(done):
                result.processed[rec["operator"]] += len(rec["tasks"])
            latency = _reach(exec_pending, rec, done)
            if latency is not None:
                result.completion_latencies.append(latency)
                result.completion_completed += 1
        elif kind == "switch.rewire":
            result.rewires.append(rec)
    return result


def _reach(pending: Dict[int, list], rec: Dict[str, Any],
           at: float) -> Optional[float]:
    """``rec``'s tasks reach its tuple at ``at``; the tuple's latency
    when that completes it (at the running max of its reach instants;
    a record reaching no outstanding task changes nothing)."""
    entry = pending.get(rec["id"])
    if entry is None:
        return None
    outstanding: Set[int] = entry[1]
    before = len(outstanding)
    outstanding.difference_update(rec["tasks"])
    if len(outstanding) == before:
        return None
    entry[2] = max(entry[2], at)
    if outstanding:
        return None
    del pending[rec["id"]]
    return entry[2] - entry[0]
