"""Metrics collection.

Implements the paper's Section 5.1 metric definitions:

* **throughput** — tuples processed per unit time (per operator, counted
  inside the measurement window);
* **processing latency** — time from a tuple entering the source to its
  full processing at the sink.  For one-to-many streams completion means
  *every* destination instance processed it;
* **multicast latency** — time from tuple production until the *last*
  destination instance receives it (both tracked by
  :class:`FanoutTracker`);
* **serialization / communication time** — CPU-category totals from the
  :class:`~repro.net.cpu.CpuAccount` registry;
* **communication traffic** — bytes on the wire per generated tuple,
  from the fabric counters.

A measurement window (``open_window`` / ``close_window``) excludes warmup
from every rate and latency statistic.  A drain ends a run at *quiet*
(no pending work could change a result) or at its deadline; its
:class:`Quiescence` record, the same on both backends, is
``MetricsHub.quiescence``.

Per-execution sink latencies are kept once per delivered packet, not
once per copy (:class:`LatencySamples`): a fan-out's copies of one
packet share one stored sample, read back once per copy.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, Iterator, List,
    Optional, Sequence, Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass
class LatencySummary:
    """Summary statistics over recorded latency samples (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def from_samples(
        samples: "Sequence[float] | LatencySamples",
    ) -> "LatencySummary":
        if not samples:
            return LatencySummary(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        arr = np.asarray(samples, dtype=np.float64)
        return LatencySummary(
            count=int(arr.size),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            max=float(arr.max()),
        )


class LatencySamples:
    """One operator's sink latency samples (seconds), stored once per
    run of copies.

    It reads as the list it replaces: ``len``, truthiness, iteration and
    ``np.asarray`` see each appended run's values, repeated its
    multiplicity times in a row (``latencies * n``'s order), runs in
    append order.  A lazy cohort appends one flush's per-packet
    latencies once, with its member count as the multiplicity; the
    working thread and rt append runs of 1, and adjacent runs of 1
    merge, so their samples cost 8 bytes each.
    """

    __slots__ = ("_values", "_ends", "_repeats", "_len")

    def __init__(self) -> None:
        self._values = array("d")
        #: per run: where it ends in ``_values`` and how often it repeats
        self._ends = array("q")
        self._repeats = array("q")
        self._len = 0

    def extend(self, latencies: Sequence[float], repeat: int = 1) -> None:
        """Append ``latencies``, read ``repeat`` times in a row."""
        n = len(latencies)
        if not n or repeat < 1:
            return
        self._values.extend(latencies)
        self._len += n * repeat
        if repeat == 1 and self._repeats and self._repeats[-1] == 1:
            self._ends[-1] += n
        else:
            self._ends.append(len(self._values))
            self._repeats.append(repeat)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[float]:
        values, start = self._values, 0
        for end, repeat in zip(self._ends, self._repeats):
            run = values[start:end]
            for _ in range(repeat):
                yield from run
            start = end

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        values = np.array(self._values, dtype=np.float64)
        out = np.empty(self._len, dtype=np.float64)
        start = at = 0
        for end, repeat in zip(self._ends, self._repeats):
            n = end - start
            out[at:at + n * repeat].reshape(repeat, n)[:] = values[start:end]
            start, at = end, at + n * repeat
        return out if dtype is None else out.astype(dtype, copy=False)


class FanoutTracker:
    """Tracks one-to-many tuples until every destination task is reached.

    :class:`MetricsHub` holds two: ``multicast`` (a task is reached when
    it receives a copy: multicast latency from production) and
    ``completion`` (reached when it executes one: processing latency
    from the source).  Pending state is the *set* of task ids still
    owed, so a duplicated delivery or execution at one task counts once
    and cannot complete a tuple early.  A tuple completes at the running
    *max* of its reach instants, not the last call's: lazy sinks realise
    their executions out of completion-time order.
    """

    def __init__(self) -> None:
        #: id -> [start instant, task ids still owed, latest reach instant]
        self._pending: Dict[int, list] = {}
        self.latencies: List[float] = []
        self.completed = 0
        #: distinct tuples ever registered; with ``cancelled`` this gives
        #: the conservation identity checked by ``repro.check``:
        #: registered == completed + cancelled + outstanding.
        self.registered = 0
        self.cancelled = 0

    def register(
        self, tuple_id: int, destinations: Iterable[int], start: float
    ) -> None:
        destinations = set(destinations)
        if not destinations:
            raise ValueError("destinations must be non-empty")
        entry = self._pending.get(tuple_id)
        if entry is None:
            self._pending[tuple_id] = [start, destinations, -math.inf]
            self.registered += 1
        else:
            # A second one-to-many edge of the same emit: the tuple now
            # completes when the union of destinations is reached.
            entry[1].update(destinations)

    def reached(self, tuple_id: int, tasks: Iterable[int], at: float) -> None:
        """``tasks`` were reached at ``at`` (one packet's destinations,
        or one service's executing tasks)."""
        entry = self._pending.get(tuple_id)
        if entry is None:
            return  # untracked (e.g. emitted outside the window)
        owed = entry[1]
        before = len(owed)
        owed.difference_update(tasks)
        if len(owed) == before:
            return  # duplicates everywhere
        if at > entry[2]:
            entry[2] = at
        if not owed:
            del self._pending[tuple_id]
            self.latencies.append(entry[2] - entry[0])
            self.completed += 1

    def cancel(self, tuple_id: int) -> None:
        """Forget a tuple (it was dropped before reaching the wire)."""
        if self._pending.pop(tuple_id, None) is not None:
            self.cancelled += 1

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    @property
    def open_roots(self) -> FrozenSet[int]:
        """The tuples still owed a reach."""
        return frozenset(self._pending)

    def summary(self) -> LatencySummary:
        return LatencySummary.from_samples(self.latencies)


@dataclass(frozen=True)
class Quiescence:
    """How a drain ended, in the backend's own time base: whether it
    reached quiet (no pending work that could change a result) before
    its deadline, the instant it stopped, how long it ran, and what was
    left: open roots, reliability trees outstanding and entries held,
    queued items, slicer bytes, messages in flight."""

    quiet: bool
    at: float
    drain_s: float
    open_roots: FrozenSet[int]
    outstanding: int = 0
    held: int = 0
    queued: int = 0
    slicer_bytes: int = 0
    in_flight: int = 0


class MetricsHub:
    """Central metric registry for one system run."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.emitted: Dict[str, int] = defaultdict(int)
        self.processed: Dict[str, int] = defaultdict(int)
        self.dropped: Dict[str, int] = defaultdict(int)
        self.sink_latencies: Dict[str, LatencySamples] = defaultdict(
            LatencySamples)
        #: receive and execute completion of one-to-many tuples
        self.multicast = FanoutTracker()
        self.completion = FanoutTracker()
        #: the last drain's record (``None`` until a run drains)
        self.quiescence: Optional[Quiescence] = None
        #: tuple trees abandoned by the replay coordinator (budget
        #: exhausted or aborted).  NOT window-gated: the checker's
        #: conservation invariant needs every give-up ever recorded.
        self.messages_abandoned = 0
        #: envelopes discarded by a shed policy (flow control on, no
        #: reliability): refused newcomers plus evicted victims.  NOT
        #: window-gated — ``shed_conservation`` needs the full count.
        self.messages_shed = 0
        #: per-site breakdown of ``messages_shed``
        self.shed_by_queue: Dict[str, int] = defaultdict(int)
        #: reliable emits deferred (nacked back to the spout) because the
        #: transfer queue was full; each retry that still finds the queue
        #: full counts again.  NOT window-gated.
        self.messages_deferred = 0
        #: partitions parked / restored by the runtime rebalancer.  NOT
        #: window-gated: the ``partition_routing`` invariant and the
        #: hot-key ablation need every migration ever made.
        self.partitions_migrated = 0
        self.partitions_restored = 0
        # --- overload observability gauges (flow layer) ---------------
        #: high-water mark of the acker's in-flight tuple-tree count
        self.acker_pending_hwm = 0
        #: per-queue depth high-water marks observed by the flow layer
        self.queue_depth_hwm: Dict[str, int] = defaultdict(int)
        #: cumulative seconds each spout spent stalled on credits or the
        #: admission gate
        self.credit_stall_s: Dict[str, float] = defaultdict(float)
        self._window: Optional[Tuple[float, Optional[float]]] = None
        #: callbacks that realize lazily-batched work (one per worker
        #: hosting batched-dispatch sinks); run by :meth:`flush` so window
        #: boundaries and end-of-run reporting see every completion that
        #: is logically due.
        self._flush_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # measurement window
    # ------------------------------------------------------------------
    def open_window(self) -> None:
        self._window = (self.sim.now, None)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("metrics.window", self.sim.now, action="open")

    def add_flush_hook(self, hook: "Callable[[], None]") -> None:
        """Register a callback that realizes lazily-batched completions."""
        self._flush_hooks.append(hook)

    def flush(self) -> None:
        """Realize every batched completion due at or before ``sim.now``.

        Batched sinks count their executions only when they realize
        them, so readers of executor or operator counters (``processed``,
        ``sink_latencies``, executor ``busy_s``) call this first.  A
        cohort's flush appends its per-packet latencies to
        ``sink_latencies`` once, with the member count as multiplicity
        (:class:`LatencySamples`)."""
        for hook in self._flush_hooks:
            hook()

    def close_window(self) -> None:
        if self._window is None:
            raise RuntimeError("close_window() before open_window()")
        # Realize batched completions *before* the end is set, so work
        # that logically finished inside the window is counted in it.
        self.flush()
        start, _ = self._window
        self._window = (start, self.sim.now)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("metrics.window", self.sim.now, action="close")

    @property
    def in_window(self) -> bool:
        if self._window is None:
            return False
        start, end = self._window
        now = self.sim.now  # one clock read: a wall-clock call on rt
        return now >= start and (end is None or now <= end)

    def window_bounds(self) -> Tuple[float, float]:
        """``(start, end)`` such that an explicit instant ``t`` is inside
        the window iff ``start <= t <= end`` (for lazily-flushed
        completions whose logical time is not ``sim.now``).  An open
        window ends at +inf; with no window the interval is empty."""
        if self._window is None:
            return math.inf, -math.inf
        start, end = self._window
        return start, math.inf if end is None else end

    @property
    def window_duration(self) -> float:
        if self._window is None:
            raise RuntimeError("no measurement window opened")
        start, end = self._window
        return (end if end is not None else self.sim.now) - start

    # ------------------------------------------------------------------
    # recording (no-ops outside the window)
    # ------------------------------------------------------------------
    def on_emit(self, operator: str, n: int = 1) -> None:
        if self.in_window:
            self.emitted[operator] += n

    def on_processed(self, operator: str, n: int = 1) -> None:
        if self.in_window:
            self.processed[operator] += n

    def on_drop(self, where: str) -> None:
        if self.in_window:
            self.dropped[where] += 1

    def on_abandoned(self) -> None:
        """The replay coordinator gave up on (or aborted) a tuple tree."""
        self.messages_abandoned += 1

    def on_shed(self, where: str) -> None:
        """A shed policy discarded an envelope at ``where``."""
        self.messages_shed += 1
        self.shed_by_queue[where] += 1

    def on_deferred(self) -> None:
        """A reliable emit was nacked back to its spout (queue full)."""
        self.messages_deferred += 1

    def on_partition_migrated(self) -> None:
        """The rebalancer parked one overloaded task."""
        self.partitions_migrated += 1

    def on_partition_restored(self) -> None:
        """The rebalancer restored one drained task."""
        self.partitions_restored += 1

    def note_acker_pending(self, pending: int) -> None:
        if pending > self.acker_pending_hwm:
            self.acker_pending_hwm = pending

    def note_queue_depth(self, where: str, depth: int) -> None:
        if depth > self.queue_depth_hwm[where]:
            self.queue_depth_hwm[where] = depth

    def add_credit_stall(self, operator: str, stalled_s: float) -> None:
        self.credit_stall_s[operator] += stalled_s

    def on_sink_latency(
        self, operator: str, latencies_s: Sequence[float]
    ) -> None:
        if self.in_window:
            self.sink_latencies[operator].extend(latencies_s)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def throughput(self, operator: str) -> float:
        """Tuples processed per second inside the window (0.0 for a
        zero-duration window rather than a ``ZeroDivisionError``)."""
        duration = self.window_duration
        return self.processed[operator] / duration if duration > 0 else 0.0

    def emit_rate(self, operator: str) -> float:
        duration = self.window_duration
        return self.emitted[operator] / duration if duration > 0 else 0.0

    def sink_latency_summary(self, operator: str) -> LatencySummary:
        return LatencySummary.from_samples(self.sink_latencies[operator])
