"""Trace/metrics bridge: one clock abstraction so the DES instruments
read identically from the real runtime.

The whole observability stack — :class:`~repro.dsps.metrics.MetricsHub`,
its trackers, and every :class:`~repro.trace.Tracer` — only ever touches
two attributes of the "simulator" it is handed: ``.now`` and ``.tracer``.
:class:`WallClock` implements exactly that surface over the monotonic
wall clock, so the rt backend constructs a *stock* ``MetricsHub`` on a
``WallClock`` and both backends feed one metrics implementation; the
differential harness compares like with like.

Trace records from the real runtime use the registered ``rt.`` category
with wall-clock ``t`` values relative to the run start, streamed to the
same JSONL format the DES emits — ``python -m repro.trace PATH``
summarizes either.  The kinds rt emits are lifecycle events, not
per-tuple ones: ``rt.listen``, ``rt.connect``, ``rt.replay``,
``rt.abandon``, ``rt.shutdown`` and ``rt.drain`` (with ``quiet``: whether
the drain reached quiet before its deadline).
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.trace.tracer import Tracer


class WallClock:
    """Monotonic wall clock with the simulator's observable surface.

    ``now`` is seconds since :meth:`start` (or construction), so trace
    ``t`` values and latency samples are small run-relative floats, just
    like simulated timestamps.  ``tracer`` is the same attribute the DES
    exposes on :class:`~repro.sim.engine.Simulator`; trace hooks check it
    exactly the same way.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self._t0 = time.monotonic()

    def start(self) -> None:
        """Re-zero the clock (called when the runtime actually starts)."""
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Emit one ``rt.``-category trace record stamped with ``now``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(kind, self.now, **fields)
