"""The simulation engine: a virtual clock over a binary-heap calendar.

The engine is intentionally minimal and allocation-light: a calendar
entry is a bare callback, and the hot loop is ``heappop`` + call.
Entries due at the same instant run in FIFO order within a priority
class, so runs are fully deterministic.

Two calendar implementations back the queue:

* the default :mod:`heapq` heap of ``(when, key, fn)`` 3-tuples, where
  ``key = priority * 2**62 + seq`` packs the priority class and the
  monotonically increasing sequence number into one integer comparison
  (equivalent to the classic ``(when, prio, seq)`` ordering, one tuple
  element cheaper to compare and box);
* the opt-in :class:`~repro.sim.calendar.ArrayCalendar` (preallocated
  ``when``/``key`` arrays + index heap), selected with
  ``Simulator(calendar="array")``.

Both produce identical orderings; see ``tests/test_sim_calendar.py``.

The timer wait of a periodic chain is a *background* entry
(:meth:`Simulator.schedule_background`), every other entry is work, and
:attr:`Simulator.idle` is true when only background entries are pending.
"""

from __future__ import annotations

import functools
import heapq
from itertools import count
from typing import Callable, Optional

from repro.sim.events import SimulationError

#: ``key = seq + _PRIO_STRIDE`` for ordinary entries (:meth:`schedule_call`)
#: and ``key = seq`` for urgent ones (:meth:`call_soon`): all urgent
#: entries at an instant precede all ordinary ones, FIFO within each
#: class.  2**62 leaves headroom for ~4.6e18 scheduled entries before
#: keys would collide.
_PRIO_STRIDE = 1 << 62

_heappush = heapq.heappush
_heappop = heapq.heappop


class Simulator:
    """Discrete-event simulator with a float clock in seconds.

    Parameters
    ----------
    start_time:
        Initial clock value.
    calendar:
        ``"heap"`` (default) or ``"array"``.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_cal",
        "_seq",
        "_tracer",
        "_trace_steps",
        "_background",
    )

    def __init__(self, start_time: float = 0.0, calendar: str = "heap"):
        self._now = float(start_time)
        self._queue: list = []
        if calendar == "heap":
            self._cal = None
        elif calendar == "array":
            from repro.sim.calendar import ArrayCalendar

            self._cal = ArrayCalendar()
        else:
            raise SimulationError(
                f"unknown calendar {calendar!r} (expected 'heap' or 'array')"
            )
        self._seq = count()
        self._tracer = None
        self._trace_steps = False
        #: pending background entries (:meth:`schedule_background`)
        self._background = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached :class:`~repro.trace.Tracer`, or ``None``.

        Every trace hook in the system guards on this being non-``None``,
        so a run without a tracer costs one attribute check per hook.
        No hook schedules anything: a traced run takes the same calendar
        entries as a plain one.
        """
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        # Dispatch is the hottest loop in the repo; cache whether the
        # tracer even wants sim.step records.
        self._trace_steps = tracer is not None and tracer.wants("sim.step")

    # ------------------------------------------------------------------
    # scheduling / execution
    # ------------------------------------------------------------------
    def schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` to run after ``delay`` seconds.

        A step that waits schedules its continuation this way; an
        exception from ``fn`` propagates out of :meth:`step`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        key = next(self._seq) + _PRIO_STRIDE
        if self._cal is None:
            _heappush(self._queue, (self._now + delay, key, fn))
        else:
            self._cal.push(self._now + delay, key, fn)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` at this instant, ahead of every ordinary
        entry due now: where a chain starts (a thread, a control loop),
        so it keeps same-instant order."""
        key = next(self._seq)
        if self._cal is None:
            _heappush(self._queue, (self._now, key, fn))
        else:
            self._cal.push(self._now, key, fn)

    def schedule_background(self, delay: float, fn: Callable[[], None]) -> None:
        """:meth:`schedule_call` for the timer wait of a periodic chain:
        a pending background entry leaves the simulator :attr:`idle`."""

        @functools.wraps(fn)
        def wait() -> None:
            self._background -= 1
            fn()

        self.schedule_call(delay, wait)
        self._background += 1

    @property
    def idle(self) -> bool:
        """True when every pending entry is a background wait: no work
        is left, only periodic chains that would wake to find none."""
        pending = len(self._queue) if self._cal is None else len(self._cal)
        return pending == self._background

    def peek(self) -> float:
        """Time of the next calendar entry, or ``inf`` if none."""
        if self._cal is None:
            return self._queue[0][0] if self._queue else float("inf")
        return self._cal.peek_when() if self._cal else float("inf")

    def step(self) -> None:
        """Run exactly one calendar entry."""
        if self._cal is None:
            queue = self._queue
            if not queue:
                raise SimulationError(
                    "step() on an empty calendar: nothing left to simulate "
                    "(use peek() to check, or run() which stops at drain)"
                )
            when, _key, fn = _heappop(queue)
        else:
            if not self._cal:
                raise SimulationError(
                    "step() on an empty calendar: nothing left to simulate "
                    "(use peek() to check, or run() which stops at drain)"
                )
            when, fn = self._cal.pop()
        self._now = when
        if self._trace_steps:
            self._tracer.emit("sim.step", when, event=fn.__qualname__)
        fn()

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        With ``until=None`` run until the calendar drains; otherwise run
        until simulated time reaches ``until`` (the clock is advanced to
        exactly ``until`` even if no entry lands there).
        """
        step = self.step
        if until is None:
            if self._cal is None:
                queue = self._queue
                while queue:
                    step()
            else:
                cal = self._cal
                while cal:
                    step()
            return
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        if self._cal is None:
            queue = self._queue
            while queue and queue[0][0] <= horizon:
                step()
        else:
            cal = self._cal
            while cal and cal.peek_when() <= horizon:
                step()
        self._now = horizon


def every(sim: Simulator, interval: float, fn: Callable[[], None]) -> None:
    """Run ``fn()`` every ``interval`` seconds, the first time one
    interval from now: a control loop.  Its chain starts in an urgent
    entry due now (:meth:`Simulator.call_soon`), and each run of ``fn``
    schedules the next wait, a background entry.  The entries carry
    ``fn``'s name, so a ``sim.step`` census tells the loops apart."""

    @functools.wraps(fn)
    def tick() -> None:
        fn()
        sim.schedule_background(interval, tick)

    sim.call_soon(lambda: sim.schedule_background(interval, tick))


def each(items, step, then) -> None:
    """Run ``step(item, k)`` for every item in order, then ``then()``.

    A step calls ``k`` when done, at once or from a later calendar
    entry.  Steps done at once continue the loop without nesting calls,
    so long runs of zero-cost steps keep the stack flat.
    """
    _Each(iter(items), step, then).advance()


class _Each:
    """One :func:`each` loop (an object: closures would form a cycle)."""

    __slots__ = ("it", "step", "then", "looping", "ready")

    def __init__(self, it, step, then):
        self.it, self.step, self.then = it, step, then
        self.looping = self.ready = False

    def k(self) -> None:
        if self.looping:
            self.ready = True
        else:
            self.advance()

    def advance(self) -> None:
        self.looping = True
        step, k = self.step, self.k
        for item in self.it:
            self.ready = False
            step(item, k)
            if not self.ready:
                self.looping = False
                return
        self.looping = False
        self.then()
