"""The simulation engine: a virtual clock over a binary-heap event queue.

The engine is intentionally minimal and allocation-light: the hot loop is
``heappop`` + callback dispatch.  Events scheduled at the same instant run
in FIFO order within a priority class, so runs are fully deterministic.

Two calendar implementations back the queue:

* the default :mod:`heapq` heap of ``(when, key, event)`` 3-tuples, where
  ``key = priority * 2**62 + seq`` packs the priority class and the
  monotonically increasing sequence number into one integer comparison
  (equivalent to the classic ``(when, prio, seq)`` ordering, one tuple
  element cheaper to compare and box);
* the opt-in :class:`~repro.sim.calendar.ArrayCalendar` (preallocated
  ``when``/``key`` arrays + index heap), selected with
  ``Simulator(calendar="array")``.

Both produce identical event orderings; see ``tests/test_sim_calendar.py``.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, Optional

from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.process import Process

#: Priority for ordinary events.
NORMAL = 1
#: Priority for urgent events (interrupts, process bootstrap).
URGENT = 0

#: ``key = priority * _PRIO_STRIDE + seq``: all URGENT events at an
#: instant precede all NORMAL events, FIFO within each class.  2**62
#: leaves headroom for ~4.6e18 scheduled events before keys would collide.
_PRIO_STRIDE = 1 << 62

_heappush = heapq.heappush
_heappop = heapq.heappop


class _Call:
    """A bare scheduled callback: the allocation-light timer lane.

    Arithmetic fast paths (NIC ports, RNIC pipelines, batched executors)
    only ever need "run this function at time T" — no waiters, no value,
    no failure propagation.  A ``_Call`` carries just the function, so
    the scheduler skips the whole :class:`~repro.sim.events.Event`
    life-cycle (callbacks list, value slots, triggered bookkeeping) for
    the hottest event class in a run.  It consumes a sequence number
    exactly like a :class:`Timeout`, so orderings are unchanged.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn


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
        "_active_count",
        "_tracer",
        "_trace_steps",
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
        self._active_count = 0
        self._tracer = None
        self._trace_steps = False

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
        so an untraced run costs one attribute check per hook.  Fast
        paths that batch same-instant work (batched bolt dispatch) also
        gate on it, so traced runs take the bolt working thread, which
        evaluates every service start.
        """
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        # Event dispatch is the hottest loop in the repo; cache whether
        # the tracer even wants sim.step records.
        self._trace_steps = tracer is not None and tracer.wants("sim.step")

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    # ------------------------------------------------------------------
    # scheduling / execution
    # ------------------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        key = next(self._seq)
        if priority:
            key += _PRIO_STRIDE
        if self._cal is None:
            _heappush(self._queue, (self._now + delay, key, event))
        else:
            self._cal.push(self._now + delay, key, event)

    def schedule_call(self, delay: float, fn) -> None:
        """Schedule ``fn()`` to run after ``delay`` seconds.

        The cheap cousin of ``timeout(delay).callbacks.append(...)`` for
        fire-and-forget timers: nothing can wait on it and an exception
        from ``fn`` propagates out of :meth:`step` directly.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        key = next(self._seq) + _PRIO_STRIDE
        if self._cal is None:
            _heappush(self._queue, (self._now + delay, key, _Call(fn)))
        else:
            self._cal.push(self._now + delay, key, _Call(fn))

    def call_soon(self, fn) -> None:
        """Schedule ``fn()`` at this instant, ahead of every ordinary
        entry due now (the lane a process bootstrap takes): where the
        data plane's chains start, so they keep same-instant order."""
        key = next(self._seq)
        if self._cal is None:
            _heappush(self._queue, (self._now, key, _Call(fn)))
        else:
            self._cal.push(self._now, key, _Call(fn))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._cal is None:
            return self._queue[0][0] if self._queue else float("inf")
        return self._cal.peek_when() if self._cal else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        If a callback raises, the event's *remaining* callbacks still run
        at the same instant (so sibling waiters are never silently
        stranded mid-event) and the first exception is then re-raised;
        exceptions from the remaining callbacks are suppressed in its
        favor.  This keeps strict-mode invariant violations (and any
        other callback error) deterministic regardless of callback
        registration order.
        """
        if self._cal is None:
            queue = self._queue
            if not queue:
                raise SimulationError(
                    "step() on an empty event queue: nothing left to simulate "
                    "(use peek() to check, or run() which stops at drain)"
                )
            when, _key, event = _heappop(queue)
        else:
            if not self._cal:
                raise SimulationError(
                    "step() on an empty event queue: nothing left to simulate "
                    "(use peek() to check, or run() which stops at drain)"
                )
            when, event = self._cal.pop()
        self._now = when
        if type(event) is _Call:
            if self._trace_steps:
                self._tracer.emit(
                    "sim.step", when, event="_Call", n_callbacks=1
                )
            event.fn()
            return
        if self._trace_steps:
            self._tracer.emit(
                "sim.step",
                when,
                event=type(event).__name__,
                n_callbacks=len(event.callbacks or ()),
            )
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            # The overwhelmingly common case: exactly one waiter, no
            # siblings to strand — let any exception propagate directly.
            callbacks[0](event)
        else:
            pending = iter(callbacks)
            try:
                for cb in pending:
                    cb(event)
            except BaseException:
                for cb in pending:
                    try:
                        cb(event)
                    except BaseException:
                        pass  # the first exception wins
                raise
        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of losing it.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        With ``until=None`` run until the event queue drains; otherwise
        run until simulated time reaches ``until`` (the clock is advanced
        to exactly ``until`` even if no event lands there).
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
