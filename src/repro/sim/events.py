"""Event primitives for the simulation kernel.

An :class:`Event` starts *untriggered*.  Calling :meth:`Event.succeed` or
:meth:`Event.fail` triggers it and schedules it on the engine's event
queue; when the engine pops it, all registered callbacks run (the event is
then *processed*).  :meth:`Event.resolve` triggers and processes it at
once.  Processes wait on events by ``yield``-ing them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class _Unset:
    """Sentinel for "this event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<UNSET>"


UNSET = _Unset()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, negative delay, ...)."""


class Event:
    """A single occurrence a process can wait for.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: callbacks run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = UNSET
        self._ok: bool = True
        # A failed event whose exception was delivered to at least one
        # waiter is "defused"; undefused failures re-raise in Simulator.step
        # so programming errors inside processes are never silently lost.
        self._defused: bool = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not UNSET

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is UNSET:
            raise SimulationError("value of untriggered event is not set")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def resolve(self, value: Any = None) -> None:
        """Trigger the event and run its waiters now, in the caller's
        step (a process that yields it later resumes inline): how a
        process resumes exactly where a callback chain continues."""
        if self._value is not UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def defuse(self) -> None:
        """Mark a failed event as handled (its exception will not re-raise)."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)
