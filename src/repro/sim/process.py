"""Generator-coroutine processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` hands the
engine an :class:`~repro.sim.events.Event` to wait on; the generator is
resumed with the event's value (or the event's exception is thrown into
it).  A process is itself an event that triggers with the generator's
return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Process(Event):
    """A running simulation process (also an awaitable event)."""

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process() needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._gen = generator
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume)
        from repro.sim.engine import URGENT

        sim._schedule(bootstrap, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return not self.triggered

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    next_event = self._gen.send(event._value)
                else:
                    event._defused = True
                    next_event = self._gen.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                err = SimulationError(
                    f"process yielded {next_event!r}, expected an Event"
                )
                self._gen.close()
                self.fail(err)
                return
            if next_event.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = next_event
                if not event._ok:
                    event._defused = True
                continue
            next_event.callbacks.append(self._resume)
            return
