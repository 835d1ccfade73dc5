"""Shared resources: the bounded FIFO store.

:class:`Store` is the building block for every queue in the system model
(executor send/receive queues, NIC work-request queues, ...).  ``put`` and
``get`` return events so processes block naturally when a store is full or
empty.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Tuple

from repro.sim.events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Store:
    """A FIFO buffer with bounded capacity.

    ``put(item)`` blocks (i.e. the returned event stays untriggered) while
    the store is full; ``get()`` blocks while it is empty.  Waiters are
    served in FIFO order.
    """

    def __init__(self, sim: "Simulator", capacity: float = math.inf):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, item: Any) -> Event:
        """Insert ``item``; the event triggers once the item is accepted."""
        ev = Event(self.sim)
        if len(self.items) < self.capacity and not self._putters:
            self._accept(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: returns ``False`` (rejecting) if full."""
        if len(self.items) < self.capacity and not self._putters:
            self._accept(item)
            return True
        return False

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self._release())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            return True, self._release()
        return False, None

    def clear(self) -> list:
        """Drop every buffered item (fault injection: a crashed machine
        loses its queues); returns the dropped items.

        Pending blocked putters are unblocked and their items dropped too
        — from the sender's view the item was accepted and then lost,
        exactly like handing a message to a NIC that dies.  Blocked
        getters stay blocked (the queue is now empty).
        """
        dropped = list(self.items)
        self.items.clear()
        while self._putters:
            ev, pending = self._putters.popleft()
            dropped.append(pending)
            ev.succeed()
        return dropped

    # ------------------------------------------------------------------
    # hooks for subclasses (stats collection)
    # ------------------------------------------------------------------
    def _on_put(self, item: Any) -> None:
        """Called whenever an item physically enters the buffer."""

    def _on_get(self, item: Any) -> None:
        """Called whenever an item physically leaves the buffer."""

    # ------------------------------------------------------------------
    def _accept(self, item: Any) -> None:
        self.items.append(item)
        self._on_put(item)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(self._release())

    def _release(self) -> Any:
        item = self.items.popleft()
        self._on_get(item)
        # Freed a slot: admit the longest-waiting putter, if any.
        if self._putters and len(self.items) < self.capacity:
            ev, pending = self._putters.popleft()
            self.items.append(pending)
            self._on_put(pending)
            ev.succeed()
        return item
