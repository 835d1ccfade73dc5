"""Shared resources: the bounded FIFO store.

:class:`Store` is the building block for every queue in the system model
(executor incoming and transfer queues).  Its operations never block:
``try_put`` refuses when the store is full and ``try_get`` reports an
empty store, so the thread that owns a queue decides what waiting means
(an idle thread is restarted by whoever hands it work).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Tuple

from repro.sim.events import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Store:
    """A FIFO buffer with bounded capacity."""

    def __init__(self, sim: "Simulator", capacity: float = math.inf):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    # ------------------------------------------------------------------
    def try_put(self, item: Any) -> bool:
        """Insert ``item``; returns ``False`` (rejecting it) if full."""
        if len(self.items) < self.capacity:
            self.items.append(item)
            self._on_put(item)
            return True
        return False

    def try_get(self) -> Tuple[bool, Any]:
        """Remove the oldest item: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.popleft()
            self._on_get(item)
            return True, item
        return False, None

    def clear(self) -> list:
        """Drop every buffered item (fault injection: a crashed machine
        loses its queues); returns the dropped items."""
        dropped = list(self.items)
        self.items.clear()
        return dropped

    # ------------------------------------------------------------------
    # hooks for subclasses (stats collection)
    # ------------------------------------------------------------------
    def _on_put(self, item: Any) -> None:
        """Called whenever an item physically enters the buffer."""

    def _on_get(self, item: Any) -> None:
        """Called whenever an item physically leaves the buffer."""
