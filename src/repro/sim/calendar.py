"""Array-backed event calendar (``Simulator(calendar="array")``).

The default :class:`~repro.sim.engine.Simulator` calendar is a binary
heap of ``(when, key, fn)`` tuples driven by :mod:`heapq`.  That boxes
one tuple per calendar entry; this module provides the alternative the
roadmap's engine-speedup item calls for: preallocated parallel arrays of
``when``/``key`` (a C ``double`` and ``int64`` per slot, no per-event
tuple) plus an index heap ordering the slots.

The ordering contract is identical to the engine's default calendar:
entries pop in ``(when, key)`` order, where ``key`` packs
``priority * 2**62 + seq`` — so all urgent entries at an instant precede
all ordinary ones, FIFO within a priority class.  The two calendars are
interchangeable; ``tests/test_sim_calendar.py`` checks trace-identical
runs.

On CPython the :mod:`heapq` C implementation usually wins (the sift loops
here are Python bytecode), so the array calendar stays opt-in — it exists
to bound per-event allocation and as the substrate for future vectorized
calendar queries (e.g. numpy windowed extraction).  Measured numbers live
in ``benchmarks/perf`` (``sim.calendar_*_ops_per_s``).
"""

from __future__ import annotations

from array import array
from typing import Any, List, Tuple


class ArrayCalendar:
    """Index-heap over preallocated ``(when, key)`` arrays.

    Slots are recycled through a free list, so steady-state scheduling
    does not allocate beyond the callbacks themselves.  The arrays
    double when full (amortized O(1)).
    """

    __slots__ = ("_when", "_key", "_event", "_heap", "_free", "_capacity")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._when = array("d", bytes(8 * capacity))
        self._key = array("q", bytes(8 * capacity))
        self._event: List[Any] = [None] * capacity
        #: heap of slot indices, ordered by (when[slot], key[slot])
        self._heap: List[int] = []
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def peek_when(self) -> float:
        """``when`` of the next event (undefined when empty)."""
        return self._when[self._heap[0]]

    # ------------------------------------------------------------------
    def push(self, when: float, key: int, event: Any) -> None:
        free = self._free
        if not free:
            self._grow()
            free = self._free
        slot = free.pop()
        self._when[slot] = when
        self._key[slot] = key
        self._event[slot] = event
        heap = self._heap
        heap.append(slot)
        self._sift_up(len(heap) - 1)

    def pop(self) -> Tuple[float, Any]:
        heap = self._heap
        slot = heap[0]
        when = self._when[slot]
        event = self._event[slot]
        self._event[slot] = None  # don't pin processed events alive
        self._free.append(slot)
        last = heap.pop()
        if heap:
            heap[0] = last
            self._sift_down(0)
        return when, event

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = self._capacity
        new = old * 2
        self._when.extend(array("d", bytes(8 * old)))
        self._key.extend(array("q", bytes(8 * old)))
        self._event.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))
        self._capacity = new

    def _sift_up(self, pos: int) -> None:
        heap, when, keys = self._heap, self._when, self._key
        slot = heap[pos]
        w, k = when[slot], keys[slot]
        while pos > 0:
            parent_pos = (pos - 1) >> 1
            parent = heap[parent_pos]
            pw = when[parent]
            if pw < w or (pw == w and keys[parent] <= k):
                break
            heap[pos] = parent
            pos = parent_pos
        heap[pos] = slot

    def _sift_down(self, pos: int) -> None:
        heap, when, keys = self._heap, self._when, self._key
        end = len(heap)
        slot = heap[pos]
        w, k = when[slot], keys[slot]
        child_pos = 2 * pos + 1
        while child_pos < end:
            right = child_pos + 1
            child = heap[child_pos]
            cw, ck = when[child], keys[child]
            if right < end:
                other = heap[right]
                ow = when[other]
                if ow < cw or (ow == cw and keys[other] < ck):
                    child_pos = right
                    child = other
                    cw, ck = ow, keys[other]
            if w < cw or (w == cw and k <= ck):
                break
            heap[pos] = child
            pos = child_pos
            child_pos = 2 * pos + 1
        heap[pos] = slot
