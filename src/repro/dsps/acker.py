"""The acker's pending table: which destinations still owe a root an ack.

Every delivery tree either backend tracks has one level: a spout tuple
and the destination tasks its one-to-many edges chose, all known when
the tuple is emitted.  Storm's XOR acker folds such a tree into one
64-bit value; with the destination list already in hand, the plain set
of outstanding tasks is as small and also says *which* destinations are
missing, which selective replay needs.

The table is sans-IO: callers pass the clock in, and it neither sends
nor schedules anything.  The DES :class:`~repro.dsps.reliability.ReplayCoordinator`
and rt's :class:`~repro.rt.worker.Acker` both track completion with it.
Keys are root tuple ids, so a spout tuple on two one-to-many edges is
one tree over the union of their destinations.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple


class PendingTable:
    """Armed keys, each with its outstanding tasks and arm time.

    Iteration order is arm order: arming a key (again) moves it to the
    end, so :meth:`expired` can stop at the first key still in time.
    """

    def __init__(self) -> None:
        #: key -> (outstanding tasks as an insertion-ordered dict, armed at)
        self._entries: Dict[Hashable, Tuple[Dict[int, None], float]] = {}

    def arm(self, key: Hashable, tasks: Iterable[int], now: float) -> bool:
        """Await an ack from each of ``tasks`` for ``key``.

        Arming a live key adds ``tasks`` to the ones it still awaits and
        restarts its timeout.  Returns ``True`` when nothing is
        outstanding — an empty arm completes at once and leaves the key
        unarmed."""
        entry = self._entries.pop(key, None)
        outstanding = entry[0] if entry is not None else {}
        outstanding.update(dict.fromkeys(tasks))
        if not outstanding:
            return True
        self._entries[key] = (outstanding, now)
        return False

    def ack(self, key: Hashable, task: int) -> bool:
        """``task`` acked ``key``; ``True`` when that was the last one.
        A late or duplicate ack changes nothing."""
        entry = self._entries.get(key)
        if entry is None or task not in entry[0]:
            return False
        outstanding = entry[0]
        del outstanding[task]
        if outstanding:
            return False
        del self._entries[key]
        return True

    def expired(
        self, now: float, timeout: float
    ) -> List[Tuple[Hashable, List[int]]]:
        """Disarm every key armed at least ``timeout`` ago; returns them
        in arm order, each with the tasks it was still awaiting."""
        out = []
        for key, (outstanding, armed_at) in self._entries.items():
            if now - armed_at < timeout:
                break  # arm order is time order: the rest are younger
            out.append((key, list(outstanding)))
        for key, _ in out:
            del self._entries[key]
        return out

    def awaits(self, key: Hashable, task: int) -> bool:
        """Whether ``key`` is armed and still awaits ``task``'s ack."""
        entry = self._entries.get(key)
        return entry is not None and task in entry[0]

    def items(self) -> List[Tuple[Hashable, List[int]]]:
        """A snapshot of the armed keys, in arm order, each with the
        tasks it still awaits."""
        return [(key, list(entry[0])) for key, entry in self._entries.items()]

    def __len__(self) -> int:
        return len(self._entries)
