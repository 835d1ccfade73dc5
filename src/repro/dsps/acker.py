"""Storm's acker protocol: XOR-based tuple-tree completion tracking.

Storm (and therefore Whale) guarantees at-least-once processing by
tracking, per spout tuple, the *tuple tree* of everything derived from
it.  The trick that makes this O(1) memory per root: every edge of the
tree gets a random 64-bit id; the acker keeps one value per root — the
XOR of every edge id it has seen.  Each processed tuple acks by XOR-ing
(consumed edge id) ^ (ids of edges it emitted); since every edge id
enters the value exactly twice (once on emit, once on ack), the value
returns to zero exactly when the whole tree is processed.

This module implements the protocol exactly; it is exercised standalone
and available to topologies that want completion semantics stronger
than the metrics trackers.  Timeouts mark trees failed for replay
(at-least-once), mirroring ``TOPOLOGY_MESSAGE_TIMEOUT_SECS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


@dataclass
class _TreeState:
    ack_val: int
    registered_at: float
    edges_seen: int = 0


@dataclass(frozen=True)
class TreeOutcome:
    """Completion report for one spout tuple."""

    root_id: int
    completed: bool  # False = timed out (failed, eligible for replay)
    latency_s: float
    edges_seen: int


class Acker:
    """One acker task.

    Parameters
    ----------
    now_fn:
        Clock source (e.g. ``lambda: sim.now``); injected so the
        protocol is testable without the DES.
    timeout_s:
        Trees older than this are failed on :meth:`sweep`.
    """

    def __init__(
        self,
        now_fn: Callable[[], float],
        timeout_s: float = 30.0,
        seed: int = 0,
    ):
        if timeout_s <= 0:
            raise ValueError(f"timeout must be positive, got {timeout_s}")
        self._now = now_fn
        self.timeout_s = timeout_s
        self._rng = np.random.default_rng(seed)
        self._trees: Dict[int, _TreeState] = {}

    # ------------------------------------------------------------------
    def new_edge_id(self) -> int:
        """A random non-zero 64-bit edge id."""
        while True:
            edge = int(self._rng.integers(1, 2**63, dtype=np.int64))
            if edge != 0:
                return edge

    def register(self, root_id: int, first_edge_id: int) -> None:
        """Spout-side: a new tuple tree rooted at ``root_id`` whose first
        edge (spout -> first consumer) is ``first_edge_id``."""
        if root_id in self._trees:
            raise ValueError(f"root {root_id} already registered")
        if first_edge_id == 0:
            raise ValueError("edge ids must be non-zero")
        self._trees[root_id] = _TreeState(
            ack_val=first_edge_id,
            registered_at=self._now(),
            edges_seen=1,
        )

    def ack(
        self,
        root_id: int,
        consumed_edge_id: int,
        emitted_edge_ids: Sequence[int] = (),
    ) -> Optional[TreeOutcome]:
        """Bolt-side: tuple on ``consumed_edge_id`` was processed and
        produced ``emitted_edge_ids``.  Returns the outcome if the tree
        completed, else ``None``."""
        state = self._trees.get(root_id)
        if state is None:
            return None  # already completed/failed (late ack is a no-op)
        val = state.ack_val ^ consumed_edge_id
        for edge in emitted_edge_ids:
            if edge == 0:
                raise ValueError("edge ids must be non-zero")
            val ^= edge
            state.edges_seen += 1
        state.ack_val = val
        if val == 0:
            del self._trees[root_id]
            return TreeOutcome(
                root_id=root_id,
                completed=True,
                latency_s=self._now() - state.registered_at,
                edges_seen=state.edges_seen,
            )
        return None

    def fail(self, root_id: int) -> Optional[TreeOutcome]:
        """Explicitly fail a tree (e.g. a bolt raised)."""
        state = self._trees.pop(root_id, None)
        if state is None:
            return None
        return TreeOutcome(
            root_id=root_id,
            completed=False,
            latency_s=self._now() - state.registered_at,
            edges_seen=state.edges_seen,
        )

    def sweep(self) -> List[TreeOutcome]:
        """Fail every tree older than the timeout; returns the failures."""
        now = self._now()
        expired = [
            root
            for root, state in self._trees.items()
            if now - state.registered_at >= self.timeout_s
        ]
        return [self.fail(root) for root in expired]  # type: ignore[misc]

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._trees)

    def pending_roots(self) -> List[int]:
        return list(self._trees)
