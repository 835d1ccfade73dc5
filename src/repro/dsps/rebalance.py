"""Runtime partition rebalancing: migrate load off overloaded workers.

Two pieces, enabled together by ``SystemConfig.rebalance``:

* :class:`PartitionRouter` — the routing directory.  For every operator
  it owns a **live task list** (initially the placement order) that
  every upstream executor's grouping routes through.  Parking a task
  removes it from the list *in place* — every emitter sees the change on
  its next ``choose`` with no executor rebuild — and restoring re-inserts
  it at its original placement position, so a fully-restored operator
  routes exactly as it did before any migration.

* :class:`Rebalancer` — a periodic control process mirroring the
  Section 3.3 waterline rule, applied to executor *input* queues: when a
  task's input depth crosses the migration waterline it is parked
  (migrated off), and once it drains below the restore level it comes
  back.  Decisions respect a cooldown per operator, never park the last
  ``min_active`` tasks, and never restore onto a crashed machine.

**Conservation-safe handoff.** A migration only redirects *future*
routing choices; the parked executor keeps running and drains every
tuple already queued to it, so no tuple is lost or duplicated across a
migration — the invariant layer's conservation checks (and the
``partition_routing`` invariant over the router's directory) hold
throughout.  One-to-many (broadcast) edges are exempt by construction:
they always fan out over the pristine placement list, keeping multicast
trees and completion trackers on stable membership.

Migrations emit ``rebalance.migrate`` / ``rebalance.restore`` trace
records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.dsps.grouping import inqueue_depth
from repro.sim.engine import every

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.system import DspsSystem

#: the scan period (the rebalancer's Delta t), the migration waterline as
#: a fraction of the executor input-queue capacity, and the minimum time
#: between migrations of one operator.  The waterline must bite within a
#: sub-second run: ~80 queued tuples (2% of the 4096-capacity input
#: queue).
REBALANCE_INTERVAL_S = 0.02
REBALANCE_WATERLINE_FRACTION = 0.02
REBALANCE_COOLDOWN_S = 0.05

#: a parked task is restored when its queue drains below this fraction of
#: the migration waterline
REBALANCE_RESTORE_FRACTION = 0.25


class PartitionRouter:
    """Live routing directory: active (routable) tasks per operator."""

    def __init__(self, system: "DspsSystem"):
        self.system = system
        placement = system.placement
        #: operator -> live task list; executors hold references to these
        #: exact list objects, so membership edits are visible instantly.
        self._active: Dict[str, List[int]] = {
            op: list(tasks) for op, tasks in placement.tasks_of.items()
        }
        self._parked: Dict[str, set] = {op: set() for op in placement.tasks_of}

    def active_tasks(self, operator: str) -> List[int]:
        """The live (shared, mutable) task list of ``operator``."""
        return self._active[operator]

    def parked_tasks(self, operator: str) -> List[int]:
        return sorted(self._parked[operator])

    def _rewire(self, operator: str) -> None:
        """Rebuild the live list in place, preserving placement order."""
        parked = self._parked[operator]
        placed = self.system.placement.tasks_of[operator]
        self._active[operator][:] = [t for t in placed if t not in parked]

    def park(self, operator: str, task_id: int) -> None:
        """Remove ``task_id`` from the routable set of ``operator``."""
        parked = self._parked[operator]
        if task_id in parked:
            raise RuntimeError(f"task {task_id} is already parked")
        if len(self._active[operator]) <= 1:
            raise RuntimeError(
                f"cannot park the last routable task of {operator!r}"
            )
        parked.add(task_id)
        self._rewire(operator)

    def restore(self, operator: str, task_id: int) -> None:
        """Return ``task_id`` to its placement position in the live list."""
        parked = self._parked[operator]
        if task_id not in parked:
            raise RuntimeError(f"task {task_id} is not parked")
        parked.discard(task_id)
        self._rewire(operator)


class Rebalancer:
    """Waterline-driven migration controller over the router."""

    def __init__(self, system: "DspsSystem"):
        self.system = system
        #: input-queue depth (tuples) at which a task is migrated
        self.waterline = (REBALANCE_WATERLINE_FRACTION
                          * system.config.executor_queue_capacity)
        self.restore_level = REBALANCE_RESTORE_FRACTION * self.waterline
        self.migrations = 0
        self.restores = 0
        self._last_migration: Dict[str, float] = {}
        #: operators the rebalancer manages: bolts with >1 task that are
        #: reached by at least one non-broadcast edge (broadcast-only
        #: operators have nothing to rebalance — every task gets every
        #: tuple regardless).
        self._operators = [
            op.name
            for op in system.topology.bolts()
            if op.parallelism > 1
            and any(not g.one_to_many for g in op.inputs.values())
        ]

    def start(self) -> None:
        every(self.system.sim, REBALANCE_INTERVAL_S, self.scan)

    # ------------------------------------------------------------------
    def _depth(self, task_id: int) -> int:
        return inqueue_depth(self.system.executors[task_id])

    def min_active(self, operator: str) -> int:
        """Never migrate below half the placed parallelism (and never to
        zero): shedding capacity is not a cure for overload."""
        placed = len(self.system.placement.tasks_of[operator])
        return max(1, placed // 2)

    def scan(self) -> None:
        """One control round: park over-waterline tasks, restore drained
        ones (restores first, so capacity returns before more leaves)."""
        system = self.system
        router = system.partition_router
        now = system.sim.now
        tracer = system.sim.tracer
        for operator in self._operators:
            for task_id in router.parked_tasks(operator):
                ex = system.executors[task_id]
                if system.machine_is_crashed(ex.machine_id):
                    continue
                depth = self._depth(task_id)
                if depth > self.restore_level:
                    continue
                router.restore(operator, task_id)
                self.restores += 1
                system.metrics.on_partition_restored()
                if tracer is not None:
                    tracer.emit(
                        "rebalance.restore",
                        now,
                        operator=operator,
                        task=task_id,
                        machine=ex.machine_id,
                        depth=depth,
                        active=len(router.active_tasks(operator)),
                    )
            last = self._last_migration.get(operator)
            if last is not None and now - last < REBALANCE_COOLDOWN_S:
                continue
            active = router.active_tasks(operator)
            if len(active) <= self.min_active(operator):
                continue
            # Park the single worst offender per round (stable choice:
            # deepest queue, placement order breaking ties).
            worst_task = None
            worst_depth = -1
            for task_id in active:
                depth = self._depth(task_id)
                if depth > worst_depth:
                    worst_task, worst_depth = task_id, depth
            if worst_task is None or worst_depth < self.waterline:
                continue
            ex = system.executors[worst_task]
            router.park(operator, worst_task)
            self.migrations += 1
            self._last_migration[operator] = now
            system.metrics.on_partition_migrated()
            if tracer is not None:
                tracer.emit(
                    "rebalance.migrate",
                    now,
                    operator=operator,
                    task=worst_task,
                    machine=ex.machine_id,
                    depth=worst_depth,
                    waterline=self.waterline,
                    active=len(router.active_tasks(operator)),
                )
