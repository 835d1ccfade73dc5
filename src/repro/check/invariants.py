"""The invariant catalog: what must always hold in a running system.

An :class:`Invariant` is a named predicate over either a single trace
record (``scope="record"``), the live object graph between events
(``scope="state"``), or the settled end-of-run state (``scope="final"``).
Invariant functions receive a :class:`CheckContext` and report problems
through :meth:`CheckContext.fail`; the attached
:class:`~repro.check.checker.InvariantChecker` decides whether a failure
raises (``strict``) or is collected into the report (``warn``).

Scopes matter because the simulator mutates multi-object state inside a
single event callback: a machine crash flips the fabric, transport,
worker, and executors one after another, emitting trace records in
between.  ``state`` invariants are therefore restricted to relations
each subsystem maintains atomically (counter conservation, tree shape);
cross-subsystem consistency (crash quarantine, suspicion/degraded
coupling, live-vs-replay metric equality) is only well-defined once the
run has settled and lives in ``final`` scope.

The catalog (see TESTING.md for the prose version):

==========================  ====== ==========================================
name                        scope  guards against
==========================  ====== ==========================================
``clock_monotone``          record time travel in the event engine
``queue_conservation``      state  lost/duplicated envelopes in any
                                   transfer queue (offered = accepted +
                                   dropped + waiting; accepted = dequeued +
                                   cleared + level; level <= capacity)
``tracker_conservation``    state  multicast/completion tracker leaks
                                   (registered = completed + cancelled +
                                   outstanding, latency list lengths)
``replay_conservation``     state  acker tree leaks and double-counted
                                   give-ups (registered = completions +
                                   gave_up + outstanding, roots unique,
                                   abandoned counter = give-ups)
``no_duplicate_side_effects`` state duplicate executions of one root at
                                   one task slipping past exactly-once /
                                   atomic dedup
``group_atomicity``         final  atomic multicast breaches: an aborted
                                   tree that executed anywhere, a
                                   committed tree missing a live
                                   destination, or out-of-sender-order
                                   commits
``tree_structure``          state  disconnected/cyclic multicast trees,
                                   d* cap violations, detached endpoints
                                   still wired into a tree
``bounded_queues``          state  queues outgrowing their capacity (or
                                   credit reservations going negative)
                                   while flow control is on
``shed_conservation``       state  shed/deferred messages double- or
                                   un-counted between the flow
                                   controller, metrics, and queues
``partition_routing``       state  the rebalancer's directory corrupting
                                   routing (active + parked != placed,
                                   empty active set, order breakage)
``fabric_conservation``     state  message counters drifting (delivered +
                                   dead + lost <= injected)
``crash_quarantine``        final  crashed machines whose NIC, worker, or
                                   executors are still live
``suspects_degraded``       final  suspected machines still on the RDMA
                                   fast path (never relaying is enforced
                                   structurally: detached => out of tree)
``metrics_replay_equiv``    final  MetricsHub figures diverging from what
                                   the trace replay re-derives
==========================  ====== ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.checker import InvariantChecker
    from repro.dsps.system import DspsSystem


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    invariant: str
    t: float
    message: str
    context: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        ctx = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        suffix = f" [{ctx}]" if ctx else ""
        return f"[{self.invariant}] t={self.t:.6f}: {self.message}{suffix}"


class InvariantViolation(AssertionError):
    """Raised (in ``strict`` mode) the moment an invariant breaks.

    Subclasses :class:`AssertionError` so plain ``pytest.raises`` and
    assertion-rewriting tooling treat it as a test failure, while the
    structured :attr:`violation` keeps the machine-readable details.
    """

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class Invariant:
    """A named check with a scope and a predicate."""

    name: str
    description: str
    scope: str  # "record" | "state" | "final"
    fn: Callable[["CheckContext"], None]


class CheckContext:
    """What an invariant function sees: the system, the instant, and —
    for record-scope invariants — the triggering trace record."""

    def __init__(
        self,
        checker: "InvariantChecker",
        invariant: Invariant,
        t: float,
        record: Optional[Dict[str, Any]] = None,
    ):
        self.checker = checker
        self.system: "DspsSystem" = checker.system
        self.invariant = invariant
        self.t = t
        self.record = record

    def fail(self, message: str, **context: Any) -> None:
        """Report one breach; raises in strict mode, records in warn."""
        self.checker._report(
            Violation(
                invariant=self.invariant.name,
                t=self.t,
                message=message,
                context=context,
            )
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
REGISTRY: Dict[str, Invariant] = {}

_SCOPES = ("record", "state", "final")


def invariant(name: str, scope: str, description: str):
    """Register an invariant function under ``name``."""
    if scope not in _SCOPES:
        raise ValueError(f"scope must be one of {_SCOPES}, got {scope!r}")

    def deco(fn: Callable[[CheckContext], None]) -> Callable:
        if name in REGISTRY:
            raise ValueError(f"invariant {name!r} already registered")
        REGISTRY[name] = Invariant(
            name=name, description=description, scope=scope, fn=fn
        )
        return fn

    return deco


def default_invariants() -> List[Invariant]:
    """The full built-in catalog, in registration order."""
    return list(REGISTRY.values())


# ----------------------------------------------------------------------
# record scope
# ----------------------------------------------------------------------
@invariant(
    "clock_monotone",
    "record",
    "simulated time never decreases along the trace",
)
def _clock_monotone(ctx: CheckContext) -> None:
    t = ctx.record.get("t", 0.0)
    last = ctx.checker.last_record_t
    if last is not None and t < last:
        ctx.fail(
            f"record time {t} precedes previous record time {last}",
            kind=ctx.record.get("kind"),
        )
    if t > ctx.system.sim.now:
        ctx.fail(
            f"record stamped {t} in the future of sim.now={ctx.system.sim.now}",
            kind=ctx.record.get("kind"),
        )


# ----------------------------------------------------------------------
# state scope
# ----------------------------------------------------------------------
@invariant(
    "queue_conservation",
    "state",
    "every transfer queue conserves items and respects its capacity",
)
def _queue_conservation(ctx: CheckContext) -> None:
    for task_id, ex in ctx.system.executors.items():
        q = ex.transfer_queue
        if not (0 <= q.level <= q.capacity):
            ctx.fail(
                f"occupancy {q.level} outside [0, {q.capacity}]",
                queue=q.name,
            )
        if q.max_length > q.capacity:
            ctx.fail(
                f"max observed length {q.max_length} exceeds capacity "
                f"{q.capacity}",
                queue=q.name,
            )
        waiting = len(q.waiting)
        if q.offered != q.accepted + q.dropped + waiting:
            ctx.fail(
                f"offered {q.offered} != accepted {q.accepted} + dropped "
                f"{q.dropped} + waiting {waiting}",
                queue=q.name,
            )
        shed = getattr(q, "shed", 0)
        if q.accepted != q.dequeued + q.cleared + shed + q.level:
            ctx.fail(
                f"accepted {q.accepted} != dequeued {q.dequeued} + cleared "
                f"{q.cleared} + shed {shed} + level {q.level}",
                queue=q.name,
            )
        inqueue = getattr(ex, "inqueue", None)
        if inqueue is not None and not (0 <= inqueue.level <= inqueue.capacity):
            ctx.fail(
                f"inqueue occupancy {inqueue.level} outside "
                f"[0, {inqueue.capacity}]",
                task=task_id,
            )


@invariant(
    "tracker_conservation",
    "state",
    "multicast/completion trackers conserve tuples "
    "(registered = completed + cancelled + in-flight)",
)
def _tracker_conservation(ctx: CheckContext) -> None:
    metrics = ctx.system.metrics
    for label, tracker in (
        ("multicast", metrics.multicast),
        ("completion", metrics.completion),
    ):
        if tracker.registered != (
            tracker.completed + tracker.cancelled + tracker.outstanding
        ):
            ctx.fail(
                f"{label}: registered {tracker.registered} != completed "
                f"{tracker.completed} + cancelled {tracker.cancelled} + "
                f"outstanding {tracker.outstanding}",
                tracker=label,
            )
        if len(tracker.latencies) != tracker.completed:
            ctx.fail(
                f"{label}: {len(tracker.latencies)} latency samples for "
                f"{tracker.completed} completions",
                tracker=label,
            )


@invariant(
    "replay_conservation",
    "state",
    "the replay coordinator conserves tuple trees and counts each "
    "exhausted tuple exactly once",
)
def _replay_conservation(ctx: CheckContext) -> None:
    coord = ctx.system.reliability
    if coord is None:
        return
    total = len(coord.completions) + len(coord.gave_up) + coord.outstanding
    if coord.registered != total:
        ctx.fail(
            f"registered {coord.registered} != completions "
            f"{len(coord.completions)} + gave_up {len(coord.gave_up)} + "
            f"outstanding {coord.outstanding}"
        )
    if len(coord.gave_up) != len(set(coord.gave_up)):
        ctx.fail(
            f"gave_up roots not unique: {sorted(coord.gave_up)}"
        )
    completed_roots = [c.root_id for c in coord.completions]
    if len(completed_roots) != len(set(completed_roots)):
        ctx.fail("completion roots not unique")
    abandoned = ctx.system.metrics.messages_abandoned
    if abandoned != len(coord.gave_up):
        ctx.fail(
            f"metrics.messages_abandoned {abandoned} != gave_up "
            f"{len(coord.gave_up)}: an exhausted tree escaped accounting"
        )


@invariant(
    "no_duplicate_side_effects",
    "state",
    "under exactly-once/atomic delivery no root tuple executes twice at "
    "the same task",
)
def _no_duplicate_side_effects(ctx: CheckContext) -> None:
    coord = ctx.system.reliability
    if coord is None or coord.mode not in ("exactly_once", "atomic"):
        return
    if coord.duplicate_executions:
        ctx.fail(
            f"{coord.duplicate_executions} duplicate execution(s) slipped "
            f"past the dedup layer",
            mode=coord.mode,
        )


@invariant(
    "tree_structure",
    "state",
    "every multicast tree is connected, acyclic, within the d* cap, and "
    "free of detached endpoints",
)
def _tree_structure(ctx: CheckContext) -> None:
    from repro.multicast import SOURCE

    for service in ctx.system.multicast_services:
        tree = service.tree
        edge = f"{service.src_task}->{service.dst_operator}"
        if tree.root is not SOURCE:
            ctx.fail(f"tree root is {tree.root!r}, not SOURCE", edge=edge)
        d_cap = service.d_star if service.structure == "nonblocking" else None
        try:
            tree.validate(d_star=d_cap)
        except Exception as exc:
            ctx.fail(f"structural violation: {exc}", edge=edge)
            continue
        known = set(service.endpoints)
        dests = set(tree.destinations())
        if not dests <= known:
            ctx.fail(
                f"tree holds unknown endpoints {sorted(map(repr, dests - known))}",
                edge=edge,
            )
        wired_detached = dests & service._detached
        if wired_detached:
            ctx.fail(
                f"detached endpoints still wired into the tree: "
                f"{sorted(map(repr, wired_detached))}",
                edge=edge,
            )
        if dests | service._detached != known:
            missing = known - dests - service._detached
            ctx.fail(
                f"endpoints neither wired nor detached: "
                f"{sorted(map(repr, missing))}",
                edge=edge,
            )


@invariant(
    "bounded_queues",
    "state",
    "with flow control enabled no queue ever grew past its capacity and "
    "credit reservations stay sane",
)
def _bounded_queues(ctx: CheckContext) -> None:
    flow = getattr(ctx.system, "flow", None)
    if flow is None:
        return
    for task_id, ex in ctx.system.executors.items():
        q = ex.transfer_queue
        if q.max_length > q.capacity:
            ctx.fail(
                f"transfer queue peaked at {q.max_length} > capacity "
                f"{q.capacity}",
                queue=q.name,
            )
        inqueue = getattr(ex, "inqueue", None)
        if inqueue is not None and inqueue.level > inqueue.capacity:
            ctx.fail(
                f"inqueue level {inqueue.level} > capacity "
                f"{inqueue.capacity}",
                task=task_id,
            )
    for task_id, reserved in flow.in_flight.items():
        if reserved < 0:
            ctx.fail(
                f"negative credit reservation {reserved}",
                task=task_id,
            )


@invariant(
    "shed_conservation",
    "state",
    "every shed or deferred message is accounted for exactly once across "
    "the flow controller, metrics hub, and per-queue counters",
)
def _shed_conservation(ctx: CheckContext) -> None:
    flow = getattr(ctx.system, "flow", None)
    metrics = ctx.system.metrics
    if flow is None:
        if metrics.messages_shed or metrics.messages_deferred:
            ctx.fail(
                f"flow disabled but messages_shed={metrics.messages_shed} "
                f"messages_deferred={metrics.messages_deferred}"
            )
        return
    total = flow.shed_refusals + flow.shed_evictions
    if metrics.messages_shed != total:
        ctx.fail(
            f"metrics.messages_shed {metrics.messages_shed} != refusals "
            f"{flow.shed_refusals} + evictions {flow.shed_evictions}"
        )
    by_queue = sum(metrics.shed_by_queue.values())
    if by_queue != total:
        ctx.fail(
            f"per-queue shed sum {by_queue} != flow total {total}"
        )
    queue_shed = sum(
        ex.transfer_queue.shed for ex in ctx.system.executors.values()
    )
    if queue_shed != flow.shed_evictions:
        ctx.fail(
            f"queue evict counters sum to {queue_shed} != flow evictions "
            f"{flow.shed_evictions}"
        )
    if metrics.messages_deferred != flow.deferred:
        ctx.fail(
            f"metrics.messages_deferred {metrics.messages_deferred} != "
            f"flow.deferred {flow.deferred}"
        )


@invariant(
    "partition_routing",
    "state",
    "the rebalancer's routing directory partitions every operator's "
    "placed tasks into active + parked, never routes to an empty set, "
    "and preserves placement order",
)
def _partition_routing(ctx: CheckContext) -> None:
    router = getattr(ctx.system, "partition_router", None)
    if router is None:
        return
    placement = ctx.system.placement
    for operator, placed in placement.tasks_of.items():
        active = router.active_tasks(operator)
        parked = router.parked_tasks(operator)
        if not active:
            ctx.fail("no routable tasks left", operator=operator)
            continue
        active_set, parked_set = set(active), set(parked)
        if active_set & parked_set:
            ctx.fail(
                f"tasks both active and parked: "
                f"{sorted(active_set & parked_set)}",
                operator=operator,
            )
        if active_set | parked_set != set(placed):
            ctx.fail(
                f"active {sorted(active_set)} + parked {sorted(parked_set)} "
                f"!= placed {sorted(placed)}",
                operator=operator,
            )
        if [t for t in placed if t in active_set] != list(active):
            ctx.fail(
                f"active list {active} breaks placement order {placed}",
                operator=operator,
            )


@invariant(
    "fabric_conservation",
    "state",
    "fabric message counters never exceed what was injected",
)
def _fabric_conservation(ctx: CheckContext) -> None:
    fabric = ctx.system.fabric
    accounted = (
        fabric.messages_delivered + fabric.messages_dead + fabric.messages_lost
    )
    if accounted > fabric.messages_injected:
        ctx.fail(
            f"delivered {fabric.messages_delivered} + dead "
            f"{fabric.messages_dead} + lost {fabric.messages_lost} exceed "
            f"injected {fabric.messages_injected}",
            fabric=fabric.name,
        )


# ----------------------------------------------------------------------
# final scope
# ----------------------------------------------------------------------
@invariant(
    "crash_quarantine",
    "final",
    "crashed machines are fully quarantined: fabric down, NIC paused, "
    "worker crashed, executors halted",
)
def _crash_quarantine(ctx: CheckContext) -> None:
    system = ctx.system
    for machine in sorted(system._crashed):
        if system.fabric.machine_is_up(machine):
            ctx.fail("crashed machine still up on the fabric", machine=machine)
        if not system.fabric.ports[machine].paused:
            ctx.fail("crashed machine's NIC still draining", machine=machine)
        if not system.workers[machine].crashed:
            ctx.fail("crashed machine's worker still live", machine=machine)
    for ex in system.executors.values():
        crashed = ex.machine_id in system._crashed
        if crashed and not ex.halted:
            ctx.fail(
                "executor on a crashed machine not halted",
                task=ex.task_id,
                machine=ex.machine_id,
            )
        if not crashed and ex.halted:
            ctx.fail(
                "executor halted although its machine is up",
                task=ex.task_id,
                machine=ex.machine_id,
            )


@invariant(
    "suspects_degraded",
    "final",
    "machines suspected by a failure detector are quarantined on the "
    "degraded (TCP) path",
)
def _suspects_degraded(ctx: CheckContext) -> None:
    system = ctx.system
    is_degraded = system.transport.is_degraded
    for controller in system.controllers:
        detector = controller.detector
        if detector is None:
            continue
        for machine in sorted(detector.suspected):
            if not is_degraded(machine):
                ctx.fail(
                    "suspected machine still on the RDMA fast path",
                    machine=machine,
                    src_task=controller.service.src_task,
                )


@invariant(
    "group_atomicity",
    "final",
    "atomic multicast is all-or-none over live destinations and commits "
    "in per-sender order",
)
def _group_atomicity(ctx: CheckContext) -> None:
    coord = ctx.system.reliability
    if coord is None or coord.mode != "atomic":
        return
    for problem in coord.audit_violations():
        ctx.fail(problem)


@invariant(
    "metrics_replay_equiv",
    "final",
    "MetricsHub live figures equal what the trace replay re-derives",
)
def _metrics_replay_equiv(ctx: CheckContext) -> None:
    from repro.trace.replay import replay

    metrics = ctx.system.metrics
    replayed = replay(ctx.checker.lifecycle_records)
    for op in set(metrics.emitted) | set(replayed.emitted):
        if replayed.emitted[op] != metrics.emitted[op]:
            ctx.fail(
                f"emitted[{op}]: replay {replayed.emitted[op]} != live "
                f"{metrics.emitted[op]}",
                operator=op,
            )
    for op in set(metrics.processed) | set(replayed.processed):
        if replayed.processed[op] != metrics.processed[op]:
            ctx.fail(
                f"processed[{op}]: replay {replayed.processed[op]} != live "
                f"{metrics.processed[op]}",
                operator=op,
            )
    live_drops = sum(
        count
        for where, count in metrics.dropped.items()
        if where.endswith(".transfer_queue")
    )
    if replayed.dropped != live_drops:
        ctx.fail(
            f"transfer-queue drops: replay {replayed.dropped} != live "
            f"{live_drops}"
        )
    if replayed.multicast_completed != metrics.multicast.completed:
        ctx.fail(
            f"multicast completions: replay {replayed.multicast_completed} "
            f"!= live {metrics.multicast.completed}"
        )
    if replayed.multicast_latencies != metrics.multicast.latencies:
        ctx.fail("multicast latency samples diverge from the live tracker")
    if replayed.completion_completed != metrics.completion.completed:
        ctx.fail(
            f"processing completions: replay {replayed.completion_completed} "
            f"!= live {metrics.completion.completed}"
        )
    if replayed.completion_latencies != metrics.completion.latencies:
        ctx.fail("completion latency samples diverge from the live tracker")
