"""End-to-end overload protection: credits, admission, shedding, replay
budget.

Enabled by ``SystemConfig.flow``, the :class:`FlowController` closes the
gap between the RDMA ring-memory backpressure at the bottom of the stack
and the unbounded producers at the top.  Four mechanisms, one object:

* **receiver-driven credits** — a one-to-many send waits in the sending
  thread until every live destination's input queue plus the sender's
  outstanding (granted-but-undelivered) reservations fit inside
  ``credit_window``.  Overload propagates *up* the multicast tree as
  stalled senders instead of *down* as queue growth (the Storm dataplane
  paper's receiver-driven design);
* **spout admission gate** — Storm's ``TOPOLOGY_MAX_SPOUT_PENDING``: when
  a reliability layer tracks in-flight tuple trees, spouts pause while
  the acker's pending count is at ``max_spout_pending``;
* **load shedding / defer-and-nack** — a full transfer queue sheds under
  the configured policy (``drop_tail`` / ``drop_head`` / ``random``)
  when delivery is best-effort, and *defers* the emit back to the spout
  (to be retried once the sending thread drains a slot) when a
  reliability layer must not lose accepted tuples;
* **replay budget** — a global token bucket caps the replay rate after
  crashes, and a congestion signal (how often the bucket ran dry)
  multiplies into the per-tree exponential backoff, so recovery under
  load degrades to slower replays instead of a replay storm.

Everything is deterministic: waiters are FIFO callbacks, each wake is
one ordinary calendar entry after which the waiter re-checks its gate,
the random shed policy draws from the seeded ``"shed"``
stream, and a fixed-period watchdog provides the lost-wakeup safety net
(plus self-healing of credit reservations leaked by message loss).
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Tuple

from repro.dsps.grouping import inqueue_depth
from repro.sim.engine import every

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.comm import Envelope
    from repro.dsps.executor import ExecutorBase, SpoutExecutor
    from repro.dsps.system import DspsSystem

#: watchdog period for the lost-wakeup safety net
FLOW_POLL_INTERVAL_S = 0.02


class FlowController:
    """All overload-protection state and gates for one system run."""

    def __init__(self, system: "DspsSystem"):
        self.system = system
        self.sim = system.sim
        self.config = system.config
        self.metrics = system.metrics
        #: granted-but-undelivered multicast copies per destination task
        self.in_flight: Dict[int, int] = defaultdict(int)
        #: last grant/dispatch instant per task (stale-reservation healing)
        self._last_activity: Dict[int, float] = {}
        # FIFO waiter pools; every wake re-checks its own condition.
        self._credit_waiters: Deque[Callable[[], None]] = deque()
        self._admission_waiters: Deque[Callable[[], None]] = deque()
        self._space_waiters: Deque[Callable[[], None]] = deque()
        # --- conservation / observability counters ---------------------
        self.shed_refusals = 0  #: drop_tail refusals of the newcomer
        self.shed_evictions = 0  #: drop_head/random victims ejected
        self.deferred = 0  #: reliable emits nacked back to their spout
        self.credit_stalls = 0  #: completed credit/admission waits
        self.replays_granted = 0
        self.replays_throttled = 0
        #: replay-congestion level: throttles raise it, clean grants decay
        self.congestion = 0
        self._replay_next_slot = -math.inf
        self._rng = system.rng.stream("shed")

    # ------------------------------------------------------------------
    def start(self) -> None:
        every(self.sim, FLOW_POLL_INTERVAL_S, self._watchdog)

    @property
    def parked(self) -> int:
        """Waiters parked on credit, admission or transfer space (the
        watchdog re-wakes them)."""
        return (len(self._credit_waiters) + len(self._admission_waiters)
                + len(self._space_waiters))

    def _watchdog(self) -> None:
        """Fixed-period safety net: re-wakes every waiter (conditions are
        re-checked by the waiters themselves) and heals credit
        reservations leaked by lost messages."""
        self._heal_stale_reservations()
        self._wake(self._credit_waiters)
        self._wake(self._admission_waiters)
        self._wake(self._space_waiters)

    def _wake(self, waiters: Deque[Callable[[], None]]) -> None:
        schedule = self.sim.schedule_call
        while waiters:
            schedule(0.0, waiters.popleft())

    def _heal_stale_reservations(self) -> None:
        horizon = 10.0 * FLOW_POLL_INTERVAL_S
        now = self.sim.now
        for task, count in self.in_flight.items():
            if count > 0 and now - self._last_activity.get(task, now) > horizon:
                # No grant or delivery touched this task for many polls:
                # the copies died on the wire (loss, crash races).
                self.in_flight[task] = 0

    # ------------------------------------------------------------------
    # receiver-driven credits (one-to-many sends)
    # ------------------------------------------------------------------
    def _blocking_task(
        self, env: "Envelope", hint: Optional[int] = None
    ) -> Optional[int]:
        """A live destination of ``env`` whose window is full, or ``None``.

        ``hint`` (the destination that blocked the last check) is tried
        first: a woken sender usually finds it still full and goes back
        to sleep without scanning every destination."""
        window = self.config.credit_window
        system = self.system
        machine_of = system.placement.machine_of
        in_flight = self.in_flight
        tasks = env.dst_tasks if hint is None else (hint, *env.dst_tasks)
        for task in tasks:
            if system.machine_is_crashed(machine_of[task]):
                continue  # fail-stop: dead destinations need no credit
            depth = inqueue_depth(system.executors.get(task))
            if depth + in_flight[task] >= window:
                return task
        return None

    def acquire_send_credit(
        self, executor: "ExecutorBase", env: "Envelope",
        then: Callable[[], None], hint: Optional[int] = None,
        waited_from: Optional[float] = None,
    ) -> None:
        """Hold the sending thread until ``env`` has credit everywhere,
        then run ``then()``.

        Reserves one in-flight slot per destination on grant; the
        reservation is returned by :meth:`on_dispatch` when the copy
        lands in the destination's input queue.  A crash while stalled
        lets the thread go on unreserved (the envelope dies unsent).
        ``hint`` and ``waited_from`` carry a stalled check's state.
        """
        blocked = self._blocking_task(env, hint)
        if blocked is not None and not executor.halted:
            if waited_from is None:
                waited_from = self.sim.now
            self._credit_waiters.append(
                lambda: self.acquire_send_credit(
                    executor, env, then, blocked, waited_from
                )
            )
            return
        if executor.halted:
            then()
            return
        now = self.sim.now
        machine_of = self.system.placement.machine_of
        for task in env.dst_tasks:
            if self.system.machine_is_crashed(machine_of[task]):
                continue  # never dispatched: reserving would just leak
            self.in_flight[task] += 1
            self._last_activity[task] = now
        if waited_from is not None:
            self._record_stall(
                executor.operator, "flow.credit_stall", waited_from,
                task=executor.task_id,
            )
        then()

    def on_dispatch(self, executor) -> None:
        """A multicast copy reached ``executor``'s input queue: return the
        credit reservation and re-check stalled senders."""
        task = executor.task_id
        count = self.in_flight[task]
        if count > 0:
            self.in_flight[task] = count - 1
        self._last_activity[task] = self.sim.now
        self.metrics.note_queue_depth(
            f"{executor.operator}.inqueue", inqueue_depth(executor)
        )
        self._wake(self._credit_waiters)

    def on_execute(self, task: int) -> None:
        """A destination consumed one input-queue slot: credits freed."""
        if self._credit_waiters:
            self._wake(self._credit_waiters)

    # ------------------------------------------------------------------
    # spout admission gate (max_spout_pending)
    # ------------------------------------------------------------------
    def admission_open(self) -> bool:
        limit = self.config.max_spout_pending
        reliability = self.system.reliability
        if limit is None or reliability is None:
            return True
        return reliability.outstanding < limit

    def admission_gate(
        self, spout: "SpoutExecutor", then: Callable[[], None]
    ) -> None:
        """Hold the arrival chain while the acker is at its pending cap,
        then run ``then()``."""
        self._hold(
            self._admission_waiters, self.admission_open,
            lambda: spout.halted or spout._stop,
            spout, "flow.admission_stall", then,
        )

    def on_pending_change(self) -> None:
        """The acker settled a tree: re-check gated spouts."""
        if self._admission_waiters and self.admission_open():
            self._wake(self._admission_waiters)

    # ------------------------------------------------------------------
    # defer-and-nack (reliable emits at a full transfer queue)
    # ------------------------------------------------------------------
    def on_defer(self, executor: "ExecutorBase", tuple_id: int) -> None:
        self.deferred += 1
        self.metrics.on_deferred()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "flow.defer",
                self.sim.now,
                id=tuple_id,
                operator=executor.operator,
                task=executor.task_id,
            )

    def wait_for_transfer_space(
        self, executor: "ExecutorBase", slots: int, then: Callable[[], None]
    ) -> None:
        """Run ``then()`` once ``executor``'s transfer queue has ``slots``
        free (or the executor stopped or crashed)."""
        queue = executor.transfer_queue
        self._hold(
            self._space_waiters,
            lambda: queue.capacity - queue.level >= slots,
            lambda: executor.halted or getattr(executor, "_stop", False),
            executor, "flow.credit_stall", then,
        )

    def _hold(
        self, waiters: Deque[Callable[[], None]], ready: Callable[[], bool],
        gone: Callable[[], bool], executor: "ExecutorBase", kind: str,
        then: Callable[[], None], waited_from: Optional[float] = None,
    ) -> None:
        """Run ``then()`` once ``ready()``, re-checked at every wake of
        ``waiters``; a wait is recorded as a ``kind`` stall.  When
        ``gone()`` (stopped or crashed) the chain goes on unrecorded."""
        if ready():
            if waited_from is not None:
                self._record_stall(
                    executor.operator, kind, waited_from, task=executor.task_id
                )
            then()
        elif gone():
            then()
        else:
            if waited_from is None:
                waited_from = self.sim.now
            waiters.append(lambda: self._hold(
                waiters, ready, gone, executor, kind, then, waited_from
            ))

    def on_transfer_drain(self) -> None:
        """A sending thread freed a transfer-queue slot."""
        if self._space_waiters:
            self._wake(self._space_waiters)

    # ------------------------------------------------------------------
    # load shedding (best-effort emits at a full transfer queue)
    # ------------------------------------------------------------------
    def shed_offer(self, executor: "ExecutorBase", env: "Envelope") -> bool:
        """Apply the shed policy to a refused ``try_put``.

        Returns ``True`` when the newcomer was enqueued after evicting a
        victim (``drop_head``/``random``), ``False`` when the newcomer
        itself was shed (``drop_tail``, or nothing evictable).  Either
        way exactly one envelope is counted in ``messages_shed``.
        """
        queue = executor.transfer_queue
        where = f"{executor.operator}.transfer_queue"
        policy = self.config.shed_policy
        tracer = self.sim.tracer
        if policy == "drop_tail" or queue.level == 0:
            self.shed_refusals += 1
            self.metrics.on_shed(where)
            if tracer is not None:
                tracer.emit(
                    "shed.drop",
                    self.sim.now,
                    id=env.tuple.tuple_id,
                    where=where,
                    policy=policy,
                )
            return False
        if policy == "drop_head":
            index = 0
        else:  # seeded-random victim
            index = int(self._rng.integers(queue.level))
        # Count the eviction before performing it: evict() emits a trace
        # record, and the state-scope shed_conservation invariant must
        # see the flow/metrics/queue counters move together.
        self.shed_evictions += 1
        self.metrics.on_shed(where)
        victim: "Envelope" = queue.evict(index)
        if victim.one_to_many:
            self.metrics.multicast.cancel(victim.tuple.tuple_id)
            self.metrics.completion.cancel(victim.tuple.tuple_id)
        if tracer is not None:
            tracer.emit(
                "shed.evict",
                self.sim.now,
                id=victim.tuple.tuple_id,
                where=where,
                policy=policy,
                admitted=env.tuple.tuple_id,
            )
        return executor.transfer_queue.try_put(env)

    # ------------------------------------------------------------------
    # replay budget (token bucket + congestion signal)
    # ------------------------------------------------------------------
    def replay_gate(self) -> Tuple[float, int]:
        """Claim one replay token.

        Returns ``(extra_delay_s, congestion)``: the wait until this
        replay's bucket slot, and the current congestion level for the
        caller's multiplicative backoff.  Deterministic leaky bucket:
        slot ``k`` is at least ``k / rate`` after slot ``k - burst``.
        """
        rate = self.config.replay_rate_per_s
        burst = self.config.replay_burst
        now = self.sim.now
        earliest = max(self._replay_next_slot, now - (burst - 1) / rate)
        delay = earliest - now
        self._replay_next_slot = earliest + 1.0 / rate
        if delay > 0:
            self.replays_throttled += 1
            if self.congestion < 8:
                self.congestion += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "flow.replay_throttle",
                    now,
                    delay_s=delay,
                    congestion=self.congestion,
                )
        else:
            delay = 0.0
            self.replays_granted += 1
            if self.congestion > 0:
                self.congestion -= 1
        return delay, self.congestion

    # ------------------------------------------------------------------
    # fault hooks
    # ------------------------------------------------------------------
    def on_machine_crash(self, machine_id: int) -> None:
        """Return reservations of every destination on the dead machine
        (their queues were cleared; fail-stop excuses the copies)."""
        machine_of = self.system.placement.machine_of
        for task in list(self.in_flight):
            if machine_of[task] == machine_id:
                self.in_flight[task] = 0
        self._wake(self._credit_waiters)

    # ------------------------------------------------------------------
    def _record_stall(
        self, operator: str, kind: str, waited_from: float, task: int
    ) -> None:
        stalled_s = self.sim.now - waited_from
        self.credit_stalls += 1
        self.metrics.add_credit_stall(operator, stalled_s)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(kind, self.sim.now, operator=operator, task=task,
                        waited_s=stalled_s)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Counters for reports and the ``shed_conservation`` invariant."""
        return {
            "shed_refusals": self.shed_refusals,
            "shed_evictions": self.shed_evictions,
            "deferred": self.deferred,
            "credit_stalls": self.credit_stalls,
            "replays_granted": self.replays_granted,
            "replays_throttled": self.replays_throttled,
            "congestion": self.congestion,
        }
