"""Executors: the task threads of a worker.

Each task runs as two simulated threads, mirroring Storm's executor
anatomy (Section 4 of the paper):

* the **working thread** takes tuples from the executor incoming-queue,
  charges the operator's service time, and runs the user logic (which
  may emit).  It is a chain of scheduled callbacks: a service start
  (flow hook, crash check, delivery verdict, CPU charge) schedules one
  calendar entry at the service's end, which executes and takes the
  next queued tuple;
* the **sending thread** drains the bounded **transfer queue** and hands
  envelopes to the communication engine.  The transfer queue is the
  queue of the paper's M/D/1 model; when it overflows, tuples are lost
  (Definition 4: *stream input loss*).  It is a callback chain too:
  the send's continuation takes the next envelope, and an idle thread
  is restarted by whoever enqueues.

Spout executors replace the working thread with an arrival-driven
emission chain.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from repro.dsps.api import Bolt, Spout, TupleContext
from repro.dsps.comm import Envelope
from repro.dsps.tuples import StreamTuple
from repro.net import cpu as cats
from repro.net.cpu import CpuAccount
from repro.sim.queues import TransferQueue
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.system import DspsSystem


class _EmitCollector:
    """Collector handed to operator logic; routes emits to the transfer
    queue via the topology's groupings."""

    def __init__(self, executor: "ExecutorBase"):
        self._executor = executor

    def emit(
        self,
        stream: Optional[str] = None,
        values: Any = None,
        key: Any = None,
        payload_bytes: Optional[int] = None,
        anchor: Optional[StreamTuple] = None,
    ) -> None:
        self._executor._emit(
            values=values,
            key=key,
            payload_bytes=payload_bytes,
            anchor=anchor,
        )


class ExecutorBase:
    """Shared machinery of spout and bolt executors."""

    is_spout = False

    def __init__(self, system: "DspsSystem", task_id: int):
        self.system = system
        self.sim = system.sim
        self.task_id = task_id
        self.operator = system.placement.operator_of[task_id]
        self.task_index = system.placement.index_of[task_id]
        self.machine_id = system.placement.machine_of[task_id]
        spec = system.topology.operators[self.operator]
        self.spec = spec
        self.cpu = CpuAccount(self.sim, f"{self.operator}[{task_id}]")
        self.transfer_queue = TransferQueue(
            self.sim,
            capacity=system.config.transfer_queue_capacity,
            name=f"{self.operator}[{task_id}].transfer",
        )
        self.collector = _EmitCollector(self)
        # Grouping instances are shared per topology edge (Storm's
        # semantics; shuffle's cursor interleaves across co-emitters),
        # except placement-aware strategies, whose ``for_emitter`` binds
        # a per-emitter wrapper.  Task lists are the placement's — or,
        # when the rebalancer is on, the router's *live* lists for
        # non-broadcast edges (broadcast always fans over the pristine
        # placement so multicast membership stays stable).
        router = system.partition_router
        self._groupings = {}
        for down in system.topology.downstream_of(self.operator):
            grouping = system.edge_grouping(self.operator, down.name)
            tasks = system.placement.tasks_of[down.name]
            if router is not None and not grouping.one_to_many:
                tasks = router.active_tasks(down.name)
            self._groupings[down.name] = (grouping.for_emitter(self), tasks)
        # EMA of the per-replica send time (the model's t_e), maintained by
        # the sending thread; seeded lazily from the first measurement.
        self.te_estimate: Optional[float] = None
        self._te_alpha = 0.2
        self.last_out_degree = 1
        self.emitted = 0
        self.sent = 0
        #: True while this executor's machine is crashed.
        self.halted = False
        #: service-time multiplier (gray failure: slow-node fault events
        #: inflate it through :meth:`set_service_scale`; ``x * 1.0`` is
        #: exact, so the default is free)
        self.service_scale = 1.0

        #: True while the sending thread waits for an envelope (it has
        #: started and found the transfer queue empty)
        self._idle = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.call_soon(self._take_envelope)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Machine crash: stop working and lose every queued item."""
        self.halted = True
        self.transfer_queue.clear()

    def resume_from_crash(self) -> None:
        self.halted = False

    def set_service_scale(self, scale: float) -> None:
        self.service_scale = scale

    def context(self) -> TupleContext:
        return TupleContext(
            task_id=self.task_id,
            task_index=self.task_index,
            parallelism=self.spec.parallelism,
            operator=self.operator,
            machine_id=self.machine_id,
        )

    # ------------------------------------------------------------------
    # emission path (runs in the working thread)
    # ------------------------------------------------------------------
    def _emit(
        self,
        values: Any,
        key: Any,
        payload_bytes: Optional[int],
        anchor: Optional[StreamTuple],
    ) -> bool:
        """Emit one tuple through every grouping.

        Returns ``False`` only when the flow layer *deferred* the emit
        (reliable delivery at a full transfer queue) — the spout's
        arrival loop then waits for space and re-offers.
        """
        if anchor is not None:
            tup = anchor.derive(
                stream=self.operator,
                values=values,
                key=key,
                payload_bytes=payload_bytes,
                source_operator=self.operator,
            )
        else:
            tup = StreamTuple(
                stream=self.operator,
                values=values,
                key=key,
                payload_bytes=payload_bytes or 128,
                created_at=self.sim.now,
                source_operator=self.operator,
            )
        metrics = self.system.metrics
        metrics.on_emit(self.operator)
        self.emitted += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "tuple.emit",
                self.sim.now,
                id=tup.tuple_id,
                root=tup.root_id,
                operator=self.operator,
                task=self.task_id,
            )
        accepted = True
        tracked: List[Envelope] = []
        for dst_operator, (grouping, tasks) in self._groupings.items():
            dst_tasks = grouping.choose(tup, tasks)
            env = Envelope(
                tuple=tup,
                dst_operator=dst_operator,
                dst_tasks=dst_tasks,
                one_to_many=grouping.one_to_many,
            )
            if grouping.one_to_many and metrics.in_window:
                metrics.multicast.register(tup.tuple_id, dst_tasks, self.sim.now)
                metrics.completion.register(tup.tuple_id, dst_tasks, tup.created_at)
                if tracer is not None:
                    tracer.emit(
                        "mc.register",
                        self.sim.now,
                        id=tup.tuple_id,
                        operator=dst_operator,
                        dsts=list(dst_tasks),
                        created_at=tup.created_at,
                    )
            if not self._enqueue(env):
                flow = self.system.flow
                reliability = self.system.reliability
                if flow is not None and reliability is not None and self.is_spout:
                    # Defer-and-nack: reliable delivery must not shed an
                    # accepted tuple — hand it back to the arrival loop.
                    if grouping.one_to_many:
                        metrics.multicast.cancel(tup.tuple_id)
                        metrics.completion.cancel(tup.tuple_id)
                    flow.on_defer(self, tup.tuple_id)
                    accepted = False
                    continue
                if flow is not None and reliability is None:
                    if flow.shed_offer(self, env):
                        continue  # a victim was evicted; env is queued
                    if grouping.one_to_many:
                        metrics.multicast.cancel(tup.tuple_id)
                        metrics.completion.cancel(tup.tuple_id)
                    continue  # the newcomer itself was shed
                # Transfer queue overflow: stream input loss (Def. 4).
                metrics.on_drop(f"{self.operator}.transfer_queue")
                if grouping.one_to_many:
                    metrics.multicast.cancel(tup.tuple_id)
                    metrics.completion.cancel(tup.tuple_id)
                if tracer is not None:
                    tracer.emit(
                        "tuple.drop",
                        self.sim.now,
                        id=tup.tuple_id,
                        operator=self.operator,
                        where=f"{self.operator}.transfer_queue",
                    )
            elif grouping.one_to_many and self.is_spout:
                tracked.append(env)
        reliability = self.system.reliability
        if tracked and reliability is not None:
            reliability.register(self, tracked)
        flow = self.system.flow
        if flow is not None:
            metrics.note_queue_depth(
                f"{self.operator}.transfer_queue", self.transfer_queue.level
            )
        return accepted

    # ------------------------------------------------------------------
    # sending thread
    # ------------------------------------------------------------------
    def _enqueue(self, env: Envelope) -> bool:
        """Put ``env`` in the transfer queue (False = full); an idle
        sending thread takes it at once."""
        if not self.transfer_queue.try_put(env):
            return False
        if self._idle:
            self._take_envelope()
        return True

    def requeue(self, env: Envelope, then: Callable[[], None]) -> None:
        """Blocking enqueue (replays): ``then()`` runs one calendar entry
        after ``env`` enters the transfer queue, or after a crash drops
        it while it waits for a slot."""
        if self.transfer_queue.offer(env, then):
            if self._idle:
                self._take_envelope()
            self.sim.schedule_call(0.0, then)

    def _take_envelope(self) -> None:
        ok, env = self.transfer_queue.try_get()
        self._idle = not ok
        if ok:
            # Two zero-work entries before the send keep the thread's
            # same-instant order (DESIGN §6).
            sim = self.sim
            sim.schedule_call(
                0.0, lambda: sim.schedule_call(0.0, lambda: self._send(env))
            )

    def _send(self, env: Envelope) -> None:
        flow = self.system.flow
        if flow is not None:
            flow.on_transfer_drain()
        if self.halted:
            self._take_envelope()  # crashed machine: the envelope dies here
        elif flow is not None:
            flow.acquire_send_credit(self, env, lambda: self._send_granted(env))
        else:
            self._send_granted(env)

    def _send_granted(self, env: Envelope) -> None:
        if self.halted:
            self._take_envelope()  # crashed while stalled on credits
            return
        t0 = self.sim.now
        self.system.comm.send(self, env, lambda n: self._sent(t0, n))

    def _sent(self, t0: float, n_sends: int) -> None:
        n_sends = max(1, n_sends or 1)
        self.last_out_degree = n_sends
        sample = (self.sim.now - t0) / n_sends
        if sample > 0:
            if self.te_estimate is None:
                self.te_estimate = sample
            else:
                self.te_estimate = (
                    self._te_alpha * sample
                    + (1 - self._te_alpha) * self.te_estimate
                )
        self.sent += 1
        self._take_envelope()


class BoltExecutor(ExecutorBase):
    """Working thread + sending thread around one Bolt instance.

    **Batched terminal dispatch** (``SystemConfig.batched_dispatch``): a
    bolt's working thread is a pure FIFO single-server, so completion
    instants are closed-form: ``done = max(now, busy_until) + service``.
    A terminal sink feeds nothing downstream, so with no reliability or
    flow layer it runs in ``"lazy"`` mode, with no per-tuple events: its
    state lives in a :class:`LazyCohort` shared with the co-located
    sinks of its operator that move in lockstep.  Tracers and checkers
    see the same engine: a cohort's realised services are its
    ``tuple.execute`` records.

    Every other bolt runs the working thread, the reference path
    (``batched_dispatch=False``).  Observable results match the working
    thread up to same-instant tie ordering.  The gate decision freezes
    at the first accepted tuple.
    """

    def __init__(self, system: "DspsSystem", task_id: int):
        super().__init__(system, task_id)
        self.bolt: Bolt = self.spec.factory()  # type: ignore[assignment]
        self.worker = system.workers[self.machine_id]
        self.inqueue: Store = Store(
            self.sim, capacity=system.config.executor_queue_capacity)
        #: the thread holds a tuple (not in the inqueue) or has not started
        self._serving = True
        self.processed = 0
        #: high-water mark of the queued (not in-service) input depth,
        #: maintained on every accept so overload experiments can measure
        #: queue growth with or without the flow layer
        self.inqueue_hwm = 0
        #: dispatch mode, frozen at first accept:
        #: ``None`` = undecided, then "slow" (the working thread) | "lazy".
        self._mode: Optional[str] = None
        #: lazy mode: the cohort holding this sink's lazy state
        self.cohort: Optional[LazyCohort] = None

    def halt(self) -> None:
        super().halt()  # a worker halts its cohorts itself, once
        self.inqueue.clear()

    def start(self) -> None:
        super().start()
        self.bolt.prepare(self.context())
        self._serve()

    def choose_mode(self) -> None:
        """Freeze the dispatch mode at the first accept.  Delivery
        verdicts and credit grants depend on the state at the service
        start, and downstream bolts wait on emissions, so only a terminal
        sink without the reliability and flow layers may run lazily.  All
        of this worker's undecided sinks of the operator join one
        cohort."""
        if not (
            self.system.config.batched_dispatch
            and self.spec.terminal
            and not self._groupings
            and self.system.reliability is None
            and self.system.flow is None
        ):
            self._mode = "slow"
            return
        LazyCohort([ex for ex in self.worker.executors.values()
                    if ex.operator == self.operator and ex._mode is None])

    def set_service_scale(self, scale: float) -> None:
        """Gray failure: scale every service that starts from now on."""
        self.service_scale = scale
        if self.cohort is not None and self.cohort.scale != scale:
            self.cohort.set_scale(scale)  # once for the whole machine

    def accept(self, tup: StreamTuple) -> bool:
        """Enqueue one copy of a tuple (False = overflow); a lazy sink
        is carved out of its cohort (packets go per cohort instead)."""
        if self._mode is None:
            self.choose_mode()
        if self.cohort is not None:
            return self.cohort.carve([self]).accept(tup, [self])
        ok = self.inqueue.try_put(tup)
        if not ok:
            self.system.metrics.on_drop(f"{self.operator}.inqueue")
        elif not self._serving:
            self._serve()  # an idle thread takes it at once
        elif self.inqueue.level > self.inqueue_hwm:
            self.inqueue_hwm = self.inqueue.level
        return ok

    # ------------------------------------------------------------------
    # the working thread
    # ------------------------------------------------------------------
    def _serve(self, tup: Optional[StreamTuple] = None) -> None:
        """Service start of ``tup`` (default: take the next queued tuple).

        A take waits one calendar entry when other events are already due
        at this instant, so they run first and the verdict, credits and
        acks see the state they leave.  Absorbed copies and zero-length
        services roll on to the next tuple; otherwise one calendar entry
        at the service's end finishes it."""
        self._serving = True
        sim = self.sim
        flow = self.system.flow
        reliability = self.system.reliability
        while True:
            if tup is None:
                ok, tup = self.inqueue.try_get()
                if not ok:
                    self._serving = False
                    return
                if sim.peek() <= sim.now:
                    sim.schedule_call(0.0, lambda: self._serve(tup))
                    return
            if flow is not None:
                flow.on_execute(self.task_id)
            # Dedup (exactly-once) and commit buffering (atomic) absorb
            # a copy before any service is charged.
            if not self.halted and (
                reliability is None
                or reliability.on_delivery(self.task_id, tup) == "execute"
            ):
                service = self.bolt.service_time(tup) * self.service_scale
                if service > 0:
                    self.cpu.charge(service, cats.PROCESSING)
                    sim.schedule_call(service, lambda: self._served(tup))
                    return
                self._execute(tup)
            tup = None

    def _served(self, tup: StreamTuple) -> None:
        if not self.halted:  # a crash mid-service eats the output
            self._execute(tup)
        self._serve()

    def _execute(self, tup: StreamTuple) -> None:
        metrics = self.system.metrics
        self.bolt.execute(tup, self.collector)
        self.processed += 1
        metrics.on_processed(self.operator)
        now = self.sim.now
        metrics.completion.reached(tup.tuple_id, (self.task_id,), now)
        reliability = self.system.reliability
        if reliability is not None:
            reliability.notify_executed(self.task_id, tup)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("tuple.execute", now, id=tup.tuple_id,
                        root=tup.root_id, operator=self.operator,
                        tasks=[self.task_id], done=now)
        if self.spec.terminal:
            metrics.on_sink_latency(self.operator, (now - tup.created_at,))


def _overrides(bolt: Bolt, hook: str) -> bool:
    """True when ``bolt``'s class or the instance itself replaces
    :class:`Bolt`'s ``hook``."""
    return (getattr(type(bolt), hook) is not getattr(Bolt, hook)
            or hook in getattr(bolt, "__dict__", ()))


class LazyCohort:
    """Lazy sinks of one operator on one worker that move in lockstep,
    sharing a FIFO of ``[done, service, tuple, unscaled service]`` (the
    head may be in service), busy-until, scale and drain timer.  Work is
    realised on the next accept, the drain timer and
    :meth:`MetricsHub.flush`, at its computed instants.  A subset packet
    or disagreeing service times split a cohort; nothing merges.  Members
    realise the same services in the same order, so one sequential CPU
    sum, continued from the first member's ``busy_s``, is each one's.
    """

    def __init__(self, members: List[BoltExecutor], like=None):
        first = members[0]
        self.worker = worker = first.worker
        self.sim, self.metrics = worker.sim, worker.system.metrics
        self.operator, self.capacity = first.operator, first.inqueue.capacity
        if like is None:  # pristine sinks at their first accept
            self.fifo: Deque[list] = deque()
            self.busy_until, self.scale = self.sim.now, first.service_scale
        else:  # a split: entries are re-timed in place, so copy them
            self.fifo = deque([list(entry) for entry in like.fifo])
            self.busy_until, self.scale = like.busy_until, like.scale
        #: instant of the pending worker drain timer, if any
        self.armed_at: Optional[float] = None
        self._set_members(members)
        worker.add_cohort(self)

    def _set_members(self, members: List[BoltExecutor]) -> None:
        """Whenever the members change, decide which hooks a copy pays
        for: ``execute`` only where a member overrides it, and one
        service value per packet when every member's is the inherited
        constant of one class."""
        self.members = members
        self.tasks = [ex.task_id for ex in members]
        self._executes = [(ex.bolt.execute, ex.collector) for ex in members
                          if _overrides(ex.bolt, "execute")]
        cls = type(members[0].bolt)
        self._constant = isinstance(
            getattr(cls, "base_service_s", None), (int, float)) and all(
            type(ex.bolt) is cls
            and not _overrides(ex.bolt, "service_time")
            and "base_service_s" not in getattr(ex.bolt, "__dict__", ())
            for ex in members)
        for ex in members:
            ex.cohort, ex._mode = self, "lazy"

    def carve(self, touched: List[BoltExecutor]) -> "LazyCohort":
        """The cohort of exactly ``touched`` (distinct members): this one
        or one split off with a copy of its state and drain timer."""
        if len(touched) == len(self.members):
            return self
        new = LazyCohort(touched, like=self)
        self._set_members([ex for ex in self.members if ex.cohort is self])
        if self.armed_at is not None:
            self.worker.arm_drain(new, self.armed_at)
        return new

    def accept(self, tup: StreamTuple, hosted: List[BoltExecutor]) -> bool:
        """One copy of ``tup`` per member (``hosted``: the members in
        packet order); False = the copies overflowed."""
        now = self.sim.now
        fifo = self.fifo
        if fifo and fifo[0][0] <= now:
            self.flush(now, *self.metrics.window_bounds())
        if self.worker.crashed:
            return True  # absorbed by a crashed machine, as by the thread
        depth = len(fifo)  # the head may be in service
        if (depth - 1 if depth else 0) >= self.capacity:
            for _ in hosted:
                self.metrics.on_drop(f"{self.operator}.inqueue")
            return False
        if self._constant:
            by_value: Any = ((hosted[0].bolt.base_service_s, hosted),)
        else:
            # Once per copy: service_time may be stateful or per instance.
            bases = [ex.bolt.service_time(tup) for ex in hosted]
            by_value = ((bases[0], hosted),)
            if bases.count(bases[0]) != len(bases):
                split: dict = {}
                for ex, base in zip(hosted, bases):
                    split.setdefault(base, []).append(ex)
                by_value = split.items()
        for base, members in by_value:
            cohort = self if members is hosted else self.carve(members)
            service = base * cohort.scale
            cohort.busy_until = done = max(cohort.busy_until, now) + service
            cohort.fifo.append([done, service, tup, base])
            if depth > members[0].inqueue_hwm:  # queued, newcomer in
                for ex in members:
                    ex.inqueue_hwm = depth
            if cohort.armed_at is None:
                self.worker.arm_drain(cohort, done)
        return True

    def flush(self, now: float, start: float, end: float) -> None:
        """Realise every completion due at ``now``; ``start``/``end`` are
        the window's bounds (:meth:`MetricsHub.window_bounds`).  Each
        realised service is one ``tuple.execute`` record for the members,
        stamped ``now`` and carrying its computed ``done``."""
        fifo = self.fifo
        if not fifo or fifo[0][0] > now:
            return
        metrics = self.metrics
        executed_at = metrics.completion.reached
        tracer = self.sim.tracer
        executes, tasks, members = self._executes, self.tasks, self.members
        spent = members[0].cpu.busy_s.get(cats.PROCESSING, 0.0)
        realised = 0
        latencies = []
        while fifo and fifo[0][0] <= now:
            done, service, tup, _base = fifo.popleft()
            if service > 0:
                spent += service
            for execute, collector in executes:
                execute(tup, collector)
            realised += 1
            executed_at(tup.tuple_id, tasks, done)
            if tracer is not None:
                tracer.emit("tuple.execute", now, id=tup.tuple_id,
                            root=tup.root_id, operator=self.operator,
                            tasks=tasks, done=done)
            if start <= done <= end:
                latencies.append(done - tup.created_at)
        for ex in members:
            if spent:
                ex.cpu.busy_s[cats.PROCESSING] = spent
            ex.processed += realised
        if latencies:  # stored once per packet, read once per member
            metrics.processed[self.operator] += len(latencies) * len(members)
            metrics.sink_latencies[self.operator].extend(
                latencies, len(members))

    def halt(self) -> None:
        """Machine crash: realise what is done, lose everything queued."""
        now = self.sim.now
        self.flush(now, *self.metrics.window_bounds())
        fifo = self.fifo
        self.busy_until = now
        if fifo and fifo[0][0] - fifo[0][1] <= now:
            # Mid-service head: its CPU was committed at its start, the
            # crash eats the output and the thread stays busy until done.
            self.busy_until, service = fifo[0][0], fifo[0][1]
            if service > 0:
                for ex in self.members:
                    ex.cpu.charge(service, cats.PROCESSING)
        fifo.clear()

    def set_scale(self, scale: float) -> None:
        """Slow node: realise what is done, keep the in-service head and
        re-time the rest from unscaled services (the drain timer stays)."""
        self.scale = scale
        now = self.sim.now
        self.flush(now, *self.metrics.window_bounds())
        if not self.fifo:
            return
        head = self.fifo[0]
        start = head[0] - head[1]
        # An in-service head keeps the scale in force at its start.
        busy, first = (head[0], 1) if start <= now else (start, 0)
        for entry in islice(self.fifo, first, None):
            entry[1] = service = entry[3] * scale
            entry[0] = busy = busy + service
        self.busy_until = busy


class SpoutExecutor(ExecutorBase):
    """Arrival-driven emission loop around one Spout instance."""

    is_spout = True

    def __init__(self, system: "DspsSystem", task_id: int):
        super().__init__(system, task_id)
        self.spout: Spout = self.spec.factory()  # type: ignore[assignment]
        self._arrival_gap: Optional[Callable[[float], float]] = None
        self._stop = False

    def set_arrival_process(self, gap_fn: Callable[[float], float]) -> None:
        """``gap_fn(now) -> seconds until the next tuple``."""
        self._arrival_gap = gap_fn

    def stop(self) -> None:
        self._stop = True

    def start(self) -> None:
        super().start()
        self.spout.prepare(self.context())
        self.sim.call_soon(self._next_arrival)

    def _next_arrival(self) -> None:
        """Wait out the gap to the next arrival (the chain ends when the
        spout stops or its arrival process is exhausted)."""
        if self._arrival_gap is None:
            raise RuntimeError(
                f"spout {self.operator!r} has no arrival process; call "
                "set_arrival_process() or pass arrivals= to DspsSystem"
            )
        if self._stop:
            return
        gap = self._arrival_gap(self.sim.now)
        if gap is None:
            return  # arrival process exhausted
        load = self.system.load_factor
        if load != 1.0:
            gap = gap / load  # flash crowd: arrivals speed up
        self.sim.schedule_call(gap, self._arrive)

    def _arrive(self) -> None:
        if self._stop:
            return
        if self.halted:
            # Crashed machine: arrivals are lost, not queued.
            self._next_arrival()
            return
        flow = self.system.flow
        if flow is None:
            self._admitted()
        else:
            # Admission gate: pause while the acker is at its cap.
            flow.admission_gate(self, self._admitted)

    def _admitted(self) -> None:
        if self.system.flow is not None and (self._stop or self.halted):
            self._next_arrival()
            return
        values, key, nbytes = self.spout.next_tuple()
        service = self.spout.emit_service_s
        if service > 0:
            self.cpu.spend(
                service, cats.PROCESSING, lambda: self._offer(values, key, nbytes)
            )
        else:
            self._offer(values, key, nbytes)

    def _offer(self, values: Any, key: Any, nbytes: Optional[int]) -> None:
        """Emit one arrival; a deferred emit (reliable delivery at a full
        transfer queue) waits for the sending thread to drain, then
        re-offers."""
        flow = self.system.flow
        accepted = self._emit(
            values=values, key=key, payload_bytes=nbytes, anchor=None
        )
        if accepted or flow is None:
            self._next_arrival()
            return

        def reoffer() -> None:
            if self._stop or self.halted:
                self._next_arrival()
            else:
                self._offer(values, key, nbytes)

        flow.wait_for_transfer_space(
            self, slots=max(1, len(self._groupings)), then=reoffer
        )
