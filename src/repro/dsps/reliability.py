"""Delivery semantics: acker-driven replay, dedup, and atomic multicast.

The :class:`ReplayCoordinator` implements every delivery guarantee of
``SystemConfig.delivery`` behind one interface, tracking completion in
the acker's :class:`~repro.dsps.acker.PendingTable`:

* **at_least_once** — when a spout emits a one-to-many tuple, the
  coordinator arms one delivery tree keyed by the root tuple id, over
  every destination task of the spout's one-to-many edges; each
  destination's execution acks the tree.  Acks are worker-oriented:
  everything one machine acks at one simulated instant travels as one
  :class:`AckMessage` over the control plane to the acker's machine
  (real traffic, so ack overhead shows up in the fabric counters).  A
  periodic sweep fails trees older than ``ack_timeout_s`` and replays
  the *whole* tree from the spout with jittered exponential backoff,
  up to ``max_replays`` attempts.
  Replays re-execute everywhere (Storm semantics); the set-based metrics
  trackers dedup so duplicates never inflate throughput.
* **exactly_once** — at-least-once plus a per-destination dedup table:
  a replayed tuple already executed at task T is *acked but not
  re-executed* (the idempotent-execution contract), and replays are
  *selective* — only the destinations the expired tree still awaited
  are re-delivered, point-to-point rather than down the multicast
  tree.  Epoch barriers flow through the spout's
  registration path: every ``epoch_interval_s`` the current epoch
  closes, and once all of a closed epoch's trees have settled the epoch
  commits and its dedup state is garbage-collected.
* **atomic** — a Spindle-style sender-ordered, all-or-none multicast
  over the same tree machinery.  Destinations *buffer* the tuple on
  arrival and ack receipt; when every live destination has received a
  tree, the coordinator *commits* it — in per-sender sequence order,
  with commit notices opportunistically batched per machine — and only
  then do destinations execute.  A tree that exhausts its replay budget
  is *aborted*: no destination ever executes it (all-or-none).  Crashed
  machines are excised from the delivery set at registration/crash time
  (fail-stop membership, as Spindle's membership service would).

Dedup state lives with the coordinator (conceptually: checkpointed
control-plane state at the trackers), so it survives machine crashes the
way a checkpoint would; the in-flight *claims* that guard concurrent
duplicate execution are volatile and are purged on crash, which is what
lets a crash-interrupted execution be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.dsps.acker import PendingTable
from repro.sim.engine import each, every

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.comm import Envelope
    from repro.dsps.executor import ExecutorBase
    from repro.dsps.system import DspsSystem


#: wire bytes each ``(root, task)`` pair after the first adds to an
#: :class:`AckMessage`: an 8-byte root id plus a 4-byte task id
#: (``CostModel.dst_id_bytes``); ``control_message_bytes`` covers the
#: header and the first pair.
ACK_PAIR_BYTES = 12

#: backoff before replay attempt k is ``REPLAY_BACKOFF_BASE_S * 2**(k-1)``,
#: spread by deterministic jitter from the seeded ``"acker"`` rng stream
REPLAY_BACKOFF_BASE_S = 0.01
#: with flow control on, extra multiplicative backoff per unit of measured
#: replay congestion (throttled replays raise congestion, clean grants
#: decay it)
CONGESTION_BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class AckMessage:
    """Control-plane payload: the ``(root_id, task_id)`` pairs that tasks
    on one machine acknowledged at one instant, in ack order (execution
    acks in at-least/exactly-once modes, receipt acks in atomic mode).
    One message per (machine, instant), as commit notices are."""

    acks: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class CommitMessage:
    """Atomic mode: the listed roots are stable everywhere — release
    their buffered copies for execution (batched per machine)."""

    roots: Tuple[int, ...]


@dataclass(frozen=True)
class AbortMessage:
    """Atomic mode: the listed roots exhausted their replay budget —
    purge any buffered copy, they will never execute."""

    roots: Tuple[int, ...]


@dataclass(frozen=True)
class CompletionRecord:
    """One fully-delivered tuple tree."""

    root_id: int
    completed_at: float
    registered_at: float
    attempts: int  # replay attempts before completion (0 = first try)


@dataclass
class _PendingTree:
    root: int
    executor: "ExecutorBase"
    #: the spout tuple's one-to-many envelopes, one per edge.
    envelopes: List["Envelope"]
    registered_at: float
    attempts: int = 0
    #: registration epoch (dedup GC barrier).
    epoch: int = 0
    #: atomic mode: sender task id and per-sender sequence number.
    sender: int = -1
    seq: int = -1
    #: atomic mode: "pending" until every live destination acked, then
    #: "stable" until it commits; "aborted" once its budget ran out.
    status: str = "pending"

    @property
    def tasks(self) -> List[int]:
        return [t for env in self.envelopes for t in env.dst_tasks]


@dataclass
class _AtomicAudit:
    """Per-root evidence for the group-atomicity invariant."""

    root_id: int
    sender: int
    seq: int
    dst_tasks: frozenset
    status: str = "pending"  # pending | committed | aborted
    #: tasks excused from delivery (machine crashed: fail-stop membership).
    excused: Set[int] = field(default_factory=set)
    executed: Set[int] = field(default_factory=set)
    commit_t: Optional[float] = None

    def violation(self) -> Optional[str]:
        if self.status == "aborted" and self.executed:
            return (
                f"aborted root {self.root_id} executed at tasks "
                f"{sorted(self.executed)}"
            )
        if self.status == "committed":
            missing = self.dst_tasks - self.executed - self.excused
            if missing:
                return (
                    f"committed root {self.root_id} never executed at "
                    f"tasks {sorted(missing)}"
                )
        return None


class ReplayCoordinator:
    """Per-system delivery-semantics engine (one acker task, Storm-style)."""

    def __init__(self, system: "DspsSystem"):
        self.system = system
        self.sim = system.sim
        cfg = system.config
        self.config = cfg
        self.mode = cfg.delivery
        # The acker task lives with a broadcasting spout (Storm places
        # ackers as ordinary tasks; co-locating with the source keeps
        # the register path local while acks travel the real network).
        # Prefer a spout that actually has a one-to-many edge — side
        # streams never register trees.
        broadcasting = [
            sp
            for sp in system.spout_executors
            if any(g.one_to_many for g, _ in sp._groupings.values())
        ]
        if broadcasting:
            self.home_machine = broadcasting[0].machine_id
        elif system.spout_executors:
            self.home_machine = system.spout_executors[0].machine_id
        else:
            self.home_machine = min(system.workers)
        # The seeded stream feeds the replay-backoff jitter, so a run is
        # deterministic per seed.
        self._rng = system.rng.stream("acker")
        # The first draw is burnt so per-seed jitter matches pinned runs.
        self._rng.integers(0, 2**31)
        #: armed trees: root -> destination tasks still owing an ack.
        self.acker = PendingTable()
        #: root tuple id -> pending bookkeeping (atomic: until commit).
        self._pending: Dict[int, _PendingTree] = {}
        self.registered = 0
        self.replays = 0
        self.completions: List[CompletionRecord] = []
        self.gave_up: List[int] = []
        #: source machine -> ``(root, task)`` acks of this instant, in
        #: first-ack order; flushed as one AckMessage per machine.
        self._ack_outbox: Dict[int, List[Tuple[int, int]]] = {}

        # --- dedup / idempotent-execution state (reliable modes) ---------
        #: root -> tasks that *completed* an execution (durable: survives
        #: crashes like checkpointed state; GC'd by epoch commit).
        self._executed: Dict[int, Set[int]] = {}
        #: root -> tasks with an execution *in flight* (volatile: purged
        #: when the task's machine crashes).
        self._claimed: Dict[int, Set[int]] = {}
        #: executions of a (root, task) pair beyond the first — the
        #: no-duplicate-side-effects invariant requires 0 in
        #: exactly_once/atomic; at_least_once merely counts them.
        self.duplicate_executions = 0
        #: duplicate deliveries suppressed before execution.
        self.duplicates_suppressed = 0

        # --- epoch barriers ----------------------------------------------
        self._epoch = 0
        #: epoch -> roots registered in it (kept until the epoch commits).
        self._epoch_roots: Dict[int, List[int]] = {0: []}
        #: epoch -> trees not yet settled (completed/committed/aborted).
        self._epoch_open: Dict[int, int] = {0: 0}
        self._oldest_uncommitted = 0
        self.epochs_committed = 0

        # --- atomic multicast ----------------------------------------------
        #: sender task -> next sequence number to assign.
        self._seq_next: Dict[int, int] = {}
        #: sender task -> next sequence number to commit.
        self._commit_next: Dict[int, int] = {}
        #: sender task -> {seq: tree} awaiting commit-order release.
        self._sender_queue: Dict[int, Dict[int, _PendingTree]] = {}
        #: root -> {task: buffered tuple} held back until commit.
        self._held: Dict[int, Dict[int, object]] = {}
        #: root -> tasks whose released copy is still riding the inqueue
        #: (audit judgment defers while any release is in flight).
        self._in_release: Dict[int, Set[int]] = {}
        self._committed_roots: Set[int] = set()
        self._aborted_roots: Set[int] = set()
        #: root -> last commit/abort notice instant (for sweep retries).
        self._notice_sent_at: Dict[int, float] = {}
        #: opportunistic cross-sender notice batching: roots settling at
        #: the same instant — even via different senders' commit pumps —
        #: share one notice per machine.  Settable to ``False`` for
        #: differential tests of the unbatched path.
        self._notice_batching = True
        self._commit_notice_buffer: List[int] = []
        self._abort_notice_buffer: List[int] = []
        self._notice_flush_scheduled = False
        #: Commit/Abort control messages actually sent (batching metric).
        self.notice_messages = 0
        self.commits = 0
        self.aborts = 0
        #: commit buffer entries dropped on inqueue overflow (excused).
        self.commit_drops = 0
        #: sender -> committed seqs, in commit order (order invariant).
        self.commit_order: Dict[int, List[int]] = {}
        #: group-atomicity breaches found when audits are GC'd.
        self.atomic_violations: List[str] = []
        #: root -> audit record (atomic mode only; GC'd by epoch commit).
        self._audit: Dict[int, _AtomicAudit] = {}

        system.workers[self.home_machine].add_control_handler(self._on_control)
        if self.mode == "atomic":
            for machine, worker in system.workers.items():
                worker.add_control_handler(
                    lambda payload, m=machine: self._on_notice(m, payload)
                )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        every(self.sim, self.config.ack_sweep_interval_s, self._sweep)
        every(self.sim, self.config.epoch_interval_s, self._close_epoch)

    # ------------------------------------------------------------------
    # spout side
    # ------------------------------------------------------------------
    def register(
        self, executor: "ExecutorBase", envelopes: List["Envelope"]
    ) -> None:
        """Track the accepted one-to-many envelopes of one spout tuple
        as one tree over all of their destination tasks."""
        root = envelopes[0].tuple.tuple_id
        record = _PendingTree(
            root=root,
            executor=executor,
            envelopes=envelopes,
            registered_at=self.sim.now,
            epoch=self._epoch,
        )
        self._pending[root] = record
        self._epoch_roots[self._epoch].append(root)
        self._epoch_open[self._epoch] += 1
        self.registered += 1
        self.system.metrics.note_acker_pending(len(self._pending))
        tasks = record.tasks
        if self.mode == "atomic":
            sender = executor.task_id
            seq = self._seq_next.get(sender, 0)
            self._seq_next[sender] = seq + 1
            record.sender = sender
            record.seq = seq
            self._sender_queue.setdefault(sender, {})[seq] = record
            self._commit_next.setdefault(sender, 0)
            # Fail-stop membership: destinations on crashed machines are
            # excused up front — all-or-none is over *live* destinations.
            machine_of = self.system.placement.machine_of
            live = [
                t for t in tasks
                if not self.system.machine_is_crashed(machine_of[t])
            ]
            audit = _AtomicAudit(
                root_id=root,
                sender=sender,
                seq=seq,
                dst_tasks=frozenset(tasks),
                excused=set(tasks) - set(live),
            )
            self._audit[root] = audit
            tasks = live
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "ack.register",
                self.sim.now,
                root=root,
                operator=",".join(env.dst_operator for env in envelopes),
                n_dsts=len(record.tasks),
                epoch=record.epoch,
            )
        self._arm(record, tasks)

    def _arm(self, record: _PendingTree, tasks: List[int]) -> None:
        """(Re-)arm the tree until each of ``tasks`` acks."""
        if self.acker.arm(record.root, tasks, self.sim.now):
            # Zero live destinations (every machine crashed): the tree is
            # trivially complete the instant it is armed.
            self._on_tree_complete(record.root)

    # ------------------------------------------------------------------
    # bolt side: the delivery gate + execution notification
    # ------------------------------------------------------------------
    def on_delivery(self, task_id: int, tup) -> str:
        """Gate one tuple about to be executed at ``task_id``.

        Returns ``"execute"`` to proceed; anything else means the copy
        was absorbed here (``"duplicate"`` suppressed by dedup, ``"hold"``
        buffered until its group commits, ``"aborted"`` purged)."""
        if self.mode == "at_least_once":
            return "execute"  # Storm semantics: duplicates re-execute
        root = tup.root_id
        executed = self._executed.get(root)
        if executed is not None and task_id in executed:
            # Idempotent-execution contract: already executed here — ack
            # again (the replay re-armed the tree) but do not re-run.
            self.duplicates_suppressed += 1
            self._ack_if_tracked(task_id, root)
            self._trace_dedup(root, task_id)
            return "duplicate"
        claimed = self._claimed.get(root)
        if claimed is not None and task_id in claimed:
            # Another copy is mid-service at this task; it will ack when
            # it completes (or the claim is purged if the machine dies).
            self.duplicates_suppressed += 1
            self._trace_dedup(root, task_id)
            return "duplicate"
        if self.mode == "atomic":
            return self._on_delivery_atomic(task_id, tup, root)
        # exactly_once: claim at the decision point so two in-flight
        # copies can never both reach the bolt.
        if root in self._pending or executed is not None:
            self._claimed.setdefault(root, set()).add(task_id)
        return "execute"

    def _on_delivery_atomic(self, task_id: int, tup, root: int) -> str:
        if root in self._aborted_roots:
            return "aborted"
        if root in self._committed_roots:
            # Released (or late) copy of a committed tree: execute once.
            self._claimed.setdefault(root, set()).add(task_id)
            return "execute"
        if root not in self._pending:
            return "execute"  # untracked stream (no one-to-many tree)
        # Pending tree: buffer the first copy, ack receipt; duplicates
        # from a whole-tree replay re-ack the re-armed tree.
        held = self._held.setdefault(root, {})
        if task_id not in held:
            held[task_id] = tup
        self._ack_if_tracked(task_id, root)
        return "hold"

    def notify_executed(self, task_id: int, tup) -> None:
        """Called by every bolt execution; no-op for untracked tuples."""
        root = tup.root_id
        tracked = (
            root in self._pending
            or root in self._executed
            or root in self._committed_roots
        )
        if tracked and self.mode != "at_most_once":
            executed = self._executed.setdefault(root, set())
            if task_id in executed:
                self.duplicate_executions += 1
            executed.add(task_id)
            claimed = self._claimed.get(root)
            if claimed is not None:
                claimed.discard(task_id)
            audit = self._audit.get(root)
            if audit is not None:
                audit.executed.add(task_id)
        if self.mode == "atomic":
            pending = self._in_release.get(root)
            if pending is not None:
                pending.discard(task_id)
                if not pending:
                    del self._in_release[root]
            return  # receipt was acked at delivery; commit is the ack
        self._ack_if_tracked(task_id, root)

    def _ack_if_tracked(self, task_id: int, root: int) -> None:
        if not self.acker.awaits(root, task_id):
            return
        machine = self.system.placement.machine_of[task_id]
        if self.system.machine_is_crashed(machine):
            return  # execution raced the crash; the ack dies with it
        if not self._ack_outbox:
            self.sim.schedule_call(0.0, self._flush_acks)
        self._ack_outbox.setdefault(machine, []).append((root, task_id))

    def _flush_acks(self) -> None:
        """Send each machine's acks of this instant as one AckMessage."""
        outbox, self._ack_outbox = self._ack_outbox, {}
        system = self.system
        header = system.serialization.control_message_bytes()
        for machine, acks in outbox.items():
            if system.machine_is_crashed(machine):
                continue  # crashed after buffering: the acks die with it
            system.transport.send(
                machine, self.home_machine, AckMessage(tuple(acks)),
                header + ACK_PAIR_BYTES * (len(acks) - 1),
                system.workers[machine].cpu, kind="control",
            )

    def _trace_dedup(self, root: int, task_id: int) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("ack.dedup", self.sim.now, root=root, task=task_id)

    # ------------------------------------------------------------------
    # acker machine: control-plane delivery
    # ------------------------------------------------------------------
    def _on_control(self, payload) -> None:
        if not isinstance(payload, AckMessage):
            return
        for root, task in payload.acks:
            # A duplicate or stale pair is a no-op in the table.
            if self.acker.ack(root, task):
                self._on_tree_complete(root)

    def _on_tree_complete(self, root: int) -> None:
        """Every (live) destination acked: complete now, or — in atomic
        mode — mark stable and commit in sender order."""
        if self.mode != "atomic":
            self._on_complete(root)
            return
        record = self._pending[root]
        record.status = "stable"
        self._pump_commits(record.sender)

    def _on_complete(self, root: int) -> None:
        record = self._pending.pop(root)
        self.completions.append(
            CompletionRecord(
                root_id=root,
                completed_at=self.sim.now,
                registered_at=record.registered_at,
                attempts=record.attempts,
            )
        )
        self._settle_epoch(record.epoch)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "ack.complete",
                self.sim.now,
                root=root,
                attempts=record.attempts,
                latency_s=self.sim.now - record.registered_at,
            )

    # ------------------------------------------------------------------
    # atomic mode: sender-ordered commit / abort
    # ------------------------------------------------------------------
    def _pump_commits(self, sender: int) -> None:
        """Commit stable trees of ``sender`` in sequence order; notices
        for trees committing at the same instant batch per machine."""
        queue = self._sender_queue.get(sender)
        if queue is None:
            return
        nxt = self._commit_next.get(sender, 0)
        committed_roots: List[int] = []
        while nxt in queue:
            record = queue[nxt]
            if record.status == "aborted":
                del queue[nxt]
                nxt += 1
                continue
            if record.status != "stable":
                break  # head of line still in flight: hold back commits
            del queue[nxt]
            committed_roots.append(self._commit_tree(record, nxt))
            nxt += 1
        self._commit_next[sender] = nxt
        if committed_roots:
            self._queue_notice(committed_roots, commit=True)

    def _commit_tree(self, record: _PendingTree, seq: int) -> int:
        root = record.root
        del self._pending[root]
        self._committed_roots.add(root)
        self.commits += 1
        self.commit_order.setdefault(record.sender, []).append(seq)
        audit = self._audit.get(root)
        if audit is not None:
            audit.status = "committed"
            audit.commit_t = self.sim.now
        self.completions.append(
            CompletionRecord(
                root_id=root,
                completed_at=self.sim.now,
                registered_at=record.registered_at,
                attempts=record.attempts,
            )
        )
        self._settle_epoch(record.epoch)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "atomic.commit",
                self.sim.now,
                root=root,
                sender=record.sender,
                seq=seq,
                attempts=record.attempts,
                latency_s=self.sim.now - record.registered_at,
            )
        return root

    def _abort_tree(self, record: _PendingTree) -> None:
        root = record.root
        del self._pending[root]
        self._aborted_roots.add(root)
        record.status = "aborted"
        self.aborts += 1
        self.gave_up.append(root)
        self.system.metrics.on_abandoned()
        audit = self._audit.get(root)
        if audit is not None:
            audit.status = "aborted"
        self._settle_epoch(record.epoch)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "atomic.abort",
                self.sim.now,
                root=root,
                sender=record.sender,
                seq=record.seq,
                attempts=record.attempts - 1,
            )
        if self._held.get(root):
            self._queue_notice([root], commit=False)
        self._pump_commits(record.sender)

    def _queue_notice(self, roots: List[int], commit: bool) -> None:
        """Buffer notices and flush them in one same-instant callback, so
        roots settling at the same instant via *different senders'*
        commit pumps still share one notice per machine.  With batching
        disabled, notices go out immediately (one batch per pump)."""
        if not self._notice_batching:
            self._broadcast_notice(roots, commit)
            return
        buffer = (
            self._commit_notice_buffer if commit else self._abort_notice_buffer
        )
        buffer.extend(roots)
        if not self._notice_flush_scheduled:
            self._notice_flush_scheduled = True
            self.sim.schedule_call(0.0, self._flush_notices)

    def _flush_notices(self) -> None:
        self._notice_flush_scheduled = False
        commits, self._commit_notice_buffer = self._commit_notice_buffer, []
        aborts, self._abort_notice_buffer = self._abort_notice_buffer, []
        if commits:
            self._broadcast_notice(commits, commit=True)
        if aborts:
            self._broadcast_notice(aborts, commit=False)

    def _broadcast_notice(self, roots: List[int], commit: bool) -> None:
        """Send one Commit/AbortMessage per destination machine holding a
        buffered copy (opportunistic batching: one notice covers every
        root that settled at this instant)."""
        machine_of = self.system.placement.machine_of
        by_machine: Dict[int, List[int]] = {}
        for root in roots:
            self._notice_sent_at[root] = self.sim.now
            for task in self._held.get(root, ()):
                by_machine.setdefault(machine_of[task], []).append(root)
        payload_cls = CommitMessage if commit else AbortMessage
        for machine, machine_roots in sorted(by_machine.items()):
            if self.system.machine_is_crashed(machine):
                continue  # its buffers died with it (purged on crash)
            payload = payload_cls(roots=tuple(sorted(set(machine_roots))))
            self.notice_messages += 1
            self.system.control_post(
                self.home_machine, machine, payload,
                self.system.workers[self.home_machine].cpu,
            )

    def _on_notice(self, machine: int, payload) -> None:
        """Commit/abort notice arriving at a destination machine."""
        if isinstance(payload, CommitMessage):
            self._release_held(machine, payload.roots)
        elif isinstance(payload, AbortMessage):
            self._purge_held(machine, payload.roots)

    def _release_held(self, machine: int, roots: Tuple[int, ...]) -> None:
        machine_of = self.system.placement.machine_of
        for root in roots:
            held = self._held.get(root)
            if not held:
                continue
            local = [t for t in held if machine_of[t] == machine]
            for task in local:
                tup = held.pop(task)
                executor = self.system.executors[task]
                if executor.accept(tup):
                    self._in_release.setdefault(root, set()).add(task)
                else:
                    # Inqueue overflow: the committed copy is lost at
                    # this destination — excuse it so group-atomicity
                    # accounting stays honest.
                    self.commit_drops += 1
                    audit = self._audit.get(root)
                    if audit is not None:
                        audit.excused.add(task)
            if not held:
                self._held.pop(root, None)

    def _purge_held(self, machine: int, roots: Tuple[int, ...]) -> None:
        machine_of = self.system.placement.machine_of
        for root in roots:
            held = self._held.get(root)
            if not held:
                continue
            for task in [t for t in held if machine_of[t] == machine]:
                held.pop(task)
            if not held:
                self._held.pop(root, None)

    # ------------------------------------------------------------------
    # fault hooks
    # ------------------------------------------------------------------
    def on_machine_crash(self, machine: int) -> None:
        """A machine fail-stopped: purge its volatile delivery state.

        * in-flight execution claims die (so a replay may re-execute);
        * buffered atomic copies die — if the tree already counted this
          destination's receipt ack, the task is excused (it can never
          execute the committed tree: the post-commit crash window);
        * live atomic trees forgive the crashed destinations' edges so
          the group can still commit over the live membership.
        """
        machine_of = self.system.placement.machine_of
        for root, claimed in list(self._claimed.items()):
            executed = self._executed.get(root, set())
            stale = {
                t for t in claimed
                if machine_of[t] == machine and t not in executed
            }
            claimed -= stale
            if not claimed:
                self._claimed.pop(root, None)
        if self.mode != "atomic":
            return
        for root, held in list(self._held.items()):
            lost = [t for t in held if machine_of[t] == machine]
            for task in lost:
                held.pop(task)
                audit = self._audit.get(root)
                if audit is not None:
                    audit.excused.add(task)
            if not held:
                self._held.pop(root, None)
        # Released copies queued on the crashed machine die with its
        # inqueues: the post-commit crash window (excused).
        for root, pending in list(self._in_release.items()):
            lost = {t for t in pending if machine_of[t] == machine}
            for task in lost:
                audit = self._audit.get(root)
                if audit is not None:
                    audit.excused.add(task)
            pending -= lost
            if not pending:
                self._in_release.pop(root, None)
        # Forgive the crashed machine's outstanding destinations, in arm
        # order: ack on their behalf so all-or-none ranges over live
        # destinations only.
        for root, tasks in self.acker.items():
            audit = self._audit.get(root)
            for task in tasks:
                if machine_of[task] != machine:
                    continue
                if audit is not None:
                    audit.excused.add(task)
                if self.acker.ack(root, task):
                    self._on_tree_complete(root)

    # ------------------------------------------------------------------
    # timeout sweep + replay
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        for root, outstanding in self.acker.expired(
            self.sim.now, self.config.ack_timeout_s
        ):
            self._on_timeout(root, outstanding)
        if self.mode == "atomic":
            self._retry_notices()

    def _retry_notices(self) -> None:
        """Re-send commit/abort notices for roots that still hold
        buffered copies (the notice died on a down link or machine)."""
        stale = [
            root
            for root, sent_at in self._notice_sent_at.items()
            if self._held.get(root)
            and self.sim.now - sent_at >= self.config.ack_timeout_s
        ]
        for root in stale:
            self._broadcast_notice([root], commit=root in self._committed_roots)
        for root in [
            r for r in self._notice_sent_at if not self._held.get(r)
        ]:
            self._notice_sent_at.pop(root, None)

    def _on_timeout(self, root: int, outstanding: List[int]) -> None:
        """The tree expired (and was disarmed) still awaiting
        ``outstanding``: replay it after a backoff, or give up."""
        record = self._pending[root]
        record.attempts += 1
        tracer = self.sim.tracer
        if record.attempts > self.config.max_replays:
            if self.mode == "atomic":
                if tracer is not None:
                    tracer.emit(
                        "fault.replay_give_up",
                        self.sim.now,
                        root=root,
                        attempts=record.attempts - 1,
                    )
                self._abort_tree(record)
                return
            del self._pending[root]
            self.gave_up.append(root)
            self.system.metrics.on_abandoned()
            self._settle_epoch(record.epoch)
            if tracer is not None:
                tracer.emit(
                    "fault.replay_give_up",
                    self.sim.now,
                    root=root,
                    attempts=record.attempts - 1,
                )
            return
        backoff = REPLAY_BACKOFF_BASE_S * (2 ** (record.attempts - 1))
        # Deterministic jitter (seeded "acker" stream): trees failed by
        # the same sweep spread over [backoff, 2*backoff) instead of
        # replaying in lockstep.
        backoff *= 1.0 + float(self._rng.uniform(0.0, 1.0))
        flow = self.system.flow
        if flow is not None:
            # Replay-storm control: claim a token from the global budget
            # and widen the backoff under measured congestion.
            token_delay, congestion = flow.replay_gate()
            if congestion > 0:
                backoff *= CONGESTION_BACKOFF_FACTOR ** min(congestion, 4)
            backoff += token_delay
        self.replays += 1
        if tracer is not None:
            tracer.emit(
                "fault.replay",
                self.sim.now,
                root=root,
                attempt=record.attempts,
                backoff_s=backoff,
            )
        # Ahead of ordinary entries due now, like every replay start:
        # same-instant order (DESIGN §6).
        self.sim.call_soon(lambda: self._replay(record, backoff, outstanding))

    def _replay_tasks(
        self, record: _PendingTree, outstanding: List[int]
    ) -> List[int]:
        """The destinations a replay must reach."""
        if self.mode == "exactly_once":
            # Selective replay: only destinations whose ack is missing.
            return outstanding
        tasks = record.tasks
        if self.mode == "atomic":
            machine_of = self.system.placement.machine_of
            audit = self._audit.get(record.root)
            excused = audit.excused if audit is not None else set()
            tasks = [
                t for t in tasks
                if t not in excused
                and not self.system.machine_is_crashed(machine_of[t])
            ]
        return tasks

    def _replay(
        self, record: _PendingTree, backoff: float, outstanding: List[int]
    ) -> None:
        """After ``backoff``: re-arm the tree and re-enqueue its envelopes
        at the spout, one after another."""
        if backoff > 0:
            self.sim.schedule_call(
                backoff, lambda: self._replay(record, 0.0, outstanding)
            )
            return
        self._arm(record, self._replay_tasks(record, outstanding))
        if record.root not in self._pending:
            return  # zero live destinations: completed at arming
        envelopes = record.envelopes
        if self.mode == "exactly_once":
            # Selective replay: only the unacked destinations.  A point
            # repair of part of an envelope bypasses the multicast tree
            # (Envelope.selective).
            missing = set(outstanding)
            envelopes = []
            for env in record.envelopes:
                tasks = [t for t in env.dst_tasks if t in missing]
                if not tasks:
                    continue
                if len(tasks) != len(env.dst_tasks):
                    env = replace(env, dst_tasks=tasks, selective=True)
                envelopes.append(env)
        # Re-enqueue at the spout; a blocking enqueue applies
        # backpressure instead of silently dropping the replay when the
        # queue is full.
        each(envelopes, record.executor.requeue, lambda: None)

    # ------------------------------------------------------------------
    # epoch barriers: close every interval, commit once settled, GC dedup
    # ------------------------------------------------------------------
    def _close_epoch(self) -> None:
        self._epoch += 1
        self._epoch_roots.setdefault(self._epoch, [])
        self._epoch_open.setdefault(self._epoch, 0)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("epoch.open", self.sim.now, epoch=self._epoch)
        self._try_commit_epochs()

    def _settle_epoch(self, epoch: int) -> None:
        self._epoch_open[epoch] -= 1
        flow = self.system.flow
        if flow is not None:
            # Every settle path funnels through here: the admission gate
            # re-checks the pending count the moment it can shrink.
            flow.on_pending_change()
        self._try_commit_epochs()

    def _try_commit_epochs(self) -> None:
        # One closed epoch of lag guards against in-flight stragglers
        # whose dedup entry would otherwise be GC'd under them.
        while (
            self._oldest_uncommitted < self._epoch - 1
            and self._epoch_open.get(self._oldest_uncommitted, 0) == 0
        ):
            epoch = self._oldest_uncommitted
            roots = self._epoch_roots.pop(epoch, [])
            self._epoch_open.pop(epoch, None)
            deferred: List[int] = []
            for root in roots:
                audit = self._audit.get(root)
                if audit is not None:
                    problem = audit.violation()
                    if problem is not None and self._release_pending(root):
                        # Committed copies still buffered or riding an
                        # inqueue: judgment (and GC) wait for them.
                        deferred.append(root)
                        continue
                    self._audit.pop(root, None)
                    if problem is not None:
                        self.atomic_violations.append(problem)
                self._executed.pop(root, None)
                self._claimed.pop(root, None)
                self._committed_roots.discard(root)
                self._aborted_roots.discard(root)
                self._notice_sent_at.pop(root, None)
            if deferred:
                self._epoch_roots[self._epoch].extend(deferred)
            self.epochs_committed += 1
            self._oldest_uncommitted += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "epoch.commit",
                    self.sim.now,
                    epoch=epoch,
                    n_roots=len(roots),
                )

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def _release_pending(self, root: int) -> bool:
        """True while committed copies of ``root`` are still buffered at
        a destination or riding an inqueue toward execution."""
        return bool(self._held.get(root)) or bool(self._in_release.get(root))

    @property
    def held_entries(self) -> int:
        """Atomic mode: buffered or released-but-unexecuted copies
        (a drain is not quiet while any is left)."""
        return sum(len(h) for h in self._held.values()) + sum(
            len(s) for s in self._in_release.values()
        )

    def replayed_completions(self) -> List[CompletionRecord]:
        return [c for c in self.completions if c.attempts > 0]

    def audit_violations(self) -> List[str]:
        """Group-atomicity breaches: accumulated at epoch GC plus a
        sweep of the audits still retained."""
        found = list(self.atomic_violations)
        for root, audit in self._audit.items():
            if audit.status == "pending":
                continue  # still in flight; judged when it settles
            if self._release_pending(root):
                continue  # committed copies still en route to execution
            problem = audit.violation()
            if problem is not None:
                found.append(problem)
        for sender, seqs in self.commit_order.items():
            if seqs != sorted(seqs):
                found.append(
                    f"sender {sender} committed out of order: {seqs}"
                )
        return found
