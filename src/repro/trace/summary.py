"""Trace inspection: lifecycle spans, decision timeline, rewire audit.

Backs the ``python -m repro.trace`` CLI; importable so tests and
notebooks can use the same digests.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dsps.metrics import LatencySummary
from repro.trace.replay import ReplayResult, replay


def load_trace(path: str) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """Read a JSONL trace; returns ``(manifest_or_None, records)``.

    The manifest record (if present) is split off from the event stream.
    """
    manifest: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "manifest":
                manifest = record
            else:
                records.append(record)
    return manifest, records


@dataclass
class TupleSpan:
    """Lifecycle of one tracked (one-to-many) tuple."""

    tuple_id: int
    emit_t: float
    n_destinations: int = 0
    first_receive_t: Optional[float] = None
    last_receive_t: Optional[float] = None
    n_received: int = 0
    last_execute_t: Optional[float] = None
    n_executed: int = 0
    dropped: bool = False

    @property
    def multicast_latency(self) -> Optional[float]:
        """emit -> last receive, once every destination has received."""
        if self.last_receive_t is None or self.n_received < self.n_destinations:
            return None
        return self.last_receive_t - self.emit_t


@dataclass
class TraceSummary:
    """Everything the CLI prints, as data."""

    manifest: Optional[Dict[str, Any]]
    kind_counts: Counter
    spans: Dict[int, TupleSpan]
    decisions: List[Dict[str, Any]]
    switches: List[Dict[str, Any]]
    rewires: List[Dict[str, Any]]
    replayed: ReplayResult
    time_range: Tuple[float, float] = (0.0, 0.0)
    complete_spans: List[TupleSpan] = field(default_factory=list)
    #: every ``fault.*`` record, in stream order.
    faults: List[Dict[str, Any]] = field(default_factory=list)
    #: every ``switch.repair`` record (tree self-healing audit log).
    repair_ops: List[Dict[str, Any]] = field(default_factory=list)
    #: delivery-semantics records: ``epoch.*``, ``atomic.*``, ``ack.dedup``.
    delivery: List[Dict[str, Any]] = field(default_factory=list)
    #: overload-protection records: ``flow.*`` and ``shed.*``.
    overload: List[Dict[str, Any]] = field(default_factory=list)

    def fault_timeline(self) -> List[Tuple[float, str, Any]]:
        """(t, event, target) rows for crash/recovery/suspicion events."""
        rows: List[Tuple[float, str, Any]] = []
        for rec in self.faults:
            event = rec["kind"].split(".", 1)[1]
            target = rec.get("machine")
            if target is None and "machine_a" in rec:
                target = (rec["machine_a"], rec["machine_b"])
            if target is None:
                target = rec.get("root")
            if target is None and "magnitude" in rec:
                target = f"x{rec['magnitude']:g}"
            rows.append((rec.get("t", 0.0), event, target))
        return rows

    def repair_op_counts(self) -> Counter:
        """Repair rewires by direction (``repair`` vs ``reattach``)."""
        return Counter(op.get("direction") for op in self.repair_ops)


def summarize(
    records: List[Dict[str, Any]], manifest: Optional[Dict[str, Any]] = None
) -> TraceSummary:
    """Digest a record stream into a :class:`TraceSummary`."""
    kind_counts: Counter = Counter(r["kind"] for r in records)
    spans: Dict[int, TupleSpan] = {}
    pending_dsts: Dict[int, set] = defaultdict(set)
    decisions: List[Dict[str, Any]] = []
    switches: List[Dict[str, Any]] = []
    rewires: List[Dict[str, Any]] = []
    faults: List[Dict[str, Any]] = []
    repair_ops: List[Dict[str, Any]] = []
    delivery: List[Dict[str, Any]] = []
    overload: List[Dict[str, Any]] = []
    t_min, t_max = float("inf"), float("-inf")
    for rec in records:
        t = rec.get("t", 0.0)
        t_min, t_max = min(t_min, t), max(t_max, t)
        kind = rec["kind"]
        if kind == "mc.register":
            span = spans.get(rec["id"])
            if span is None:
                spans[rec["id"]] = span = TupleSpan(tuple_id=rec["id"], emit_t=t)
            pending_dsts[rec["id"]].update(rec["dsts"])
            span.n_destinations = len(pending_dsts[rec["id"]])
        elif kind == "tuple.drop":
            span = spans.get(rec["id"])
            if span is not None:
                span.dropped = True
        elif kind == "worker.dispatch":
            span = spans.get(rec["id"])
            if span is not None:
                owed = pending_dsts[rec["id"]]
                before = len(owed)
                owed.difference_update(rec["tasks"])
                if len(owed) < before:
                    span.n_received += before - len(owed)
                    if span.first_receive_t is None:
                        span.first_receive_t = t
                    span.last_receive_t = t
        elif kind == "tuple.execute":
            span = spans.get(rec["id"])
            if span is not None:
                span.n_executed += len(rec["tasks"])
                done = rec["done"]
                if span.last_execute_t is None or done > span.last_execute_t:
                    span.last_execute_t = done
        elif kind in ("monitor.sample", "controller.dstar"):
            decisions.append(rec)
        elif kind in ("switch.begin", "switch.end"):
            switches.append(rec)
        elif kind == "switch.rewire":
            rewires.append(rec)
        elif kind == "switch.repair":
            repair_ops.append(rec)
        elif kind.startswith("fault."):
            faults.append(rec)
        elif kind.startswith(("epoch.", "atomic.")) or kind == "ack.dedup":
            delivery.append(rec)
        elif kind.startswith(("flow.", "shed.")) or kind == "queue.evict":
            overload.append(rec)
    if t_min > t_max:
        t_min = t_max = 0.0
    summary = TraceSummary(
        manifest=manifest,
        kind_counts=kind_counts,
        spans=spans,
        decisions=decisions,
        switches=switches,
        rewires=rewires,
        replayed=replay(records),
        time_range=(t_min, t_max),
        faults=faults,
        repair_ops=repair_ops,
        delivery=delivery,
        overload=overload,
    )
    summary.complete_spans = [
        s for s in spans.values() if s.multicast_latency is not None
    ]
    return summary


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_latency(summary: LatencySummary) -> str:
    if summary.count == 0:
        return "n=0"
    return (
        f"n={summary.count}  p50={1e3 * summary.p50:.3f}ms  "
        f"p99={1e3 * summary.p99:.3f}ms  max={1e3 * summary.max:.3f}ms"
    )


def render(summary: TraceSummary) -> str:
    """Human-readable multi-section digest of one trace."""
    lines: List[str] = []
    m = summary.manifest
    if m is not None:
        cfg = m.get("config") or {}
        lines.append(
            f"run: variant={cfg.get('name', '?')}  seed={m.get('seed')}  "
            f"git={str(m.get('git_rev'))[:12]}  schema={m.get('schema')}"
        )
    t0, t1 = summary.time_range
    total = sum(summary.kind_counts.values())
    lines.append(f"records: {total} over t=[{t0:.4f}s, {t1:.4f}s]")
    for kind, n in sorted(summary.kind_counts.items()):
        lines.append(f"  {kind:<18} {n}")

    lines.append("")
    lines.append("tuple lifecycle (one-to-many tuples):")
    tracked = len(summary.spans)
    complete = summary.complete_spans
    dropped = sum(1 for s in summary.spans.values() if s.dropped)
    lines.append(
        f"  tracked={tracked}  fully-received={len(complete)}  dropped={dropped}"
    )
    mc = LatencySummary.from_samples(
        [s.multicast_latency for s in complete if s.multicast_latency is not None]
    )
    lines.append(f"  multicast latency (emit -> last receive): {_fmt_latency(mc)}")
    rep = summary.replayed
    if rep.window_start is not None and rep.window_end is not None:
        lines.append(
            f"  window [{rep.window_start:.4f}s, {rep.window_end:.4f}s]: "
            + "  ".join(
                f"{op}: {rep.throughput(op):.0f}/s"
                for op in sorted(rep.processed)
            )
        )

    lines.append("")
    lines.append(f"controller decisions: {len(summary.decisions)}")
    actions = Counter(
        d.get("action") for d in summary.decisions if d["kind"] == "monitor.sample"
    )
    if actions:
        lines.append(
            "  " + "  ".join(f"{a}: {n}" for a, n in sorted(actions.items()))
        )
    for d in summary.decisions:
        if d["kind"] == "monitor.sample" and d.get("action") != "hold":
            lines.append(
                f"  t={d['t']:.4f}s  src_task={d.get('src_task')}  "
                f"{d['action']}  lambda={d.get('lam', 0.0):.1f}/s  "
                f"queue={d.get('queue_len')}"
            )

    lines.append("")
    lines.append(
        f"dynamic switching: {len(summary.switches)} begin/end records, "
        f"{len(summary.rewires)} rewire ops"
    )
    for s in summary.switches:
        if s["kind"] == "switch.begin":
            lines.append(
                f"  t={s['t']:.4f}s  {s['direction']}  "
                f"d*: {s.get('old_d_star')} -> {s.get('new_d_star')}  "
                f"ops={s.get('n_ops')}"
            )
    for op in summary.rewires:
        lines.append(
            f"    t={op['t']:.4f}s  rewire {op.get('node')}: "
            f"{op.get('old_parent')} -> {op.get('new_parent')}"
        )

    if summary.faults or summary.repair_ops or summary.overload:
        lines.append("")
        lines.append(render_faults(summary))
    return "\n".join(lines)


def render_faults(summary: TraceSummary) -> str:
    """Fault/recovery digest: crash timeline + repair op counts."""
    lines: List[str] = []
    events = Counter(rec["kind"] for rec in summary.faults)
    lines.append(
        f"faults: {sum(events.values())} events, "
        f"{len(summary.repair_ops)} repair ops"
    )
    for kind, n in sorted(events.items()):
        lines.append(f"  {kind:<22} {n}")
    lines.append("  timeline:")
    for t, event, target in summary.fault_timeline():
        # Replays are summarized at the end; listing each would swamp
        # the crash/recovery story.
        if event.startswith("replay"):
            continue
        lines.append(f"    t={t:.4f}s  {event:<16} {target}")
    counts = summary.repair_op_counts()
    if counts:
        lines.append(
            "  repair rewires: "
            + "  ".join(f"{d}: {n}" for d, n in sorted(counts.items()))
        )
    for op in summary.repair_ops:
        lines.append(
            f"    t={op['t']:.4f}s  {op.get('direction')}  "
            f"endpoint={op.get('endpoint')}  {op.get('node')}: "
            f"{op.get('old_parent')} -> {op.get('new_parent')}"
        )
    replays = [r for r in summary.faults if r["kind"] == "fault.replay"]
    gave_up = [
        r for r in summary.faults if r["kind"] == "fault.replay_give_up"
    ]
    if replays or gave_up:
        lines.append(
            f"  replays: {len(replays)} attempts over "
            f"{len({r.get('root') for r in replays})} roots, "
            f"{len(gave_up)} gave up"
        )
    if gave_up:
        lines.append(f"  messages abandoned: {len(gave_up)}")
    if summary.delivery:
        kinds = Counter(rec["kind"] for rec in summary.delivery)
        parts = []
        if kinds.get("epoch.commit"):
            parts.append(f"epochs committed: {kinds['epoch.commit']}")
        if kinds.get("ack.dedup"):
            parts.append(f"duplicates suppressed: {kinds['ack.dedup']}")
        if kinds.get("atomic.commit"):
            parts.append(f"atomic commits: {kinds['atomic.commit']}")
        if kinds.get("atomic.abort"):
            parts.append(f"atomic aborts: {kinds['atomic.abort']}")
        if parts:
            lines.append("  delivery: " + "  ".join(parts))
    if summary.overload:
        kinds = Counter(rec["kind"] for rec in summary.overload)
        parts = []
        shed = kinds.get("shed.drop", 0) + kinds.get("shed.evict", 0)
        if shed:
            parts.append(f"shed: {shed}")
        if kinds.get("flow.defer"):
            parts.append(f"deferred: {kinds['flow.defer']}")
        stalls = (
            kinds.get("flow.credit_stall", 0)
            + kinds.get("flow.admission_stall", 0)
        )
        if stalls:
            parts.append(f"credit stalls: {stalls}")
        if kinds.get("flow.replay_throttle"):
            parts.append(
                f"replays throttled: {kinds['flow.replay_throttle']}"
            )
        if parts:
            lines.append("  overload: " + "  ".join(parts))
    return "\n".join(lines)


def render_tuple(summary: TraceSummary, records: List[Dict[str, Any]],
                 tuple_id: int) -> str:
    """Full event listing for one tuple id."""
    span = summary.spans.get(tuple_id)
    lines = [f"tuple {tuple_id}:"]
    if span is not None:
        lines.append(
            f"  emit t={span.emit_t:.6f}s  destinations={span.n_destinations}  "
            f"received={span.n_received}  executed={span.n_executed}"
        )
        if span.multicast_latency is not None:
            lines.append(
                f"  multicast latency {1e3 * span.multicast_latency:.3f}ms"
            )
    for rec in records:
        if rec.get("id") == tuple_id:
            extras = {
                k: v for k, v in rec.items() if k not in ("kind", "t", "id")
            }
            lines.append(f"  t={rec['t']:.6f}s  {rec['kind']}  {extras}")
    return "\n".join(lines)
