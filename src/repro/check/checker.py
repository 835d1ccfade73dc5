"""The runtime invariant checker.

:class:`InvariantChecker` hooks a :class:`~repro.dsps.system.DspsSystem`
through the existing trace-hook points: it installs a forwarding tracer
(:class:`_CheckerTap`) in front of whatever tracer the system already
has, so every ``tracer.emit`` throughout the codebase doubles as a check
point — no simulator events are scheduled and no subsystem needs to know
it is being watched.  In particular the checker never perturbs the event
sequence: a checked run is the plain run's engine (lazy sinks stay
lazy, calendar entry for calendar entry) and produces a bit-identical
trace to the same run without the checker.  State invariants run once
per record, so per-packet and per-service lifecycle records keep them
off the per-copy path.

Usage::

    system = DspsSystem(topology, config, ...)
    checker = system.attach_checker(mode="strict")   # before start()
    system.run_measured(0.2, 1.0)
    report = checker.finalize()                      # end-of-run checks

* ``mode="strict"`` raises :class:`~repro.check.invariants.
  InvariantViolation` at the first breach (the exception surfaces out of
  ``sim.run``, pinpointing the offending event);
* ``mode="warn"`` collects every breach into the :class:`CheckReport`
  and additionally emits a ``check.violation`` trace record.

Checks are cheap relative to the simulation (counter comparisons and an
O(n) tree walk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.check.invariants import (
    REGISTRY,
    CheckContext,
    Invariant,
    InvariantViolation,
    Violation,
    default_invariants,
)
from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.system import DspsSystem

#: Record kinds retained for the end-of-run replay cross-check
#: (``metrics_replay_equiv`` re-derives the MetricsHub figures from them).
LIFECYCLE_KINDS = frozenset(
    {
        "metrics.window",
        "tuple.emit",
        "mc.register",
        "tuple.drop",
        "worker.dispatch",
        "tuple.execute",
        "switch.rewire",
    }
)


@dataclass
class CheckReport:
    """Outcome of one checked run."""

    mode: str
    violations: List[Violation] = field(default_factory=list)
    records_seen: int = 0
    checks_run: int = 0
    finalized: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [
            f"invariant check [{self.mode}]: {status} "
            f"({self.records_seen} records, {self.checks_run} checks)"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class _CheckerTap(Tracer):
    """Forwarding tracer: every record goes to the checker first, then to
    the tracer the system already had (honouring its category filter)."""

    def __init__(self, checker: "InvariantChecker", inner: Optional[Tracer]):
        super().__init__(categories=None)  # see every record
        self.checker = checker
        self.inner = inner

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        record: Dict[str, Any] = {"kind": kind, "t": t}
        record.update(fields)
        self.records_emitted += 1
        self.checker._on_record(record)
        inner = self.inner
        if inner is not None and inner.wants(kind):
            inner.records_emitted += 1
            inner.write(record)

    def write(self, record: Dict[str, Any]) -> None:
        # Only reached by direct write() callers (e.g. manifest records);
        # pass them through untouched.
        if self.inner is not None:
            self.inner.write(record)

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()


class InvariantChecker:
    """Watches one system's run and enforces the invariant catalog."""

    def __init__(
        self,
        system: "DspsSystem",
        mode: str = "strict",
        invariants: Optional[Iterable[Union[str, Invariant]]] = None,
    ):
        """``invariants`` selects a subset of the catalog (by name or
        :class:`Invariant`); default is everything registered."""
        if mode not in ("strict", "warn"):
            raise ValueError(f"mode must be 'strict' or 'warn', got {mode!r}")
        self.system = system
        self.mode = mode
        if invariants is None:
            selected = default_invariants()
        else:
            selected = [
                REGISTRY[inv] if isinstance(inv, str) else inv
                for inv in invariants
            ]
        self.invariants: List[Invariant] = selected
        self._record_invs = [i for i in selected if i.scope == "record"]
        self._state_invs = [i for i in selected if i.scope == "state"]
        self._final_invs = [i for i in selected if i.scope == "final"]
        self.lifecycle_records: List[Dict[str, Any]] = []
        self.report = CheckReport(mode=mode)
        #: timestamp of the latest record seen (for the clock invariant).
        self.last_record_t: Optional[float] = None
        self._tap: Optional[_CheckerTap] = None
        self._prev_tracer: Optional[Tracer] = None
        self._in_check = False

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self) -> "InvariantChecker":
        """Install the tap in front of the system's current tracer.

        Attach before ``system.start()`` so the retained lifecycle
        records cover the whole run (the ``metrics_replay_equiv`` final
        check needs them from the first emit on)."""
        if self._tap is not None:
            raise RuntimeError("checker already attached")
        self._prev_tracer = self.system.sim.tracer
        self._tap = _CheckerTap(self, self._prev_tracer)
        self.system.sim.tracer = self._tap
        return self

    def detach(self) -> None:
        """Restore the system's original tracer."""
        if self._tap is None:
            return
        if self.system.sim.tracer is self._tap:
            self.system.sim.tracer = self._prev_tracer
        self._tap = None
        self._prev_tracer = None

    @property
    def attached(self) -> bool:
        return self._tap is not None

    # ------------------------------------------------------------------
    # the per-record hook (called by the tap)
    # ------------------------------------------------------------------
    def _on_record(self, record: Dict[str, Any]) -> None:
        if self._in_check:
            return  # records emitted while checking never recurse
        self.report.records_seen += 1
        t = record.get("t", 0.0)
        for inv in self._record_invs:
            self._run(inv, t, record)
        if self.last_record_t is None or t > self.last_record_t:
            self.last_record_t = t
        kind = record["kind"]
        if kind in LIFECYCLE_KINDS:
            self.lifecycle_records.append(record)
        if kind.startswith("sim."):
            return  # engine firehose: clock check only, skip the sweep
        for inv in self._state_invs:
            self._run(inv, t, record)

    def _run(
        self, inv: Invariant, t: float, record: Optional[Dict] = None
    ) -> None:
        self.report.checks_run += 1
        self._in_check = True
        try:
            inv.fn(CheckContext(self, inv, t, record))
        finally:
            self._in_check = False

    # ------------------------------------------------------------------
    # explicit sweeps
    # ------------------------------------------------------------------
    def finalize(self) -> CheckReport:
        """End-of-run sweep: state invariants plus the final-scope checks
        that only hold once the run has settled."""
        t = self.system.sim.now
        for inv in self._state_invs:
            self._run(inv, t)
        for inv in self._final_invs:
            self._run(inv, t)
        self.report.finalized = True
        return self.report

    # ------------------------------------------------------------------
    # violation sink (called from CheckContext.fail)
    # ------------------------------------------------------------------
    def _report(self, violation: Violation) -> None:
        self.report.violations.append(violation)
        inner = self._tap.inner if self._tap is not None else None
        if inner is not None:
            # Bypass the tap: violation records must not re-enter checks.
            inner.emit(
                "check.violation",
                violation.t,
                invariant=violation.invariant,
                message=violation.message,
            )
        if self.mode == "strict":
            raise InvariantViolation(violation)
