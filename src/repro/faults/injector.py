"""The fault injector: applies a schedule to a running system.

One callback chain walks the schedule in time order.  Crash events go
through :meth:`~repro.dsps.system.DspsSystem.crash_machine` (NIC egress
frozen, in-flight deliveries dropped, executors halted, transport state
reset); recoveries through :meth:`~repro.dsps.system.DspsSystem.
recover_machine`.  Link events flip the fabric's link state directly.
Every transition is traced under the ``fault.*`` category.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

from repro.faults.schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.system import DspsSystem


class FaultInjector:
    """Drives one :class:`FaultSchedule` against one system."""

    def __init__(self, system: "DspsSystem", schedule: FaultSchedule):
        self.system = system
        self.schedule = schedule
        self.crashes_applied = 0
        self.recoveries_applied = 0
        self.link_events_applied = 0
        self.overload_events_applied = 0
        #: (time, kind, target) transitions actually applied.
        self.applied: List[tuple] = []
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        self._pending: Iterator[FaultEvent] = iter(self.schedule)
        self.system.sim.call_soon(self._run)

    def _run(self) -> None:
        """Apply every transition due now, in order; wait for the next."""
        sim = self.system.sim
        for ev in self._pending:
            if ev.time > sim.now:
                sim.schedule_call(ev.time - sim.now, lambda: self._fire(ev))
                return
            self._apply(ev)

    def _fire(self, ev: FaultEvent) -> None:
        self._apply(ev)
        self._run()

    def _apply(self, ev: FaultEvent) -> None:
        sim = self.system.sim
        if ev.kind == "crash":
            self.system.crash_machine(ev.machine)
            self.crashes_applied += 1
            self.applied.append((sim.now, "crash", ev.machine))
        elif ev.kind == "recover":
            self.system.recover_machine(ev.machine)
            self.recoveries_applied += 1
            self.applied.append((sim.now, "recover", ev.machine))
        elif ev.kind == "flash_crowd":
            self.system.begin_flash_crowd(ev.magnitude)
            sim.schedule_call(ev.duration, self.system.end_flash_crowd)
            self.overload_events_applied += 1
            self.applied.append((sim.now, "flash_crowd", ev.magnitude))
            tracer = sim.tracer
            if tracer is not None:
                tracer.emit(
                    "fault.flash_crowd",
                    sim.now,
                    magnitude=ev.magnitude,
                    duration_s=ev.duration,
                )
        elif ev.kind == "slow_node":
            machine = ev.machine
            self.system.begin_slow_node(machine, ev.magnitude)
            sim.schedule_call(
                ev.duration,
                lambda m=machine: self.system.end_slow_node(m),
            )
            self.overload_events_applied += 1
            self.applied.append((sim.now, "slow_node", machine))
            tracer = sim.tracer
            if tracer is not None:
                tracer.emit(
                    "fault.slow_node",
                    sim.now,
                    machine=machine,
                    magnitude=ev.magnitude,
                    duration_s=ev.duration,
                )
        else:
            a, b = sorted(ev.link)
            up = ev.kind == "link_up"
            self.system.fabric.set_link_up(a, b, up)
            self.link_events_applied += 1
            self.applied.append((sim.now, ev.kind, (a, b)))
            tracer = sim.tracer
            if tracer is not None:
                tracer.emit(
                    f"fault.{ev.kind}", sim.now, machine_a=a, machine_b=b
                )
