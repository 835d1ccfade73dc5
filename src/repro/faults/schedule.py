"""Fault schedules: what breaks, when, and for how long.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`\\ s —
plain data, so a schedule can be logged, diffed, and replayed.  The
:meth:`FaultSchedule.random` constructor draws crash/recovery windows
from a seeded generator; everything else is deterministic, so the same
seed always yields the same timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: fault kinds understood by the injector.
KINDS = (
    "crash",
    "recover",
    "link_down",
    "link_up",
    "flash_crowd",
    "slow_node",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault transition.

    ``machine`` is set for crash/recover/slow_node events; ``link`` (an
    unordered machine pair) for link_down/link_up events.  The overload
    kinds carry a ``magnitude`` (rate or service-time multiplier > 1) and
    a ``duration`` — the injector restores normal operation itself, so
    one event describes the whole episode.
    """

    time: float
    kind: str
    machine: Optional[int] = None
    link: Optional[FrozenSet[int]] = None
    magnitude: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind in ("flash_crowd", "slow_node"):
            if self.magnitude is None or self.magnitude <= 1.0:
                raise ValueError(
                    f"{self.kind} event needs a magnitude > 1, got "
                    f"{self.magnitude!r}"
                )
            if self.duration is None or self.duration <= 0:
                raise ValueError(
                    f"{self.kind} event needs a duration > 0, got "
                    f"{self.duration!r}"
                )
            if self.link is not None:
                raise ValueError(f"{self.kind} event must not carry a link")
            if self.kind == "flash_crowd" and self.machine is not None:
                raise ValueError("flash_crowd events hit every spout")
            if self.kind == "slow_node" and self.machine is None:
                raise ValueError("slow_node event needs a machine")
            return
        if self.magnitude is not None or self.duration is not None:
            raise ValueError(
                f"{self.kind} event must not carry magnitude/duration"
            )
        if self.kind in ("crash", "recover"):
            if self.machine is None:
                raise ValueError(f"{self.kind} event needs a machine")
            if self.link is not None:
                raise ValueError(f"{self.kind} event must not carry a link")
        else:
            if self.link is None or len(self.link) != 2:
                raise ValueError(
                    f"{self.kind} event needs a 2-machine link, got "
                    f"{self.link!r}"
                )
            if self.machine is not None:
                raise ValueError(f"{self.kind} event must not carry a machine")

    @staticmethod
    def crash(time: float, machine: int) -> "FaultEvent":
        return FaultEvent(time=time, kind="crash", machine=machine)

    @staticmethod
    def recover(time: float, machine: int) -> "FaultEvent":
        return FaultEvent(time=time, kind="recover", machine=machine)

    @staticmethod
    def link_down(time: float, a: int, b: int) -> "FaultEvent":
        return FaultEvent(time=time, kind="link_down", link=frozenset((a, b)))

    @staticmethod
    def link_up(time: float, a: int, b: int) -> "FaultEvent":
        return FaultEvent(time=time, kind="link_up", link=frozenset((a, b)))

    @staticmethod
    def flash_crowd(
        time: float, magnitude: float, duration: float
    ) -> "FaultEvent":
        return FaultEvent(
            time=time,
            kind="flash_crowd",
            magnitude=magnitude,
            duration=duration,
        )

    @staticmethod
    def slow_node(
        time: float, machine: int, magnitude: float, duration: float
    ) -> "FaultEvent":
        return FaultEvent(
            time=time,
            kind="slow_node",
            machine=machine,
            magnitude=magnitude,
            duration=duration,
        )


class FaultSchedule:
    """A validated, time-ordered fault timeline."""

    def __init__(self, events: Iterable[FaultEvent]):
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.time)
        self._validate()

    def _validate(self) -> None:
        """Reject timelines that double-crash a machine or recover one
        that is up (same for links) — those hide schedule bugs."""
        down_machines: set = set()
        down_links: set = set()
        crowd_until = -1.0
        slow_until: dict = {}
        for ev in self.events:
            if ev.kind == "flash_crowd":
                if ev.time < crowd_until:
                    raise ValueError(
                        f"flash_crowd at t={ev.time} overlaps an earlier "
                        f"burst ending at t={crowd_until}"
                    )
                crowd_until = ev.time + ev.duration
            elif ev.kind == "slow_node":
                prior = slow_until.get(ev.machine, -1.0)
                if ev.time < prior:
                    raise ValueError(
                        f"slow_node on machine {ev.machine} at t={ev.time} "
                        f"overlaps an earlier episode ending at t={prior}"
                    )
                slow_until[ev.machine] = ev.time + ev.duration
            elif ev.kind == "crash":
                if ev.machine in down_machines:
                    raise ValueError(
                        f"machine {ev.machine} crashed twice without a "
                        f"recover (t={ev.time})"
                    )
                down_machines.add(ev.machine)
            elif ev.kind == "recover":
                if ev.machine not in down_machines:
                    raise ValueError(
                        f"machine {ev.machine} recovered while up "
                        f"(t={ev.time})"
                    )
                down_machines.discard(ev.machine)
            elif ev.kind == "link_down":
                if ev.link in down_links:
                    raise ValueError(
                        f"link {sorted(ev.link)} cut twice without a "
                        f"restore (t={ev.time})"
                    )
                down_links.add(ev.link)
            else:  # link_up
                if ev.link not in down_links:
                    raise ValueError(
                        f"link {sorted(ev.link)} restored while up "
                        f"(t={ev.time})"
                    )
                down_links.discard(ev.link)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def crash_times(self) -> List[Tuple[float, int]]:
        return [
            (e.time, e.machine) for e in self.events if e.kind == "crash"
        ]

    # ------------------------------------------------------------------
    @classmethod
    def single_crash(
        cls, machine: int, crash_at: float, recover_at: Optional[float] = None
    ) -> "FaultSchedule":
        """Crash one machine, optionally recovering it later."""
        events = [FaultEvent.crash(crash_at, machine)]
        if recover_at is not None:
            if recover_at <= crash_at:
                raise ValueError("recovery must come after the crash")
            events.append(FaultEvent.recover(recover_at, machine))
        return cls(events)

    @classmethod
    def random(
        cls,
        machines: Sequence[int],
        horizon_s: float,
        n_crashes: int,
        seed: int,
        min_downtime_s: float = 0.05,
        max_downtime_s: float = 0.2,
        n_link_flaps: int = 0,
    ) -> "FaultSchedule":
        """Draw a crash/recovery timeline from a seeded generator.

        Each crash picks a distinct machine, a crash instant inside the
        horizon, and a downtime in ``[min_downtime_s, max_downtime_s)``;
        recoveries past the horizon are clipped to it.  Link flaps pick
        distinct machine pairs the same way.  Deterministic per seed.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if n_crashes > len(machines):
            raise ValueError(
                f"cannot crash {n_crashes} of {len(machines)} machines"
            )
        if not 0 < min_downtime_s <= max_downtime_s:
            raise ValueError("need 0 < min_downtime_s <= max_downtime_s")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        victims = rng.choice(len(machines), size=n_crashes, replace=False)
        for idx in victims:
            machine = int(machines[int(idx)])
            crash_at = float(rng.uniform(0.0, horizon_s * 0.8))
            downtime = float(rng.uniform(min_downtime_s, max_downtime_s))
            recover_at = min(crash_at + downtime, horizon_s)
            events.append(FaultEvent.crash(crash_at, machine))
            events.append(FaultEvent.recover(recover_at, machine))
        flapped: set = set()
        for _ in range(n_link_flaps):
            for _attempt in range(64):
                a, b = rng.choice(len(machines), size=2, replace=False)
                link = frozenset((int(machines[int(a)]), int(machines[int(b)])))
                if link not in flapped:
                    flapped.add(link)
                    break
            else:  # pragma: no cover - only with tiny machine sets
                break
            down_at = float(rng.uniform(0.0, horizon_s * 0.8))
            downtime = float(rng.uniform(min_downtime_s, max_downtime_s))
            up_at = min(down_at + downtime, horizon_s)
            a_id, b_id = sorted(link)
            events.append(FaultEvent.link_down(down_at, a_id, b_id))
            events.append(FaultEvent.link_up(up_at, a_id, b_id))
        return cls(events)
