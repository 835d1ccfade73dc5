"""The four pinned benchmark workloads.

Each workload is built only from public entry points of ``repro``
(``create_system`` + ``Simulator.run`` for the DES, ``AsyncRuntime``
for the asyncio backend, ``Topology``/``Spout``/``Bolt``,
``FaultSchedule``/``FaultEvent``).  The benchmark defines its own
topologies and draws every input from the seed it is given.

A workload is constructed with ``(seed, inject_fault)`` and has three
entry points, each called inside a fresh child process by ``run.py``:

* ``setup(ready)`` builds the system up to the point where it could take
  its first tuple, calls ``ready()``, and tears down;
* ``measure(scale, ready)`` runs the measured pass (calling ``ready()``
  once its first system is ready) and returns a :class:`Measured`;
* ``unit(scale)`` runs one pinned unit of work, which the traced pass
  runs plain and under ``cProfile``, and returns its :class:`Outcome`.

``scale`` is the run length in seconds (``--seconds``).  Every workload
turns it into a fixed amount of work, so the work done depends only on
the arguments, never on how fast the machine is.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import create_system, whale_full_config
from repro.dsps import AllGrouping, Bolt, FieldsGrouping, Spout, Topology
from repro.faults import FaultEvent, FaultSchedule
from repro.net.cluster import Cluster
from repro.rt import AsyncRuntime

# ----------------------------------------------------------------------
# pinned parameters
# ----------------------------------------------------------------------
#: des_fanout: the fig03 shape under the full Whale config.
FANOUT_PARALLELISM = 480
FANOUT_RATE = 8000.0
FANOUT_SLICE_S = 0.01  # simulated seconds per timed slice
FANOUT_SLICES_PER_SECOND = 5.0  # slices per --seconds
FANOUT_UNIT_S = 0.1  # simulated seconds in the traced unit

#: des_reliable_overload: ride-hailing shape under exactly-once + flow.
RH_PARALLELISM = 48
RH_RATE = 200.0
RH_DRIVERS = 60_000
RH_HORIZON_S = 4.0
RH_DRAIN_S = 2.0
RH_REPEATS_PER_SECOND = 0.3
#: the fault timeline is part of the workload, not of its inputs: its
#: seed is pinned so every --seed faces the same crashes.
RH_FAULT_SEED = 1234
RH_CRASHES = 3
RH_BURST_S = 0.3
RH_BURST_PERIOD_S = 1.0
RH_FIRST_BURST_S = 0.5

#: rt workloads: 8 worker hosts; a light rung (about a quarter of
#: capacity) for latency and an overload rung for throughput.
RT_HOSTS = 8
RT_RUNS_PER_RUNG = 3
RT_LIGHT_S_PER_SECOND = 0.2  # light-rung run length per --seconds
RT_OVERLOAD_S_PER_SECOND = 0.1  # overload-rung run length per --seconds
#: acker timeout above any rung's length: the acker tracks every tree,
#: but overload measures the dataplane, not a timing-driven replay storm.
RT_ACK_TIMEOUT_S = 60.0
RT_DRAIN_TIMEOUT_S = 60.0
RT_FANOUT_TASKS = 16
RT_WC_TASKS = 8
RT_WC_VOCABULARY = 1000
RT_WC_ZIPF_S = 1.1
RT_WC_WORDS = 6
RT_WC_SENTENCES = 1024

#: the self-test's injected fault: terminal bolts skip these sequence
#: numbers, so the affected roots never complete.
FAULT_MODULUS = 97


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What some work did: roots attempted and not completed, failed
    correctness checks (readable messages), and counts read afterwards."""

    attempted: int
    failed: int
    problems: List[str]
    counts: Dict[str, float]


@dataclass
class Measured:
    """The measured pass of one workload."""

    tuples_per_s: float
    #: latency samples in milliseconds (simulated time for the DES, wall
    #: time for rt), pooled over the runs
    latencies_ms: List[float]
    outcome: Outcome


class PoissonGaps:
    """Seeded exponential inter-arrival gaps, drawn in blocks (an
    ``ArrivalFn``: ``gap(now) -> seconds until the next tuple``)."""

    def __init__(self, rate: float, rng: np.random.Generator, block: int = 4096):
        self._scale = 1.0 / rate
        self._rng = rng
        self._block = block
        self._gaps: List[float] = []
        self._i = 0

    def __call__(self, now: float) -> float:
        if self._i == len(self._gaps):
            self._gaps = self._rng.exponential(self._scale, self._block).tolist()
            self._i = 0
        gap = self._gaps[self._i]
        self._i += 1
        return gap


# ----------------------------------------------------------------------
# DES workloads
# ----------------------------------------------------------------------
def _bolt_executions(system) -> int:
    system.metrics.flush()
    return sum(
        ex.processed
        for op in system.topology.bolts()
        for ex in system.operator_executors(op.name)
    )


def des_counts(system) -> Dict[str, float]:
    """Counts read from public objects after a DES run: the roots the
    completion tracker saw plus the per-layer counts."""
    metrics = system.metrics
    reliability = system.reliability
    return {
        "roots": metrics.completion.registered,
        "completed": metrics.completion.completed,
        "drops": sum(metrics.dropped.values()),
        "abandoned": metrics.messages_abandoned,
        "dsps.executions": _bolt_executions(system),
        "net.messages": system.fabric.messages_injected,
        "net.data_bytes": system.traffic_bytes("data"),
        "net.control_bytes": system.traffic_bytes("control"),
        "dsps.reliability.replays": reliability.replays if reliability else 0,
        "dsps.reliability.duplicates_suppressed": (
            reliability.duplicates_suppressed if reliability else 0
        ),
        "dsps.flow.credit_stall_s": sum(metrics.credit_stall_s.values()),
        "dsps.flow.shed": metrics.messages_shed,
        "dsps.flow.deferred": metrics.messages_deferred,
    }


class DesWorkload:
    """Shared surface of the DES workloads (no fault injection: the
    injected fault lives in the rt topologies)."""

    name = "des"

    def __init__(self, seed: int, inject_fault: bool = False):
        if inject_fault:
            raise ValueError(f"fault injection targets the rt workloads, not {self.name}")
        self.seed = seed

    def outcome(self, system) -> Outcome:
        counts = des_counts(system)
        roots = counts["roots"]
        problems = self.problems(system, counts)
        if roots == 0:
            problems.append(f"{self.name} emitted nothing")
        return Outcome(roots, roots - counts["completed"], problems, counts)

    def problems(self, system, counts: Dict[str, float]) -> List[str]:
        raise NotImplementedError


class RequestSpout(Spout):
    """150-byte requests (the fig03 source)."""

    payload_bytes = 150

    def next_tuple(self):
        return {}, None, 150


class LightMatching(Bolt):
    """A matching instance with ample compute (20 us per tuple)."""

    base_service_s = 20e-6


def build_fanout(seed: int, parallelism: int = FANOUT_PARALLELISM, tracer=None,
                 **overrides):
    """The des_fanout system (built, not started)."""
    topo = Topology("perf-des-fanout")
    topo.add_spout("src", RequestSpout)
    topo.add_bolt("matching", LightMatching, parallelism=parallelism,
                  inputs={"src": AllGrouping()}, terminal=True)
    return create_system(
        topo,
        whale_full_config(**overrides),
        cluster=Cluster(30, 1, 16),
        arrivals={"src": PoissonGaps(FANOUT_RATE, np.random.default_rng(seed))},
        seed=seed,
        tracer=tracer,
    )


class DesFanout(DesWorkload):
    """One 150 B spout -> 480 bolts (20 us) over all-grouping, full Whale
    on Cluster(30, 1, 16), Poisson arrivals at 8000 tuples/s."""

    name = "des_fanout"

    def start(self):
        system = build_fanout(self.seed)
        system.start()
        system.metrics.open_window()
        return system

    def drain(self, system) -> None:
        for spout in system.spout_executors:
            spout.stop()
        sim = system.sim
        deadline = sim.now + 0.05
        while system.metrics.completion.outstanding and sim.now < deadline:
            sim.run(until=min(deadline, sim.now + 0.002))
            system.metrics.flush()

    def problems(self, system, counts) -> List[str]:
        """No drops, and at least 99% of the emitted tuples complete."""
        problems = []
        if counts["drops"]:
            problems.append(f"des_fanout dropped {counts['drops']} tuples")
        if counts["completed"] < 0.99 * counts["roots"]:
            problems.append(
                f"des_fanout completed {counts['completed']}/{counts['roots']} (< 99%)"
            )
        return problems

    def setup(self, ready) -> None:
        self.start()
        ready()

    def measure(self, scale: float, ready) -> Measured:
        """Simulated executions per wall second: the median over timed
        slices of 0.01 simulated seconds."""
        system = self.start()
        ready()
        sim = system.sim
        rates = []
        done = 0
        for _ in range(max(1, round(scale * FANOUT_SLICES_PER_SECOND))):
            t0 = time.perf_counter()
            sim.run(until=sim.now + FANOUT_SLICE_S)
            executions = _bolt_executions(system)
            rates.append((executions - done) / (time.perf_counter() - t0))
            done = executions
        self.drain(system)
        return Measured(
            tuples_per_s=float(np.median(rates)),
            latencies_ms=[1e3 * x for x in system.metrics.completion.latencies],
            outcome=self.outcome(system),
        )

    def unit(self, scale: float) -> Outcome:
        system = self.start()
        system.sim.run(until=FANOUT_UNIT_S)
        self.drain(system)
        return self.outcome(system)


class DriverSpout(Spout):
    """Driver location updates keyed by driver id."""

    payload_bytes = 64

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def next_tuple(self):
        rng = self._rng
        driver = rng.randrange(RH_DRIVERS)
        return {"driver_id": driver, "lat": rng.random(), "lon": rng.random()}, driver, 64


class PassengerSpout(Spout):
    """Passenger requests, broadcast to every matching instance."""

    payload_bytes = 150

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._next_id = 0

    def next_tuple(self):
        self._next_id += 1
        rng = self._rng
        return {"request_id": self._next_id, "lat": rng.random(), "lon": rng.random()}, None, 150


class MatchingBolt(Bolt):
    """Stores nothing, charges the ride-hailing join cost, and answers a
    request with a sampled local candidate (about three per request
    cluster-wide)."""

    def __init__(self, seed: int):
        self._seed = seed
        self._request_s = 150e-6 + 0.4e-6 * RH_DRIVERS / RH_PARALLELISM

    def prepare(self, ctx) -> None:
        self._rng = random.Random(self._seed * 10_000 + ctx.task_id)
        self._p_candidate = 3.0 / ctx.parallelism

    def service_time(self, tup) -> float:
        return 2e-6 if "driver_id" in tup.values else self._request_s

    def execute(self, tup, collector) -> None:
        values = tup.values
        if "driver_id" not in values and self._rng.random() < self._p_candidate:
            collector.emit(
                "matching",
                {"request_id": values["request_id"], "distance": self._rng.random()},
                key=values["request_id"],
                payload_bytes=48,
                anchor=tup,
            )


class AggregateBolt(Bolt):
    """Keeps the best candidate per request."""

    base_service_s = 5e-6

    def __init__(self) -> None:
        self.best: Dict[int, float] = {}

    def execute(self, tup, collector) -> None:
        request, distance = tup.values["request_id"], tup.values["distance"]
        if distance < self.best.get(request, 1.0):
            self.best[request] = distance


def overload_config():
    """Full Whale, exactly-once, with the overload-protection layer and
    fast fault turnaround."""
    return whale_full_config(adaptive=False).with_overrides(
        name="perf-reliable-overload",
        delivery="exactly_once",
        failure_detection=True,
        ack_timeout_s=0.15,
        ack_sweep_interval_s=0.02,
        max_replays=8,
        epoch_interval_s=0.1,
        flow=True,
        shed_policy="drop_head",
        credit_window=32,
        max_spout_pending=64,
        replay_rate_per_s=400.0,
        replay_burst=16,
    )


class DesReliableOverload(DesWorkload):
    """Ride-hailing with k=48 on Cluster(8, 1, 16), exactly-once + flow,
    200 requests/s, under a pinned fault timeline; each repeat is one
    4 s timeline plus up to 2 s of drain."""

    name = "des_reliable_overload"

    def build(self, seed: int, horizon_s: float):
        rng = np.random.default_rng(seed)
        topo = Topology("perf-ride-hailing")
        topo.add_spout("driver_locations", lambda: DriverSpout(seed * 10 + 1))
        topo.add_spout("requests", lambda: PassengerSpout(seed * 10 + 2))
        topo.add_bolt(
            "matching",
            lambda: MatchingBolt(seed),
            parallelism=RH_PARALLELISM,
            inputs={"driver_locations": FieldsGrouping(), "requests": AllGrouping()},
        )
        topo.add_bolt("aggregate", AggregateBolt, parallelism=4,
                      inputs={"matching": FieldsGrouping()}, terminal=True)
        system = create_system(
            topo,
            overload_config(),
            cluster=Cluster(8, 1, 16),
            arrivals={
                "requests": PoissonGaps(RH_RATE, rng),
                "driver_locations": PoissonGaps(RH_RATE, rng),
            },
            seed=seed,
        )
        system.add_fault_schedule(self.schedule(system, horizon_s))
        return system

    @staticmethod
    def schedule(system, horizon_s: float) -> FaultSchedule:
        """3 crashes (acker home and sources protected) plus an 8x flash
        crowd and a 3x slow node for 0.3 s every 1 s."""
        protected = {system.reliability.home_machine}
        protected |= {service.src_machine for service in system.multicast_services}
        eligible = sorted(set(system.workers) - protected)
        crashes = FaultSchedule.random(
            eligible,
            horizon_s=horizon_s,
            n_crashes=RH_CRASHES,
            seed=RH_FAULT_SEED,
            min_downtime_s=0.1,
            max_downtime_s=0.25,
        )
        events = list(crashes.events)
        at, burst = RH_FIRST_BURST_S, 0
        while at + RH_BURST_S <= horizon_s:
            events.append(FaultEvent.flash_crowd(at, 8.0, RH_BURST_S))
            victim = eligible[burst % len(eligible)]
            events.append(FaultEvent.slow_node(at, victim, 3.0, RH_BURST_S))
            at += RH_BURST_PERIOD_S
            burst += 1
        return FaultSchedule(events)

    def repeat(self, index: int, scale: float, ready=None):
        """One full timeline plus drain; returns (system, timed wall s).
        Repeat ``index`` draws its inputs from its own sub-seed."""
        gc.collect()
        horizon_s = min(RH_HORIZON_S, scale)  # shorter only at smoke size
        system = self.build(self.seed * 1000 + index, horizon_s)
        system.start()
        system.metrics.open_window()
        if ready is not None:
            ready()
        sim = system.sim
        reliability = system.reliability
        t0 = time.perf_counter()
        sim.run(until=horizon_s)
        for spout in system.spout_executors:
            spout.stop()
        deadline = horizon_s + RH_DRAIN_S
        while (reliability.outstanding or reliability.held_entries) and sim.now < deadline:
            sim.run(until=min(deadline, sim.now + 0.05))
        wall = time.perf_counter() - t0
        system.metrics.close_window()
        return system, wall

    def problems(self, system, counts) -> List[str]:
        """No duplicate executions, nothing outstanding after the drain."""
        reliability = system.reliability
        problems = []
        if reliability.duplicate_executions:
            problems.append(
                f"des_reliable_overload: {reliability.duplicate_executions} "
                "duplicate executions under exactly_once"
            )
        if reliability.outstanding or reliability.held_entries:
            problems.append(
                f"des_reliable_overload: {reliability.outstanding} trees still "
                "outstanding after the drain"
            )
        return problems

    def setup(self, ready) -> None:
        self.build(self.seed * 1000, RH_HORIZON_S).start()
        ready()

    def measure(self, scale: float, ready) -> Measured:
        """Executions per wall second of each repeat, median over
        repeats."""
        rates, latencies, outcomes = [], [], []
        for index in range(max(1, round(scale * RH_REPEATS_PER_SECOND))):
            system, wall = self.repeat(index, scale, ready if index == 0 else None)
            outcome = self.outcome(system)
            rates.append(outcome.counts["dsps.executions"] / wall)
            latencies.extend(1e3 * x for x in system.metrics.completion.latencies)
            outcomes.append(outcome)
        counts: Counter = Counter()
        for outcome in outcomes:
            counts.update(outcome.counts)
        return Measured(
            tuples_per_s=float(np.median(rates)),
            latencies_ms=latencies,
            outcome=Outcome(
                attempted=sum(o.attempted for o in outcomes),
                failed=sum(o.failed for o in outcomes),
                problems=[p for o in outcomes for p in o.problems],
                counts=dict(counts),
            ),
        )

    def unit(self, scale: float) -> Outcome:
        system, _wall = self.repeat(0, scale)
        return self.outcome(system)


# ----------------------------------------------------------------------
# rt workloads (asyncio backend)
# ----------------------------------------------------------------------
class Recorder:
    """Per-root terminal executions, stamped on the monotonic clock."""

    def __init__(self, skip_modulus: Optional[int] = None):
        self.executions: Counter = Counter()
        self.last_at: Dict[int, float] = {}
        self.words: Counter = Counter()
        self.skip_modulus = skip_modulus

    def record(self, seq: int) -> bool:
        """Count one terminal execution of root ``seq``; False when the
        injected fault swallows it."""
        if self.skip_modulus and seq % self.skip_modulus == 0:
            return False
        self.executions[seq] += 1
        self.last_at[seq] = time.monotonic()
        return True


class PacedSpout(Spout):
    """Emits ``values(i)`` for i = 0, 1, ...; stamps each emission."""

    def __init__(self, values: Callable[[int], dict], payload_bytes: int):
        self._values = values
        self.payload_bytes = payload_bytes
        self.emitted_at: List[float] = []

    def next_tuple(self):
        seq = len(self.emitted_at)
        self.emitted_at.append(time.monotonic())
        return self._values(seq), None, self.payload_bytes


class TickBolt(Bolt):
    """Terminal consumer of the one-to-many tick stream."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def execute(self, tup, collector) -> None:
        self.recorder.record(tup.values["seq"])


class SplitBolt(Bolt):
    """Splits a sentence into keyed words that carry their root's seq."""

    def execute(self, tup, collector) -> None:
        seq = tup.values["seq"]
        for word in tup.values["text"].split():
            collector.emit("words", {"word": word, "seq": seq}, key=word,
                           payload_bytes=32, anchor=tup)


class CountBolt(Bolt):
    """Terminal word counter."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def execute(self, tup, collector) -> None:
        if self.recorder.record(tup.values["seq"]):
            self.recorder.words[tup.values["word"]] += 1


def zipf_corpus(seed: int) -> List[str]:
    """Sentences of 6 words from a seeded Zipf(1.1) vocabulary."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocabulary = [
        "".join(rng.choice(letters, size=int(rng.integers(3, 9)))) + str(rank)
        for rank in range(RT_WC_VOCABULARY)
    ]
    weights = 1.0 / np.arange(1, RT_WC_VOCABULARY + 1) ** RT_WC_ZIPF_S
    picks = rng.choice(
        RT_WC_VOCABULARY,
        size=(RT_WC_SENTENCES, RT_WC_WORDS),
        p=weights / weights.sum(),
    )
    return [" ".join(vocabulary[i] for i in row) for row in picks]


@dataclass
class RtRun:
    """One paced rt run, as the benchmark observed it from outside."""

    rate: float
    emitted_at: List[float]
    recorder: Recorder
    expected_per_root: int
    #: the per-layer counts of the run
    counts: Dict[str, float]

    def due(self, seq: int) -> float:
        """When root ``seq`` was due: rung start + seq / rate."""
        return self.emitted_at[0] + seq / self.rate

    def latencies_ms(self) -> List[float]:
        """Due time to the root's last terminal execution."""
        last = self.recorder.last_at
        return [1e3 * (last[seq] - self.due(seq))
                for seq in range(len(self.emitted_at)) if seq in last]

    def lateness_ms(self) -> List[float]:
        """How late the generator emitted each root."""
        return [1e3 * (t - self.due(seq)) for seq, t in enumerate(self.emitted_at)]

    def terminal_per_s(self) -> float:
        span = max(self.recorder.last_at.values()) - self.emitted_at[0]
        return sum(self.recorder.executions.values()) / span

    def failed(self) -> int:
        executed = self.recorder.executions
        return sum(1 for seq in range(len(self.emitted_at))
                   if executed[seq] != self.expected_per_root)


class RtWorkload:
    """A paced topology on the asyncio backend."""

    name = "rt"
    light_rate = 0.0
    overload_rate = 0.0
    expected_per_root = 1

    def __init__(self, seed: int, inject_fault: bool = False):
        self.seed = seed
        self.skip_modulus = FAULT_MODULUS if inject_fault else None

    def topology(self, recorder: Recorder, spouts: List[PacedSpout]) -> Topology:
        raise NotImplementedError

    def config(self):
        raise NotImplementedError

    def problems(self, run: RtRun) -> List[str]:
        """Exact executed-multiset checks for one run."""
        problems = []
        n = len(run.emitted_at)
        wrong = run.failed()
        if wrong:
            problems.append(
                f"{self.name}: {wrong}/{n} roots without exactly "
                f"{self.expected_per_root} terminal executions"
            )
        unknown = set(run.recorder.executions) - set(range(n))
        if unknown:
            problems.append(f"{self.name}: executions of unknown roots {sorted(unknown)[:5]}")
        if run.counts["rt.replays"] or run.counts["abandoned"]:
            problems.append(f"{self.name}: {run.counts['rt.replays']} replays, "
                            f"{run.counts['abandoned']} abandoned")
        return problems

    def runtime(self, recorder: Recorder, spouts: List[PacedSpout]) -> AsyncRuntime:
        return AsyncRuntime(
            self.topology(recorder, spouts),
            self.config(),
            cluster=Cluster(RT_HOSTS, 1, 16),
            seed=self.seed,
        )

    async def run_once(self, rate: float, duration_s: float, ready=None) -> RtRun:
        """Set up, drive one paced rung, drain, and tear down (the phases
        of ``AsyncRuntime.run``, opened up to time them)."""
        gc.collect()  # no run pays for the garbage of the one before
        recorder = Recorder(self.skip_modulus)
        spouts: List[PacedSpout] = []
        runtime = self.runtime(recorder, spouts)
        await runtime.setup()
        try:
            if ready is not None:
                ready()
            runtime.clock.start()
            runtime.metrics.open_window()
            await runtime.drive(rate, duration_s=duration_s)
            t_drain = time.monotonic()
            await runtime.drain()
            drain_s = time.monotonic() - t_drain
            runtime.metrics.close_window()
            hosts = runtime.hosts.values()
            counts = {
                "dsps.executions": sum(ex.processed for ex in runtime.executors.values()
                                       if not ex.is_spout),
                "rt.frames_sent": sum(c.frames_sent for h in hosts for c in h.peers.values()),
                "rt.replays": sum(h.acker.replays for h in hosts if h.acker is not None),
                "rt.credit_stall_s": sum(runtime.metrics.credit_stall_s.values()),
                "rt.drain_s": drain_s,
                "abandoned": runtime.metrics.messages_abandoned,
            }
        finally:
            await runtime.shutdown()
        return RtRun(rate, spouts[0].emitted_at, recorder, self.expected_per_root, counts)

    def outcome(self, runs: List[RtRun]) -> Outcome:
        return Outcome(
            attempted=sum(len(r.emitted_at) for r in runs),
            failed=sum(r.failed() for r in runs),
            problems=[p for r in runs for p in self.problems(r)],
            counts={},
        )

    def setup(self, ready) -> None:
        async def _setup() -> None:
            runtime = self.runtime(Recorder(), [])
            await runtime.setup()
            ready()
            await runtime.shutdown()

        asyncio.run(_setup())

    def measure(self, scale: float, ready) -> Measured:
        """Overload rung: terminal executions per wall second, median of
        the runs.  Light rung: latencies pooled over the runs."""
        light_s = scale * RT_LIGHT_S_PER_SECOND
        overload_s = scale * RT_OVERLOAD_S_PER_SECOND
        runs_per_rung = min(RT_RUNS_PER_RUNG, max(1, int(scale)))

        async def _measure():
            # A short overload run warms the process up untimed; then each
            # light run follows an overload run, so all start alike.
            await self.run_once(self.overload_rate, overload_s / 2, ready)
            light, overload = [], []
            for _ in range(runs_per_rung):
                overload.append(await self.run_once(self.overload_rate, overload_s))
                light.append(await self.run_once(self.light_rate, light_s))
            return light, overload

        light, overload = asyncio.run(_measure())
        outcome = self.outcome(light + overload)
        outcome.counts = {
            "gen_late_p99_ms": float(np.percentile(
                [x for r in light for x in r.lateness_ms()], 99)),
            "overload_drain_s": float(np.median([r.counts["rt.drain_s"] for r in overload])),
        }
        return Measured(
            tuples_per_s=float(np.median([r.terminal_per_s() for r in overload])),
            latencies_ms=[x for r in light for x in r.latencies_ms()],
            outcome=outcome,
        )

    def unit(self, scale: float) -> Outcome:
        """One light-rung run."""
        run = asyncio.run(self.run_once(self.light_rate, scale * RT_LIGHT_S_PER_SECOND))
        outcome = self.outcome([run])
        outcome.counts = dict(run.counts)
        outcome.counts["rt.gen_late_p99_ms"] = float(np.percentile(run.lateness_ms(), 99))
        return outcome


class RtFanout(RtWorkload):
    """One 64 B tick spout feeding 16 terminal tasks over all-grouping,
    at-least-once (acker plus dedup), flow off."""

    name = "rt_fanout"
    light_rate = 500.0
    overload_rate = 4000.0
    expected_per_root = RT_FANOUT_TASKS

    def topology(self, recorder, spouts):
        def spout():
            spouts.append(PacedSpout(lambda seq: {"seq": seq}, 64))
            return spouts[-1]

        topo = Topology("perf-rt-fanout")
        topo.add_spout("ticks", spout)
        topo.add_bolt("match", lambda: TickBolt(recorder), parallelism=RT_FANOUT_TASKS,
                      inputs={"ticks": AllGrouping()}, terminal=True)
        return topo

    def config(self):
        return whale_full_config(adaptive=False).with_overrides(
            name="perf-rt-fanout",
            backend="asyncio",
            delivery="at_least_once",
            flow=False,
            ack_timeout_s=RT_ACK_TIMEOUT_S,
            rt_drain_timeout_s=RT_DRAIN_TIMEOUT_S,
        )


class RtWordCount(RtWorkload):
    """split (shuffle, 8) -> count (fields, 8) over a seeded Zipf corpus,
    at-most-once with credits on."""

    name = "rt_wordcount"
    light_rate = 600.0
    overload_rate = 8000.0
    expected_per_root = RT_WC_WORDS

    def __init__(self, seed: int, inject_fault: bool = False):
        super().__init__(seed, inject_fault)
        self.corpus = zipf_corpus(seed)

    def topology(self, recorder, spouts):
        corpus = self.corpus

        def spout():
            spouts.append(PacedSpout(
                lambda seq: {"seq": seq, "text": corpus[seq % len(corpus)]}, 128))
            return spouts[-1]

        topo = Topology("perf-rt-wordcount")
        topo.add_spout("sentences", spout)
        topo.add_bolt("split", SplitBolt, parallelism=RT_WC_TASKS,
                      inputs={"sentences": "shuffle"})
        topo.add_bolt("count", lambda: CountBolt(recorder), parallelism=RT_WC_TASKS,
                      inputs={"split": FieldsGrouping()}, terminal=True)
        return topo

    def config(self):
        return whale_full_config(adaptive=False).with_overrides(
            name="perf-rt-wordcount",
            backend="asyncio",
            delivery="at_most_once",
            flow=True,
            rt_drain_timeout_s=RT_DRAIN_TIMEOUT_S,
        )

    def problems(self, run: RtRun) -> List[str]:
        """Also: word counts equal those of the generated corpus."""
        problems = super().problems(run)
        expected: Counter = Counter()
        for seq in range(len(run.emitted_at)):
            expected.update(self.corpus[seq % len(self.corpus)].split())
        counted = run.recorder.words
        if counted != expected:
            wrong = len((expected - counted) + (counted - expected))
            problems.append(f"rt_wordcount: word counts differ from the corpus on {wrong} words")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (DesFanout, DesReliableOverload, RtFanout, RtWordCount)
}
