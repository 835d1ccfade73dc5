"""Sim-vs-real differential: does the DES predict the real runtime?

The harness runs one named topology twice — once on the discrete-event
backend, once on the wall-clock asyncio backend — with the *same*
``SystemConfig``, the same seeded deterministic workload (a fixed tuple
budget at a fixed sub-saturation offered rate), and compares:

* **tuple-multiset conservation** — the terminal executed multiset
  ``(operator, repr(values)) -> count`` must be *exactly* equal across
  backends.  The workloads are pure functions of emission order and
  sub-saturation runs drop nothing, so any inequality is a routing,
  delivery, or dedup bug in one of the backends, not noise;
* **goodput agreement** — terminal executions per second over each
  backend's active span.  Both backends are driven at the same offered
  rate well below saturation, so goodput ≈ offered rate in both and the
  ratio should sit near 1.  The ``sim-predicts-real`` claim accepts the
  band ``[0.5, 2.0]``: wide enough for scheduler jitter on a loaded CI
  box, narrow enough to catch a backend that stalls, double-delivers,
  or drops.

Latency is reported for the curves but deliberately *not* gated: the
DES charges modeled service times while the real runtime pays Python's
actual costs, so absolute latencies are incommensurable — rates and
multisets are the fair ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dsps.config import SystemConfig
from repro.rt.runtime import AsyncRuntime, RunReport, SimRuntime, default_cluster
from repro.rt.topologies import Recorder, make_topology

#: accepted real/sim goodput band for the ``sim-predicts-real`` claim.
GOODPUT_RATIO_BAND = (0.5, 2.0)


def differential_config(**overrides) -> SystemConfig:
    """The shared config both backends run under: worker-oriented, which
    rt always is, over Whale's nonblocking relay tree, and at-least-once,
    so the rt acker/dedup path is exercised, not just bypassed."""
    base = SystemConfig(name="sim-vs-real", delivery="at_least_once",
                        worker_oriented=True, multicast="nonblocking")
    return base.with_overrides(**overrides) if overrides else base


@dataclass
class DifferentialResult:
    """One topology's paired backend runs, plus the verdicts."""

    topology: str
    sim: RunReport
    real: RunReport

    @property
    def conserved(self) -> bool:
        """Exact executed-multiset equality across backends."""
        return (
            self.sim.executed is not None
            and self.real.executed is not None
            and self.sim.executed == self.real.executed
        )

    @property
    def goodput_ratio(self) -> float:
        """real / sim goodput (inf when the sim produced nothing)."""
        if self.sim.goodput_tps <= 0:
            return float("inf")
        return self.real.goodput_tps / self.sim.goodput_tps

    def mismatch(self, limit: int = 5) -> List[str]:
        """Human-readable multiset differences (empty when conserved)."""
        if self.sim.executed is None or self.real.executed is None:
            return ["a backend ran without a recorder"]
        out: List[str] = []
        keys = set(self.sim.executed) | set(self.real.executed)
        for key in sorted(keys):
            s = self.sim.executed.get(key, 0)
            r = self.real.executed.get(key, 0)
            if s != r:
                out.append(f"{key}: sim={s} real={r}")
                if len(out) >= limit:
                    out.append("...")
                    break
        return out


def run_differential(
    topology: str = "word_count",
    rate: float = 400.0,
    budget: int = 240,
    parallelism: int = 4,
    seed: int = 42,
    config: Optional[SystemConfig] = None,
    tracer=None,
) -> DifferentialResult:
    """Run one topology on both backends and pair the reports.

    Each backend gets a *fresh* topology instance (operator factories
    hold per-run state) and a fresh :class:`Recorder`; the config object
    is shared apart from its ``backend`` tag, which is what makes the
    comparison an apples-to-apples one.
    """
    base = config if config is not None else differential_config()

    sim_recorder = Recorder()
    sim_runtime = SimRuntime(
        make_topology(topology, parallelism, sim_recorder),
        base.with_overrides(backend="sim"),
        cluster=default_cluster(),
        seed=seed,
        tracer=tracer,
        recorder=sim_recorder,
    )
    sim_report = sim_runtime.run(rate, budget=budget)

    real_recorder = Recorder()
    real_runtime = AsyncRuntime(
        make_topology(topology, parallelism, real_recorder),
        base.with_overrides(backend="asyncio"),
        cluster=default_cluster(),
        seed=seed,
        tracer=tracer,
        recorder=real_recorder,
    )
    real_report = real_runtime.run(rate, budget=budget)

    return DifferentialResult(
        topology=topology, sim=sim_report, real=real_report
    )
