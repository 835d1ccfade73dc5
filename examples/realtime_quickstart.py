"""Realtime quickstart: run one Topology on BOTH execution backends.

The same ``repro.dsps.Topology`` object drives two very different
engines:

* the discrete-event simulator (``backend="sim"``) — simulated clocks,
  modeled CPU and network costs, perfectly reproducible;
* the asyncio runtime (``backend="asyncio"``) — real wall-clock pacing,
  real localhost TCP sockets between per-machine worker hosts, Whale's
  relay-tree multicast, receiver-driven credit flow control, and an
  at-least-once acker.

Here a sensor spout broadcasts to every instance of an alert bolt (the
paper's one-to-many pattern).  The terminal bolt counts what it saw into
a plain in-process tally, so after both runs we can check that the two
backends delivered exactly the same work: ``budget x parallelism``
executions each.  The script exits 1 when they disagree.

Run:  python examples/realtime_quickstart.py
      python -m repro.rt run --topology word_count --duration 5
      python -m repro.exp run ablation_sim_vs_real --smoke
"""

from collections import Counter

from repro.dsps import AllGrouping, Bolt, Spout, SystemConfig, Topology
from repro.rt import create_runtime, default_cluster

PARALLELISM = 8  # alert instances receiving every tuple
RATE = 200.0  # offered rate, tuples/s
BUDGET = 100  # tuples emitted per run


class SensorSpout(Spout):
    """A source emitting fixed-size telemetry tuples."""

    payload_bytes = 150

    def __init__(self):
        self.sequence = 0

    def next_tuple(self):
        self.sequence += 1
        return {"seq": self.sequence}, None, self.payload_bytes


class AlertBolt(Bolt):
    """Every instance watches every tuple and tallies what it saw."""

    base_service_s = 5e-6  # only the simulator charges this

    def __init__(self, tally: Counter):
        self.tally = tally

    def execute(self, tup, collector):
        self.tally[tup.values["seq"]] += 1


def build_topology(tally: Counter) -> Topology:
    topo = Topology("realtime-quickstart")
    topo.add_spout("sensors", SensorSpout)
    topo.add_bolt(
        "alerts",
        lambda: AlertBolt(tally),
        parallelism=PARALLELISM,
        inputs={"sensors": AllGrouping()},  # broadcast: one-to-many
        terminal=True,
    )
    return topo


def run_on(backend: str) -> Counter:
    tally: Counter = Counter()
    config = SystemConfig(
        name="realtime-quickstart",
        backend=backend,
        worker_oriented=True,  # Whale: one copy per destination worker,
        multicast="nonblocking",  # relayed down Algorithm 1's tree
        delivery="at_least_once",  # exercise the acker on both engines
        flow=True,  # receiver-driven credits
        credit_window=16,
    )
    runtime = create_runtime(
        build_topology(tally), config, cluster=default_cluster(), seed=7
    )
    report = runtime.run(RATE, budget=BUDGET)
    executions = sum(report.processed.values())
    print(f"[{backend}]")
    print(f"  emitted     {sum(report.emitted.values()):6d} tuples")
    print(f"  executions  {executions:6d} "
          f"(= {BUDGET} tuples x {PARALLELISM} instances)")
    print(f"  window      {report.window_s:6.2f} s")
    if report.credit_stall_s:
        print(f"  stall       {report.credit_stall_s:6.3f} s in credits")
    print()
    return tally


def main() -> int:
    """Run both backends; exit status 1 when their tallies disagree."""
    print(f"broadcasting {BUDGET} tuples at {RATE:.0f}/s "
          f"to {PARALLELISM} alert instances, twice:\n")
    sim = run_on("sim")
    real = run_on("asyncio")
    if sim == real:
        print("both backends delivered the identical tuple multiset — "
              "the simulator predicts the real runtime here.")
        return 0
    missing = sum((sim - real).values()) + sum((real - sim).values())
    print(f"backends disagree on {missing} deliveries — "
          "that would be a bug worth a differential look:")
    print("  python -m repro.exp run ablation_sim_vs_real")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
