"""Hot-key ablation: partitioning strategies under a Zipf key storm.

One keyed topology (Zipf-skewed spout -> counting sink) is run once per
registry strategy under identical seeds.  The arrival process is sized
so the hottest key alone exceeds a single sink task's service capacity:
any strategy that pins a key to one task (fields, consistent hashing)
must drown that task, while key-split fans the storm over a replica set
and the runtime rebalancer migrates routing off the melting executor.

Rows share one seed, so the arrival timeline and key sequence are
bit-identical across strategies — differences in the table are the
partitioning decision and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.bench.report import Table
from repro.core import create_system, whale_full_config
from repro.dsps import Bolt, Spout, Topology
from repro.net import Cluster
from repro.workloads import PoissonArrivals

#: strategies ablated by default; ``fields+rebalance`` is fields-hashing
#: with the runtime rebalancer migrating overloaded partitions.
HOT_KEY_STRATEGIES = (
    "fields",
    "consistent_hash",
    "locality",
    "load_adaptive",
    "key_split",
    "fields+rebalance",
)

#: key-split fan-out: a hot key spreads over this many ring successors.
KEY_SPLIT_REPLICAS = 3


class ZipfKeySpout(Spout):
    """Keyed tuples with a Zipf(s) key-popularity law over ``n_keys``
    distinct keys (rank-1 share ~ 1/H_{n,s} — the hot-key storm)."""

    payload_bytes = 96

    def __init__(self, n_keys: int = 50, s: float = 1.5, seed: int = 0):
        weights = np.arange(1, n_keys + 1, dtype=np.float64) ** -s
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = np.random.default_rng(seed)
        self.n_keys = n_keys

    def next_tuple(self):
        rank = int(np.searchsorted(self._cdf, self._rng.random()))
        return {}, f"k{rank}", self.payload_bytes

    def hottest_share(self) -> float:
        """Traffic share of the rank-0 key."""
        return float(self._cdf[0])


class CountingSink(Bolt):
    """Per-key counting sink.  Counts are *mergeable partial state*, so
    the topology honours key-split's merge contract: per-replica counts
    of one key sum to the key's true total."""

    def __init__(self, service_s: float = 0.5e-3):
        self._service_s = service_s
        self.counts: Dict[Any, int] = {}

    def service_time(self, tup) -> float:
        return self._service_s

    def execute(self, tup, collector) -> None:
        self.counts[tup.key] = self.counts.get(tup.key, 0) + 1


def _hot_key_config(strategy: str):
    """One config per table row; ``fields+rebalance`` turns the runtime
    rebalancer on under plain fields hashing."""
    rebalance = strategy.endswith("+rebalance")
    partitioning = strategy.split("+", 1)[0]
    params: Optional[Dict[str, Any]] = None
    if partitioning == "key_split":
        params = {"replicas": KEY_SPLIT_REPLICAS, "hot_threshold": 0.15}
    return whale_full_config(adaptive=False).with_overrides(
        name=f"whale-hotkey-{strategy}",
        partitioning=partitioning,
        partitioning_params=params,
        rebalance=rebalance,
    )


def hot_key_run(
    strategy: str,
    duration_s: float = 0.8,
    rate: float = 6_000.0,
    parallelism: int = 12,
    n_machines: int = 6,
    n_keys: int = 50,
    zipf_s: float = 1.5,
    service_s: float = 0.5e-3,
    seed: int = 42,
    check: Optional[str] = "strict",
) -> Dict[str, Any]:
    """One measured hot-key-storm run; returns the raw measurements.

    Sizing: a sink task serves ``1/service_s`` tuples/s; the rank-0 key
    carries ``hottest_share * rate``.  The defaults put the hot key at
    ~2600/s against a 2000/s task — single-task strategies must queue.
    """
    topo = Topology("hot-key")
    topo.add_spout("events", lambda: ZipfKeySpout(n_keys, zipf_s, seed))
    topo.add_bolt(
        "counts",
        lambda: CountingSink(service_s),
        parallelism=parallelism,
        # The declared grouping is a placeholder: config.partitioning
        # overrides every non-broadcast edge with the ablated strategy.
        inputs={"events": "fields"},
        terminal=True,
    )
    system = create_system(
        topo,
        _hot_key_config(strategy),
        cluster=Cluster(n_machines, 1, 16),
        arrivals={"events": PoissonArrivals(rate, np.random.default_rng(seed))},
        seed=seed,
    )
    if check:
        system.attach_checker(mode=check)
    system.run_measured(0.1, duration_s)
    report = system.checker.finalize() if system.checker is not None else None

    metrics = system.metrics
    sinks = system.operator_executors("counts")
    processed = [ex.processed for ex in sinks]
    mean_processed = sum(processed) / len(processed)
    latency = metrics.sink_latency_summary("counts")
    rebalancer = system.rebalancer
    return {
        "strategy": strategy,
        "goodput": metrics.throughput("counts"),
        "delivered": metrics.processed["counts"],
        "p50_ms": 1e3 * latency.p50,
        "p99_ms": 1e3 * latency.p99,
        "inqueue_hwm": max(ex.inqueue_hwm for ex in sinks),
        "imbalance": (
            max(processed) / mean_processed if mean_processed > 0 else 0.0
        ),
        "drops": sum(metrics.dropped.values()),
        "migrations": rebalancer.migrations if rebalancer is not None else 0,
        "restores": rebalancer.restores if rebalancer is not None else 0,
        "check_report": report,
        "system": system,
    }


def ablation_hot_key(
    strategies: Optional[Sequence[str]] = None,
    duration_s: float = 0.8,
    rate: float = 6_000.0,
    parallelism: int = 12,
    n_machines: int = 6,
    n_keys: int = 50,
    zipf_s: float = 1.5,
    seed: int = 42,
    check: Optional[str] = "strict",
) -> Table:
    """Partitioning strategies ablated under one seeded Zipf storm."""
    strategies = list(strategies or HOT_KEY_STRATEGIES)
    hot_share = ZipfKeySpout(n_keys, zipf_s, seed).hottest_share()
    table = Table(
        f"Ablation: partitioning under a Zipf({zipf_s:g}) hot-key storm "
        f"(hottest key {100 * hot_share:.0f}% of {rate:.0f} tuples/s, "
        f"k={parallelism}, run {duration_s:g}s, seed {seed})",
        [
            "strategy",
            "goodput tuple/s",
            "latency p50 ms",
            "latency p99 ms",
            "inqueue hwm",
            "imbalance",
            "drops",
            "migrations",
        ],
    )
    for strategy in strategies:
        point = hot_key_run(
            strategy,
            duration_s=duration_s,
            rate=rate,
            parallelism=parallelism,
            n_machines=n_machines,
            n_keys=n_keys,
            zipf_s=zipf_s,
            seed=seed,
            check=check,
        )
        table.add(
            point["strategy"],
            point["goodput"],
            point["p50_ms"],
            point["p99_ms"],
            point["inqueue_hwm"],
            point["imbalance"],
            point["drops"],
            point["migrations"],
        )
    table.note(
        "identical seeded arrivals and key sequence for every row: the "
        "hottest key alone exceeds one sink task's service capacity, so "
        "strategies that pin each key to a single task (fields, "
        "consistent_hash) queue the storm at that task — visible as p99 "
        "latency and inqueue high-water marks one to two orders above "
        "key_split, which fans the hot key over "
        f"{KEY_SPLIT_REPLICAS} ring-successor replicas (merge-contract "
        "counting sink), and load_adaptive, which drains to the "
        "shallower of two hashed probes. fields+rebalance keeps fields "
        "hashing but lets the runtime rebalancer park the melting task "
        "(migrations > 0) — routing-level migration with no tuple loss, "
        "strict-checked by the partition_routing and conservation "
        "invariants."
    )
    return table
