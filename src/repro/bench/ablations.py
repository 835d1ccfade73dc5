"""Ablations of Whale's design choices (beyond the paper's figures).

* :func:`ablation_dstar` — hold the input rate fixed and sweep a *fixed*
  maximum out-degree: too large and the source's queue explodes (the
  Fig. 3 failure), too small and the tree gets needlessly deep.  The
  optimum matches :func:`repro.multicast.model.max_out_degree`, which is
  the justification for deriving d* from the M/D/1 model.
* :func:`ablation_queue_capacity` — sweep the transfer-queue capacity Q:
  larger queues afford larger d* (Eq. 3) at the price of queueing delay.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bench.report import Table
from repro.core import create_system, whale_full_config
from repro.dsps import AllGrouping, Bolt, Spout, Topology
from repro.multicast import max_out_degree
from repro.net import Cluster, CostModel
from repro.workloads import PoissonArrivals

#: Slow serialization (as in fig23_24): the source is the constraint.
_COSTS = CostModel().with_overrides(serialize_per_byte_s=280e-9)
_PER_REPLICA_S = 56e-6  # batch serialize (190 B at 280 ns/B) + READ post


class _Spout(Spout):
    payload_bytes = 150

    def next_tuple(self):
        return {}, None, 150


class _Sink(Bolt):
    base_service_s = 10e-6


def _run_point(
    d_star: int,
    rate: float,
    q_capacity: int,
    adaptive: bool,
    parallelism: int = 32,
    machines: int = 8,
    measure_s: float = 0.6,
    seed: int = 3,
):
    topo = Topology("ablation")
    topo.add_spout("src", _Spout)
    topo.add_bolt(
        "sink", _Sink, parallelism=parallelism, inputs={"src": AllGrouping()},
        terminal=True,
    )
    config = whale_full_config(
        d_star=d_star, adaptive=adaptive, costs=_COSTS
    ).with_overrides(
        transfer_queue_capacity=q_capacity, monitor_interval_s=0.03
    )
    system = create_system(
        topo,
        config,
        cluster=Cluster(machines, 1, 16),
        arrivals={"src": PoissonArrivals(rate, np.random.default_rng(seed))},
    )
    system.run_measured(0.25, measure_s)
    return system


def ablation_dstar(
    d_values: Optional[List[int]] = None, rate: float = 5_000.0, seed: int = 3
) -> Table:
    """Fixed-d* sweep at one input rate."""
    d_values = d_values or [1, 2, 3, 4, 5]
    q = 128
    model_d = max_out_degree(rate, _PER_REPLICA_S, q)
    table = Table(
        f"Ablation: fixed maximum out-degree at {rate:.0f} tuples/s "
        f"(M/D/1 model says d* = {model_d})",
        [
            "d*",
            "throughput (tuples/s)",
            "multicast latency p50 (ms)",
            "queue max / Q",
            "drops",
        ],
    )
    for d in d_values:
        system = _run_point(d, rate, q, adaptive=False, seed=seed)
        m = system.metrics
        src = system.source_executor("src")
        table.add(
            d,
            m.completion.completed / m.window_duration,
            1e3 * m.multicast.summary().p50,
            src.transfer_queue.stats().max_length / q,
            sum(m.dropped.values()),
        )
    table.note(
        "small d* keeps the source fast (stable queue) at the cost of a "
        "deeper tree; past the model's d* the transfer queue saturates "
        "and tuples are lost — deriving d* from the M/D/1 model picks "
        "the knee automatically"
    )
    return table


def ablation_queue_capacity(
    q_values: Optional[List[int]] = None, rate: float = 5_000.0, seed: int = 3
) -> Table:
    """Transfer-queue capacity sweep with the adaptive controller on."""
    q_values = q_values or [1, 4, 64, 1024]
    table = Table(
        f"Ablation: transfer-queue capacity Q at {rate:.0f} tuples/s "
        "(adaptive d*)",
        [
            "Q",
            "model d*",
            "converged d*",
            "throughput (tuples/s)",
            "multicast latency p50 (ms)",
            "drops",
        ],
    )
    for q in q_values:
        system = _run_point(4, rate, q, adaptive=True, seed=seed)
        m = system.metrics
        controller = system.controllers[0]
        table.add(
            q,
            max_out_degree(rate, _PER_REPLICA_S, q),
            controller.d_star,
            m.completion.completed / m.window_duration,
            1e3 * m.multicast.summary().p50,
            sum(m.dropped.values()),
        )
    table.note(
        "Eq. (3): larger Q tolerates utilisation closer to 1 and thus a "
        "larger d*; tiny queues force aggressive scale-down and absorb "
        "bursts poorly"
    )
    return table
