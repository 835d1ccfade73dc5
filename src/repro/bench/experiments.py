"""One function per table/figure of the paper's evaluation.

Each returns one or more :class:`~repro.bench.report.Table`\\ s whose rows
mirror what the paper plots.  ``python -m repro.exp run fig13_14``
runs one through the cached, parallel suite (see
:mod:`repro.exp.registry`) and ``python -m repro.exp verify`` judges its
shape (see :mod:`repro.exp.claims`).

Scales: the cluster is the paper's (30 machines x 16 cores) for the
parallelism sweeps; rates are the maximum sustainable rates of *our*
cost model, so absolute tuples/s differ from the paper while ratios and
shapes are comparable (see EXPERIMENTS.md).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.bench.report import Series, Table
from repro.bench.runner import AppRun, run_app
from repro.core import (
    create_system,
    whale_diffverbs_config,
    whale_full_config,
    whale_woc_config,
    whale_woc_rdma_config,
)
from repro.dsps import rdma_storm_config, storm_config
from repro.dsps.presets import rdmc_config
from repro.net import Cluster, CostModel, CpuAccount, Fabric, RdmaTransport, Verb
from repro.net.cpu import OTHER
from repro.sim import Simulator, each, every
from repro.workloads import (
    DriverLocationGenerator,
    DynamicRateArrivals,
    PoissonArrivals,
    RateStep,
    StockOrderGenerator,
    didi_stats,
    nasdaq_stats,
)

PARALLELISMS = [120, 240, 360, 480]
PARALLELISMS_SMALL = [120, 240, 480]

ALL_VARIANTS = [
    storm_config,
    rdma_storm_config,
    whale_woc_config,
    whale_woc_rdma_config,
    whale_full_config,
]


def _ms(seconds: float) -> float:
    return seconds * 1e3


# ----------------------------------------------------------------------
# Fig. 2 — the motivating bottleneck (Storm, one-to-many, TCP)
# ----------------------------------------------------------------------
def fig02_storm_bottleneck(
    parallelisms: Optional[List[int]] = None, seed: int = 42
) -> Table:
    parallelisms = parallelisms or [30, 120, 240, 480]
    table = Table(
        "Fig 2: Storm one-to-many bottleneck (ride-hailing)",
        [
            "parallelism",
            "throughput (tuples/s)",
            "latency p50 (ms)",
            "src CPU util",
            "downstream CPU util",
            "src serialization share",
            "src network share",
        ],
    )
    for p in parallelisms:
        run = run_app("ridehailing", storm_config(), p, seed=seed)
        table.add(
            p,
            run.throughput,
            _ms(run.processing_latency.p50),
            run.source_util,
            run.downstream_util_mean,
            run.source_breakdown.get("serialization", 0.0),
            run.source_breakdown.get("network", 0.0),
        )
    table.note(
        "paper Fig 2: throughput falls ~10x from parallelism 30 to 480; "
        "upstream CPU saturates while downstream stays idle; "
        "serialization + packet processing dominate upstream CPU time"
    )
    return table


# ----------------------------------------------------------------------
# Fig. 3 — RDMC blocks under rising input rates
# ----------------------------------------------------------------------
def fig03_rdmc_blocking(
    rates: Optional[List[float]] = None, parallelism: int = 480, seed: int = 17
) -> Table:
    """480 matching instances on RDMC's static binomial tree; sweep the
    input rate.  As in the paper's examination, the downstream instances
    have ample compute (cheap sinks) — the block is purely the source's
    transfer queue (its out-degree is fixed at ceil(log2(n+1)) = 9)."""
    from repro.dsps import AllGrouping, Bolt, Spout, Topology

    class RequestSpout(Spout):
        payload_bytes = 150

        def next_tuple(self):
            return {}, None, 150

    class LightMatching(Bolt):
        base_service_s = 20e-6  # "sufficient computing resources"

    # The RDMC source's capacity here is ~1/(9 * ~10us) ~= 11k tuples/s.
    rates = rates or [2_000, 6_000, 10_000, 12_000, 14_000]
    table = Table(
        "Fig 3: RDMC under rising input rates (480 instances, binomial tree)",
        [
            "input rate (tuples/s)",
            "throughput (tuples/s)",
            "multicast latency p50 (ms)",
            "queue load factor",
            "input loss (drops)",
        ],
    )
    config = rdmc_config().with_overrides(transfer_queue_capacity=64)
    for rate in rates:
        topo = Topology("rdmc-exam")
        topo.add_spout("src", RequestSpout)
        topo.add_bolt(
            "matching",
            LightMatching,
            parallelism=parallelism,
            inputs={"src": AllGrouping()},
            terminal=True,
        )
        rng = np.random.default_rng(seed)
        system = create_system(
            topo,
            config,
            cluster=Cluster(30, 1, 16),
            arrivals={"src": PoissonArrivals(rate, rng)},
        )
        # 0.08 s of warmup is long enough for Q=64 to block
        m = system.run_measured(0.08, 0.12)
        src = system.source_executor("src")
        # Throughput = tuples processed per unit time (drain rate at the
        # matching instances), the paper's definition.
        table.add(
            rate,
            m.processed["matching"] / parallelism / m.window_duration,
            _ms(m.multicast.summary().p50),
            src.transfer_queue.stats().max_length
            / config.transfer_queue_capacity,
            sum(m.dropped.values()),
        )
    table.note(
        "paper Fig 3: throughput stops increasing past ~12k tuples/s and "
        "declines by ~14k; the transfer queue blocks (load factor -> 1) "
        "and latency blows up although downstream compute is sufficient"
    )
    return table


# ----------------------------------------------------------------------
# Figs. 11/12 — MMS / WTL sweeps
# ----------------------------------------------------------------------
def fig11_mms(mms_values: Optional[List[int]] = None, seed: int = 42) -> Table:
    mms_values = mms_values or [512, 4096, 32768, 262144, 1048576]
    table = Table(
        "Fig 11: system performance with different MMS (Whale-WOC-RDMA)",
        ["MMS (bytes)", "throughput (tuples/s)", "latency p50 (ms)"],
    )
    for mms in mms_values:
        costs = CostModel().with_overrides(mms_bytes=mms)
        run = run_app(
            "ridehailing",
            whale_woc_rdma_config(costs),
            240,
            overdrive=0.7,
            tuple_budget=400,
            seed=seed,
        )
        table.add(mms, run.throughput, _ms(run.processing_latency.p50))
    table.note(
        "paper Fig 11: throughput grows gradually with MMS; latency rises, "
        "sharply past 256 KB (the paper's chosen operating point)"
    )
    return table


def fig12_wtl(
    wtl_values_ms: Optional[List[float]] = None, seed: int = 42
) -> Table:
    wtl_values_ms = wtl_values_ms or [1, 5, 10, 20, 30]
    table = Table(
        "Fig 12: system performance with different WTL (Whale-WOC-RDMA)",
        ["WTL (ms)", "throughput (tuples/s)", "latency p50 (ms)"],
    )
    for wtl in wtl_values_ms:
        costs = CostModel().with_overrides(wtl_s=wtl * 1e-3)
        run = run_app(
            "ridehailing",
            whale_woc_rdma_config(costs),
            240,
            overdrive=0.7,
            tuple_budget=400,
            seed=seed,
        )
        table.add(wtl, run.throughput, _ms(run.processing_latency.p50))
    table.note(
        "paper Fig 12: latency increases significantly with WTL while "
        "throughput barely moves; the paper picks WTL = 1 ms"
    )
    return table


# ----------------------------------------------------------------------
# Figs. 13-16 — end-to-end throughput / latency vs parallelism
# ----------------------------------------------------------------------
def _endtoend(
    app: str, parallelisms: List[int], seed: int = 42
) -> Dict[str, List[AppRun]]:
    results: Dict[str, List[AppRun]] = {}
    for make in ALL_VARIANTS:
        config = make()
        results[config.name] = [
            run_app(app, config, p, tuple_budget=400, seed=seed)
            for p in parallelisms
        ]
    return results


def _endtoend_tables(
    app: str,
    fig_thru: str,
    fig_lat: str,
    parallelisms: Optional[List[int]] = None,
    seed: int = 42,
):
    parallelisms = parallelisms or PARALLELISMS_SMALL
    results = _endtoend(app, parallelisms, seed=seed)
    thru = Table(
        f"{fig_thru}: throughput vs parallelism ({app})",
        ["parallelism"] + list(results),
    )
    lat = Table(
        f"{fig_lat}: processing latency p50 (ms) vs parallelism ({app})",
        ["parallelism"] + list(results),
    )
    for i, p in enumerate(parallelisms):
        thru.add(p, *[results[v][i].throughput for v in results])
        lat.add(p, *[_ms(results[v][i].processing_latency.p50) for v in results])
    last = {v: results[v][-1] for v in results}
    p_max = parallelisms[-1]
    speedup_storm = last["whale"].throughput / max(1e-9, last["storm"].throughput)
    speedup_rdma = last["whale"].throughput / max(
        1e-9, last["rdma-storm"].throughput
    )
    thru.note(
        f"at parallelism {p_max}: whale/storm = {speedup_storm:.1f}x "
        f"(paper: {56.6 if app == 'ridehailing' else 51.2}x), "
        f"whale/rdma-storm = {speedup_rdma:.1f}x (paper: "
        f"{15 if app == 'ridehailing' else 16}x)"
    )
    lat_red_storm = 1 - last["whale"].processing_latency.p50 / max(
        1e-12, last["storm"].processing_latency.p50
    )
    lat.note(
        f"at parallelism {p_max}: whale cuts storm's latency by "
        f"{100 * lat_red_storm:.1f}% (paper: "
        f"{96.6 if app == 'ridehailing' else 96.5}%)"
    )
    return thru, lat


def fig13_14_ridehailing(
    parallelisms: Optional[List[int]] = None, seed: int = 42
):
    return _endtoend_tables(
        "ridehailing", "Fig 13", "Fig 14", parallelisms, seed=seed
    )


def fig15_16_stocks(parallelisms: Optional[List[int]] = None, seed: int = 42):
    return _endtoend_tables("stocks", "Fig 15", "Fig 16", parallelisms, seed=seed)


# ----------------------------------------------------------------------
# Figs. 17-22 — multicast structures on Whale-WOC-RDMA
# ----------------------------------------------------------------------
def _structure_configs(costs: CostModel) -> Dict[str, object]:
    return {
        "sequential": whale_woc_rdma_config(costs).with_overrides(
            name="whale-sequential"
        ),
        "binomial": whale_woc_rdma_config(costs).with_overrides(
            name="whale-binomial", multicast="binomial"
        ),
        "nonblocking": whale_woc_rdma_config(costs).with_overrides(
            name="whale-nonblocking", multicast="nonblocking", d_star=3
        ),
    }


def _structure_tables(
    app: str,
    fig_thru: str,
    fig_lat: str,
    fig_mcast: str,
    parallelisms: Optional[List[int]] = None,
    seed: int = 42,
):
    parallelisms = parallelisms or PARALLELISMS_SMALL
    # The structure comparison is meaningful in the source-bound regime
    # (the paper's testbed: the broadcast source is the constraint).  Our
    # default costs leave the worker-level source underloaded, so this
    # experiment scales the serialization cost up (equivalent to larger
    # tuples) to land the source in the paper's relative regime.
    costs = CostModel().with_overrides(serialize_per_byte_s=200e-9)
    configs = _structure_configs(costs)
    results = {
        name: [
            run_app(app, cfg, p, tuple_budget=400, seed=seed)
            for p in parallelisms
        ]
        for name, cfg in configs.items()
    }
    thru = Table(
        f"{fig_thru}: throughput vs parallelism, multicast structures ({app})",
        ["parallelism"] + list(results),
    )
    lat = Table(
        f"{fig_lat}: processing latency p50 (ms), multicast structures ({app})",
        ["parallelism"] + list(results),
    )
    mcast = Table(
        f"{fig_mcast}: average multicast latency (ms), d*=3, common input rate ({app})",
        ["parallelism"] + list(results),
    )
    for i, p in enumerate(parallelisms):
        thru.add(p, *[results[s][i].throughput for s in results])
        lat.add(p, *[_ms(results[s][i].processing_latency.p50) for s in results])
        # Multicast latency: structures fed a common target rate (80% of
        # the non-blocking source's capacity), capped at 85% of each
        # structure's own capacity so the weaker ones produce finite
        # (large) latencies instead of pure loss.
        from repro.analytic import SystemShape, source_capacity

        shape = SystemShape(parallelism=p, n_machines=30, payload_bytes=150)
        # Slicing off for this measurement: per-hop WTL batching delay
        # would otherwise mask the queueing effect the paper measures.
        mcast_configs = {
            s: cfg.with_overrides(slicing=False) for s, cfg in configs.items()
        }
        common = 0.8 * source_capacity(mcast_configs["nonblocking"], shape)
        mcast_runs = {
            s: run_app(
                app,
                mcast_configs[s],
                p,
                offered_rate=min(
                    common, 0.97 * source_capacity(mcast_configs[s], shape)
                ),
                tuple_budget=300,
                seed=seed,
            )
            for s in mcast_configs
        }
        mcast.add(p, *[_ms(mcast_runs[s].multicast_latency.mean) for s in configs])
    nb, bino, seq = (
        results["nonblocking"][-1],
        results["binomial"][-1],
        results["sequential"][-1],
    )
    thru.note(
        f"at parallelism {parallelisms[-1]}: nonblocking/binomial = "
        f"{nb.throughput / max(1e-9, bino.throughput):.2f}x (paper ~1.2x), "
        f"nonblocking/sequential = "
        f"{nb.throughput / max(1e-9, seq.throughput):.2f}x (paper ~1.4x)"
    )
    mcast.note(
        "paper Figs 21/22: the non-blocking tree's average multicast "
        "latency is ~50-58% below binomial/sequential at parallelism 480"
    )
    return thru, lat, mcast


def fig17_18_21_structures_ridehailing(parallelisms=None, seed: int = 42):
    return _structure_tables(
        "ridehailing", "Fig 17", "Fig 18", "Fig 21", parallelisms, seed=seed
    )


def fig19_20_22_structures_stocks(parallelisms=None, seed: int = 42):
    return _structure_tables(
        "stocks", "Fig 19", "Fig 20", "Fig 22", parallelisms, seed=seed
    )


# ----------------------------------------------------------------------
# Figs. 23/24 — highly dynamic streams (rate steps + dynamic switching)
# ----------------------------------------------------------------------
def fig23_24_dynamic(
    parallelism: int = 32,
    n_machines: int = 8,
    step_duration_s: float = 1.0,
    sample_s: float = 0.1,
    seed: int = 7,
):
    """Step the input rate (scaled analogue of the paper's 30k -> 60k ->
    80k -> 100k -> 80k tuples/s) through Whale's adaptive non-blocking
    structure vs a static sequential multicast; sample throughput and
    latency over time.

    Serialization is slowed (as if tuples were larger) so the *source* is
    the binding constraint, exactly the regime of the paper's Fig. 23/24:
    each rate step crosses a d* threshold and forces a dynamic switch.
    """
    from repro.dsps import AllGrouping, Bolt, Spout, Topology

    class RequestSpout(Spout):
        payload_bytes = 150

        def next_tuple(self):
            return {}, None, 150

    class LightMatching(Bolt):
        base_service_s = 20e-6

    costs = CostModel().with_overrides(serialize_per_byte_s=280e-9)
    # mu(d0) ~= 1/(d0 * 48us): 3k/s is comfortable at d0=4; 10k/s needs d0<=2.
    fractions = [3_000, 6_000, 8_000, 10_000, 8_000]
    steps = [
        RateStep(i * step_duration_s, f) for i, f in enumerate(fractions)
    ]
    total_s = step_duration_s * len(fractions)

    tables = []
    for label, config in [
        (
            "whale-nonblocking-adaptive",
            whale_full_config(d_star=4, costs=costs),
        ),
        ("sequential-static", whale_woc_rdma_config(costs)),
    ]:
        topo = Topology("dynamic")
        topo.add_spout("requests", RequestSpout)
        topo.add_bolt(
            "matching",
            LightMatching,
            parallelism=parallelism,
            inputs={"requests": AllGrouping()},
            terminal=True,
        )
        rng = np.random.default_rng(seed)
        system = create_system(
            topo,
            config.with_overrides(monitor_interval_s=0.05),
            cluster=Cluster(n_machines, 1, 16),
            arrivals={"requests": DynamicRateArrivals(steps, rng)},
        )
        thru_series = Series(f"throughput[{label}]")
        lat_series = Series(f"latency_ms[{label}]")

        #: completions and latency samples seen at the previous sample
        prev = [0, 0]

        def sample(ts=thru_series, ls=lat_series, s=system, prev=prev):
            done = s.metrics.completion.completed
            ts.add(s.sim.now, (done - prev[0]) / sample_s)
            lats = s.metrics.completion.latencies[prev[1]:]
            ls.add(
                s.sim.now, _ms(float(np.median(lats))) if lats else float("nan")
            )
            prev[:] = [done, len(s.metrics.completion.latencies)]

        system.start()
        every(system.sim, sample_s, sample)
        system.run_measured(0.0, total_s)

        table = Table(
            f"Fig 23/24: dynamic stream, {label}",
            ["time (s)", "input rate (tuples/s)", "throughput (tuples/s)", "latency p50 (ms)"],
        )
        rate_fn = DynamicRateArrivals(steps, np.random.default_rng(0)).rate_at
        for x, y, lat in zip(thru_series.x, thru_series.y, lat_series.y):
            table.add(x, rate_fn(x - 1e-9), y, lat)
        if system.controllers:
            switches = system.controllers[0].history
            table.note(
                f"dynamic switches: {[(round(r.time, 2), r.direction, r.old_d_star, r.new_d_star) for r in switches]}"
            )
            if switches:
                table.note(
                    f"max switching delay: {1e3 * max(r.duration_s for r in switches):.1f} ms "
                    "(paper: throughput recovers within ~126 ms; latency within ~30 ms)"
                )
        tables.append(table)
    return tuple(tables)


# ----------------------------------------------------------------------
# Figs. 25/26 — communication time and serialization share
# ----------------------------------------------------------------------
def fig25_26_comm_time(
    parallelisms: Optional[List[int]] = None, seed: int = 42
):
    parallelisms = parallelisms or [120, 480]
    configs = [storm_config(), rdma_storm_config(), whale_woc_rdma_config()]
    comm = Table(
        "Fig 25: communication time per tuple (us)",
        ["parallelism"] + [c.name for c in configs],
    )
    share = Table(
        "Fig 26: serialization time — share of communication CPU and "
        "absolute us/tuple",
        ["parallelism"]
        + [f"{c.name} share" for c in configs]
        + [f"{c.name} us" for c in configs],
    )
    for p in parallelisms:
        runs = [
            run_app("ridehailing", c, p, tuple_budget=300, seed=seed)
            for c in configs
        ]
        comm.add(
            p,
            *[
                1e6 * r.comm_cpu_s / max(1, r.broadcast_tuples) for r in runs
            ],
        )
        share.add(
            p,
            *[r.serialization_share for r in runs],
            *[
                1e6 * r.serialization_cpu_s / max(1, r.broadcast_tuples)
                for r in runs
            ],
        )
    comm.note(
        "paper Fig 25: Whale cuts communication time ~96% vs Storm and "
        "~92% vs RDMA-based Storm at parallelism 480"
    )
    share.note(
        "paper Fig 26: serialization is ~45% of Storm's, ~94% of "
        "RDMA-Storm's, ~15% of Whale's communication time; 49.5 ms/tuple "
        "in Storm vs <1 ms in Whale at parallelism 480.  Our communication "
        "time is CPU-only (no transmission wall time), so Whale's tiny "
        "residual CPU is almost pure serialization — the absolute us/tuple "
        "columns carry the paper's comparison."
    )
    return comm, share


# ----------------------------------------------------------------------
# Figs. 27/28 — communication traffic
# ----------------------------------------------------------------------
def fig27_28_traffic(parallelisms: Optional[List[int]] = None, seed: int = 42):
    parallelisms = parallelisms or PARALLELISMS_SMALL
    configs = [storm_config(), rdma_storm_config(), whale_full_config()]
    tables = []
    for app, fig in [("ridehailing", "Fig 27"), ("stocks", "Fig 28")]:
        table = Table(
            f"{fig}: traffic per 10k tuples (MB), {app}",
            ["parallelism"] + [c.name for c in configs],
        )
        for p in parallelisms:
            # Sub-saturation (no transfer-queue loss): per-tuple traffic
            # is rate-independent and drops would distort normalization.
            runs = [
                run_app(app, c, p, tuple_budget=300, overdrive=0.85, seed=seed)
                for c in configs
            ]
            table.add(p, *[r.traffic_per_10k_tuples / 1e6 for r in runs])
        table.note(
            "paper: Whale reduces traffic by ~91.9% (ride-hailing) / ~90% "
            "(stocks) at parallelism 480; baselines grow linearly with "
            "parallelism while Whale only adds 4-byte ids"
        )
        tables.append(table)
    return tuple(tables)


# ----------------------------------------------------------------------
# Figs. 29/30 — RDMA verb microbenchmark
# ----------------------------------------------------------------------
def fig29_30_verbs(
    n_messages: int = 20_000, payload_bytes: int = 256
) -> Table:
    table = Table(
        "Fig 29/30: one-sided vs two-sided RDMA operations",
        ["verb", "throughput (msgs/s)", "mean latency (us)"],
    )
    def run_phase(verb: Verb, count: int, pace_s: float):
        """One microbench phase; returns (elapsed_s, latencies)."""
        sim = Simulator()
        cluster = Cluster(2, 1, 16)
        costs = CostModel()
        link = costs.link("rdma")
        fabric = Fabric(
            sim, cluster, link.bandwidth_bps, link.latency_s, name=link.name
        )
        transport = RdmaTransport(sim, fabric, costs, data_verb=verb)
        cpu = CpuAccount(sim, "sender")
        recv_cpu = CpuAccount(sim, "receiver")
        latencies: List[float] = []
        send_times: Dict[int, float] = {}
        inbox: deque = deque()
        finished_at = [0.0]

        def send(i: int, then) -> None:
            send_times[i] = sim.now

            def sent() -> None:
                if pace_s > 0:
                    sim.schedule_call(pace_s, then)
                else:
                    then()

            transport.send(0, 1, i, payload_bytes, cpu, then=sent)

        def receive(msg) -> None:
            """The receiver thread: FIFO, one receive CPU wait each."""
            inbox.append(msg)
            if len(inbox) == 1:
                serve()

        def serve() -> None:
            msg = inbox[0]

            def received() -> None:
                inbox.popleft()
                latencies.append(sim.now - send_times[msg.payload])
                finished_at[0] = sim.now
                if inbox:
                    serve()

            recv_cpu.spend(msg.recv_cpu_s, OTHER, received)

        fabric.bind(1, receive)
        each(range(count), send, lambda: None)
        sim.run()
        return finished_at[0], latencies

    for verb in (Verb.SEND, Verb.WRITE, Verb.READ):
        # Throughput: saturated open-loop stream.
        elapsed, _ = run_phase(verb, n_messages, pace_s=0.0)
        # Latency: paced well below saturation (no queueing pollution).
        _, latencies = run_phase(verb, 2_000, pace_s=10e-6)
        table.add(
            verb.value,
            n_messages / elapsed,
            1e6 * float(np.mean(latencies)),
        )
    table.note(
        "paper Figs 29/30: one-sided verbs beat two-sided send/recv; READ "
        "achieves the best throughput and lowest latency in Whale's ring "
        "pipeline (reads are address-prefetched and pipelined)"
    )
    return table


# ----------------------------------------------------------------------
# Figs. 31/32 — Whale_DiffVerbs vs RDMA-based Storm
# ----------------------------------------------------------------------
def fig31_32_diffverbs(
    parallelisms: Optional[List[int]] = None, seed: int = 42
):
    parallelisms = parallelisms or [240, 480]
    configs = [
        rdma_storm_config(),
        whale_diffverbs_config().with_overrides(data_verb=Verb.SEND, name="whale-send-verbs", slicing=False),
        whale_diffverbs_config(),
    ]
    thru = Table(
        "Fig 31: throughput, verb-optimization ablation (tuples/s)",
        ["parallelism"] + [c.name for c in configs],
    )
    lat = Table(
        "Fig 32: processing latency p50 (ms), verb-optimization ablation",
        ["parallelism"] + [c.name for c in configs],
    )
    for p in parallelisms:
        runs = [
            run_app("ridehailing", c, p, tuple_budget=300, seed=seed)
            for c in configs
        ]
        thru.add(p, *[r.throughput for r in runs])
        lat.add(p, *[_ms(r.processing_latency.p50) for r in runs])
    thru.note(
        "paper Figs 31/32: with suitable verbs per message class "
        "(Whale_DiffVerbs), Whale achieves ~15.6x the throughput and ~96% "
        "lower latency than RDMA-based Storm"
    )
    return thru, lat


# ----------------------------------------------------------------------
# Figs. 33/34 — physical rack topology
# ----------------------------------------------------------------------
def fig33_34_racks(
    rack_counts: Optional[List[int]] = None,
    parallelism: int = 240,
    seed: int = 42,
):
    rack_counts = rack_counts or [1, 2, 3, 4, 5]
    configs = [storm_config(), rdma_storm_config(), whale_full_config()]
    thru = Table(
        "Fig 33: throughput vs racks (tuples/s)",
        ["racks"] + [c.name for c in configs],
    )
    lat = Table(
        "Fig 34: processing latency p50 (ms) vs racks",
        ["racks"] + [c.name for c in configs],
    )
    for racks in rack_counts:
        runs = [
            run_app(
                "ridehailing",
                c,
                parallelism,
                n_racks=racks,
                tuple_budget=300,
                seed=seed,
            )
            for c in configs
        ]
        thru.add(racks, *[r.throughput for r in runs])
        lat.add(racks, *[_ms(r.processing_latency.p50) for r in runs])
    thru.note("paper Fig 33: Whale's throughput is stable from 1 to 5 racks")
    lat.note("paper Fig 34: Whale's latency changes only very slightly")
    return thru, lat


# ----------------------------------------------------------------------
# Table 2 — dataset statistics
# ----------------------------------------------------------------------
def table2_datasets(sample: int = 30_000, seed: int = 0) -> Table:
    table = Table(
        "Table 2: statistics of the datasets (paper vs synthetic generators)",
        ["dataset", "# tuples (paper)", "# keys (paper)", "generator keys (sampled)"],
    )
    rng = np.random.default_rng(seed)
    didi = didi_stats()
    drivers = DriverLocationGenerator(rng, n_drivers=60_000)
    seen_drivers = {drivers.next_record()["driver_id"] for _ in range(sample)}
    table.add(didi.name, didi.n_tuples, didi.n_keys, len(seen_drivers))
    nasdaq = nasdaq_stats()
    stocks = StockOrderGenerator(rng)
    seen_symbols = {stocks.next_record()["symbol"] for _ in range(sample)}
    table.add(nasdaq.name, nasdaq.n_tuples, nasdaq.n_keys, len(seen_symbols))
    table.note(
        "generators match the key-cardinality shape at laptop scale: the "
        "driver population is scaled 100x down (60k), the NASDAQ symbol "
        "universe (6,649) is matched exactly"
    )
    return table
