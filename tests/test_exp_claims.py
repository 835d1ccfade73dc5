"""Tests for the paper-claims verifier over synthetic store contents."""

import pytest

from repro.bench.report import Table
from repro.exp.claims import CLAIMS, evaluate_claims, load_tables
from repro.exp.registry import REGISTRY
from repro.exp.store import ResultStore

VERSION = "claims-test-v"


def _is_smoke(name, tables):
    """Whether synthetic tables are the smoke or the full sweep.

    Single-point experiments are stored as their smoke point; a sweep
    is smoke-sized when its tables have one row per smoke point.
    """
    spec = REGISTRY[name]
    points = spec.points(smoke=True, version=VERSION)
    return spec.sweep_param is None or len(tables[0].rows) == len(points)


def _put(store, name, tables):
    """Store synthetic records for one experiment.

    Single-point experiments get the whole tables in one record;
    multi-point sweeps get one table row per point (what the real
    decomposition produces), with notes on the last point.  The sweep
    size follows :func:`_is_smoke`.
    """
    spec = REGISTRY[name]
    points = spec.points(smoke=_is_smoke(name, tables), version=VERSION)
    if len(points) == 1:
        store.put(points[0], {"tables": [t.to_dict() for t in tables]})
        return
    for table in tables:
        assert len(table.rows) == len(points), (name, table.title)
    for i, point in enumerate(points):
        parts = []
        for table in tables:
            part = Table(table.title, list(table.headers))
            part.add(*table.rows[i])
            if i == len(points) - 1:
                part.notes = list(table.notes)
            parts.append(part)
        store.put(point, {"tables": [t.to_dict() for t in parts]})


def _endtoend_tables(storm, rdma, whale):
    table = Table("Throughput", ["parallelism", "storm", "rdma-storm", "whale"])
    table.add(120, storm, rdma, whale)
    latency = Table("Latency", ["parallelism", "storm", "rdma-storm", "whale"])
    latency.add(120, 50.0, 20.0, 5.0)
    return (table, latency)


def _headline_tables(whale_480=4_260.0):
    """Full-size Figs. 13-16: parallelism 120, 240, 480."""
    headers = ["parallelism", "storm", "rdma-storm", "whale"]
    thru = Table("Throughput", headers)
    thru.add(120, 325.0, 900.0, 2_550.0)
    thru.add(240, 160.0, 450.0, 3_460.0)
    thru.add(480, 76.0, 222.0, whale_480)
    latency = Table("Latency", headers)
    latency.add(120, 52.0, 20.0, 18.0)
    latency.add(240, 195.0, 39.0, 13.0)
    latency.add(480, 244.0, 149.0, 14.7)
    return (thru, latency)


def _fig02_tables(collapse=6.5, shares=(0.29, 0.71)):
    table = Table(
        "Storm bottleneck",
        ["parallelism", "throughput", "latency", "src util", "down util",
         "src serialization share", "src network share"],
    )
    table.add(30, 10_000.0, 1.0, 0.40, 0.60, *shares)
    table.add(480, 10_000.0 / collapse, 9.0, 0.97, 0.12, *shares)
    return (table,)


def _fig03_tables(full=False, low_thru=2_090.0, blocked=True):
    table = Table(
        "RDMC under rising input rates",
        ["input rate", "throughput", "latency", "queue load", "drops"],
    )
    table.add(2_000, low_thru, 0.16, 0.03, 0)
    table.add(6_000, 6_160.0, 0.37, 0.06, 0)
    if full:
        table.add(10_000, 8_390.0, 62.0, 0.23, 0)
        table.add(12_000, 8_400.0, 104.0, 0.91, 0)
        if blocked:
            table.add(14_000, 8_400.0, 110.0, 1.0, 256)
        else:
            table.add(14_000, 13_900.0, 1.2, 0.1, 0)
    return (table,)


def _fig11_tables(small_mms_latency=1.29):
    table = Table("MMS sweep", ["MMS", "throughput", "latency"])
    table.add(512, 2_772.0, small_mms_latency)
    table.add(262_144, 2_758.0, 1.65)
    return (table,)


def _fig12_tables(long_wtl_latency=27.4):
    table = Table("WTL sweep", ["WTL", "throughput", "latency"])
    table.add(1, 2_758.0, 1.65)
    table.add(30, 2_303.0, long_wtl_latency)
    return (table,)


def _fig25_26_tables(full=False, storm_share=0.29, whale_480=253.0):
    comm = Table(
        "Communication time",
        ["parallelism", "storm", "rdma-storm", "whale-woc-rdma"],
    )
    share = Table(
        "Serialization time",
        ["parallelism", "storm share", "rdma-storm share",
         "whale-woc-rdma share", "storm us", "rdma-storm us",
         "whale-woc-rdma us"],
    )
    comm.add(120, 3_000.0, 1_064.0, 228.0)
    share.add(120, storm_share, 0.81, 0.99, 879.0, 866.0, 226.0)
    if full:
        comm.add(480, 11_291.0, 3_735.0, whale_480)
        share.add(480, storm_share, 0.81, 0.99, 3_305.0, 3_041.0, 251.0)
    return (comm, share)


def _fig27_28_tables(whale_wins=True, rdma_tracks_storm=True):
    out = []
    for title in ("Traffic (ride-hailing)", "Traffic (stocks)"):
        table = Table(title, ["parallelism", "storm", "rdma-storm", "whale"])
        whale_mb = 10.0 if whale_wins else 500.0
        rdma_mb = 380.0 if rdma_tracks_storm else 200.0
        table.add(120, 400.0, rdma_mb, whale_mb)
        out.append(table)
    return tuple(out)


def _fig27_28_full_tables(storm_grows=True):
    out = []
    for title in ("Traffic (ride-hailing)", "Traffic (stocks)"):
        table = Table(title, ["parallelism", "storm", "rdma-storm", "whale"])
        for p, storm, whale in ((120, 205.0, 59.0), (240, 416.0, 64.0),
                                (480, 845.0, 73.0)):
            storm = storm if storm_grows else 205.0
            table.add(p, storm, 0.97 * storm, whale)
        out.append(table)
    return tuple(out)


def _fig23_24_tables(adaptive_wins=True, switched=True, tracks_peak=True):
    headers = ["time", "input rate", "throughput", "latency p50 (ms)"]
    whale = Table("Whale adaptive", headers)
    sequential = Table("Static sequential", headers)
    for i in range(1, 51):
        t = i / 10
        rate = (3_000 if t <= 1.0 else 6_000 if t <= 2.0 else
                8_000 if t <= 3.0 else 10_000 if t <= 4.0 else 8_000)
        whale_thru = 0.98 * (rate if tracks_peak else min(rate, 8_000))
        whale.add(t, rate, whale_thru, 2.0 if adaptive_wins else 300.0)
        sequential.add(t, rate, min(rate, 2_500), 10.0 + 40.0 * t)
    if switched:
        whale.note("scale_up at t=1; scale_down at t=3")
    return (whale, sequential)


def _structure_tables(ordered=True, full=False, mcast_cut=True,
                      beats_sequential=True, beats_binomial=True):
    headers = ["parallelism", "sequential", "binomial", "nonblocking"]
    thru = Table("Throughput", headers)
    lat = Table("End-to-end latency", headers)
    mcast = Table("Multicast latency", headers)
    sizes = (120, 240, 480) if full else (120,)
    for p in sizes:
        seq = 1_500.0 if beats_sequential else 2_500.0
        nonb = 2_600.0 if p < 480 or not beats_binomial else 3_000.0
        thru.add(p, seq, 2_500.0, nonb)
        lat.add(p, 40.0, 20.0, 10.0)
        if not ordered:
            mcast.add(p, 0.4, 1.5, 5.0)
        else:
            mcast.add(p, 5.0, 1.5, 0.4 if mcast_cut else 1.2)
    return (thru, lat, mcast)


def _verbs_tables(read_wins=True):
    table = Table("Verbs", ["verb", "throughput", "latency"])
    table.add("send", 588_000.0, 4.9)
    table.add("write", 833_000.0 if read_wins else 1_100_000.0, 4.0)
    table.add("read", 1_000_000.0, 3.5)
    return (table,)


def _diffverbs_tables(diffverbs=3_640.0):
    headers = ["parallelism", "rdma-storm", "whale-send-verbs",
               "whale-diffverbs"]
    thru = Table("Throughput", headers)
    thru.add(240, 446.0, 3_190.0, diffverbs)
    lat = Table("Latency", headers)
    lat.add(240, 41.6, 10.3, 10.0)
    return (thru, lat)


def _racks_tables(stable=True):
    headers = ["racks", "storm", "rdma-storm", "whale"]
    thru = Table("Throughput vs racks", headers)
    lat = Table("Latency vs racks", headers)
    for racks in (1, 3):
        whale = 3_460.0 if stable or racks == 1 else 2_000.0
        thru.add(racks, 159.0, 446.0, whale)
        lat.add(racks, 187.0, 41.6, 13.3)
    return (thru, lat)


def _table2_tables(nasdaq_keys=2_841):
    table = Table(
        "Table 2",
        ["dataset", "# tuples (paper)", "# keys (paper)", "generator keys"],
    )
    table.add("Didi Orders", 13_000_000_000, 6_000_000, 23_629)
    table.add("Nasdaq Stock", 274_000_000, 6_649, nasdaq_keys)
    return (table,)


def _dstar_tables(knee=True):
    table = Table(
        "Ablation: fixed out-degree (M/D/1 model says d* = 3)",
        ["d*", "throughput", "latency", "queue max / Q", "drops"],
    )
    table.add(1, 5_060.0, 6.7, 0.05, 0)
    table.add(2, 5_098.0, 1.8, 0.08, 0)
    table.add(3, 5_098.0, 2.2, 0.20, 0)
    above = (4_138.0, 30.5, 1.0, 451) if knee else (5_098.0, 2.3, 0.25, 0)
    table.add(4, *above)
    table.add(5, *above)
    return (table,)


def _queue_tables(monotone=True):
    table = Table(
        "Ablation: queue capacity",
        ["Q", "model d*", "converged d*", "throughput", "latency", "drops"],
    )
    table.add(1, 2, 1, 4_633.0, 6.4, 256)
    table.add(4, 3, 2, 4_940.0, 1.8, 95)
    table.add(64, 3, 3, 5_098.0, 2.2, 0)
    table.add(1024, 3, 3 if monotone else 2, 4_522.0, 70.5, 0)
    return (table,)


def _loss_tables(whale_loses_less=True):
    table = Table(
        "Ablation: message loss",
        ["loss", "storm frac", "whale frac", "storm lost", "whale lost"],
    )
    table.add(0.0, 1.0, 1.0, 0, 0)
    table.add(0.01, 0.78, 0.79, 81, 31 if whale_loses_less else 120)
    return (table,)


def _rack_uplinks_tables(full=False, stable=True, headroom=True):
    table = Table(
        "Ablation: oversubscribed racks",
        ["racks", "storm thru", "rdma-storm thru", "whale thru",
         "storm uplink", "rdma-storm uplink", "whale uplink"],
    )
    table.add(1, 159.0, 446.0, 3_460.0, 0.0, 0.0, 0.0)
    if full:
        storm_util = 0.05 if headroom else 0.9
        whale = 3_460.0 if stable else 2_000.0
        table.add(3, 159.0, 446.0, whale, storm_util, 0.003, 0.004)
        table.add(5, 159.0, 446.0, whale, 0.04, 0.002, 0.003)
    return (table,)


def _node_failure_tables(goodput_kept=True):
    table = Table(
        "Ablation: interior-relay crash",
        ["scenario", "goodput", "recovery s", "completed", "replays",
         "replayed roots", "gave up", "repairs", "reattaches", "msgs dead"],
    )
    table.add("no fault", 367.0, float("nan"), 367, 0, 0, 0, 0, 0, 0)
    crashed_goodput = 361.0 if goodput_kept else 300.0
    table.add("crash+recover", crashed_goodput, 0.48, 361, 141, 98, 0, 1, 1, 27)
    return (table,)


def _delivery_tables(zero_dups=True, bounded=True):
    table = Table(
        "Ablation: delivery semantics",
        [
            "delivery", "goodput tuple/s", "p50 latency ms", "recovery ms",
            "replays", "dup execs", "dups suppressed", "abandoned",
            "commits", "aborts", "ctl KB",
        ],
    )
    eo_goodput = 200.0 if bounded else 40.0
    eo_dups = 0 if zero_dups else 17
    table.add("at_most_once", 80.0, 3.5, float("nan"), 0, 0, 0, 0, 0, 0, 45.0)
    table.add("at_least_once", 210.0, 170.0, 900.0, 140, 2800, 0, 0, 0, 0, 380.0)
    table.add("exactly_once", eo_goodput, 170.0, 890.0, 130, eo_dups, 300, 0, 0, 0, 240.0)
    table.add("atomic", 60.0, 120.0, 870.0, 10, 0, 260, 0, 170, 0, 270.0)
    return (table,)


def _overload_tables(bounded=True, recovered=True, idle_modes=(),
                     tamed=True):
    table = Table(
        "Ablation: overload protection",
        [
            "delivery", "flow", "goodput tuple/s", "delivered",
            "inqueue hwm", "credit window", "shed", "deferred", "stall s",
            "replays", "abandoned",
        ],
    )
    on_hwm = 32 if bounded else 900
    on_good = 300.0 if recovered else 10.0
    on_replays = 40 if tamed else 900
    for mode, off_good, off_hwm in (
        ("at_most_once", 150.0, 260),
        ("at_least_once", 700.0, 1700),
        ("exactly_once", 700.0, 570),
    ):
        # modes in idle_modes show no shed/defer/stall pushback
        shed, stall = (0, 0.0) if mode in idle_modes else (4, 0.5)
        table.add(mode, "off", off_good, 120, off_hwm, 0, 0, 0, 0.0, 800, 0)
        table.add(mode, "on", on_good, 240, on_hwm, 32, shed, shed, stall,
                  on_replays, 0)
    return (table,)


def _hot_key_tables(tail_cut=True, goodput_kept=True, migrated=True,
                    rebalance_row=True):
    table = Table(
        "Ablation: hot-key partitioning",
        [
            "strategy", "goodput tuple/s", "latency p50 ms",
            "latency p99 ms", "inqueue hwm", "imbalance", "drops",
            "migrations",
        ],
    )
    split_p99 = 4.0 if tail_cut else 90.0
    split_good = 5_900.0 if goodput_kept else 3_000.0
    reb_migrations = 2 if migrated else 0
    table.add("fields", 5_200.0, 1.7, 100.0, 285, 4.6, 0, 0)
    table.add("key_split", split_good, 1.5, split_p99, 15, 3.1, 0, 0)
    third = "fields+rebalance" if rebalance_row else "load_adaptive"
    table.add(third, 5_800.0, 2.0, 47.0, 97, 4.0, 0, reb_migrations)
    return (table,)


def _simreal_tables(conserved=True, in_band=True):
    table = Table(
        "sim vs real: differential over seeded workloads",
        [
            "topology", "conserved", "sim goodput tuple/s",
            "real goodput tuple/s", "goodput ratio", "sim sink mean ms",
            "real sink mean ms", "real replays", "real stall s",
        ],
    )
    ratio = 1.02 if in_band else 6.0
    table.add("word_count", int(conserved), 2_200.0, 2_200.0 * ratio,
              ratio, 0.2, 0.5, 0, 0.0)
    table.add("fanout", 1, 1_600.0, 1_590.0, 0.99, 0.1, 0.4, 0, 0.0)
    return (table,)


def _populate_all(store):
    """Conforming tables for every experiment at smoke size, plus the
    full sweep of every experiment a full-size-only claim reads."""
    _put(store, "fig13_14", _endtoend_tables(1_000.0, 2_000.0, 3_000.0))
    _put(store, "fig15_16", _endtoend_tables(900.0, 1_800.0, 2_700.0))
    _put(store, "fig02", _fig02_tables())
    _put(store, "fig27_28", _fig27_28_tables())
    _put(store, "fig23_24", _fig23_24_tables())
    _put(store, "fig17_18_21", _structure_tables())
    _put(store, "fig19_20_22", _structure_tables())
    _put(store, "ablation_delivery_semantics", _delivery_tables())
    _put(store, "ablation_overload", _overload_tables())
    _put(store, "ablation_hot_key", _hot_key_tables())
    _put(store, "ablation_sim_vs_real", _simreal_tables())
    _put(store, "fig03", _fig03_tables())
    _put(store, "fig11", _fig11_tables())
    _put(store, "fig12", _fig12_tables())
    _put(store, "fig25_26", _fig25_26_tables())
    _put(store, "fig29_30", _verbs_tables())
    _put(store, "fig31_32", _diffverbs_tables())
    _put(store, "fig33_34", _racks_tables())
    _put(store, "table2", _table2_tables())
    _put(store, "ablation_dstar", _dstar_tables())
    _put(store, "ablation_queue", _queue_tables())
    _put(store, "ablation_lossy_network", _loss_tables())
    _put(store, "ablation_rack_uplinks", _rack_uplinks_tables())
    _put(store, "ablation_node_failure", _node_failure_tables())
    # full sweeps
    _put(store, "fig03", _fig03_tables(full=True))
    _put(store, "fig13_14", _headline_tables())
    _put(store, "fig15_16", _headline_tables())
    _put(store, "fig17_18_21", _structure_tables(full=True))
    _put(store, "fig19_20_22", _structure_tables(full=True))
    _put(store, "fig25_26", _fig25_26_tables(full=True))
    _put(store, "fig27_28", _fig27_28_full_tables())
    _put(store, "ablation_rack_uplinks", _rack_uplinks_tables(full=True))


def _statuses(store, mode):
    return {r.claim.name: r.status
            for r in evaluate_claims(store, mode=mode, version=VERSION)}


FULL_SIZE_ONLY = {c.name for c in CLAIMS if c.full_size_only}


def test_empty_store_skips_every_claim(tmp_path):
    store = ResultStore(str(tmp_path))
    results = evaluate_claims(store, mode="smoke", version=VERSION)
    assert len(results) == len(CLAIMS)
    assert all(r.status == "SKIP" for r in results)
    for r in results:
        expected = ("full-size-only" if r.claim.full_size_only
                    else "missing stored results")
        assert expected in r.details[0]


def test_conforming_results_pass_every_claim(tmp_path):
    store = ResultStore(str(tmp_path))
    _populate_all(store)
    results = evaluate_claims(store, mode="auto", version=VERSION)
    assert {r.claim.name: r.status for r in results} == {
        c.name: "PASS" for c in CLAIMS
    }
    # every PASS carries human-readable evidence
    assert all(r.details for r in results)
    # a smoke verify passes every other claim and skips the full-size-only
    assert _statuses(store, "smoke") == {
        c.name: "SKIP" if c.full_size_only else "PASS" for c in CLAIMS
    }
    assert FULL_SIZE_ONLY and FULL_SIZE_ONLY < set(_statuses(store, "smoke"))


@pytest.mark.parametrize(
    "name,tables,claim",
    [
        (
            "fig13_14",
            _endtoend_tables(3_000.0, 2_000.0, 1_000.0),
            "throughput-ordering-ridehailing",
        ),
        ("fig02", _fig02_tables(collapse=1.1), "storm-one-to-many-bottleneck"),
        ("fig27_28", _fig27_28_tables(whale_wins=False), "woc-traffic-reduction"),
        (
            "fig23_24",
            _fig23_24_tables(adaptive_wins=False),
            "dstar-adaptation-latency",
        ),
        (
            "fig23_24",
            _fig23_24_tables(switched=False),
            "dstar-adaptation-latency",
        ),
        (
            "fig17_18_21",
            _structure_tables(ordered=False),
            "multicast-structure-latency-ridehailing",
        ),
        (
            "ablation_delivery_semantics",
            _delivery_tables(zero_dups=False),
            "exactly-once-bounded-overhead",
        ),
        (
            "ablation_delivery_semantics",
            _delivery_tables(bounded=False),
            "exactly-once-bounded-overhead",
        ),
        (
            "ablation_overload",
            _overload_tables(bounded=False),
            "backpressure-bounded-goodput",
        ),
        (
            "ablation_overload",
            _overload_tables(recovered=False),
            "backpressure-bounded-goodput",
        ),
        (
            "ablation_overload",
            _overload_tables(
                idle_modes=("at_most_once", "at_least_once", "exactly_once")
            ),
            "backpressure-bounded-goodput",
        ),
        (
            "ablation_hot_key",
            _hot_key_tables(tail_cut=False),
            "key-split-bounds-hot-key-latency",
        ),
        (
            "ablation_hot_key",
            _hot_key_tables(goodput_kept=False),
            "key-split-bounds-hot-key-latency",
        ),
        (
            "ablation_hot_key",
            _hot_key_tables(migrated=False),
            "key-split-bounds-hot-key-latency",
        ),
        (
            "ablation_sim_vs_real",
            _simreal_tables(conserved=False),
            "sim-predicts-real",
        ),
        (
            "ablation_sim_vs_real",
            _simreal_tables(in_band=False),
            "sim-predicts-real",
        ),
        # strictened claims: each case passes the looser form it replaced
        ("fig02", _fig02_tables(collapse=3.0), "storm-one-to-many-bottleneck"),
        (
            "fig02",
            _fig02_tables(shares=(0.3, 0.3)),
            "storm-one-to-many-bottleneck",
        ),
        (
            "ablation_overload",
            _overload_tables(idle_modes=("at_most_once",)),
            "backpressure-bounded-goodput",
        ),
        (
            "ablation_overload",
            _overload_tables(tamed=False),
            "backpressure-bounded-goodput",
        ),
        (
            "ablation_hot_key",
            _hot_key_tables(rebalance_row=False),
            "key-split-bounds-hot-key-latency",
        ),
        (
            "fig23_24",
            _fig23_24_tables(tracks_peak=False),
            "dstar-adaptation-latency",
        ),
        (
            "fig17_18_21",
            _structure_tables(mcast_cut=False),
            "multicast-structure-latency-ridehailing",
        ),
        (
            "fig27_28",
            _fig27_28_tables(rdma_tracks_storm=False),
            "woc-traffic-reduction",
        ),
        # new claims, smoke-valid
        ("fig03", _fig03_tables(low_thru=1_000.0), "rdmc-tracks-low-input-rate"),
        ("fig11", _fig11_tables(small_mms_latency=3.0),
         "mms-latency-rises-throughput-flat"),
        ("fig12", _fig12_tables(long_wtl_latency=5.0),
         "wtl-latency-tracks-wait-limit"),
        (
            "fig17_18_21",
            _structure_tables(beats_sequential=False),
            "nonblocking-beats-sequential-ridehailing",
        ),
        (
            "fig19_20_22",
            _structure_tables(beats_sequential=False),
            "nonblocking-beats-sequential-stocks",
        ),
        ("fig25_26", _fig25_26_tables(storm_share=0.8),
         "comm-time-serialization-share"),
        ("fig29_30", _verbs_tables(read_wins=False), "one-sided-verbs-win"),
        ("fig31_32", _diffverbs_tables(diffverbs=1_340.0), "diffverbs-speedup"),
        ("fig33_34", _racks_tables(stable=False), "whale-rack-insensitive"),
        ("table2", _table2_tables(nasdaq_keys=500), "dataset-statistics"),
        ("ablation_dstar", _dstar_tables(knee=False), "dstar-model-knee"),
        ("ablation_queue", _queue_tables(monotone=False),
         "queue-capacity-tracks-model"),
        ("ablation_lossy_network", _loss_tables(whale_loses_less=False),
         "message-loss-degrades-both"),
        (
            "ablation_rack_uplinks",
            _rack_uplinks_tables(full=True, stable=False),
            "oversubscribed-core-stable",
        ),
        ("ablation_node_failure", _node_failure_tables(goodput_kept=False),
         "crash-recovery-bounded"),
        # new claims, full-size-only
        ("fig03", _fig03_tables(full=True, blocked=False),
         "rdmc-blocks-at-high-input-rates"),
        ("fig13_14", _headline_tables(whale_480=1_500.0),
         "headline-speedup-ridehailing"),
        ("fig15_16", _headline_tables(whale_480=1_400.0),
         "headline-speedup-stocks"),
        (
            "fig17_18_21",
            _structure_tables(full=True, beats_binomial=False),
            "nonblocking-beats-binomial-ridehailing",
        ),
        (
            "fig19_20_22",
            _structure_tables(full=True, beats_binomial=False),
            "nonblocking-beats-binomial-stocks",
        ),
        ("fig25_26", _fig25_26_tables(full=True, whale_480=1_000.0),
         "comm-time-collapse-at-scale"),
        ("fig27_28", _fig27_28_full_tables(storm_grows=False),
         "woc-traffic-reduction-at-scale"),
        (
            "ablation_rack_uplinks",
            _rack_uplinks_tables(full=True, headroom=False),
            "uplinks-below-saturation",
        ),
    ],
)
def test_contradicting_results_fail_the_claim(tmp_path, name, tables, claim):
    store = ResultStore(str(tmp_path))
    _populate_all(store)
    # judge at the size the contradicting tables are stored at
    mode = "smoke" if _is_smoke(name, tables) else "full"
    before = _statuses(store, mode)
    # overwrite one experiment with data that contradicts the paper
    _put(store, name, tables)
    after = _statuses(store, mode)
    assert before[claim] == "PASS"
    assert after.pop(claim) == "FAIL"
    # the other claims are unaffected
    del before[claim]
    assert after == before
    if mode == "smoke":
        assert all(status == "PASS" for n, status in after.items()
                   if n not in FULL_SIZE_ONLY)


def test_malformed_table_fails_instead_of_crashing(tmp_path):
    store = ResultStore(str(tmp_path))
    _populate_all(store)
    broken = Table("Throughput", ["parallelism", "only-one-system"])
    broken.add(120, 1.0)
    _put(store, "fig13_14", (broken, broken))
    results = {r.claim.name: r for r in
               evaluate_claims(store, mode="smoke", version=VERSION)}
    failed = results["throughput-ordering-ridehailing"]
    assert failed.status == "FAIL"
    assert "check raised" in failed.details[0]


def test_load_tables_modes(tmp_path):
    store = ResultStore(str(tmp_path))
    _put(store, "fig13_14", _endtoend_tables(1.0, 2.0, 3.0))  # smoke points
    spec = REGISTRY["fig13_14"]
    assert load_tables(store, spec, mode="full", version=VERSION) is None
    smoke = load_tables(store, spec, mode="smoke", version=VERSION)
    assert smoke is not None and smoke[0].rows[0][0] == 120
    # auto falls back to the smoke sweep when the full one is absent
    auto = load_tables(store, spec, mode="auto", version=VERSION)
    assert auto is not None
    with pytest.raises(KeyError):
        load_tables(store, spec, mode="bogus", version=VERSION)


def test_full_size_only_claims_never_read_smoke_tables(tmp_path):
    store = ResultStore(str(tmp_path))
    # the smoke sweep stops at 6k tuples/s, below RDMC's knee, so the
    # full-size-only claim would fail on it
    smoke = _fig03_tables()
    _put(store, "fig03", smoke)
    blocks = next(c for c in CLAIMS
                  if c.name == "rdmc-blocks-at-high-input-rates")
    assert blocks.full_size_only
    assert not blocks.check({"fig03": smoke})[0]
    for mode in ("smoke", "auto"):
        results = {r.claim.name: r for r in
                   evaluate_claims(store, mode=mode, version=VERSION)}
        assert results["rdmc-tracks-low-input-rate"].status == "PASS"
        assert results[blocks.name].status == "SKIP"
    assert "mode=full" in results[blocks.name].details[0]
    # stored at full size, it is evaluated
    _put(store, "fig03", _fig03_tables(full=True))
    assert _statuses(store, "auto")[blocks.name] == "PASS"
    assert _statuses(store, "smoke")[blocks.name] == "SKIP"
