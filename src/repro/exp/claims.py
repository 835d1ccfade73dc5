"""The paper's qualitative claims, as predicates over stored results.

Each :class:`Claim` names the experiments it reads and a check over
their *assembled* tables (re-built from the content-addressed store).
Claims are deliberately qualitative — who wins, by about what factor,
where the knee falls — because those are the assertions that must
survive any rescaling of the simulation's absolute numbers.  Most hold
at both smoke and full sweep sizes; a claim that needs rows only the
full sweep has (parallelism 480, the 12k-14k input rates) is declared
``full_size_only`` and is evaluated on full-sweep tables alone.

``python -m repro.exp verify`` evaluates every claim and fails the
invocation if any stored result contradicts the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.report import Table
from repro.exp.points import code_version
from repro.exp.registry import REGISTRY, ExperimentSpec, assemble
from repro.exp.store import ResultStore

TablesByExperiment = Dict[str, Tuple[Table, ...]]
#: a check returns (passed, evidence lines)
CheckFn = Callable[[TablesByExperiment], Tuple[bool, List[str]]]


@dataclass(frozen=True)
class Claim:
    name: str
    description: str
    experiments: Tuple[str, ...]
    check: CheckFn
    #: evaluated only on full-sweep tables: never on smoke ones
    full_size_only: bool = False


@dataclass
class ClaimResult:
    claim: Claim
    status: str  #: ``PASS`` | ``FAIL`` | ``SKIP``
    details: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# store -> assembled tables
# ----------------------------------------------------------------------
def load_tables(
    store: ResultStore,
    spec: ExperimentSpec,
    mode: str = "auto",
    version: Optional[str] = None,
) -> Optional[Tuple[Table, ...]]:
    """Assemble an experiment's tables from the store, or ``None``.

    ``mode``: ``"full"`` / ``"smoke"`` require that point set to be
    complete; ``"auto"`` prefers the full sweep and falls back to the
    smoke one.
    """
    version = version if version is not None else code_version()
    modes = {"auto": (False, True), "full": (False,), "smoke": (True,)}[mode]
    for smoke in modes:
        points = spec.points(smoke=smoke, version=version)
        records = [store.get(p.digest) for p in points]
        if all(r is not None for r in records):
            return assemble(spec, [r["result"] for r in records])
    return None


def _column(table: Table, name: str) -> int:
    for i, header in enumerate(table.headers):
        if header == name:
            return i
    raise KeyError(f"table {table.title!r} has no column {name!r}")


def _finite(values: Sequence[float]) -> List[float]:
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def _mean(values: Sequence[float]) -> float:
    finite = _finite(values)
    return sum(finite) / len(finite) if finite else float("nan")


def _verdict(checks: Sequence[Tuple[bool, str]]) -> Tuple[bool, List[str]]:
    """Fold ``(passed, evidence)`` pairs; a failed line is marked."""
    ok = all(passed for passed, _ in checks)
    return ok, [line if passed else f"{line} VIOLATED" for passed, line in checks]


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def _check_throughput_ordering(app_exp: str) -> CheckFn:
    def check(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
        thru = tables[app_exp][0]
        last = thru.rows[-1]
        storm = last[_column(thru, "storm")]
        rdma = last[_column(thru, "rdma-storm")]
        whale = last[_column(thru, "whale")]
        return _verdict([(
            whale > rdma > storm,
            f"{app_exp} @ parallelism {last[0]}: whale={whale:.0f} > "
            f"rdma-storm={rdma:.0f} > storm={storm:.0f} tuples/s",
        )])

    return check


def _check_headline(app_exp: str, low: float, high: float,
                    ridehailing: bool = False) -> CheckFn:
    """Figs. 13-16 at parallelism 480: the paper's headline factors.

    ``ridehailing`` adds Fig. 13's two extra shapes: Whale's throughput
    rising with parallelism, and RDMA-based Storm in between at 480.
    """

    def check(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
        thru, lat = tables[app_exp]
        storm = _column(thru, "storm")
        rdma = _column(thru, "rdma-storm")
        whale = _column(thru, "whale")
        by_p = {row[0]: row for row in thru.rows}
        first, last = by_p[min(by_p)], by_p[max(by_p)]
        at480 = by_p[480]
        lat480 = {row[0]: row for row in lat.rows}[480]
        speedup = at480[whale] / at480[storm]
        checks = [
            (last[storm] < first[storm],
             f"storm throughput {first[storm]:.0f} -> {last[storm]:.0f} "
             f"tuples/s from parallelism {first[0]} to {last[0]} (declines)"),
            (low < speedup < high,
             f"whale/storm throughput @ 480: {speedup:.1f}x "
             f"(within ({low:g}, {high:g}))"),
            (lat480[whale] < 0.1 * lat480[storm],
             f"latency @ 480: whale={lat480[whale]:.1f} ms vs "
             f"storm={lat480[storm]:.1f} ms (< 0.1x)"),
        ]
        if ridehailing:
            checks += [
                (last[whale] > first[whale],
                 f"whale throughput {first[whale]:.0f} -> {last[whale]:.0f} "
                 f"tuples/s from parallelism {first[0]} to {last[0]} (rises)"),
                (at480[storm] < at480[rdma] < at480[whale],
                 f"@ 480: storm={at480[storm]:.0f} < rdma-storm="
                 f"{at480[rdma]:.0f} < whale={at480[whale]:.0f} tuples/s"),
            ]
        return _verdict(checks)

    return check


def _check_woc_traffic(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    checks = []
    for table in tables["fig27_28"]:
        storm = _column(table, "storm")
        rdma = _column(table, "rdma-storm")
        whale = _column(table, "whale")
        first, last = table.rows[0], table.rows[-1]
        reduction = 1.0 - last[whale] / max(1e-12, last[storm])
        checks += [
            (all(r[whale] < r[storm] and r[whale] < r[rdma]
                 for r in table.rows),
             f"{table.title}: whale traffic below both baselines at "
             f"parallelism {[r[0] for r in table.rows]}"),
            (reduction >= 0.5,
             f"{table.title} @ {last[0]}: whale cuts storm's traffic by "
             f"{100 * reduction:.1f}% (>= 50%; paper: ~90%+ at 480)"),
            # RDMA-based Storm keeps Storm's instance-oriented pattern,
            # and Whale's traffic only grows by the 4-byte destination ids
            (abs(last[rdma] - last[storm]) < 0.1 * last[storm],
             f"{table.title} @ {last[0]}: rdma-storm={last[rdma]:.1f} MB "
             f"within 10% of storm={last[storm]:.1f} MB"),
            (last[whale] < 1.6 * first[whale],
             f"{table.title}: whale traffic {first[whale]:.1f} -> "
             f"{last[whale]:.1f} MB from {first[0]} to {last[0]} (< 1.6x)"),
        ]
    return _verdict(checks)


def _check_woc_traffic_at_scale(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    checks = []
    for table in tables["fig27_28"]:
        storm = _column(table, "storm")
        whale = _column(table, "whale")
        first, last = table.rows[0], table.rows[-1]
        checks += [
            (last[whale] < 0.15 * last[storm],
             f"{table.title} @ {last[0]}: whale={last[whale]:.1f} MB vs "
             f"storm={last[storm]:.1f} MB (< 0.15x)"),
            (last[storm] > 2.5 * first[storm],
             f"{table.title}: storm traffic {first[storm]:.1f} -> "
             f"{last[storm]:.1f} MB from {first[0]} to {last[0]} (> 2.5x)"),
        ]
    return _verdict(checks)


def _check_dstar_adaptation(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    whale, sequential = tables["fig23_24"]
    # ["time", "input rate", "throughput", "latency p50 (ms)"]
    thru_col, lat_col = 2, 3

    def steady(table: Table, t_lo: float, t_hi: float, col: int) -> float:
        return _mean([r[col] for r in table.rows if t_lo <= r[0] <= t_hi])

    whale_lat = _median(_finite([r[lat_col] for r in whale.rows]))
    seq_lat = _median(_finite([r[lat_col] for r in sequential.rows]))
    notes = " ".join(whale.notes)
    switched = "scale_up" in notes and "scale_down" in notes
    first_step = steady(whale, 0.4, 1.0, thru_col)
    peak_whale = steady(whale, 3.5, 4.0, thru_col)
    peak_seq = steady(sequential, 3.5, 4.0, thru_col)
    peak_lat = steady(whale, 3.6, 4.0, lat_col)
    tail_whale = steady(whale, 4.0, 5.0, lat_col)
    tail_seq = steady(sequential, 4.0, 5.0, lat_col)
    return _verdict([
        (whale_lat < seq_lat,
         f"median sampled latency: adaptive={whale_lat:.1f} ms, "
         f"static sequential={seq_lat:.1f} ms"),
        (switched, "d* switched both directions under the rate steps"),
        (first_step > 2_400,
         f"adaptive throughput over t=0.4-1.0 s: {first_step:.0f} "
         f"tuples/s (> 2,400)"),
        (peak_whale > 8_500,
         f"adaptive throughput over the 10k step (t=3.5-4.0 s): "
         f"{peak_whale:.0f} tuples/s (> 8,500)"),
        (peak_seq < 4_000,
         f"static sequential throughput over the 10k step: "
         f"{peak_seq:.0f} tuples/s (< 4,000, saturated)"),
        (peak_lat < 50,
         f"adaptive latency p50 at the end of the 10k step: "
         f"{peak_lat:.1f} ms (< 50)"),
        (tail_seq > tail_whale,
         f"latency p50 over t=4-5 s: sequential={tail_seq:.1f} ms > "
         f"adaptive={tail_whale:.1f} ms"),
    ])


def _check_structure_latency(
    app_exp: str, max_nonblocking_over_binomial: Optional[float] = None
) -> CheckFn:
    def check(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
        mcast = tables[app_exp][2]
        last = mcast.rows[-1]
        seq = last[_column(mcast, "sequential")]
        bino = last[_column(mcast, "binomial")]
        nonb = last[_column(mcast, "nonblocking")]
        checks = [(
            nonb < bino < seq,
            f"{app_exp} multicast latency @ parallelism {last[0]}: "
            f"nonblocking={nonb:.3f} < binomial={bino:.3f} < "
            f"sequential={seq:.3f} ms",
        )]
        if max_nonblocking_over_binomial is not None:
            checks.append((
                nonb < max_nonblocking_over_binomial * bino,
                f"nonblocking/binomial = {nonb / max(1e-12, bino):.2f} "
                f"(< {max_nonblocking_over_binomial:g}; paper: ~0.46)",
            ))
        return _verdict(checks)

    return check


def _check_structure_throughput(
    app_exp: str, rival: str, factor: float
) -> CheckFn:
    """Figs. 17/19: the non-blocking tree's throughput over ``rival``."""

    def check(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
        thru = tables[app_exp][0]
        last = thru.rows[-1]
        nonb = last[_column(thru, "nonblocking")]
        other = last[_column(thru, rival)]
        return _verdict([(
            nonb > factor * other,
            f"{app_exp} throughput @ parallelism {last[0]}: nonblocking="
            f"{nonb:.0f} vs {rival}={other:.0f} tuples/s "
            f"({nonb / max(1e-12, other):.2f}x, > {factor:g}x)",
        )])

    return check


def _check_storm_bottleneck(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    rows = {row[0]: row for row in tables["fig02"][0].rows}
    low, high = rows[30], rows[480]
    # columns: parallelism, throughput, latency, src util, downstream
    # util, src serialization share, src network share
    collapse = low[1] / max(1e-9, high[1])
    return _verdict([
        (high[1] < low[1] / 5,
         f"storm throughput falls {collapse:.1f}x from parallelism 30 "
         f"to 480 (> 5x)"),
        (high[3] > 0.95,
         f"at parallelism 480: source util {high[3]:.2f} (> 0.95, "
         f"saturated)"),
        (high[4] < 0.2,
         f"at parallelism 480: downstream util {high[4]:.2f} (< 0.2, "
         f"idle)"),
        (high[5] + high[6] > 0.8,
         f"at parallelism 480: serialization + packet processing are "
         f"{high[5] + high[6]:.2f} of source CPU (> 0.8)"),
    ])


def _check_rdmc_tracks_low_rates(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    rate, thru = tables["fig03"][0].rows[0][:2]
    return _verdict([(
        thru > 0.8 * rate,
        f"at {rate} tuples/s input RDMC delivers {thru:.0f} tuples/s "
        f"(> 0.8x the input)",
    )])


def _check_rdmc_blocks(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    # columns: input rate, throughput, latency, queue load factor, drops
    prev, last = tables["fig03"][0].rows[-2:]
    return _verdict([
        (last[1] < 0.8 * last[0],
         f"at {last[0]} tuples/s input throughput is {last[1]:.0f} "
         f"(< 0.8x the input)"),
        (abs(last[1] - prev[1]) < 0.15 * prev[1],
         f"throughput {prev[1]:.0f} -> {last[1]:.0f} from {prev[0]} to "
         f"{last[0]} tuples/s input (plateau: change < 15%)"),
        (last[3] > 0.9,
         f"transfer-queue load factor {last[3]:.2f} (> 0.9, blocked)"),
        (last[4] > 0, f"{last[4]} input tuples dropped (> 0)"),
    ])


def _check_mms(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    rows = tables["fig11"][0].rows
    thru = [row[1] for row in rows]
    lat = [row[2] for row in rows]
    return _verdict([
        (lat[0] <= min(lat[1:]) * 1.05,
         f"latency at MMS {rows[0][0]} B: {lat[0]:.2f} ms vs at most "
         f"1.05x the lowest larger-MMS latency {min(lat[1:]):.2f} ms"),
        (min(thru) > 0.9 * max(thru),
         f"throughput {min(thru):.0f}-{max(thru):.0f} tuples/s across MMS "
         f"(min > 0.9x max)"),
    ])


def _check_wtl(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    rows = tables["fig12"][0].rows
    (wtl0, _, lat0), (wtl1, _, lat1) = rows[0], rows[-1]
    return _verdict([
        (lat1 > 5 * lat0,
         f"latency {lat0:.2f} ms at WTL {wtl0} ms -> {lat1:.2f} ms at WTL "
         f"{wtl1} ms (> 5x)"),
        (lat1 > wtl1 * 0.5,
         f"latency at WTL {wtl1} ms is {lat1:.2f} ms (> half the limit)"),
    ])


def _check_comm_time(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    comm, share = tables["fig25_26"]
    last, slast = comm.rows[-1], share.rows[-1]
    storm = last[_column(comm, "storm")]
    whale = last[_column(comm, "whale-woc-rdma")]
    storm_share = slast[_column(share, "storm share")]
    rdma_share = slast[_column(share, "rdma-storm share")]
    return _verdict([
        (whale < 0.1 * storm,
         f"communication time @ parallelism {last[0]}: whale={whale:.0f} "
         f"vs storm={storm:.0f} us/tuple (< 0.1x)"),
        (0.2 < storm_share < 0.7,
         f"serialization share of storm's communication CPU: "
         f"{storm_share:.2f} (within (0.2, 0.7); paper: 45%)"),
        (rdma_share > storm_share,
         f"serialization share: rdma-storm={rdma_share:.2f} > "
         f"storm={storm_share:.2f} (paper: 94% vs 45%)"),
    ])


def _check_comm_time_at_scale(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    comm, share = tables["fig25_26"]
    last, slast = comm.rows[-1], share.rows[-1]
    rdma = last[_column(comm, "rdma-storm")]
    whale = last[_column(comm, "whale-woc-rdma")]
    abs_storm = slast[_column(share, "storm us")]
    abs_whale = slast[_column(share, "whale-woc-rdma us")]
    return _verdict([
        (whale < 0.2 * rdma,
         f"communication time @ parallelism {last[0]}: whale={whale:.0f} "
         f"vs rdma-storm={rdma:.0f} us/tuple (< 0.2x)"),
        (abs_whale < 0.1 * abs_storm,
         f"serialization time @ parallelism {slast[0]}: whale="
         f"{abs_whale:.0f} vs storm={abs_storm:.0f} us/tuple (< 0.1x)"),
    ])


def _check_verbs(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    rows = {row[0]: row for row in tables["fig29_30"][0].rows}
    read, write, send = rows["read"], rows["write"], rows["send"]
    return _verdict([
        (read[1] > write[1] > send[1],
         f"throughput: read={read[1]:.0f} > write={write[1]:.0f} > "
         f"send={send[1]:.0f} msgs/s"),
        (read[2] < write[2] < send[2],
         f"mean latency: read={read[2]:.2f} < write={write[2]:.2f} < "
         f"send={send[2]:.2f} us"),
    ])


def _check_diffverbs(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    thru, lat = tables["fig31_32"]
    last, llast = thru.rows[-1], lat.rows[-1]
    rdma = _column(thru, "rdma-storm")
    diff = _column(thru, "whale-diffverbs")
    speedup = last[diff] / last[rdma]
    return _verdict([
        (7 < speedup < 40,
         f"whale-diffverbs/rdma-storm throughput @ parallelism {last[0]}: "
         f"{speedup:.1f}x (within (7, 40); paper: 15.6x)"),
        (llast[diff] < 0.25 * llast[rdma],
         f"latency @ parallelism {llast[0]}: whale-diffverbs="
         f"{llast[diff]:.1f} ms vs rdma-storm={llast[rdma]:.1f} ms "
         f"(< 0.25x)"),
    ])


def _check_racks(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    thru, lat = tables["fig33_34"]
    whale_thru = [row[_column(thru, "whale")] for row in thru.rows]
    whale_lat = [row[_column(lat, "whale")] for row in lat.rows]
    return _verdict([
        (max(whale_thru) < 1.2 * min(whale_thru),
         f"whale throughput {min(whale_thru):.0f}-{max(whale_thru):.0f} "
         f"tuples/s over {len(whale_thru)} rack counts (max < 1.2x min)"),
        (max(whale_lat) < 1.5 * min(whale_lat),
         f"whale latency {min(whale_lat):.2f}-{max(whale_lat):.2f} ms "
         f"(max < 1.5x min)"),
    ])


def _check_datasets(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    # columns: dataset, # tuples (paper), # keys (paper), generator keys
    didi, nasdaq = tables["table2"][0].rows
    return _verdict([
        (didi[1] == 13_000_000_000 and didi[2] == 6_000_000,
         f"Didi: {didi[1]:,} tuples, {didi[2]:,} keys (paper's Table 2)"),
        (nasdaq[1] == 274_000_000 and nasdaq[2] == 6_649,
         f"NASDAQ: {nasdaq[1]:,} tuples, {nasdaq[2]:,} keys (paper's "
         f"Table 2)"),
        (nasdaq[3] > 1_000,
         f"NASDAQ generator draws {nasdaq[3]:,} distinct symbols (> 1,000)"),
        (didi[3] > 10_000,
         f"Didi generator draws {didi[3]:,} distinct drivers (> 10,000)"),
    ])


def _check_dstar_knee(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    table = tables["ablation_dstar"][0]
    # columns: d*, throughput, latency, queue max / Q, drops
    model_d = int(table.title.rstrip(")").split("d* = ")[1])
    rows = {row[0]: row for row in table.rows}
    at = rows[model_d]
    checks = [
        (at[4] == 0 and at[3] < 1.0,
         f"at the model's d*={model_d}: {at[4]} drops, queue max/Q "
         f"{at[3]:.2f} (stable: 0 drops, < 1.0)"),
    ]
    above = rows.get(model_d + 1)
    if above is not None:
        checks.append((
            above[3] >= 0.99 and above[4] > 0 and above[1] < at[1],
            f"at d*={model_d + 1}: queue max/Q {above[3]:.2f} (>= 0.99), "
            f"{above[4]} drops (> 0), throughput {above[1]:.0f} < "
            f"{at[1]:.0f} tuples/s",
        ))
    return _verdict(checks)


def _check_queue_capacity(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    rows = tables["ablation_queue"][0].rows
    # columns: Q, model d*, converged d*, throughput, latency, drops
    converged = [r[2] for r in rows]
    return _verdict([
        (converged == sorted(converged),
         f"converged d* over Q={[r[0] for r in rows]}: {converged} "
         f"(non-decreasing)"),
        (all(abs(r[2] - r[1]) <= 1 for r in rows),
         f"model d*: {[r[1] for r in rows]} (converged within 1)"),
        (rows[0][5] > 0 and rows[2][5] == 0,
         f"drops: Q={rows[0][0]} -> {rows[0][5]} (> 0), Q={rows[2][0]} -> "
         f"{rows[2][5]} (0)"),
        (rows[3][4] > rows[2][4],
         f"latency: Q={rows[3][0]} -> {rows[3][4]:.1f} ms > Q={rows[2][0]} "
         f"-> {rows[2][4]:.1f} ms"),
    ])


def _check_message_loss(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    # columns: loss, storm frac, whale frac, storm lost, whale lost
    rows = tables["ablation_lossy_network"][0].rows
    first, last = rows[0], rows[-1]
    return _verdict([
        (last[1] < first[1] and last[2] < first[2],
         f"full-delivery fraction at loss {last[0]}: storm {first[1]:.3f} "
         f"-> {last[1]:.3f}, whale {first[2]:.3f} -> {last[2]:.3f} "
         f"(both degrade)"),
        (last[4] < last[3],
         f"wire messages lost at loss {last[0]}: whale={last[4]} < "
         f"storm={last[3]}"),
        (abs(last[2] - last[1]) < 0.15,
         f"delivery fractions within 0.15 of each other "
         f"(relay trees amplify each loss)"),
        (first[3] == 0 and first[4] == 0,
         f"at loss {first[0]}: storm lost {first[3]}, whale lost "
         f"{first[4]} (none)"),
    ])


def _check_oversubscribed_core(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    rows = tables["ablation_rack_uplinks"][0].rows
    whale_thru = [row[3] for row in rows]
    return _verdict([(
        max(whale_thru) < 1.2 * min(whale_thru),
        f"whale throughput {min(whale_thru):.0f}-{max(whale_thru):.0f} "
        f"tuples/s over racks {[row[0] for row in rows]} with a 4:1 core "
        f"(max < 1.2x min)",
    )])


def _check_uplink_headroom(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    rows = tables["ablation_rack_uplinks"][0].rows
    # columns: racks, 3 x throughput, 3 x busiest uplink utilisation;
    # racks >= 3 carry cross-rack traffic
    checks = [(len(rows) > 1, f"{len(rows) - 1} multi-rack rows checked")]
    for row in rows[1:]:
        utils = row[4:]
        checks.append((
            all(u < 0.5 for u in utils) and any(u > 0 for u in utils),
            f"{row[0]} racks: uplink utilisation "
            f"{', '.join(f'{u:.3f}' for u in utils)} (all < 0.5, some > 0)",
        ))
    return _verdict(checks)


def _check_node_failure(tables: TablesByExperiment) -> Tuple[bool, List[str]]:
    # columns: scenario, goodput, recovery s, completed, replays, replayed
    # roots, gave up, repairs, reattaches, msgs dead
    baseline, crashed = tables["ablation_node_failure"][0].rows
    return _verdict([
        (baseline[4] == 0 and baseline[7] == 0,
         f"fault-free run: {baseline[4]} replays, {baseline[7]} repairs "
         f"(none)"),
        (crashed[4] > 0 and crashed[7] >= 1 and crashed[8] >= 1,
         f"crash run: {crashed[4]} replays (> 0), {crashed[7]} repairs and "
         f"{crashed[8]} reattaches (>= 1 each)"),
        (crashed[9] > 0,
         f"{crashed[9]} messages dead while the machine is down (> 0)"),
        (crashed[6] == 0 and 0.0 < crashed[2] < 1.0,
         f"{crashed[6]} trees gave up (0); full delivery restored "
         f"{crashed[2]:.3f} s after the crash (within (0, 1))"),
        (crashed[1] > 0.95 * baseline[1],
         f"goodput {crashed[1]:.0f} vs {baseline[1]:.0f} tuples/s "
         f"fault-free (> 0.95x)"),
    ])


def _check_delivery_semantics(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    table = tables["ablation_delivery_semantics"][0]
    rows = {row[0]: row for row in table.rows}
    goodput = _column(table, "goodput tuple/s")
    dups = _column(table, "dup execs")
    alo, eo = rows["at_least_once"], rows["exactly_once"]
    atomic = rows["atomic"]
    return _verdict([
        (eo[dups] == 0 and atomic[dups] == 0,
         f"duplicate executions under faults: at_least_once={alo[dups]}, "
         f"exactly_once={eo[dups]}, atomic={atomic[dups]} (zero for the "
         f"strong modes)"),
        # Bounded overhead: dedup + selective replay must not cost more
        # than half of at-least-once's goodput under the same faults.
        (eo[goodput] >= 0.5 * alo[goodput],
         f"goodput: exactly_once={eo[goodput]:.0f}/s vs "
         f"at_least_once={alo[goodput]:.0f}/s "
         f"({eo[goodput] / max(1e-9, alo[goodput]):.2f}x, >= 0.5x)"),
    ])


def _check_overload_backpressure(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    table = tables["ablation_overload"][0]
    rows = {(row[0], row[1]): row for row in table.rows}
    good = _column(table, "goodput tuple/s")
    hwm = _column(table, "inqueue hwm")
    cw = _column(table, "credit window")
    shed = _column(table, "shed")
    deferred = _column(table, "deferred")
    stall = _column(table, "stall s")
    replays = _column(table, "replays")
    checks = []
    for mode in ("at_most_once", "at_least_once", "exactly_once"):
        on, off = rows[(mode, "on")], rows[(mode, "off")]
        checks += [
            # Bounded queues: credits keep the worst input-queue
            # high-water mark within a small multiple of the credit
            # window (slack for copies already reserved when the
            # watchdog heals a stall), while with nothing pushing back
            # the same burst grows the same queue strictly further.
            (on[hwm] <= 4 * on[cw] and on[hwm] < off[hwm],
             f"{mode}: inqueue hwm {on[hwm]} (flow on, window {on[cw]}, "
             f"<= 4x) vs {off[hwm]} (off)"),
            # Recovery: shedding/deferring at the source must not
            # collapse goodput.  (The unprotected reliable rows post
            # higher raw goodput only by brute-forcing the backlog
            # through a replay storm during the drain — at 50x the
            # queue depth and replay count.)
            (on[good] > 0 and on[good] >= 0.2 * off[good],
             f"{mode}: goodput {on[good]:.0f}/s (flow on) vs "
             f"{off[good]:.0f}/s (off) (>= 0.2x)"),
            # Protection is visible as pushback, not silent loss.
            (on[shed] + on[deferred] + on[stall] > 0,
             f"{mode}: pushback shed={on[shed]} deferred={on[deferred]} "
             f"stall={on[stall]:.2f}s (some)"),
        ]
        if mode != "at_most_once":
            # The replay budget tames the storm the burst would trigger.
            checks.append((
                on[replays] < off[replays],
                f"{mode}: replays {on[replays]} (flow on) vs "
                f"{off[replays]} (off)",
            ))
    return _verdict(checks)


def _check_hot_key_partitioning(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    table = tables["ablation_hot_key"][0]
    rows = {row[0]: row for row in table.rows}
    good = _column(table, "goodput tuple/s")
    p99 = _column(table, "latency p99 ms")
    hwm = _column(table, "inqueue hwm")
    migrations = _column(table, "migrations")
    fields, split = rows["fields"], rows["key_split"]
    rebalance = rows["fields+rebalance"]
    return _verdict([
        # Key-split must beat single-owner hashing decisively on tail
        # latency (the hot key's queue is the whole effect) and keep the
        # worst input-queue backlog strictly smaller...
        (split[p99] <= 0.5 * fields[p99] and split[hwm] < fields[hwm],
         f"p99 under the hot-key storm: key_split={split[p99]:.1f} ms vs "
         f"fields={fields[p99]:.1f} ms "
         f"({split[p99] / max(1e-9, fields[p99]):.2f}x, <= 0.5x); "
         f"inqueue hwm {split[hwm]} vs {fields[hwm]}"),
        # ...without sacrificing goodput.
        (split[good] >= 0.95 * fields[good],
         f"goodput: key_split={split[good]:.0f}/s vs "
         f"fields={fields[good]:.0f}/s (>= 0.95x)"),
        # The rebalancer must park the melting task and pay off on the
        # tail.
        (rebalance[migrations] > 0 and rebalance[p99] < fields[p99],
         f"fields+rebalance: {rebalance[migrations]} migrations, "
         f"p99 {rebalance[p99]:.1f} ms vs fields {fields[p99]:.1f} ms"),
    ])


def _check_sim_predicts_real(
    tables: TablesByExperiment,
) -> Tuple[bool, List[str]]:
    from repro.rt.differential import GOODPUT_RATIO_BAND

    low, high = GOODPUT_RATIO_BAND
    table = tables["ablation_sim_vs_real"][0]
    conserved_col = _column(table, "conserved")
    ratio_col = _column(table, "goodput ratio")
    checks = [(bool(table.rows), f"{len(table.rows)} differential rows")]
    for row in table.rows:
        ratio = row[ratio_col]
        in_band = (
            isinstance(ratio, (int, float))
            and math.isfinite(ratio)
            and low <= ratio <= high
        )
        checks.append((
            bool(row[conserved_col]) and in_band,
            f"{row[0]}: executed multiset conserved "
            f"{'exactly' if row[conserved_col] else 'NOT'}, real/sim "
            f"goodput ratio {ratio:.3f} (within [{low}, {high}])",
        ))
    return _verdict(checks)


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        name="throughput-ordering-ridehailing",
        description="Whale > RDMA-based Storm > Storm end-to-end "
        "throughput (ride-hailing, paper Fig. 13)",
        experiments=("fig13_14",),
        check=_check_throughput_ordering("fig13_14"),
    ),
    Claim(
        name="throughput-ordering-stocks",
        description="Whale > RDMA-based Storm > Storm end-to-end "
        "throughput (stock exchange, paper Fig. 15)",
        experiments=("fig15_16",),
        check=_check_throughput_ordering("fig15_16"),
    ),
    Claim(
        name="woc-traffic-reduction",
        description="Whale's one-copy WOC slashes wire traffic below "
        "both baselines at every parallelism; RDMA-based Storm's traffic "
        "stays within 10% of Storm's and Whale's grows under 1.6x over "
        "the sweep (paper Figs. 27/28)",
        experiments=("fig27_28",),
        check=_check_woc_traffic,
    ),
    Claim(
        name="dstar-adaptation-latency",
        description="under stepped input rates the self-adjusting d* "
        "structure switches both ways, tracks every step and keeps "
        "latency below the static sequential multicast, which "
        "saturates (paper Figs. 23/24)",
        experiments=("fig23_24",),
        check=_check_dstar_adaptation,
    ),
    Claim(
        name="multicast-structure-latency-ridehailing",
        description="non-blocking < binomial < sequential average "
        "multicast latency, non-blocking under 0.7x binomial "
        "(ride-hailing, paper Fig. 21)",
        experiments=("fig17_18_21",),
        check=_check_structure_latency("fig17_18_21", 0.7),
    ),
    Claim(
        name="multicast-structure-latency-stocks",
        description="non-blocking < binomial < sequential average "
        "multicast latency (stock exchange, paper Fig. 22)",
        experiments=("fig19_20_22",),
        check=_check_structure_latency("fig19_20_22"),
    ),
    Claim(
        name="exactly-once-bounded-overhead",
        description="under identical seeded crash/link-flap schedules "
        "exactly-once (and atomic) delivery produces zero duplicate "
        "executions while paying bounded goodput overhead vs "
        "at-least-once",
        experiments=("ablation_delivery_semantics",),
        check=_check_delivery_semantics,
    ),
    Claim(
        name="backpressure-bounded-goodput",
        description="under an identical seeded flash crowd + slow node "
        "+ crash, end-to-end backpressure (credits + admission gate + "
        "shedding + replay budget) bounds every input queue near the "
        "credit window and keeps goodput within a bounded factor of "
        "the unprotected run, in every delivery mode, with visible "
        "pushback and, in the reliable modes, fewer replays",
        experiments=("ablation_overload",),
        check=_check_overload_backpressure,
    ),
    Claim(
        name="key-split-bounds-hot-key-latency",
        description="under an identical seeded Zipf hot-key storm, "
        "key-split fan-out cuts p99 latency to at most half of fields "
        "hashing at no goodput cost, and the runtime rebalancer "
        "migrates routing off the overloaded task (migrations > 0) "
        "with a lower tail than static fields hashing",
        experiments=("ablation_hot_key",),
        check=_check_hot_key_partitioning,
    ),
    Claim(
        name="sim-predicts-real",
        description="on the same seeded sub-saturation workloads the "
        "wall-clock asyncio runtime conserves the DES's executed tuple "
        "multiset exactly and lands its goodput within the accepted "
        "band of the simulated goodput",
        experiments=("ablation_sim_vs_real",),
        check=_check_sim_predicts_real,
    ),
    Claim(
        name="storm-one-to-many-bottleneck",
        description="Storm's throughput collapses over 5x from "
        "parallelism 30 to 480 while the source saturates, downstream "
        "idles and serialization plus packet processing dominate "
        "source CPU (paper Fig. 2)",
        experiments=("fig02",),
        check=_check_storm_bottleneck,
    ),
    Claim(
        name="rdmc-tracks-low-input-rate",
        description="RDMC's binomial tree keeps up with a low input rate "
        "(paper Fig. 3)",
        experiments=("fig03",),
        check=_check_rdmc_tracks_low_rates,
    ),
    Claim(
        name="rdmc-blocks-at-high-input-rates",
        description="past ~12k tuples/s RDMC's throughput plateaus well "
        "below the input while the transfer queue blocks and drops "
        "tuples (paper Fig. 3)",
        experiments=("fig03",),
        check=_check_rdmc_blocks,
        full_size_only=True,
    ),
    Claim(
        name="mms-latency-rises-throughput-flat",
        description="a larger slicing buffer (MMS) never lowers latency "
        "below the smallest one's and leaves throughput flat (paper "
        "Fig. 11)",
        experiments=("fig11",),
        check=_check_mms,
    ),
    Claim(
        name="wtl-latency-tracks-wait-limit",
        description="latency grows over 5x with the slicing wait-time "
        "limit (WTL), roughly tracking it (paper Fig. 12)",
        experiments=("fig12",),
        check=_check_wtl,
    ),
    Claim(
        name="headline-speedup-ridehailing",
        description="at parallelism 480 Whale's throughput is 25-120x "
        "Storm's (paper: 56.6x) with RDMA-based Storm in between and "
        "under 0.1x its latency; Storm declines and Whale rises with "
        "parallelism (ride-hailing, paper Figs. 13/14)",
        experiments=("fig13_14",),
        check=_check_headline("fig13_14", 25, 120, ridehailing=True),
        full_size_only=True,
    ),
    Claim(
        name="headline-speedup-stocks",
        description="at parallelism 480 Whale's throughput is 20-120x "
        "Storm's (paper: 51.2x) at under 0.1x its latency; Storm "
        "declines with parallelism (stock exchange, paper Figs. 15/16)",
        experiments=("fig15_16",),
        check=_check_headline("fig15_16", 20, 120),
        full_size_only=True,
    ),
    Claim(
        name="nonblocking-beats-sequential-ridehailing",
        description="the non-blocking tree's throughput is over 1.3x the "
        "sequential multicast's (ride-hailing, paper Fig. 17)",
        experiments=("fig17_18_21",),
        check=_check_structure_throughput("fig17_18_21", "sequential", 1.3),
    ),
    Claim(
        name="nonblocking-beats-binomial-ridehailing",
        description="at parallelism 480 the non-blocking tree's "
        "throughput is over 1.05x binomial's (ride-hailing, paper "
        "Fig. 17: 1.2x)",
        experiments=("fig17_18_21",),
        check=_check_structure_throughput("fig17_18_21", "binomial", 1.05),
        full_size_only=True,
    ),
    Claim(
        name="nonblocking-beats-sequential-stocks",
        description="the non-blocking tree's throughput is over 1.3x the "
        "sequential multicast's (stock exchange, paper Fig. 19)",
        experiments=("fig19_20_22",),
        check=_check_structure_throughput("fig19_20_22", "sequential", 1.3),
    ),
    Claim(
        name="nonblocking-beats-binomial-stocks",
        description="at parallelism 480 the non-blocking tree's "
        "throughput is over 1.05x binomial's (stock exchange, paper "
        "Fig. 19: 1.22x)",
        experiments=("fig19_20_22",),
        check=_check_structure_throughput("fig19_20_22", "binomial", 1.05),
        full_size_only=True,
    ),
    Claim(
        name="comm-time-serialization-share",
        description="Whale cuts communication time below 0.1x Storm's, "
        "and replacing TCP with RDMA leaves serialization the larger "
        "share of it (paper Figs. 25/26)",
        experiments=("fig25_26",),
        check=_check_comm_time,
    ),
    Claim(
        name="comm-time-collapse-at-scale",
        description="at parallelism 480 Whale's communication time is "
        "under 0.2x RDMA-based Storm's and its serialization time per "
        "tuple under 0.1x Storm's (paper Figs. 25/26)",
        experiments=("fig25_26",),
        check=_check_comm_time_at_scale,
        full_size_only=True,
    ),
    Claim(
        name="woc-traffic-reduction-at-scale",
        description="at parallelism 480 Whale's traffic is under 0.15x "
        "Storm's (paper: ~90% less), and Storm's grows over 2.5x across "
        "the sweep (paper Figs. 27/28)",
        experiments=("fig27_28",),
        check=_check_woc_traffic_at_scale,
        full_size_only=True,
    ),
    Claim(
        name="one-sided-verbs-win",
        description="READ > WRITE > SEND throughput and the reverse order "
        "in latency (paper Figs. 29/30)",
        experiments=("fig29_30",),
        check=_check_verbs,
    ),
    Claim(
        name="diffverbs-speedup",
        description="choosing verbs per message class gives Whale 7-40x "
        "RDMA-based Storm's throughput (paper: 15.6x) at under 0.25x "
        "its latency (paper Figs. 31/32)",
        experiments=("fig31_32",),
        check=_check_diffverbs,
    ),
    Claim(
        name="whale-rack-insensitive",
        description="Whale's throughput and latency are stable from 1 to "
        "5 racks (paper Figs. 33/34)",
        experiments=("fig33_34",),
        check=_check_racks,
    ),
    Claim(
        name="dataset-statistics",
        description="Table 2's dataset sizes, with generators that "
        "reproduce the key-cardinality shape (paper Table 2)",
        experiments=("table2",),
        check=_check_datasets,
    ),
    Claim(
        name="dstar-model-knee",
        description="with a fixed maximum out-degree the stability knee "
        "lands at the M/D/1 model's d*: stable at it, saturated and "
        "lossy one above it",
        experiments=("ablation_dstar",),
        check=_check_dstar_knee,
    ),
    Claim(
        name="queue-capacity-tracks-model",
        description="the converged d* is non-decreasing in the transfer "
        "queue capacity Q and within 1 of Eq. (3); a tiny queue drops "
        "tuples and a huge one pays latency",
        experiments=("ablation_queue",),
        check=_check_queue_capacity,
    ),
    Claim(
        name="message-loss-degrades-both",
        description="in-flight message loss degrades full delivery for "
        "Storm and Whale alike, though Whale loses fewer wire messages",
        experiments=("ablation_lossy_network",),
        check=_check_message_loss,
    ),
    Claim(
        name="oversubscribed-core-stable",
        description="Whale's throughput is stable across rack counts "
        "even with a 4:1 oversubscribed core",
        experiments=("ablation_rack_uplinks",),
        check=_check_oversubscribed_core,
    ),
    Claim(
        name="uplinks-below-saturation",
        description="with a 4:1 oversubscribed core the cross-rack "
        "uplinks carry traffic yet each stays under 0.5 utilisation, "
        "which is why the paper's Figs. 33/34 are flat",
        experiments=("ablation_rack_uplinks",),
        check=_check_uplink_headroom,
        full_size_only=True,
    ),
    Claim(
        name="crash-recovery-bounded",
        description="an interior-relay crash costs replays, one repair "
        "and one reattach, loses nothing for good, restores full "
        "delivery within a second and keeps goodput within 5%",
        experiments=("ablation_node_failure",),
        check=_check_node_failure,
    ),
)


def evaluate_claims(
    store: ResultStore,
    mode: str = "auto",
    claims: Sequence[Claim] = CLAIMS,
    version: Optional[str] = None,
) -> List[ClaimResult]:
    """Check every claim against the store; missing data -> ``SKIP``.

    A ``full_size_only`` claim reads full-sweep tables whatever the
    mode, and ``mode="smoke"`` skips it without looking.
    """
    version = version if version is not None else code_version()
    cache: Dict[Tuple[str, str], Optional[Tuple[Table, ...]]] = {}
    results: List[ClaimResult] = []
    for claim in claims:
        if claim.full_size_only and mode == "smoke":
            results.append(ClaimResult(claim, "SKIP", [
                "full-size-only: not evaluated on smoke tables"
            ]))
            continue
        claim_mode = "full" if claim.full_size_only else mode
        tables: TablesByExperiment = {}
        missing: List[str] = []
        for name in claim.experiments:
            key = (name, claim_mode)
            if key not in cache:
                cache[key] = load_tables(
                    store, REGISTRY[name], mode=claim_mode, version=version
                )
            loaded = cache[key]
            if loaded is None:
                missing.append(name)
            else:
                tables[name] = loaded
        if missing:
            results.append(
                ClaimResult(
                    claim,
                    "SKIP",
                    [
                        f"missing stored results for {', '.join(missing)} "
                        f"(mode={claim_mode}, code_version={version})"
                    ],
                )
            )
            continue
        try:
            ok, details = claim.check(tables)
        except Exception as exc:  # a malformed table is a failure, not a crash
            results.append(
                ClaimResult(claim, "FAIL", [f"check raised: {exc!r}"])
            )
            continue
        results.append(ClaimResult(claim, "PASS" if ok else "FAIL", details))
    return results
