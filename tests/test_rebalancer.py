"""Runtime-rebalancer scenarios: hot-key storm, slow node, and no-ops.

The rebalancer must be three things at once: effective (it migrates
routing off an overloaded worker and goodput recovers), conservative
(the conservation and partition-routing invariants hold in strict mode
throughout — no tuple is lost or duplicated by a migration), and quiet
(below the waterline it never moves anything, and the default system
does not even construct it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.hotkey import CountingSink, ZipfKeySpout
from repro.core import create_system, whale_full_config
from repro.dsps import Topology
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.trace import MemoryTracer
from repro.workloads import PoissonArrivals

PARALLELISM = 8
N_MACHINES = 4
SEED = 5


def _config(rebalance: bool, **overrides):
    base = dict(
        partitioning="fields",
        rebalance=rebalance,
    )
    base.update(overrides)
    return whale_full_config(adaptive=False).with_overrides(**base)


def _storm_system(config, rate=6_000.0, tracer=None, fault_schedule=None):
    topo = Topology("storm")
    topo.add_spout("events", lambda: ZipfKeySpout(n_keys=50, s=1.5, seed=SEED))
    topo.add_bolt(
        "counts",
        lambda: CountingSink(0.5e-3),
        parallelism=PARALLELISM,
        inputs={"events": "fields"},
        terminal=True,
    )
    return create_system(
        topo,
        config,
        cluster=Cluster(N_MACHINES, 1, 16),
        arrivals={"events": PoissonArrivals(rate, np.random.default_rng(SEED))},
        seed=SEED,
        tracer=tracer,
        fault_schedule=fault_schedule,
    )


def _run(system, duration_s=0.4):
    system.attach_checker(mode="strict")
    system.run_measured(0.0, duration_s)
    report = system.checker.finalize()
    assert report.ok, report.summary()
    return system


# ----------------------------------------------------------------------
# the storm scenario: migrate off the hot task, recover goodput
# ----------------------------------------------------------------------
def test_rebalancer_migrates_under_hot_key_storm_and_goodput_recovers():
    """Identical seeded Zipf storm with and without the rebalancer: the
    rebalancer must actually migrate (parking the hot task), keep every
    strict invariant, and deliver at least as many tuples."""
    without = _run(_storm_system(_config(rebalance=False)))
    tracer = MemoryTracer()
    with_reb = _run(_storm_system(_config(rebalance=True), tracer=tracer))

    assert with_reb.rebalancer is not None
    assert with_reb.rebalancer.migrations > 0
    migrates = [r for r in tracer.records if r["kind"] == "rebalance.migrate"]
    assert len(migrates) == with_reb.rebalancer.migrations
    for record in migrates:
        assert record["operator"] == "counts"
        assert record["depth"] >= record["waterline"]

    delivered_without = without.metrics.processed["counts"]
    delivered_with = with_reb.metrics.processed["counts"]
    assert delivered_with >= delivered_without
    # ...and the migration flattened the backlog at the hot task.
    hwm_without = max(
        ex.inqueue_hwm for ex in without.operator_executors("counts")
    )
    hwm_with = max(
        ex.inqueue_hwm for ex in with_reb.operator_executors("counts")
    )
    assert hwm_with < hwm_without


def test_rebalancer_parks_the_slowed_machines_tasks():
    """A slow_node fault makes one machine's executors drain 16x slower
    on top of the hot-key storm; the rebalancer must migrate routing off
    that machine (not only off the hot-key owner)."""
    schedule = FaultSchedule([FaultEvent.slow_node(0.05, 1, 16.0, 0.3)])
    tracer = MemoryTracer()
    system = _run(
        _storm_system(
            _config(rebalance=True),
            tracer=tracer,
            fault_schedule=schedule,
        )
    )
    migrates = [r for r in tracer.records if r["kind"] == "rebalance.migrate"]
    assert migrates
    assert any(r["machine"] == 1 for r in migrates)


def test_rebalancer_restores_a_parked_task_after_it_drains():
    """Run the storm long enough past the burst: a parked task whose
    queue drained below the restore level comes back, emitting
    ``rebalance.restore`` and returning the router to full membership."""
    tracer = MemoryTracer()
    system = _run(
        _storm_system(_config(rebalance=True), tracer=tracer),
        duration_s=1.2,
    )
    rebalancer = system.rebalancer
    assert rebalancer.migrations > 0
    assert rebalancer.restores > 0
    restores = [r for r in tracer.records if r["kind"] == "rebalance.restore"]
    assert len(restores) == rebalancer.restores
    router = system.partition_router
    # active ∪ parked is always exactly the placement, and the active
    # list preserves placement order (the partition_routing invariant,
    # re-checked here at the API level after real migrate/restore churn)
    placed = list(system.placement.tasks_of["counts"])
    active = router.active_tasks("counts")
    parked = router.parked_tasks("counts")
    assert set(active) | set(parked) == set(placed)
    assert not set(active) & set(parked)
    assert active == [t for t in placed if t not in set(parked)]


# ----------------------------------------------------------------------
# the quiet side: no-ops below the waterline
# ----------------------------------------------------------------------
def test_rebalancer_is_a_noop_below_the_waterline():
    """A lightly loaded run never crosses the waterline: zero
    migrations, no rebalance.* records, router membership exactly the
    placement."""
    tracer = MemoryTracer()
    config = _config(rebalance=True)
    system = _run(_storm_system(config, rate=500.0, tracer=tracer))
    assert system.rebalancer.migrations == 0
    assert system.rebalancer.restores == 0
    assert not [
        r for r in tracer.records if r["kind"].startswith("rebalance.")
    ]
    router = system.partition_router
    assert router.active_tasks("counts") == list(
        system.placement.tasks_of["counts"]
    )
    assert router.parked_tasks("counts") == []


def test_default_system_builds_no_rebalancer():
    system = _storm_system(
        whale_full_config(adaptive=False).with_overrides(partitioning="fields")
    )
    assert system.rebalancer is None
    assert system.partition_router is None


# ----------------------------------------------------------------------
# router unit behavior
# ----------------------------------------------------------------------
def test_partition_router_park_and_restore_preserve_placement_order():
    system = _storm_system(_config(rebalance=True))
    router = system.partition_router
    placed = list(system.placement.tasks_of["counts"])
    victim = placed[2]
    router.park("counts", victim)
    assert router.parked_tasks("counts") == [victim]
    assert router.active_tasks("counts") == [
        t for t in placed if t != victim
    ]
    router.restore("counts", victim)
    assert router.active_tasks("counts") == placed
    assert router.parked_tasks("counts") == []


def test_partition_router_refuses_to_park_the_last_task():
    system = _storm_system(_config(rebalance=True))
    router = system.partition_router
    placed = list(system.placement.tasks_of["counts"])
    for task in placed[:-1]:
        router.park("counts", task)
    with pytest.raises(RuntimeError, match="last"):
        router.park("counts", placed[-1])


def test_partition_router_rejects_double_park():
    system = _storm_system(_config(rebalance=True))
    router = system.partition_router
    victim = system.placement.tasks_of["counts"][0]
    router.park("counts", victim)
    with pytest.raises(RuntimeError, match="already parked"):
        router.park("counts", victim)


# ----------------------------------------------------------------------
# the shuffle rewiring regression
# ----------------------------------------------------------------------
def test_shuffle_rotation_survives_in_place_membership_changes():
    """The fixed regression: the shuffle cursor is monotone, so a task
    parked (list mutated in place) and later restored must not restart
    the rotation at index zero or starve any surviving task."""
    from repro.dsps import ShuffleGrouping
    from repro.dsps.tuples import StreamTuple

    grouping = ShuffleGrouping()
    tasks = [10, 11, 12, 13]
    tup = StreamTuple(stream="s", values={})
    for _ in range(5):
        grouping.choose(tup, tasks)
    tasks[:] = [10, 12, 13]  # park 11 in place, as the router does
    picks = [grouping.choose(tup, tasks)[0] for _ in range(6)]
    assert set(picks) == {10, 12, 13}
    assert max(picks.count(t) for t in set(picks)) == 2
    tasks[:] = [10, 11, 12, 13]  # restore
    picks = [grouping.choose(tup, tasks)[0] for _ in range(8)]
    assert set(picks) == {10, 11, 12, 13}
    assert max(picks.count(t) for t in set(picks)) == 2
