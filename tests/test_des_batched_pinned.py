"""Pinned DES observables of untraced ``at_most_once`` ride-hailing runs.

The matching bolts have a downstream edge and the aggregators are
terminal sinks, so these runs exercise every bolt dispatch mode an
untraced run without reliability or flow can take, with and without a
machine crash.  Two runs cover the multicast data plane's other paths:
``rdmc`` relays instance-level packets down a binomial tree over
``("t", task)`` endpoints, and ``whale_adaptive`` drives the request
spout hard enough that the controller switches d* inside the horizon,
so the source pauses on the switch and sends its control messages over
the transport.  ``tests/data/des_batched_small.json`` holds what the
simulator computes for each run; a change to the dispatch machinery
that is not meant to move simulated results must reproduce every value
bit for bit.

Each run stops its spouts at the horizon and drains to idle before the
observables are read, so CPU charged at a service start or at its end
sums to the same float.

Regenerate the data file (only when a change is *meant* to move these
values, and say why in the change description) with::

    PYTHONPATH=src python -m tests.test_des_batched_pinned
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import ride_hailing_topology
from repro.core import create_system, whale_full_config, whale_woc_rdma_config
from repro.dsps import storm_config
from repro.dsps.presets import rdmc_config
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.workloads import PoissonArrivals

pytestmark = pytest.mark.faults

PINNED = Path(__file__).with_name("data") / "des_batched_small.json"
SEED = 3
PARALLELISM = 12
N_MACHINES = 4
REQUEST_RATE = 4000.0
#: ``whale_adaptive`` only: fills the source's transfer queue past the
#: warning waterline within two monitor intervals
ADAPTIVE_REQUEST_RATE = 50000.0
ADAPTIVE_MONITOR_INTERVAL_S = 0.02
DRIVER_RATE = 1000.0
HORIZON_S = 0.1
DRAIN_S = 0.1
#: crashed at 0.03 s, back at 0.07 s; hosts no multicast source
CRASHED_MACHINE = 3

CONFIGS = {
    "whale_full": lambda: whale_full_config(adaptive=False),
    "whale_woc_rdma": whale_woc_rdma_config,
    "storm": storm_config,
    "rdmc": rdmc_config,
    "whale_adaptive": lambda: whale_full_config(
        adaptive=True, monitor_interval_s=ADAPTIVE_MONITOR_INTERVAL_S
    ),
}
FAULTS = {
    "no_fault": lambda: None,
    "crash": lambda: FaultSchedule([
        FaultEvent.crash(0.03, CRASHED_MACHINE),
        FaultEvent.recover(0.07, CRASHED_MACHINE),
    ]),
}
RUNS = [(config, fault) for config in CONFIGS for fault in FAULTS]


def run_pinned(config_name, fault_name):
    """Run one pinned scenario to idle; returns the system."""
    rng = np.random.default_rng(SEED)
    request_rate = (
        ADAPTIVE_REQUEST_RATE if config_name == "whale_adaptive"
        else REQUEST_RATE
    )
    system = create_system(
        ride_hailing_topology(
            PARALLELISM, n_drivers=2000, compute_real_matches=False
        ),
        CONFIGS[config_name](),
        cluster=Cluster(N_MACHINES, 1, 16),
        arrivals={
            "requests": PoissonArrivals(request_rate, rng),
            "driver_locations": PoissonArrivals(DRIVER_RATE, rng),
        },
        seed=SEED,
        fault_schedule=FAULTS[fault_name](),
    )
    sources = {service.src_machine for service in system.multicast_services}
    assert CRASHED_MACHINE not in sources
    sim = system.sim
    system.start()
    system.metrics.open_window()
    sim.run(until=HORIZON_S)
    system.metrics.close_window()
    for spout in system.spout_executors:
        spout.stop()
    sim.run(until=HORIZON_S + DRAIN_S)
    system.metrics.flush()
    return system


def observables(system):
    """Everything the pinned data file records for one run."""
    metrics = system.metrics
    accounts = (
        [worker.cpu for worker in system.workers.values()]
        + [ex.cpu for ex in system.executors.values()]
        + [controller.cpu for controller in system.controllers]
    )
    bolts = [ex for ex in system.executors.values() if not ex.is_spout]
    return {
        "completion_latencies": sorted(metrics.completion.latencies),
        "multicast_latencies": sorted(metrics.multicast.latencies),
        "sink_latencies": {
            op: sorted(values)
            for op, values in sorted(metrics.sink_latencies.items())
        },
        "busy_s": {
            acc.name: dict(sorted(acc.busy_s.items())) for acc in accounts
        },
        "processed": [ex.processed for ex in bolts],
        "inqueue_hwm": [ex.inqueue_hwm for ex in bolts],
        "dropped": dict(sorted(metrics.dropped.items())),
        "messages_received": [
            system.workers[m].messages_received for m in sorted(system.workers)
        ],
        "switches": [
            [controller.service.src_task, record.time, record.old_d_star,
             record.new_d_star]
            for controller in system.controllers
            for record in controller.history
        ],
    }


@pytest.mark.parametrize("config_name,fault_name", RUNS)
def test_batched_run_matches_pinned_values(config_name, fault_name):
    system = run_pinned(config_name, fault_name)
    got = observables(system)
    expected = json.loads(PINNED.read_text())[f"{config_name}/{fault_name}"]
    assert set(got) == set(expected)
    for key, value in expected.items():
        if key != "busy_s":
            assert got[key] == value, key
    assert set(got["busy_s"]) == set(expected["busy_s"])
    for name, busy in expected["busy_s"].items():
        assert got["busy_s"][name] == busy, name


@pytest.mark.parametrize("fault_name", list(FAULTS))
def test_adaptive_run_switches_inside_the_horizon(fault_name):
    """The pinned adaptive runs must keep exercising a paused source."""
    switches = observables(run_pinned("whale_adaptive", fault_name))["switches"]
    assert any(time < HORIZON_S for _task, time, _old, _new in switches)


def _regenerate():
    runs = {
        f"{config}/{fault}": observables(run_pinned(config, fault))
        for config, fault in RUNS
    }
    PINNED.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")


if __name__ == "__main__":
    _regenerate()
