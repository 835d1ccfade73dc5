"""Worker receive-path edge cases."""

import numpy as np
import pytest

from repro.core import create_system, whale_full_config
from repro.dsps import (
    AllGrouping, Bolt, DspsSystem, ShuffleGrouping, Spout, Topology,
    storm_config,
)
from repro.dsps.tuples import StreamTuple
from repro.faults import FaultSchedule
from repro.net import Cluster
from repro.workloads import ConstantArrivals, PoissonArrivals


class OneSpout(Spout):
    def next_tuple(self):
        return {}, None, 100


class SinkBolt(Bolt):
    pass


def make_system():
    topo = Topology("t")
    topo.add_spout("src", OneSpout)
    topo.add_bolt("sink", SinkBolt, parallelism=4, inputs={"src": ShuffleGrouping()})
    return DspsSystem(
        topo,
        storm_config(),
        cluster=Cluster(2, 1, 16),
        arrivals={"src": ConstantArrivals(100.0)},
    )


def test_dispatch_to_unhosted_task_raises():
    system = make_system()
    worker = system.workers[0]
    tup = StreamTuple(stream="s", values={}, payload_bytes=10)
    with pytest.raises(LookupError):
        worker.dispatch(tup, [9999])


def test_workers_host_only_their_tasks():
    system = make_system()
    for machine_id, worker in system.workers.items():
        for task_id in worker.executors:
            assert system.placement.machine_of[task_id] == machine_id


def test_control_messages_ignored_without_handler():
    """A control message with no registered handler is dropped, not a
    crash (non-adaptive systems never install one)."""
    from repro.net.cpu import CpuAccount

    system = make_system()
    system.start()
    cpu = CpuAccount(system.sim, "test")
    system.sim.call_soon(
        lambda: system.control_post(0, 1, {"op": "noop"}, cpu)
    )
    system.sim.run(until=0.05)  # must not raise
    assert system.workers[1].messages_received >= 1


def test_worker_counts_dispatches():
    system = make_system()
    system.run_measured(warmup_s=0.0, measure_s=0.5)
    total = sum(w.dispatched for w in system.workers.values())
    assert total == pytest.approx(system.metrics.emitted["src"], abs=2)


class LightSink(Bolt):
    base_service_s = 20e-6


def _sliced_fanout(machine, faults=None):
    """A fan-out over six machines with stream slicing on (so packets
    arrive in groups); returns ``(system, instants at which the worker
    of `machine` dispatched a packet)``."""
    topo = Topology("sliced-fanout")
    topo.add_spout("src", OneSpout)
    topo.add_bolt("sink", LightSink, parallelism=24,
                  inputs={"src": AllGrouping()}, terminal=True)
    system = create_system(
        topo,
        whale_full_config(adaptive=False),
        cluster=Cluster(6, 1, 16),
        arrivals={"src": PoissonArrivals(8000.0, np.random.default_rng(1))},
        seed=1,
        fault_schedule=faults,
    )
    worker = system.workers[machine]
    dispatched = []
    dispatch = worker.dispatch

    def record(tup, tasks):
        dispatched.append(system.sim.now)
        dispatch(tup, tasks)

    worker.dispatch = record
    system.start()
    system.sim.run(until=0.02)
    return system, dispatched


@pytest.mark.faults
def test_a_crash_ends_the_packet_group_being_received():
    """A machine that crashes while its receive thread deserializes one
    packet of a sliced group dispatches and relays none of the group's
    remaining packets, as a message that arrives after the crash is
    dropped by the receive itself."""
    machine = 2
    _, dispatched = _sliced_fanout(machine)
    # Packets of one group are dispatched one deserialization apart.
    gaps = np.diff(dispatched)
    burst = next(i for i in range(len(gaps) - 2)
                 if dispatched[i] > 0.005 and max(gaps[i:i + 3]) < 20e-6)
    crash_at = (dispatched[burst] + dispatched[burst + 1]) / 2
    recover_at = crash_at + 0.005
    system, dispatched = _sliced_fanout(
        machine, FaultSchedule.single_crash(machine, crash_at, recover_at))
    assert dispatched[burst] < crash_at
    assert [t for t in dispatched if crash_at < t < recover_at] == []
    assert dispatched[-1] > recover_at  # the machine works again
