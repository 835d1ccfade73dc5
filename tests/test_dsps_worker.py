"""Worker receive-path edge cases."""

import pytest

from repro.dsps import Bolt, DspsSystem, ShuffleGrouping, Spout, Topology, storm_config
from repro.dsps.tuples import StreamTuple
from repro.net import Cluster
from repro.workloads import ConstantArrivals


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
