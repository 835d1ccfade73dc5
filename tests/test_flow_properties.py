"""Property-based testing of the overload-protection layer.

Hypothesis draws burst shapes, credit windows, shed policies, and
delivery modes; every drawn scenario runs strict-checked (so the
``bounded_queues`` and ``shed_conservation`` invariants fire on every
trace record) and must additionally satisfy the end-state properties
asserted here: queues never exceed their configured bounds, every
offered message is accounted for, and the run is bit-identical when
repeated with the same draw.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_system, whale_full_config
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.dsps import AllGrouping, Topology

from tests._check_util import RecordingBolt, SeqSpout, finite_arrivals

pytestmark = pytest.mark.faults

END_TO_END = settings(max_examples=10, deadline=None)


def _flow_config(delivery, credit_window, shed_policy, capacity):
    extra = {}
    if delivery != "at_most_once":
        extra = dict(
            ack_timeout_s=0.1, ack_sweep_interval_s=0.02,
            max_replays=6, epoch_interval_s=0.05,
        )
    return whale_full_config(adaptive=False).with_overrides(
        name=f"prop-flow-{delivery}",
        delivery=delivery,
        flow=True,
        credit_window=credit_window,
        shed_policy=shed_policy,
        transfer_queue_capacity=capacity,
        **extra,
    )


def _run_scenario(config, seed, magnitude, parallelism):
    log = []

    def factory():
        bolt = RecordingBolt(log)
        bolt.base_service_s = 2e-4
        return bolt

    topo = Topology("prop-flow")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt(
        "sink", factory, parallelism=parallelism,
        inputs={"src": AllGrouping()}, terminal=True,
    )
    system = create_system(
        topo,
        config,
        cluster=Cluster(3, 1, 16),
        arrivals={"src": finite_arrivals(0.001, 100_000)},
        seed=seed,
        fault_schedule=FaultSchedule(
            [FaultEvent.flash_crowd(0.05, magnitude, 0.15)]
        ),
    )
    system.attach_checker(mode="strict")
    system.run_measured(0.0, 0.3, drain_s=0.5)
    report = system.checker.finalize()
    assert report.ok, report.summary()
    return system, tuple(log)


@END_TO_END
@given(
    delivery=st.sampled_from(["at_most_once", "at_least_once"]),
    credit_window=st.integers(min_value=2, max_value=32),
    shed_policy=st.sampled_from(["drop_tail", "drop_head", "random"]),
    capacity=st.sampled_from([2, 8, 64]),
    magnitude=st.sampled_from([2.0, 6.0, 15.0]),
    parallelism=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_flow_bounds_queues_and_conserves_messages(
    delivery, credit_window, shed_policy, capacity, magnitude,
    parallelism, seed,
):
    config = _flow_config(delivery, credit_window, shed_policy, capacity)
    system, _ = _run_scenario(config, seed, magnitude, parallelism)

    flow = system.flow
    metrics = system.metrics
    for ex in system.executors.values():
        # credits cap what a sender may put in flight toward one inqueue
        inqueue = getattr(ex, "inqueue", None)
        if inqueue is not None:
            assert getattr(ex, "inqueue_hwm", 0) <= inqueue.capacity
        q = getattr(ex, "transfer_queue", None)
        if q is not None:
            assert q.max_length <= q.capacity
            # accepted splits exactly into the terminal dispositions
            assert q.accepted == (
                q.dequeued + q.cleared + q.shed + q.level
            )
    # flow / metrics / queue views of shedding agree
    assert metrics.messages_shed == flow.shed_refusals + flow.shed_evictions
    assert metrics.messages_deferred == flow.deferred
    total_evicted = sum(
        ex.transfer_queue.shed
        for ex in system.executors.values()
        if getattr(ex, "transfer_queue", None) is not None
    )
    assert total_evicted == flow.shed_evictions
    if delivery == "at_least_once":
        # reliable spouts defer-and-nack; they never shed
        assert metrics.messages_shed == 0


@END_TO_END
@given(
    delivery=st.sampled_from(["at_most_once", "at_least_once"]),
    shed_policy=st.sampled_from(["drop_tail", "drop_head", "random"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_flow_runs_are_bit_identical_per_seed(delivery, shed_policy, seed):
    def fingerprint():
        config = _flow_config(delivery, 6, shed_policy, 4)
        system, log = _run_scenario(config, seed, 10.0, 4)
        return (
            log,
            system.flow.snapshot(),
            system.metrics.messages_shed,
            system.metrics.messages_deferred,
            system.sim.now,
        )

    assert fingerprint() == fingerprint()
