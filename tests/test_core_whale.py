"""Tests for the Whale core: monitors and the self-adjusting multicast
controller (including a dynamic-rate scenario)."""

import numpy as np
import pytest

from repro.core import (
    QueueMonitor,
    StreamMonitor,
    create_system,
    whale_full_config,
)
from repro.core.controller import SWITCH_DELAY_S
from repro.dsps import AllGrouping, Bolt, Spout, Topology
from repro.net import Cluster, CostModel
from repro.sim import Simulator, TransferQueue
from repro.workloads import DynamicRateArrivals, RateStep


class NullSpout(Spout):
    def next_tuple(self):
        return {}, None, 100


# ----------------------------------------------------------------------
# StreamMonitor
# ----------------------------------------------------------------------
def test_stream_monitor_alpha_weighting():
    m = StreamMonitor(alpha=0.5)
    assert m.observe(0, 1.0) == 0.0  # first sample: no interval measured yet
    r1 = m.observe(100, 1.0)  # N=100 seeds the EWMA directly
    assert r1 == pytest.approx(100.0)
    r2 = m.observe(300, 1.0)  # N=200 -> 0.5*100 + 0.5*200
    assert r2 == pytest.approx(150.0)
    assert m.rate == pytest.approx(150.0)


def test_stream_monitor_no_cold_start_bias():
    """Regression: seeding the EWMA with 0 instead of the first measured
    N(t) under-reported lambda for ~1/(1-alpha) intervals after start."""
    m = StreamMonitor(alpha=0.6)
    m.observe(0, 1.0)
    rate = 0.0
    # A steady 1000 tuples/s stream: the estimate must converge within a
    # couple of intervals, not climb slowly from zero.
    for i in range(1, 4):
        rate = m.observe(1000 * i, 1.0)
    assert rate == pytest.approx(1000.0)
    # With the old zero seed, three intervals would have reached only
    # 1000 * (1 - alpha^3) = 784.
    m2 = StreamMonitor(alpha=0.6)
    m2.observe(0, 1.0)
    first = m2.observe(1000, 1.0)
    assert first == pytest.approx(1000.0)  # seeded, not 0.4 * 1000


def test_stream_monitor_validation():
    with pytest.raises(ValueError):
        StreamMonitor(alpha=1.0)
    m = StreamMonitor()
    with pytest.raises(ValueError):
        m.observe(10, 0.0)


# ----------------------------------------------------------------------
# QueueMonitor (Section 3.3 rules)
# ----------------------------------------------------------------------
def make_queue(sim, levels):
    q = TransferQueue(sim, capacity=100)
    for _ in range(levels):
        q.try_put("x")
    return q


def test_queue_monitor_scale_down_on_waterline_crossing():
    sim = Simulator()
    q = make_queue(sim, 10)
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.5, t_up=0.5)
    assert mon.sample().action == "hold"  # first sample: no history
    for _ in range(45):
        q.try_put("x")  # 10 -> 55, above l_w
    assert mon.sample().action == "scale_down"


def test_queue_monitor_scale_down_on_fast_growth():
    sim = Simulator()
    q = make_queue(sim, 10)
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.4, t_up=0.5)
    mon.sample()
    for _ in range(20):
        q.try_put("x")  # dL=20, l=30, l_w-l=20 -> ratio 1.0 >= 0.4
    assert mon.sample().action == "scale_down"


def test_queue_monitor_holds_on_slow_growth():
    sim = Simulator()
    q = make_queue(sim, 10)
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.4, t_up=0.5)
    mon.sample()
    q.try_put("x")  # dL=1, l=11 -> 1/39 < 0.4
    assert mon.sample().action == "hold"


def test_queue_monitor_scale_up_on_fast_drain():
    sim = Simulator()
    q = make_queue(sim, 40)
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.4, t_up=0.5)
    mon.sample()

    for _ in range(30):
        q.try_get()
    # dL = 30 drop from l'=40 -> 0.75 >= T_up
    assert mon.sample().action == "scale_up"


def test_queue_monitor_scale_up_on_empty_queue():
    sim = Simulator()
    q = make_queue(sim, 0)
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.4, t_up=0.5)
    mon.sample()
    assert mon.sample().action == "scale_up"  # l == l' == 0


def test_queue_monitor_first_sample_holds():
    sim = Simulator()
    q = make_queue(sim, 80)  # already above the waterline
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.4, t_up=0.5)
    # No history yet: the monitor cannot tell growth from drain.
    assert mon.sample().action == "hold"


def test_queue_monitor_scale_down_when_growth_crosses_waterline_exactly():
    sim = Simulator()
    q = make_queue(sim, 49)
    mon = QueueMonitor(q, warning_waterline=50, t_down=10.0, t_up=0.5)
    mon.sample()
    q.try_put("x")  # 49 -> 50 == l_w: crossing dominates the ratio rule
    assert mon.sample().action == "scale_down"


def test_queue_monitor_no_scale_up_while_above_waterline():
    """Regression: a fast drain that still leaves the queue at/above the
    warning waterline must not trigger scale-up (flapping right after a
    scale-down)."""
    sim = Simulator()
    q = make_queue(sim, 100)
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.4, t_up=0.3)
    mon.sample()

    def drain(n):
        for _ in range(n):
            q.try_get()

    drain(40)
    # dL = -40 from l' = 100 (ratio 0.4 >= T_up) but l = 60 >= l_w.
    assert mon.sample().action == "hold"
    drain(10)
    # l = 50 == l_w: still suppressed — the drain must land strictly
    # below the waterline before scale-up is considered.
    assert mon.sample().action == "hold"
    drain(30)
    # l = 20 < l_w and dL = -30 from l' = 50 -> ratio 0.6 >= T_up.
    assert mon.sample().action == "scale_up"


def test_queue_monitor_steady_nonempty_queue_holds():
    sim = Simulator()
    q = make_queue(sim, 30)
    mon = QueueMonitor(q, warning_waterline=50, t_down=0.4, t_up=0.5)
    mon.sample()
    assert mon.sample().action == "hold"  # l == l' != 0: no signal


def test_queue_monitor_validation():
    sim = Simulator()
    q = make_queue(sim, 0)
    with pytest.raises(ValueError):
        QueueMonitor(q, warning_waterline=0, t_down=0.4, t_up=0.5)
    with pytest.raises(ValueError):
        QueueMonitor(q, warning_waterline=10, t_down=0, t_up=0.5)


# ----------------------------------------------------------------------
# controller end to end: dynamic switching under a rate spike
# ----------------------------------------------------------------------
class Sink(Bolt):
    base_service_s = 1e-6


def adaptive_system(d_star, steps, machines=8, parallelism=32, seed=5,
                    **overrides):
    topo = Topology("dyn")
    topo.add_spout("src", NullSpout)
    topo.add_bolt(
        "sink", Sink, parallelism=parallelism, inputs={"src": AllGrouping()}
    )
    rng = np.random.default_rng(seed)
    # Slow serialization makes the source's capacity small, so a modest
    # spike genuinely overloads it (and the test runs fast).
    costs = CostModel().with_overrides(serialize_per_byte_s=280e-9)
    config = whale_full_config(d_star=d_star, costs=costs).with_overrides(
        monitor_interval_s=0.02,
        transfer_queue_capacity=128,
        **overrides,
    )
    system = create_system(
        topo,
        config,
        cluster=Cluster(machines, 1, 16),
        arrivals={"src": DynamicRateArrivals(steps, rng)},
    )
    return system


def test_controller_attached_only_when_adaptive():
    system = adaptive_system(3, [RateStep(0.0, 500.0)])
    assert len(system.controllers) == 1
    from repro.core import whale_woc_rdma_config

    topo = Topology("t2")
    topo.add_spout("src", NullSpout)
    topo.add_bolt("sink", Sink, parallelism=4, inputs={"src": AllGrouping()})
    nonadaptive = create_system(
        topo, whale_woc_rdma_config(), cluster=Cluster(2, 1, 16)
    )
    assert nonadaptive.controllers == []


def test_controller_scales_down_under_rate_spike():
    """A 20x input spike must trigger negative scale-down, and the
    transfer queue must never exceed its capacity Q afterwards."""
    # Start with a deliberately generous out-degree (deep pipeline OK at
    # low rate), then spike the rate past the source's capacity.
    system = adaptive_system(
        d_star=5,
        steps=[RateStep(0.0, 500.0), RateStep(0.3, 10_000.0)],
    )
    system.run_measured(warmup_s=0.0, measure_s=1.0)
    controller = system.controllers[0]
    downs = [r for r in controller.history if r.direction == "scale_down"]
    assert downs, "no scale-down despite 20x rate spike"
    first = downs[0]
    assert first.time >= 0.3  # only after the spike
    assert first.new_d_star < first.old_d_star
    # The controller's whole point: the queue stayed within capacity.
    src = system.source_executor("src")
    assert src.transfer_queue.stats().max_length <= 128


def test_controller_scales_up_when_rate_drops():
    system = adaptive_system(
        d_star=1,
        steps=[RateStep(0.0, 200.0)],
    )
    system.run_measured(warmup_s=0.0, measure_s=2.0)
    controller = system.controllers[0]
    ups = [r for r in controller.history if r.direction == "scale_up"]
    assert ups, "idle queue should trigger active scale-up"
    assert ups[0].new_d_star > 1


def test_switch_records_have_duration_and_traffic():
    system = adaptive_system(
        d_star=5,
        steps=[RateStep(0.0, 500.0), RateStep(0.3, 10_000.0)],
    )
    system.run_measured(warmup_s=0.0, measure_s=1.0)
    controller = system.controllers[0]
    assert controller.history
    for record in controller.history:
        assert record.duration_s >= SWITCH_DELAY_S
        assert record.duration_s < 0.1  # switching is fast (Fig. 23: ~126ms)
    # Control messages hit the wire.
    assert system.traffic_bytes("control") > 0


def test_double_start_rejected():
    system = adaptive_system(3, [RateStep(0.0, 100.0)])
    system.start()
    controller = system.controllers[0]
    with pytest.raises(RuntimeError):
        controller.start()


def test_switch_posts_nothing_to_a_suspected_machine():
    """A dynamic switch skips the machines the failure detector
    suspects, as tree repair and reattachment do."""
    from repro.core.monitor import FailureDetector

    system = adaptive_system(
        d_star=5,
        steps=[RateStep(0.0, 500.0), RateStep(0.3, 10_000.0)],
    )
    controller = system.controllers[0]
    service = controller.service
    suspect = max(
        service.machine_of(ep)
        for ep in service.endpoints
        if service.machine_of(ep) != service.src_machine
    )
    clock = [0.0]
    detector = FailureDetector(lambda: clock[0], [suspect], 0.1)
    clock[0] = 1.0
    assert detector.sweep() == [suspect]
    controller.detector = detector
    posted = []
    post = system.control_post

    def recording_post(src, dst, payload, cpu, then=None):
        posted.append(dst)
        post(src, dst, payload, cpu, then=then)

    system.control_post = recording_post
    system.run_measured(warmup_s=0.0, measure_s=1.0)
    assert controller.history, "no switch to observe"
    assert posted, "the switch posted no control message"
    assert suspect not in posted


def test_repair_that_meets_a_switch_starts_the_instant_it_ends():
    """Every tree change runs through one FIFO of rounds: a repair that
    meets a running switch waits for it and starts the instant it ends,
    not at a later heartbeat."""
    system = adaptive_system(
        d_star=5, steps=[RateStep(0.0, 500.0)], failure_detection=True
    )
    controller = system.controllers[0]
    service = controller.service
    machine = max(
        service.machine_of(ep)
        for ep in service.endpoints
        if service.machine_of(ep) != service.src_machine
    )
    at, switch_ended = 0.105, []

    def switch_and_repair():
        controller._switch(
            "scale_down", 4, lambda: switch_ended.append(system.sim.now)
        )
        controller._repair(machine, lambda: None)

    system.start()
    system.sim.schedule_call(at, switch_and_repair)
    system.sim.run(until=0.3)
    assert [r.time for r in controller.history if r.time == at] == [at]
    assert switch_ended and switch_ended[0] > at
    repairs = [r for r in controller.repairs if r.action == "repair"]
    assert [r.time for r in repairs] == [switch_ended[0]]
