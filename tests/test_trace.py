"""Tests for the tuple-lifecycle tracing subsystem (repro.trace):
tracer filtering, JSONL round-trip, replay exactness against the live
MetricsHub, the rewire audit log, and the two CLIs."""

import json

import numpy as np
import pytest

from repro.core import create_system, whale_full_config
from repro.dsps import AllGrouping, Bolt, Spout, Topology
from repro.dsps.metrics import LatencySummary
from repro.net import Cluster, CostModel
from repro.sim import SimulationError, Simulator
from repro.trace import (
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    MemoryTracer,
    load_trace,
    replay,
    run_manifest,
    summarize,
)
from repro.workloads import DynamicRateArrivals, PoissonArrivals, RateStep


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------
def test_memory_tracer_records_in_order():
    tr = MemoryTracer()
    tr.emit("queue.put", 0.5, queue="q", level=1)
    tr.emit("tuple.emit", 1.0, id=7)
    assert [r["kind"] for r in tr.records] == ["queue.put", "tuple.emit"]
    assert tr.records[0] == {"kind": "queue.put", "t": 0.5, "queue": "q", "level": 1}
    assert tr.records_emitted == 2


def test_tracer_category_filtering():
    tr = MemoryTracer(categories={"switch"})
    tr.emit("queue.put", 0.0, level=1)
    tr.emit("switch.rewire", 1.0, node=3)
    assert [r["kind"] for r in tr.records] == ["switch.rewire"]
    assert not tr.wants("net.deliver")
    assert tr.wants("switch.begin")


def test_default_categories_exclude_engine_firehose():
    assert "sim" not in DEFAULT_CATEGORIES
    assert "sim" in ALL_CATEGORIES
    tr = MemoryTracer()  # defaults
    tr.emit("sim.step", 0.0, event="Worker.deliver")
    assert tr.records == []
    everything = MemoryTracer(categories=None)
    everything.emit("sim.step", 0.0, event="Worker.deliver")
    assert len(everything.records) == 1


def test_sim_step_tracing_opt_in():
    sim = Simulator()
    sim.tracer = MemoryTracer(categories=ALL_CATEGORIES)

    def tick():
        pass

    sim.schedule_call(0.5, tick)
    sim.run()
    steps = [r for r in sim.tracer.records if r["kind"] == "sim.step"]
    assert len(steps) == 1 and steps[0]["t"] == 0.5
    # Each record names the callback its step ran.
    assert steps[0]["event"] == tick.__qualname__
    # With default categories the same run records nothing.
    sim2 = Simulator()
    sim2.tracer = MemoryTracer()
    sim2.schedule_call(0.5, tick)
    sim2.run()
    assert sim2.tracer.records == []


def test_jsonl_tracer_manifest_first_line(tmp_path):
    path = tmp_path / "run.jsonl"
    cfg = whale_full_config()
    with JsonlTracer(str(path), manifest=run_manifest(config=cfg, seed=7)):
        pass
    first = json.loads(path.read_text().splitlines()[0])
    assert first["kind"] == "manifest"
    assert first["schema"] == TRACE_SCHEMA_VERSION
    assert first["seed"] == 7
    assert first["config"]["name"] == "whale"
    assert first["config"]["multicast"] == "nonblocking"


def test_load_trace_splits_manifest(tmp_path):
    path = tmp_path / "run.jsonl"
    with JsonlTracer(str(path), manifest=run_manifest(seed=1)) as tr:
        tr.emit("tuple.emit", 0.0, id=1, operator="src", task=0)
    manifest, records = load_trace(str(path))
    assert manifest is not None and manifest["seed"] == 1
    assert len(records) == 1 and records[0]["kind"] == "tuple.emit"


# ----------------------------------------------------------------------
# Satellite guards: empty-queue step, zero-duration window
# ----------------------------------------------------------------------
def test_step_on_empty_queue_raises_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_zero_duration_window_throughput_is_zero():
    from repro.dsps import MetricsHub

    hub = MetricsHub(Simulator())
    hub.open_window()
    hub.on_processed("op")
    hub.close_window()  # same instant: duration == 0
    assert hub.throughput("op") == 0.0
    assert hub.emit_rate("op") == 0.0


# ----------------------------------------------------------------------
# End-to-end: trace a run, replay it, cross-check the live MetricsHub
# ----------------------------------------------------------------------
class TelemetrySpout(Spout):
    def next_tuple(self):
        return {}, None, 150


class WatcherBolt(Bolt):
    base_service_s = 5e-6


def traced_system(tracer, parallelism=16, machines=4, rate=1500.0, seed=3):
    topo = Topology("traced")
    topo.add_spout("sensors", TelemetrySpout)
    topo.add_bolt(
        "watchers",
        WatcherBolt,
        parallelism=parallelism,
        inputs={"sensors": AllGrouping()},
        terminal=True,
    )
    return create_system(
        topo,
        whale_full_config(adaptive=False),
        cluster=Cluster(machines, 1, 16),
        arrivals={"sensors": PoissonArrivals(rate, np.random.default_rng(seed))},
        tracer=tracer,
    )


def test_replay_matches_live_metrics_exactly(tmp_path):
    """The acceptance bar: window throughput and multicast p50/p99
    reconstructed from the JSONL trace alone equal the live MetricsHub
    figures exactly (same events, same timestamps, same arithmetic)."""
    path = tmp_path / "run.jsonl"
    tracer = JsonlTracer(
        str(path), manifest=run_manifest(config=whale_full_config(), seed=3)
    )
    system = traced_system(tracer)
    metrics = system.run_measured(warmup_s=0.1, measure_s=0.5)
    tracer.close()

    manifest, records = load_trace(str(path))
    assert manifest is not None
    replayed = replay(records)

    # Window bounds round-trip exactly through JSON.
    assert replayed.window_duration == metrics.window_duration
    # Per-operator emit and processed counts, hence throughput, exact.
    for op in ("sensors", "watchers"):
        assert replayed.emitted[op] == metrics.emitted[op]
        assert replayed.processed[op] == metrics.processed[op]
        assert replayed.throughput(op) == metrics.throughput(op)
        assert replayed.emit_rate(op) == metrics.emit_rate(op)
    assert metrics.processed["watchers"] > 0

    # Latency samples are identical float-for-float, so every percentile
    # matches exactly — not approximately.
    assert replayed.multicast_latencies == metrics.multicast.latencies
    assert replayed.multicast_completed == metrics.multicast.completed
    live_mc = metrics.multicast.summary()
    rep_mc = LatencySummary.from_samples(replayed.multicast_latencies)
    assert rep_mc.count == live_mc.count > 0
    assert rep_mc.p50 == live_mc.p50
    assert rep_mc.p99 == live_mc.p99

    assert replayed.completion_latencies == metrics.completion.latencies
    assert replayed.completion_completed == metrics.completion.completed
    live_cp = metrics.completion.summary()
    rep_cp = LatencySummary.from_samples(replayed.completion_latencies)
    assert rep_cp.count == live_cp.count > 0
    assert rep_cp.p50 == live_cp.p50
    assert rep_cp.p99 == live_cp.p99


def test_tracing_records_cover_tuple_lifecycle(tmp_path):
    tracer = MemoryTracer()
    system = traced_system(tracer, parallelism=8, machines=2, rate=500.0)
    system.run_measured(warmup_s=0.05, measure_s=0.2)
    kinds = {r["kind"] for r in tracer.records}
    for expected in (
        "tuple.emit",
        "mc.register",
        "queue.put",
        "queue.get",
        "net.serialize",
        "net.post",
        "net.deliver",
        "worker.dispatch",
        "tuple.execute",
        "metrics.window",
    ):
        assert expected in kinds, f"missing {expected} (saw {sorted(kinds)})"
    # Timestamps never decrease along the trace.
    times = [r["t"] for r in tracer.records]
    assert times == sorted(times)


def test_disabled_tracing_leaves_no_tracer_attached():
    system = traced_system(None, parallelism=4, machines=2, rate=200.0)
    assert system.tracer is None
    metrics = system.run_measured(warmup_s=0.02, measure_s=0.1)
    assert metrics.completion.completed > 0  # runs fine without hooks


# ----------------------------------------------------------------------
# Rewire audit log from an adaptive (dynamic-switching) run
# ----------------------------------------------------------------------
def adaptive_traced_system(tracer, seed=5):
    topo = Topology("dyn")
    topo.add_spout("src", TelemetrySpout)
    topo.add_bolt(
        "sink", WatcherBolt, parallelism=32, inputs={"src": AllGrouping()}
    )
    costs = CostModel().with_overrides(serialize_per_byte_s=280e-9)
    config = whale_full_config(d_star=5, costs=costs).with_overrides(
        monitor_interval_s=0.02,
        transfer_queue_capacity=128,
    )
    return create_system(
        topo,
        config,
        cluster=Cluster(8, 1, 16),
        arrivals={
            "src": DynamicRateArrivals(
                [RateStep(0.0, 500.0), RateStep(0.3, 10_000.0)],
                np.random.default_rng(seed),
            )
        },
        tracer=tracer,
    )


def test_every_applied_rewire_appears_in_trace():
    tracer = MemoryTracer()
    system = adaptive_traced_system(tracer)
    system.run_measured(warmup_s=0.0, measure_s=1.0)
    controller = system.controllers[0]
    assert controller.history, "scenario must trigger at least one switch"
    rewires = [r for r in tracer.records if r["kind"] == "switch.rewire"]
    assert len(rewires) == sum(r.n_ops for r in controller.history)
    begins = [r for r in tracer.records if r["kind"] == "switch.begin"]
    ends = [r for r in tracer.records if r["kind"] == "switch.end"]
    assert len(begins) == len(ends) == len(controller.history)
    # Each rewire is stamped at its switch's apply time (inside the
    # corresponding begin/end span) and names both endpoints of the move.
    spans = [
        (b["t"], e["t"]) for b, e in zip(begins, ends)
    ]
    for op in rewires:
        assert any(lo <= op["t"] <= hi for lo, hi in spans)
        assert op["old_parent"] != op["new_parent"]
        assert op["direction"] in ("scale_down", "scale_up")
    # Monitor decisions and d* recomputations were also traced.
    assert any(r["kind"] == "monitor.sample" for r in tracer.records)
    assert any(r["kind"] == "controller.dstar" for r in tracer.records)


def test_apply_plan_traces_rewires():
    from repro.multicast import MulticastTree, plan_switch
    from repro.multicast.switching import apply_plan

    tree = MulticastTree()
    for i in range(6):
        tree.add(i, tree.root)  # flat: out-degree 6 at the source
    new_tree, plan = plan_switch(tree, 2)
    assert plan.n_ops > 0
    tracer = MemoryTracer()
    apply_plan(tree, plan, tracer=tracer, now=1.25)
    ops = [r for r in tracer.records if r["kind"] == "switch.rewire"]
    assert len(ops) == plan.n_ops
    assert all(r["t"] == 1.25 for r in ops)


# ----------------------------------------------------------------------
# CLI: trace summary + bench runner
# ----------------------------------------------------------------------
def make_trace_file(tmp_path):
    path = tmp_path / "run.jsonl"
    tracer = JsonlTracer(
        str(path), manifest=run_manifest(config=whale_full_config(), seed=3)
    )
    system = traced_system(tracer, parallelism=8, machines=2, rate=500.0)
    system.run_measured(warmup_s=0.05, measure_s=0.2)
    tracer.close()
    return path


def test_trace_cli_summary(tmp_path, capsys):
    from repro.trace.__main__ import main

    path = make_trace_file(tmp_path)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "variant=whale" in out
    assert "tuple lifecycle" in out
    assert "multicast latency" in out

    manifest, records = load_trace(str(path))
    some_id = next(r["id"] for r in records if r["kind"] == "mc.register")
    assert main([str(path), "--tuple", str(some_id)]) == 0
    out = capsys.readouterr().out
    assert f"tuple {some_id}:" in out
    assert "worker.dispatch" in out
    assert "'tasks': [" in out and "'done': " in out

    assert main([str(path), "--rewires"]) == 0
    assert "no rewire operations" in capsys.readouterr().out


def test_trace_cli_rejects_another_schema(tmp_path, capsys):
    """A trace written under another record schema (schema 1 kept one
    ``worker.dispatch`` per copy) ends the CLI with exit 1 and a message
    naming both schemas, not a traceback."""
    from repro.trace.__main__ import main

    path = tmp_path / "old.jsonl"
    path.write_text(
        json.dumps({"kind": "manifest", "t": 0.0, "schema": 1}) + "\n"
        + json.dumps({"kind": "worker.dispatch", "t": 0.1, "id": 1,
                      "task": 3, "machine": 0}) + "\n"
    )
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert f"trace schema 1; this reader reads {TRACE_SCHEMA_VERSION}" in err


def test_trace_cli_exits_cleanly_into_a_closed_pipe(tmp_path):
    """``python -m repro.trace RUN.jsonl | head``: a reader that closes
    early ends the CLI with exit 0 and no traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "run.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(5000):  # far more output than a pipe buffers
            fh.write(json.dumps({
                "kind": "switch.rewire", "t": i * 1e-3,
                "direction": "scale_down", "node": ["w", i],
                "old_parent": "S", "new_parent": ["w", i + 1],
            }) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "repro.trace", str(path), "--rewires"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"t=0.0000s")
        proc.stdout.close()  # the reader goes away, as `head` does
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr


def test_trace_summary_spans(tmp_path):
    path = make_trace_file(tmp_path)
    manifest, records = load_trace(str(path))
    summary = summarize(records, manifest)
    assert summary.complete_spans, "expected fully-received tuples"
    span = summary.complete_spans[0]
    assert span.n_destinations == 8
    assert span.n_received == 8
    assert span.multicast_latency is not None and span.multicast_latency > 0


def test_run_app_with_trace(tmp_path):
    from repro.bench.runner import run_app
    from repro.core import whale_woc_config

    path = tmp_path / "bench.jsonl"
    run = run_app(
        "stocks", whale_woc_config(), 4, n_machines=4, offered_rate=300.0,
        tuple_budget=40, trace_path=str(path),
    )
    assert run.trace_path == str(path)
    manifest, records = load_trace(str(path))
    assert manifest["app"] == "stocks"
    assert manifest["config"]["name"] == "whale-woc"
    replayed = replay(records)
    assert replayed.window_duration > 0
