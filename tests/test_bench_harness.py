"""Tests for the bench harness: report rendering, the runner at small
scale, and the experiment registry."""

import math
import os

import pytest

from repro.bench import Series, Table, downstream_service_estimate, run_app
from repro.bench.report import _fmt
from repro.core import whale_full_config
from repro.dsps import storm_config


# ----------------------------------------------------------------------
# Table / Series
# ----------------------------------------------------------------------
def test_table_render_alignment_and_notes():
    t = Table("T", ["a", "bb"], notes=[])
    t.add(1, 2.5)
    t.add(10, 3.14159)
    t.note("hello")
    out = t.render()
    lines = out.splitlines()
    assert lines[0] == "== T =="
    assert "a" in lines[1] and "bb" in lines[1]
    assert lines[-1] == "note: hello"
    assert len(lines) == 6


def test_table_rejects_wrong_arity():
    t = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        t.add(1)


def test_table_save(tmp_path):
    t = Table("T", ["x"])
    t.add(42)
    path = t.save("mytable", directory=str(tmp_path))
    assert os.path.exists(path)
    assert "42" in open(path).read()


def test_table_to_dict_from_dict_roundtrip():
    t = Table("T", ["x", "y"])
    t.add(1, 2.5)
    t.add(2, float("inf"))
    t.note("a note")
    data = t.to_dict()
    assert data["title"] == "T"
    assert data["headers"] == ["x", "y"]
    assert data["notes"] == ["a note"]
    back = Table.from_dict(data)
    assert back.to_dict() == data
    assert back.render() == t.render()


def test_table_to_dict_coerces_numpy_scalars():
    import numpy as np

    t = Table("T", ["x"])
    t.add(np.float64(1.5))
    t.add(np.int64(3))
    rows = t.to_dict()["rows"]
    assert rows == [[1.5], [3]]
    assert type(rows[0][0]) is float and type(rows[1][0]) is int


def test_table_save_json(tmp_path):
    import json

    t = Table("T", ["x"])
    t.add(42)
    path = t.save_json("mytable", directory=str(tmp_path))
    assert path.endswith("mytable.json")
    with open(path) as fh:
        assert json.load(fh) == t.to_dict()


def test_fmt_scales():
    assert _fmt(0) in ("0", "0.0", "0")
    assert _fmt(1234.5) == "1,234"
    assert _fmt(42.0) == "42.0"
    assert _fmt(0.5) == "0.500"
    assert "e" in _fmt(1e-6)
    assert _fmt("txt") == "txt"


def test_series():
    s = Series("x")
    s.add(1.0, 2.0)
    s.add(2.0, 3.0)
    assert (s.x, s.y) == ([1.0, 2.0], [2.0, 3.0])


# ----------------------------------------------------------------------
# downstream service estimates
# ----------------------------------------------------------------------
def test_downstream_estimate_decreases_with_parallelism():
    for app in ("ridehailing", "stocks"):
        hi = downstream_service_estimate(app, 120)
        lo = downstream_service_estimate(app, 480)
        assert lo < hi


def test_downstream_estimate_unknown_app():
    with pytest.raises(ValueError):
        downstream_service_estimate("weather", 100)


# ----------------------------------------------------------------------
# run_app at small scale
# ----------------------------------------------------------------------
def test_run_app_ridehailing_smoke():
    run = run_app(
        "ridehailing",
        storm_config(),
        parallelism=16,
        n_machines=4,
        tuple_budget=150,
    )
    assert run.app == "ridehailing"
    assert run.variant == "storm"
    assert run.throughput > 0
    assert run.broadcast_tuples > 0
    assert run.data_bytes > 0
    assert 0 <= run.source_util <= 1
    assert run.traffic_per_10k_tuples > 0
    assert not math.isnan(run.processing_latency.p50)
    assert run.system is None  # not kept by default


def test_run_app_stocks_smoke():
    run = run_app(
        "stocks",
        whale_full_config(),
        parallelism=16,
        n_machines=4,
        tuple_budget=150,
    )
    assert run.throughput > 0
    assert run.multicast_latency.count > 0


def test_run_app_unknown_app():
    with pytest.raises(ValueError):
        run_app("weather", storm_config(), 8)


def test_run_app_keep_system():
    run = run_app(
        "ridehailing",
        storm_config(),
        parallelism=8,
        n_machines=2,
        tuple_budget=100,
        keep_system=True,
    )
    assert run.system is not None
    assert run.system.metrics.processed["matching"] > 0


def test_run_app_fixed_rate_respected():
    run = run_app(
        "ridehailing",
        whale_full_config(),
        parallelism=8,
        n_machines=2,
        offered_rate=300.0,
        tuple_budget=100,
    )
    assert run.offered_rate == 300.0
    # Well below capacity: everything completes, no loss.
    assert run.drops == 0
    assert run.throughput == pytest.approx(300.0, rel=0.25)


def test_run_app_point_is_pinned():
    """Exact observables of one small point, recorded before the
    measurement window moved inline into ``run_app``: the window must
    still span exactly ``measure_s`` and count the same work."""
    from repro.core import whale_woc_config

    run = run_app(
        "stocks", whale_woc_config(), 4, n_machines=4, offered_rate=300.0,
        tuple_budget=40, seed=42,
    )
    assert run.throughput == 67.5
    assert run.processing_latency.p50 == 0.07794294671909378
    assert run.processing_latency.p99 == 0.10512798589158659
    assert run.drops == 0
    assert run.data_bytes == 18860


# ----------------------------------------------------------------------
# experiment registry
# ----------------------------------------------------------------------
def test_experiment_registry_covers_every_figure():
    from repro.exp.registry import SPECS

    expected = {
        "fig02", "fig03", "fig11", "fig12", "fig13_14", "fig15_16",
        "fig17_18_21", "fig19_20_22", "fig23_24", "fig25_26", "fig27_28",
        "fig29_30", "fig31_32", "fig33_34", "table2",
    }
    figures = [s for s in SPECS if s.category == "figure"]
    assert {s.name for s in figures} == expected
    assert all(
        s.fn_ref.startswith("repro.bench.experiments:")
        and callable(s.resolve())
        for s in figures
    )
