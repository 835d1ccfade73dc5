"""End-to-end tests for ``python -m repro.exp`` and the suite layer."""

import json
import os

from repro.exp.cli import main
from repro.exp.registry import REGISTRY, ExperimentSpec
from repro.exp.store import ResultStore
from repro.exp.suite import (
    build_tasks,
    coverage,
    render_experiment,
    run_suite,
)
from tests.test_exp_claims import VERSION as CLAIMS_VERSION
from tests.test_exp_claims import _populate_all, _put, _endtoend_tables

TOY = ExperimentSpec(
    name="toy",
    fn_ref="tests._exp_toy:toy_experiment",
    sweep_param="values",
    sweep_values=(1, 2, 3),
    smoke_values=(1,),
    seed=5,
    timeout_s=30.0,
)


# ----------------------------------------------------------------------
# CLI: run
# ----------------------------------------------------------------------
def test_run_smoke_jobs2_then_rerun_is_cache_hits(tmp_path, capsys, monkeypatch):
    """The acceptance path: a parallel smoke run completes, and a second
    invocation answers from the store."""
    monkeypatch.setenv("REPRO_EXP_CODE_VERSION", "cli-test")
    store = str(tmp_path / "store")
    argv = [
        "run", "fig29_30", "table2", "--smoke", "--jobs", "2",
        "--store", store, "--no-render",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "0 timed out, 0 errored" in first
    assert ResultStore(store).stats()["records"] == 2

    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "2 cached (100% hits)" in second


def test_run_reports_every_unknown_name_and_exits_2(tmp_path, capsys):
    code = main([
        "run", "fig02", "nope", "alsonope",
        "--store", str(tmp_path), "--no-render",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope" in err and "alsonope" in err


# ----------------------------------------------------------------------
# CLI: status / verify / list
# ----------------------------------------------------------------------
def test_status_lists_every_experiment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_EXP_CODE_VERSION", CLAIMS_VERSION)
    store = ResultStore(str(tmp_path))
    _populate_all(store)
    assert main(["status", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out
    assert "smoke 1/1" in out  # fig13_14 and friends are covered


def test_verify_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_EXP_CODE_VERSION", CLAIMS_VERSION)
    # empty store: everything SKIPs -> exit 2
    assert main(["verify", "--store", str(tmp_path / "empty")]) == 2
    capsys.readouterr()

    store_dir = str(tmp_path / "full")
    store = ResultStore(store_dir)
    _populate_all(store)
    assert main(["verify", "--smoke", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "11 PASS, 0 FAIL, 0 SKIP" in out

    # contradicting data flips the exit code to 1
    _put(store, "fig13_14", _endtoend_tables(3_000.0, 2_000.0, 1_000.0))
    assert main(["verify", "--smoke", "--store", store_dir]) == 1
    assert "FAIL throughput-ordering-ridehailing" in capsys.readouterr().out


def test_list_shows_points_and_fn_refs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig02" in out and "ablation_node_failure" in out
    assert "repro.bench.experiments:fig02_storm_bottleneck" in out


# ----------------------------------------------------------------------
# suite layer
# ----------------------------------------------------------------------
def test_run_suite_renders_txt_and_json_from_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXP_CODE_VERSION", "render-test")
    store = ResultStore(str(tmp_path / "store"))
    tasks = build_tasks([TOY], smoke=False)
    from repro.exp.scheduler import run_points

    run_points(tasks, store, jobs=1)
    out_dir = str(tmp_path / "rendered")
    written = render_experiment(TOY, store, directory=out_dir)
    assert sorted(os.path.basename(p) for p in written) == [
        "toy.json", "toy.txt",
    ]
    with open(os.path.join(out_dir, "toy.json")) as fh:
        data = json.load(fh)
    assert [r[0] for r in data["rows"]] == [1, 2, 3]
    # incomplete store -> nothing rendered, nothing clobbered
    store.invalidate()
    assert render_experiment(TOY, store, directory=out_dir) == []


def test_run_suite_report_and_coverage(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXP_CODE_VERSION", "suite-test")
    store = ResultStore(str(tmp_path))
    report = run_suite(
        names=["fig29_30"], jobs=1, smoke=True, store=store, render=False
    )
    assert report.ok
    assert report.cache_hit_rate() == 0.0
    assert report.counts() == {
        "total": 1, "ok": 1, "cached": 0, "timeout": 0, "error": 0,
    }

    cov = coverage([REGISTRY["fig29_30"], REGISTRY["fig02"]], store)
    assert cov["fig29_30"]["smoke"] == (1, 1)
    assert cov["fig29_30"]["full"] == (0, 1)  # smoke params differ from full
    assert cov["fig02"]["smoke"] == (0, 2)
