"""Smoke coverage for the benchmark harness.

The figure benchmarks only run under ``pytest benchmarks/`` with
pytest-benchmark, so a broken import (renamed bench function, moved
module) would otherwise surface long after the change that caused it.
This sweep imports every ``benchmarks/bench_*.py`` in-process and smoke
runs one measured point under the strict invariant checker.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


@pytest.fixture(scope="module")
def bench_path():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_the_sweep_actually_found_the_benchmarks():
    # guards against the glob silently matching nothing after a move
    assert len(BENCH_MODULES) >= 20


@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_benchmark_module_imports_and_defines_benchmarks(
    module_name, bench_path
):
    module = importlib.import_module(module_name)
    bench_fns = [
        name for name in dir(module)
        if name.startswith("test_") and callable(getattr(module, name))
    ]
    assert bench_fns, f"{module_name} defines no pytest-benchmark entry"


def _smoke_point(config, check):
    from repro.bench.runner import run_app

    return run_app(
        "ridehailing", config, 4, n_machines=4, tuple_budget=60, check=check
    )


@pytest.mark.parametrize("variant", ["whale", "storm"])
def test_run_app_smoke_passes_strict_check(variant):
    from repro.core import whale_full_config
    from repro.dsps import storm_config

    config = whale_full_config() if variant == "whale" else storm_config()
    report = _smoke_point(config, "strict").check_report
    assert report.ok
    assert report.summary().startswith("invariant check [strict]: OK")


def test_run_app_warn_mode_reports():
    from repro.core import whale_full_config

    report = _smoke_point(whale_full_config(), "warn").check_report
    assert report.ok
    assert report.summary().startswith("invariant check [warn]: OK")
