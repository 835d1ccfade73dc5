"""Smoke coverage for the benchmark harness: one measured ``run_app``
point under the strict invariant checker (and one under ``warn``)."""

import pytest


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
