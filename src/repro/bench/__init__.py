"""Experiment harness.

* :mod:`repro.bench.runner` — builds a system variant around one of the
  two applications, drives it at its analytically-derived maximum
  sustainable rate (the paper's protocol), and collects every metric of
  Section 5.1.
* :mod:`repro.bench.report` — renders rows/series in the paper's units.
* :mod:`repro.bench.experiments` — one function per table/figure of the
  paper; ``python -m repro.exp`` schedules them and the ``benchmarks/``
  directory wraps them in pytest-benchmark entry points.
"""

from repro.bench.runner import (
    AppRun,
    downstream_service_estimate,
    run_app,
)
from repro.bench.report import Series, Table
from repro.bench.ablations import ablation_dstar, ablation_queue_capacity
from repro.bench.faults import (
    ablation_lossy_network,
    ablation_node_failure,
    ablation_oversubscribed_racks,
    node_failure_run,
)

__all__ = [
    "AppRun",
    "Series",
    "Table",
    "ablation_dstar",
    "ablation_lossy_network",
    "ablation_node_failure",
    "ablation_oversubscribed_racks",
    "ablation_queue_capacity",
    "node_failure_run",
    "downstream_service_estimate",
    "run_app",
]
