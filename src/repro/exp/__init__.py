"""Experiment orchestration: parallel, cached, machine-checkable.

The figure suite (:mod:`repro.bench.experiments` and the ablations) is
decomposed into independently runnable, explicitly seeded
:class:`~repro.exp.points.ExperimentPoint`\\ s by a declarative
:mod:`~repro.exp.registry`; a process-pool
:mod:`~repro.exp.scheduler` computes missing points on every core and a
content-addressed :mod:`~repro.exp.store` under
``benchmarks/results/store/`` makes reruns cache hits and interrupts
resumable; :mod:`~repro.exp.claims` re-checks the paper's qualitative
assertions against whatever the store holds.

CLI: ``python -m repro.exp run --jobs N [--smoke] [names...]``, then
``status`` and ``verify``.
"""

from repro.exp.claims import CLAIMS, Claim, ClaimResult, evaluate_claims, load_tables
from repro.exp.points import ExperimentPoint, canonical_json, code_version
from repro.exp.registry import (
    REGISTRY,
    SPECS,
    ExperimentSpec,
    assemble,
    get,
    select,
)
from repro.exp.scheduler import PointOutcome, execute_point, run_points
from repro.exp.store import ResultStore, default_store_dir
from repro.exp.suite import (
    SuiteReport,
    build_tasks,
    coverage,
    render_experiment,
    run_suite,
)

__all__ = [
    "CLAIMS",
    "Claim",
    "ClaimResult",
    "ExperimentPoint",
    "ExperimentSpec",
    "PointOutcome",
    "REGISTRY",
    "ResultStore",
    "SPECS",
    "SuiteReport",
    "assemble",
    "build_tasks",
    "canonical_json",
    "code_version",
    "coverage",
    "default_store_dir",
    "evaluate_claims",
    "execute_point",
    "get",
    "load_tables",
    "render_experiment",
    "run_points",
    "run_suite",
    "select",
]
