"""Suite orchestration: run experiments and re-render tables.

This is the layer the CLI drives: it expands the selected experiments
into points, schedules them (:mod:`repro.exp.scheduler`) and re-renders
the human-readable ``.txt``/``.json`` figure files from the store so
they can never diverge from the records.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exp.points import ExperimentPoint, code_version
from repro.exp.registry import ExperimentSpec, assemble, select
from repro.exp.scheduler import PointOutcome, ProgressFn, run_points
from repro.exp.store import ResultStore


def default_results_dir(smoke: bool = False) -> str:
    """``benchmarks/results/`` (``.../smoke/`` for smoke sweeps)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    base = os.path.join(root, "benchmarks", "results")
    return os.path.join(base, "smoke") if smoke else base


def build_tasks(
    specs: Sequence[ExperimentSpec],
    smoke: bool = False,
    version: Optional[str] = None,
) -> List[Tuple[ExperimentSpec, ExperimentPoint]]:
    version = version if version is not None else code_version()
    return [
        (spec, point)
        for spec in specs
        for point in spec.points(smoke=smoke, version=version)
    ]


@dataclass
class SuiteReport:
    """Everything one ``run`` invocation did."""

    smoke: bool
    jobs: int
    code_version: str
    wall_clock_s: float
    outcomes: List[PointOutcome] = field(default_factory=list)
    rendered: List[str] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """Points per status, plus ``total``."""
        counts = {"total": len(self.outcomes), "ok": 0, "cached": 0,
                  "timeout": 0, "error": 0}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    @property
    def ok(self) -> bool:
        return all(o.status in ("ok", "cached") for o in self.outcomes)

    def cache_hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        hits = sum(1 for o in self.outcomes if o.status == "cached")
        return hits / len(self.outcomes)


def render_experiment(
    spec: ExperimentSpec,
    store: ResultStore,
    smoke: bool = False,
    version: Optional[str] = None,
    directory: Optional[str] = None,
) -> List[str]:
    """Re-render one experiment's ``.txt``/``.json`` files from the store.

    Returns the written paths; empty if any point is missing.  Smoke
    renderings go to ``benchmarks/results/smoke/`` so partial sweeps
    never overwrite the full-figure files.
    """
    version = version if version is not None else code_version()
    points = spec.points(smoke=smoke, version=version)
    records = [store.get(p.digest) for p in points]
    if any(r is None for r in records):
        return []
    tables = assemble(spec, [r["result"] for r in records])
    directory = directory or default_results_dir(smoke=smoke)
    written: List[str] = []
    for i, table in enumerate(tables):
        suffix = f"_{i}" if len(tables) > 1 else ""
        written.append(table.save(f"{spec.stem}{suffix}", directory=directory))
        written.append(
            table.save_json(f"{spec.stem}{suffix}", directory=directory)
        )
    return written


def run_suite(
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    smoke: bool = False,
    force: bool = False,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressFn] = None,
    render: bool = True,
) -> SuiteReport:
    """Run (or resume) the selected experiments and emit the artifacts."""
    specs = select(names)
    store = store or ResultStore()
    version = code_version()
    tasks = build_tasks(specs, smoke=smoke, version=version)
    started = time.perf_counter()
    outcomes = run_points(
        tasks,
        store,
        jobs=jobs,
        smoke=smoke,
        force=force,
        progress=progress,
    )
    report = SuiteReport(
        smoke=smoke,
        jobs=jobs,
        code_version=version,
        wall_clock_s=time.perf_counter() - started,
        outcomes=outcomes,
    )
    if render:
        for spec in specs:
            report.rendered.extend(
                render_experiment(spec, store, smoke=smoke, version=version)
            )
    return report


def coverage(
    specs: Sequence[ExperimentSpec],
    store: ResultStore,
    version: Optional[str] = None,
) -> Dict[str, Dict[str, Tuple[int, int]]]:
    """``{experiment: {"full": (have, want), "smoke": (have, want)}}``."""
    version = version if version is not None else code_version()
    table: Dict[str, Dict[str, Tuple[int, int]]] = {}
    for spec in specs:
        entry = {}
        for mode, smoke in (("full", False), ("smoke", True)):
            points = spec.points(smoke=smoke, version=version)
            have = sum(1 for p in points if store.has(p.digest))
            entry[mode] = (have, len(points))
        table[spec.name] = entry
    return table
