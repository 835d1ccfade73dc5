"""``python -m repro.exp`` — orchestrate the full experiment suite.

Subcommands::

    run    [names...] [--jobs N] [--smoke] [--force] [--store PATH]
    status [--store PATH]
    verify [--smoke | --full] [--store PATH]
    list

``run`` schedules every selected experiment point across a process pool,
resumes from the content-addressed store (a second invocation is almost
entirely cache hits) and re-renders the ``benchmarks/results/`` tables
from the stored records.  ``verify`` checks the paper's claims against
the stored results; ``--smoke`` names the full-size-only claims it does
not evaluate.  Engine performance is measured by
``benchmarks/perf/run.py``, not here.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.exp.claims import evaluate_claims
from repro.exp.points import code_version
from repro.exp.registry import REGISTRY, SPECS
from repro.exp.store import ResultStore
from repro.exp.suite import coverage, run_suite


def _progress_printer(stream=None):
    stream = stream or sys.stdout

    def progress(event, label, status, done, total, elapsed_s):
        if status == "cached":
            line = f"[{done}/{total}] {label}: cached"
        elif status == "ok":
            line = f"[{done}/{total}] {label}: ok ({elapsed_s:.1f}s)"
        else:
            line = f"[{done}/{total}] {label}: {status.upper()} ({elapsed_s:.1f}s)"
        print(line, file=stream, flush=True)

    return progress


def _cmd_run(args) -> int:
    store = ResultStore(args.store)
    try:
        report = run_suite(
            names=args.names or None,
            jobs=args.jobs,
            smoke=args.smoke,
            force=args.force,
            store=store,
            progress=_progress_printer(),
            render=not args.no_render,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    counts = report.counts()
    print(
        f"suite: {counts['total']} points — {counts['ok']} computed, "
        f"{counts['cached']} cached ({100 * report.cache_hit_rate():.0f}% "
        f"hits), {counts['timeout']} timed out, {counts['error']} errored "
        f"in {report.wall_clock_s:.1f}s wall-clock with {args.jobs} job(s)"
    )
    if report.rendered:
        print(f"re-rendered {len(report.rendered)} result files from the store")
    for outcome in report.outcomes:
        if outcome.status in ("timeout", "error"):
            print(f"-- {outcome.point.label}: {outcome.status}", file=sys.stderr)
            if outcome.error:
                print(outcome.error.rstrip(), file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_status(args) -> int:
    store = ResultStore(args.store)
    version = code_version()
    stats = store.stats()
    print(f"store: {stats['root']}")
    print(
        f"  {stats['records']} records, {stats['bytes'] / 1024:.0f} KiB, "
        f"current code version {version}"
    )
    cov = coverage(SPECS, store, version=version)
    width = max(len(name) for name in cov)
    for name, entry in cov.items():
        full_have, full_want = entry["full"]
        smoke_have, smoke_want = entry["smoke"]
        print(
            f"  {name.ljust(width)}  full {full_have}/{full_want}"
            f"  smoke {smoke_have}/{smoke_want}"
        )
    stale = sum(
        1
        for record in store.records()
        if record.get("key", {}).get("code_version") != version
    )
    if stale:
        print(f"  ({stale} records from other code versions)")
    return 0


def _cmd_verify(args) -> int:
    store = ResultStore(args.store)
    mode = "smoke" if args.smoke else ("full" if args.full else "auto")
    results = evaluate_claims(store, mode=mode)
    # a smoke verify skips the full-size-only claims by design
    unevaluated = [
        r.claim.name for r in results
        if mode == "smoke" and r.claim.full_size_only
    ]
    failed = skipped = 0
    for result in results:
        print(f"{result.status:4s} {result.claim.name}: "
              f"{result.claim.description}")
        for detail in result.details:
            print(f"       {detail}")
        failed += result.status == "FAIL"
        skipped += result.status == "SKIP"
    passed = len(results) - failed - skipped
    skipped -= len(unevaluated)
    print(
        f"claims: {passed} PASS, {failed} FAIL, {skipped} SKIP "
        f"({len(results)} total, mode={mode})"
    )
    if unevaluated:
        print(
            f"full-size-only, not evaluated on smoke tables: "
            f"{', '.join(unevaluated)}"
        )
    if failed:
        return 1
    if skipped:
        return 2
    return 0


def _cmd_list(args) -> int:
    width = max(len(name) for name in REGISTRY)
    for spec in SPECS:
        n_full = len(spec.point_params(smoke=False))
        n_smoke = len(spec.point_params(smoke=True))
        print(
            f"{spec.name.ljust(width)}  {spec.category:8s}  "
            f"{n_full} points ({n_smoke} smoke)  <- {spec.fn_ref}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Parallel, cached, machine-checkable experiment suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run (or resume) experiments")
    run_p.add_argument("names", nargs="*", help="experiment names (default: all)")
    run_p.add_argument(
        "--jobs", type=int, default=max(1, os.cpu_count() or 1),
        help="worker processes (default: all cores)"
    )
    run_p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweeps (reduced point sets; results stored "
        "separately from the full sweep)"
    )
    run_p.add_argument(
        "--force", action="store_true",
        help="recompute points even when the store already has them"
    )
    run_p.add_argument("--store", default=None, help="result-store directory")
    run_p.add_argument(
        "--no-render", action="store_true",
        help="skip re-rendering the .txt/.json figure files"
    )
    run_p.set_defaults(fn=_cmd_run)

    status_p = sub.add_parser("status", help="store coverage per experiment")
    status_p.add_argument("--store", default=None)
    status_p.set_defaults(fn=_cmd_status)

    verify_p = sub.add_parser(
        "verify", help="check the paper's claims against stored results"
    )
    verify_p.add_argument("--store", default=None)
    mode = verify_p.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true", help="verify the smoke sweep only"
    )
    mode.add_argument(
        "--full", action="store_true", help="verify the full sweep only"
    )
    verify_p.set_defaults(fn=_cmd_verify)

    list_p = sub.add_parser("list", help="list registered experiments")
    list_p.set_defaults(fn=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
