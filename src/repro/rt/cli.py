"""Command line for the rt backend: ``python -m repro.rt run``.

``run`` executes one built-in topology (see :mod:`repro.rt.topologies`)
on either execution backend and prints a run report.  The sim-vs-real
differential is the registered ``ablation_sim_vs_real`` experiment
(``python -m repro.exp run ablation_sim_vs_real``), gated by the
``sim-predicts-real`` claim.

Everything binds ephemeral localhost ports and ``--smoke`` clamps the
workload to roughly a second of wall clock, which is what the CI
``rt-smoke`` job runs.  The report ends with the drain: how long it
took and when the run was quiet; a drain that hits its deadline first
exits 1::

    python -m repro.rt run --topology word_count --duration 5
    python -m repro.rt run --topology fanout --smoke
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.dsps.config import BACKENDS
from repro.rt.differential import differential_config
from repro.rt.runtime import (
    RT_DELIVERY_MODES,
    RunReport,
    create_runtime,
    default_cluster,
)
from repro.rt.topologies import TOPOLOGIES, Recorder, make_topology

#: what ``--smoke`` clamps a ``run`` to — small enough that the CI job
#: finishes in about a second even on a loaded box.
SMOKE_DURATION_S = 1.0
SMOKE_RATE = 200.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rt", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute one built-in topology on a backend"
    )
    run.add_argument(
        "--topology", choices=sorted(TOPOLOGIES), default="word_count"
    )
    run.add_argument(
        "--backend", choices=list(BACKENDS), default="asyncio",
        help="execution backend (default: asyncio, the real runtime)",
    )
    run.add_argument("--rate", type=float, default=400.0,
                     help="offered rate per spout, tuples/s")
    run.add_argument("--duration", type=float, default=None, metavar="S",
                     help="emit for S seconds (mutually exclusive "
                     "with --budget)")
    run.add_argument("--budget", type=int, default=None,
                     help="emit exactly N tuples per spout "
                     "(default: 240 when --duration is absent)")
    run.add_argument("--parallelism", type=int, default=4)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--delivery", choices=RT_DELIVERY_MODES, default="at_least_once",
        help="delivery guarantee (default: at_least_once, exercising "
        "the acker; the asyncio backend implements no stronger mode)",
    )
    run.add_argument("--flow", action="store_true",
                     help="enable receiver-driven credit flow control")
    run.add_argument("--credit-window", type=int, default=None,
                     help="credit window when --flow is set")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="record a JSONL trace to PATH (inspect with "
                     "python -m repro.trace PATH)")
    run.add_argument("--smoke", action="store_true",
                     help=f"CI-sized run: duration {SMOKE_DURATION_S}s "
                     f"at {SMOKE_RATE:.0f} tuples/s")
    return parser


def _print_report(report: RunReport) -> None:
    print(f"[{report.backend}]")
    print(f"  emitted             {sum(report.emitted.values()):10d} tuples")
    print(f"  processed           {sum(report.processed.values()):10d} "
          "executions")
    if report.executed is not None:
        print(f"  terminal executed   {report.executed_total:10d}")
    goodput = report.goodput_tps
    if math.isfinite(goodput) and goodput > 0:
        print(f"  goodput             {goodput:10.0f} tuples/s")
    for operator, mean_s in sorted(report.sink_latency_mean_s.items()):
        print(f"  sink latency mean   {1e3 * mean_s:10.2f} ms  ({operator})")
    if report.replays or report.abandoned:
        print(f"  replays/abandoned   {report.replays:6d} / "
              f"{report.abandoned:d}")
    if report.credit_stall_s:
        print(f"  credit stall        {report.credit_stall_s:10.3f} s")
    print(f"  window              {report.window_s:10.2f} s")
    quiescence = report.quiescence
    state = "quiet" if quiescence.quiet else "NOT quiet (deadline)"
    print(f"  drain               {1e3 * quiescence.drain_s:10.2f} ms, "
          f"{state} at {quiescence.at:.4f} s")


def _cmd_run(args: argparse.Namespace) -> int:
    rate = args.rate
    duration = args.duration
    budget = args.budget
    if duration is not None and budget is not None:
        print("error: --duration and --budget are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.smoke:
        rate, duration, budget = SMOKE_RATE, SMOKE_DURATION_S, None
    elif duration is None and budget is None:
        budget = 240

    config = differential_config(
        name=f"rt-{args.topology}",
        backend=args.backend,
        delivery=args.delivery,
        flow=args.flow,
        **({"credit_window": args.credit_window}
           if args.credit_window is not None else {}),
    )
    tracer = None
    if args.trace is not None:
        from repro.trace import JsonlTracer, run_manifest

        tracer = JsonlTracer(
            args.trace,
            manifest=run_manifest(
                config=config, seed=args.seed, app=args.topology,
                parallelism=args.parallelism, offered_rate=rate,
            ),
        )

    recorder = Recorder()
    runtime = create_runtime(
        make_topology(args.topology, args.parallelism, recorder),
        config,
        cluster=default_cluster(),
        seed=args.seed,
        tracer=tracer,
        recorder=recorder,
    )
    shape = (f"{duration:.1f}s" if duration is not None
             else f"{budget} tuples/spout")
    print(f"running {args.topology} on the {args.backend} backend: "
          f"{rate:.0f} tuples/s for {shape}\n")
    try:
        report = runtime.run(rate, budget=budget, duration_s=duration)
    finally:
        if tracer is not None:
            tracer.close()
    _print_report(report)
    if args.trace:
        print(f"\ntrace written to {args.trace}; summarize it with:")
        print(f"  python -m repro.trace {args.trace}")
    if not report.quiescence.quiet:
        print("error: the drain hit its deadline before the run was quiet",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return _cmd_run(_build_parser().parse_args(argv))
