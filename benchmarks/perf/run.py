"""The repo's benchmark: four pinned workloads, end to end and per layer.

Run from the repository root::

    python3 benchmarks/perf/run.py --seed 42                 # all workloads
    python3 benchmarks/perf/run.py --workload rt_fanout --seed 7 --seconds 10
    python3 benchmarks/perf/run.py --workload des_fanout --trace 1
    python3 benchmarks/perf/run.py --smoke                   # seconds, not minutes

Every workload runs in child processes started from this file, with
every ``REPRO_*`` environment variable cleared, so a shell setting cannot
switch the event calendar or fast-forward.  The measured pass prints one
line per end-to-end metric (``workload metric value unit``); the traced
pass (``--trace 1``) runs each workload once under ``cProfile`` and
prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Results are also written under ``benchmarks/perf/out/``.

The exit code is non-zero when any correctness check fails, when a
child fails, or when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DEFAULT_OUT = os.path.join(HERE, "out")

#: run and report order; ``workloads.WORKLOADS`` defines them, but the
#: parent process never imports it (that would import ``repro``).
WORKLOAD_NAMES = ("des_fanout", "des_reliable_overload", "rt_fanout", "rt_wordcount")
DEFAULT_SEED = 42
DEFAULT_SECONDS = 10.0
#: extra set-up-only children per run; with the measuring child's own
#: set-up that makes seven samples, reported as their median.
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 150.0

#: end-to-end metric -> unit (BENCHMARK.json carries directions and bounds).
#: The p99 latency is printed too, but is not one of them: on a shared
#: host its run-to-run spread on the rt workloads exceeds any usable bound.
END_TO_END_UNITS = {
    "tuples_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """A child failed or the checkout is incomplete."""


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace) -> dict:
    """Run one role of one workload in this fresh process (started by
    :func:`_spawn` with ``PYTHONPATH`` pointing at the sources)."""
    import numpy as np

    import repro
    from workloads import WORKLOADS

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"repro imported from {repro.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload](args.seed, args.inject_fault)
    ready_at: List[float] = []

    def ready() -> None:
        ready_at.append(time.monotonic() - args.spawned_at)

    if args.role == "setup":
        workload.setup(ready)
        return {"setup_s": ready_at[0]}
    if args.role == "trace":
        return _traced(workload, args)
    result = workload.measure(args.seconds, ready)
    lat = np.asarray(result.latencies_ms)
    outcome = result.outcome
    return {
        "setup_s": ready_at[0],
        "tuples_per_s": result.tuples_per_s,
        "latency_p50_ms": float(np.percentile(lat, 50)) if lat.size else None,
        "latency_p99_ms": float(np.percentile(lat, 99)) if lat.size else None,
        "latency_samples": int(lat.size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "counts": outcome.counts,
    }


def _traced(workload, args: argparse.Namespace) -> dict:
    """One unit plain, one unit under cProfile, then the micro-timings
    and overhead ratios."""
    import cProfile
    import pstats

    cpu0 = time.process_time()
    workload.unit(args.seconds)
    plain_cpu = time.process_time() - cpu0
    profiler = cProfile.Profile()
    cpu0 = time.process_time()
    profiler.enable()
    outcome = workload.unit(args.seconds)
    profiler.disable()
    profiled_cpu = time.process_time() - cpu0
    stats = pstats.Stats(profiler)
    metrics = layers.share_metrics(layers.bucket_profile(stats))
    for name in layers.COUNT_UNITS:
        metrics[name] = outcome.counts.get(name, 0)
    metrics["sim.steps"] = layers.ncalls(stats, "repro/sim/engine.py", "step")
    metrics.update(layers.micro_timings())
    metrics.update(layers.overhead_ratios(args.seed, args.out))
    metrics["bench.profile_overhead_ratio"] = profiled_cpu / plain_cpu
    metrics["bench.profile_base_cpu_s"] = plain_cpu
    return {
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
    }


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _spawn(role: str, workload: str, args: argparse.Namespace) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--out", args.out,
    ]
    if args.inject_fault:
        command.append("--inject-fault")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} {role}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} {role}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_workload(workload: str, args: argparse.Namespace) -> dict:
    setups = [
        _spawn("setup", workload, args)["setup_s"]
        for _ in range(0 if args.smoke else SETUP_CHILDREN)
    ]
    child = _spawn("measure", workload, args)
    setups.append(child["setup_s"])
    values = {
        "tuples_per_s": child["tuples_per_s"],
        "latency_p50_ms": child["latency_p50_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    problems = list(child["problems"])
    for name, value in values.items():
        if value is None or not value > 0:
            problems.append(f"{workload}: {name} is {value!r}")
    return {
        "metrics": {
            name: _metric(value, END_TO_END_UNITS[name])
            for name, value in values.items()
        },
        "attempted": child["attempted"],
        "failed": child["failed"],
        "problems": problems,
        "latency_samples": child["latency_samples"],
        "latency_p99_ms": child["latency_p99_ms"],
        "counts": child["counts"],
    }


def trace_workload(workload: str, args: argparse.Namespace) -> dict:
    child = _spawn("trace", workload, args)
    units = layers.per_layer_units()
    return {
        "metrics": {
            name: _metric(child["metrics"][name], unit)
            for name, unit in units.items()
        },
        "attempted": child["attempted"],
        "failed": child["failed"],
        "problems": child["problems"],
    }


def digest(counts: Dict[str, float]) -> str:
    """Short stable digest of a count dictionary (information only)."""
    text = ",".join(f"{k}={counts[k]!r}" for k in sorted(counts))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _print_lines(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        line = f"{workload} {name} {metric['value']:.6g} {metric['unit']}"
        if name.startswith("latency_"):
            line += f" n={result['latency_samples']}"
        print(line)
    if "latency_p99_ms" in result:
        print(f"# {workload} latency_p99_ms {result['latency_p99_ms']:.6g} ms "
              f"n={result['latency_samples']} (reported, not bounded)")
    if "counts" in result:
        counts = result["counts"]
        detail = " ".join(f"{k}={v:.6g}" for k, v in sorted(counts.items()))
        print(f"# {workload} counts digest={digest(counts)} {detail}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"# {workload} failed_share {failed / max(attempted, 1):.6g} "
          f"({failed}/{attempted} roots)")
    for problem in result["problems"]:
        print(f"# FAIL {problem}")


def _write_table(path: str, results: Dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    workloads = list(results)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric".ljust(50) + "".join(w.rjust(24) for w in workloads) + "\n")
        for name in names:
            unit = results[workloads[0]]["metrics"][name]["unit"]
            cells = "".join(
                f"{results[w]['metrics'][name]['value']:24.6g}" for w in workloads
            )
            fh.write(f"{name} [{unit}]".ljust(50) + cells + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length; every workload turns it into a "
                             "fixed amount of work")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a size that runs in seconds")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for the JSON results")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test only: rt terminal bolts skip every "
                             "97th root")
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 1.0
    args.out = os.path.abspath(args.out)

    if args.role is not None:
        print(json.dumps(_child(args)))
        return 0

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    run = trace_workload if args.trace else measure_workload
    results: Dict[str, dict] = {}
    try:
        for workload in workloads:
            results[workload] = run(workload, args)
            _print_lines(workload, results[workload])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stem = "per_layer" if args.trace else "end_to_end"
    with open(os.path.join(args.out, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "results": results},
                  fh, indent=1)
    if args.trace:
        _write_table(os.path.join(args.out, "per_layer.txt"), results)

    correct = not any(r["problems"] for r in results.values())
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {
            f"{w}.{name}": metric
            for w, r in results.items()
            for name, metric in r["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
