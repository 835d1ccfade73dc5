"""CLI: summarize a JSONL trace file.

Usage::

    python -m repro.trace RUN.jsonl              # full digest
    python -m repro.trace RUN.jsonl --tuple 17   # one tuple's lifecycle
    python -m repro.trace RUN.jsonl --rewires    # rewire audit log only
    python -m repro.trace RUN.jsonl --faults     # fault/recovery digest
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.trace.summary import (
    load_trace,
    render,
    render_faults,
    render_tuple,
    summarize,
)
from repro.trace.tracer import TRACE_SCHEMA_VERSION


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Summarize a repro trace (JSONL).",
    )
    parser.add_argument("trace", help="path to a trace .jsonl file")
    parser.add_argument(
        "--tuple",
        type=int,
        default=None,
        metavar="ID",
        help="print the full lifecycle of one tuple id",
    )
    parser.add_argument(
        "--rewires",
        action="store_true",
        help="print only the rewire audit log",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="print only the fault/recovery digest",
    )
    args = parser.parse_args(argv)

    try:
        manifest, records = load_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.trace} is not valid JSONL: {exc}", file=sys.stderr
        )
        return 1
    schema = None if manifest is None else manifest.get("schema")
    if schema is not None and schema != TRACE_SCHEMA_VERSION:
        print(
            f"error: {args.trace}: trace schema {schema}; this reader "
            f"reads {TRACE_SCHEMA_VERSION}",
            file=sys.stderr,
        )
        return 1
    summary = summarize(records, manifest)
    if args.tuple is not None:
        print(render_tuple(summary, records, args.tuple))
    elif args.faults:
        print(render_faults(summary))
    elif args.rewires:
        for op in summary.rewires:
            print(
                f"t={op['t']:.4f}s  {op.get('direction', '?')}  "
                f"rewire {op.get('node')}: {op.get('old_parent')} -> "
                f"{op.get('new_parent')}"
            )
        if not summary.rewires:
            print("no rewire operations in trace")
    else:
        print(render(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... RUN.jsonl | head`
        sys.stderr.close()
        sys.exit(0)
