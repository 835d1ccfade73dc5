"""Tracer implementations and the run manifest.

A tracer is attached to a simulation with ``sim.tracer = tracer`` (or by
passing ``tracer=`` to :class:`~repro.dsps.system.DspsSystem` /
:func:`~repro.core.whale.create_system` / :func:`~repro.bench.runner.
run_app`).  Hooks throughout the codebase call ``tracer.emit(kind, t,
**fields)``; category filtering happens inside ``emit`` so call sites
stay one-liners.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import subprocess
import time
from typing import Any, Dict, Iterable, List, Optional

#: Bump when the record schema changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Every category a tracer can record.  The leading dotted component of a
#: record kind is its category (``"queue.put"`` -> ``"queue"``).
ALL_CATEGORIES = frozenset(
    {
        "sim",
        "queue",
        "net",
        "tuple",
        "mc",
        "worker",
        "metrics",
        "monitor",
        "controller",
        "switch",
        "fault",
        "ack",
        "epoch",
        "atomic",
        "flow",
        "shed",
        "rebalance",
        "check",
        # the real asyncio runtime (repro.rt): wall-clock records from the
        # worker hosts, framed transport, relay path, and acker
        "rt",
    }
)

#: Default capture set: everything except the per-event engine firehose
#: (``sim.step`` fires once per scheduled event and multiplies trace size
#: by an order of magnitude; opt in with ``categories=ALL_CATEGORIES``).
DEFAULT_CATEGORIES = frozenset(ALL_CATEGORIES - {"sim"})


class Tracer:
    """Base tracer: category filtering + the ``emit`` entry point.

    Subclasses implement :meth:`write`.  ``categories`` is a set of
    category names (``"queue"``, ``"switch"``, ...) to record; ``None``
    records everything.
    """

    def __init__(self, categories: Optional[Iterable[str]] = DEFAULT_CATEGORIES):
        self.categories = None if categories is None else frozenset(categories)
        self.records_emitted = 0

    # ------------------------------------------------------------------
    def wants(self, kind: str) -> bool:
        """Would a record of ``kind`` be captured?"""
        if self.categories is None:
            return True
        return kind.split(".", 1)[0] in self.categories

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record one event at simulated time ``t``."""
        if not self.wants(kind):
            return
        record: Dict[str, Any] = {"kind": kind, "t": t}
        record.update(fields)
        self.records_emitted += 1
        self.write(record)

    # ------------------------------------------------------------------
    def write(self, record: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any underlying resources."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class MemoryTracer(Tracer):
    """Keeps records in a list — the tracer used by tests and replay
    cross-checks that never touch disk."""

    def __init__(self, categories: Optional[Iterable[str]] = DEFAULT_CATEGORIES):
        super().__init__(categories)
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


class JsonlTracer(Tracer):
    """Streams records to a JSON-lines file, one record per line.

    The first line is the run manifest (when one is given), so a trace
    file is self-describing: ``{"kind": "manifest", "schema": 1,
    "config": {...}, "seed": ..., "git_rev": ...}``.
    """

    def __init__(
        self,
        path: str,
        manifest: Optional[Dict[str, Any]] = None,
        categories: Optional[Iterable[str]] = DEFAULT_CATEGORIES,
    ):
        super().__init__(categories)
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        if manifest is not None:
            self.write({"kind": "manifest", "t": 0.0, **manifest})

    def write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, default=_json_default) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def run_manifest(
    config: Any = None, seed: Optional[int] = None, **extra: Any
) -> Dict[str, Any]:
    """Build the manifest record payload for one run.

    ``config`` may be any dataclass (typically a
    :class:`~repro.dsps.config.SystemConfig`); enums and nested
    dataclasses are flattened to JSON-safe values.
    """
    manifest: Dict[str, Any] = {
        "schema": TRACE_SCHEMA_VERSION,
        "wall_time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": _git_rev(),
        "seed": seed,
        "config": jsonable(config) if config is not None else None,
    }
    manifest.update(extra)
    return manifest


def _git_rev() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` to JSON-serializable primitives."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, float):  # pragma: no cover - covered above
        return obj
    return repr(obj)


def _json_default(obj: Any) -> Any:
    """``json.dumps`` fallback for record fields (tree nodes, enums...)."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    return repr(obj)
