"""Process-pool scheduler for experiment points.

Pending points are sharded *deterministically* — shard ``i`` of ``N``
takes ``points[i::N]`` of the pending list in registry order — and each
shard runs in its own worker process, computing its points sequentially
and writing each record straight into the content-addressed store
(atomic rename).  The parent only tracks progress and deadlines: a point
that exceeds its spec's ``timeout_s`` gets its worker killed, the point
is reported as ``timeout``, and the shard's remaining points are re-spawned
in a fresh worker.  Because workers persist results themselves, killing
the parent mid-suite (Ctrl-C, OOM, CI eviction) loses at most the points
in flight; the next invocation resumes from the store.

With ``jobs <= 1`` points run sequentially in the parent process (no
pool, no per-point timeout).  Parallel and sequential execution produce
bit-identical ``key``/``result`` records: every point is explicitly
seeded and ``create_system`` resets all process-global id streams, so
results do not depend on which process — or in what order — computed
them.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exp.points import ExperimentPoint
from repro.exp.registry import ExperimentSpec
from repro.exp.store import ResultStore

#: progress callback: (event, label, status, done, total, elapsed_s)
ProgressFn = Callable[[str, str, str, int, int, float], None]


@dataclass
class PointOutcome:
    """What happened to one scheduled point."""

    spec: ExperimentSpec
    point: ExperimentPoint
    status: str  #: ``ok`` | ``cached`` | ``timeout`` | ``error``
    elapsed_s: float = 0.0
    error: Optional[str] = None

    @property
    def computed(self) -> bool:
        return self.status == "ok"


def execute_point(
    spec: ExperimentSpec, point: ExperimentPoint
) -> Dict[str, Any]:
    """Run one point's figure function; returns the store ``result``."""
    return spec.run_point(point.params)


def _compute(
    spec: ExperimentSpec, point: ExperimentPoint, store: ResultStore,
    smoke: bool,
) -> Tuple[str, float, Optional[str]]:
    """Run one point and store its record; returns ``(status, elapsed_s,
    traceback or None)``."""
    started = time.perf_counter()
    try:
        result = execute_point(spec, point)
        elapsed = time.perf_counter() - started
        store.put(
            point,
            result,
            meta={
                "elapsed_s": elapsed,
                "created_at": time.time(),
                "pid": multiprocessing.current_process().pid,
                "smoke": smoke,
            },
        )
        return "ok", elapsed, None
    except Exception:
        elapsed = time.perf_counter() - started
        return "error", elapsed, traceback.format_exc(limit=20)


def _shard_worker(
    shard_id: int,
    tasks: Sequence[Tuple[ExperimentSpec, ExperimentPoint]],
    store_root: str,
    queue,
    smoke: bool,
) -> None:
    store = ResultStore(store_root)
    for spec, point in tasks:
        queue.put(("start", shard_id, point.digest))
        queue.put(("done", shard_id, point.digest,
                   *_compute(spec, point, store, smoke)))


class _Shard:
    """Parent-side view of one worker process and its task queue."""

    def __init__(self, tasks: List[Tuple[ExperimentSpec, ExperimentPoint]]):
        self.remaining = list(tasks)
        self.current: Optional[Tuple[ExperimentSpec, ExperimentPoint]] = None
        self.current_started: float = 0.0
        self.process: Optional[multiprocessing.process.BaseProcess] = None

    def spawn(self, ctx, shard_id: int, store_root: str, queue, smoke: bool):
        self.process = ctx.Process(
            target=_shard_worker,
            args=(shard_id, list(self.remaining), store_root, queue, smoke),
            daemon=True,
        )
        self.process.start()

    def pop_current(self) -> Optional[Tuple[ExperimentSpec, ExperimentPoint]]:
        task = self.current
        if task is not None:
            self.remaining = [
                t for t in self.remaining if t[1].digest != task[1].digest
            ]
            self.current = None
        return task


def run_points(
    tasks: Sequence[Tuple[ExperimentSpec, ExperimentPoint]],
    store: ResultStore,
    jobs: int = 1,
    smoke: bool = False,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
) -> List[PointOutcome]:
    """Schedule every ``(spec, point)`` task; returns one outcome each.

    Points already in the store are reported as ``cached`` without
    running anything (pass ``force=True`` to recompute them).
    """
    total = len(tasks)
    outcomes: Dict[str, PointOutcome] = {}

    def emit(event: str, outcome: PointOutcome) -> None:
        if progress is not None:
            progress(
                event,
                outcome.point.label,
                outcome.status,
                sum(1 for o in outcomes.values() if o.status != "pending"),
                total,
                outcome.elapsed_s,
            )

    pending: List[Tuple[ExperimentSpec, ExperimentPoint]] = []
    for spec, point in tasks:
        if not force and store.has(point.digest):
            outcome = PointOutcome(spec, point, "cached")
            outcomes[point.digest] = outcome
            emit("cached", outcome)
        else:
            pending.append((spec, point))

    if not pending:
        return [outcomes[p.digest] for _, p in tasks]

    if jobs <= 1:
        for spec, point in pending:
            outcome = PointOutcome(spec, point, *_compute(spec, point, store, smoke))
            outcomes[point.digest] = outcome
            emit("done", outcome)
        return [outcomes[p.digest] for _, p in tasks]

    outcomes.update(
        _run_parallel(pending, store, jobs, smoke, outcomes, emit)
    )
    return [outcomes[p.digest] for _, p in tasks]


def _run_parallel(
    pending: List[Tuple[ExperimentSpec, ExperimentPoint]],
    store: ResultStore,
    jobs: int,
    smoke: bool,
    outcomes: Dict[str, PointOutcome],
    emit,
) -> Dict[str, PointOutcome]:
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    by_digest = {point.digest: (spec, point) for spec, point in pending}
    # Deterministic sharding: shard i takes every jobs-th pending point.
    shards: Dict[int, _Shard] = {}
    next_shard_id = 0
    for i in range(min(jobs, len(pending))):
        shard = _Shard(pending[i::jobs])
        shards[next_shard_id] = shard
        shard.spawn(ctx, next_shard_id, store.root, queue, smoke)
        next_shard_id += 1

    new_outcomes: Dict[str, PointOutcome] = {}

    def record(spec, point, status, elapsed=0.0, error=None):
        outcome = PointOutcome(spec, point, status, elapsed, error)
        new_outcomes[point.digest] = outcome
        outcomes[point.digest] = outcome
        emit("done", outcome)

    def respawn(shard_id: int) -> None:
        """Move a shard's unfinished tasks into a fresh worker."""
        shard = shards.pop(shard_id)
        remaining = [
            t
            for t in shard.remaining
            if t[1].digest not in new_outcomes
        ]
        if not remaining:
            return
        nonlocal next_shard_id
        fresh = _Shard(remaining)
        shards[next_shard_id] = fresh
        fresh.spawn(ctx, next_shard_id, store.root, queue, smoke)
        next_shard_id += 1

    try:
        while len(new_outcomes) < len(pending):
            try:
                message = queue.get(timeout=0.25)
            except Exception:  # queue.Empty — check health/deadlines
                message = None
            if message is not None:
                kind, shard_id = message[0], message[1]
                shard = shards.get(shard_id)
                if shard is None:
                    continue  # from a worker we already terminated
                if kind == "start":
                    digest = message[2]
                    shard.current = by_digest[digest]
                    shard.current_started = time.monotonic()
                elif kind == "done":
                    _, _, digest, status, elapsed, error = message
                    spec, point = by_digest[digest]
                    shard.remaining = [
                        t for t in shard.remaining if t[1].digest != digest
                    ]
                    shard.current = None
                    record(spec, point, status, elapsed, error)
                continue

            now = time.monotonic()
            for shard_id in list(shards):
                shard = shards[shard_id]
                proc = shard.process
                if shard.current is not None:
                    spec, point = shard.current
                    if now - shard.current_started > spec.timeout_s:
                        if proc is not None:
                            proc.terminate()
                            proc.join(timeout=5.0)
                        task = shard.pop_current()
                        assert task is not None
                        record(
                            spec,
                            point,
                            "timeout",
                            now - shard.current_started,
                            f"exceeded {spec.timeout_s:.0f}s point timeout",
                        )
                        respawn(shard_id)
                        continue
                if proc is not None and not proc.is_alive():
                    # Worker exited: normal if its queue drained, a
                    # crash if a point was still in flight.
                    unfinished = [
                        t
                        for t in shard.remaining
                        if t[1].digest not in new_outcomes
                    ]
                    if shard.current is not None:
                        spec, point = shard.pop_current()
                        record(
                            spec,
                            point,
                            "error",
                            now - shard.current_started,
                            f"worker exited with code {proc.exitcode}",
                        )
                        respawn(shard_id)
                    elif not unfinished:
                        shards.pop(shard_id)
                    else:
                        # Died between "done" and the next "start".
                        respawn(shard_id)
    finally:
        for shard in shards.values():
            if shard.process is not None and shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5.0)
        queue.close()

    return new_outcomes
