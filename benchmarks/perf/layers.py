"""Per-layer numbers for the traced pass.

Three kinds, all taken outside the measured pass:

* **self-time buckets** — a ``cProfile`` run of one workload unit, with
  every function's self time charged to the layer (module) that owns it.
  Builtins (C functions) are charged to the bucket of their Python
  caller, so ``list.append`` inside the executor counts as executor time.
  Time the event loop spends blocked in ``epoll`` is its own ``idle``
  bucket.
* **micro-timings** of public functions: the event calendar, the rt wire
  codec and the rt credit gate.
* **overhead ratios** on a scaled-down ``des_fanout``: invariant checker,
  JSONL tracer and unbatched dispatch, each against a plain run.
"""

from __future__ import annotations

import asyncio
import os
import pstats
import statistics
import time
from typing import Callable, Dict, Tuple

#: every bucket, in report order.
BUCKETS = (
    "sim.engine",
    "sim.other",
    "net.fabric",
    "net.rdma",
    "net.cpu",
    "net.other",
    "multicast",
    "core",
    "dsps.executor",
    "dsps.worker",
    "dsps.comm",
    "dsps.grouping",
    "dsps.reliability",
    "dsps.flow",
    "dsps.metrics",
    "dsps.other",
    "faults",
    "rt.worker",
    "rt.transport",
    "rt.framing",
    "rt.relay",
    "stdlib.json",
    "stdlib.asyncio",
    "idle",
    "bench",
    "other",
)

#: ``repro`` module (path below ``repro/``, without ``.py``) -> bucket;
#: a package name maps every module in it.
_MODULE_BUCKETS = {
    "sim/engine": "sim.engine",
    "sim": "sim.other",
    "net/fabric": "net.fabric",
    "net/rdma": "net.rdma",
    "net/rnic": "net.rdma",
    "net/slicing": "net.rdma",
    "net/ring": "net.rdma",
    "net/cpu": "net.cpu",
    "net": "net.other",
    "multicast": "multicast",
    "core": "core",
    "dsps/executor": "dsps.executor",
    "dsps/worker": "dsps.worker",
    "dsps/comm": "dsps.comm",
    "dsps/grouping": "dsps.grouping",
    "dsps/rebalance": "dsps.grouping",
    "dsps/reliability": "dsps.reliability",
    "dsps/acker": "dsps.reliability",
    "dsps/flow": "dsps.flow",
    "dsps/metrics": "dsps.metrics",
    "dsps": "dsps.other",
    "faults": "faults",
    "rt/worker": "rt.worker",
    "rt/runtime": "rt.worker",
    "rt/bridge": "rt.worker",
    "rt/transport": "rt.transport",
    "rt/framing": "rt.framing",
    "rt/relay": "rt.relay",
}

#: builtins that block waiting for I/O or timers.
_IDLE_BUILTINS = ("of 'select.epoll' objects", "time.sleep")

_HERE = os.path.dirname(os.path.abspath(__file__))

Func = Tuple[str, int, str]


def bucket_of_file(filename: str) -> str:
    """The bucket owning a Python source file."""
    path = filename.replace(os.sep, "/")
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "bench"
    marker = "/repro/"
    if marker in path:
        module = path.rsplit(marker, 1)[1][: -len(".py")]
        package = module.split("/", 1)[0]
        return _MODULE_BUCKETS.get(module) or _MODULE_BUCKETS.get(package, "other")
    if "/asyncio/" in path or path.endswith(("/selectors.py", "/socket.py")):
        return "stdlib.asyncio"
    if "/json/" in path:
        return "stdlib.json"
    return "other"


def bucket_profile(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Self seconds and call counts per bucket from ``cProfile`` stats."""

    def bucket(func: Func) -> str:
        filename, _line, name = func
        if filename != "~":
            return bucket_of_file(filename)
        if any(tag in name for tag in _IDLE_BUILTINS):
            return "idle"
        return "other"

    out = {b: {"self_s": 0.0, "calls": 0.0} for b in BUCKETS}
    # stats.stats: func -> (cc, nc, tt, ct, callers); callers maps each
    # caller to its (nc, cc, tt, ct) share of this function's calls.
    for func, (_cc, nc, tt, _ct, callers) in stats.stats.items():
        own = bucket(func)
        if func[0] != "~" or own == "idle" or not callers:
            out[own]["self_s"] += tt
            out[own]["calls"] += nc
            continue
        # A builtin: split its self time and calls over its callers.
        for caller, (caller_nc, _caller_cc, caller_tt, _caller_ct) in callers.items():
            target = bucket(caller)
            out[target]["self_s"] += caller_tt
            out[target]["calls"] += caller_nc
    return out


def ncalls(stats: pstats.Stats, module_suffix: str, name: str) -> int:
    """Calls of one Python function, by module path suffix and name."""
    suffix = module_suffix.replace("/", os.sep)
    return sum(
        entry[1]
        for (filename, _line, fname), entry in stats.stats.items()
        if fname == name and filename.endswith(suffix)
    )


# ----------------------------------------------------------------------
# micro-timings
# ----------------------------------------------------------------------
def _median_of(fn: Callable[[], float], repeats: int = 3) -> float:
    return statistics.median(fn() for _ in range(repeats))


def calendar_ops_per_s(calendar: str, size: int = 4096, n: int = 100_000) -> float:
    """Hold model on ``Simulator(calendar=...)``: a standing queue of
    ``size`` timers; each ``step`` pops one whose callback schedules the
    next.  One push plus one pop is two operations."""
    import numpy as np

    from repro.sim import Simulator

    def once() -> float:
        sim = Simulator(calendar=calendar)
        delays = iter(np.random.default_rng(0).exponential(1e-3, size + n).tolist())

        def tick() -> None:
            sim.schedule_call(next(delays), tick)

        for _ in range(size):
            sim.schedule_call(next(delays), tick)
        step = sim.step
        t0 = time.perf_counter()
        for _ in range(n):
            step()
        return 2 * n / (time.perf_counter() - t0)

    return _median_of(once)


def relay_frame() -> dict:
    """A realistic relay frame: one fanout tick on its way down the tree."""
    from repro.dsps.tuples import StreamTuple
    from repro.rt import tuple_to_wire

    tup = StreamTuple(
        stream="ticks",
        values={"seq": 123_456},
        key=None,
        payload_bytes=64,
        created_at=12.345678901,
        source_operator="ticks",
    )
    return {"type": "relay", "dst": "match", "subtree": [5, 6],
            "ack_to": 0, "tuple": tuple_to_wire(tup)}


def framing_mb_per_s(n: int = 20_000) -> Tuple[float, float]:
    """(encode, decode) throughput of the rt wire codec in MB/s."""
    from repro.rt import FrameDecoder, encode_frame

    message = relay_frame()

    def encode() -> float:
        t0 = time.perf_counter()
        size = sum(len(encode_frame(message)) for _ in range(n))
        return size / (time.perf_counter() - t0) / 1e6

    data = b"".join(encode_frame(message) for _ in range(n))
    chunks = [data[i : i + 65536] for i in range(0, len(data), 65536)]

    def decode() -> float:
        decoder = FrameDecoder()
        t0 = time.perf_counter()
        got = sum(len(decoder.feed(chunk)) for chunk in chunks)
        elapsed = time.perf_counter() - t0
        if got != n:
            raise RuntimeError(f"decoded {got} of {n} frames")
        return len(data) / elapsed / 1e6

    return _median_of(encode), _median_of(decode)


def credit_gate_ops_per_s(n: int = 100_000) -> float:
    """Uncontended ``CreditGate`` acquire + grant pairs per second."""
    from repro.rt import CreditGate

    async def once() -> float:
        gate = CreditGate(64)
        acquire, grant = gate.acquire, gate.grant
        t0 = time.perf_counter()
        for _ in range(n):
            await acquire()
            grant(1)
        return n / (time.perf_counter() - t0)

    return _median_of(lambda: asyncio.run(once()))


# ----------------------------------------------------------------------
# overhead ratios
# ----------------------------------------------------------------------
#: the scaled-down des_fanout: a tenth of the tasks, a tenth of the time.
OVERHEAD_PARALLELISM = 48
OVERHEAD_HORIZON_S = 0.05


def _scaled_fanout_s(seed: int, variant: str, out_dir: str) -> float:
    from repro.trace import JsonlTracer
    from workloads import build_fanout

    tracer = None
    overrides = {}
    if variant == "trace":
        tracer = JsonlTracer(os.path.join(out_dir, "overhead-trace.jsonl"))
    elif variant == "unbatched":
        overrides["batched_dispatch"] = False
    system = build_fanout(seed, OVERHEAD_PARALLELISM, tracer=tracer, **overrides)
    if variant == "check":
        system.attach_checker("warn")
    system.start()
    system.metrics.open_window()
    t0 = time.perf_counter()
    system.sim.run(until=OVERHEAD_HORIZON_S)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close()
        os.remove(tracer.path)
    if system.checker is not None:
        system.checker.finalize()
    return elapsed


def overhead_ratios(seed: int, out_dir: str) -> Dict[str, float]:
    """Checker, tracer and unbatched dispatch against a plain run."""
    base = _median_of(lambda: _scaled_fanout_s(seed, "plain", out_dir))
    trace = _median_of(lambda: _scaled_fanout_s(seed, "trace", out_dir))
    unbatched = _median_of(lambda: _scaled_fanout_s(seed, "unbatched", out_dir))
    check = _scaled_fanout_s(seed, "check", out_dir)
    return {
        "overhead.base_s": base,
        "check.overhead_ratio": check / base,
        "trace.overhead_ratio": trace / base,
        "dsps.batched_dispatch_speedup": unbatched / base,
    }


def micro_timings() -> Dict[str, float]:
    encode, decode = framing_mb_per_s()
    return {
        "sim.calendar_heap_ops_per_s": calendar_ops_per_s("heap"),
        "sim.calendar_array_ops_per_s": calendar_ops_per_s("array"),
        "rt.framing_encode_mb_per_s": encode,
        "rt.framing_decode_mb_per_s": decode,
        "rt.credit_gate_ops_per_s": credit_gate_ops_per_s(),
    }


def share_metrics(buckets: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """``share.<bucket>`` (% of profiled time) and ``calls.<bucket>``."""
    total = sum(b["self_s"] for b in buckets.values()) or 1.0
    out: Dict[str, float] = {}
    for name in BUCKETS:
        out[f"share.{name}"] = 100.0 * buckets[name]["self_s"] / total
    for name in BUCKETS:
        out[f"calls.{name}"] = buckets[name]["calls"]
    return out


#: counts read from public objects after the traced unit (0 where the
#: workload's backend does not have the layer).  DES stall time is
#: simulated seconds, hence ``sim_s``.
COUNT_UNITS = {
    "dsps.executions": "count",
    "sim.steps": "count",
    "net.messages": "count",
    "net.data_bytes": "bytes",
    "net.control_bytes": "bytes",
    "dsps.reliability.replays": "count",
    "dsps.reliability.duplicates_suppressed": "count",
    "dsps.flow.credit_stall_s": "sim_s",
    "dsps.flow.shed": "count",
    "dsps.flow.deferred": "count",
    "rt.frames_sent": "count",
    "rt.replays": "count",
    "rt.credit_stall_s": "s",
    "rt.drain_s": "s",
    "rt.gen_late_p99_ms": "ms",
}

TIMING_UNITS = {
    "sim.calendar_heap_ops_per_s": "1/s",
    "sim.calendar_array_ops_per_s": "1/s",
    "rt.framing_encode_mb_per_s": "MB/s",
    "rt.framing_decode_mb_per_s": "MB/s",
    "rt.credit_gate_ops_per_s": "1/s",
    "check.overhead_ratio": "x",
    "trace.overhead_ratio": "x",
    "dsps.batched_dispatch_speedup": "x",
    "overhead.base_s": "s",
    "bench.profile_overhead_ratio": "x",
    "bench.profile_base_cpu_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {f"share.{b}": "%" for b in BUCKETS}
    units.update({f"calls.{b}": "count" for b in BUCKETS})
    units.update(COUNT_UNITS)
    units.update(TIMING_UNITS)
    return units
