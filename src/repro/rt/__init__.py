"""A real asyncio execution backend behind the topology API.

The DES (:mod:`repro.dsps`, :mod:`repro.sim`) answers the paper's
questions cheaply and deterministically — but a simulator can only be
trusted as far as its abstractions.  This package closes that loop: the
*same* :class:`~repro.dsps.topology.Topology` objects, groupings, and
:class:`~repro.dsps.config.SystemConfig` knobs execute on a wall-clock
asyncio runtime with real localhost TCP sockets between per-machine
worker hosts — length-prefixed framed transport, Whale-style relay-tree
one-to-many, receiver-driven credit flow control, and an at-least-once
acker — and :mod:`repro.rt.differential` compares the two backends on
seeded workloads (the ``sim-predicts-real`` claim).

Layout:

* :mod:`repro.rt.framing`    — length-prefixed JSON wire codec (single
  and batch frames);
* :mod:`repro.rt.transport`  — asyncio framed connections (one batch
  frame per peer per loop turn) + credit gates;
* :mod:`repro.rt.bridge`     — the WallClock that lets a stock
  ``MetricsHub``/tracer serve both backends;
* :mod:`repro.rt.worker`     — per-machine hosts, executors, the acker,
  and the relay tree (the DES's multicast tree, via
  :func:`repro.multicast.build.build_tree`);
* :mod:`repro.rt.runtime`    — ``RuntimeBackend`` + the two backends;
* :mod:`repro.rt.topologies` — deterministic named example topologies;
* :mod:`repro.rt.differential` — the sim-vs-real harness;
* ``python -m repro.rt``     — quickstart CLI (``run`` / ``diff``).
"""

from repro.rt.bridge import WallClock
from repro.rt.framing import (
    DEFAULT_FRAME_LIMIT,
    FrameDecoder,
    FrameError,
    decode_payload,
    encode_frame,
)
from repro.rt.runtime import (
    AsyncRuntime,
    RunReport,
    RuntimeBackend,
    SimRuntime,
    create_runtime,
    default_cluster,
)
from repro.rt.topologies import TOPOLOGIES, Recorder, make_topology
from repro.rt.transport import CreditGate, FramedConnection, dial, serve
from repro.rt.worker import (
    Acker,
    RtBoltExecutor,
    RtSpoutExecutor,
    WorkerHost,
    tuple_from_wire,
    tuple_to_wire,
)

__all__ = [
    "Acker",
    "AsyncRuntime",
    "CreditGate",
    "DEFAULT_FRAME_LIMIT",
    "FrameDecoder",
    "FrameError",
    "FramedConnection",
    "Recorder",
    "RtBoltExecutor",
    "RtSpoutExecutor",
    "RunReport",
    "RuntimeBackend",
    "SimRuntime",
    "TOPOLOGIES",
    "WallClock",
    "WorkerHost",
    "create_runtime",
    "decode_payload",
    "default_cluster",
    "dial",
    "encode_frame",
    "make_topology",
    "serve",
    "tuple_from_wire",
    "tuple_to_wire",
]
