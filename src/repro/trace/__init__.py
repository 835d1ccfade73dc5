"""Structured tracing & run observability.

Every layer of the system carries optional trace hooks guarded by a
single ``sim.tracer is not None`` check, so a run without a tracer pays
one attribute test per hook and nothing else.  With a tracer attached,
each hook emits one flat record ``{"kind": ..., "t": <sim seconds>,
...fields}``:

==================  ====================================================
record kind          emitted by
==================  ====================================================
``manifest``         :class:`JsonlTracer` at creation (config, seed,
                     git rev, schema version)
``sim.step``         :meth:`repro.sim.engine.Simulator.step`, one per
                     calendar entry; ``event`` is the ``__qualname__``
                     of the callback it ran (``Worker.deliver``), so
                     counting by ``event`` is a per-callback step
                     census (high-frequency, excluded by default)
``queue.put/get/drop``  :class:`repro.sim.queues.TransferQueue`
``net.serialize``    :class:`repro.dsps.comm.CommEngine` (per message)
``net.post``         :class:`repro.net.rdma.RdmaTransport` send (``verb``
                     is the route: a verb, ``tcp`` or ``tcp-fallback``)
``net.deliver``      :class:`repro.net.fabric.Fabric` delivery
``net.lost``         fabric fault injection
``tuple.emit``       :class:`repro.dsps.executor.ExecutorBase`
``mc.register``      executor, when a one-to-many tuple enters the
                     measurement window (carries destination task ids)
``tuple.drop``       executor, on transfer-queue overflow
``worker.dispatch``  :class:`repro.dsps.worker.Worker`, one per
                     delivered packet, naming its local destination
                     ``tasks`` (the receive event of the
                     multicast-latency definition)
``tuple.execute``    one per service completion, naming the ``tasks``
                     that executed it and its computed ``done``
                     instant: :class:`repro.dsps.executor.BoltExecutor`
                     (one task, ``done`` = ``t``) or a lazy
                     :class:`~repro.dsps.executor.LazyCohort` (its
                     members, stamped ``t`` when realised, ``done`` <=
                     ``t``)
``metrics.window``   :class:`repro.dsps.metrics.MetricsHub` open/close
``monitor.sample``   :class:`repro.core.controller.MulticastController`
                     (lambda estimate + waterline decision)
``controller.dstar`` controller d* recomputation
``switch.begin/rewire/end``  dynamic switching; one ``switch.rewire``
                     per applied :class:`~repro.multicast.switching.
                     RewireOp`, stamped at apply time
``rebalance.migrate/restore``  :class:`repro.dsps.rebalance.Rebalancer`
                     parking an overloaded task / restoring a drained
                     one (operator, task, machine, depth, waterline)
==================  ====================================================

The tuple lifecycle is reconstructable from the trace alone:
``tuple.emit`` -> ``queue.put`` -> ``net.post`` -> ``net.deliver`` ->
``worker.dispatch`` (last receive = multicast completion) ->
``tuple.execute`` (latest ``done`` = processing completion).  Records
are per packet and per service, not per copy (schema 2), and no hook
schedules anything, so a traced run is the plain run's engine.
:func:`repro.trace.replay.replay` rebuilds :class:`~repro.dsps.metrics.
MetricsHub`-equivalent throughput and latency figures from a trace;
``python -m repro.trace`` summarizes one from the command line.
"""

from repro.trace.tracer import (
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    MemoryTracer,
    Tracer,
    run_manifest,
)
from repro.trace.replay import ReplayResult, replay
from repro.trace.summary import TraceSummary, load_trace, summarize

__all__ = [
    "ALL_CATEGORIES",
    "DEFAULT_CATEGORIES",
    "JsonlTracer",
    "MemoryTracer",
    "ReplayResult",
    "TRACE_SCHEMA_VERSION",
    "TraceSummary",
    "Tracer",
    "load_trace",
    "replay",
    "run_manifest",
    "summarize",
]
