"""Discrete-event simulation kernel.

A small, self-contained DES engine in the style of SimPy, built from
scratch for this reproduction.  Simulated time is a float in
**seconds**.  It offers exactly what the engine code uses:

* flat callbacks (:meth:`Simulator.schedule_call`) — one calendar entry
  that runs a function.  The whole data plane (every thread between a
  spout's emit and a bolt's accept) is built from chains of them: a
  step that waits schedules its continuation, and :func:`each` runs a
  step per item in order;
* processes — Python generators that ``yield`` events
  (:class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`);
  the engine resumes a process when the event it waits on triggers.
  Only the control-plane loops (controller, reliability sweep and
  epochs, flow watchdog, fault injector, rebalancer) are processes;
* the bounded FIFO :class:`~repro.sim.resources.Store` and its
  statistics-keeping :class:`~repro.sim.queues.TransferQueue`, neither
  of which blocks: the thread that owns a queue is restarted by whoever
  hands it work.

The kernel is deterministic: given the same seed and the same process
creation order, every run produces identical traces.  All randomness is
routed through :class:`~repro.sim.rng.RngRegistry`.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(1.5)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[1.5]
"""

from repro.sim.engine import Simulator, each
from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.queues import QueueStats, TransferQueue
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "Process",
    "QueueStats",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "each",
    "Store",
    "Timeout",
    "TransferQueue",
]
