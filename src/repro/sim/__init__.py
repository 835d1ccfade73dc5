"""Discrete-event simulation kernel.

A small, self-contained DES engine in the style of SimPy, built from
scratch for this reproduction.  Simulated time is a float in
**seconds**.  It offers exactly what the engine code uses:

* processes — Python generators that ``yield`` events
  (:class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`);
  the engine resumes a process when the event it waits on triggers;
* flat callbacks (:meth:`Simulator.schedule_call`) — one calendar entry
  that runs a function, for the threads and timers that need no
  generator;
* the bounded FIFO :class:`~repro.sim.resources.Store` and its
  statistics-keeping :class:`~repro.sim.queues.TransferQueue`.

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

from repro.sim.engine import Simulator
from repro.sim.events import Event, SimulationError, Timeout, already_done
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.queues import QueueStats, TransferQueue
from repro.sim.rng import RngRegistry

__all__ = [
    "already_done",
    "Event",
    "Process",
    "QueueStats",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TransferQueue",
]
