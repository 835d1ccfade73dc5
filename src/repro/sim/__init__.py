"""Discrete-event simulation kernel.

A small, self-contained DES engine built from scratch for this
reproduction.  Simulated time is a float in **seconds**.  It offers
exactly what the engine code uses:

* flat callbacks: :meth:`Simulator.schedule_call` puts one calendar
  entry that runs a function after a delay, and
  :meth:`Simulator.call_soon` one that runs at this instant ahead of
  every ordinary entry due now.  Everything that happens in a run is a
  chain of them, the data plane (every thread between a spout's emit
  and a bolt's accept) and the control-plane loops alike: a step that
  waits schedules its continuation, :func:`each` runs a step per item
  in order, and :func:`every` runs a control loop's body once per
  period;
* the bounded FIFO :class:`~repro.sim.resources.Store` and its
  statistics-keeping :class:`~repro.sim.queues.TransferQueue`, neither
  of which blocks: the thread that owns a queue is restarted by whoever
  hands it work.

The kernel is deterministic: given the same seed and the same order of
scheduling, every run produces identical traces.  All randomness is
routed through :class:`~repro.sim.rng.RngRegistry`.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> sim.schedule_call(1.5, lambda: log.append(sim.now))
>>> sim.run()
>>> log
[1.5]
"""

from repro.sim.engine import Simulator, each, every
from repro.sim.events import SimulationError
from repro.sim.resources import Store
from repro.sim.queues import QueueStats, TransferQueue
from repro.sim.rng import RngRegistry

__all__ = [
    "QueueStats",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "each",
    "every",
    "Store",
    "TransferQueue",
]
