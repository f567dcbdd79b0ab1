"""Discrete-event simulation engine.

This package provides the discrete-event simulation (DES) substrate on which
the whole reproduction runs.  The published experiments were executed on the
physical DAS-3 multicluster; this reproduction re-creates the same scheduling
behaviour in simulated time, so a small DES kernel is required.  It follows
SimPy's event model (SimPy itself is not a dependency).  Most components are
callback chains on its events; a few still run as generator processes:

* :class:`~repro.sim.core.Environment` owns the simulation clock and the
  event heap and drives execution;
* :class:`~repro.sim.events.Event` and its subclasses are one-shot
  synchronisation primitives;
* :class:`~repro.sim.process.Process` wraps a Python generator; the generator
  yields events and is resumed when the yielded event is processed;
* :mod:`repro.sim.rng` provides named, independently seeded random streams so
  that experiments are reproducible and individual stochastic components can
  be varied independently;
* :mod:`repro.sim.monitor` provides the step-function series and counters
  used by the metrics layer.

The public API of the engine is re-exported here so downstream packages can
simply ``from repro.sim import Environment, Timeout``.
"""

from repro.sim.core import Environment, StopSimulation
from repro.sim.events import Event, Interrupt, Timeout
from repro.sim.process import Process, ProcessGenerator
from repro.sim.rng import RandomStreams
from repro.sim.monitor import Counter, TimeSeries

__all__ = [
    "Counter",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessGenerator",
    "RandomStreams",
    "StopSimulation",
    "TimeSeries",
    "Timeout",
]
