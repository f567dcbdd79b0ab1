"""Discrete-event simulation engine.

This package provides the discrete-event simulation (DES) substrate on which
the whole reproduction runs.  The published experiments were executed on the
physical DAS-3 multicluster; this reproduction re-creates the same scheduling
behaviour in simulated time, so a small but complete process-based DES kernel
is required.  The design follows the classic coroutine/process-interaction
style (comparable to SimPy, which is not available in this environment):

* :class:`~repro.sim.core.Environment` owns the simulation clock and the
  event heap and drives execution;
* :class:`~repro.sim.events.Event` and its subclasses are one-shot
  synchronisation primitives;
* :class:`~repro.sim.process.Process` wraps a Python generator; the generator
  yields events and is resumed when the yielded event is processed;
* :mod:`repro.sim.resources` provides a counted
  :class:`~repro.sim.resources.Resource` for process-based code; no program
  module uses it, so it is not re-exported here;
* :mod:`repro.sim.rng` provides named, independently seeded random streams so
  that experiments are reproducible and individual stochastic components can
  be varied independently;
* :mod:`repro.sim.monitor` provides time-weighted series and counters used by
  the metrics layer.

The public API of the engine is re-exported here so downstream packages can
simply ``from repro.sim import Environment, Timeout``.
"""

from repro.sim.core import Environment, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator
from repro.sim.rng import RandomStreams
from repro.sim.monitor import Counter, TimeSeries, TimeWeightedStat

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Counter",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessGenerator",
    "RandomStreams",
    "StopSimulation",
    "TimeSeries",
    "TimeWeightedStat",
    "Timeout",
]
