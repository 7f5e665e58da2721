"""Discrete-event simulation kernel used by every substrate in this repo.

The engine is a small, self-contained cousin of SimPy: simulation
*processes* are Python generators that ``yield`` events (timeouts, manual
events, resource requests, other processes) and are resumed by the
:class:`~repro.sim.engine.Environment` when those events fire.

The paper evaluates T3 on a multi-GPU extension of Accel-Sim; this package
is the foundation of our Python substitute for that simulator (see
DESIGN.md section 2).
"""

from repro.sim.engine import Environment, Process, SimulationError
from repro.sim.primitives import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Pipe,
    Resource,
    Store,
    Timeout,
)
from repro.sim.stats import Counter, TimeSeries, UtilizationTracker

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "Interrupt",
    "Pipe",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "TimeSeries",
    "Timeout",
    "UtilizationTracker",
]
