"""Discrete-event simulation substrate.

Everything time-related in the reproduction runs on this engine: a virtual
clock, one event heap owned by :class:`Simulator`, and deterministic named
random streams.  The engine is intentionally minimal — callbacks scheduled
at absolute or relative virtual times, each returning its cancellable
:class:`Event` — because the FaaS platform above it is modeled as explicit
state machines rather than coroutines.
"""

from repro.sim.engine import Event, EventHandle, Simulator
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "Event",
    "EventHandle",
    "RngRegistry",
    "Simulator",
    "derive_seed",
]
