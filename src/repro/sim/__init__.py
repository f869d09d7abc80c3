"""Discrete-event simulation kernel used by every other subsystem.

The kernel is a small, dependency-free analogue of SimPy: simulation
*processes* are Python generators that yield :class:`Event` objects
(timeouts, other processes, manual events, :class:`AllOf` joins) and are resumed
by the :class:`Environment` when those events fire.  All timing in the
reproduction -- LLM engine steps, tool latencies, request arrivals -- is
expressed in simulated seconds on this kernel, so experiments that would take
hours of GPU time in the paper run in milliseconds of wall-clock time here.
"""

from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.distributions import (
    DeterministicArrivals,
    LogNormalSampler,
    PoissonArrivals,
    RandomStream,
    UniformSampler,
)

__all__ = [
    "AllOf",
    "DeterministicArrivals",
    "Environment",
    "Event",
    "LogNormalSampler",
    "PoissonArrivals",
    "Process",
    "RandomStream",
    "SimulationError",
    "Timeout",
    "UniformSampler",
]
