"""Discrete-event simulation engine.

This subpackage is the foundation of the reproduction: a small,
deterministic, coroutine-based discrete-event simulator in the style of
classic architecture simulators.  Virtual time is integral nanoseconds.

Public API
----------
:class:`Engine`
    The event loop: a priority queue of timestamped events driving
    processes — simulated threads of control written as Python generators
    that yield :class:`Delay` and :class:`Future` commands.
:class:`Future`
    One-shot synchronization cell; processes wait on it, anyone resolves it.
:class:`Resource`
    Non-preemptive FIFO single server (models a CPU or a DMA engine).
:class:`PortedResource`
    Bank of parallel FIFO servers with future release times (models the
    output ports of a shared switch fabric).
:class:`CountingSemaphore`
    Counter with waiters, used e.g. for ``ready_to_recv`` block arrival.
"""

from repro.sim.engine import Delay, Engine, Future, SimulationError
from repro.sim.resource import CountingSemaphore, PortedResource, Resource

__all__ = [
    "CountingSemaphore",
    "Delay",
    "Engine",
    "Future",
    "PortedResource",
    "Resource",
    "SimulationError",
]
