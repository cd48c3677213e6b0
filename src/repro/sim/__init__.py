"""Discrete-event simulation kernel.

Every timed component in the reproduction (network links, disks, NFS
endpoints, GVFS proxies, VM monitors) runs as a generator-based *process*
on a shared :class:`~repro.sim.engine.Environment`.  Simulated time is a
float of seconds advanced by a deterministic event queue, so every
experiment is exactly reproducible and independent of wall-clock speed.

Public API::

    env = Environment()
    def worker(env):
        yield env.timeout(1.5)
        return "done"
    proc = env.process(worker(env))
    env.run()
    assert env.now == 1.5 and proc.value == "done"
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import FifoResource, PriorityResource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FifoResource",
    "Interrupt",
    "PriorityResource",
    "Process",
    "SimulationError",
    "Store",
    "Timeout",
]
