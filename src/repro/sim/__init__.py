"""Cycle-based simulation kernel.

The kernel is a deterministic synchronous simulator: every registered
:class:`~repro.sim.component.Component` is ticked once per bus cycle, in
registration order.  All stochastic behaviour draws from seeded
:class:`~repro.sim.rng.RandomStream` instances, so a simulation is exactly
reproducible from its seed.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".component": ("Component",),
    ".kernel": ("KernelDivergenceError", "SimulationError", "Simulator"),
    ".rng": ("RandomStream",),
    ".snapshot": (
        "CheckpointError",
        "Snapshottable",
        "read_checkpoint",
        "write_checkpoint",
    ),
})
