"""Deterministic fault injection and recovery (the robustness layer).

Real SoC communication fabrics treat error/retry as first-class bus
protocol (cf. the Wishbone retry/error cycle-termination signals); this
package lets the reproduction stress every invariant the
:class:`~repro.bus.checker.BusChecker` asserts against *injected*
failures instead of only fault-free traffic.

* :class:`FaultPlan` — declarative fault rates (word corruption, slave
  stalls, dropped/spurious grants, stuck lottery LFSRs, dynamic-ticket
  channel outages, bridge losses).
* :class:`FaultInjector` — a :class:`~repro.sim.component.Component`
  with its own seeded RNG stream that schedules the plan's faults
  against any attached bus, bridge or lottery manager.
* :class:`RetryPolicy` — the master-side error-response path: bounded
  retries with per-request timeout and exponential backoff plus jitter
  drawn from the simulation RNG.

Everything is seed-driven: the same root seed replays the exact same
fault schedule, so a failing run is always reproducible.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".injector": ("FaultInjector", "StuckRandomSource"),
    ".plan": ("FaultPlan", "RetryPolicy"),
})
