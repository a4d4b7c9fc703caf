"""repro — a reproduction of LOTTERYBUS (DAC 2001).

LOTTERYBUS is a probabilistic shared-bus arbitration architecture for
system-on-chip designs: each master holds lottery tickets, and a
centralized lottery manager grants the bus by drawing a random winner
weighted by the contending masters' tickets.  Compared to static
priority arbitration it provides proportional bandwidth control without
starvation; compared to TDMA it provides low latency independent of
request/slot phase alignment.

Quickstart::

    from repro import StaticLotteryArbiter, build_single_bus_system
    from repro.traffic import get_traffic_class

    arbiter = StaticLotteryArbiter(tickets=[1, 2, 3, 4])
    system, bus = build_single_bus_system(
        4, arbiter, get_traffic_class("T8").generator_factory(seed=1)
    )
    system.run(100_000)
    print(bus.metrics.bandwidth_shares())   # ~[0.1, 0.2, 0.3, 0.4]
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".arbiters.base": ("Arbiter",),
    ".arbiters.lottery": ("DynamicLotteryArbiter", "StaticLotteryArbiter"),
    ".arbiters.registry": ("available_arbiters", "make_arbiter"),
    ".arbiters.round_robin": ("RoundRobinArbiter",),
    ".arbiters.static_priority": ("StaticPriorityArbiter",),
    ".arbiters.tdma": ("TdmaArbiter",),
    ".arbiters.token_ring": ("TokenRingArbiter",),
    ".bus.bridge": ("Bridge",),
    ".bus.bus": ("SharedBus",),
    ".bus.master": ("MasterInterface",),
    ".bus.slave": ("Slave",),
    ".bus.topology": ("BusSystem", "build_single_bus_system"),
    ".bus.transaction": ("Grant", "Request"),
    ".core.lfsr": ("LFSR",),
    ".core.lottery_manager": ("DynamicLotteryManager", "StaticLotteryManager"),
    ".core.scaling": ("scale_to_power_of_two",),
    ".core.starvation": ("access_probability",),
    ".core.tickets": ("TicketAssignment",),
    ".faults.injector": ("FaultInjector",),
    ".faults.plan": ("FaultPlan", "RetryPolicy"),
    ".metrics.collector": ("MetricsCollector",),
    ".sim.component": ("Component",),
    ".sim.kernel": ("Simulator",),
    ".sim.rng": ("RandomStream",),
    ".sim.snapshot": ("CheckpointError", "Snapshottable"),
})
__all__.append("__version__")
