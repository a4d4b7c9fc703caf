"""Bus arbitration schemes.

Includes the paper's two conventional baselines (static priority,
two-level TDMA), two further architectures mentioned in Section 2.3
(round-robin, token ring), both LOTTERYBUS variants, and two
extensions: compensation tickets and deficit-weighted round-robin (the
deterministic proportional-share comparison point).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("Arbiter",),
    ".lottery": (
        "CompensatedLotteryArbiter",
        "DynamicLotteryArbiter",
        "StaticLotteryArbiter",
    ),
    ".registry": ("available_arbiters", "make_arbiter"),
    ".round_robin": ("RoundRobinArbiter",),
    ".static_priority": ("StaticPriorityArbiter",),
    ".tdma": ("TdmaArbiter",),
    ".token_ring": ("TokenRingArbiter",),
    ".weighted_rr": ("WeightedRoundRobinArbiter",),
})
