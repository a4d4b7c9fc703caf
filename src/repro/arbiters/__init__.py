"""Bus arbitration schemes.

Includes the paper's two conventional baselines (static priority,
two-level TDMA), two further architectures mentioned in Section 2.3
(round-robin, token ring), both LOTTERYBUS variants, and two
extensions: compensation tickets and deficit-weighted round-robin (the
deterministic proportional-share comparison point).
"""

from repro.arbiters.base import Arbiter
from repro.arbiters.lottery import (
    CompensatedLotteryArbiter,
    DynamicLotteryArbiter,
    StaticLotteryArbiter,
)
from repro.arbiters.registry import available_arbiters, make_arbiter
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.arbiters.static_priority import StaticPriorityArbiter
from repro.arbiters.tdma import TdmaArbiter
from repro.arbiters.token_ring import TokenRingArbiter
from repro.arbiters.weighted_rr import WeightedRoundRobinArbiter

__all__ = [
    "Arbiter",
    "CompensatedLotteryArbiter",
    "DynamicLotteryArbiter",
    "StaticLotteryArbiter",
    "available_arbiters",
    "make_arbiter",
    "RoundRobinArbiter",
    "StaticPriorityArbiter",
    "TdmaArbiter",
    "TokenRingArbiter",
    "WeightedRoundRobinArbiter",
]
