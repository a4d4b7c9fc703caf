"""Name-based arbiter construction, for CLIs and sweep harnesses."""

from repro.arbiters.lottery import (
    CompensatedLotteryArbiter,
    DynamicLotteryArbiter,
    StaticLotteryArbiter,
)
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.arbiters.static_priority import StaticPriorityArbiter
from repro.arbiters.tdma import TdmaArbiter
from repro.arbiters.token_ring import TokenRingArbiter
from repro.arbiters.weighted_rr import WeightedRoundRobinArbiter


def _make_static_priority(num_masters, weights):
    # Interpret weights as relative importance; rank them into unique
    # priorities (ties broken by master index, lower index wins).
    order = sorted(range(num_masters), key=lambda m: (weights[m], -m))
    priorities = [0] * num_masters
    for rank, master in enumerate(order):
        priorities[master] = rank + 1
    return StaticPriorityArbiter(priorities)


# The keyword extras each scheme's factory takes.  ``None`` marks the
# schemes whose factories take none and ignore whatever is passed.
_EXTRAS = {
    "static-priority": None,
    "round-robin": None,
    "tdma": ("reclaim",),
    "token-ring": ("hold_limit",),
    "lottery-static": (
        "random_source", "scale", "minimum_total", "draw_policy",
        "lfsr_seed",
    ),
    "lottery-dynamic": ("random_source", "ticket_bits", "lfsr_seed"),
    "lottery-compensated": ("max_burst", "random_source", "lfsr_seed", "cap"),
    "weighted-rr": ("quantum_scale",),
}


def _unknown_arbiter(name):
    return ValueError(
        "unknown arbiter {!r}; choose from {}".format(name, available_arbiters())
    )


def check_arbiter(name, extras):
    """Reject, with :class:`ValueError`, a name :func:`make_arbiter` does
    not know or an extra keyword its factory does not take, without
    building the arbiter."""
    if name not in _EXTRAS:
        raise _unknown_arbiter(name)
    known = _EXTRAS[name]
    if known is None or not extras:
        return
    unknown = sorted(set(extras).difference(known))
    if unknown:
        raise ValueError(
            "arbiter {!r} takes no {}; it takes {}".format(
                name, unknown, list(known)
            )
        )


def make_arbiter(name, num_masters, weights=None, **kwargs):
    """Build an arbiter by name with a uniform weight interface.

    ``weights`` expresses per-master importance and maps onto each
    scheme's native knob: priorities (static-priority), slot counts
    (TDMA), tickets (lottery).  Weight-free schemes ignore it.

    :param name: one of :func:`available_arbiters`.
    :param num_masters: masters on the bus.
    :param weights: positive per-master weights (default all ones).
    :param kwargs: scheme-specific extras (e.g. ``lfsr_seed``,
        ``reclaim_idle``, ``hold_limit``).
    """
    if weights is None:
        weights = [1] * num_masters
    if len(weights) != num_masters:
        raise ValueError("weights length must equal num_masters")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive integers")

    if name == "static-priority":
        return _make_static_priority(num_masters, weights)
    if name == "round-robin":
        return RoundRobinArbiter(num_masters)
    if name == "tdma":
        return TdmaArbiter.from_slot_counts(list(weights), **kwargs)
    if name == "token-ring":
        # Without a hold limit a permanently backlogged station would
        # never release the token; default to one max-size burst.
        kwargs.setdefault("hold_limit", 16)
        return TokenRingArbiter(num_masters, **kwargs)
    if name == "lottery-static":
        return StaticLotteryArbiter(tickets=list(weights), **kwargs)
    if name == "lottery-dynamic":
        return DynamicLotteryArbiter(tickets=list(weights), **kwargs)
    if name == "lottery-compensated":
        return CompensatedLotteryArbiter(list(weights), **kwargs)
    if name == "weighted-rr":
        return WeightedRoundRobinArbiter(list(weights), **kwargs)
    raise _unknown_arbiter(name)


def available_arbiters():
    """Names accepted by :func:`make_arbiter`."""
    return list(_EXTRAS)
