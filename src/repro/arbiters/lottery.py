"""LOTTERYBUS arbiters: thin bus-protocol wrappers over the managers."""

from repro.arbiters.base import Arbiter
from repro.core.lottery_manager import DynamicLotteryManager, StaticLotteryManager


class _LotteryArbiter(Arbiter):
    """Common arbitration path: request map -> lottery -> grant."""

    state_attrs = ("last_outcome",)
    state_children = ("manager",)

    # An idle round draws no lottery (the manager bails on an empty
    # request map before touching counters or the random source); the
    # only trace is last_outcome becoming None.
    supports_idle_skip = True

    def __init__(self, manager):
        super().__init__(manager.num_masters)
        self.manager = manager
        self.last_outcome = None

    def reset(self):
        self.manager.reset()
        self.last_outcome = None

    def skip_idle(self, cycles):
        self.last_outcome = None

    def arbitrate(self, cycle, pending):
        self._check_pending(pending)
        # Nonzero word counts request: the manager packs them straight
        # into its table index.
        outcome = self.manager.draw(pending)
        self.last_outcome = outcome
        if outcome is None or outcome.winner is None:
            # No requests, or a rejection-policy draw missed every range.
            return None
        return self._grants[outcome.winner]


class StaticLotteryArbiter(_LotteryArbiter):
    """LOTTERYBUS with statically assigned tickets (Section 4.3).

    Accepts either a prebuilt :class:`StaticLotteryManager` or the
    keyword arguments to construct one (``tickets`` plus the manager's
    options).
    """

    name = "lottery-static"

    def __init__(self, tickets=None, manager=None, **manager_kwargs):
        if manager is None:
            if tickets is None:
                raise ValueError("provide tickets or a manager")
            manager = StaticLotteryManager(tickets, **manager_kwargs)
        elif tickets is not None or manager_kwargs:
            raise ValueError("pass either a manager or constructor arguments")
        super().__init__(manager)

    @property
    def tickets(self):
        """The scaled holdings the hardware uses."""
        return self.manager.tickets.tickets

    def vector_profile(self):
        """Export the arbitration state the batch engine lifts into
        arrays (:mod:`repro.vector`): the full precomputed lookup table
        (one partial-sum row per packed request map), the draw policy,
        and the random source the per-lane LFSR stream is cloned from."""
        manager = self.manager
        return {
            "family": "lottery-static",
            "rows": [
                list(manager.table.partial_sums_at(index))
                for index in range(1 << manager.num_masters)
            ],
            "draw_policy": manager.draw_policy,
            "random_source": manager.random_source,
            "lotteries_held": manager.lotteries_held,
            "rejected_draws": manager.rejected_draws,
        }


class CompensatedLotteryArbiter(_LotteryArbiter):
    """LOTTERYBUS with Waldspurger-style compensation tickets.

    An extension beyond the paper (see :mod:`repro.core.compensation`):
    masters granted partial bursts have their tickets inflated until the
    next grant, so *word* shares track base tickets even when masters
    move different message sizes.

    :param tickets: base holdings, one per master.
    :param max_burst: the bus quantum — must match the bus's
        ``max_burst`` for the inflation arithmetic to be exact.
    """

    name = "lottery-compensated"

    def __init__(self, tickets, max_burst=16, **manager_kwargs):
        from repro.core.compensation import CompensatedLotteryManager

        manager = CompensatedLotteryManager(tickets, max_burst,
                                            **manager_kwargs)
        super().__init__(manager)
        self.max_burst = max_burst

    def arbitrate(self, cycle, pending):
        grant = super().arbitrate(cycle, pending)
        if grant is not None:
            burst = min(pending[grant.master], self.max_burst)
            self.manager.note_grant(grant.master, burst)
        return grant

    def vector_profile(self):
        """Batch-engine export: current holdings plus the compensation
        loop's parameters, so the engine can replay ``note_grant``
        (factor update + holdings recompute + clamp) with array ops."""
        manager = self.manager
        policy = manager.policy
        return {
            "family": "lottery-compensated",
            "tickets": list(manager.tickets),
            "base_tickets": list(policy.base.tickets),
            "factors": list(policy.factors),
            "policy_max_burst": policy.max_burst,
            "cap": policy.cap,
            "max_ticket": manager._manager.max_ticket,
            "arbiter_max_burst": self.max_burst,
            "random_source": manager._manager.random_source,
            "lotteries_held": manager.lotteries_held,
        }


class DynamicLotteryArbiter(_LotteryArbiter):
    """LOTTERYBUS with dynamically assigned tickets (Section 4.4)."""

    name = "lottery-dynamic"

    def __init__(self, tickets=None, manager=None, **manager_kwargs):
        if manager is None:
            if tickets is None:
                raise ValueError("provide tickets or a manager")
            manager = DynamicLotteryManager(tickets, **manager_kwargs)
        elif tickets is not None or manager_kwargs:
            raise ValueError("pass either a manager or constructor arguments")
        super().__init__(manager)

    @property
    def tickets(self):
        return self.manager.tickets

    def set_tickets(self, master, count):
        """Forward a run-time ticket update to the manager."""
        self.manager.set_tickets(master, count)

    def set_all_tickets(self, tickets):
        self.manager.set_all_tickets(tickets)

    def vector_profile(self):
        """Batch-engine export: the current holdings (the adder-tree
        partial sums are a per-cycle cumsum in the engine) and the
        random source.  The channel-up flag lets the planner refuse
        systems carrying an active ticket-channel fault."""
        manager = self.manager
        return {
            "family": "lottery-dynamic",
            "tickets": list(manager.tickets),
            "ticket_channel_up": manager.ticket_channel_up,
            "random_source": manager.random_source,
            "lotteries_held": manager.lotteries_held,
        }
