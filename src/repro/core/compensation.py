"""Compensation tickets: ticket inflation for short transfers.

The paper's lottery allocates *grants* in ticket proportion, so when
masters move different message sizes the resulting *word* shares are
proportional to ``tickets x mean transfer size``, not tickets alone
(visible in mixed-size traffic).  Waldspurger & Weihl's original lottery
scheduling [16] solves the analogous CPU problem with *compensation
tickets*: a client that consumes only a fraction ``f`` of its quantum
has its tickets inflated by ``1/f`` until it next wins.

:class:`CompensationPolicy` ports that mechanism to the bus: the
quantum is the bus's maximum transfer size; a master granted a burst of
``b`` words receives inflation ``max_burst / b`` on its base holding
until its next grant.  With the policy enabled, word shares track base
tickets even when message sizes differ across masters — an extension
the paper leaves open, built on the dynamic lottery manager's run-time
ticket port.
"""

from repro.core.lottery_manager import DynamicLotteryManager
from repro.core.tickets import TicketAssignment
from repro.sim.snapshot import Snapshottable


class CompensationPolicy(Snapshottable):
    """Computes per-master inflated holdings from observed burst sizes.

    :param base_tickets: the designer's intended proportions.
    :param max_burst: the bus quantum in words.
    :param cap: ceiling on any inflated holding (hardware word width).
    """

    def __init__(self, base_tickets, max_burst, cap=255):
        base = TicketAssignment(base_tickets)
        if max_burst < 1:
            raise ValueError("max_burst must be >= 1")
        if cap < max(base.tickets):
            raise ValueError("cap must accommodate the base tickets")
        self.base = base
        self.max_burst = max_burst
        self.cap = cap
        self._factors = [1.0] * base.num_masters
        self._rebuild_holdings()

    state_attrs = ("_factors",)
    # _holdings is the rounded image of _factors, kept per grant and
    # rebuilt by load_state_dict below.
    state_exclude = ("_holdings",)

    @property
    def num_masters(self):
        return self.base.num_masters

    @property
    def factors(self):
        """Current per-master inflation factors (read-only copy)."""
        return tuple(self._factors)

    def _inflated(self, master):
        inflated = round(self.base.tickets[master] * self._factors[master])
        return min(self.cap, max(1, inflated))

    def _rebuild_holdings(self):
        self._holdings = [self._inflated(m) for m in range(self.num_masters)]

    def holdings(self):
        """Current inflated holdings (integers, >= 1, <= cap)."""
        return list(self._holdings)

    def holding(self, master):
        """``master``'s current inflated holding (``holdings()[master]``)."""
        return self._holdings[master]

    def on_grant(self, master, burst_words):
        """Record a grant; returns the master's next inflation factor.

        A full-quantum burst resets the factor to 1; a partial burst of
        ``b`` words earns ``max_burst / b`` inflation (Waldspurger's
        ``1/f``), so over time each master's *expected words per
        lottery* equalizes at ``tickets / total``.
        """
        if not 0 <= master < self.num_masters:
            raise ValueError("unknown master {}".format(master))
        if burst_words < 1:
            raise ValueError("burst must carry at least one word")
        used = min(burst_words, self.max_burst)
        self._factors[master] = self.max_burst / used
        # Only the winner's factor moved, so only its holding is redone.
        self._holdings[master] = self._inflated(master)
        return self._factors[master]

    def reset(self):
        self._factors = [1.0] * self.num_masters
        self._rebuild_holdings()

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._rebuild_holdings()


class CompensatedLotteryManager(Snapshottable):
    """A dynamic lottery manager driven by a CompensationPolicy.

    Drop-in compatible with the managers consumed by
    :class:`repro.arbiters.lottery._LotteryArbiter`: exposes
    ``num_masters``, ``draw``, ``draw_index`` and ``reset``.  The
    arbiter wrapper feeds grant sizes back through :meth:`note_grant`.
    """

    def __init__(self, base_tickets, max_burst, random_source=None,
                 lfsr_seed=1, cap=255):
        self.policy = CompensationPolicy(base_tickets, max_burst, cap=cap)
        self._manager = DynamicLotteryManager(
            self.policy.holdings(),
            random_source=random_source,
            lfsr_seed=lfsr_seed,
        )
        # Whether the manager's table holds the policy's holdings, so a
        # grant, which moves only the winner's, need rewrite no other
        # ticket.  An update dropped while the ticket channel is down
        # breaks it until the next full rewrite.
        self._in_sync = True

    state_children = ("policy", "_manager")
    # _in_sync is derived: a restore clears it, so the first grant after
    # one rewrites the whole table.
    state_exclude = ("_in_sync",)

    @property
    def num_masters(self):
        return self.policy.num_masters

    @property
    def tickets(self):
        return self._manager.tickets

    @property
    def lotteries_held(self):
        return self._manager.lotteries_held

    def draw(self, request_map):
        return self._manager.draw(request_map)

    def draw_index(self, index):
        return self._manager.draw_index(index)

    def note_grant(self, master, burst_words):
        """Feed the granted burst size back into the compensation loop.

        The manager sees every holding rewritten (its counters and cache
        move as under ``set_all_tickets``), but while its table is in
        sync only the winner's ticket, the one the grant moved, is redone.
        """
        policy = self.policy
        policy.on_grant(master, burst_words)
        manager = self._manager
        if self._in_sync:
            manager.rewrite_ticket(master, policy.holding(master))
        else:
            manager.set_all_tickets(policy.holdings())
        self._in_sync = manager.ticket_channel_up

    def reset(self):
        self.policy.reset()
        self._manager.reset()
        self._manager.set_all_tickets(self.policy.holdings())
        self._in_sync = True

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._in_sync = False
