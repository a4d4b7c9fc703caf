"""The centralized lottery managers (Sections 4.2-4.4).

Both managers resolve an arbitration round the same way:

1. compute the contending-ticket partial sums for the current request map
   (from a precomputed table in the static manager, from the AND/adder
   tree in the dynamic one);
2. draw a random number uniform over ``[0, T)`` where ``T`` is the
   contending total;
3. compare the draw against all partial sums in parallel and let a
   priority selector pick the first master whose cumulative range
   contains the draw.

The random source is pluggable: an :class:`~repro.core.lfsr.LFSR` models
the paper's hardware; a :class:`SoftwareRandomSource` gives ideal
uniformity for the RNG ablation benchmark.

A note on non-power-of-two contending totals: the paper scales the *full*
ticket total to a power of two so the LFSR draw is directly usable, but
when only a subset of masters contend, the subset total is arbitrary.
The hardware has two realizable behaviours, both modelled here:

* ``draw_policy="reduce"`` (default) — reduce the raw draw into
  ``[0, T)`` (mask when T is a power of two, else modulo; the dynamic
  manager's modulo hardware, always grants);
* ``draw_policy="rejection"`` — use the raw draw as-is; if it falls
  beyond every contending range, no comparator fires and the round
  produces no grant (one idle cycle, retried next round).  This is what
  bare comparator hardware without modulo does.
"""

from bisect import bisect_right

from repro.core.lfsr import LFSR
from repro.core.lookup_table import request_map_to_index, shared_lookup_table
from repro.core.scaling import is_power_of_two, next_power_of_two, scale_to_power_of_two
from repro.core.tickets import TicketAssignment
from repro.sim.snapshot import Snapshottable

_DRAW_POLICIES = ("reduce", "rejection")


class SoftwareRandomSource(Snapshottable):
    """Ideal uniform source backed by a seeded software RNG."""

    state_children = ("_stream",)

    def __init__(self, stream):
        self._stream = stream

    def draw_below(self, bound):
        return self._stream.randrange(bound)

    def reset(self):
        self._stream.reset()


class LotteryOutcome:
    """The result of one lottery drawing."""

    __slots__ = ("winner", "draw", "total", "partial_sums")

    def __init__(self, winner, draw, total, partial_sums):
        self.winner = winner
        self.draw = draw
        self.total = total
        self.partial_sums = tuple(partial_sums)

    @property
    def granted(self):
        return self.winner is not None

    def __eq__(self, other):
        # Value equality, so a checkpoint-restored outcome compares
        # equal to the live one it snapshotted.
        if not isinstance(other, LotteryOutcome):
            return NotImplemented
        return (
            self.winner == other.winner
            and self.draw == other.draw
            and self.total == other.total
            and self.partial_sums == other.partial_sums
        )

    def __hash__(self):
        return hash((self.winner, self.draw, self.total, self.partial_sums))

    def __repr__(self):
        return "LotteryOutcome(winner={}, draw={}, total={})".format(
            self.winner, self.draw, self.total
        )


def select_winner(draw, partial_sums):
    """The comparator bank + priority selector.

    Every comparator outputs 1 when ``draw < partial_sum``; the priority
    selector grants the first asserted output.  Returns ``None`` when no
    comparator fires (draw beyond the contending range).  Partial sums
    never decrease, so the first asserted output is a bisection.
    """
    master = bisect_right(partial_sums, draw)
    return master if master < len(partial_sums) else None


class StaticLotteryManager(Snapshottable):
    """Lottery manager with statically assigned tickets (Section 4.3).

    :param tickets: requested holdings, one per master.
    :param random_source: object with ``draw_below(bound)``; default is a
        maximal LFSR sized to the scaled ticket total.
    :param scale: scale holdings to a power-of-two total (paper default).
    :param minimum_total: optional floor on the scaled total (power of
        two) for finer ratio resolution.
    :param draw_policy: ``"reduce"`` or ``"rejection"`` (see module doc).
    :param lfsr_seed: seed for the default LFSR source.
    """

    def __init__(
        self,
        tickets,
        random_source=None,
        scale=True,
        minimum_total=None,
        draw_policy="reduce",
        lfsr_seed=1,
    ):
        if draw_policy not in _DRAW_POLICIES:
            raise ValueError("unknown draw policy {!r}".format(draw_policy))
        requested = TicketAssignment(tickets)
        self.requested_tickets = requested
        if scale and not (
            is_power_of_two(requested.total) and minimum_total is None
        ):
            scaled = scale_to_power_of_two(
                requested.tickets, minimum_total=minimum_total
            )
        else:
            scaled = list(requested.tickets)
        self.tickets = TicketAssignment(scaled)
        # Shared across managers with identical scaled holdings — every
        # seed of a replication and every point of a sweep that lands on
        # the same assignment reuses one immutable table (reuse is
        # counted by repro.core.lookup_table.lookup_table_cache_stats).
        self.table = shared_lookup_table(self.tickets)
        self.draw_policy = draw_policy
        if random_source is None:
            # The register is 8 bits wider than the ticket index so the
            # masked low bits are near-uniform: a maximal LFSR never
            # emits the all-zero state, so a register exactly as wide as
            # the ticket total would never draw 0 and master 0 would be
            # visibly shortchanged.
            width = min(32, (self.tickets.total - 1).bit_length() + 8)
            random_source = LFSR(width, seed=lfsr_seed)
        self.random_source = random_source
        self.lotteries_held = 0
        self.rejected_draws = 0

    state_attrs = ("lotteries_held", "rejected_draws")
    state_children = ("random_source",)

    @property
    def num_masters(self):
        return self.tickets.num_masters

    def reset(self):
        if hasattr(self.random_source, "reset"):
            self.random_source.reset()
        self.lotteries_held = 0
        self.rejected_draws = 0

    def draw(self, request_map):
        """Hold one lottery; returns a LotteryOutcome or None if no requests.

        A truthy entry of ``request_map`` requests, so a bus's pending
        word counts serve as they are.
        """
        return self.draw_index(request_map_to_index(request_map))

    def draw_index(self, index):
        """:meth:`draw` for a request map already packed into a table
        index (master 0 at bit 0); ``draw`` packs and calls this."""
        partial_sums = self.table.partial_sums_at(index)
        total = partial_sums[-1]
        if total == 0:
            return None
        self.lotteries_held += 1
        if self.draw_policy == "reduce":
            value = self.random_source.draw_below(total)
        else:
            # Raw draw over the smallest power-of-two window covering the
            # contending total; may miss every range.
            window = next_power_of_two(total)
            value = self.random_source.draw_below(window)
        winner = select_winner(value, partial_sums)
        if winner is None:
            self.rejected_draws += 1
        return LotteryOutcome(winner, value, total, partial_sums)


class DynamicLotteryManager(Snapshottable):
    """Lottery manager with run-time ticket holdings (Section 4.4).

    Masters update their holdings through :meth:`set_tickets`; each
    lottery recomputes partial sums through the AND/adder-tree datapath
    and reduces a fixed-width raw draw into the contending range with
    modulo hardware.

    :param initial_tickets: starting holdings, one per master.
    :param random_source: object with ``draw_below(bound)``; default a
        16-bit maximal LFSR (wide enough that modulo bias is < T/65535).
    :param ticket_bits: width of each ticket input word; holdings are
        clamped into ``[1, 2**ticket_bits - 1]``.
    :param lfsr_seed: seed for the default LFSR source.
    """

    def __init__(
        self,
        initial_tickets,
        random_source=None,
        ticket_bits=8,
        lfsr_seed=1,
    ):
        if ticket_bits < 1:
            raise ValueError("ticket_bits must be positive")
        initial = TicketAssignment(initial_tickets)
        self.ticket_bits = ticket_bits
        self.max_ticket = (1 << ticket_bits) - 1
        self._tickets = [self._clamp(t) for t in initial.tickets]
        # Partial sums per packed request map, valid for the current
        # ticket table; rebuilt lazily, dropped on any ticket change.
        self._sums_cache = {}
        if random_source is None:
            random_source = LFSR(16, seed=lfsr_seed)
        self.random_source = random_source
        self.lotteries_held = 0
        self.ticket_updates = 0
        self._initial = list(self._tickets)
        # Graceful degradation (see repro.faults): while the ticket
        # update channel is down, the manager keeps serving lotteries
        # from its last-known table and counts the dropped updates.
        self.ticket_channel_up = True
        self.degradation_events = 0
        self.dropped_updates = 0

    state_attrs = (
        "_tickets",
        "lotteries_held",
        "ticket_updates",
        "ticket_channel_up",
        "degradation_events",
        "dropped_updates",
    )
    state_children = ("random_source",)
    # _sums_cache is a memo over _tickets, dropped by load_state_dict
    # below; _initial is the immutable reset target, fixed at
    # construction and identical in the restored object.
    state_exclude = ("_sums_cache", "_initial")

    def _clamp(self, value):
        value = int(value)
        if value < 1:
            raise ValueError("tickets must be positive")
        return min(value, self.max_ticket)

    @property
    def num_masters(self):
        return len(self._tickets)

    @property
    def tickets(self):
        """Current holdings (read-only copy)."""
        return tuple(self._tickets)

    def set_tickets(self, master, count):
        """A master communicates a new holding to the manager.

        While the ticket-update channel is disabled (an injected fault),
        the update is dropped — a counted, non-fatal degradation: the
        manager falls back to its last-known static ticket table rather
        than wedging or granting from garbage.
        """
        if not self.ticket_channel_up:
            self.dropped_updates += 1
            return
        count = self._clamp(count)
        if count != self._tickets[master]:
            self._tickets[master] = count
            self._sums_cache.clear()
        self.ticket_updates += 1

    def disable_ticket_channel(self):
        """Fault entry point: the update channel goes down (non-fatal)."""
        if self.ticket_channel_up:
            self.ticket_channel_up = False
            self.degradation_events += 1

    def restore_ticket_channel(self):
        """Fault recovery: updates flow again."""
        self.ticket_channel_up = True

    def set_all_tickets(self, tickets):
        """Replace every holding at once: :meth:`set_tickets` per master,
        in one pass with at most one cache invalidation."""
        if len(tickets) != len(self._tickets):
            raise ValueError("wrong number of masters")
        if not self.ticket_channel_up:
            self.dropped_updates += len(tickets)
            return
        clamped = [self._clamp(count) for count in tickets]
        if clamped != self._tickets:
            self._tickets = clamped
            self._sums_cache.clear()
        self.ticket_updates += len(tickets)

    def rewrite_ticket(self, master, count):
        """:meth:`set_all_tickets` for a table in which only ``master``'s
        holding can differ: the same counters (one update per master)
        and cache invalidation, without rebuilding the whole table."""
        if not self.ticket_channel_up:
            self.dropped_updates += len(self._tickets)
            return
        count = self._clamp(count)
        if count != self._tickets[master]:
            self._tickets[master] = count
            self._sums_cache.clear()
        self.ticket_updates += len(self._tickets)

    def reset(self):
        self._tickets = list(self._initial)
        self._sums_cache.clear()
        if hasattr(self.random_source, "reset"):
            self.random_source.reset()
        self.lotteries_held = 0
        self.ticket_updates = 0
        self.ticket_channel_up = True
        self.degradation_events = 0
        self.dropped_updates = 0

    def load_state_dict(self, state):
        super().load_state_dict(state)
        # The restored ticket table may differ from the live one the
        # cache was built against.
        self._sums_cache.clear()

    def draw(self, request_map):
        """Hold one lottery; returns a LotteryOutcome or None if no requests.

        A truthy entry of ``request_map`` requests, so a bus's pending
        word counts serve as they are.
        """
        if len(request_map) != len(self._tickets):
            raise ValueError("request map size mismatch")
        return self.draw_index(request_map_to_index(request_map))

    def draw_index(self, index):
        """:meth:`draw` for a request map already packed into an index
        (master 0 at bit 0); ``draw`` packs and calls this."""
        partial_sums = self._sums_cache.get(index)
        if partial_sums is None:
            # The adder tree's masked prefix sums (see
            # repro.core.adder_tree), in one loop.
            sums = []
            running = 0
            for master, tickets in enumerate(self._tickets):
                if index >> master & 1:
                    running += tickets
                sums.append(running)
            partial_sums = self._sums_cache[index] = tuple(sums)
        total = partial_sums[-1]
        if total == 0:
            return None
        self.lotteries_held += 1
        value = self.random_source.draw_below(total)
        winner = select_winner(value, partial_sums)
        return LotteryOutcome(winner, value, total, partial_sums)
