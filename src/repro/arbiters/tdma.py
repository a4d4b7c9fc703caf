"""Two-level TDMA arbitration (Section 2.2, Figure 2).

Level one is a timing wheel in which every slot is statically reserved
for one master; if that master has a pending request it receives a
single-word grant and the wheel rotates by one slot.  Level two
alleviates wasted slots: when the slot owner is idle, the slot is handed
to the next requesting master in round-robin order (the ``rr`` pointer
of Figure 2).

The wheel rotates exactly once per bus cycle in which the bus is free to
arbitrate (grants are single-word, so that is every transfer cycle), so
bandwidth reservations are proportional to slot counts and latency is
sensitive to the phase alignment of requests against the wheel — the
behaviour Figure 5 and Figure 12(b) demonstrate.
"""

from repro.arbiters.base import Arbiter


class TdmaArbiter(Arbiter):
    """Two-level TDMA arbiter over an explicit slot reservation list.

    :param num_masters: number of masters on the bus.
    :param slots: the timing wheel — a sequence of master indices, e.g.
        ``[0, 0, 1, 2, 2, 2]``; reservations for one master are usually
        contiguous so back-to-back slots form bursts (Figure 5's "6
        contiguous slots defining the size of a burst").
    :param reclaim: second-level behaviour for idle slots:

        * ``"scan"`` (default, Figure 2's description) — the rr pointer
          advances to the next master with a pending request, so an idle
          slot is never wasted while anyone is waiting;
        * ``"single"`` — cheaper hardware that examines only the single
          next master after the rr pointer each slot; the slot is wasted
          if that one master is idle;
        * ``"none"`` — pure single-level TDMA, idle slots always wasted.
    """

    name = "tdma"

    _RECLAIM_POLICIES = ("scan", "single", "none")

    state_attrs = (
        "_position",
        "_rr",
        "level_one_grants",
        "level_two_grants",
        "wasted_slots",
    )

    def __init__(self, num_masters, slots, reclaim="scan"):
        # Every grant is a single-word slot.
        super().__init__(num_masters, max_words=1)
        slots = [int(s) for s in slots]
        if not slots:
            raise ValueError("the timing wheel needs at least one slot")
        if any(s < 0 or s >= num_masters for s in slots):
            raise ValueError("slot reservations must name valid masters")
        if reclaim not in self._RECLAIM_POLICIES:
            raise ValueError(
                "reclaim must be one of {}".format(self._RECLAIM_POLICIES)
            )
        self.slots = tuple(slots)
        self.reclaim = reclaim
        self._position = 0
        self._rr = 0
        self.level_one_grants = 0
        self.level_two_grants = 0
        self.wasted_slots = 0

    @classmethod
    def from_slot_counts(cls, slot_counts, reclaim="scan"):
        """Build a wheel with contiguous blocks: counts per master.

        ``[2, 2, 3, 3]`` gives the wheel ``0 0 1 1 2 2 2 3 3 3``.
        """
        slots = []
        for master, count in enumerate(slot_counts):
            if count < 0:
                raise ValueError("slot counts must be non-negative")
            slots.extend([master] * count)
        return cls(len(slot_counts), slots, reclaim=reclaim)

    @property
    def current_owner(self):
        """The master owning the wheel's current slot."""
        return self.slots[self._position]

    def reset(self):
        self._position = 0
        self._rr = 0
        self.level_one_grants = 0
        self.level_two_grants = 0
        self.wasted_slots = 0

    # Idle rounds rotate the wheel and waste the slot; "single" reclaim
    # also advances the rr probe — all arithmetic, replayed by skip_idle.
    supports_idle_skip = True

    def skip_idle(self, cycles):
        self._position = (self._position + cycles) % len(self.slots)
        self.wasted_slots += cycles
        if self.reclaim == "single":
            self._rr = (self._rr + cycles) % self.num_masters

    def slot_counts(self):
        """Reserved slots per master."""
        counts = [0] * self.num_masters
        for slot in self.slots:
            counts[slot] += 1
        return counts

    def arbitrate(self, cycle, pending):
        self._check_pending(pending)
        owner = self.slots[self._position]
        self._position = (self._position + 1) % len(self.slots)
        if pending[owner]:
            self.level_one_grants += 1
            return self._grants[owner]
        if self.reclaim == "scan":
            for offset in range(1, self.num_masters + 1):
                master = (self._rr + offset) % self.num_masters
                if pending[master]:
                    self._rr = master
                    self.level_two_grants += 1
                    return self._grants[master]
        elif self.reclaim == "single":
            candidate = (self._rr + 1) % self.num_masters
            self._rr = candidate
            if pending[candidate]:
                self.level_two_grants += 1
                return self._grants[candidate]
        self.wasted_slots += 1
        return None
