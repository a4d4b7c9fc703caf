"""Round-robin arbitration (mentioned in Section 2 as a common protocol)."""

from repro.arbiters.base import Arbiter


class RoundRobinArbiter(Arbiter):
    """Grants pending masters in cyclic order.

    A pointer remembers the most recently granted master; arbitration
    scans forward from the next position and grants the first pending
    master, which then becomes the new pointer.
    """

    name = "round-robin"

    # Idle rounds scan, find nothing and leave the pointer untouched.
    supports_idle_skip = True

    state_attrs = ("_last",)

    def __init__(self, num_masters):
        super().__init__(num_masters)
        self._last = num_masters - 1

    def reset(self):
        self._last = self.num_masters - 1

    def arbitrate(self, cycle, pending):
        self._check_pending(pending)
        for offset in range(1, self.num_masters + 1):
            master = (self._last + offset) % self.num_masters
            if pending[master]:
                self._last = master
                return self._grants[master]
        return None
