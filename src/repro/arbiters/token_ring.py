"""Token-ring arbitration (Section 2.3).

A token circulates among the masters; only the holder may use the bus.
When the holder has no pending request the token moves to the next
master, which costs one bus cycle per hop — the source of token-ring
latency under sparse traffic.
"""

from repro.arbiters.base import Arbiter


class TokenRingArbiter(Arbiter):
    """Single-token ring over ``num_masters`` stations.

    :param num_masters: stations on the ring.
    :param hold_limit: maximum consecutive grants while holding the
        token before it must be passed on (None = release only when
        idle), preventing a backlogged master from monopolizing the bus.
    """

    name = "token-ring"

    # Each idle round hops the token one station; skip_idle replays the
    # hops arithmetically.
    supports_idle_skip = True

    state_attrs = ("_holder", "_consecutive", "token_passes")

    def __init__(self, num_masters, hold_limit=None):
        super().__init__(num_masters)
        if hold_limit is not None and hold_limit < 1:
            raise ValueError("hold_limit must be >= 1 when given")
        self.hold_limit = hold_limit
        self._holder = 0
        self._consecutive = 0
        self.token_passes = 0

    def reset(self):
        self._holder = 0
        self._consecutive = 0
        self.token_passes = 0

    @property
    def holder(self):
        return self._holder

    def skip_idle(self, cycles):
        self._holder = (self._holder + cycles) % self.num_masters
        self._consecutive = 0
        self.token_passes += cycles

    def _pass_token(self):
        self._holder = (self._holder + 1) % self.num_masters
        self._consecutive = 0
        self.token_passes += 1

    def arbitrate(self, cycle, pending):
        self._check_pending(pending)
        exhausted = (
            self.hold_limit is not None and self._consecutive >= self.hold_limit
        )
        if pending[self._holder] and not exhausted:
            self._consecutive += 1
            return self._grants[self._holder]
        # Token hop: one cycle, no grant this round.
        self._pass_token()
        return None
