"""Static priority based arbitration (Section 2.1).

"The bus arbiter periodically examines accumulated requests from the
master interfaces, and grants bus access to the master of highest
priority among the requesting masters."
"""

from repro.arbiters.base import Arbiter


class StaticPriorityArbiter(Arbiter):
    """Always grants the highest-priority pending master.

    :param priorities: one value per master; **larger values mean higher
        priority** (the paper assigns 1..4 with 4 the highest).  Values
        must be unique so arbitration is deterministic.
    """

    name = "static-priority"

    # Stateless: idle rounds are pure no-ops.
    supports_idle_skip = True

    def __init__(self, priorities):
        super().__init__(len(priorities))
        priorities = [int(p) for p in priorities]
        if len(set(priorities)) != len(priorities):
            raise ValueError("priorities must be unique")
        self.priorities = tuple(priorities)
        # Masters sorted from highest to lowest priority; arbitration is
        # then a first-match scan, mirroring the hardware selector.
        self._order = sorted(
            range(len(priorities)), key=lambda m: -priorities[m]
        )

    def arbitrate(self, cycle, pending):
        self._check_pending(pending)
        for master in self._order:
            if pending[master]:
                return self._grants[master]
        return None

    def vector_profile(self):
        """Batch-engine export: the fixed highest-to-lowest scan order
        (the whole arbiter — it holds no run-time state)."""
        return {"family": "static-priority", "order": list(self._order)}
