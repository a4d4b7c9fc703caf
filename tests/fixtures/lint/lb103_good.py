# lb: module=repro.sim.fixture_good
"""LB103 true negatives: conforming wakeup-contract implementations."""


class CountdownWithReplay:
    def __init__(self):
        self._think = 0

    def tick(self, cycle):
        if self._think > 0:
            self._think -= 1

    def next_activity(self, cycle):
        return cycle + self._think

    def skip_quiet(self, cycle, span):
        self._think -= span


class PeriodicSchedule:
    """Arithmetic over immutable config: off-beat ticks are pure no-ops,
    no replay needed."""

    def __init__(self, period, phase):
        self.period = period
        self.phase = phase

    def next_activity(self, cycle):
        offset = (cycle - self.phase) % self.period
        if offset == 0:
            return cycle
        return cycle + self.period - offset


class AbsoluteSchedule:
    """Returns a stored absolute cycle — nothing to replay."""

    def __init__(self):
        self._next_due = None

    def schedule(self, cycle):
        self._next_due = cycle

    def next_activity(self, cycle):
        if self._next_due is None:
            return None
        return max(cycle, self._next_due)


class InheritedReplay(CountdownWithReplay):
    """The in-file ancestor supplies skip_quiet."""

    def next_activity(self, cycle):
        return cycle + self._think


class ProperWake:
    def wake(self):
        self._wake_pending = True
        self._asleep = False

    def next_activity(self, cycle):
        return None


class DelegatingWake:
    def wake(self):
        super().wake()

    def next_activity(self, cycle):
        return None
