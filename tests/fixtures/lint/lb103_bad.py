# lb: module=repro.sim.fixture_bad
"""LB103 true positives: wakeup-contract violations."""


class CountdownWithoutReplay:
    """Promises a quiescent stretch measured by self._think but never
    replays it: fast mode loses the countdown and diverges from dense."""

    def __init__(self):
        self._think = 0

    def tick(self, cycle):
        if self._think > 0:
            self._think -= 1

    def next_activity(self, cycle):
        return cycle + self._think


class DeadReplay:
    """Overrides skip_quiet but inherits the default dense
    next_activity, so the replay can never run."""

    def __init__(self):
        self._idle = 0

    def skip_quiet(self, cycle, span):
        self._idle += span


class DroppedWake:
    """wake() forgets the flag: the kernel will jump past the stimulus."""

    def __init__(self):
        self._armed = False

    def wake(self):
        self._armed = True

    def next_activity(self, cycle):
        return None


class StaleSleepWake:
    """wake() sets the flag but never clears the sleep: a sleeping
    component is never ticked again in fast mode."""

    def wake(self):
        self._wake_pending = True

    def next_activity(self, cycle):
        return None
