"""Host time scaled to a fixed host speed.

The machines this benchmark runs on change speed under load from
outside the process: the same simulation takes 0.7 s in one second and
1.3 s in the next, with CPU time equal to wall time (nothing is stolen;
every instruction runs slower).  Whole-run medians then differ by 10-25%
between runs of the same code, which no useful regression bound covers.

A fixed pure-Python reference loop, run in the same process right
beside the measured work, slows by the same factor.  So every time the
benchmark reports is scaled by it::

    scaled = measured * REFERENCE_NOMINAL_S / reference time nearby

that is, the time the work would take on a host where the reference
loop takes :data:`REFERENCE_NOMINAL_S`.  A slower program still reads
slower; a slower host does not.  The reference is the benchmark's own
code, so no change to the program can move it.

:class:`HostClock` keeps the reference samples of one run: taken every
:data:`SAMPLE_PERIOD_S` by a timer signal in the main thread while a
closed loop runs, or explicitly (:meth:`HostClock.sample`) where the
caller knows the process is otherwise idle.
"""

import bisect
import contextlib
import signal
import statistics
import time

#: Reference time (seconds) of the nominal host that scaled times are
#: expressed on: about this loop's time on an unloaded 2-vCPU x86-64
#: virtual machine under CPython 3.11.
REFERENCE_NOMINAL_S = 0.0004

#: Sampling period while a closed loop runs.  Speed phases last about a
#: second; one sample costs about 2% of the period.
SAMPLE_PERIOD_S = 0.02

#: Samples this far either side of an interval also set its host speed,
#: so an interval shorter than the sampling period still has several.
WINDOW_S = 0.05

_ITERATIONS = 2000


class _Counter:
    __slots__ = ("total", "seen")

    def __init__(self):
        self.total = 0
        self.seen = {}

    def step(self, value):
        self.total += value & 7
        self.seen[value & 63] = self.total
        return self.total


def reference():
    """The reference loop: attribute access, a dict store, integer
    arithmetic and a method call per iteration, like the simulator's
    own interpreter work."""
    counter = _Counter()
    mixed = 0
    for value in range(_ITERATIONS):
        mixed += counter.step(value)
        if mixed & 1:
            mixed ^= 3
    return mixed


def reference_seconds():
    """Host seconds of one run of :func:`reference`."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(seconds, reference_s):
    """``seconds`` measured beside a reference run of ``reference_s``,
    at nominal host speed."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


class HostClock:
    """The reference samples of one run, in time order."""

    def __init__(self, period=SAMPLE_PERIOD_S, window=WINDOW_S):
        self.period = period
        self.window = window
        self.starts = []
        self.ends = []
        self._sampling = False

    def sample(self):
        """Take one reference sample now."""
        self._sampling = True
        try:
            start = time.perf_counter()
            reference()
            # Python runs signal handlers in the main thread between two
            # bytecodes, and ``_sampling`` keeps a handler from running
            # inside a sample: every append comes from one thread, in
            # time order, and samples are read once sampling has ended.
            self.starts.append(start)  # lb: noqa[LB201]
            self.ends.append(time.perf_counter())  # lb: noqa[LB201]
        finally:
            self._sampling = False

    def describe(self):
        """One line on the host speed the samples saw."""
        durations = [end - start for start, end in zip(self.starts,
                                                       self.ends)]
        return "reference loop {:.3f} ms median over {} samples (nominal " \
               "{:.3f} ms)".format(statistics.median(durations) * 1e3,
                                   len(durations), REFERENCE_NOMINAL_S * 1e3)

    def _on_alarm(self, signum, frame):
        # A timer sample inside another sample would be stored before
        # it, out of time order.
        if not self._sampling:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``period`` seconds while the block runs.

        The timer signal is handled in the main thread between two
        bytecodes, so a sample never lands inside another thread's
        work; use this only where the main thread does the measured
        work.  Samples landing inside a measured interval are taken out
        of it by :meth:`scaled`.
        """
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start, end):
        """Seconds from ``start`` to ``end`` (``perf_counter`` stamps),
        less the samples taken inside, at nominal host speed.

        The host's speed comes from the samples that start within
        ``window`` of the interval, or else the nearest sample on each
        side.  Samples are evenly spaced in time, so the mean of their
        speeds (the harmonic mean of their times) is the host's mean
        speed over the interval; the mean of their times would
        under-correct an interval whose speed changes.
        """
        if not self.starts:
            raise ValueError("no reference sample was taken")
        starts, ends = self.starts, self.ends
        first = bisect.bisect_left(starts, start)
        last = bisect.bisect_left(starts, end)
        inside = sum(min(ends[i], end) - starts[i]
                     for i in range(first, last))
        low = bisect.bisect_left(starts, start - self.window)
        high = bisect.bisect_right(starts, end + self.window)
        if low == high:
            low, high = max(0, low - 1), min(len(starts), high + 1)
        reference_s = statistics.harmonic_mean(
            [ends[i] - starts[i] for i in range(low, high)])
        return scale(end - start - inside, reference_s)
