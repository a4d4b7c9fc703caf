"""Latency statistics for completed bus transactions."""

from repro.sim.snapshot import Snapshottable


class LatencyStats(Snapshottable):
    """Accumulates the paper's latency metric for one master.

    The paper reports "the average number of bus cycles spent in
    transferring a bus word including both waiting time and data transfer
    time": a message of ``w`` words arriving at cycle ``a`` whose last
    word completes at cycle ``c`` spent ``c - a + 1`` cycles in flight,
    i.e. ``(c - a + 1) / w`` cycles per word.  Averaging is word-weighted
    (total in-flight cycles over total words), so long messages count in
    proportion to the bandwidth they consume.

    This is the repo's one latency metric.  Charging each word the
    cycles since it became ready (the message's arrival for the first
    word, the cycle after the previous word for the rest) telescopes to
    the same ``c - a + 1`` per message, so no second, per-word copy is
    kept.
    """

    def __init__(self):
        self.messages = 0
        self.words = 0
        self.total_cycles = 0
        self.total_wait_cycles = 0
        self.max_latency_per_word = 0.0
        self.max_wait_cycles = 0

    state_attrs = (
        "messages",
        "words",
        "total_cycles",
        "total_wait_cycles",
        "max_latency_per_word",
        "max_wait_cycles",
    )

    def record(self, request):
        """Fold one completed :class:`~repro.bus.transaction.Request` in."""
        latency = request.latency_cycles
        wait = request.wait_cycles
        words = request.words
        self.messages += 1
        self.words += words
        self.total_cycles += latency
        self.total_wait_cycles += wait
        per_word = latency / words
        if per_word > self.max_latency_per_word:
            self.max_latency_per_word = per_word
        if wait > self.max_wait_cycles:
            self.max_wait_cycles = wait

    @property
    def avg_latency_per_word(self):
        """Word-weighted mean cycles per word (0.0 when empty)."""
        if self.words == 0:
            return 0.0
        return self.total_cycles / self.words

    @property
    def avg_latency_per_message(self):
        """Mean in-flight cycles per message (0.0 when empty)."""
        if self.messages == 0:
            return 0.0
        return self.total_cycles / self.messages

    @property
    def avg_wait_cycles(self):
        """Mean cycles a message waited before its first word moved."""
        if self.messages == 0:
            return 0.0
        return self.total_wait_cycles / self.messages

    def merge(self, other):
        """Fold another LatencyStats into this one."""
        self.messages += other.messages
        self.words += other.words
        self.total_cycles += other.total_cycles
        self.total_wait_cycles += other.total_wait_cycles
        self.max_latency_per_word = max(
            self.max_latency_per_word, other.max_latency_per_word
        )
        self.max_wait_cycles = max(self.max_wait_cycles, other.max_wait_cycles)

    def __repr__(self):
        return "LatencyStats(messages={}, words={}, avg/word={:.3f})".format(
            self.messages, self.words, self.avg_latency_per_word
        )
