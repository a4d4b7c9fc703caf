"""Bus transaction records.

A :class:`Request` is one communication transaction: a master asking to
move ``words`` bus words to/from a slave.  A :class:`Grant` is the
arbiter's decision for one arbitration round.
"""


class Request:
    """A pending (or completed) bus transaction.

    :param master: index of the issuing master on its bus.
    :param words: total words to transfer (must be >= 1).
    :param arrival_cycle: cycle at which the request became visible to
        the arbiter.
    :param slave: index of the target slave on the bus (default 0).
    :param tag: opaque caller data (e.g. an ATM cell), carried through to
        completion callbacks.
    """

    __slots__ = (
        "master",
        "words",
        "arrival_cycle",
        "slave",
        "tag",
        "parked_until",
        "setup_done",
        "remaining",
        "first_grant_cycle",
        "completion_cycle",
        "retries",
        "fault_detected",
        "aborted",
        "attempt_cycle",
        "attempt_granted",
    )

    def __init__(self, master, words, arrival_cycle, slave=0, tag=None):
        if words < 1:
            raise ValueError("a request must carry at least one word")
        if master < 0:
            raise ValueError("master index must be non-negative")
        if arrival_cycle < 0:
            raise ValueError("arrival cycle must be non-negative")
        self.master = master
        self.words = words
        self.arrival_cycle = arrival_cycle
        self.slave = slave
        self.tag = tag
        self.remaining = words
        self.first_grant_cycle = None
        self.completion_cycle = None
        # Split-transaction state: while parked the request is invisible
        # to arbitration (the slave is performing its setup off-bus).
        self.parked_until = None
        self.setup_done = False
        # Error-response / retry state (see repro.faults): a transfer
        # whose payload was corrupted in flight is error-completed and,
        # policy permitting, re-issued from scratch.
        self.retries = 0
        self.fault_detected = False
        self.aborted = False
        self.attempt_cycle = arrival_cycle
        self.attempt_granted = False

    def prepare_retry(self, cycle):
        """Reset per-attempt transfer state so the request can re-issue.

        Called by the master interface's error-response path.  The
        arrival cycle is preserved, so latency figures (and the recovery
        latency histogram) charge the full arrival-to-final-completion
        span including every failed attempt and backoff wait.
        """
        self.remaining = self.words
        self.fault_detected = False
        self.setup_done = False
        self.parked_until = None
        self.attempt_granted = False
        self.attempt_cycle = cycle
        self.retries += 1

    @property
    def complete(self):
        """True once every word has been transferred."""
        return self.remaining == 0

    @property
    def latency_cycles(self):
        """Total cycles from arrival to last word, inclusive.

        Only meaningful once the request is complete; a request whose
        first word moves on its arrival cycle and which carries ``w``
        words back-to-back has latency exactly ``w``.
        """
        if self.completion_cycle is None:
            raise ValueError("request has not completed")
        return self.completion_cycle - self.arrival_cycle + 1

    @property
    def latency_per_word(self):
        """Message-normalized cycles per word: in-flight cycles / words.

        This is the paper's latency metric and the repo's only one (see
        :class:`~repro.metrics.latency.LatencyStats`)."""
        return self.latency_cycles / self.words

    @property
    def wait_cycles(self):
        """Cycles spent waiting before the first word moved."""
        if self.first_grant_cycle is None:
            raise ValueError("request has not been granted")
        return self.first_grant_cycle - self.arrival_cycle

    def __repr__(self):
        return (
            "Request(master={}, words={}, arrival={}, remaining={})".format(
                self.master, self.words, self.arrival_cycle, self.remaining
            )
        )


class Grant:
    """An arbitration decision.

    :param master: index of the winning master.
    :param max_words: optional cap on the number of words this grant may
        move before re-arbitration (the TDMA arbiter grants single-word
        slots); ``None`` defers to the bus's maximum burst size.
    """

    __slots__ = ("master", "max_words")

    def __init__(self, master, max_words=None):
        if master < 0:
            raise ValueError("master index must be non-negative")
        if max_words is not None and max_words < 1:
            raise ValueError("max_words must be >= 1 when given")
        self.master = master
        self.max_words = max_words

    def __eq__(self, other):
        return (
            isinstance(other, Grant)
            and self.master == other.master
            and self.max_words == other.max_words
        )

    def __hash__(self):
        return hash((self.master, self.max_words))

    def __repr__(self):
        return "Grant(master={}, max_words={})".format(self.master, self.max_words)
