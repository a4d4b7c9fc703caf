"""Per-bus metrics collection."""

from repro.metrics.histogram import LogHistogram
from repro.metrics.latency import LatencyStats
from repro.sim.snapshot import (
    CheckpointError,
    Snapshottable,
    default_load_state_dict,
    default_state_dict,
)


class FaultStats(Snapshottable):
    """Fault-injection and recovery accounting (see :mod:`repro.faults`).

    One instance lives on every :class:`MetricsCollector` as its
    ``faults`` section; the :class:`~repro.faults.FaultInjector` keeps
    another as its cross-bus aggregate.  All counters stay zero on a
    fault-free run, so the section is inert unless faults are in play.
    """

    def __init__(self):
        self.injected = {}  # fault kind -> count
        self.detected = 0
        self.retried = 0
        self.recovered = 0
        self.aborted = 0
        self.timeouts = 0
        self.degradations = 0
        self.recovery_latency = LogHistogram()

    state_attrs = (
        "injected",
        "detected",
        "retried",
        "recovered",
        "aborted",
        "timeouts",
        "degradations",
    )
    state_children = ("recovery_latency",)

    @property
    def total_injected(self):
        """Total faults injected across all kinds."""
        return sum(self.injected.values())

    @property
    def active(self):
        """True once any fault activity has been recorded."""
        return bool(
            self.injected
            or self.detected
            or self.retried
            or self.recovered
            or self.aborted
            or self.timeouts
            or self.degradations
        )

    def record_injected(self, kind):
        """Count one injected fault of ``kind``."""
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def record_detected(self):
        """Count one fault caught by a protocol-level check."""
        self.detected += 1

    def record_retried(self):
        """Count one error-completed transfer scheduled for retry."""
        self.retried += 1

    def record_recovered(self, latency_cycles):
        """Count one retried transfer that finally completed."""
        self.recovered += 1
        if latency_cycles > 0:
            self.recovery_latency.record(latency_cycles)

    def record_aborted(self):
        """Count one transfer abandoned after exhausting retries."""
        self.aborted += 1

    def record_timeout(self):
        """Count one watchdog expiry (request or bus timeout)."""
        self.timeouts += 1

    def record_degradation(self):
        """Count one non-fatal graceful-degradation event."""
        self.degradations += 1

    def merge(self, other):
        """Fold another FaultStats in (counters add, histograms merge)."""
        for kind, count in other.injected.items():
            self.injected[kind] = self.injected.get(kind, 0) + count
        self.detected += other.detected
        self.retried += other.retried
        self.recovered += other.recovered
        self.aborted += other.aborted
        self.timeouts += other.timeouts
        self.degradations += other.degradations
        self.recovery_latency.merge(other.recovery_latency)

    def summary(self):
        """A plain-dict summary (merged into the collector's summary)."""
        p50, p95, p99, peak = self.recovery_latency.summary()
        return {
            "injected": dict(self.injected),
            "injected_total": self.total_injected,
            "detected": self.detected,
            "retried": self.retried,
            "recovered": self.recovered,
            "aborted": self.aborted,
            "timeouts": self.timeouts,
            "degradations": self.degradations,
            "recovery_latency_p50": p50,
            "recovery_latency_p95": p95,
            "recovery_latency_p99": p99,
            "recovery_latency_max": peak,
        }

    def __repr__(self):
        return (
            "FaultStats(injected={}, detected={}, retried={}, recovered={}, "
            "aborted={})".format(
                self.total_injected,
                self.detected,
                self.retried,
                self.recovered,
                self.aborted,
            )
        )


class MasterStats(Snapshottable):
    """Everything observed about one master on one bus."""

    state_attrs = ("words", "grants")
    state_children = ("latency",)

    def __init__(self, master_id):
        self.master_id = master_id
        self.words = 0
        self.grants = 0
        self.latency = LatencyStats()

    def merge(self, other):
        """Fold another master's accumulators in (same master id)."""
        self.words += other.words
        self.grants += other.grants
        self.latency.merge(other.latency)

    def __repr__(self):
        return "MasterStats(master={}, words={}, grants={})".format(
            self.master_id, self.words, self.grants
        )


class MetricsCollector(Snapshottable):
    """Accumulates bus activity; one instance per bus per run.

    The bus counts every simulated cycle into :attr:`cycles` (its tick
    bumps the counter inline; :meth:`observe_idle_gap` adds a skipped
    span) and calls the ``record_*`` methods as events occur, so
    fractions computed here need no knowledge of the simulator.
    """

    def __init__(self, num_masters):
        if num_masters < 1:
            raise ValueError("a bus needs at least one master")
        self.num_masters = num_masters
        self.masters = [MasterStats(i) for i in range(num_masters)]
        self.cycles = 0
        self.busy_cycles = 0
        self.idle_cycles = 0
        self.stall_cycles = 0
        self.faults = FaultStats()

    state_attrs = ("cycles", "busy_cycles", "idle_cycles", "stall_cycles")
    state_children = ("faults",)

    def state_dict(self):
        state = default_state_dict(self)
        state["masters"] = [stats.state_dict() for stats in self.masters]
        return state

    def load_state_dict(self, state):
        state = dict(state)
        master_states = state.pop("masters", None)
        if (
            not isinstance(master_states, list)
            or len(master_states) != len(self.masters)
        ):
            raise CheckpointError(
                "collector snapshot does not match {} masters".format(
                    len(self.masters)
                )
            )
        default_load_state_dict(self, state)
        for stats, master_state in zip(self.masters, master_states):
            stats.load_state_dict(master_state)

    def reset(self):
        self.__init__(self.num_masters)

    def observe_idle_gap(self, cycles):
        """Account ``cycles`` consecutive idle bus cycles in one step —
        the fast path's replay of that many bus ticks' ``cycles += 1``
        and ``record_idle`` pairs."""
        self.cycles += cycles
        self.idle_cycles += cycles

    def record_idle(self):
        self.idle_cycles += 1

    def record_stall(self):
        self.stall_cycles += 1

    def record_grant(self, master):
        self.masters[master].grants += 1

    def record_word(self, master):
        self.masters[master].words += 1
        self.busy_cycles += 1

    def record_completion(self, request):
        self.masters[request.master].latency.record(request)

    def merge(self, other):
        """Fold another collector in — the streaming-aggregation path.

        Shards of a partitioned campaign (or chunks of one long run)
        each accumulate their own collector; merging adds every counter
        and folds the per-master latency accumulators and fault
        histograms, so ratios computed afterwards (utilization, shares,
        cycles/word) equal those of a single combined run.
        """
        if other.num_masters != self.num_masters:
            raise ValueError(
                "cannot merge collectors for {} and {} masters".format(
                    self.num_masters, other.num_masters
                )
            )
        self.cycles += other.cycles
        self.busy_cycles += other.busy_cycles
        self.idle_cycles += other.idle_cycles
        self.stall_cycles += other.stall_cycles
        for mine, theirs in zip(self.masters, other.masters):
            mine.merge(theirs)
        self.faults.merge(other.faults)
        return self

    @property
    def total_words(self):
        return sum(stats.words for stats in self.masters)

    def utilization(self):
        """Fraction of observed cycles in which a word moved."""
        if self.cycles == 0:
            return 0.0
        return self.busy_cycles / self.cycles

    def bandwidth_fraction(self, master):
        """Fraction of total bus cycles carrying this master's words."""
        if self.cycles == 0:
            return 0.0
        return self.masters[master].words / self.cycles

    def bandwidth_fractions(self):
        """Per-master fractions of total cycles (sums to utilization)."""
        return [self.bandwidth_fraction(i) for i in range(self.num_masters)]

    def bandwidth_shares(self):
        """Per-master fractions of *carried* words (sums to 1 when busy).

        This is the quantity compared against ticket ratios: among the
        bandwidth actually consumed, how was it divided?
        """
        total = self.total_words
        if total == 0:
            return [0.0] * self.num_masters
        return [stats.words / total for stats in self.masters]

    def latency_per_word(self, master):
        """Message-normalized cycles/word (in-flight cycles / words)."""
        return self.masters[master].latency.avg_latency_per_word

    def latencies_per_word(self):
        return [self.latency_per_word(i) for i in range(self.num_masters)]

    def summary(self):
        """A plain-dict summary convenient for reports and JSON dumps.

        ``word_latencies`` repeats ``latencies_per_word``: it is kept as
        an alias so that summary digests and cache keys stay stable.
        """
        latencies = self.latencies_per_word()
        return {
            "cycles": self.cycles,
            "utilization": self.utilization(),
            "bandwidth_fractions": self.bandwidth_fractions(),
            "bandwidth_shares": self.bandwidth_shares(),
            "latencies_per_word": latencies,
            "word_latencies": list(latencies),
            "words": [stats.words for stats in self.masters],
            "grants": [stats.grants for stats in self.masters],
            "faults": self.faults.summary(),
        }
