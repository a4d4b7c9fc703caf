"""Stochastic traffic generators (the test-bed's parameterized sources).

Each generator is a :class:`~repro.sim.component.Component` that submits
transactions to one :class:`~repro.bus.master.MasterInterface`.  All
randomness comes from a :class:`~repro.sim.rng.RandomStream`, so runs are
reproducible.
"""

from repro.sim.component import Component
from repro.sim.rng import RandomStream
from repro.traffic.message import FixedWords


class TrafficGenerator(Component):
    """Common bookkeeping for traffic sources.

    :param slave: target slave index for every emitted transaction.
    """

    def __init__(self, name, interface, slave=0):
        super().__init__(name)
        self.interface = interface
        self.slave = slave
        self.messages_emitted = 0
        self.words_emitted = 0

    # The interface is snapshotted by the bus it is wired to; subclasses
    # extend these with their own RNG stream and pacing state.
    state_attrs = ("messages_emitted", "words_emitted")

    def _emit(self, words, cycle):
        request = self.interface.submit(words, cycle, slave=self.slave)
        if request is not None:
            self.messages_emitted += 1
            self.words_emitted += words
        return request

    def reset(self):
        self.messages_emitted = 0
        self.words_emitted = 0


class SaturatingGenerator(TrafficGenerator):
    """Keeps its master permanently backlogged.

    Used for the bandwidth-allocation experiments: "the traffic
    generators were configured such that the bus was always kept busy,
    i.e., at least one pending request exists at any time."

    :param depth: outstanding transactions to maintain (default 2, so a
        fresh request is always visible the cycle the previous completes).
    """

    def __init__(self, name, interface, words, seed=0, depth=2, slave=0):
        super().__init__(name, interface, slave=slave)
        self.words = words
        self.depth = depth
        self._rng = RandomStream(seed, "saturating:" + name)
        self.interface.add_waiter(self)

    state_children = ("_rng",)

    def reset(self):
        super().reset()
        self._rng.reset()

    def tick(self, cycle):
        if self.interface.queue_depth >= self.depth:
            return
        while self.interface.queue_depth < self.depth:
            self._emit(self.words.sample(self._rng), cycle)
        # Backlogged: nothing to do until the queue shrinks, and the
        # interface wakes us when it does.
        self.sleep()

    def next_activity(self, cycle):
        # Backlogged up to depth: nothing to do until the bus drains a
        # transaction, which only happens while the bus itself is active.
        if self.interface.queue_depth < self.depth:
            return cycle
        return None


class ClosedLoopGenerator(TrafficGenerator):
    """A blocking component: request, wait for completion, think, repeat.

    This is the semantics of the paper's POLIS-generated components: a
    master issues a communication, blocks until the bus completes it,
    computes for a while (the think time), then issues the next one.
    Closed-loop sources saturate the bus without unbounded queues, so
    bandwidth division under contention is ticket-proportional while
    latencies stay finite.

    :param words: a words distribution.
    :param mean_think: mean computation cycles between transactions
        (geometric; 0 = re-request immediately, pure saturation).
    """

    def __init__(self, name, interface, words, mean_think=0, seed=0, slave=0):
        super().__init__(name, interface, slave=slave)
        if mean_think < 0:
            raise ValueError("mean_think must be non-negative")
        self.words = words
        self.mean_think = mean_think
        self._rng = RandomStream(seed, "closedloop:" + name)
        self._think = 0
        self.interface.add_waiter(self)

    state_attrs = ("_think",)
    state_children = ("_rng",)

    def reset(self):
        super().reset()
        self._rng.reset()
        self._think = 0

    def offered_load(self):
        """Upper bound: words per cycle if the bus never made it wait."""
        mean_words = self.words.mean()
        return mean_words / (mean_words + self.mean_think) if mean_words else 0.0

    def tick(self, cycle):
        if self.interface.queue_depth > 0:
            return
        if self._think > 0:
            self._think -= 1
            return
        self._emit(self.words.sample(self._rng), cycle)
        if self.mean_think > 0:
            self._think = self._rng.geometric(1.0 / self.mean_think)
        if self.interface.queue_depth > 0:
            # Blocked on the bus: every tick is a no-op until the queue
            # shrinks, and the interface wakes us when it does.
            self.sleep()

    def next_activity(self, cycle):
        if self.interface.queue_depth > 0:
            # Blocked on the bus; it will keep the kernel ticking (or,
            # during a retry backoff, bound the jump) until completion.
            return None
        # Thinking: the only per-cycle work is the countdown, replayed
        # arithmetically by skip_quiet; the emit lands `_think` cycles out.
        return cycle + self._think

    def skip_quiet(self, cycle, span):
        if self.interface.queue_depth == 0 and self._think > 0:
            self._think -= span


class PoissonGenerator(TrafficGenerator):
    """Memoryless arrivals: each cycle a message arrives w.p. ``rate``.

    :param rate: messages per cycle (0 < rate <= 1).
    :param words: a words distribution.
    """

    def __init__(self, name, interface, words, rate, seed=0, slave=0):
        super().__init__(name, interface, slave=slave)
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")
        self.words = words
        self.rate = rate
        self._rng = RandomStream(seed, "poisson:" + name)
        self._next_arrival = None

    state_attrs = ("_next_arrival",)
    state_children = ("_rng",)

    def reset(self):
        super().reset()
        self._rng.reset()
        self._next_arrival = None

    def offered_load(self):
        """Expected words per cycle this source injects."""
        return self.rate * self.words.mean()

    def _arrival_cycle(self, cycle):
        # Pre-draw the arrival by running the identical per-cycle
        # Bernoulli trials dense ticking would: one draw per simulated
        # cycle, failure after failure until the hit.  The RNG stream
        # therefore stays bit-identical to cycle-by-cycle evaluation and
        # checkpoints agree regardless of simulator mode.
        if self._next_arrival is None:
            gap = 0
            while self._rng.random() >= self.rate:
                gap += 1
            self._next_arrival = cycle + gap
        return self._next_arrival

    def tick(self, cycle):
        if self._arrival_cycle(cycle) <= cycle:
            self._emit(self.words.sample(self._rng), cycle)
            self._next_arrival = None

    def next_activity(self, cycle):
        return self._arrival_cycle(cycle)


class PeriodicGenerator(TrafficGenerator):
    """Deterministic periodic arrivals (Figure 5's request traces).

    :param period: cycles between messages.
    :param phase: cycle offset of the first message.
    :param words: words per message (int or distribution).
    """

    def __init__(self, name, interface, words, period, phase=0, seed=0,
                 slave=0):
        super().__init__(name, interface, slave=slave)
        if period < 1:
            raise ValueError("period must be >= 1")
        if phase < 0:
            raise ValueError("phase must be non-negative")
        self.words = FixedWords(words) if isinstance(words, int) else words
        self.period = period
        self.phase = phase
        self._rng = RandomStream(seed, "periodic:" + name)

    state_children = ("_rng",)

    def reset(self):
        super().reset()
        self._rng.reset()

    def offered_load(self):
        return self.words.mean() / self.period

    def tick(self, cycle):
        if cycle >= self.phase and (cycle - self.phase) % self.period == 0:
            self._emit(self.words.sample(self._rng), cycle)

    def next_activity(self, cycle):
        # Off-beat ticks are pure no-ops, so the schedule is arithmetic.
        if cycle <= self.phase:
            return self.phase
        offset = (cycle - self.phase) % self.period
        if offset == 0:
            return cycle
        return cycle + self.period - offset


class OnOffGenerator(TrafficGenerator):
    """Bursty on-off source (Markov-modulated arrivals).

    Alternates between an ON state, during which messages arrive with
    probability ``on_rate`` per cycle, and a silent OFF state.  Dwell
    times are geometric with the given means, so bursts have random
    length and random phase — the traffic that punishes TDMA's fixed
    wheel alignment.
    """

    def __init__(
        self,
        name,
        interface,
        words,
        on_rate,
        mean_on,
        mean_off,
        seed=0,
        slave=0,
        start_on=False,
    ):
        super().__init__(name, interface, slave=slave)
        if not 0.0 < on_rate <= 1.0:
            raise ValueError("on_rate must lie in (0, 1]")
        if mean_on < 1 or mean_off < 1:
            raise ValueError("dwell means must be >= 1 cycle")
        self.words = words
        self.on_rate = on_rate
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.start_on = start_on
        self._rng = RandomStream(seed, "onoff:" + name)
        self._on = start_on
        self._dwell = self._draw_dwell()

    state_attrs = ("_on", "_dwell")
    state_children = ("_rng",)

    def _draw_dwell(self):
        mean = self.mean_on if self._on else self.mean_off
        return self._rng.geometric(1.0 / mean)

    def reset(self):
        super().reset()
        self._rng.reset()
        self._on = self.start_on
        self._dwell = self._draw_dwell()

    def offered_load(self):
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return duty * self.on_rate * self.words.mean()

    def tick(self, cycle):
        if self._on and self._rng.random() < self.on_rate:
            self._emit(self.words.sample(self._rng), cycle)
        self._dwell -= 1
        if self._dwell <= 0:
            self._on = not self._on
            self._dwell = self._draw_dwell()

    def next_activity(self, cycle):
        if self._on:
            # ON state draws the arrival RNG every cycle: stay dense.
            return cycle
        # OFF ticks only count the dwell down; the tick that reaches zero
        # toggles state and draws a fresh dwell, so it must run densely.
        return cycle + self._dwell - 1

    def skip_quiet(self, cycle, span):
        if not self._on:
            self._dwell -= span
