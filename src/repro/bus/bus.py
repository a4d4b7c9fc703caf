"""The shared system bus.

One word moves per bus cycle when a burst is active.  The bus owns the
arbiter and consults it whenever it is free; arbitration is pipelined
with data transfer by default (zero visible cycles, per the paper), with
an optional non-pipelined mode that charges arbitration cycles between
bursts.
"""

from repro.metrics.collector import MetricsCollector
from repro.sim.component import Component
from repro.sim.snapshot import (
    CheckpointError,
    default_load_state_dict,
    default_state_dict,
)


class BusProtocolError(RuntimeError):
    """Raised when an arbiter violates the bus protocol."""


class SharedBus(Component):
    """A single shared channel connecting masters to slaves.

    :param name: component name.
    :param masters: list of :class:`~repro.bus.master.MasterInterface`,
        indexed by master id.  The interface is the bus's one master
        protocol: the bus reads ``master_id``, ``retry_policy`` and
        ``queue`` (once, at construction: the head request's
        ``remaining`` words are the arbiter's view, so the deque must
        stay the same object for the master's lifetime), and calls
        ``service``, ``retire``, ``complete_with_error``,
        ``next_activity``, ``reset``, ``state_dict`` and
        ``load_state_dict``, with no fallback for a master that lacks
        one.
    :param slaves: list of :class:`~repro.bus.slave.Slave`, indexed by
        slave id; a default zero-wait slave is created if omitted.
    :param arbiter: an :class:`~repro.arbiters.base.Arbiter`.
    :param max_burst: maximum words per grant before re-arbitration
        (the paper's "maximum transfer size"; default 16).
    :param arbitration_cycles: visible cycles charged per arbitration
        when not pipelined (default 0 = pipelined with data transfer).
    :param preemptive: re-arbitrate every cycle instead of at burst
        boundaries (Section 2's optional pre-emption feature).  A new
        winner takes the bus mid-burst; the displaced request keeps its
        progress and competes again.  Each word pays the slave's setup
        wait states, since preemption re-issues the address phase.
    :param split_transactions: Section 2's "dynamic bus splitting": a
        request whose slave needs setup wait states releases the bus
        during the setup (the address phase is posted, the slave works
        off-bus, the request re-competes when ready) instead of holding
        it idle, so other masters' transfers overlap slave latency.
    :param bus_timeout: consecutive stall cycles an active burst may
        accumulate before the watchdog aborts it through the masters'
        error-response path instead of wedging the simulation (``None``
        disables the watchdog; see :mod:`repro.faults`).
    :param metrics: optional externally owned MetricsCollector.
    """

    def __init__(
        self,
        name,
        masters,
        arbiter,
        slaves=None,
        max_burst=16,
        arbitration_cycles=0,
        preemptive=False,
        split_transactions=False,
        bus_timeout=None,
        metrics=None,
    ):
        super().__init__(name)
        if not masters:
            raise ValueError("a bus needs at least one master")
        if max_burst < 1:
            raise ValueError("max_burst must be >= 1")
        if arbitration_cycles < 0:
            raise ValueError("arbitration_cycles must be non-negative")
        if bus_timeout is not None and bus_timeout < 1:
            raise ValueError("bus_timeout must be >= 1 when given")
        self.masters = list(masters)
        if slaves is None:
            from repro.bus.slave import Slave

            slaves = [Slave(name + ".slave0", 0)]
        self.slaves = list(slaves)
        self.arbiter = arbiter
        self._completion_hooks = []
        self._hook_keys = {}
        self.max_burst = max_burst
        self.arbitration_cycles = arbitration_cycles
        self.preemptive = preemptive
        self.split_transactions = split_transactions
        self.bus_timeout = bus_timeout
        self.injector = None
        self.metrics = metrics or MetricsCollector(len(self.masters))
        # The burst holding the bus: its request (None while the bus is
        # free), the words its grant has left and its slave.
        self._burst = None
        self._burst_left = 0
        self._burst_slave = None
        self._stall = 0
        self._stall_run = 0
        for index, master in enumerate(self.masters):
            if master.master_id != index:
                raise ValueError(
                    "master {!r} has id {} but occupies slot {}".format(
                        master.name, master.master_id, index
                    )
                )
        # Interfaces with a retry policy, serviced every cycle: without
        # one, service() has no retries to release and no timeout to
        # expire, so the call would be a no-op.
        self._serviced_masters = [
            master for master in self.masters
            if master.retry_policy is not None
        ]
        # Each master's request deque, read directly every arbitration.
        self._queues = [master.queue for master in self.masters]

    def add_completion_hook(self, hook, key=None):
        """Register ``hook(request, cycle)`` called as requests complete.

        Registration is idempotent: re-adding an already registered hook
        is a no-op, and a ``key`` names a slot of which there is at most
        one — adding another hook under the same key replaces the old
        one (used by :class:`~repro.bus.checker.BusChecker` so stacked
        or reset checkers never double-fire).
        """
        if key is not None:
            old = self._hook_keys.pop(key, None)
            if old is not None and old in self._completion_hooks:
                self._completion_hooks.remove(old)
            self._hook_keys[key] = hook
        elif hook in self._completion_hooks:
            return hook
        self._completion_hooks.append(hook)
        return hook

    def remove_completion_hook(self, hook_or_key):
        """Deregister a completion hook by callable or by its key.

        Returns True if a hook was removed.
        """
        hook = hook_or_key
        if hook_or_key in self._hook_keys:
            hook = self._hook_keys.pop(hook_or_key)
        else:
            for key, value in list(self._hook_keys.items()):
                if value == hook:
                    del self._hook_keys[key]
        try:
            self._completion_hooks.remove(hook)
            return True
        except ValueError:
            return False

    def reset(self):
        self._burst = None
        self._stall = 0
        self._stall_run = 0
        self.metrics.reset()
        self.arbiter.reset()
        # The bus is its masters' and slaves' snapshot root (see below),
        # so it resets them too.
        for part in self.masters + self.slaves:
            part.reset()

    # -- checkpoint / restore (see repro.sim.snapshot) -------------------
    #
    # The bus snapshots its masters and slaves itself: they are wired to
    # the bus at construction and usually not registered with the
    # simulator, so the bus is their snapshot root.  The active burst is
    # stored as (request, words left) — the request object is shared
    # with its master's queue, an identity the simulator-level pickle
    # pass preserves — and its slave is re-derived from the request.

    state_attrs = ("_stall", "_stall_run")
    state_children = ("arbiter", "metrics")
    # Wiring, not runtime state: completion hooks are callables
    # re-registered by whoever builds the system (unpicklable in
    # general), and _serviced_masters and _queues are derived views of
    # self.masters, whose contents snapshot through the "masters"
    # section above (a master restores its queue in place).
    state_exclude = (
        "_completion_hooks", "_hook_keys", "_serviced_masters", "_queues",
    )

    def state_dict(self):
        state = default_state_dict(self)
        state["masters"] = [master.state_dict() for master in self.masters]
        state["slaves"] = [slave.state_dict() for slave in self.slaves]
        request = self._burst
        state["burst"] = (
            None
            if request is None
            else {"request": request, "words_left": self._burst_left}
        )
        return state

    def load_state_dict(self, state):
        state = dict(state)
        try:
            master_states = state.pop("masters")
            slave_states = state.pop("slaves")
            burst_state = state.pop("burst")
        except KeyError as error:
            raise CheckpointError(
                "bus snapshot for {!r} lacks section {}".format(
                    self.name, error
                )
            ) from None
        if len(master_states) != len(self.masters):
            raise CheckpointError(
                "bus snapshot has {} masters, bus {!r} has {}".format(
                    len(master_states), self.name, len(self.masters)
                )
            )
        if len(slave_states) != len(self.slaves):
            raise CheckpointError(
                "bus snapshot has {} slaves, bus {!r} has {}".format(
                    len(slave_states), self.name, len(self.slaves)
                )
            )
        default_load_state_dict(self, state)
        for master, master_state in zip(self.masters, master_states):
            master.load_state_dict(master_state)
        for slave, slave_state in zip(self.slaves, slave_states):
            slave.load_state_dict(slave_state)
        if burst_state is None:
            self._burst = None
        else:
            request = burst_state["request"]
            self._burst = request
            self._burst_left = burst_state["words_left"]
            self._burst_slave = self.slaves[request.slave]

    @property
    def busy(self):
        """True while a burst holds the bus."""
        return self._burst is not None

    def pending_words(self, cycle=None):
        """Per-master words pending in each head request (arbiter's view).

        With split transactions, a head request parked on slave setup is
        invisible to arbitration until its ``parked_until`` cycle.
        """
        if cycle is None or not self.split_transactions:
            # Only split transactions ever park a request.
            return [q[0].remaining if q else 0 for q in self._queues]
        pending = []
        for queue in self._queues:
            words = 0
            if queue:
                head = queue[0]
                if head.parked_until is None or head.parked_until <= cycle:
                    words = head.remaining
            pending.append(words)
        return pending

    def next_activity(self, cycle):
        """Wakeup contract: the bus is quiescent only when nothing is in
        flight, no stall is draining, the arbiter can replay idle rounds
        arithmetically (``supports_idle_skip``) and every master is
        quiet.  A master in retry backoff bounds the jump to its release
        cycle rather than blocking the skip."""
        if self._burst is not None or self._stall > 0:
            return cycle
        if not self.arbiter.supports_idle_skip:
            return cycle
        horizon = None
        for master in self.masters:
            nxt = master.next_activity(cycle)
            if nxt is None:
                continue
            if nxt <= cycle:
                return cycle
            if horizon is None or nxt < horizon:
                horizon = nxt
        return horizon

    def skip_quiet(self, cycle, span):
        """Replay ``span`` idle bus cycles: the metrics see the cycles as
        idle and the arbiter fast-forwards its clocked idle behaviour
        (TDMA wheel, token rotation).  Master ``service`` calls and
        ``filter_grant(None)`` are no-ops on idle cycles, so nothing else
        needs replaying."""
        self.metrics.observe_idle_gap(span)
        self.arbiter.skip_idle(span)

    def tick(self, cycle):
        self.metrics.cycles += 1
        for master in self._serviced_masters:
            master.service(cycle, self.metrics.faults)
        if self._stall > 0:
            self._stall -= 1
            self.metrics.record_stall()
            if self._burst is not None and self.bus_timeout is not None:
                self._stall_run += 1
                if self._stall_run > self.bus_timeout:
                    self._abort_burst(cycle)
            return
        if self.preemptive:
            # Pre-emption: the arbiter is consulted every cycle; any
            # in-progress burst yields to the new winner.
            self._burst = None
        if self._burst is None:
            self._arbitrate(cycle)
            if self._burst is None:
                self.metrics.record_idle()
                return
            if self._stall > 0:
                self._stall -= 1
                self.metrics.record_stall()
                return
        self._transfer_word(cycle)

    def _arbitrate(self, cycle):
        pending = self.pending_words(cycle)
        grant = self.arbiter.arbitrate(cycle, pending)
        if self.injector is not None:
            grant = self.injector.filter_grant(self, grant, pending, cycle)
        if grant is None:
            return
        if grant.master >= len(self.masters):
            raise BusProtocolError(
                "arbiter granted nonexistent master {}".format(grant.master)
            )
        if pending[grant.master] == 0:
            if self.injector is not None:
                # An injected spurious grant decoded to an idle master:
                # the bus-side protocol check catches it and the round
                # is wasted, but the simulation survives.
                self.metrics.faults.record_detected()
                return
            raise BusProtocolError(
                "arbiter granted idle master {} at cycle {}".format(
                    grant.master, cycle
                )
            )
        request = self._queues[grant.master][0]
        burst = request.remaining
        if burst > self.max_burst:
            burst = self.max_burst
        if grant.max_words is not None and burst > grant.max_words:
            burst = grant.max_words
        if self.preemptive:
            burst = 1
        slave = self.slaves[request.slave]
        request.attempt_granted = True
        if request.first_grant_cycle is None:
            request.first_grant_cycle = cycle
        setup = 0 if request.setup_done else slave.begin_burst()
        if self.split_transactions and setup > 0:
            # Post the address phase and release the bus: the slave
            # performs its setup off-bus while others transfer; the
            # request re-competes once ready.
            request.setup_done = True
            request.parked_until = cycle + setup
            self.metrics.record_grant(grant.master)
            return
        self._burst = request
        self._burst_left = burst
        self._burst_slave = slave
        self._stall = self.arbitration_cycles + setup
        self.metrics.record_grant(grant.master)

    def _transfer_word(self, cycle):
        request = self._burst
        request.remaining -= 1
        self._burst_left -= 1
        self.metrics.record_word(request.master)
        self._stall_run = 0
        slave = self._burst_slave
        self._stall = slave.serve_word()
        if self.injector is not None:
            if self.injector.corrupt_word(self, request, cycle):
                request.fault_detected = True
            self._stall += self.injector.slave_stall(self, slave, cycle)
        if request.remaining == 0:
            if request.fault_detected:
                # End-of-message integrity check failed (the CRC view of
                # the injected word errors): error-respond instead of
                # completing; the master retries or aborts per policy.
                self._burst = None
                self._complete_with_error(request, cycle)
                return
            request.completion_cycle = cycle
            self.masters[request.master].retire(request)
            self.metrics.record_completion(request)
            if request.retries:
                self.metrics.faults.record_recovered(
                    cycle - request.arrival_cycle + 1
                )
            for hook in self._completion_hooks:
                hook(request, cycle)
            self._burst = None
        elif self._burst_left == 0:
            self._burst = None

    def _abort_burst(self, cycle):
        """Bus-timeout watchdog: abort the hung transfer, free the bus."""
        request = self._burst
        self._burst = None
        self._stall = 0
        self._stall_run = 0
        self.metrics.faults.record_timeout()
        self._complete_with_error(request, cycle)

    def _complete_with_error(self, request, cycle):
        """Deliver an error response to the issuing master."""
        faults = self.metrics.faults
        faults.record_detected()
        self.masters[request.master].complete_with_error(
            request, cycle, faults=faults
        )
