"""Master-side bus interface."""

import weakref
from collections import deque

from repro.bus.transaction import Request
from repro.sim.component import Component
from repro.sim.snapshot import (
    CheckpointError,
    default_load_state_dict,
    default_state_dict,
)


class MasterInterface(Component):
    """Queues a master's outstanding transactions toward one bus.

    Traffic generators (or application components such as ATM ports)
    call :meth:`submit`; the bus pulls words from the head request when
    the arbiter grants this master.

    With a :class:`~repro.faults.plan.RetryPolicy` installed the
    interface also owns the error-response path: transfers the bus
    error-completes (corrupted payload, bus-timeout abort) are re-issued
    after an exponential backoff, or aborted once retries are exhausted;
    queued requests that were never granted within the policy's timeout
    are error-completed by the interface itself.  The bus drives this
    machinery by calling :meth:`service` once per cycle, so interfaces
    need not be registered with the simulator.

    Components blocked on this interface (see :meth:`add_waiter`) may
    sleep: the interface wakes them whenever its queue shrinks.

    :param retry_policy: optional recovery policy (``None`` = legacy
        behaviour: the first error-completion aborts the request).
    :param retry_seed: seed for the backoff-jitter RNG stream.
    """

    def __init__(self, name, master_id, max_queue=None, retry_policy=None,
                 retry_seed=0):
        super().__init__(name)
        self.master_id = master_id
        self.max_queue = max_queue
        self.retry_policy = retry_policy
        self.retry_seed = retry_seed
        self._retry_rng = None
        self._queue = deque()
        self._retry_pending = []  # (ready_cycle, request), small & unsorted
        self._waiters = []
        self.submitted_requests = 0
        self.rejected_requests = 0
        self.retried_requests = 0
        self.aborted_requests = 0
        self.timeout_requests = 0

    state_attrs = (
        "_queue",
        "_retry_pending",
        "submitted_requests",
        "rejected_requests",
        "retried_requests",
        "aborted_requests",
        "timeout_requests",
    )
    # Wiring, not runtime state: the components to wake when the queue
    # shrinks, registered once when they are built (see add_waiter).
    state_exclude = ("_waiters",)

    def state_dict(self):
        state = default_state_dict(self)
        # The backoff RNG is created lazily on first error, so it is
        # snapshotted by hand: absent means "not created yet" and a
        # resumed run will re-create it at the same deterministic point.
        state["retry_rng"] = (
            None if self._retry_rng is None else self._retry_rng.state_dict()
        )
        return state

    def load_state_dict(self, state):
        state = dict(state)
        try:
            rng_state = state.pop("retry_rng")
        except KeyError:
            raise CheckpointError(
                "interface snapshot for {!r} lacks the retry RNG".format(
                    self.name
                )
            ) from None
        default_load_state_dict(self, state)
        if rng_state is None:
            self._retry_rng = None
        else:
            self._rng().load_state_dict(rng_state)

    def reset(self):
        self._queue.clear()
        self._retry_pending = []
        if self._retry_rng is not None:
            self._retry_rng.reset()
        self.submitted_requests = 0
        self.rejected_requests = 0
        self.retried_requests = 0
        self.aborted_requests = 0
        self.timeout_requests = 0
        self._wake_waiters()

    def add_waiter(self, component):
        """Wake ``component`` (:meth:`~repro.sim.component.Component.wake`)
        whenever this interface's queue shrinks.

        A component registered here may sleep while the queue is too
        full for its tick to do anything.
        """
        # Held weakly: the waiter usually holds this interface, and a
        # strong reference back would turn every system into a cycle
        # that only the cyclic garbage collector frees.
        self._waiters.append(weakref.ref(component))

    def _wake_waiters(self):
        for ref in self._waiters:
            waiter = ref()
            if waiter is not None:
                waiter.wake()

    def submit(self, words, cycle, slave=0, tag=None):
        """Enqueue a new transaction; returns the Request or None if full."""
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            self.rejected_requests += 1
            return None
        request = Request(self.master_id, words, cycle, slave=slave, tag=tag)
        self._queue.append(request)
        self.submitted_requests += 1
        return request

    @property
    def has_request(self):
        """True if any transaction is outstanding."""
        return bool(self._queue)

    @property
    def queue_depth(self):
        """Number of outstanding transactions."""
        return len(self._queue)

    @property
    def pending_words(self):
        """Words remaining in the head transaction (0 if idle).

        This is what the arbiter sees as the request line plus transfer
        size: the head of the queue defines the next burst negotiation.
        """
        return self._queue[0].remaining if self._queue else 0

    @property
    def backlog_words(self):
        """Total words outstanding across all queued transactions."""
        return sum(request.remaining for request in self._queue)

    def head(self):
        """The head request; raises IndexError when idle."""
        return self._queue[0]

    def pop(self):
        """Remove and return the (completed) head request."""
        request = self._queue.popleft()
        self._wake_waiters()
        return request

    def retire(self, request):
        """Remove a specific completed request from the queue.

        The bus uses this instead of :meth:`pop` because a retry
        released mid-burst re-enters at the queue front, so by
        completion time the in-flight request may no longer be the
        head; popping blindly would discard the wrong transaction and
        wedge this master forever.
        """
        if self._queue and self._queue[0] is request:
            self._queue.popleft()
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # not queued (already retired); nothing to remove
        self._wake_waiters()

    def next_activity(self, cycle):
        """Wakeup contract (consulted by the owning bus, and by the
        kernel when an interface is registered directly).

        A queued request keeps the master (and therefore the bus) dense;
        with only backoff retries pending, the next observable work is
        the earliest release cycle — :meth:`service` calls in between
        are pure no-ops."""
        if self._queue:
            return cycle
        if self._retry_pending:
            return max(cycle, min(entry[0] for entry in self._retry_pending))
        return None

    # -- error-response path (see repro.faults) --------------------------

    def _rng(self):
        if self._retry_rng is None:
            from repro.sim.rng import RandomStream

            self._retry_rng = RandomStream(self.retry_seed,
                                           "retry:" + self.name)
        return self._retry_rng

    def service(self, cycle, faults=None):
        """Release due retries and expire timed-out requests.

        Called by the owning bus at the top of every bus cycle (before
        arbitration), so released retries are visible to the arbiter the
        same cycle.  ``faults`` is the bus's fault-accounting section.
        """
        if self._retry_pending:
            due = [entry for entry in self._retry_pending if entry[0] <= cycle]
            if due:
                self._retry_pending = [
                    entry for entry in self._retry_pending if entry[0] > cycle
                ]
                # Retried requests re-enter at the front: they are the
                # oldest work and head-of-line order stays stable.
                for _, request in sorted(due, key=lambda entry: entry[0],
                                         reverse=True):
                    self._queue.appendleft(request)
        policy = self.retry_policy
        if policy is not None and policy.timeout is not None and self._queue:
            head = self._queue[0]
            # Only requests whose current attempt was never granted are
            # expired here; once granted, the request may be the bus's
            # active burst and mid-burst hangs belong to the bus's own
            # bus_timeout watchdog.
            if (not head.attempt_granted
                    and cycle - head.attempt_cycle > policy.timeout):
                self.timeout_requests += 1
                if faults is not None:
                    faults.record_timeout()
                    faults.record_detected()
                self._queue.popleft()
                self._wake_waiters()
                self._resolve_error(head, cycle, faults)

    def complete_with_error(self, request, cycle, faults=None):
        """Bus-side error response: retry with backoff or abort.

        Returns ``"retry"`` or ``"abort"``.
        """
        if self._queue and self._queue[0] is request:
            self._queue.popleft()
        else:  # defensive: preempted/split requests are still the head
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # not queued (already retired); nothing to remove
        self._wake_waiters()
        return self._resolve_error(request, cycle, faults)

    def _resolve_error(self, request, cycle, faults):
        policy = self.retry_policy
        if policy is None or request.retries >= policy.max_retries:
            request.aborted = True
            self.aborted_requests += 1
            if faults is not None:
                faults.record_aborted()
            return "abort"
        request.prepare_retry(cycle)
        delay = policy.delay(request.retries, self._rng())
        self._retry_pending.append((cycle + delay, request))
        self.retried_requests += 1
        if faults is not None:
            faults.record_retried()
        return "retry"
