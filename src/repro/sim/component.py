"""Base class for everything that participates in the cycle loop."""

from repro.sim.snapshot import Snapshottable


class Component(Snapshottable):
    """A synchronous hardware block driven by the simulator clock.

    Subclasses override :meth:`tick`, which the simulator calls exactly
    once per cycle in registration order.  Components that produce values
    consumed by later components in the same cycle (e.g. traffic
    generators feeding master interfaces feeding the bus) should simply be
    registered in dataflow order; the kernel makes no attempt at
    delta-cycle evaluation.

    Components also carry the checkpoint protocol (see
    :mod:`repro.sim.snapshot`): declare runtime state in ``state_attrs``
    / ``state_children`` and the inherited :meth:`state_dict` /
    :meth:`load_state_dict` hooks snapshot and restore it, which is what
    :meth:`repro.sim.kernel.Simulator.save_checkpoint` aggregates.

    **The wakeup contract.**  The kernel's activity-driven fast path
    (``Simulator(mode="fast")``, the default) asks each component when it
    can next do observable work via :meth:`next_activity` and, when every
    component agrees the stretch up to some cycle is quiescent, replays
    the whole stretch in one jump through :meth:`skip_quiet` instead of
    ticking through it.  The default implementation answers "this very
    cycle", so a component that does not opt in is simply ticked densely
    and can never be skipped past — correctness never depends on a
    component implementing the contract.  Components that do opt in must
    guarantee that for every cycle in ``[cycle, next_activity(cycle))``
    their :meth:`tick` would have been a pure no-op except for the state
    replayed by :meth:`skip_quiet`.

    **Sleep and wake.**  A component that knows its :meth:`tick` will be
    a no-op until some outside event happens — a traffic generator
    blocked on its master interface, say — may call :meth:`sleep`.  The
    fast kernel then stops ticking it (and stops probing its
    :meth:`next_activity`) until the owner of that event calls
    :meth:`wake`, which clears the sleep.  So only a component that
    some other object has promised to wake may sleep, and that object
    must call :meth:`wake` on every event that could make the sleeper's
    tick do work; a component with no such promise never sleeps.
    ``dense`` mode ignores sleep and ticks everything, which keeps it
    the reference; ``strict`` mode still ticks every sleeper and raises
    :class:`~repro.sim.kernel.KernelDivergenceError` if a sleeping
    tick changes the component's :meth:`state_dict`.  Sleep is
    scheduling, not state: it is never part of :meth:`state_dict`, and
    :meth:`~repro.sim.kernel.Simulator.reset` and snapshot restore
    leave every component awake.
    """

    def __init__(self, name):
        self.name = name
        self._wake_pending = False
        self._asleep = False

    def tick(self, cycle):
        """Advance the component by one clock cycle.

        :param cycle: the current cycle number, starting at 0.
        """

    def next_activity(self, cycle):
        """The next cycle (``>= cycle``) at which this component may do
        observable work, given no external stimulus in between.

        Returning ``cycle`` (the default) means "tick me this cycle" and
        keeps the component on the dense path.  Returning a later cycle
        declares every cycle before it quiescent; returning ``None``
        declares the component idle indefinitely (it will only run again
        when some other component's activity makes the kernel tick, or
        after an explicit :meth:`wake`).
        """
        return cycle

    def skip_quiet(self, cycle, span):
        """Replay ``span`` quiescent cycles ``[cycle, cycle + span)`` in
        one step.

        Called by the fast path instead of ``span`` individual
        :meth:`tick` calls, and only when every registered component
        reported (via :meth:`next_activity`) that the stretch is
        quiescent.  Implementations must leave the component in exactly
        the state ``span`` dense ticks would have produced — e.g. a
        countdown decrements by ``span``, an idle bus accounts ``span``
        idle cycles.  The default does nothing, matching components
        whose quiescent ticks are pure no-ops.
        """

    def sleep(self):
        """Stop being ticked until the next :meth:`wake`.

        A promise that every :meth:`tick` until then is a no-op (see
        "Sleep and wake" above).  Only the ``fast`` kernel acts on it;
        ``strict`` ticks sleepers to check the promise and ``dense``
        ticks them anyway.
        """
        self._asleep = True

    def wake(self):
        """Request a tick at the next cycle boundary.

        For externally triggered components: clears any :meth:`sleep`
        and marks the component so the fast path will not skip past the
        next cycle.  The flag is consumed by the kernel; calling it
        outside a fast-mode run is harmless.  Overrides must call
        ``super().wake()``.
        """
        self._wake_pending = True
        self._asleep = False

    def reset(self):
        """Return the component to its power-on state.

        The default implementation does nothing; stateful components
        override it so a :class:`~repro.sim.kernel.Simulator` can be
        re-run from cycle 0.
        """

    def __repr__(self):
        return "{}(name={!r})".format(type(self).__name__, self.name)
