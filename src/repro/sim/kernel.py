"""The synchronous simulation kernel."""

import pickle

from repro.sim.component import Component
from repro.sim.snapshot import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)

_PAYLOAD_KIND = "lotterybus-simulator"

_MODES = ("fast", "dense", "strict")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (bad registration, re-entry...)."""


class KernelDivergenceError(SimulationError):
    """Strict mode found a skip whose outcome differs from dense ticking.

    Some component's :meth:`~repro.sim.component.Component.next_activity`
    declared a stretch quiescent that was not, or its ``skip_quiet`` does
    not reproduce what the dense ticks would have done.
    """


class Simulator:
    """Drives a set of :class:`Component` objects through bus cycles.

    Components are ticked once per cycle in registration order, which
    callers arrange to be dataflow order (generators before interfaces
    before the bus).  The kernel itself has no notion of buses or
    arbiters; it only owns time.

    :param mode: ``"fast"`` (default) skips stretches every component
        declares quiescent via the wakeup contract
        (:meth:`~repro.sim.component.Component.next_activity`) in one
        jump; ``"dense"`` ticks every component every cycle; ``"strict"``
        takes the same jumps as ``"fast"`` but replays each one densely
        from a snapshot and raises :class:`KernelDivergenceError` unless
        both paths land in bit-identical state.  ``"fast"`` also leaves
        asleep components (:meth:`~repro.sim.component.Component.sleep`)
        unticked; ``"strict"`` ticks them and raises unless their state
        stays put.  All three modes produce identical results for
        components honouring the contract — fast mode is purely an
        optimisation.
    """

    def __init__(self, mode="fast"):
        self._components = []
        self._names = set()
        self.cycle = 0
        self._running = False
        self.mode = mode
        # Observability for the fast path (not part of checkpoints, so
        # fast and dense runs still produce bit-identical snapshots).
        self.ticked_cycles = 0
        self.skipped_cycles = 0

    @property
    def mode(self):
        return self._mode

    @mode.setter
    def mode(self, value):
        if value not in _MODES:
            raise SimulationError(
                "unknown simulator mode {!r}; expected one of {}".format(
                    value, _MODES
                )
            )
        if self._running:
            raise SimulationError("cannot change mode while running")
        self._mode = value

    def add(self, component):
        """Register a component; returns it for chaining."""
        if self._running:
            raise SimulationError(
                "cannot register components while the simulation is running"
            )
        if not isinstance(component, Component):
            raise SimulationError(
                "expected a Component, got {!r}".format(type(component).__name__)
            )
        if component.name in self._names:
            raise SimulationError(
                "duplicate component name {!r}".format(component.name)
            )
        self._names.add(component.name)
        self._components.append(component)
        return component

    @property
    def components(self):
        """The registered components, in tick order (read-only view)."""
        return tuple(self._components)

    def reset(self):
        """Reset time and every registered component."""
        if self._running:
            raise SimulationError("cannot reset while running")
        self.cycle = 0
        self.ticked_cycles = 0
        self.skipped_cycles = 0
        for component in self._components:
            component.reset()
        self._rouse()

    def _rouse(self):
        """Leave every component awake with no wake pending: after a
        reset or restore the kernel probes each one afresh."""
        for component in self._components:
            component._asleep = False
            component._wake_pending = False

    def run(self, cycles):
        """Advance the simulation by ``cycles`` cycles."""
        if cycles < 0:
            raise SimulationError("cycle count must be non-negative")
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        try:
            end = self.cycle + cycles
            if self._mode == "dense":
                self._run_dense(end)
            elif self._mode == "fast":
                self._run_fast(end)
            else:
                self._run_strict(end)
        finally:
            self._running = False
        return self.cycle

    def _run_dense(self, end):
        components = self._components
        self.ticked_cycles += end - self.cycle
        while self.cycle < end:
            now = self.cycle
            for component in components:
                component.tick(now)
            self.cycle = now + 1

    def _run_awake(self, end):
        """Tick every cycle up to ``end``, leaving asleep components out."""
        components = self._components
        self.ticked_cycles += end - self.cycle
        while self.cycle < end:
            now = self.cycle
            for component in components:
                if not component._asleep:
                    component.tick(now)
            self.cycle = now + 1

    def _tick_checked(self, now):
        """One strict-mode cycle: tick everything, and raise unless each
        component that was asleep left its own state untouched."""
        for component in self._components:
            if not component._asleep:
                component.tick(now)
                continue
            before = pickle.dumps(
                component.state_dict(), protocol=pickle.HIGHEST_PROTOCOL
            )
            component.tick(now)
            after = pickle.dumps(
                component.state_dict(), protocol=pickle.HIGHEST_PROTOCOL
            )
            if after != before:
                raise KernelDivergenceError(
                    "component {!r} changed state when ticked asleep at "
                    "cycle {}; it slept while its tick still had work to "
                    "do, or its waker missed an event".format(
                        component.name, now
                    )
                )

    def _fastpath_plan(self):
        """Per-run plan for the fast path: ``(scan, skippers)``.

        ``scan`` is the component list in reverse registration order, or
        ``None`` when some component keeps the default always-active
        contract — every horizon probe would then return the current
        cycle, so the run is dense by definition and probing it would be
        pure overhead.  ``skippers`` are the components overriding
        :meth:`~repro.sim.component.Component.skip_quiet`; the default
        is a no-op, so jumps only need to visit the overriders.

        Registration is frozen while running, so the plan is computed
        once per ``run`` call.
        """
        components = self._components
        base_next = Component.next_activity
        base_skip = Component.skip_quiet
        for component in components:
            if getattr(component.next_activity, "__func__", None) is base_next:
                return None, None
        skippers = [
            component
            for component in components
            if getattr(component.skip_quiet, "__func__", None) is not base_skip
        ]
        return components[::-1], skippers

    def _quiet_horizon(self, scan, now, end):
        """The first cycle in ``(now, end]`` any component can act, or
        ``now`` itself if some component is active (or woken) this cycle.

        ``scan`` is the component list in reverse registration order:
        the bus sits at the end of dataflow order and is active whenever
        anything is in flight, so on busy systems the scan short-circuits
        on its first call and fast mode degenerates to dense ticking with
        one extra method call per cycle.
        """
        horizon = end
        for component in scan:
            if component._wake_pending:
                component._wake_pending = False
                return now
            if component._asleep:
                continue  # idle until its waker calls wake()
            nxt = component.next_activity(now)
            if nxt is None:
                continue
            if nxt <= now:
                return now
            if nxt < horizon:
                horizon = nxt
        return horizon

    # While the system is busy, each horizon probe costs a scan over the
    # components and returns "now" — pure overhead on a saturated bus.
    # After a busy probe the fast path therefore ticks densely for a
    # sprint before probing again, doubling the sprint up to this cap
    # while the system stays busy and collapsing back to one cycle after
    # any skip.  Dense ticks are always correct regardless of the
    # wakeup contract, so sprinting can at worst delay a skip by
    # ``_MAX_SPRINT - 1`` cycles; it never changes results.  The cap
    # balances amortized probe overhead on saturated systems (~1/cap of
    # a scan per cycle) against overshoot into idle stretches on bursty
    # ones (up to cap-1 dense ticks per busy episode).
    _MAX_SPRINT = 16

    def _run_fast(self, end):
        scan, skippers = self._fastpath_plan()
        if scan is None:
            self._run_awake(end)
            return
        sprint = 1
        while self.cycle < end:
            now = self.cycle
            horizon = self._quiet_horizon(scan, now, end)
            if horizon > now:
                span = horizon - now
                for component in skippers:
                    if not component._asleep:
                        component.skip_quiet(now, span)
                self.cycle = horizon
                self.skipped_cycles += span
                sprint = 1
                continue
            self._run_awake(min(end, now + sprint))
            if sprint < self._MAX_SPRINT:
                sprint <<= 1

    def _run_strict(self, end):
        components = self._components
        scan, skippers = self._fastpath_plan()
        if scan is None:
            while self.cycle < end:
                self._tick_checked(self.cycle)
                self.cycle += 1
                self.ticked_cycles += 1
            return
        while self.cycle < end:
            now = self.cycle
            horizon = self._quiet_horizon(scan, now, end)
            if horizon > now:
                span = horizon - now
                before = pickle.dumps(
                    self._capture(), protocol=pickle.HIGHEST_PROTOCOL
                )
                for component in skippers:
                    if not component._asleep:
                        component.skip_quiet(now, span)
                skipped = pickle.dumps(
                    self._capture(), protocol=pickle.HIGHEST_PROTOCOL
                )
                # Rewind and replay the same stretch densely; the replay
                # becomes the live state, so even on divergence the
                # simulation continues from the trustworthy path.
                self._restore(pickle.loads(before))
                for cycle in range(now, horizon):
                    for component in components:
                        component.tick(cycle)
                dense = pickle.dumps(
                    self._capture(), protocol=pickle.HIGHEST_PROTOCOL
                )
                if skipped != dense:
                    raise KernelDivergenceError(
                        "skip over cycles [{}, {}) diverged from dense "
                        "ticking; some component's wakeup contract is "
                        "wrong".format(now, horizon)
                    )
                self.cycle = horizon
                self.skipped_cycles += span
                continue
            self._tick_checked(now)
            self.cycle = now + 1
            self.ticked_cycles += 1

    # -- checkpoint / restore (see repro.sim.snapshot) -------------------

    def _capture(self):
        return {
            "kind": _PAYLOAD_KIND,
            "cycle": self.cycle,
            "components": {
                component.name: component.state_dict()
                for component in self._components
            },
        }

    def state_dict(self):
        """Snapshot the simulation: cycle count plus every component's
        :meth:`~repro.sim.component.Component.state_dict`.

        The returned mapping holds live references into the running
        simulation; callers serialize it immediately (as
        :meth:`save_checkpoint` does) rather than keeping it across
        further ``run`` calls.
        """
        if self._running:
            raise SimulationError("cannot snapshot while running")
        return self._capture()

    def _restore(self, state):
        if not isinstance(state, dict) or state.get("kind") != _PAYLOAD_KIND:
            raise CheckpointError("payload is not a simulator snapshot")
        cycle = state.get("cycle")
        if not isinstance(cycle, int) or cycle < 0:
            raise CheckpointError(
                "invalid cycle count {!r} in snapshot".format(cycle)
            )
        component_states = state.get("components")
        if not isinstance(component_states, dict):
            raise CheckpointError("snapshot has no component state map")
        if set(component_states) != self._names:
            missing = self._names - set(component_states)
            unknown = set(component_states) - self._names
            raise CheckpointError(
                "snapshot does not match the registered components: "
                "missing {}, unknown {}".format(sorted(missing), sorted(unknown))
            )
        for component in self._components:
            if not isinstance(component_states[component.name], dict):
                raise CheckpointError(
                    "state of component {!r} is not a dict".format(
                        component.name
                    )
                )
        for component in self._components:
            component.load_state_dict(component_states[component.name])
        self.cycle = cycle
        self._rouse()

    def load_state_dict(self, state):
        """Restore a snapshot produced by :meth:`state_dict`.

        The payload is validated in full — shape, kind, and an exact
        match between its component names and the registered ones —
        before any component is touched, so a mismatched or corrupted
        payload raises :class:`~repro.sim.snapshot.CheckpointError`
        without leaving a half-restored simulator.
        """
        if self._running:
            raise SimulationError("cannot restore while running")
        self._restore(state)

    def save_checkpoint(self, path):
        """Write a versioned, checksummed checkpoint of the simulation.

        The file is written atomically (temp + rename); a crash mid-save
        leaves any previous checkpoint at ``path`` intact.  Returns
        ``path``.
        """
        return write_checkpoint(path, self.state_dict())

    def load_checkpoint(self, path):
        """Restore the simulation from a file written by
        :meth:`save_checkpoint`.

        Corruption (bad magic, truncation, CRC mismatch) and component
        mismatches raise :class:`~repro.sim.snapshot.CheckpointError`
        before any component state is modified.  Returns the restored
        cycle count.
        """
        self.load_state_dict(read_checkpoint(path))
        return self.cycle

    def run_until(self, predicate, max_cycles=1_000_000):
        """Run until ``predicate(cycle)`` is true or ``max_cycles`` elapse.

        The predicate is evaluated once on entry — a condition already
        true at the current cycle returns immediately without burning a
        cycle — and again after each cycle, all inside a single run loop
        (no per-cycle re-entry bookkeeping).  Because the predicate must
        observe every cycle boundary, this loop always ticks densely
        regardless of the simulator mode.  Returns the cycle count at
        which the predicate first held, or raises
        :class:`SimulationError` if the bound is exhausted.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        start = self.cycle
        if predicate(self.cycle):
            return self.cycle
        self._running = True
        try:
            components = self._components
            while self.cycle - start < max_cycles:
                now = self.cycle
                for component in components:
                    component.tick(now)
                self.cycle = now + 1
                self.ticked_cycles += 1
                if predicate(self.cycle):
                    return self.cycle
        finally:
            self._running = False
        raise SimulationError(
            "predicate not satisfied within {} cycles "
            "(started at cycle {})".format(max_cycles, start)
        )
