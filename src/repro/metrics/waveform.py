"""Per-cycle bus activity recording and ASCII waveform rendering.

Figure 5 of the paper is a symbolic execution trace: request arrivals
and per-slot bus ownership drawn against the timing wheel.  The
:class:`BusProbe` component records exactly that — who owned the bus
each cycle, and when each master's requests arrived — and
:func:`render_waveform` draws it as monospace waveforms:

    cycle   0         1         2
            0123456789012345678901234567
    req M1  R.................R.........
    bus M1  ===...............===.......
    req M2  ......R...............R.....
    bus M2  ......===.............===...

``=`` marks cycles the master owned the bus, ``R`` request arrivals,
``.`` everything else.
"""

from repro.sim.component import Component

IDLE = None


class BusProbe(Component):
    """Records per-cycle bus ownership and request arrivals.

    Register the probe *after* the bus so it samples post-transfer
    state.  Recording is bounded by ``window`` cycles (the waveform is
    for eyeballing, not bulk storage).

    :param bus: the :class:`~repro.bus.bus.SharedBus` to observe.
    :param window: number of cycles to record (default 256).
    :param start: first cycle to record (default 0).
    """

    def __init__(self, name, bus, window=256, start=0):
        super().__init__(name)
        if window < 1:
            raise ValueError("window must be >= 1")
        if start < 0:
            raise ValueError("start must be non-negative")
        self.bus = bus
        self.window = window
        self.start = start
        self.owners = []
        self.arrivals = [set() for _ in bus.masters]
        self._known = [set() for _ in bus.masters]
        bus.add_completion_hook(self._on_completion)

    def reset(self):
        self.owners = []
        self.arrivals = [set() for _ in self.bus.masters]
        self._known = [set() for _ in self.bus.masters]

    def _in_window(self, cycle):
        return self.start <= cycle < self.start + self.window

    def _on_completion(self, request, cycle):
        if self._in_window(request.arrival_cycle):
            self.arrivals[request.master].add(request.arrival_cycle)

    def tick(self, cycle):
        if not self._in_window(cycle):
            return
        # Ownership: a word moved this cycle iff busy_cycles grew; the
        # probe ticks right after the bus, so compare against the count
        # we saw last cycle.
        moved = self.bus.metrics.busy_cycles - getattr(self, "_seen_busy", 0)
        self._seen_busy = self.bus.metrics.busy_cycles
        if moved and self.bus.metrics.total_words:
            owner = self._current_owner()
        else:
            owner = IDLE
        self.owners.append(owner)
        # Pending requests' arrivals (head-of-queue visibility).
        for master_id, interface in enumerate(self.bus.masters):
            for request in interface.queue:
                if self._in_window(request.arrival_cycle):
                    self.arrivals[master_id].add(request.arrival_cycle)

    def _current_owner(self):
        # The word moved during bus.tick; identify the master whose word
        # count grew.  Track per-master counts incrementally.
        counts = [stats.words for stats in self.bus.metrics.masters]
        previous = getattr(self, "_seen_words", [0] * len(counts))
        self._seen_words = counts
        for master_id, (now, before) in enumerate(zip(counts, previous)):
            if now > before:
                return master_id
        return IDLE


def render_waveform(probe, labels=None, width=None):
    """Render a :class:`BusProbe` recording as ASCII waveforms."""
    owners = probe.owners if width is None else probe.owners[:width]
    span = len(owners)
    num_masters = len(probe.arrivals)
    if labels is None:
        labels = ["M{}".format(i + 1) for i in range(num_masters)]
    label_width = max(len("req {}".format(label)) for label in labels)

    lines = []
    tens = "".join(str((probe.start + c) // 10 % 10) for c in range(span))
    ones = "".join(str((probe.start + c) % 10) for c in range(span))
    lines.append("{}  {}".format("cycle".ljust(label_width), tens))
    lines.append("{}  {}".format("".ljust(label_width), ones))
    for master_id, label in enumerate(labels):
        req_row = "".join(
            "R" if (probe.start + c) in probe.arrivals[master_id] else "."
            for c in range(span)
        )
        bus_row = "".join(
            "=" if owners[c] == master_id else "." for c in range(span)
        )
        lines.append("{}  {}".format("req {}".format(label).ljust(label_width),
                                     req_row))
        lines.append("{}  {}".format("bus {}".format(label).ljust(label_width),
                                     bus_row))
    return "\n".join(lines)


def ownership_runs(probe):
    """Condense the recording into (owner, start_cycle, length) runs."""
    runs = []
    for offset, owner in enumerate(probe.owners):
        cycle = probe.start + offset
        if runs and runs[-1][0] == owner and runs[-1][1] + runs[-1][2] == cycle:
            runs[-1] = (owner, runs[-1][1], runs[-1][2] + 1)
        else:
            runs.append((owner, cycle, 1))
    return runs
