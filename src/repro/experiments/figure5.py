"""Figure 5 / Example 2: TDMA latency vs request/reservation alignment.

Three masters issue identical periodic request patterns on a TDMA bus
whose timing wheel reserves one contiguous 6-slot block per master.
Master ``i``'s request lands ``phase`` cycles after the start of its own
block; because the pattern period equals the wheel length, the alignment
is locked for the whole run.  With phase 0 (the paper's Trace 1) every
transaction is served inside its own block and waits ~0 slots; shifted
patterns (Trace 2) wait several slots per transaction.

The experiment reports three architectures per phase:

* pure TDMA (``reclaim="none"``) — reproduces Figure 5's traces exactly:
  the wait equals the locked phase distance;
* two-level TDMA (``reclaim="scan"``) — shows how much the second
  arbitration level recovers (a reproduction finding: with an idle-slot
  reclaim as capable as Figure 2's description, the alignment penalty
  largely disappears at this load);
* LOTTERYBUS — phase-blind by construction.
"""

from repro.arbiters.lottery import StaticLotteryArbiter
from repro.arbiters.tdma import TdmaArbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.slave import Slave
from repro.bus.topology import BusSystem
from repro.metrics.report import format_table
from repro.metrics.waveform import BusProbe, render_waveform
from repro.traffic.patterns import PatternGenerator

# The Figure 5 system: three masters, a wheel of three equal contiguous
# blocks ("6 contiguous slots defining the size of a burst").
BLOCK = 6
NUM_MASTERS = 3
WHEEL = [0] * BLOCK + [1] * BLOCK + [2] * BLOCK
PERIOD = len(WHEEL)  # requests repeat once per wheel revolution


def _run_pattern(arbiter_factory, phase, cycles, words=BLOCK):
    """All masters request ``words`` once per revolution, offset ``phase``.

    ``phase`` is the arrival offset from the start of each master's own
    slot block; negative offsets (arriving shortly *before* the block
    ends/after it passed) are expressed modulo the period.
    """
    masters = [MasterInterface("f5.m{}".format(i), i) for i in range(NUM_MASTERS)]
    bus = SharedBus(
        "f5.bus",
        masters,
        arbiter_factory(),
        slaves=[Slave("f5.s", 0)],
        max_burst=BLOCK,
    )
    system = BusSystem()
    for i in range(NUM_MASTERS):
        arrival = (i * BLOCK + phase) % PERIOD
        system.add_generator(
            PatternGenerator(
                "f5.g{}".format(i),
                masters[i],
                [(arrival, words)],
                repeat_period=PERIOD,
            )
        )
    system.add_bus(bus)
    system.run(cycles)
    return bus.metrics


def _mean_latency(metrics):
    values = metrics.latencies_per_word()
    return sum(values) / len(values)


def _mean_wait(metrics):
    waits = [
        metrics.masters[i].latency.avg_wait_cycles for i in range(NUM_MASTERS)
    ]
    return sum(waits) / len(waits)


class Figure5Result:
    """Mean per-word latency / wait slots per phase, per architecture."""

    def __init__(self, phases, pure_tdma, pure_waits, two_level, lottery):
        self.phases = phases
        self.pure_tdma = pure_tdma
        self.pure_waits = pure_waits
        self.two_level = two_level
        self.lottery = lottery

    def aligned_wait(self):
        return self.pure_waits[self.phases.index(0)]

    def worst_wait(self):
        return max(self.pure_waits)

    def lottery_spread(self):
        """Max - min lottery latency across phases (phase sensitivity)."""
        return max(self.lottery) - min(self.lottery)

    def format_report(self):
        rows = []
        for i, phase in enumerate(self.phases):
            rows.append(
                [
                    phase,
                    "{:.2f}".format(self.pure_tdma[i]),
                    "{:.2f}".format(self.pure_waits[i]),
                    "{:.2f}".format(self.two_level[i]),
                    "{:.2f}".format(self.lottery[i]),
                ]
            )
        table = format_table(
            [
                "phase",
                "TDMA lat/word",
                "TDMA wait (slots)",
                "2-level TDMA lat/word",
                "LOTTERY lat/word",
            ],
            rows,
            title=(
                "Figure 5: latency vs request/reservation alignment "
                "(phase 0 = Trace 1, aligned)"
            ),
        )
        traces = "\n\n".join(
            render_figure5_traces(phase=phase, cycles=40) for phase in (0, 15)
        )
        return table + "\n\n" + traces


def render_figure5_traces(phase=15, cycles=72):
    """Draw the actual Figure 5 waveforms for one phase shift.

    Returns the ASCII symbolic execution trace (request arrivals and
    per-slot bus ownership) of the pure-TDMA bus — phase 0 reproduces
    Trace 1 (aligned), other phases Trace 2 (shifted).
    """
    masters = [MasterInterface("f5t.m{}".format(i), i) for i in range(NUM_MASTERS)]
    bus = SharedBus(
        "f5t.bus",
        masters,
        TdmaArbiter(NUM_MASTERS, WHEEL, reclaim="none"),
        slaves=[Slave("f5t.s", 0)],
        max_burst=BLOCK,
    )
    probe = BusProbe("f5t.probe", bus, window=cycles)
    system = BusSystem()
    for i in range(NUM_MASTERS):
        arrival = (i * BLOCK + phase) % PERIOD
        system.add_generator(
            PatternGenerator(
                "f5t.g{}".format(i),
                masters[i],
                [(arrival, BLOCK)],
                repeat_period=PERIOD,
            )
        )
    system.add_bus(bus)
    system.add_monitor(probe)
    system.run(cycles)
    title = "Figure 5 trace, phase shift {} (wheel: 6 slots per master)".format(
        phase
    )
    return title + "\n" + render_waveform(probe)


def run_figure5(cycles=40_000, phases=None, seed=1):  # lb: noqa[LB203] — deterministic TDMA phase sweep; seed kept for the uniform entry-point signature
    """Sweep the request-pattern phase; returns a :class:`Figure5Result`."""
    if phases is None:
        phases = [0, 3, 6, 9, 12, 15]
    pure = []
    pure_waits = []
    two_level = []
    lottery = []
    for phase in phases:
        metrics = _run_pattern(
            lambda: TdmaArbiter(NUM_MASTERS, WHEEL, reclaim="none"), phase, cycles
        )
        pure.append(_mean_latency(metrics))
        pure_waits.append(_mean_wait(metrics))
        metrics = _run_pattern(
            lambda: TdmaArbiter(NUM_MASTERS, WHEEL, reclaim="scan"), phase, cycles
        )
        two_level.append(_mean_latency(metrics))
        metrics = _run_pattern(
            lambda: StaticLotteryArbiter(
                tickets=[1] * NUM_MASTERS, lfsr_seed=seed
            ),
            phase,
            cycles,
        )
        lottery.append(_mean_latency(metrics))
    return Figure5Result(list(phases), pure, pure_waits, two_level, lottery)
