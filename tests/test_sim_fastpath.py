"""Fast-path vs dense equivalence for the activity-driven kernel.

The fast path must be a pure optimisation: for every arbiter and every
traffic shape, a fast-mode run and a dense-mode run of the same system
must produce identical metrics summaries and bit-identical checkpoints —
while the fast run demonstrably skips cycles.  Strict mode cross-checks
every jump against a dense replay and must flag components that lie
about their quiescence.
"""

import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arbiters.lottery import (
    CompensatedLotteryArbiter,
    DynamicLotteryArbiter,
    StaticLotteryArbiter,
)
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.arbiters.static_priority import StaticPriorityArbiter
from repro.arbiters.tdma import TdmaArbiter
from repro.arbiters.token_ring import TokenRingArbiter
from repro.arbiters.weighted_rr import WeightedRoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.topology import BusSystem, build_single_bus_system
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.sim import Component, KernelDivergenceError, Simulator
from repro.traffic.generator import (
    ClosedLoopGenerator,
    OnOffGenerator,
    PeriodicGenerator,
    PoissonGenerator,
)
from repro.traffic.message import FixedWords

NUM_MASTERS = 4
CYCLES = 4000

ARBITERS = {
    "lottery-static": lambda: StaticLotteryArbiter(tickets=[1, 2, 3, 4]),
    "lottery-dynamic": lambda: DynamicLotteryArbiter(tickets=[1, 2, 3, 4]),
    "lottery-compensated": lambda: CompensatedLotteryArbiter([1, 2, 3, 4]),
    "tdma-scan": lambda: TdmaArbiter.from_slot_counts([2, 1, 1, 2]),
    "tdma-single": lambda: TdmaArbiter.from_slot_counts(
        [2, 1, 1, 2], reclaim="single"
    ),
    "tdma-none": lambda: TdmaArbiter.from_slot_counts(
        [2, 1, 1, 2], reclaim="none"
    ),
    "static-priority": lambda: StaticPriorityArbiter([1, 2, 3, 4]),
    "round-robin": lambda: RoundRobinArbiter(NUM_MASTERS),
    "weighted-rr": lambda: WeightedRoundRobinArbiter([1, 2, 3, 4]),
    "token-ring": lambda: TokenRingArbiter(NUM_MASTERS, hold_limit=4),
}


def _poisson_factory(index, master):
    return PoissonGenerator(
        "gen{}".format(index),
        master,
        FixedWords(4),
        0.005,
        seed=31 + index,
    )


def _run_system(make_arbiter, mode, cycles=CYCLES):
    system, bus = build_single_bus_system(
        NUM_MASTERS, make_arbiter(), generator_factory=_poisson_factory
    )
    system.simulator.mode = mode
    system.run(cycles)
    return system, bus


def _capture(system, bus):
    return (
        bus.metrics.summary(),
        pickle.dumps(system.simulator.state_dict()),
    )


@pytest.mark.parametrize("name", sorted(ARBITERS))
def test_fast_matches_dense_per_arbiter(name):
    fast_system, fast_bus = _run_system(ARBITERS[name], "fast")
    dense_system, dense_bus = _run_system(ARBITERS[name], "dense")

    fast_summary, fast_state = _capture(fast_system, fast_bus)
    dense_summary, dense_state = _capture(dense_system, dense_bus)
    assert fast_summary == dense_summary
    assert fast_state == dense_state

    # The equivalence must not be vacuous: at this load the fast run
    # skips most of the timeline while the dense run ticks everything.
    assert dense_system.simulator.skipped_cycles == 0
    assert fast_system.simulator.skipped_cycles > CYCLES // 2
    assert (
        fast_system.simulator.ticked_cycles
        + fast_system.simulator.skipped_cycles
        == CYCLES
    )


@pytest.mark.parametrize("name", ["lottery-static", "tdma-single", "token-ring"])
def test_strict_mode_matches_dense(name):
    strict_system, strict_bus = _run_system(ARBITERS[name], "strict",
                                            cycles=1500)
    dense_system, dense_bus = _run_system(ARBITERS[name], "dense",
                                          cycles=1500)
    assert _capture(strict_system, strict_bus) == _capture(
        dense_system, dense_bus
    )
    assert strict_system.simulator.skipped_cycles > 0


def test_checkpoint_files_identical_across_modes(tmp_path):
    paths = {}
    for mode in ("fast", "dense"):
        system, _ = _run_system(ARBITERS["lottery-static"], mode)
        paths[mode] = tmp_path / (mode + ".ckpt")
        system.save_checkpoint(str(paths[mode]))
    assert paths["fast"].read_bytes() == paths["dense"].read_bytes()


GENERATORS = {
    "periodic": lambda i, m: PeriodicGenerator(
        "gen{}".format(i), m, 4, period=97 + 11 * i, phase=5 * i
    ),
    "onoff": lambda i, m: OnOffGenerator(
        "gen{}".format(i),
        m,
        FixedWords(4),
        on_rate=0.2,
        mean_on=30,
        mean_off=400,
        seed=3 + i,
    ),
    "closedloop": lambda i, m: ClosedLoopGenerator(
        "gen{}".format(i), m, FixedWords(4), mean_think=150, seed=9 + i
    ),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generator_contracts_match_dense(kind):
    captures = {}
    for mode in ("fast", "dense"):
        system, bus = build_single_bus_system(
            NUM_MASTERS,
            RoundRobinArbiter(NUM_MASTERS),
            generator_factory=GENERATORS[kind],
        )
        system.simulator.mode = mode
        system.run(CYCLES)
        captures[mode] = _capture(system, bus)
        if mode == "fast":
            assert system.simulator.skipped_cycles > 0
    assert captures["fast"] == captures["dense"]


# -- Poisson arrivals pre-drawn as Bernoulli runs ----------------------------

#: Per-master arrival rates: every cycle, the benchmark's sparse rate,
#: and anything in between.
POISSON_RATES = st.one_of(
    st.sampled_from([1.0, 0.001]), st.floats(min_value=0.001, max_value=1.0)
)


def _poisson_system(rates, seed, mode):
    def factory(index, master):
        return PoissonGenerator("gen{}".format(index), master, FixedWords(4),
                                rates[index], seed=seed + index)

    system, bus = build_single_bus_system(
        NUM_MASTERS, ARBITERS["lottery-static"](), generator_factory=factory
    )
    system.simulator.mode = mode
    return system, bus


@settings(max_examples=8, deadline=None)
@given(rates=st.lists(POISSON_RATES, min_size=NUM_MASTERS,
                      max_size=NUM_MASTERS),
       seed=st.integers(min_value=0, max_value=2**16))
@example(rates=[1.0, 0.001, 0.001, 1.0], seed=0)
def test_poisson_rates_run_fast_equals_dense_equals_strict(rates, seed):
    captures = []
    for mode in ("fast", "dense", "strict"):
        system, bus = _poisson_system(rates, seed, mode)
        system.run(1500)
        captures.append(_capture(system, bus))
    assert captures[0] == captures[1] == captures[2]


@pytest.mark.parametrize("mode", ["fast", "dense"])
def test_checkpoint_mid_gap_resumes_like_a_straight_run(mode, tmp_path):
    rates = [0.001, 0.004, 0.01, 0.002]
    path = str(tmp_path / "gap.ckpt")
    straight, straight_bus = _poisson_system(rates, 7, mode)
    straight.run(6000)

    first, _ = _poisson_system(rates, 7, mode)
    first.run(3000)
    # Not vacuous: some source is between arrivals, its next one already
    # drawn and its stream advanced past the trials that drew it.
    assert any(
        gen._next_arrival is not None and gen._next_arrival > 3000
        and gen._rng.state_dict()["random"]
        != random.Random(gen._rng.seed).getstate()
        for gen in first.generators
    )
    first.save_checkpoint(path)

    resumed, resumed_bus = _poisson_system(rates, 7, mode)
    assert resumed.load_checkpoint(path) == 3000
    resumed.run(3000)
    assert _capture(resumed, resumed_bus) == _capture(straight, straight_bus)


# -- fault injection under skip-ahead ---------------------------------------


def _run_faulty(mode, cycles=6000):
    policy = RetryPolicy(max_retries=3, backoff_base=16, jitter=0.5)
    masters = [
        MasterInterface(
            "m{}".format(i), i, retry_policy=policy, retry_seed=11 + i
        )
        for i in range(3)
    ]
    bus = SharedBus("bus", masters, RoundRobinArbiter(3), bus_timeout=64)
    system = BusSystem()
    for index, master in enumerate(masters):
        system.add_generator(
            PoissonGenerator(
                "gen{}".format(index),
                master,
                FixedWords(6),
                0.004,
                seed=5 + index,
            )
        )
    # Pull-side faults only (no window faults), so the injector itself
    # stays quiescent on idle cycles and skip-ahead remains possible.
    injector = FaultInjector(
        "faults",
        FaultPlan(word_error_rate=0.03, grant_drop_rate=0.02),
        seed=3,
    )
    system.add_generator(injector)
    system.add_bus(bus)
    injector.attach_bus(bus)
    system.simulator.mode = mode
    system.run(cycles)
    return system, bus


def test_faults_still_fire_under_skip_ahead():
    fast_system, fast_bus = _run_faulty("fast")
    dense_system, dense_bus = _run_faulty("dense")

    fast_summary = fast_bus.metrics.summary()
    assert fast_summary == dense_bus.metrics.summary()
    assert pickle.dumps(fast_system.simulator.state_dict()) == pickle.dumps(
        dense_system.simulator.state_dict()
    )

    # Faults actually fired, recovery actually ran, and the fast run
    # still skipped quiescent stretches (retry backoffs bound the jumps
    # rather than forbidding them).
    assert fast_summary["faults"]["injected_total"] > 0
    assert fast_summary["faults"]["retried"] > 0
    assert fast_system.simulator.skipped_cycles > 0


def test_window_faults_force_dense_ticking():
    system, bus = build_single_bus_system(
        NUM_MASTERS,
        StaticLotteryArbiter(tickets=[1, 2, 3, 4]),
        generator_factory=_poisson_factory,
    )
    injector = FaultInjector(
        "faults", FaultPlan(lfsr_stuck_rate=0.0005), seed=2
    )
    system.add_generator(injector)
    injector.attach_bus(bus)
    system.run(1000)
    # The stuck-LFSR schedule draws the injector RNG every cycle, so the
    # kernel must never skip past it.
    assert system.simulator.skipped_cycles == 0
    assert system.simulator.ticked_cycles == 1000


# -- kernel-level contract behaviour ----------------------------------------


class Recorder(Component):
    """Default contract: never skippable, ticked every cycle."""

    def __init__(self, name="recorder"):
        super().__init__(name)
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


class Sleeper(Recorder):
    """Idle until woken externally."""

    def next_activity(self, cycle):
        return None


class QuietLiar(Component):
    """Claims long quiescence but mutates state every tick."""

    state_attrs = ("count",)

    def __init__(self, name="liar"):
        super().__init__(name)
        self.count = 0

    def tick(self, cycle):
        self.count += 1

    def next_activity(self, cycle):
        return cycle + 50


def test_default_contract_stays_dense():
    sim = Simulator()
    recorder = sim.add(Recorder())
    sim.run(5)
    assert recorder.ticks == [0, 1, 2, 3, 4]
    assert sim.skipped_cycles == 0
    assert sim.ticked_cycles == 5


def test_sleeper_is_skipped_entirely():
    sim = Simulator()
    sleeper = sim.add(Sleeper("sleeper"))
    sim.run(10)
    assert sleeper.ticks == []
    assert sim.skipped_cycles == 10
    assert sim.cycle == 10


def test_wake_forces_one_dense_tick():
    sim = Simulator()
    sleeper = sim.add(Sleeper("sleeper"))
    sim.run(10)
    sleeper.wake()
    sim.run(10)
    assert sleeper.ticks == [10]
    assert sim.cycle == 20
    assert sim.ticked_cycles == 1
    assert sim.skipped_cycles == 19


def test_run_until_sees_every_cycle_in_fast_mode():
    sim = Simulator()
    sleeper = sim.add(Sleeper("sleeper"))
    assert sim.run_until(lambda cycle: cycle >= 5) == 5
    # run_until always ticks densely so the predicate observes every
    # cycle boundary, even for otherwise skippable components.
    assert sleeper.ticks == [0, 1, 2, 3, 4]


def test_strict_mode_catches_lying_component():
    sim = Simulator(mode="strict")
    sim.add(QuietLiar())
    with pytest.raises(KernelDivergenceError):
        sim.run(10)


def test_fast_mode_trusts_the_contract():
    # The same liar silently corrupts a fast run — that is exactly the
    # gap strict mode exists to close.
    sim = Simulator(mode="fast")
    liar = sim.add(QuietLiar())
    sim.run(10)
    assert liar.count == 0
    assert sim.skipped_cycles == 10
