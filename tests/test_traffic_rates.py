"""Statistical sanity pins for the stochastic generators' rates.

The analytic surrogate (repro.analytic) derives everything from the
generators' *parameters* — Poisson arrival rates, on-off duty cycles,
geometric think times — so these tests pin the parameters to what the
generators empirically do.  If a generator's semantics drift, this is
the file that should fail first, before the surrogate's error bounds
do.
"""

import pytest

from repro.bus.master import MasterInterface
from repro.sim.kernel import Simulator
from repro.traffic.generator import (
    ClosedLoopGenerator,
    OnOffGenerator,
    PoissonGenerator,
)
from repro.traffic.message import FixedWords


def drive(generator, cycles):
    sim = Simulator()
    sim.add(generator)
    sim.run(cycles)
    return generator


@pytest.mark.parametrize("rate", [0.02, 0.1, 0.5])
def test_poisson_empirical_rate_matches_parameter(rate):
    cycles = 60_000
    counts = []
    for seed in (1, 2, 3):
        interface = MasterInterface("m", 0, max_queue=10 ** 9)
        gen = PoissonGenerator(
            "g", interface, FixedWords(1), rate=rate, seed=seed
        )
        drive(gen, cycles)
        counts.append(gen.messages_emitted)
    mean = sum(counts) / len(counts)
    expected = rate * cycles
    # Bernoulli(rate) per cycle: sigma = sqrt(n p (1-p)) per run, and
    # averaging three seeds shrinks it by sqrt(3); gate at 4 sigma.
    sigma = (cycles * rate * (1.0 - rate) / len(counts)) ** 0.5
    assert abs(mean - expected) <= 4.0 * sigma


@pytest.mark.parametrize(
    "on_rate,mean_on,mean_off",
    [(1.0, 10, 90), (0.5, 50, 150), (0.25, 200, 200)],
)
def test_onoff_empirical_rate_matches_duty_cycle(
    on_rate, mean_on, mean_off
):
    cycles = 80_000
    rates = []
    for seed in (1, 2, 3):
        interface = MasterInterface("m", 0, max_queue=10 ** 9)
        gen = OnOffGenerator(
            "g", interface, FixedWords(1), on_rate=on_rate,
            mean_on=mean_on, mean_off=mean_off, seed=seed,
        )
        drive(gen, cycles)
        rates.append(gen.words_emitted / cycles)
    mean = sum(rates) / len(rates)
    expected = on_rate * mean_on / (mean_on + mean_off)
    assert expected == pytest.approx(gen.offered_load())
    # Dwell times are geometric, so the effective sample size is the
    # number of on/off epochs, not cycles; 15% relative is ~4 sigma at
    # these settings.
    assert mean == pytest.approx(expected, rel=0.15)


def test_closed_loop_think_times_are_geometric_with_pinned_mean():
    # The surrogate's priority model leans on think times being
    # geometric (memoryless): the chance a master re-pends within a
    # window of w cycles is 1 - (1 - 1/Z)^w.  Pin the mean and the
    # memoryless signature of the empirical gaps.
    mean_think = 8
    interface = MasterInterface("m", 0)
    gen = ClosedLoopGenerator(
        "g", interface, FixedWords(1), mean_think=mean_think, seed=11
    )
    sim = Simulator()
    sim.add(gen)
    issues = []
    for cycle in range(60_000):
        sim.run(1)
        if interface.queue_depth > 0:
            issues.append(interface.queue[0].arrival_cycle)
            interface.pop()  # instant zero-latency service
    gaps = [b - a for a, b in zip(issues, issues[1:])]
    assert len(gaps) > 3_000
    mean_gap = sum(gaps) / len(gaps)
    # Completion at cycle t, think ~ Geometric(1/Z) >= 1, re-issue on
    # the tick after the countdown: gap = think + 1.
    assert mean_gap == pytest.approx(mean_think + 1.0, rel=0.05)
    # Memorylessness: P(gap > 2Z | gap > Z) ~ P(gap > Z).
    over = sum(1 for g in gaps if g - 1 > mean_think) / len(gaps)
    tail = [g for g in gaps if g - 1 > mean_think]
    over_tail = sum(1 for g in tail if g - 1 > 2 * mean_think) / len(tail)
    assert over_tail == pytest.approx(over, abs=0.05)
