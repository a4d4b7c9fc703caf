"""Tests for the traffic generators."""

import random

import pytest

from repro.bus.master import MasterInterface
from repro.sim.kernel import Simulator
from repro.traffic.generator import (
    ClosedLoopGenerator,
    OnOffGenerator,
    PeriodicGenerator,
    PoissonGenerator,
    SaturatingGenerator,
)
from repro.traffic.message import FixedWords, UniformWords


def drive(generator, cycles):
    sim = Simulator()
    sim.add(generator)
    sim.run(cycles)
    return generator


def test_saturating_keeps_queue_at_depth():
    interface = MasterInterface("m", 0)
    gen = SaturatingGenerator("g", interface, FixedWords(4), depth=2)
    drive(gen, 10)
    assert interface.queue_depth == 2
    # Drain one; the generator refills on its next tick.
    interface.pop()
    drive(gen, 1)
    assert interface.queue_depth == 2


def test_poisson_rate_controls_message_count():
    interface = MasterInterface("m", 0)
    gen = PoissonGenerator("g", interface, FixedWords(1), rate=0.2, seed=3)
    drive(gen, 10_000)
    assert gen.messages_emitted == pytest.approx(2000, rel=0.1)
    assert gen.offered_load() == pytest.approx(0.2)


def test_poisson_at_rate_one_draws_one_uniform_per_arrival():
    # Every cycle is an arrival, and each one is still a Bernoulli trial
    # that consumes its uniform (FixedWords draws nothing), so the stream
    # stays where dense per-cycle trials leave it at any rate.
    interface = MasterInterface("m", 0, max_queue=10 ** 9)
    gen = PoissonGenerator("g", interface, FixedWords(1), rate=1.0, seed=3)
    reference = random.Random(gen._rng.seed)
    for cycle in range(50):
        gen.tick(cycle)
        reference.random()
    assert gen.messages_emitted == 50
    assert gen._rng.state_dict()["random"] == reference.getstate()


def test_poisson_rate_validation():
    interface = MasterInterface("m", 0)
    with pytest.raises(ValueError):
        PoissonGenerator("g", interface, FixedWords(1), rate=0.0)


def test_periodic_arrivals_exact():
    interface = MasterInterface("m", 0)
    gen = PeriodicGenerator("g", interface, 3, period=10, phase=2)
    drive(gen, 33)
    # Arrivals at cycles 2, 12, 22, 32.
    assert gen.messages_emitted == 4
    arrivals = [r.arrival_cycle for r in interface._queue]
    assert arrivals == [2, 12, 22, 32]
    assert gen.offered_load() == pytest.approx(0.3)


def test_periodic_validation():
    interface = MasterInterface("m", 0)
    with pytest.raises(ValueError):
        PeriodicGenerator("g", interface, 3, period=0)
    with pytest.raises(ValueError):
        PeriodicGenerator("g", interface, 3, period=5, phase=-1)


def test_onoff_duty_cycle_shapes_load():
    interface = MasterInterface("m", 0, max_queue=10 ** 9)
    gen = OnOffGenerator(
        "g", interface, FixedWords(1), on_rate=0.5, mean_on=50, mean_off=150,
        seed=5,
    )
    drive(gen, 40_000)
    measured = gen.words_emitted / 40_000
    assert measured == pytest.approx(gen.offered_load(), rel=0.25)
    assert gen.offered_load() == pytest.approx(0.125)


def test_onoff_emits_in_clusters():
    interface = MasterInterface("m", 0)
    gen = OnOffGenerator(
        "g", interface, FixedWords(1), on_rate=1.0, mean_on=10, mean_off=90,
        seed=2,
    )
    drive(gen, 5000)
    arrivals = [r.arrival_cycle for r in interface._queue]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    # Mostly back-to-back arrivals, with occasional long silences.
    assert sum(1 for g in gaps if g == 1) > 0.7 * len(gaps)
    assert max(gaps) > 20


def test_closed_loop_blocks_until_completion():
    interface = MasterInterface("m", 0)
    gen = ClosedLoopGenerator("g", interface, FixedWords(4), mean_think=0)
    drive(gen, 10)
    # Only one request outstanding, no matter how long it waits.
    assert interface.queue_depth == 1
    interface.pop()
    drive(gen, 1)
    assert interface.queue_depth == 1


def test_closed_loop_think_time_gates_reissue():
    interface = MasterInterface("m", 0)
    gen = ClosedLoopGenerator(
        "g", interface, FixedWords(1), mean_think=1000, seed=9
    )
    drive(gen, 1)
    assert interface.queue_depth == 1
    interface.pop()
    drive(gen, 20)  # far less than the think time
    assert interface.queue_depth == 0


def test_closed_loop_offered_load():
    interface = MasterInterface("m", 0)
    gen = ClosedLoopGenerator("g", interface, FixedWords(5), mean_think=5)
    assert gen.offered_load() == pytest.approx(0.5)


def test_generators_reset_reproducibly():
    interface = MasterInterface("m", 0, max_queue=10 ** 9)
    gen = PoissonGenerator("g", interface, UniformWords(1, 8), rate=0.3, seed=4)
    drive(gen, 500)
    first = [(r.arrival_cycle, r.words) for r in interface._queue]
    interface.reset()
    gen.reset()
    drive(gen, 500)
    second = [(r.arrival_cycle, r.words) for r in interface._queue]
    assert first == second
