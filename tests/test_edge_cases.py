"""Edge-case tests across modules."""

import pytest

from repro.arbiters.registry import make_arbiter
from repro.bus.master import MasterInterface
from repro.bus.slave import Slave
from repro.bus.bus import SharedBus
from repro.sim.kernel import Simulator


def test_token_ring_registry_default_hold_limit():
    arbiter = make_arbiter("token-ring", 3)
    assert arbiter.hold_limit == 16


def test_token_ring_registry_hold_limit_override():
    arbiter = make_arbiter("token-ring", 3, hold_limit=2)
    assert arbiter.hold_limit == 2


def test_slave_rejects_negative_wait_states():
    with pytest.raises(ValueError):
        Slave("s", 0, setup_wait_states=-1)
    with pytest.raises(ValueError):
        Slave("s", 0, per_word_wait_states=-1)


def test_bus_rejects_bad_parameters():
    masters = [MasterInterface("m", 0)]
    arbiter = make_arbiter("round-robin", 1)
    with pytest.raises(ValueError):
        SharedBus("bus", masters, arbiter, max_burst=0)
    with pytest.raises(ValueError):
        SharedBus("bus", masters, arbiter, arbitration_cycles=-1)
    with pytest.raises(ValueError):
        SharedBus("bus", [], arbiter)


def test_single_master_single_word_minimal_system():
    masters = [MasterInterface("m", 0)]
    bus = SharedBus("bus", masters, make_arbiter("round-robin", 1))
    sim = Simulator()
    sim.add(bus)
    request = masters[0].submit(1, 0)
    sim.run(1)
    assert request.complete
    assert request.latency_per_word == 1.0


def test_max_burst_one_interleaves_fairly():
    masters = [MasterInterface("m{}".format(i), i) for i in range(2)]
    bus = SharedBus(
        "bus", masters, make_arbiter("round-robin", 2), max_burst=1
    )
    sim = Simulator()
    sim.add(bus)
    a = masters[0].submit(3, 0)
    b = masters[1].submit(3, 0)
    sim.run(6)
    # Strict word-by-word alternation.
    assert a.completion_cycle == 4
    assert b.completion_cycle == 5


def test_simulator_zero_cycle_run_is_noop():
    sim = Simulator()
    assert sim.run(0) == 0


def test_request_queue_fifo_within_master():
    masters = [MasterInterface("m", 0)]
    bus = SharedBus("bus", masters, make_arbiter("round-robin", 1))
    sim = Simulator()
    sim.add(bus)
    first = masters[0].submit(2, 0)
    second = masters[0].submit(2, 0)
    sim.run(4)
    assert first.completion_cycle < second.completion_cycle


def test_stacked_percentages_zero_column():
    from repro.metrics.report import format_stacked_percentages

    text = format_stacked_percentages(["x"], {"A": [0.0]}, width=10)
    assert "A=0.0%" in text


def test_geometric_words_repr_and_uniform_repr():
    from repro.traffic.message import GeometricWords, UniformWords

    assert "GeometricWords" in repr(GeometricWords(5))
    assert "UniformWords" in repr(UniformWords(1, 2))


def test_tiny_figure12_experiments_run():
    from repro.experiments.runner import run_experiment

    result_b = run_experiment("figure12b", scale=0.01)
    result_c = run_experiment("figure12c", scale=0.01)
    assert len(result_b.surface) == 6
    assert len(result_c.surface) == 6


def test_hwscale_experiment_runs():
    from repro.experiments.runner import run_experiment

    result = run_experiment("hwscale")
    assert result.crossover_masters() == 8


@pytest.mark.parametrize(
    "name,seed",
    [("figure5", 1024), ("figure5", 4096), ("starvation", 65536)],
)
def test_seeds_wider_than_the_lfsr_run(name, seed):
    # Each seed is a multiple of 2**width of the LFSR it feeds (10 bits
    # for figure5's managers, 16 for starvation's), so its low bits are
    # all zero.
    from repro.experiments.runner import run_experiment

    assert run_experiment(name, scale=0.01, seed=seed).format_report()
