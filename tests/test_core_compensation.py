"""Tests for compensation tickets."""

import pytest

from repro.arbiters.lottery import CompensatedLotteryArbiter
from repro.bus.topology import build_single_bus_system
from repro.core.compensation import CompensatedLotteryManager, CompensationPolicy
from repro.traffic.generator import ClosedLoopGenerator
from repro.traffic.message import FixedWords


def test_policy_full_quantum_resets_inflation():
    policy = CompensationPolicy([1, 1], max_burst=16)
    policy.on_grant(0, 16)
    assert policy.holdings() == [1, 1]


def test_policy_partial_burst_inflates():
    policy = CompensationPolicy([2, 2], max_burst=16)
    factor = policy.on_grant(0, 2)
    assert factor == pytest.approx(8.0)
    assert policy.holdings() == [16, 2]


def test_policy_oversized_burst_clamped_to_quantum():
    policy = CompensationPolicy([1, 1], max_burst=8)
    assert policy.on_grant(0, 20) == pytest.approx(1.0)


def test_policy_cap_and_floor():
    policy = CompensationPolicy([100, 1], max_burst=64, cap=255)
    policy.on_grant(0, 1)  # would be 6400 uncapped
    assert policy.holdings()[0] == 255


def test_policy_validation():
    with pytest.raises(ValueError):
        CompensationPolicy([1, 1], max_burst=0)
    with pytest.raises(ValueError):
        CompensationPolicy([100, 1], max_burst=4, cap=50)
    policy = CompensationPolicy([1, 1], max_burst=4)
    with pytest.raises(ValueError):
        policy.on_grant(5, 1)
    with pytest.raises(ValueError):
        policy.on_grant(0, 0)


def test_manager_tracks_policy_holdings():
    manager = CompensatedLotteryManager([1, 1], max_burst=8, lfsr_seed=3)
    manager.note_grant(0, 2)
    assert manager.tickets == (4, 1)
    manager.reset()
    assert manager.tickets == (1, 1)


def test_manager_draw_interface():
    manager = CompensatedLotteryManager([1, 1], max_burst=8)
    outcome = manager.draw([True, True])
    assert outcome.winner in (0, 1)
    assert manager.draw([False, False]) is None


def _mixed_size_factory(i, iface):
    words = FixedWords(2) if i < 2 else FixedWords(16)
    return ClosedLoopGenerator("g{}".format(i), iface, words, 0, seed=5 + i)


def test_compensation_equalizes_word_shares():
    arbiter = CompensatedLotteryArbiter([1, 1, 1, 1], max_burst=16)
    system, bus = build_single_bus_system(
        4, arbiter, _mixed_size_factory, max_burst=16
    )
    system.run(80_000)
    for share in bus.metrics.bandwidth_shares():
        assert share == pytest.approx(0.25, abs=0.03)


def test_compensation_respects_unequal_base_tickets():
    arbiter = CompensatedLotteryArbiter([3, 1, 3, 1], max_burst=16)
    system, bus = build_single_bus_system(
        4, arbiter, _mixed_size_factory, max_burst=16
    )
    system.run(80_000)
    shares = bus.metrics.bandwidth_shares()
    assert shares[0] == pytest.approx(0.375, abs=0.05)
    assert shares[3] == pytest.approx(0.125, abs=0.05)


def _quanta(arbiter):
    return arbiter.max_burst, arbiter.manager.policy.max_burst


def test_testbed_compensation_quantum_is_the_bus_max_burst(monkeypatch):
    from repro.experiments import system

    arbiters = []
    build = system.build_single_bus_system

    def spy(num_masters, arbiter, *args, **kwargs):
        arbiters.append(arbiter)
        return build(num_masters, arbiter, *args, **kwargs)

    monkeypatch.setattr(system, "build_single_bus_system", spy)
    system.run_testbed("lottery-compensated", "T9", [1, 2, 3, 4],
                       cycles=50, max_burst=8)
    assert [_quanta(arbiter) for arbiter in arbiters] == [(8, 8)]


def test_batch_builder_compensation_quantum_is_the_bus_max_burst():
    from repro.experiments.system import Point

    _, bus = Point(
        "lottery-compensated", "T9", [1, 2, 3, 4], max_burst=8
    ).build()
    assert bus.max_burst == 8 and _quanta(bus.arbiter) == (8, 8)
    # An explicit quantum still wins.
    _, bus = Point(
        "lottery-compensated", "T9", [1, 2, 3, 4], max_burst=8,
        kwargs={"max_burst": 4},
    ).build()
    assert _quanta(bus.arbiter) == (4, 4)
