"""Tests for the energy model."""

import pytest

from repro.core.energy_model import (
    EnergyBreakdown,
    EnergyTechnology,
    estimate_run_energy,
)
from repro.core.hardware_model import estimate_static_manager, estimate_tdma
from repro.metrics.collector import MetricsCollector


def make_metrics(words_per_master, cycles, grants_per_master=None):
    collector = MetricsCollector(len(words_per_master))
    for _ in range(cycles):
        collector.cycles += 1  # what SharedBus.tick does per cycle
    for master, words in enumerate(words_per_master):
        for _ in range(words):
            collector.record_word(master)
    if grants_per_master:
        for master, grants in enumerate(grants_per_master):
            for _ in range(grants):
                collector.record_grant(master)
    return collector


def test_energy_components_scale_correctly():
    hardware = estimate_static_manager(4, 16)
    metrics = make_metrics([100, 100, 0, 0], 400, [10, 10, 0, 0])
    breakdown = estimate_run_energy(metrics, hardware)
    assert breakdown.transfer_pj == pytest.approx(200 * 12.0)
    assert breakdown.words == 200
    assert breakdown.total_pj > breakdown.transfer_pj
    assert 0.0 < breakdown.arbitration_overhead < 1.0


def test_more_arbitrations_cost_more():
    hardware = estimate_static_manager(4, 16)
    few = estimate_run_energy(
        make_metrics([160, 0, 0, 0], 200, [10, 0, 0, 0]), hardware
    )
    many = estimate_run_energy(
        make_metrics([160, 0, 0, 0], 200, [160, 0, 0, 0]), hardware
    )
    assert many.total_pj > few.total_pj
    assert many.arbitration_overhead > few.arbitration_overhead


def test_bigger_arbiter_leaks_more():
    metrics = make_metrics([100, 0], 1000, [10, 0])
    small = estimate_run_energy(metrics, estimate_tdma(2, 4))
    big = estimate_run_energy(metrics, estimate_static_manager(2, 16))
    assert big.static_pj > small.static_pj


def test_explicit_arbitration_count():
    hardware = estimate_static_manager(4, 16)
    metrics = make_metrics([10, 0, 0, 0], 20)
    breakdown = estimate_run_energy(metrics, hardware, arbitrations=5)
    assert breakdown.arbitration_pj > 0


def test_empty_run_is_zero_per_word():
    hardware = estimate_static_manager(4, 16)
    breakdown = estimate_run_energy(make_metrics([0, 0, 0, 0], 0), hardware)
    assert breakdown.pj_per_word == 0.0
    assert EnergyBreakdown(0, 0, 0, 0, 0).arbitration_overhead == 0.0


def test_technology_validation():
    with pytest.raises(ValueError):
        EnergyTechnology(wire_pj_per_word=0)
    with pytest.raises(ValueError):
        EnergyTechnology(activity=-1)


def test_simulated_run_energy_end_to_end():
    from repro.arbiters.lottery import StaticLotteryArbiter
    from repro.bus.topology import build_single_bus_system
    from repro.traffic.classes import get_traffic_class

    arbiter = StaticLotteryArbiter(tickets=[1, 2, 3, 4])
    system, bus = build_single_bus_system(
        4, arbiter, get_traffic_class("T9").generator_factory(seed=1)
    )
    system.run(10_000)
    hardware = estimate_static_manager(4, sum(arbiter.tickets))
    breakdown = estimate_run_energy(bus.metrics, hardware)
    # 16-word bursts: one arbitration per ~16 words keeps arbitration
    # overhead small relative to wire energy.
    assert breakdown.arbitration_overhead < 0.2
    assert breakdown.pj_per_word == pytest.approx(12.0, rel=0.25)
