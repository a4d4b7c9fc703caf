"""Cross-module integration tests."""

import pytest

from repro.arbiters.registry import available_arbiters, make_arbiter
from repro.bus.topology import build_single_bus_system
from repro.core.starvation import expected_bandwidth_shares
from repro.traffic.classes import get_traffic_class


def run(arbiter_name, traffic="T8", cycles=20_000, seed=2, **kwargs):
    arbiter = make_arbiter(arbiter_name, 4, [1, 2, 3, 4], **kwargs)
    system, bus = build_single_bus_system(
        4, arbiter, get_traffic_class(traffic).generator_factory(seed=seed)
    )
    system.run(cycles)
    return bus.metrics


@pytest.mark.parametrize("name", available_arbiters())
def test_every_arbiter_drives_the_testbed(name):
    metrics = run(name, cycles=5000)
    assert metrics.total_words > 0
    assert 0.0 < metrics.utilization() <= 1.0
    assert sum(metrics.bandwidth_fractions()) == pytest.approx(
        metrics.utilization()
    )


def test_same_seed_reproduces_exactly():
    a = run("lottery-static", cycles=5000, seed=7)
    b = run("lottery-static", cycles=5000, seed=7)
    assert a.summary() == b.summary()


def test_different_seeds_differ():
    a = run("lottery-static", traffic="T1", cycles=5000, seed=7)
    b = run("lottery-static", traffic="T1", cycles=5000, seed=8)
    assert a.summary() != b.summary()


def test_lottery_shares_converge_to_analytic_expectation():
    metrics = run("lottery-dynamic", cycles=60_000)
    expected = expected_bandwidth_shares([1, 2, 3, 4])
    for share, target in zip(metrics.bandwidth_shares(), expected):
        assert share == pytest.approx(target, abs=0.03)


def test_tdma_shares_exactly_proportional_under_saturation():
    metrics = run("tdma", cycles=50_000)
    for share, target in zip(metrics.bandwidth_shares(), [0.1, 0.2, 0.3, 0.4]):
        assert share == pytest.approx(target, abs=0.01)


def test_static_priority_starves_lowest():
    metrics = run("static-priority", cycles=20_000)
    shares = metrics.bandwidth_shares()
    assert shares[3] > 0.9
    assert shares[0] < 0.05


def test_round_robin_equalizes_grants():
    metrics = run("round-robin", cycles=50_000)
    grants = [metrics.masters[i].grants for i in range(4)]
    assert max(grants) - min(grants) <= max(1, 0.05 * max(grants))


def test_no_starvation_under_lottery():
    metrics = run("lottery-static", cycles=30_000)
    for master in range(4):
        assert metrics.masters[master].words > 0
        assert metrics.masters[master].latency.messages > 0


def test_utilization_never_exceeds_one():
    for traffic in ("T1", "T4", "T8", "T9"):
        metrics = run("lottery-static", traffic=traffic, cycles=5000)
        assert metrics.utilization() <= 1.0 + 1e-12
