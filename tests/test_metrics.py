"""Tests for metrics collection and statistics."""

import pytest

from repro.bus.transaction import Request
from repro.metrics.bandwidth import jain_fairness_index, share_ratio_error
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyStats


def completed_request(master=0, words=4, arrival=0, start=0, gap=0):
    """Build a completed request served word-per-cycle from ``start``."""
    request = Request(master, words, arrival)
    request.first_grant_cycle = start
    cycle = start
    for index in range(words):
        request.remaining -= 1
        cycle += 1 + gap
    request.completion_cycle = cycle - 1 - gap
    return request


def test_latency_stats_single_message():
    stats = LatencyStats()
    stats.record(completed_request(words=4, arrival=0, start=2))
    assert stats.messages == 1
    assert stats.words == 4
    assert stats.avg_latency_per_word == pytest.approx(6 / 4)
    assert stats.avg_wait_cycles == 2.0
    assert stats.max_wait_cycles == 2


def test_latency_stats_word_weighting():
    stats = LatencyStats()
    stats.record(completed_request(words=1, arrival=0, start=9))   # 10 cycles
    stats.record(completed_request(words=10, arrival=0, start=0))  # 10 cycles
    # Word-weighted: 20 total cycles over 11 words.
    assert stats.avg_latency_per_word == pytest.approx(20 / 11)
    # Message mean: (10 + 10) / 2.
    assert stats.avg_latency_per_message == pytest.approx(10.0)


def test_latency_stats_interleaving_visible_in_latency():
    smooth = LatencyStats()
    smooth.record(completed_request(words=4, start=0, gap=0))
    stretched = LatencyStats()
    stretched.record(completed_request(words=4, start=0, gap=3))
    # Every inter-word gap is charged: words at 0, 4, 8, 12.
    assert stretched.total_cycles == 13
    assert smooth.total_cycles == 4
    assert stretched.avg_latency_per_word > smooth.avg_latency_per_word


def test_latency_stats_merge():
    a = LatencyStats()
    a.record(completed_request(words=2))
    b = LatencyStats()
    b.record(completed_request(words=6, start=4))
    a.merge(b)
    assert a.messages == 2
    assert a.words == 8


def test_latency_stats_empty():
    stats = LatencyStats()
    assert stats.avg_latency_per_word == 0.0
    assert stats.avg_latency_per_message == 0.0
    assert stats.avg_wait_cycles == 0.0


def test_collector_bandwidth_accounting():
    collector = MetricsCollector(3)
    for _ in range(10):
        collector.cycles += 1  # what SharedBus.tick does per cycle
    for _ in range(4):
        collector.record_word(0)
    for _ in range(2):
        collector.record_word(2)
    assert collector.utilization() == pytest.approx(0.6)
    assert collector.bandwidth_fractions() == [0.4, 0.0, 0.2]
    assert collector.bandwidth_shares() == pytest.approx([4 / 6, 0.0, 2 / 6])


def test_collector_zero_cycles_safe():
    collector = MetricsCollector(2)
    assert collector.utilization() == 0.0
    assert collector.bandwidth_fractions() == [0.0, 0.0]
    assert collector.bandwidth_shares() == [0.0, 0.0]


def test_collector_summary_keys():
    collector = MetricsCollector(2)
    collector.cycles += 1
    collector.record_word(1)
    summary = collector.summary()
    for key in (
        "cycles",
        "utilization",
        "bandwidth_fractions",
        "bandwidth_shares",
        "latencies_per_word",
        "word_latencies",
        "words",
        "grants",
    ):
        assert key in summary
    # One latency metric: the word_latencies key is its alias.
    assert summary["word_latencies"] == summary["latencies_per_word"]


def test_collector_reset():
    collector = MetricsCollector(2)
    collector.cycles += 1
    collector.record_word(0)
    collector.reset()
    assert collector.cycles == 0
    assert collector.total_words == 0


def test_collector_validation():
    with pytest.raises(ValueError):
        MetricsCollector(0)


def test_jain_fairness_index():
    assert jain_fairness_index([1, 1, 1, 1]) == pytest.approx(1.0)
    assert jain_fairness_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_fairness_index([0, 0]) == 1.0
    # Proportional-but-unequal allocation sits strictly between.
    index = jain_fairness_index([0.1, 0.2, 0.3, 0.4])
    assert 0.25 < index < 1.0
    with pytest.raises(ValueError):
        jain_fairness_index([])
    with pytest.raises(ValueError):
        jain_fairness_index([-1, 2])


def test_fairness_of_simulated_arbiters():
    from repro.arbiters.registry import make_arbiter
    from repro.bus.topology import build_single_bus_system
    from repro.traffic.classes import get_traffic_class

    def fairness(name):
        arbiter = make_arbiter(name, 4, [1, 1, 1, 1])
        system, bus = build_single_bus_system(
            4, arbiter, get_traffic_class("T8").generator_factory(seed=2)
        )
        system.run(10_000)
        return jain_fairness_index(bus.metrics.bandwidth_shares())

    assert fairness("round-robin") > 0.99
    assert fairness("lottery-static") > 0.98
    assert fairness("static-priority") < 0.3


def test_share_ratio_error():
    assert share_ratio_error([0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4]) == pytest.approx(0.0)
    assert share_ratio_error([0.2, 0.8], [1, 1]) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        share_ratio_error([0.5], [1, 1])
    with pytest.raises(ValueError):
        share_ratio_error([0.5, 0.5], [0, 0])
