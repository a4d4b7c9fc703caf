"""Property-based tests (hypothesis) for the extension modules."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.compensation import CompensationPolicy
from repro.core.energy_model import estimate_run_energy
from repro.core.hardware_model import estimate_static_manager
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import confidence_interval, mean


@given(
    tickets=st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                     max_size=5),
    bursts=st.lists(st.integers(min_value=1, max_value=32), min_size=1,
                    max_size=20),
    data=st.data(),
)
def test_compensation_holdings_always_valid(tickets, bursts, data):
    policy = CompensationPolicy(tickets, max_burst=16, cap=255)
    for burst in bursts:
        master = data.draw(
            st.integers(min_value=0, max_value=len(tickets) - 1)
        )
        policy.on_grant(master, burst)
        holdings = policy.holdings()
        assert all(1 <= h <= 255 for h in holdings)
        # A full-quantum user is never inflated above its base holding.
        if burst >= 16:
            assert holdings[master] == tickets[master]


@given(
    words=st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                   max_size=4),
    cycles=st.integers(min_value=1, max_value=2000),
)
def test_energy_is_nonnegative_and_monotone_in_words(words, cycles):
    hardware = estimate_static_manager(len(words), 16)
    collector = MetricsCollector(len(words))
    for _ in range(cycles):
        collector.observe_cycle()
    for master, count in enumerate(words):
        for _ in range(min(count, cycles)):
            collector.record_word(master)
    breakdown = estimate_run_energy(collector, hardware, arbitrations=1)
    assert breakdown.total_pj >= 0
    assert breakdown.transfer_pj == collector.total_words * 12.0


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30)
)
def test_confidence_interval_contains_the_mean(values):
    mu, halfwidth = confidence_interval(values)
    assert mu == mean(values)
    assert halfwidth >= 0
