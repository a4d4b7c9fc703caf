"""Hypothesis strategies for generated bus test-bed points.

Shared by the property tests that claim one behaviour across execution
paths (fast == dense == strict kernels, vector lanes == scalar runs,
one latency metric): each test draws its points from these, so every
claim is checked over the same space.
"""

from hypothesis import strategies as st

from repro.arbiters.registry import available_arbiters
from repro.experiments.system import Point
from repro.traffic.classes import TRAFFIC_CLASSES


def weights():
    """Four per-master weights (priorities, slots or tickets)."""
    return st.lists(st.integers(min_value=1, max_value=8), min_size=4,
                    max_size=4)


#: One test-bed point: arbiter family, traffic class T1-T9, weights,
#: burst cap, and the bus's preemption / split-transaction features.
TESTBED_POINT = dict(
    arbiter=st.sampled_from(available_arbiters()),
    traffic=st.sampled_from(sorted(TRAFFIC_CLASSES)),
    weights=weights(),
    max_burst=st.integers(min_value=1, max_value=16),
    preemptive=st.booleans(),
    split_transactions=st.booleans(),
    setup_wait_states=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)

def points(**fields):
    """Test-bed :class:`~repro.experiments.system.Point` objects built
    from :data:`TESTBED_POINT`'s arbiter, traffic, weights, max_burst
    and seed strategies, with short runs; a keyword replaces a field's
    strategy (e.g. ``arbiter=st.just("tdma")``)."""
    strategies = dict(
        arbiter=TESTBED_POINT["arbiter"],
        traffic=TESTBED_POINT["traffic"],
        weights=TESTBED_POINT["weights"],
        max_burst=TESTBED_POINT["max_burst"],
        seed=TESTBED_POINT["seed"],
        cycles=st.integers(min_value=200, max_value=2_000),
        warmup=st.integers(min_value=0, max_value=200),
    )
    strategies.update(fields)
    return st.builds(Point, **strategies)


#: One retry policy and fault plan (see :mod:`repro.faults`).
FAULT_PLAN = dict(
    max_retries=st.integers(min_value=0, max_value=3),
    timeout=st.one_of(st.none(), st.integers(min_value=8, max_value=200)),
    backoff_base=st.integers(min_value=1, max_value=32),
    word_error_rate=st.sampled_from([0.0, 0.01, 0.05]),
    grant_drop_rate=st.sampled_from([0.0, 0.02]),
    slave_stall_rate=st.sampled_from([0.0, 0.02]),
)
