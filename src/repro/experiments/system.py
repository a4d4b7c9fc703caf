"""The 4-master/4-slave performance-evaluation test-bed (Figure 11).

All test-bed experiments share one entry point, :func:`run_testbed`:
build the single-bus system of Figure 3/11, attach a traffic class's
generators, install the arbiter under evaluation, run, and return the
bus metrics summary.
"""

import itertools

from repro.arbiters.registry import make_arbiter
from repro.bus.topology import build_single_bus_system
from repro.traffic.classes import get_traffic_class

DEFAULT_NUM_MASTERS = 4
DEFAULT_CYCLES = 200_000
DEFAULT_MAX_BURST = 16


class TestbedResult:
    """Metrics of one test-bed run."""

    def __init__(self, arbiter_name, traffic_class, weights, summary):
        self.arbiter_name = arbiter_name
        self.traffic_class = traffic_class
        self.weights = list(weights)
        self.summary = summary

    @property
    def bandwidth_fractions(self):
        return self.summary["bandwidth_fractions"]

    @property
    def bandwidth_shares(self):
        return self.summary["bandwidth_shares"]

    @property
    def latencies_per_word(self):
        return self.summary["latencies_per_word"]

    @property
    def utilization(self):
        return self.summary["utilization"]

    def __repr__(self):
        return "TestbedResult({}, {}, weights={})".format(
            self.arbiter_name, self.traffic_class, self.weights
        )


def make_testbed_arbiter(arbiter_name, num_masters, weights, bus_max_burst,
                         **arbiter_kwargs):
    """The arbiter for a test-bed whose bus moves ``bus_max_burst`` words
    per grant at most.

    The compensated lottery's quantum must match the bus's for its
    inflation to be exact, so unless ``arbiter_kwargs`` sets
    ``max_burst``, it is ``bus_max_burst``.
    """
    if arbiter_name == "lottery-compensated":
        arbiter_kwargs.setdefault("max_burst", bus_max_burst)
    return make_arbiter(arbiter_name, num_masters, weights, **arbiter_kwargs)


def run_testbed(
    arbiter_name,
    traffic_class_name,
    weights,
    cycles=DEFAULT_CYCLES,
    seed=1,
    max_burst=DEFAULT_MAX_BURST,
    num_masters=DEFAULT_NUM_MASTERS,
    warmup=0,
    **arbiter_kwargs
):
    """Run one (arbiter, traffic class, weights) point of the test-bed.

    :param arbiter_name: a name accepted by
        :func:`repro.arbiters.registry.make_arbiter`.
    :param traffic_class_name: ``"T1"``..``"T9"``.
    :param weights: per-master importance (priorities / slots / tickets).
    :param cycles: measured simulation cycles.
    :param seed: root RNG seed for the traffic generators.
    :param max_burst: most words the bus moves per grant (see
        :func:`make_testbed_arbiter`).
    :param warmup: cycles simulated (queues filling, wheel spinning)
        before metrics start accumulating.
    :param arbiter_kwargs: scheme-specific extras (e.g. ``reclaim``).
    """
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    traffic_class = get_traffic_class(traffic_class_name)
    arbiter = make_testbed_arbiter(
        arbiter_name, num_masters, weights, max_burst, **arbiter_kwargs
    )
    system, bus = build_single_bus_system(
        num_masters,
        arbiter,
        traffic_class.generator_factory(seed=seed),
        max_burst=max_burst,
    )
    if warmup:
        system.run(warmup)
        bus.metrics.reset()
    system.run(cycles)
    return TestbedResult(
        arbiter_name, traffic_class_name, weights, bus.metrics.summary()
    )


def weight_permutations(values=(1, 2, 3, 4)):
    """All assignments of ``values`` to masters, in the paper's order.

    The paper's x-axes enumerate "priority (ticket) assignments to
    C1-C4" lexicographically: ``1234`` means master 1 holds value 1,
    master 2 value 2, and so on.
    """
    return [list(p) for p in itertools.permutations(values)]


def permutation_label(perm):
    """``[2, 1, 4, 3]`` -> ``"2143"`` (the paper's x-axis tick format)."""
    return "".join(str(v) for v in perm)
