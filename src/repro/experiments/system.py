"""The 4-master/4-slave performance-evaluation test-bed (Figure 11).

A test-bed configuration is one :class:`Point`: build the single-bus
system of Figure 3/11, attach a traffic class's generators, install the
arbiter under evaluation, run, and return the bus metrics summary.
:func:`run_testbed` runs one point from loose arguments.
"""

import itertools

from repro.arbiters.registry import check_arbiter, make_arbiter
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


class Point:
    """One point of the test-bed (immutable): what :func:`run_testbed`
    runs, the vector engine plans as a lane and the surrogate scores.

    ``weights`` is held as a tuple and the arbiter's extra keywords
    (``kwargs``, a mapping or pairs) as a sorted tuple of pairs, so two
    points compare, hash and pickle by value.  A point is checked once,
    when it is made: an unknown arbiter or traffic class, an extra the
    arbiter's factory does not take, or a negative warmup raises
    :class:`ValueError`.

    :param max_burst: most words the bus moves per grant; the
        compensated lottery's quantum follows it (see :meth:`build`).
    :param warmup: cycles simulated (queues filling, wheel spinning)
        before metrics start accumulating.
    """

    __slots__ = ("arbiter", "traffic", "weights", "kwargs", "cycles",
                 "seed", "warmup", "max_burst", "num_masters")

    def __init__(self, arbiter, traffic, weights, cycles=DEFAULT_CYCLES,
                 seed=1, warmup=0, max_burst=DEFAULT_MAX_BURST,
                 num_masters=DEFAULT_NUM_MASTERS, kwargs=()):
        kwargs = dict(kwargs)
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        get_traffic_class(traffic)
        check_arbiter(arbiter, kwargs)
        init = object.__setattr__
        init(self, "arbiter", arbiter)
        init(self, "traffic", traffic)
        init(self, "weights", tuple(weights))
        init(self, "kwargs", tuple(sorted(kwargs.items())))
        init(self, "cycles", cycles)
        init(self, "seed", seed)
        init(self, "warmup", warmup)
        init(self, "max_burst", max_burst)
        init(self, "num_masters", num_masters)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __delattr__(self, name):
        raise AttributeError("Point is immutable")

    def _fields(self):
        return (self.arbiter, self.traffic, self.weights, self.cycles,
                self.seed, self.warmup, self.max_burst, self.num_masters,
                self.kwargs)

    def __reduce__(self):
        # Default slot unpickling restores fields through __setattr__.
        return (Point, self._fields())

    def __eq__(self, other):
        return isinstance(other, Point) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return ("Point({!r}, {!r}, {}, cycles={}, seed={}, warmup={}, "
                "max_burst={}, num_masters={}, kwargs={})").format(
                    *self._fields())

    def build(self):
        """A fresh ``(system, bus)`` for this point, not yet run.

        The compensated lottery's quantum must match the bus's for its
        inflation to be exact, so unless ``kwargs`` sets ``max_burst``,
        it is the point's ``max_burst``.
        """
        kwargs = dict(self.kwargs)
        if self.arbiter == "lottery-compensated":
            kwargs.setdefault("max_burst", self.max_burst)
        arbiter = make_arbiter(
            self.arbiter, self.num_masters, list(self.weights), **kwargs
        )
        # The module global, looked up at call time, so a wrapped
        # build_single_bus_system sees every test-bed system.
        return build_single_bus_system(
            self.num_masters,
            arbiter,
            get_traffic_class(self.traffic).generator_factory(seed=self.seed),
            max_burst=self.max_burst,
        )

    def run(self):
        """Build, warm up, run the measured cycles; a
        :class:`TestbedResult`."""
        system, bus = self.build()
        if self.warmup:
            system.run(self.warmup)
            bus.metrics.reset()
        system.run(self.cycles)
        return TestbedResult(
            self.arbiter, self.traffic, self.weights, bus.metrics.summary()
        )


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
    """Run one (arbiter, traffic class, weights) point of the test-bed:
    the :class:`Point` of these arguments, built and run.

    :param arbiter_name: a name accepted by
        :func:`repro.arbiters.registry.make_arbiter`.
    :param traffic_class_name: ``"T1"``..``"T9"``.
    :param weights: per-master importance (priorities / slots / tickets).
    :param cycles: measured simulation cycles.
    :param seed: root RNG seed for the traffic generators.
    :param max_burst: most words the bus moves per grant.
    :param warmup: cycles simulated (queues filling, wheel spinning)
        before metrics start accumulating.
    :param arbiter_kwargs: scheme-specific extras (e.g. ``reclaim``).
    """
    return Point(
        arbiter_name, traffic_class_name, weights, cycles=cycles, seed=seed,
        warmup=warmup, max_burst=max_burst, num_masters=num_masters,
        kwargs=arbiter_kwargs,
    ).run()


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
