"""Batch execution backend for test-bed experiments.

:func:`run_testbed_batch` is the drop-in counterpart of
:func:`repro.experiments.system.run_testbed` for *many* points at once:
every point that the batch engine supports becomes a lane, lanes with
the same shape (master count, warmup, measured cycles) share one
:class:`~repro.vector.engine.VectorEngine`, and unsupported points fall
back to the scalar simulator per point — callers always get a full
result list, never a partial one.

With ``strict=True`` (the default) every engine group cross-checks its
middle lane against a freshly built scalar twin on the dense simulator
and raises :class:`~repro.vector.lanes.VectorDivergenceError` on any
metric or arbiter-state mismatch — the batch analogue of the kernel's
strict mode.
"""

from repro.bus.topology import build_single_bus_system
from repro.experiments.system import (
    DEFAULT_CYCLES,
    DEFAULT_MAX_BURST,
    DEFAULT_NUM_MASTERS,
    TestbedResult,
    make_testbed_arbiter,
    run_testbed,
)
from repro.traffic.classes import get_traffic_class
from repro.vector.engine import VectorEngine
from repro.vector.lanes import UnsupportedConfigError, plan_lane


class BatchRun:
    """Results plus execution stats for one :func:`run_testbed_batch`."""

    __slots__ = ("results", "fallbacks", "groups", "checked_labels")

    def __init__(self, results, fallbacks, groups, checked_labels):
        self.results = results            # TestbedResult per input point
        self.fallbacks = fallbacks        # [(index, label, reason), ...]
        self.groups = groups              # number of engine groups run
        self.checked_labels = checked_labels  # cross-checked lane labels

    @property
    def vector_points(self):
        return len(self.results) - len(self.fallbacks)

    @property
    def scalar_points(self):
        return len(self.fallbacks)


def make_testbed_builder(
    arbiter_name,
    traffic_class_name,
    weights,
    seed=1,
    max_burst=DEFAULT_MAX_BURST,
    num_masters=DEFAULT_NUM_MASTERS,
    arbiter_kwargs=None,
):
    """A zero-argument builder producing the exact ``run_testbed`` system.

    Called once at plan time (the lane adopts that build's RNG streams
    and arbiter state) and again by the strict verifier to construct an
    untouched scalar twin.
    """
    traffic_class = get_traffic_class(traffic_class_name)
    kwargs = dict(arbiter_kwargs or {})

    def build():
        arbiter = make_testbed_arbiter(
            arbiter_name, num_masters, weights, max_burst, **kwargs
        )
        return build_single_bus_system(
            num_masters,
            arbiter,
            traffic_class.generator_factory(seed=seed),
            max_burst=max_burst,
        )

    return build


def _normalize_point(point):
    point = dict(point)
    spec = {
        "arbiter_name": point.pop("arbiter_name"),
        "traffic_class_name": point.pop("traffic_class_name"),
        "weights": list(point.pop("weights")),
        "cycles": point.pop("cycles", DEFAULT_CYCLES),
        "seed": point.pop("seed", 1),
        "max_burst": point.pop("max_burst", DEFAULT_MAX_BURST),
        "num_masters": point.pop("num_masters", DEFAULT_NUM_MASTERS),
        "warmup": point.pop("warmup", 0),
        "arbiter_kwargs": dict(point.pop("arbiter_kwargs", {})),
    }
    if point:
        raise TypeError(
            "unknown batch point keys: {}".format(sorted(point))
        )
    return spec


def _point_label(spec):
    return "{}/{}/seed{}".format(
        spec["arbiter_name"], spec["traffic_class_name"], spec["seed"]
    )


def _scalar_point(spec):
    return run_testbed(
        spec["arbiter_name"],
        spec["traffic_class_name"],
        list(spec["weights"]),
        cycles=spec["cycles"],
        seed=spec["seed"],
        max_burst=spec["max_burst"],
        num_masters=spec["num_masters"],
        warmup=spec["warmup"],
        **spec["arbiter_kwargs"]
    )


def run_testbed_batch(points, strict=True, block_size=32):
    """Run many test-bed points, batched; returns a :class:`BatchRun`.

    :param points: dicts with :func:`run_testbed`-shaped keys
        (``arbiter_name``, ``traffic_class_name``, ``weights``, and
        optionally ``cycles``/``seed``/``max_burst``/``num_masters``/
        ``warmup``/``arbiter_kwargs``).
    :param strict: cross-check one sampled lane per engine group against
        the dense scalar simulator (raises
        :class:`~repro.vector.lanes.VectorDivergenceError` on any
        divergence).
    :param block_size: LFSR samples pre-drawn per refill block.

    Unsupported *configurations* never raise — those points silently
    run on the scalar engine (see ``BatchRun.fallbacks`` for which, and
    why).  Results carry a ``backend`` attribute
    (``"vector"`` or ``"scalar"``) and are bit-identical either way.
    """
    specs = [_normalize_point(point) for point in points]
    groups = {}
    fallbacks = []
    for index, spec in enumerate(specs):
        builder = make_testbed_builder(
            spec["arbiter_name"],
            spec["traffic_class_name"],
            list(spec["weights"]),
            seed=spec["seed"],
            max_burst=spec["max_burst"],
            num_masters=spec["num_masters"],
            arbiter_kwargs=spec["arbiter_kwargs"],
        )
        label = _point_label(spec)
        try:
            plan = plan_lane(builder, label=label)
        except UnsupportedConfigError as exc:
            fallbacks.append((index, label, str(exc)))
            continue
        key = (spec["num_masters"], spec["warmup"], spec["cycles"])
        groups.setdefault(key, []).append((index, spec, plan))

    results = [None] * len(specs)
    checked_labels = []
    for (_, warmup, cycles), members in groups.items():
        engine = VectorEngine(
            [plan for _, _, plan in members], block_size=block_size
        )
        if warmup:
            engine.run(warmup)
            engine.reset_metrics()
        engine.run(cycles)
        if strict:
            lane = len(members) // 2
            engine.cross_check(lane)
            checked_labels.append(members[lane][2].label)
        for lane, (index, spec, _) in enumerate(members):
            result = TestbedResult(
                spec["arbiter_name"],
                spec["traffic_class_name"],
                spec["weights"],
                engine.lane_summary(lane),
            )
            result.backend = "vector"
            results[index] = result
    for index, _, _ in fallbacks:
        result = _scalar_point(specs[index])
        result.backend = "scalar"
        results[index] = result
    return BatchRun(results, fallbacks, len(groups), checked_labels)
