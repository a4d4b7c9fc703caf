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

from repro.experiments.system import TestbedResult, run_testbed
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


def run_testbed_batch(points, strict=True, block_size=32):
    """Run many test-bed points, batched; returns a :class:`BatchRun`.

    :param points: :class:`~repro.experiments.system.Point` objects.
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
    points = list(points)
    groups = {}
    fallbacks = []
    for index, point in enumerate(points):
        label = "{}/{}/seed{}".format(point.arbiter, point.traffic, point.seed)
        try:
            plan = plan_lane(point.build, label=label)
        except UnsupportedConfigError as exc:
            fallbacks.append((index, label, str(exc)))
            continue
        key = (point.num_masters, point.warmup, point.cycles)
        groups.setdefault(key, []).append((index, point, plan))

    results = [None] * len(points)
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
        for lane, (index, point, _) in enumerate(members):
            result = TestbedResult(
                point.arbiter, point.traffic, point.weights,
                engine.lane_summary(lane),
            )
            result.backend = "vector"
            results[index] = result
    for index, _, _ in fallbacks:
        point = points[index]
        # Through this module's run_testbed, once per fallback point.
        result = run_testbed(
            point.arbiter, point.traffic, point.weights,
            cycles=point.cycles, seed=point.seed,
            max_burst=point.max_burst, num_masters=point.num_masters,
            warmup=point.warmup, **dict(point.kwargs)
        )
        result.backend = "scalar"
        results[index] = result
    return BatchRun(results, fallbacks, len(groups), checked_labels)
