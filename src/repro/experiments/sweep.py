"""Generic experiment sweeps over the test-bed with CSV export.

A downstream user's workhorse: cross a set of arbiters with traffic
classes (and optionally weight vectors), run every combination, and get
the results as rows ready for a spreadsheet or pandas — the expanded
version of Section 5.1's study.

Each point of the cross product derives its own independent seed with
:func:`repro.sim.rng.child_seed` (``seed_mode="derived"``), so adjacent
points never share generator streams; ``seed_mode="shared"`` is the
compatibility shim reproducing the historical behaviour of feeding one
root seed to every point.  Points are pure functions of their row, so
``jobs`` > 1 fans them over the persistent worker pool with rows (and
seeds) identical to the serial run.
"""

import csv
import io

from repro.experiments.system import Point
from repro.ioutil import atomic_write
from repro.metrics.report import format_table
from repro.sim.rng import child_seed

SEED_MODES = ("derived", "shared")


class SweepResult:
    """Rows of (arbiter, traffic, weights, metrics...)."""

    COLUMNS = (
        "arbiter",
        "traffic",
        "weights",
        "utilization",
        "share0",
        "share1",
        "share2",
        "share3",
        "latency0",
        "latency1",
        "latency2",
        "latency3",
    )

    def __init__(self, rows):
        self.rows = rows

    def _known(self, column):
        seen = []
        for row in self.rows:
            if row[column] not in seen:
                seen.append(row[column])
        return seen

    def filter(self, arbiter=None, traffic=None):
        """Rows matching the given arbiter and/or traffic class.

        A name this sweep never ran raises :class:`KeyError` listing
        the names it did — a typo'd arbiter should fail loudly, not
        masquerade as an empty result set.
        """
        if arbiter is not None:
            known = self._known("arbiter")
            if arbiter not in known:
                raise KeyError(
                    "unknown arbiter {!r}; this sweep has: {}".format(
                        arbiter, ", ".join(known) or "(no rows)"
                    )
                )
        if traffic is not None:
            known = self._known("traffic")
            if traffic not in known:
                raise KeyError(
                    "unknown traffic class {!r}; this sweep has: "
                    "{}".format(traffic, ", ".join(known) or "(no rows)")
                )
        out = []
        for row in self.rows:
            if arbiter is not None and row["arbiter"] != arbiter:
                continue
            if traffic is not None and row["traffic"] != traffic:
                continue
            out.append(row)
        return out

    def value(self, arbiter, traffic, column):
        rows = self.filter(arbiter=arbiter, traffic=traffic)
        if len(rows) != 1:
            raise KeyError(
                "expected one row for ({}, {}), found {}".format(
                    arbiter, traffic, len(rows)
                )
            )
        row = rows[0]
        if column not in row:
            raise KeyError(
                "unknown column {!r}; sweep rows have: {}".format(
                    column, ", ".join(self.COLUMNS)
                )
            )
        return row[column]

    def save_csv(self, path):
        # Render in memory, then land the whole file atomically — a
        # killed export leaves the previous CSV intact, never half the
        # rows.
        buffer = io.StringIO(newline="")
        writer = csv.DictWriter(buffer, fieldnames=self.COLUMNS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        atomic_write(path, buffer.getvalue())

    def format_report(self):
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row["arbiter"],
                    row["traffic"],
                    row["weights"],
                    "{:.2f}".format(row["utilization"]),
                    "/".join(
                        "{:.2f}".format(row["share{}".format(i)])
                        for i in range(4)
                    ),
                    "/".join(
                        "{:.1f}".format(row["latency{}".format(i)])
                        for i in range(4)
                    ),
                ]
            )
        return format_table(
            ["arbiter", "traffic", "weights", "util", "shares", "lat/word"],
            table_rows,
            title="Test-bed sweep",
        )


def point_seed(seed, arbiter_name, traffic_name, seed_mode="derived"):
    """The seed one (arbiter, traffic) point actually runs with."""
    if seed_mode == "derived":
        return child_seed(seed, arbiter_name, traffic_name)
    if seed_mode == "shared":
        return seed
    raise ValueError(
        "seed_mode must be one of {}, got {!r}".format(SEED_MODES, seed_mode)
    )


def sweep_row(arbiter, traffic, weights, result):
    """One result flattened into a sweep row dict: ``result`` is a
    :class:`~repro.experiments.system.TestbedResult` or a surrogate
    :class:`~repro.analytic.AnalyticResult`."""
    row = {
        "arbiter": arbiter,
        "traffic": traffic,
        "weights": ":".join(str(w) for w in weights),
        "utilization": result.utilization,
    }
    for master, share in enumerate(result.bandwidth_shares):
        row["share{}".format(master)] = share
    for master, latency in enumerate(result.latencies_per_word):
        row["latency{}".format(master)] = latency
    return row


def _point_row(point):
    """One point run as a plain row dict (pool fan-out unit)."""
    return sweep_row(point.arbiter, point.traffic, point.weights, point.run())


BACKENDS = ("scalar", "vector")


def batch_results(points, backend):
    """The vector engine's TestbedResult per
    :class:`~repro.experiments.system.Point`, or ``None`` for the scalar
    backend (the caller then runs the points itself); an unknown
    ``backend`` raises :class:`ValueError`.
    """
    if backend not in BACKENDS:
        raise ValueError(
            "backend must be one of {}, got {!r}".format(BACKENDS, backend)
        )
    if backend == "scalar":
        return None
    # Looked up on repro.vector at call time, so wrapping that module's
    # attribute (profilers, the end-to-end benchmark's tracer) sees it.
    from repro.vector import run_testbed_batch

    return run_testbed_batch(points).results


def sweep_rows(points, backend, jobs=None):
    """Row dicts for sweep ``points`` on ``backend`` (see
    :func:`batch_results`); ``jobs`` fans the scalar path over the
    worker pool."""
    from repro.experiments.supervisor import pool_map

    results = batch_results(points, backend)
    if results is None:
        return pool_map(_point_row, [(point,) for point in points],
                        jobs=jobs)
    return [
        sweep_row(point.arbiter, point.traffic, point.weights, result)
        for point, result in zip(points, results)
    ]


def run_sweep(
    arbiters,
    traffic_classes,
    weights=(1, 2, 3, 4),
    cycles=50_000,
    seed=1,
    warmup=0,
    arbiter_kwargs=None,
    seed_mode="derived",
    jobs=None,
    backend="scalar",
):
    """Run the full cross product; returns a :class:`SweepResult`.

    :param arbiters: iterable of registry names.
    :param traffic_classes: iterable of class names (``"T1"``..``"T9"``).
    :param weights: one weight vector applied to every combination.
    :param arbiter_kwargs: optional per-arbiter extras,
        ``{arbiter_name: {kwarg: value}}``.
    :param seed_mode: ``"derived"`` (default) gives every point an
        independent :func:`~repro.sim.rng.child_seed`; ``"shared"`` is
        the legacy shim feeding the root seed to every point.
    :param jobs: fan points over the worker pool (``None``/1 = inline);
        row order and values are independent of ``jobs``.
    :param backend: ``"scalar"`` (default) runs every point on the
        scalar simulator; ``"vector"`` batches supported points through
        the struct-of-arrays engine (:mod:`repro.vector`).  Rows are
        bit-identical across backends (the vector engine falls back per
        point for configs it does not model); ``jobs`` only applies to
        the scalar path.
    """
    arbiter_kwargs = arbiter_kwargs or {}
    points = [
        Point(
            arbiter_name, traffic_name, weights, cycles=cycles,
            seed=point_seed(seed, arbiter_name, traffic_name, seed_mode),
            warmup=warmup, kwargs=arbiter_kwargs.get(arbiter_name, {}),
        )
        for arbiter_name in arbiters
        for traffic_name in traffic_classes
    ]
    return SweepResult(sweep_rows(points, backend, jobs=jobs))
