"""Cross-validation of the surrogate against the simulator.

``validate_surrogate`` runs the real simulated sweep once over a grid
of (arbiter, traffic class) combinations, predicts every row with
:func:`repro.analytic.predict`, and reports three errors per
combination:

* ``share_error`` — max over masters of |predicted - simulated|
  bandwidth share (absolute);
* ``utilization_error`` — |predicted - simulated| bus utilization;
* ``latency_error`` — max over masters of the relative mean
  latency-per-word error, ``|pred - sim| / max(sim, 1)``.

The checked-in :data:`repro.analytic.bounds.ERROR_BOUNDS` were
calibrated from this driver at the pinned
:data:`~repro.analytic.bounds.CALIBRATION` settings (margin over the
worst observed error across seeds); the table-driven regression tests
and ``python -m repro.bench --analytic`` re-run it and fail on any
bound violation.

Run directly to recalibrate after a model change::

    python -m repro.analytic.validate --seeds 1 2 3 --margin 1.5
"""

import argparse
import sys

from repro.analytic.bounds import CALIBRATION, bound_for
from repro.analytic.model import predict, supported_arbiters
from repro.metrics.report import format_table


class ValidationReport:
    """Per-combination surrogate errors plus bound verdicts."""

    def __init__(self, rows, cycles, seed):
        self.rows = rows
        self.cycles = cycles
        self.seed = seed

    @property
    def violations(self):
        """Rows exceeding their checked-in bound (or missing one)."""
        return [row for row in self.rows if not row["within_bounds"]]

    @property
    def ok(self):
        return not self.violations

    def max_errors(self):
        """Worst observed error per metric across the grid."""
        return {
            "share": max(r["share_error"] for r in self.rows),
            "utilization": max(r["utilization_error"] for r in self.rows),
            "latency": max(r["latency_error"] for r in self.rows),
        }

    def format_report(self):
        table = []
        for row in self.rows:
            bound = row["bound"]
            table.append([
                row["arbiter"],
                row["traffic"],
                "{:.4f}".format(row["share_error"]),
                "{:.4f}".format(row["utilization_error"]),
                "{:.4f}".format(row["latency_error"]),
                (
                    "{:.3f}/{:.3f}/{:.3f}".format(
                        bound.share, bound.utilization, bound.latency
                    )
                    if bound is not None else "(none)"
                ),
                "ok" if row["within_bounds"] else "VIOLATED",
            ])
        return format_table(
            ["arbiter", "traffic", "share err", "util err", "lat err",
             "bound s/u/l", "verdict"],
            table,
            title="Surrogate cross-validation ({} cycles, seed {})".format(
                self.cycles, self.seed
            ),
        )


def _row_errors(predicted, simulated_row, num_masters=4):
    share_error = max(
        abs(
            predicted.bandwidth_shares[i]
            - simulated_row["share{}".format(i)]
        )
        for i in range(num_masters)
    )
    utilization_error = abs(
        predicted.utilization - simulated_row["utilization"]
    )
    latency_error = max(
        abs(
            predicted.latencies_per_word[i]
            - simulated_row["latency{}".format(i)]
        ) / max(simulated_row["latency{}".format(i)], 1.0)
        for i in range(num_masters)
    )
    return share_error, utilization_error, latency_error


def validate_surrogate(arbiters=None, traffic_classes=None, weights=None,
                       cycles=None, warmup=None, seed=1, backend="vector",
                       jobs=None):
    """Cross-validate predict() against one simulated sweep.

    Defaults run the full calibration grid — every supported arbiter
    family crossed with T1-T9 at the pinned CALIBRATION settings.
    Returns a :class:`ValidationReport`.
    """
    from repro.experiments.sweep import run_sweep

    arbiters = list(arbiters or supported_arbiters())
    traffic_classes = list(
        traffic_classes or CALIBRATION["traffic_classes"]
    )
    weights = tuple(weights or CALIBRATION["weights"])
    cycles = CALIBRATION["cycles"] if cycles is None else cycles
    warmup = CALIBRATION["warmup"] if warmup is None else warmup

    sweep = run_sweep(
        arbiters,
        traffic_classes,
        weights=weights,
        cycles=cycles,
        seed=seed,
        warmup=warmup,
        backend=backend,
        jobs=jobs,
    )
    rows = []
    for arbiter_name in arbiters:
        for traffic_name in traffic_classes:
            (simulated,) = sweep.filter(
                arbiter=arbiter_name, traffic=traffic_name
            )
            predicted = predict(
                arbiter_name, traffic_name, weights=weights,
                horizon=cycles,
            )
            share_err, util_err, lat_err = _row_errors(predicted, simulated)
            bound = bound_for(arbiter_name, traffic_name)
            within = bound is not None and (
                share_err <= bound.share
                and util_err <= bound.utilization
                and lat_err <= bound.latency
            )
            rows.append({
                "arbiter": arbiter_name,
                "traffic": traffic_name,
                "share_error": share_err,
                "utilization_error": util_err,
                "latency_error": lat_err,
                "bound": bound,
                "within_bounds": within,
                "predicted": predicted.row(),
                "simulated": simulated,
            })
    return ValidationReport(rows, cycles=cycles, seed=seed)


def _suggest_bounds(reports, margin, floors=(0.01, 0.01, 0.05)):
    """Worst observed error across reports, inflated by ``margin`` and
    floored — the literal table pasted into bounds.py."""
    worst = {}
    for report in reports:
        for row in report.rows:
            key = (row["arbiter"], row["traffic"])
            share, util, lat = worst.get(key, (0.0, 0.0, 0.0))
            worst[key] = (
                max(share, row["share_error"]),
                max(util, row["utilization_error"]),
                max(lat, row["latency_error"]),
            )
    lines = []
    for (arbiter, traffic), (share, util, lat) in sorted(worst.items()):
        lines.append(
            '    ("{}", "{}"): ErrorBound({:.3f}, {:.3f}, {:.3f}),'.format(
                arbiter, traffic,
                max(share * margin, floors[0]),
                max(util * margin, floors[1]),
                max(lat * margin, floors[2]),
            )
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analytic.validate",
        description="Cross-validate the analytic surrogate against the "
        "simulator and (optionally) suggest recalibrated bounds.",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[CALIBRATION["seed"]],
        help="root seeds to validate at (default: the calibration seed)",
    )
    parser.add_argument(
        "--cycles", type=int, default=None,
        help="simulated cycles per point (default: calibration setting)",
    )
    parser.add_argument(
        "--backend", choices=("scalar", "vector"), default="vector",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the simulated sweep",
    )
    parser.add_argument(
        "--suggest-bounds", action="store_true",
        help="print an ERROR_BOUNDS table from the observed errors",
    )
    parser.add_argument(
        "--margin", type=float, default=1.5,
        help="bound inflation over the worst observed error "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    reports = []
    for seed in args.seeds:
        report = validate_surrogate(
            cycles=args.cycles, seed=seed, backend=args.backend,
            jobs=args.jobs,
        )
        reports.append(report)
        print(report.format_report())
        print()
    if args.suggest_bounds:
        print("# Suggested ERROR_BOUNDS (margin {}x):".format(args.margin))
        print(_suggest_bounds(reports, args.margin))
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
