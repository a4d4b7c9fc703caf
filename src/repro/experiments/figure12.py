"""Figure 12: performance across the communication traffic space.

(a) LOTTERYBUS bandwidth allocation for nine traffic classes, tickets
    1:2:3:4 — under saturating classes the allocation tracks tickets;
    under sparse classes most requests get immediate grants and the
    allocation tracks offered load instead.
(b) TDMA latency surface: classes T1-T6 x slot holdings 1..4.
(c) LOTTERYBUS latency surface: classes T1-T6 x ticket holdings 1..4.
"""

from repro.experiments.system import Point
from repro.metrics.report import format_stacked_percentages, format_table
from repro.traffic.classes import TRAFFIC_CLASSES

BANDWIDTH_CLASSES = tuple(sorted(TRAFFIC_CLASSES))
LATENCY_CLASSES = ("T1", "T2", "T3", "T4", "T5", "T6")


class Figure12aResult:
    """Per-class bandwidth fractions plus unutilized bandwidth."""

    def __init__(self, class_names, fractions, weights):
        self.class_names = class_names
        self.fractions = fractions
        self.weights = list(weights)

    def unutilized(self, index):
        return max(0.0, 1.0 - sum(self.fractions[index]))

    def share_ratios(self, index):
        """Observed shares normalized so the smallest weight maps to 1."""
        row = self.fractions[index]
        busy = sum(row)
        if busy == 0:
            return [0.0] * len(row)
        base = row[self.weights.index(min(self.weights))] / busy
        if base == 0:
            return [0.0] * len(row)
        return [share / busy / base for share in row]

    def format_report(self):
        rows = []
        for i, name in enumerate(self.class_names):
            row = self.fractions[i]
            rows.append(
                [name]
                + ["{:.1%}".format(v) for v in row]
                + ["{:.1%}".format(self.unutilized(i))]
            )
        table = format_table(
            ["class"] + ["C{}".format(i + 1) for i in range(4)] + ["unused"],
            rows,
            title=(
                "Figure 12(a): LOTTERYBUS bandwidth allocation, tickets "
                + ":".join(str(w) for w in self.weights)
            ),
        )
        series = {
            "C{}".format(master + 1): [row[master] for row in self.fractions]
            for master in range(4)
        }
        series["unused"] = [
            self.unutilized(i) for i in range(len(self.class_names))
        ]
        chart = format_stacked_percentages(
            self.class_names, series, width=50,
            title="(stacked to 100%, as the paper draws it)",
        )
        return table + "\n\n" + chart


def _bandwidth_fractions(point):
    """One traffic class's bandwidth fractions (pool fan-out unit)."""
    return point.run().bandwidth_fractions


def run_figure12a(cycles=200_000, seed=1, weights=(1, 2, 3, 4), jobs=None):
    """Bandwidth allocation across all nine classes.

    Each class is an independent simulation, so ``jobs`` > 1 spreads
    the classes over the worker pool; fractions keep class order and
    the result is identical to the serial run.
    """
    from repro.experiments.supervisor import pool_map

    points = [
        Point("lottery-static", name, weights, cycles=cycles, seed=seed)
        for name in BANDWIDTH_CLASSES
    ]
    fractions = pool_map(
        _bandwidth_fractions, [(point,) for point in points], jobs=jobs
    )
    return Figure12aResult(list(BANDWIDTH_CLASSES), fractions, weights)


class Figure12LatencyResult:
    """A latency surface: classes x weight levels, for one architecture."""

    def __init__(self, architecture, class_names, weights, surface):
        self.architecture = architecture
        self.class_names = class_names
        self.weights = list(weights)
        self.surface = surface  # surface[class_index][master_index]

    def latency(self, class_name, weight):
        row = self.surface[self.class_names.index(class_name)]
        return row[self.weights.index(weight)]

    def format_report(self):
        rows = []
        for name, row in zip(self.class_names, self.surface):
            rows.append([name] + ["{:.2f}".format(v) for v in row])
        return format_table(
            ["class"] + ["{} slot/ticket".format(w) for w in self.weights],
            rows,
            title="Figure 12: per-word latency surface under " + self.architecture,
        )


def _latencies(point):
    """One (architecture, class) latency row (pool fan-out unit)."""
    return point.run().latencies_per_word


def run_figure12_latency(
    architecture,
    cycles=400_000,
    seed=1,
    weights=(1, 2, 3, 4),
    class_names=LATENCY_CLASSES,
    jobs=None,
    **arbiter_kwargs
):
    """One latency surface (Figure 12(b) for TDMA, 12(c) for lottery).

    :param architecture: ``"tdma"`` or ``"lottery-static"`` (any registry
        name works); extra kwargs reach the arbiter (e.g. ``reclaim``).
    :param jobs: fan the per-class simulations over the worker pool;
        the surface keeps class order, identical to the serial run.
    """
    from repro.experiments.supervisor import pool_map

    points = [
        Point(architecture, name, weights, cycles=cycles, seed=seed,
              kwargs=arbiter_kwargs)
        for name in class_names
    ]
    surface = pool_map(
        _latencies, [(point,) for point in points], jobs=jobs
    )
    return Figure12LatencyResult(
        architecture, list(class_names), weights, surface
    )
