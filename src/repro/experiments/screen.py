"""Two-tier screened sweeps: surrogate scores, simulator confirms.

The design-space-exploration loop the analytic surrogate exists for:
score the *full* configuration grid with :func:`repro.analytic.score_grid`
(microseconds per point), keep every configuration whose optimistic
score could still land in the simulated top-``k`` given the checked-in
surrogate error bounds, then confirm only those survivors on the real
simulator.  Confirmed rows are produced by exactly the code path
:func:`repro.experiments.run_sweep` uses — same per-point seeds, same
backends — so a screened sweep's rows are bit-identical to the rows an
exhaustive sweep would have produced for the same configurations.

The screening rule is conservative, not heuristic: with per-combination
uncertainty band ``delta`` (from :mod:`repro.analytic.bounds`, scaled by
``band_scale``), the threshold ``tau`` is the ``k``-th smallest
*pessimistic* score (``score + delta``) and every configuration whose
*optimistic* score (``score - delta``) is at most ``tau`` survives.  If
the bounds hold, the survivor set is a superset of the true simulated
top-``k``, so the confirmed frontier equals the exhaustive frontier.
Configurations the surrogate cannot model (unsupported arbiters, mixed
open/closed traffic, missing bounds) are never screened out — they go
straight to simulation.
"""

from repro.experiments.sweep import SweepResult, point_seed, sweep_rows
from repro.experiments.system import Point
from repro.metrics.report import format_table

#: Screening objectives (all minimized; the ``-`` entries are
#: maximizations in disguise).
OBJECTIVES = ("worst_latency", "mean_latency", "utilization", "min_share")

_MASTERS = 4


def _objective(objective, utilization, shares, latencies):
    """The scalar score (lower is better) of one configuration."""
    if objective == "worst_latency":
        return max(latencies)
    if objective == "mean_latency":
        return sum(latencies) / len(latencies)
    if objective == "utilization":
        return -utilization
    if objective == "min_share":
        return -min(shares)
    raise ValueError(
        "objective must be one of {}, got {!r}".format(
            OBJECTIVES, objective
        )
    )


def _objective_band(objective, bound, latencies, band_scale):
    """Half-width of the uncertainty band around the predicted score.

    Latency bounds are relative to ``max(simulated, 1)`` cycles per
    word; bounding the simulated value by the predicted one inside the
    band keeps the arithmetic conservative enough for screening.
    """
    if bound is None:
        return None
    if objective in ("worst_latency", "mean_latency"):
        return band_scale * bound.latency * max(1.0, max(latencies))
    if objective == "utilization":
        return band_scale * bound.utilization
    return band_scale * bound.share


def _row_score(objective, row):
    shares = [row["share{}".format(i)] for i in range(_MASTERS)]
    latencies = [row["latency{}".format(i)] for i in range(_MASTERS)]
    return _objective(objective, row["utilization"], shares, latencies)


class ScreenedSweepResult:
    """Outcome of one two-tier sweep.

    ``result`` holds the confirmed (simulated) rows as a plain
    :class:`~repro.experiments.sweep.SweepResult`; ``frontier`` is its
    simulated top-``k`` by the screening objective; ``candidates`` is
    the surrogate's view of the full grid (one dict per configuration:
    its :class:`~repro.experiments.system.Point`, predicted score, band
    and survivor flag); ``funnel`` counts the stages.
    """

    def __init__(self, result, frontier, candidates, funnel, objective,
                 top_k, threshold):
        self.result = result
        self.frontier = frontier
        self.candidates = candidates
        self.funnel = funnel
        self.objective = objective
        self.top_k = top_k
        self.threshold = threshold

    def format_report(self):
        table_rows = []
        for row in self.frontier:
            table_rows.append(
                [
                    row["arbiter"],
                    row["traffic"],
                    row["weights"],
                    "{:.4g}".format(_row_score(self.objective, row)),
                    "{:.2f}".format(row["utilization"]),
                    "/".join(
                        "{:.2f}".format(row["share{}".format(i)])
                        for i in range(_MASTERS)
                    ),
                ]
            )
        table = format_table(
            ["arbiter", "traffic", "weights", self.objective, "util",
             "shares"],
            table_rows,
            title="Screened sweep frontier (top {} by {})".format(
                self.top_k, self.objective
            ),
        )
        funnel = self.funnel
        return table + (
            "\nfunnel: {scored} scored -> {survivors} survivors "
            "({screened_out} screened out, {conservative} sent "
            "straight to simulation) -> {confirmed} confirmed\n".format(
                **funnel
            )
        )


def run_screened_sweep(
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
    objective="worst_latency",
    top_k=8,
    band_scale=1.0,
):
    """Score the grid analytically, simulate only the survivors.

    Accepts everything :func:`repro.experiments.run_sweep` does plus
    the screening controls; ``weights`` may be a single weight vector
    or a list of vectors (the grid is then the full cross product).

    :param objective: one of :data:`OBJECTIVES`; scores are minimized
        (``utilization`` / ``min_share`` maximize via negation).
    :param top_k: frontier size the screen must preserve.
    :param band_scale: multiplier on the checked-in error bounds.  The
        bounds were calibrated at the
        :data:`repro.analytic.CALIBRATION` settings; shorter, noisier
        runs deserve ``band_scale > 1``.
    :returns: a :class:`ScreenedSweepResult` whose confirmed rows are
        bit-identical to the same configurations' rows from
        :func:`~repro.experiments.run_sweep`.
    """
    # Imported lazily, so importing repro.experiments does not load the
    # surrogate.
    from repro.analytic import bound_for, check_config, score_grid

    if objective not in OBJECTIVES:
        raise ValueError(
            "objective must be one of {}, got {!r}".format(
                OBJECTIVES, objective
            )
        )
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    arbiter_kwargs = arbiter_kwargs or {}
    weight_rows = list(weights)
    if weight_rows and not hasattr(weight_rows[0], "__len__"):
        weight_rows = [weight_rows]

    # Tier 1: surrogate scores for the full grid.  A point the surrogate
    # cannot model, or has no error bound for, is conservative and
    # survives unconditionally.
    candidates = []
    scorable = []
    for arbiter_name in arbiters:
        for traffic_name in traffic_classes:
            bound = bound_for(arbiter_name, traffic_name)
            for weight_row in weight_rows:
                point = Point(
                    arbiter_name, traffic_name, weight_row, cycles=cycles,
                    seed=point_seed(
                        seed, arbiter_name, traffic_name, seed_mode
                    ),
                    warmup=warmup,
                    kwargs=arbiter_kwargs.get(arbiter_name, {}),
                )
                try:
                    check_config(point)
                    conservative = bound is None
                except ValueError:
                    conservative = True
                candidate = {
                    "point": point,
                    "predicted": None,
                    "score": None,
                    "band": None,
                    "conservative": conservative,
                    "survivor": False,
                }
                if not candidate["conservative"]:
                    scorable.append((candidate, bound))
                candidates.append(candidate)
    if scorable:
        predictions = score_grid(
            [candidate["point"] for candidate, _ in scorable],
            horizon=cycles,
        )
        for (candidate, bound), predicted in zip(scorable, predictions):
            candidate["predicted"] = predicted
            candidate["score"] = _objective(
                objective,
                predicted.utilization,
                predicted.bandwidth_shares,
                predicted.latencies_per_word,
            )
            candidate["band"] = _objective_band(
                objective, bound, predicted.latencies_per_word, band_scale
            )

    # Tier 1.5: the pessimistic-threshold rule.
    scored = [c for c in candidates if c["score"] is not None]
    threshold = None
    if scored:
        pessimistic = sorted(c["score"] + c["band"] for c in scored)
        threshold = pessimistic[min(top_k, len(pessimistic)) - 1]
        for candidate in scored:
            optimistic = candidate["score"] - candidate["band"]
            candidate["survivor"] = optimistic <= threshold
    for candidate in candidates:
        if candidate["conservative"]:
            candidate["survivor"] = True

    # Tier 2: confirm the survivors' own points through run_sweep's
    # exact machinery.
    survivors = [c for c in candidates if c["survivor"]]
    rows = sweep_rows([c["point"] for c in survivors], backend, jobs=jobs)

    frontier = sorted(rows, key=lambda row: _row_score(objective, row))
    frontier = frontier[:top_k]
    funnel = {
        "scored": len(candidates),
        "screened_out": len(candidates) - len(survivors),
        "survivors": len(survivors),
        "conservative": sum(
            1 for c in candidates if c["conservative"]
        ),
        "confirmed": len(rows),
    }
    return ScreenedSweepResult(
        result=SweepResult(rows),
        frontier=frontier,
        candidates=candidates,
        funnel=funnel,
        objective=objective,
        top_k=top_k,
        threshold=threshold,
    )
