"""The surrogate's public API: :func:`predict` one configuration.

``predict`` maps (arbiter, traffic class, weights) to the same
quantities one sweep row reports — bus utilization, per-master
bandwidth shares and mean latency per word — plus latency percentiles,
without running a single simulated cycle.  A configuration costs a few
microseconds (traffic moments are memoized), which is what makes
million-point screening viable; see
:func:`repro.experiments.run_screened_sweep`.
"""

import math

from repro.analytic.families import build_family
from repro.analytic.solver import solve_closed, solve_open
from repro.analytic.traffic_model import traffic_profiles
from repro.experiments.sweep import sweep_row
from repro.experiments.system import Point

# Latency percentiles reported by every prediction.  The waiting time
# is modeled as exponential around its mean (lottery round losses are
# geometric; TDMA phase waits are not, which the bounds absorb).
PERCENTILES = (0.50, 0.95, 0.99)

#: Arbiter registry names the surrogate has a model for.
_SUPPORTED = (
    "lottery-static",
    "lottery-dynamic",
    "lottery-compensated",
    "static-priority",
    "tdma",
    "round-robin",
)

# Arbiter kwargs predict() understands; anything else would silently
# change the simulator's behaviour without changing the prediction, so
# unknown kwargs are an error, not a guess.
_KNOWN_KWARGS = {
    "lottery-static": {"scale", "draw_policy", "lfsr_seed"},
    "lottery-dynamic": {"lfsr_seed"},
    "lottery-compensated": {"cap", "lfsr_seed"},
    "static-priority": set(),
    "round-robin": set(),
    "tdma": {"reclaim"},
}


class UnsupportedArbiterError(ValueError):
    """Raised for arbiters without an analytic model."""


def supported_arbiters():
    """Registry names :func:`predict` accepts."""
    return list(_SUPPORTED)


_RECLAIMS = ("scan", "single", "none")


def check_config(point):
    """Validate one :class:`~repro.experiments.system.Point` for the
    surrogate and return its traffic profiles.

    The surrogate's single support check: :func:`predict`,
    :func:`repro.analytic.batch.score_grid` and the screened sweep all
    reject exactly the same points with the same messages
    (:class:`UnsupportedArbiterError` for an arbiter without a model,
    :class:`ValueError` for anything else).
    """
    arbiter_name = point.arbiter
    if arbiter_name not in _SUPPORTED:
        raise UnsupportedArbiterError(
            "no analytic model for arbiter {!r}; supported: {}".format(
                arbiter_name, list(_SUPPORTED)
            )
        )
    if any(w < 1 for w in point.weights):
        raise ValueError("weights must be positive integers")
    kwargs = dict(point.kwargs)
    unknown = set(kwargs) - _KNOWN_KWARGS[arbiter_name]
    if unknown:
        raise ValueError(
            "predict() does not model kwargs {} for {!r} (known: {})".format(
                sorted(unknown), arbiter_name,
                sorted(_KNOWN_KWARGS[arbiter_name]),
            )
        )
    draw_policy = kwargs.get("draw_policy", "reduce")
    if draw_policy not in ("reduce", "rejection"):
        # The closed forms assume every lottery grants; these are the
        # policies that do (and the only ones the manager takes).
        raise ValueError(
            "predict() models draw_policy 'reduce'/'rejection' only, "
            "got {!r}".format(draw_policy)
        )
    reclaim = kwargs.get("reclaim", "scan")
    if reclaim not in _RECLAIMS:
        raise ValueError(
            "reclaim must be one of {}, got {!r}".format(_RECLAIMS, reclaim)
        )
    profiles = traffic_profiles(point.traffic, point.max_burst)
    if len(point.weights) != len(profiles):
        raise ValueError(
            "weights length {} != {} masters of {!r}".format(
                len(point.weights), len(profiles), point.traffic
            )
        )
    closed = [p.closed for p in profiles]
    if any(closed) and not all(closed):
        raise ValueError(
            "traffic class {!r} mixes closed- and open-loop masters; "
            "the surrogate models homogeneous classes only".format(
                point.traffic
            )
        )
    return profiles


class AnalyticResult:
    """One surrogate prediction, shaped like a simulated sweep row."""

    def __init__(self, arbiter, traffic, weights, utilization, shares,
                 latencies_per_word, percentiles, meta):
        self.arbiter = arbiter
        self.traffic = traffic
        self.weights = tuple(weights)
        self.utilization = utilization
        self.bandwidth_shares = tuple(shares)
        self.latencies_per_word = tuple(latencies_per_word)
        self.latency_percentiles = percentiles
        self.meta = meta

    def row(self):
        """A dict with the exact columns of a simulated sweep row
        (:class:`repro.experiments.sweep.SweepResult`), so predictions
        and confirmations are directly comparable."""
        return sweep_row(self.arbiter, self.traffic, self.weights, self)

    def __repr__(self):
        return (
            "AnalyticResult({!r}, {!r}, util={:.3f}, shares={})".format(
                self.arbiter,
                self.traffic,
                self.utilization,
                "/".join(
                    "{:.3f}".format(s) for s in self.bandwidth_shares
                ),
            )
        )


def _percentiles(state, profiles):
    """Per-master latency-per-word percentiles from the exponential
    waiting approximation: quantile q multiplies the mean wait by
    ``-ln(1 - q)``; the transfer floor is deterministic."""
    out = {}
    for q in PERCENTILES:
        factor = -math.log(1.0 - q)
        values = []
        for i, p in enumerate(profiles):
            wait = max(0.0, state.delays[i] - p.mean_words)
            values.append((p.mean_words + factor * wait) / p.mean_words)
        out["p{:02.0f}".format(q * 100)] = tuple(values)
    return out


def predict(arbiter_name, traffic_name, weights=(1, 1, 1, 1),
            max_burst=16, horizon=None, **arbiter_kwargs):
    """Analytic performance prediction for one configuration.

    :param arbiter_name: a registry name from :func:`supported_arbiters`
        (others raise :class:`UnsupportedArbiterError`).
    :param traffic_name: a traffic class name (``"T1"``..``"T9"``).
    :param weights: per-master weights, interpreted exactly as
        :func:`repro.arbiters.registry.make_arbiter` does (tickets,
        slot counts, priority ranks; round-robin ignores them).
    :param max_burst: the bus's maximum words per grant.
    :param horizon: optional simulated-cycle horizon the prediction
        will be compared against.  A master expected to complete no
        message within it reports latency 0.0, matching the metrics
        collector's convention for starved masters.
    :param arbiter_kwargs: the same scheme extras the registry takes
        (``reclaim`` for TDMA, ``scale``/``draw_policy`` for the static
        lottery); unknown extras raise ``ValueError`` rather than
        silently mispredicting.
    :returns: an :class:`AnalyticResult`.
    """
    return _predict(
        Point(arbiter_name, traffic_name, weights, max_burst=max_burst,
              kwargs=arbiter_kwargs),
        horizon,
    )


def _predict(point, horizon):
    """One point's prediction: :func:`predict`'s body, which
    :func:`~repro.analytic.batch.score_grid` also runs on overloaded
    open-loop groups."""
    profiles = check_config(point)
    family, contention = build_family(point)
    if profiles[0].closed:
        state = solve_closed(profiles, family)
    else:
        state = solve_open(profiles, family, contention)

    latencies = list(state.latencies_per_word)
    percentiles = _percentiles(state, profiles)
    if horizon is not None:
        for i, p in enumerate(profiles):
            expected_messages = state.throughputs[i] * horizon
            if expected_messages < 1.0:
                # The collector reports 0.0 for masters that never
                # complete a message inside the horizon.
                latencies[i] = 0.0

    return AnalyticResult(
        arbiter=point.arbiter,
        traffic=point.traffic,
        weights=point.weights,
        utilization=state.utilization,
        shares=state.shares,
        latencies_per_word=latencies,
        percentiles=percentiles,
        meta={"model": state.model, "alpha": state.alpha},
    )
