"""Vectorized grid scoring: thousands of predictions per millisecond.

:func:`score_grid` is the batch counterpart of
:func:`repro.analytic.predict`: it takes a list of configuration
points, groups them by (arbiter, traffic class, arbiter kwargs), and
runs the *same* fixed-point model as the scalar solver with every
group's weight vectors stacked into numpy arrays — one solver
iteration advances every configuration in the group at once.  This is
the path that makes million-config screening and the ``>= 1000x``
per-config speedup over the vector simulator real: the scalar
``predict`` costs a few hundred microseconds of interpreter time per
configuration, the batched path a few microseconds.

numpy is imported lazily, on the first call.  The agreement between
the batch path and ``predict`` is pinned by
``tests/test_analytic_model.py``.
"""

from functools import lru_cache

from repro.analytic.families import (
    _CHAIN_STEPS,
    _V_SHRINK,
    priority_ranks,
)
from repro.analytic.model import (
    PERCENTILES,
    AnalyticResult,
    _predict,
    check_config,
)
from repro.core.scaling import scale_to_power_of_two

_EPS = 1e-9
_WAIT_CAP = 1e12
_ALPHA_LO = 1e-4
_ALPHA_HI = 1e4
_DYNAMIC_TICKET_CAP = 255


@lru_cache(maxsize=65536)
def _scaled_tickets(weights):
    """Power-of-two ticket scaling, memoized per weight vector — DSE
    grids revisit the same vectors across families and classes."""
    return tuple(scale_to_power_of_two(list(weights)))


@lru_cache(maxsize=65536)
def _cached_ranks(weights):
    return tuple(priority_ranks(list(weights)))


def _family_rows(points):
    """Per-config contention vectors for one group (points sharing an
    arbiter and its kwargs), as tuples stacked into the group's
    parameter matrix."""
    arbiter_name = points[0].arbiter
    weight_rows = [point.weights for point in points]
    if arbiter_name == "lottery-static":
        if not dict(points[0].kwargs).get("scale", True):
            return weight_rows
        return [_scaled_tickets(w) for w in weight_rows]
    if arbiter_name == "lottery-dynamic":
        return [
            tuple(min(_DYNAMIC_TICKET_CAP, max(1, t)) for t in w)
            for w in weight_rows
        ]
    if arbiter_name == "static-priority":
        return [_cached_ranks(w) for w in weight_rows]
    if arbiter_name == "round-robin":
        return [(1,) * len(w) for w in weight_rows]
    if arbiter_name in ("lottery-compensated", "tdma"):
        return weight_rows
    raise KeyError(arbiter_name)


def _kind(arbiter_name):
    if arbiter_name in (
        "lottery-static", "lottery-dynamic", "lottery-compensated"
    ):
        return "lottery"
    if arbiter_name == "static-priority":
        return "priority"
    if arbiter_name == "tdma":
        return "tdma"
    return "rr"


def _residuals(np, rho, s):
    """(G, N) expected in-flight burst remainder seen by each master."""
    per = rho * ((s + 1.0) / 2.0)
    return per.sum(axis=1, keepdims=True) - per


class _LotterySubsets:
    """Hoisted per-group constants for the subset-averaged lottery
    wait: the full 2^n contender-subset enumeration, with each
    master's ticket/burst subset sums precomputed (tickets never
    change across solver iterations — only presence does)."""

    def __init__(self, np, tickets, s):
        grid, n = tickets.shape
        masks = np.arange(1 << n)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        tickets_in = tickets @ bits.T          # (G, 2^n)
        burst_in = (tickets * s) @ bits.T
        # For master i: the subsets excluding i, in the order produced
        # by marginalizing i out of the outer-product tensor (both
        # sort by descending-master bit significance).
        self.cols = [
            [m for m in range(1 << n) if not (m >> i) & 1]
            for i in range(n)
        ]
        self.denom = [
            tickets[:, i:i + 1] + tickets_in[:, self.cols[i]]
            for i in range(n)
        ]
        self.burst = [burst_in[:, self.cols[i]] for i in range(n)]
        self.n = n

    def probabilities(self, np, q):
        """(G, 2^n) presence probability of every contender subset."""
        grid = q.shape[0]
        marginals = [
            np.stack((1.0 - q[:, j], q[:, j]), axis=1)
            for j in range(self.n)
        ]
        if self.n == 4:
            return np.einsum(
                "ga,gb,gc,gd->gabcd",
                marginals[3], marginals[2], marginals[1], marginals[0],
            )
        prob = marginals[self.n - 1]
        for j in range(self.n - 2, -1, -1):
            prob = prob[..., None] * marginals[j].reshape(
                (grid,) + (1,) * (prob.ndim - 1) + (2,)
            )
        return prob

    def marginalized(self, np, prob, i):
        """Subset probabilities with master ``i`` summed out, aligned
        with ``cols[i]``."""
        grid = prob.shape[0]
        return prob.sum(axis=self.n - i).reshape(grid, -1)


def _lottery_wait(np, tickets, s, ngr, q, resid, mis, subsets):
    grid, n = tickets.shape
    delays = np.empty((grid, n))
    prob = subsets.probabilities(np, q)
    for i in range(n):
        prob_i = subsets.marginalized(np, prob, i)
        weighted = prob_i / subsets.denom[i]
        win = weighted.sum(axis=1) * tickets[:, i]
        cost = (weighted * subsets.burst[i]).sum(axis=1)
        per_grant = cost / np.maximum(win, _EPS)
        delays[:, i] = np.minimum(
            ngr[i] * per_grant + mis[i] * resid[:, i], _WAIT_CAP
        )
    return delays


def _rr_wait(np, s, ngr, q, resid, mis):
    total = q @ s
    per_round = total[:, None] - q * s
    return ngr * per_round + mis * resid


def _priority_wait(np, s, ngr, q, resid, mis, order, higher, arr,
                   d_self):
    """The scalar family's boundary-winner Markov chain, vectorized.

    ``order`` sorts each row by descending rank; ``higher`` is the
    (G, N, N) float mask ``rank_j > rank_i``; ``arr`` is the
    (N, N) geometric re-arrival probability ``P(think_h ends within
    s_w)``; ``d_self`` the mid-message self-presence — all constant
    per group.  See ``families._StaticPriorityFamily`` for the model.
    """
    grid, n = q.shape
    diag = np.arange(n)
    # Presence of contender h at the boundary ending w's burst: a
    # pending loser persists (w outranks h), an outranked-by-h winner
    # implies h was absent and must re-arrive during the burst.
    arrival = np.broadcast_to(arr[None], (grid, n, n))
    qh = q[:, None, :]
    persist = qh + (1.0 - qh) * arrival
    present = np.where(higher > 0.5, arrival, persist)
    present = np.broadcast_to(
        present[:, None], (grid, n, n, n)
    ).copy()
    present[:, :, diag, diag] = d_self
    for i in range(n):
        present[:, i, :, i] = 1.0     # the tagged master always pends
    elig = np.maximum(higher, np.eye(n)[None])    # winners: i/superiors
    present *= elig[:, :, None, :]
    # Round winner = highest-priority present contender: exclusive
    # running product of absences down the descending-rank order.
    order4 = np.broadcast_to(order[:, None, None, :], present.shape)
    sorted_p = np.take_along_axis(present, order4, axis=3)
    running = np.cumprod(1.0 - sorted_p, axis=3)
    exclusive = np.empty_like(running)
    exclusive[..., 0] = 1.0
    exclusive[..., 1:] = running[..., :-1]
    trans = np.empty_like(present)
    np.put_along_axis(trans, order4, sorted_p * exclusive, axis=3)
    # Stationary winner mix (lazy steps: the raw chain can be
    # periodic under pure two-master alternation).
    pi = elig / elig.sum(axis=2, keepdims=True)
    for _ in range(_CHAIN_STEPS):
        pi = 0.5 * (pi + np.einsum("giw,giwv->giv", pi, trans))
    # First-step analysis: V = c + Q V over the superior block; the
    # shrink keeps the system nonsingular under total starvation.
    superior_block = trans * higher[:, :, None, :]
    system = np.eye(n)[None, None] - _V_SHRINK * superior_block
    cost = superior_block @ s
    losses = np.minimum(
        np.linalg.solve(system, cost[..., None])[..., 0], _WAIT_CAP
    )
    # A fresh arrival lands mid-round, length-biased over superior
    # rounds; mid-message re-requests start from i's own boundary.
    mass = pi * higher * s
    weight = mass.sum(axis=2)
    entry = np.where(
        weight > _EPS,
        (mass * losses).sum(axis=2) / np.maximum(weight, _EPS),
        0.0,
    )
    self_loss = losses[:, diag, diag]
    return np.minimum(
        entry + (ngr - 1.0) * self_loss + mis * resid, _WAIT_CAP
    )


def _tdma_wait(np, slots, wbar, a, reclaim, mis):
    grid, n = slots.shape
    wheel = slots.sum(axis=1, keepdims=True)
    pool = (slots * (1.0 - a)).sum(axis=1, keepdims=True)
    pending = a.sum(axis=1, keepdims=True)
    if reclaim == "scan":
        efficiency = 1.0
    elif reclaim == "single":
        efficiency = pending / float(n)
    else:  # "none"
        efficiency = 0.0
    extra = efficiency * pool * a / np.maximum(pending, _EPS)
    mu = np.minimum(1.0, (slots + extra) / wheel)
    stretch = wbar * (1.0 / np.maximum(mu, _EPS) - 1.0)
    gap = wheel - slots
    phase = mis * gap * gap / (2.0 * wheel)
    return np.minimum(stretch + phase, _WAIT_CAP)


def _idle_balance(np, wait, wbar, think):
    period = think + wait + wbar
    idle = 1.0 - (wbar / period).sum(axis=1)
    product = np.prod(think / period, axis=1)
    return idle - product


def _solve_closed_batch(np, profiles, kind, params, reclaim,
                        iterations=64, damping=0.0, compact_at=10):
    """The scalar ``solve_closed`` with a leading grid dimension.

    After ``compact_at`` iterations, rows that have already converged
    are frozen and the loop continues on the straggler subset only —
    extreme weight ratios need 2-3x the typical iteration count, and
    without compaction they would set the pace for the whole grid.
    """
    grid = params.shape[0]
    n = len(profiles)
    wbar = np.array([p.mean_words for p in profiles])
    think = np.array([p.think for p in profiles])
    s = np.array([p.words_per_grant for p in profiles])
    ngr = np.array([p.mean_grants for p in profiles])
    mis = np.minimum(1.0, think)
    tol = 1e-6

    def make_family(rows):
        if kind == "lottery":
            return _LotterySubsets(np, rows, s)
        if kind == "priority":
            # Geometric re-arrival during a burst of s_w cycles, and
            # the mid-message self-presence at a master's own boundary
            # (see families._StaticPriorityFamily).
            arr = np.where(
                think[None, :] <= 1.0,
                1.0,
                1.0
                - (1.0 - 1.0 / np.maximum(think, 1.0)[None, :])
                ** s[:, None],
            )
            d_self = np.where(think == 0.0, 1.0, 1.0 - 1.0 / ngr)
            return (
                np.argsort(-rows, axis=1),
                (rows[:, None, :] > rows[:, :, None]).astype(float),
                arr,
                d_self,
            )
        return None

    def targets(rows, aux, wait, first):
        period = think + wait + wbar
        rho = wbar / period
        a = 1.0 - think / period
        if first:
            # Warm start at the saturation solution (everyone always
            # pending) — exact for the saturated classes, a few
            # iterations away elsewhere.
            q = np.ones_like(wait)
        else:
            q = np.where(
                think == 0.0, 1.0,
                wait / np.maximum(think + wait, _EPS),
            )
        resid = _residuals(np, rho, s)
        if kind == "lottery":
            return _lottery_wait(np, rows, s, ngr, q, resid, mis, aux)
        if kind == "priority":
            return _priority_wait(
                np, s, ngr, q, resid, mis,
                aux[0], aux[1], aux[2], aux[3],
            )
        if kind == "tdma":
            return _tdma_wait(np, rows, wbar, a, reclaim, mis)
        return _rr_wait(np, s, ngr, q, resid, mis)

    aux = make_family(params)
    wait = targets(params, aux, np.zeros((grid, n)), True)
    active = None     # None => every row still iterating
    rows, sub_aux, sub_wait = params, aux, wait
    for iteration in range(iterations):
        target = targets(rows, sub_aux, sub_wait, False)
        new_wait = damping * sub_wait + (1.0 - damping) * target
        drifts = np.max(
            np.abs(new_wait - sub_wait) / (1.0 + sub_wait), axis=1
        )
        sub_wait = new_wait
        if active is None:
            wait = sub_wait
        else:
            wait[active] = sub_wait
        if float(drifts.max()) < tol:
            break
        if iteration >= compact_at:
            busy = drifts >= tol
            if busy.mean() < 0.7:
                keep = np.nonzero(busy)[0]
                active = keep if active is None else active[keep]
                rows = params[active]
                sub_aux = make_family(rows)
                sub_wait = wait[active]

    lo = np.full(grid, _ALPHA_LO)
    hi = np.full(grid, _ALPHA_HI)
    saturated = _idle_balance(np, _ALPHA_HI * wait, wbar, think) <= 0.0
    for _ in range(28):
        mid = (lo + hi) / 2.0
        above = _idle_balance(np, mid[:, None] * wait, wbar, think) > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    alpha = np.where(saturated, _ALPHA_HI, (lo + hi) / 2.0)

    wait = alpha[:, None] * wait
    period = think + wait + wbar
    rho = wbar / period
    total = rho.sum(axis=1)
    return {
        "model": "closed",
        "alpha": alpha,
        "throughputs": 1.0 / period,
        "shares": rho / np.maximum(total, _EPS)[:, None],
        "utilization": np.minimum(1.0, total),
        "delays": wait + wbar,
    }


def _solve_open_batch(np, profiles, kind, params, reclaim):
    """The scalar ``solve_open`` with a leading grid dimension (stable
    regime only; the caller falls back to scalar when overloaded)."""
    grid = params.shape[0]
    n = len(profiles)
    wbar = np.array([p.mean_words for p in profiles])
    offered = np.array([p.rate_words for p in profiles])
    peak = np.array([p.peak_rate for p in profiles])
    total_offered = float(offered.sum())

    if total_offered <= _EPS:
        shares = np.full((grid, n), 1.0 / n)
        served = np.zeros(n)
    else:
        shares = np.broadcast_to(
            offered / total_offered, (grid, n)
        ).copy()
        served = offered

    # Interference: everything a master waits behind, weighted 0.4 for
    # lower-priority competitors (they only block via burst residuals).
    load = np.broadcast_to(
        peak + (offered.sum() - offered), (grid, n)
    ).copy()
    if kind == "priority":
        lower_mask = params[:, None, :] < params[:, :, None]
        discount = (
            (offered[None, None, :] * lower_mask).sum(axis=2) * 0.6
        )
        load = load - discount
    load = np.minimum(load, 0.98)
    queue_wait = (
        load * np.maximum(wbar - 1.0, 0.0) / (2.0 * (1.0 - load))
    )
    if kind == "tdma":
        wheel = params.sum(axis=1, keepdims=True)
        gap = wheel - params
        phase = gap * gap / (2.0 * wheel)
        others = np.broadcast_to(
            offered.sum() - offered, (grid, n)
        )
        if reclaim == "scan":
            phase = phase * np.minimum(1.0, others)
        elif reclaim == "single":
            phase = phase * (0.5 + 0.5 * np.minimum(1.0, others))
        queue_wait = queue_wait + phase
    delays = queue_wait + wbar
    return {
        "model": "open",
        "alpha": np.ones(grid),
        "throughputs": np.broadcast_to(served / wbar, (grid, n)),
        "shares": shares,
        "utilization": np.full(grid, min(1.0, total_offered)),
        "delays": delays,
    }


def _assemble(np, points, state, profiles, horizon, percentiles):
    """Turn one group's solved arrays into AnalyticResult objects."""
    wbar = np.array([p.mean_words for p in profiles])
    latencies = state["delays"] / wbar
    if horizon is not None:
        expected = state["throughputs"] * horizon
        latencies = np.where(expected < 1.0, 0.0, latencies)
    pct = []
    if percentiles:
        waits = np.maximum(0.0, state["delays"] - wbar)
        for quantile in PERCENTILES:
            factor = -np.log(1.0 - quantile)
            pct.append((
                "p{:02.0f}".format(quantile * 100),
                ((wbar + factor * waits) / wbar).tolist(),
            ))
    model = state["model"]
    count = len(points)
    masters = len(profiles)
    # Bulk-convert once per group: per-element float() calls dominate
    # assembly time otherwise.
    alpha = np.broadcast_to(state["alpha"], (count,)).tolist()
    shares = np.broadcast_to(
        state["shares"], (count, masters)
    ).tolist()
    util = np.broadcast_to(state["utilization"], (count,)).tolist()
    latencies = np.broadcast_to(
        latencies, (count, masters)
    ).tolist()
    results = []
    for row, point in enumerate(points):
        results.append(AnalyticResult(
            arbiter=point.arbiter,
            traffic=point.traffic,
            weights=point.weights,
            utilization=util[row],
            shares=tuple(shares[row]),
            latencies_per_word=tuple(latencies[row]),
            percentiles=(
                {key: tuple(values[row]) for key, values in pct}
                if percentiles else None
            ),
            meta={
                "model": model,
                "alpha": alpha[row],
                "backend": "batch",
            },
        ))
    return results


def score_grid(points, horizon=None, percentiles=False):
    """Score many configurations with the analytic surrogate at once.

    :param points: :class:`~repro.experiments.system.Point` objects;
        each is scored on its own bus (``max_burst``).
    :param horizon: optional simulated-cycle horizon (see
        :func:`repro.analytic.predict`).
    :param percentiles: attach latency percentiles to every result
        (off by default — screening reads shares/latencies only, and
        percentile assembly is a measurable fraction of batch cost).
    :returns: a list of :class:`AnalyticResult`, one per point, in
        input order.  Numbers match the scalar ``predict`` to floating
        -point noise.  A point :func:`check_config` rejects raises its
        error.
    """
    import numpy as np

    points = list(points)

    groups = {}
    for index, point in enumerate(points):
        key = (point.arbiter, point.traffic, point.kwargs, point.max_burst)
        groups.setdefault(key, []).append(index)

    results = [None] * len(points)
    for indices in groups.values():
        group = [points[i] for i in indices]
        profiles = check_config(group[0])
        for point in group[1:]:
            row = point.weights
            if any(w < 1 for w in row) or len(row) != len(profiles):
                raise ValueError(
                    "weights must be positive and match {} masters, "
                    "got {!r}".format(len(profiles), row)
                )
        # Distinct weight vectors often share one contention vector —
        # priority ranks are permutations (at most n! distinct rows)
        # and round-robin ignores weights entirely — so solve each
        # unique row once and scatter the solution back.
        family_rows = _family_rows(group)
        unique = {}
        row_of = [
            unique.setdefault(row, len(unique)) for row in family_rows
        ]
        params = np.array(list(unique), dtype=float)
        kind = _kind(group[0].arbiter)
        reclaim = dict(group[0].kwargs).get("reclaim", "scan")

        if profiles[0].closed:
            state = _solve_closed_batch(
                np, profiles, kind, params, reclaim
            )
        elif sum(p.rate_words for p in profiles) > 0.995:
            # Overloaded open grids need the scalar water-fill; rare
            # enough that looping the scalar model is the simplest
            # correct path.
            for index, point in zip(indices, group):
                results[index] = _predict(point, horizon)
            continue
        else:
            state = _solve_open_batch(np, profiles, kind, params, reclaim)
        if len(unique) < len(family_rows):
            scatter = np.array(row_of)
            state = {
                key: (
                    value[scatter] if hasattr(value, "shape") else value
                )
                for key, value in state.items()
            }
        assembled = _assemble(
            np, group, state, profiles, horizon, percentiles
        )
        for index, result in zip(indices, assembled):
            results[index] = result
    return results
