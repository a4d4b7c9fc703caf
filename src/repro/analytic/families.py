"""Per-arbiter-family contention models.

Each family reduces to two ingredients the solver consumes:

* a *contention weight* per master — the quantity grants are
  proportional to under saturation (Section 4's tickets, TDMA slot
  counts, nothing for round-robin), derived with the exact arithmetic
  the hardware models use (power-of-two ticket scaling for the static
  lottery, the [1, 255] clamp for the dynamic one, the registry's
  weight->priority ranking); and
* a *waiting-time model*: the expected cycles one message spends not
  being transferred, as a function of every master's current demand.

The waiting models are mean-value approximations over *arbitration
rounds* — the instants a burst ends and the bus picks its next owner.
Each competitor contends in a round with its boundary-presence
probability ``q_j`` (waiting-time fraction of its non-transfer cycle);
a lottery loser's odds are averaged over the ``2^(n-1)`` contender
subsets (Jensen: thin rounds help weak masters more than linear
ticket-discounting predicts), a round-robin loser watches each pending
competitor once per rotation, a low-priority master's race is a Markov
chain over round winners (who just won is *absent* at the boundary it
created, which is when lower classes sneak in), and a TDMA master
drains at its slot share of the wheel.  In saturation
(``q = 1``) these collapse to the paper's closed forms and are exact;
at mid utilization they are approximations whose error is measured and
bounded in :mod:`repro.analytic.bounds`.
"""

from repro.core.scaling import scale_to_power_of_two

# Dynamic lottery hardware clamps run-time holdings to an 8-bit port.
_DYNAMIC_TICKET_CAP = 255

# Waits beyond this are starvation: the master effectively never runs.
_WAIT_CAP = 1e12

_EPS = 1e-9


def priority_ranks(weights):
    """The registry's weight->priority mapping, replicated exactly.

    Higher weight means higher priority; ties break toward the lower
    master index (see ``repro.arbiters.registry._make_static_priority``
    and the cross-check in tests/test_analytic_model.py).
    """
    order = sorted(range(len(weights)), key=lambda m: (weights[m], -m))
    ranks = [0] * len(weights)
    for rank, master in enumerate(order):
        ranks[master] = rank + 1
    return ranks


def _residual(i, profiles, rho):
    """Expected in-flight burst remainder seen by master ``i``'s
    randomly-phased arrival (zero-think arrivals align with burst
    boundaries and skip it; the solver scales by misalignment)."""
    total = 0.0
    for j, p in enumerate(profiles):
        if j != i:
            s = p.words_per_grant
            total += rho[j] * (s + 1.0) / 2.0
    return total


class _LotteryFamily:
    """Static / dynamic / compensated lotteries.

    Win probability per round is ticket-proportional *among the masters
    actually contending*.  Averaging ``t_i / (t_i + T_S)`` over all
    contender subsets ``S`` (each competitor present with probability
    ``q_j``) captures the convexity a linear ticket-discount misses:
    when a heavy master is thinking, a light master's odds jump from
    ``t_i / T`` to nearly 1, so partial presence redistributes far more
    bandwidth toward light masters than the time-average suggests.
    """

    def __init__(self, tickets):
        self.tickets = tickets

    def wait_delays(self, profiles, rho, a, q, mis):
        n = len(profiles)
        words = [p.words_per_grant for p in profiles]
        delays = []
        for i, p in enumerate(profiles):
            others = [j for j in range(n) if j != i]
            ticket_i = float(self.tickets[i])
            win = 0.0
            cost = 0.0
            for mask in range(1 << len(others)):
                prob = 1.0
                tickets_in = 0.0
                burst_in = 0.0
                for bit, j in enumerate(others):
                    if mask >> bit & 1:
                        prob *= q[j]
                        tickets_in += self.tickets[j]
                        burst_in += self.tickets[j] * words[j]
                    else:
                        prob *= 1.0 - q[j]
                denom = ticket_i + tickets_in
                win += prob * ticket_i / denom
                cost += prob * burst_in / denom
            # Geometric rounds until i wins; each loss costs the
            # winner's burst.  E[total lost cycles] = cost / win.
            per_grant = cost / max(win, _EPS)
            delays.append(min(
                p.mean_grants * per_grant
                + mis[i] * _residual(i, profiles, rho),
                _WAIT_CAP,
            ))
        return delays


class _RoundRobinFamily:
    """Fair rotation: each pending competitor is served once between a
    master's consecutive grants, regardless of weights."""

    def wait_delays(self, profiles, rho, a, q, mis):
        delays = []
        for i, p in enumerate(profiles):
            per_round = sum(
                q[j] * other.words_per_grant
                for j, other in enumerate(profiles)
                if j != i
            )
            delays.append(
                p.mean_grants * per_round
                + mis[i] * _residual(i, profiles, rho)
            )
        return delays


#: Lazy power-iteration steps for the boundary-winner chain below.
#: Fixed (no early exit) so the scalar and batch paths agree exactly.
_CHAIN_STEPS = 48

#: Substochastic damping of the loss recursion: keeps the linear
#: system nonsingular under total starvation (losing probability 1)
#: where the honest answer is an infinite wait.
_V_SHRINK = 1.0 - 1e-9


def _solve_linear(system):
    """Solve the augmented system (rows of ``[A | b]``) in place by
    Gaussian elimination with partial pivoting; a vanishing pivot
    means starvation, answered with :data:`_WAIT_CAP` everywhere."""
    count = len(system)
    for col in range(count):
        pivot = max(range(col, count), key=lambda r: abs(system[r][col]))
        if abs(system[pivot][col]) < 1e-300:
            return [_WAIT_CAP] * count
        system[col], system[pivot] = system[pivot], system[col]
        head = system[col]
        inv = 1.0 / head[col]
        for k in range(col, count + 1):
            head[k] *= inv
        for row in range(count):
            if row != col and system[row][col] != 0.0:
                factor = system[row][col]
                for k in range(col, count + 1):
                    system[row][k] -= factor * head[k]
    return [min(system[r][count], _WAIT_CAP) for r in range(count)]


class _StaticPriorityFamily:
    """Non-preemptive head-of-line priority.

    While master ``i`` is pending only ``i`` and its priority superiors
    can win a round, but *which* superior is pending is strongly
    correlated with who won the previous round: a master that just
    finished a burst is thinking at that very boundary (unless its
    think time is zero), which is exactly when the next class down
    sneaks in.  Treating presence as independent per round misses this
    and over-serves the top class, so the race is a small Markov chain
    over the previous round's winner: in state ``w`` the just-served
    master is present only if it never thinks, everyone else contends
    with its boundary presence ``q``, and the highest-priority
    contender wins.  The chain's stationary winner distribution gives
    ``i``'s expected lost cycles per grant; as the superiors' presence
    approaches one, ``i``'s stationary win probability vanishes —
    starvation — recovering the saturated closed form exactly."""

    def __init__(self, ranks):
        self.ranks = ranks

    def wait_delays(self, profiles, rho, a, q, mis):
        n = len(profiles)
        think = [p.think for p in profiles]
        delays = []
        for i, p in enumerate(profiles):
            higher = sorted(
                (j for j in range(n) if self.ranks[j] > self.ranks[i]),
                key=lambda j: -self.ranks[j],
            )
            base = mis[i] * _residual(i, profiles, rho)
            if not higher:
                delays.append(min(base, _WAIT_CAP))
                continue
            # Transition matrix over round winners, conditioned on i
            # pending (lower classes can never win such a round).
            # Presence of h at the boundary ending w's burst:
            #  - h == w: mid-message it re-pends instantly (a message
            #    is ``mean_grants`` bursts; only the last is followed
            #    by think), so it is present unless the message just
            #    ended and it thinks — ``1 - 1/n_h``;
            #  - h outranks w: h was absent last round (it would have
            #    won), so it is present only if its think ended during
            #    the burst; think is geometric(1/Z) in the generator
            #    (memoryless), so that is ``1 - (1 - 1/Z_h)^s_w``;
            #  - w outranks h: h may have been pending and lost, and a
            #    pending loser *persists* — q_h plus the re-arrival
            #    mass of the thinking complement.
            states = [i] + higher
            matrix = []
            for w in states:
                s_w = profiles[w].words_per_grant
                clear = 1.0
                row = {}
                for h in higher:
                    if think[h] <= 1.0:
                        arrival = 1.0
                    else:
                        arrival = 1.0 - (1.0 - 1.0 / think[h]) ** s_w
                    if h == w:
                        if think[h] == 0.0:
                            present = 1.0
                        else:
                            present = 1.0 - 1.0 / profiles[h].mean_grants
                    elif self.ranks[h] > self.ranks[w]:
                        present = arrival
                    else:
                        present = q[h] + (1.0 - q[h]) * arrival
                    row[h] = clear * present
                    clear *= 1.0 - present
                row[i] = clear
                matrix.append([row[v] for v in states])
            count = len(states)
            pi = [1.0 / count] * count
            for _ in range(_CHAIN_STEPS):
                nxt = [0.0] * count
                for w in range(count):
                    mass = pi[w]
                    row = matrix[w]
                    for v in range(count):
                        nxt[v] += mass * row[v]
                # Lazy step: the raw chain can be periodic (pure
                # alternation between two masters); the half-step
                # mixture never is.
                pi = [0.5 * (pi[v] + nxt[v]) for v in range(count)]
            # First-step analysis: V(w) = expected superior-burst
            # cycles until i wins, from the boundary ending w's burst.
            # V = c + Q V with Q the superior-to-superior block; the
            # shrink keeps Q substochastic so starvation shows up as a
            # huge-but-finite solution instead of a singular system.
            system = [
                [
                    (1.0 if v == w else 0.0)
                    - (_V_SHRINK * matrix[w][v] if v > 0 else 0.0)
                    for v in range(count)
                ]
                + [sum(
                    matrix[w][k + 1] * profiles[h].words_per_grant
                    for k, h in enumerate(higher)
                )]
                for w in range(count)
            ]
            losses = _solve_linear(system)
            # A fresh arrival lands mid-round; the round's winner is a
            # superior with probability length-biased by pi, and the
            # partial burst itself is the residual term.  Mid-message
            # re-requests start from i's own boundary instead.
            weight = sum(
                pi[k + 1] * profiles[h].words_per_grant
                for k, h in enumerate(higher)
            )
            if weight > _EPS:
                entry = sum(
                    pi[k + 1] * profiles[h].words_per_grant
                    * losses[k + 1]
                    for k, h in enumerate(higher)
                ) / weight
            else:
                entry = 0.0
            delays.append(min(
                entry + (p.mean_grants - 1.0) * losses[0] + base,
                _WAIT_CAP,
            ))
        return delays


class _TdmaFamily:
    """Two-level TDMA: a pending master drains at its share of the
    wheel plus its cut of reclaimed idle slots; latency is transfer
    stretch (words interleave with other owners' slots) plus the
    phase wait of misaligned arrivals."""

    def __init__(self, slot_counts, reclaim):
        self.slots = slot_counts
        self.wheel = float(sum(slot_counts))
        self.reclaim = reclaim

    def wait_delays(self, profiles, rho, a, q, mis):
        n = len(profiles)
        pending = sum(a)
        pool = sum(
            self.slots[j] * (1.0 - a[j]) for j in range(n)
        )
        if self.reclaim == "scan":
            efficiency = 1.0
        elif self.reclaim == "single":
            # Only one candidate is examined per idle slot; it is
            # pending with roughly the mean pending fraction.
            efficiency = pending / float(n)
        else:  # "none": pure single-level TDMA, idle slots are wasted
            efficiency = 0.0
        delays = []
        for i, p in enumerate(profiles):
            extra = 0.0
            if pending > _EPS:
                extra = efficiency * pool * a[i] / pending
            mu = min(1.0, (self.slots[i] + extra) / self.wheel)
            stretch = p.mean_words * (1.0 / max(mu, _EPS) - 1.0)
            gap = self.wheel - self.slots[i]
            phase = mis[i] * gap * gap / (2.0 * self.wheel)
            delays.append(min(stretch + phase, _WAIT_CAP))
        return delays


def build_family(point):
    """The contention model for one point's registry arbiter.

    Returns ``(family, contention_weights)`` — the waiting-time model
    and the per-master weight vector open-loop allocation uses.  The
    point must pass :func:`repro.analytic.model.check_config`; raises
    :class:`KeyError` for families without an analytic model.
    """
    arbiter_name = point.arbiter
    weights = list(point.weights)
    kwargs = dict(point.kwargs)
    if arbiter_name == "lottery-static":
        if not kwargs.get("scale", True):
            tickets = weights
        else:
            tickets = scale_to_power_of_two(weights)
        return _LotteryFamily(tickets), tickets
    if arbiter_name == "lottery-dynamic":
        tickets = [
            min(_DYNAMIC_TICKET_CAP, max(1, t)) for t in weights
        ]
        return _LotteryFamily(tickets), tickets
    if arbiter_name == "lottery-compensated":
        # Compensation tickets make *word* shares track the base
        # holdings even across mixed message sizes, so the base weights
        # are the contention weights directly (no power-of-two scaling:
        # the dynamic manager underneath takes run-time holdings).
        return _LotteryFamily(weights), weights
    if arbiter_name == "static-priority":
        ranks = priority_ranks(weights)
        return _StaticPriorityFamily(ranks), ranks
    if arbiter_name == "round-robin":
        return _RoundRobinFamily(), [1] * len(weights)
    if arbiter_name == "tdma":
        return _TdmaFamily(weights, kwargs.get("reclaim", "scan")), weights
    raise KeyError(arbiter_name)
