"""The struct-of-arrays batch cycle engine.

One :class:`VectorEngine` hosts many independent systems ("lanes") in
numpy arrays shaped ``(lanes,)`` or ``(lanes, masters)`` and advances
every lane one bus cycle per vectorized step: generator refills,
arbitration (lottery table gather / ticket cumsum / priority scan),
grant bookkeeping, word transfer, and completion accounting are each a
handful of masked array ops over all lanes at once.

The engine is **bit-identical** to the scalar dense simulator, the same
way strict mode polices fast mode:

* every per-generator RNG draw happens in the scalar order (rare
  emission events drop to a tiny python loop over the generator's own
  :class:`~repro.sim.rng.RandomStream`; the saturated fast path with
  :class:`~repro.traffic.message.FixedWords` draws nothing at all);
* lottery draws replay the exact LFSR streams via
  :class:`~repro.vector.lfsr.VectorLFSR` block pre-draws — one consume
  per lottery held, none on idle rounds, exactly like the managers;
* metrics accumulate in the same integer arithmetic and are exported
  through a real :class:`~repro.metrics.collector.MetricsCollector`, so
  ``lane_summary`` is structurally and float-bitwise identical to
  ``bus.metrics.summary()``.

:meth:`cross_check` rebuilds a lane's scalar twin from its plan, replays
the same run/reset schedule on the dense simulator, and raises
:class:`~repro.vector.lanes.VectorDivergenceError` on any mismatch.
"""

import pickle

from repro.metrics.collector import MetricsCollector
from repro.vector.lanes import (
    LOTTERY_FAMILIES,
    VectorDivergenceError,
    arbiter_check_state,
)
from repro.vector.lfsr import VectorLFSR

_DUMMY_MASKS = (0,)


class VectorEngine:
    """Advance many planned lanes cycle-by-cycle, vectorized.

    :param plans: :class:`~repro.vector.lanes.LanePlan` list; all lanes
        must share the master count (lane layout is ``(lanes, masters)``).
    :param block_size: LFSR samples pre-drawn per refill block.
    """

    def __init__(self, plans, block_size=32):
        import numpy as np

        if not plans:
            raise ValueError("need at least one lane")
        masters = {plan.num_masters for plan in plans}
        if len(masters) != 1:
            raise ValueError(
                "lanes disagree on master count: {}".format(sorted(masters))
            )
        self._np = np
        self._plans = list(plans)
        L = len(self._plans)
        M = masters.pop()
        self.num_lanes = L
        self.num_masters = M
        self.cycle = 0
        self._schedule = []

        i64 = np.int64
        self._pow2 = (1 << np.arange(M, dtype=i64))
        self._lane_ids = np.arange(L, dtype=i64)

        # -- static per-lane configuration -------------------------------
        self.max_burst = np.array([p.max_burst for p in plans], dtype=i64)
        self.arb_cycles = np.array(
            [p.arbitration_cycles for p in plans], dtype=i64
        )
        S = max(len(p.slave_setup) for p in plans)
        self.slave_setup = np.zeros((L, S), dtype=i64)
        self.slave_pw = np.zeros((L, S), dtype=i64)
        for lane, plan in enumerate(plans):
            for j, setup in enumerate(plan.slave_setup):
                self.slave_setup[lane, j] = setup
            for j, waits in enumerate(plan.slave_per_word):
                self.slave_pw[lane, j] = waits

        # -- generators ---------------------------------------------------
        # kind: -1 none, 0 saturating, 1 closed-loop
        self.gen_kind = np.full((L, M), -1, dtype=np.int8)
        self.gen_depth = np.zeros((L, M), dtype=i64)
        self.gen_think_mean = np.zeros((L, M), dtype=i64)
        self.gen_fixed = np.full((L, M), -1, dtype=i64)
        self.gen_slave = np.zeros((L, M), dtype=i64)
        self._gen_rng = [[None] * M for _ in range(L)]
        self._gen_words = [[None] * M for _ in range(L)]
        queue_cap = 1
        for lane, plan in enumerate(plans):
            for m, spec in enumerate(plan.generators):
                if spec is None:
                    continue
                self.gen_kind[lane, m] = 0 if spec.kind == "saturating" else 1
                self.gen_depth[lane, m] = spec.depth
                self.gen_think_mean[lane, m] = spec.mean_think
                if spec.fixed_words is not None:
                    self.gen_fixed[lane, m] = spec.fixed_words
                self.gen_slave[lane, m] = spec.slave
                self._gen_rng[lane][m] = spec.rng
                self._gen_words[lane][m] = spec.words
                if spec.kind == "saturating":
                    queue_cap = max(queue_cap, spec.depth)
        self._sat_mask = self.gen_kind == 0
        self._cl_mask = self.gen_kind == 1
        self._have_sat = bool(self._sat_mask.any())
        self._have_cl = bool(self._cl_mask.any())
        # A scalar draw is needed whenever a non-fixed size or a think
        # time exists; otherwise emission is fully vectorized.
        self._any_scalar_draws = bool(
            ((self.gen_kind >= 0) & (self.gen_fixed < 0)).any()
            or (self.gen_think_mean > 0).any()
        )

        # -- queues and head-request state --------------------------------
        Q = queue_cap
        self.q_count = np.zeros((L, M), dtype=i64)
        self.q_arrival = np.zeros((L, M, Q), dtype=i64)
        self.q_words = np.zeros((L, M, Q), dtype=i64)
        self.h_remaining = np.zeros((L, M), dtype=i64)
        self.h_first = np.full((L, M), -1, dtype=i64)
        self.think = np.zeros((L, M), dtype=i64)

        # -- bus state ----------------------------------------------------
        self.stall = np.zeros(L, dtype=i64)
        self.burst_master = np.full(L, -1, dtype=i64)
        self.burst_left = np.zeros(L, dtype=i64)

        # -- metrics (mirrors MetricsCollector / LatencyStats) ------------
        self.m_cycles = np.zeros(L, dtype=i64)
        self.m_busy = np.zeros(L, dtype=i64)
        self.m_idle = np.zeros(L, dtype=i64)
        self.m_stall = np.zeros(L, dtype=i64)
        self.m_words = np.zeros((L, M), dtype=i64)
        self.m_grants = np.zeros((L, M), dtype=i64)
        self.lat_msgs = np.zeros((L, M), dtype=i64)
        self.lat_words = np.zeros((L, M), dtype=i64)
        self.lat_total = np.zeros((L, M), dtype=i64)
        self.lat_wait = np.zeros((L, M), dtype=i64)
        self.lat_max_lpw = np.zeros((L, M), dtype=np.float64)
        self.lat_max_wait = np.zeros((L, M), dtype=i64)

        # -- arbiters -----------------------------------------------------
        self._build_arbiters(block_size)

        self._may_stall = bool(
            (self.arb_cycles > 0).any()
            or (self.slave_setup > 0).any()
            or (self.slave_pw > 0).any()
        )

    def _build_arbiters(self, block_size):
        np = self._np
        i64 = np.int64
        L, M = self.num_lanes, self.num_masters
        families = [plan.profile["family"] for plan in self._plans]
        self._is_lottery = np.array(
            [f in LOTTERY_FAMILIES for f in families]
        )
        self._is_static = np.array([f == "lottery-static" for f in families])
        self._is_comp = np.array(
            [f == "lottery-compensated" for f in families]
        )
        self._lott_lanes = np.flatnonzero(self._is_lottery)
        self._prio_lanes = np.flatnonzero(
            np.array([f == "static-priority" for f in families])
        )

        # Static lookup tables, one (2**M, M) block per static lane; the
        # scalar side shares rows across identical assignments via
        # repro.core.lookup_table.shared_lookup_table, and here the rows
        # land in one dense gatherable array.
        rows = 1 << M
        self.st_rows = np.zeros((L, rows, M), dtype=i64)
        self.policy_reject = np.zeros(L, dtype=bool)
        self.tickets = np.zeros((L, M), dtype=i64)
        self.lott_held = np.zeros(L, dtype=i64)
        self.rej_draws = np.zeros(L, dtype=i64)
        self.prio_order = np.zeros((L, M), dtype=i64)
        self.comp_base = np.zeros((L, M), dtype=i64)
        self.comp_factors = np.ones((L, M), dtype=np.float64)
        self.comp_cap = np.zeros(L, dtype=i64)
        self.comp_policy_burst = np.zeros(L, dtype=i64)
        self.comp_arb_burst = np.zeros(L, dtype=i64)
        self.comp_max_ticket = np.zeros(L, dtype=i64)

        masks = [_DUMMY_MASKS] * L
        states = [1] * L
        for lane, plan in enumerate(self._plans):
            profile = plan.profile
            family = profile["family"]
            if family == "lottery-static":
                self.st_rows[lane] = np.array(profile["rows"], dtype=i64)
                self.policy_reject[lane] = (
                    profile["draw_policy"] == "rejection"
                )
                self.lott_held[lane] = profile["lotteries_held"]
                self.rej_draws[lane] = profile["rejected_draws"]
            elif family == "lottery-dynamic":
                self.tickets[lane] = profile["tickets"]
                self.lott_held[lane] = profile["lotteries_held"]
            elif family == "lottery-compensated":
                self.tickets[lane] = profile["tickets"]
                self.comp_base[lane] = profile["base_tickets"]
                self.comp_factors[lane] = profile["factors"]
                self.comp_cap[lane] = profile["cap"]
                self.comp_policy_burst[lane] = profile["policy_max_burst"]
                self.comp_arb_burst[lane] = profile["arbiter_max_burst"]
                self.comp_max_ticket[lane] = profile["max_ticket"]
                self.lott_held[lane] = profile["lotteries_held"]
            elif family == "static-priority":
                self.prio_order[lane] = profile["order"]
            if family in LOTTERY_FAMILIES:
                source = profile["random_source"]
                masks[lane] = source.jump_masks
                states[lane] = source.state
        self.lfsr = VectorLFSR(np, masks, states, block_size=block_size)

    # ------------------------------------------------------------------
    # running

    def run(self, cycles):
        """Advance every lane by ``cycles`` bus cycles."""
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        step = self._step
        for cycle in range(self.cycle, self.cycle + cycles):
            step(cycle)
        self.cycle += cycles
        if cycles:
            self._schedule.append(("run", cycles))

    def reset_metrics(self):
        """Zero the metric arrays, exactly like ``bus.metrics.reset()``
        after a warmup: in-flight queues, bursts, arbiter counters and
        RNG streams all keep going."""
        for array in (self.m_cycles, self.m_busy, self.m_idle, self.m_stall,
                      self.m_words, self.m_grants, self.lat_msgs,
                      self.lat_words, self.lat_total, self.lat_wait,
                      self.lat_max_lpw, self.lat_max_wait):
            array[...] = 0
        self._schedule.append(("reset",))

    # ------------------------------------------------------------------
    # per-cycle step

    def _step(self, cycle):
        np = self._np
        # -- traffic generators (ticked before the bus, as registered) --
        if self._have_sat:
            while True:
                need = self._sat_mask & (self.q_count < self.gen_depth)
                if not need.any():
                    break
                lanes, masters = np.nonzero(need)
                self._emit(lanes, masters, cycle)
        if self._have_cl:
            empty = self._cl_mask & (self.q_count == 0)
            if empty.any():
                thinking = empty & (self.think > 0)
                if thinking.any():
                    self.think[thinking] -= 1
                    emit = empty & ~thinking
                else:
                    emit = empty
                if emit.any():
                    lanes, masters = np.nonzero(emit)
                    self._emit(lanes, masters, cycle, draw_think=True)

        # -- bus tick ----------------------------------------------------
        self.m_cycles += 1
        if self._may_stall:
            stalled = self.stall > 0
            if stalled.any():
                self.stall[stalled] -= 1
                self.m_stall[stalled] += 1
                active = ~stalled
            else:
                active = None
        else:
            active = None
        pending = self.h_remaining > 0
        has_req = pending.any(axis=1)
        free = self.burst_master < 0
        if active is not None:
            no_burst = active & free
            cont = np.flatnonzero(active & ~free)
        else:
            no_burst = free
            cont = np.flatnonzero(~free)
        arb = no_burst & has_req
        idle = no_burst & ~has_req

        transfer_new = None
        if arb.any():
            winner = self._arbitrate(arb, pending)
            granted = winner >= 0
            grant_lanes = np.flatnonzero(arb & granted)
            # A rejection-policy draw that missed every range leaves the
            # bus unowned this cycle: the scalar bus records it idle.
            idle = idle | (arb & ~granted)
            if grant_lanes.size:
                transfer_new = self._grant(grant_lanes, winner[grant_lanes],
                                           cycle)
        if idle.any():
            self.m_idle[idle] += 1

        if transfer_new is not None and transfer_new.size:
            lanes = np.concatenate((cont, transfer_new))
        else:
            lanes = cont
        if lanes.size:
            self._transfer(lanes, cycle)

    def _emit(self, lanes, masters, cycle, draw_think=False):
        """Submit one request per (lane, master) pair, scalar-RNG exact.

        Mirrors ``SaturatingGenerator.tick`` / ``ClosedLoopGenerator
        .tick``: the words draw precedes the think draw on the *same*
        per-generator stream, and fixed-size sources draw nothing.
        """
        np = self._np
        words = self.gen_fixed[lanes, masters]
        if self._any_scalar_draws:
            variable = np.flatnonzero(words < 0)
            if variable.size:
                words = words.copy()
                rngs = self._gen_rng
                dists = self._gen_words
                for i in variable:
                    lane = lanes[i]
                    m = masters[i]
                    words[i] = dists[lane][m].sample(rngs[lane][m])
        slot = self.q_count[lanes, masters]
        self.q_arrival[lanes, masters, slot] = cycle
        self.q_words[lanes, masters, slot] = words
        self.q_count[lanes, masters] = slot + 1
        head = slot == 0
        if head.any():
            hl = lanes[head]
            hm = masters[head]
            self.h_remaining[hl, hm] = words[head]
            self.h_first[hl, hm] = -1
        if draw_think and self._any_scalar_draws:
            means = self.gen_think_mean[lanes, masters]
            pondering = np.flatnonzero(means > 0)
            if pondering.size:
                rngs = self._gen_rng
                for i in pondering:
                    lane = lanes[i]
                    m = masters[i]
                    self.think[lane, m] = rngs[lane][m].geometric(
                        1.0 / means[i]
                    )

    def _arbitrate(self, arb, pending):
        """Per-lane winner (-1 = no grant) for every lane in ``arb``."""
        np = self._np
        winner = np.full(self.num_lanes, -1, dtype=np.int64)
        prio = self._prio_lanes
        if prio.size:
            sub = prio[arb[prio]]
            if sub.size:
                chosen = np.full(sub.size, -1, dtype=np.int64)
                order = self.prio_order
                for rank in range(self.num_masters):
                    candidate = order[sub, rank]
                    take = (chosen < 0) & pending[sub, candidate]
                    chosen[take] = candidate[take]
                winner[sub] = chosen
        lott = self._lott_lanes
        if lott.size:
            sub = lott[arb[lott]]
            if sub.size:
                winner[sub] = self._lottery(sub, pending)
        return winner

    def _lottery(self, sub, pending):
        """One lottery round for the arbitrating lottery lanes ``sub``.

        Static lanes gather their precomputed partial-sum row by packed
        request map; dynamic/compensated lanes cumsum their masked
        holdings (the AND/adder-tree datapath).  One LFSR consume per
        lane — exactly one lottery held — then the comparator bank is a
        single broadcast compare.
        """
        np = self._np
        M = self.num_masters
        pend = pending[sub]
        psums = np.empty((sub.size, M), dtype=np.int64)
        static = self._is_static[sub]
        if static.any():
            s = np.flatnonzero(static)
            packed = pend[s].astype(np.int64) @ self._pow2
            psums[s] = self.st_rows[sub[s], packed]
        dyn = ~static
        if dyn.any():
            d = np.flatnonzero(dyn)
            masked = np.where(pend[d], self.tickets[sub[d]], 0)
            psums[d] = np.cumsum(masked, axis=1)
        total = psums[:, -1]
        # total >= 1 always: every pending master holds >= 1 ticket, so
        # the scalar manager's total==0 bail (no draw, no counter) maps
        # to these lanes simply not arbitrating.
        self.lott_held[sub] += 1
        sample = self.lfsr.consume(sub)
        reject = self.policy_reject[sub]
        if reject.any():
            bound = np.where(reject, _next_pow2(np, total), total)
        else:
            bound = total
        pow2 = (bound & (bound - 1)) == 0
        value = np.where(pow2, sample & (bound - 1), sample % bound)
        win = (psums <= value[:, None]).sum(axis=1)
        missed = win >= M
        if missed.any():
            self.rej_draws[sub[missed]] += 1
            result = np.where(missed, -1, win)
        else:
            result = win
        comp = self._is_comp[sub] & ~missed
        if comp.any():
            c = np.flatnonzero(comp)
            self._note_grant(sub[c], win[c])
        return result

    def _note_grant(self, lanes, masters):
        """Compensation feedback at grant time (CompensatedLotteryArbiter
        .arbitrate -> manager.note_grant): inflate the winner's factor by
        quantum/used and recompute every clamped holding."""
        np = self._np
        burst = np.minimum(self.h_remaining[lanes, masters],
                           self.comp_arb_burst[lanes])
        used = np.minimum(burst, self.comp_policy_burst[lanes])
        self.comp_factors[lanes, masters] = (
            self.comp_policy_burst[lanes] / used
        )
        holdings = np.rint(self.comp_base[lanes] * self.comp_factors[lanes])
        np.maximum(holdings, 1.0, out=holdings)
        np.minimum(holdings, self.comp_cap[lanes, None], out=holdings)
        np.minimum(holdings, self.comp_max_ticket[lanes, None], out=holdings)
        self.tickets[lanes] = holdings.astype(np.int64)

    def _grant(self, lanes, masters, cycle):
        """Grant bookkeeping; returns the lanes that transfer this cycle."""
        np = self._np
        self.m_grants[lanes, masters] += 1
        first = self.h_first[lanes, masters] < 0
        if first.any():
            self.h_first[lanes[first], masters[first]] = cycle
        burst = np.minimum(self.h_remaining[lanes, masters],
                           self.max_burst[lanes])
        self.burst_master[lanes] = masters
        self.burst_left[lanes] = burst
        if not self._may_stall:
            return lanes
        slave = self.gen_slave[lanes, masters]
        setup = self.slave_setup[lanes, slave] + self.arb_cycles[lanes]
        wait = setup > 0
        if wait.any():
            waiting = lanes[wait]
            self.stall[waiting] = setup[wait] - 1
            self.m_stall[waiting] += 1
            return lanes[~wait]
        return lanes

    def _transfer(self, lanes, cycle):
        """Move one word on every lane in ``lanes`` (burst holders)."""
        masters = self.burst_master[lanes]
        remaining = self.h_remaining[lanes, masters] - 1
        self.h_remaining[lanes, masters] = remaining
        self.burst_left[lanes] -= 1
        self.m_words[lanes, masters] += 1
        self.m_busy[lanes] += 1
        if self._may_stall:
            slave = self.gen_slave[lanes, masters]
            self.stall[lanes] = self.slave_pw[lanes, slave]
        done = remaining == 0
        ended = self.burst_left[lanes] == 0
        release = done | ended
        if release.any():
            self.burst_master[lanes[release]] = -1
        if done.any():
            self._complete(lanes[done], masters[done], cycle)

    def _complete(self, lanes, masters, cycle):
        """Retire completed head requests: latency accounting, queue pop,
        next-head promotion (Request -> LatencyStats.record)."""
        np = self._np
        arrival = self.q_arrival[lanes, masters, 0]
        words = self.q_words[lanes, masters, 0]
        latency = cycle - arrival + 1
        self.lat_msgs[lanes, masters] += 1
        self.lat_words[lanes, masters] += words
        self.lat_total[lanes, masters] += latency
        self.lat_wait[lanes, masters] += self.h_first[lanes, masters] - arrival
        per_word = latency / words
        np.maximum(self.lat_max_lpw[lanes, masters], per_word,
                   out=per_word)
        self.lat_max_lpw[lanes, masters] = per_word
        self.lat_max_wait[lanes, masters] = np.maximum(
            self.lat_max_wait[lanes, masters],
            self.h_first[lanes, masters] - arrival,
        )
        count = self.q_count[lanes, masters] - 1
        self.q_count[lanes, masters] = count
        if self.q_arrival.shape[2] > 1:
            self.q_arrival[lanes, masters, :-1] = (
                self.q_arrival[lanes, masters, 1:]
            )
            self.q_words[lanes, masters, :-1] = (
                self.q_words[lanes, masters, 1:]
            )
        promote = count > 0
        if promote.any():
            pl = lanes[promote]
            pm = masters[promote]
            self.h_remaining[pl, pm] = self.q_words[pl, pm, 0]
            self.h_first[pl, pm] = -1
        drained = ~promote
        if drained.any():
            self.h_remaining[lanes[drained], masters[drained]] = 0

    # ------------------------------------------------------------------
    # export / verification

    def lane_summary(self, lane):
        """The lane's metrics summary — byte-for-byte what the scalar
        bus's ``metrics.summary()`` returns, floats included (the dict is
        produced by an actual MetricsCollector filled from the arrays)."""
        collector = MetricsCollector(self.num_masters)
        collector.cycles = int(self.m_cycles[lane])
        collector.busy_cycles = int(self.m_busy[lane])
        collector.idle_cycles = int(self.m_idle[lane])
        collector.stall_cycles = int(self.m_stall[lane])
        for m in range(self.num_masters):
            stats = collector.masters[m]
            stats.words = int(self.m_words[lane, m])
            stats.grants = int(self.m_grants[lane, m])
            latency = stats.latency
            latency.messages = int(self.lat_msgs[lane, m])
            latency.words = int(self.lat_words[lane, m])
            latency.total_cycles = int(self.lat_total[lane, m])
            latency.total_wait_cycles = int(self.lat_wait[lane, m])
            latency.max_latency_per_word = float(self.lat_max_lpw[lane, m])
            latency.max_wait_cycles = int(self.lat_max_wait[lane, m])
        return collector.summary()

    def lane_arbiter_state(self, lane):
        """The arbiter-side fingerprint state for one lane (mirrors
        :func:`repro.vector.lanes.arbiter_check_state`)."""
        family = self._plans[lane].profile["family"]
        if family == "lottery-static":
            return {
                "family": family,
                "lotteries_held": int(self.lott_held[lane]),
                "rejected_draws": int(self.rej_draws[lane]),
                "lfsr_state": int(self.lfsr.state[lane]),
            }
        if family == "lottery-dynamic":
            return {
                "family": family,
                "lotteries_held": int(self.lott_held[lane]),
                "tickets": tuple(int(t) for t in self.tickets[lane]),
                "lfsr_state": int(self.lfsr.state[lane]),
            }
        if family == "lottery-compensated":
            return {
                "family": family,
                "lotteries_held": int(self.lott_held[lane]),
                "tickets": tuple(int(t) for t in self.tickets[lane]),
                "factors": tuple(float(f) for f in self.comp_factors[lane]),
                "lfsr_state": int(self.lfsr.state[lane]),
            }
        return {"family": family}

    def lane_fingerprint(self, lane):
        """Pickled (summary, arbiter state) — comparable byte-for-byte
        with :func:`repro.vector.lanes.scalar_fingerprint`."""
        return pickle.dumps(
            (self.lane_summary(lane), self.lane_arbiter_state(lane)),
            protocol=2,
        )

    def cross_check(self, lane):
        """Replay one lane on the dense scalar simulator and compare.

        Rebuilds the lane's system from its plan's builder, replays the
        engine's exact run/reset schedule, and compares metrics summary
        and arbiter state.  Raises
        :class:`~repro.vector.lanes.VectorDivergenceError` on any
        difference; returns the scalar summary on success.
        """
        plan = self._plans[lane]
        system, bus = plan.builder()
        system.simulator.mode = "dense"
        for entry in self._schedule:
            if entry[0] == "run":
                system.run(entry[1])
            else:
                bus.metrics.reset()
        scalar_summary = bus.metrics.summary()
        vector_summary = self.lane_summary(lane)
        if scalar_summary != vector_summary:
            raise VectorDivergenceError(
                "lane {} ({}) metrics diverge from the dense scalar "
                "engine:\n  scalar: {!r}\n  vector: {!r}".format(
                    lane, plan.label, scalar_summary, vector_summary
                )
            )
        scalar_arbiter = arbiter_check_state(bus.arbiter)
        vector_arbiter = self.lane_arbiter_state(lane)
        if scalar_arbiter != vector_arbiter:
            raise VectorDivergenceError(
                "lane {} ({}) arbiter state diverges:\n  scalar: {!r}\n"
                "  vector: {!r}".format(
                    lane, plan.label, scalar_arbiter, vector_arbiter
                )
            )
        return scalar_summary


def _next_pow2(np, values):
    """Vectorized next_power_of_two for positive int64 ``values``."""
    exponent = np.frexp((values - 1).astype(np.float64))[1]
    return np.where(
        values <= 1, 1, np.left_shift(np.int64(1), exponent.astype(np.int64))
    )
