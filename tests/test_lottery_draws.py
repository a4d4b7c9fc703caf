"""Table-driven lottery draws against their from-scratch references.

Every draw path is a cheaper form of a simpler definition, and must be
bit-identical to it on generated inputs:

* ``LFSR.sample`` looks its jump up byte by byte; the reference is the
  parity of ``state & jump_masks[i]`` per output bit, and
  ``steps_per_draw`` single clocks;
* a manager's ``draw(request_map)`` packs the map and calls
  ``draw_index``; the arbiters hand it their pending word counts;
* compensation redoes only the winner's holding per grant and sends the
  holdings in one pass; the reference recomputes every holding and
  sends them master by master.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arbiters.lottery import (
    CompensatedLotteryArbiter,
    DynamicLotteryArbiter,
    StaticLotteryArbiter,
)
from repro.core.adder_tree import masked_tickets, prefix_sums
from repro.core.compensation import CompensatedLotteryManager
from repro.core.lfsr import LFSR, MAXIMAL_TAPS
from repro.core.lookup_table import index_to_request_map
from repro.core.lottery_manager import (
    DynamicLotteryManager,
    StaticLotteryManager,
)


def _parity_sample(state, masks):
    """One sample from the jump map by per-bit parity."""
    result = 0
    for bit, mask in enumerate(masks):
        result |= (bin(state & mask).count("1") & 1) << bit
    return result


@st.composite
def registers(draw):
    width = draw(st.integers(2, 32))
    taps = draw(st.one_of(
        st.just(MAXIMAL_TAPS[width]),
        st.sets(st.integers(1, width), min_size=1).map(sorted),
    ))
    seed = draw(st.integers(1, (1 << width) - 1))
    steps = draw(st.one_of(st.none(), st.integers(1, 3 * width)))
    return width, tuple(taps), seed, steps


@settings(max_examples=200, deadline=None)
@given(registers(), st.integers(1, 24))
def test_sample_equals_parity_reference_and_stepping(register, count):
    width, taps, seed, steps = register
    table = LFSR(width, seed=seed, taps=taps, steps_per_draw=steps)
    stepped = LFSR(width, seed=seed, taps=taps, steps_per_draw=steps)
    block = LFSR(width, seed=seed, taps=taps, steps_per_draw=steps)
    masks = table.jump_masks
    state = seed
    samples = []
    for _ in range(count):
        state = _parity_sample(state, masks)
        for _ in range(stepped.steps_per_draw):
            stepped.step()
        samples.append(table.sample())
        assert samples[-1] == state == stepped.state
    assert block.sample_block(count) == samples
    assert block.state == table.state


def test_every_width_shares_one_table_set():
    for width in range(2, 33):
        first, second = LFSR(width, seed=1), LFSR(width, seed=2)
        assert first.jump_masks is second.jump_masks
        assert first._t0 is second._t0


# -- draw(request_map) == draw_index(index) --------------------------------


def _managers(kind, tickets, seed, policy):
    if kind == "static":
        return StaticLotteryManager(tickets, lfsr_seed=seed,
                                    draw_policy=policy)
    if kind == "dynamic":
        return DynamicLotteryManager(tickets, lfsr_seed=seed)
    return CompensatedLotteryManager(tickets, max_burst=16, lfsr_seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("static", "dynamic", "compensated")),
    st.lists(st.integers(1, 40), min_size=1, max_size=5),
    st.integers(1, 255),
    st.sampled_from(("reduce", "rejection")),
)
def test_draw_equals_index_draw_for_every_request_map(kind, tickets, seed,
                                                     policy):
    by_map = _managers(kind, tickets, seed, policy)
    by_index = _managers(kind, tickets, seed, policy)
    n = len(tickets)
    for index in range(1 << n):
        request_map = index_to_request_map(index, n)
        outcome = by_index.draw_index(index)
        assert by_map.draw(request_map) == outcome
        if index and kind != "static":
            # The one-loop partial sums are the adder tree's.
            assert outcome.partial_sums == tuple(
                prefix_sums(masked_tickets(request_map, by_index.tickets))
            )
    assert by_map.state_dict() == by_index.state_dict()


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((StaticLotteryArbiter, DynamicLotteryArbiter,
                     CompensatedLotteryArbiter)),
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.integers(1, 255),
    st.lists(st.lists(st.integers(0, 20), min_size=5, max_size=5),
             min_size=1, max_size=20),
)
def test_arbiter_packs_pending_like_the_request_map(arbiter_class, tickets,
                                                    seed, rounds):
    # Pending word counts draw what their boolean request map would.
    arbiter = arbiter_class(tickets, lfsr_seed=seed)
    manager = arbiter_class(tickets, lfsr_seed=seed).manager
    for pending in rounds:
        pending = pending[:len(tickets)]
        grant = arbiter.arbitrate(0, pending)
        expected = manager.draw([words > 0 for words in pending])
        assert arbiter.last_outcome == expected
        if grant is not None and arbiter_class is CompensatedLotteryArbiter:
            manager.note_grant(grant.master, min(pending[grant.master], 16))
    assert arbiter.manager.state_dict() == manager.state_dict()


# -- incremental compensation ----------------------------------------------


class _ScratchCompensation:
    """Compensation recomputed from scratch on every grant, with the
    holdings sent to a dynamic manager one master at a time."""

    def __init__(self, base, max_burst, cap, seed):
        self.base, self.max_burst, self.cap = base, max_burst, cap
        self.factors = [1.0] * len(base)
        self.manager = DynamicLotteryManager(self.holdings(), lfsr_seed=seed)

    def holdings(self):
        return [min(self.cap, max(1, round(t * f)))
                for t, f in zip(self.base, self.factors)]

    def note_grant(self, master, burst):
        self.factors[master] = self.max_burst / min(burst, self.max_burst)
        for index, count in enumerate(self.holdings()):
            self.manager.set_tickets(index, count)


_OPS = st.one_of(
    st.tuples(st.just("grant"), st.integers(0, 3), st.integers(1, 40)),
    st.tuples(st.just("draw"), st.integers(0, 15)),
    st.tuples(st.sampled_from(("disable", "restore", "roundtrip"))),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=4, max_size=4),
    st.sampled_from((4, 8, 16)),
    st.sampled_from((30, 64, 255)),
    st.integers(1, 255),
    st.lists(_OPS, max_size=60),
)
# A grant that moves a holding must drop the memoized partial sums.
@example([1, 2, 3, 4], 16, 255, 1,
         [("draw", 15), ("grant", 0, 2), ("draw", 15)])
# Updates dropped during an outage leave the table stale until the next
# grant after it rewrites every holding, also across a restore.
@example([1, 2, 3, 4], 16, 255, 1,
         [("disable",), ("grant", 0, 2), ("restore",), ("grant", 1, 2)])
@example([1, 2, 3, 4], 16, 255, 1,
         [("disable",), ("grant", 0, 2), ("roundtrip",), ("restore",),
          ("grant", 1, 2)])
def test_incremental_compensation_matches_scratch(base, max_burst, cap, seed,
                                                  ops):
    def fresh():
        return CompensatedLotteryManager(base, max_burst, lfsr_seed=seed,
                                         cap=cap)

    manager = fresh()
    scratch = _ScratchCompensation(base, max_burst, cap, seed)
    for op in ops:
        if op[0] == "grant":
            manager.note_grant(op[1], op[2])
            scratch.note_grant(op[1], op[2])
        elif op[0] == "draw":
            assert manager.draw_index(op[1]) == scratch.manager.draw_index(
                op[1]
            )
        elif op[0] == "disable":
            manager._manager.disable_ticket_channel()
            scratch.manager.disable_ticket_channel()
        elif op[0] == "restore":
            manager._manager.restore_ticket_channel()
            scratch.manager.restore_ticket_channel()
        else:
            state = manager.state_dict()
            assert set(state["policy"]) == {"_factors"}
            manager = fresh()
            manager.load_state_dict(state)
        assert manager.policy.holdings() == scratch.holdings()
        assert manager._manager.state_dict() == scratch.manager.state_dict()
