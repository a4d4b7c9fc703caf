"""Tests for the LFSR random number generator."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.lfsr import LFSR, MAXIMAL_TAPS


@pytest.mark.parametrize("width", [2, 3, 4, 5, 8, 10])
def test_maximal_period(width):
    lfsr = LFSR(width, seed=1, steps_per_draw=1)
    seen = set()
    for _ in range(lfsr.period):
        seen.add(lfsr.step())
    assert len(seen) == (1 << width) - 1
    assert 0 not in seen
    # After a full period the register returns to its seed.
    assert lfsr.state == lfsr.seed


def test_state_never_zero():
    lfsr = LFSR(6, seed=13)
    assert all(lfsr.step() != 0 for _ in range(500))


def test_draw_below_power_of_two_is_masked():
    lfsr = LFSR(12, seed=1)
    values = [lfsr.draw_below(16) for _ in range(400)]
    assert set(values) == set(range(16))


def test_draw_below_arbitrary_bound():
    lfsr = LFSR(12, seed=1)
    values = [lfsr.draw_below(7) for _ in range(300)]
    assert set(values) == set(range(7))


def test_masked_low_bits_are_nearly_uniform():
    lfsr = LFSR(12, seed=5)
    counts = [0] * 8
    samples = 8000
    for _ in range(samples):
        counts[lfsr.draw_below(8)] += 1
    for count in counts:
        assert count == pytest.approx(samples / 8, rel=0.15)


def test_word_sampling_decorrelates_consecutive_draws():
    # Consecutive single-step states are shift-correlated; a full word of
    # clocks between samples removes the correlation.  With bound 4, the
    # probability that a draw of 0 is followed by another 0 should be
    # ~1/4, not ~1/2.
    lfsr = LFSR(16, seed=9)
    draws = [lfsr.draw_below(4) for _ in range(12000)]
    followers = [b for a, b in zip(draws, draws[1:]) if a == 0]
    repeat_rate = followers.count(0) / len(followers)
    assert repeat_rate == pytest.approx(0.25, abs=0.05)


def test_reset_rewinds_sequence():
    lfsr = LFSR(8, seed=3)
    first = [lfsr.draw_below(16) for _ in range(20)]
    lfsr.reset()
    assert [lfsr.draw_below(16) for _ in range(20)] == first


def test_custom_taps_accepted():
    lfsr = LFSR(4, seed=1, taps=(4, 3))
    assert lfsr.taps == (4, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"width": 1},
        {"width": 4, "seed": 0},
        {"width": 4, "taps": (5,)},
        {"width": 4, "steps_per_draw": 0},
        {"width": 40},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        LFSR(**kwargs)


def test_all_tap_tables_are_maximal_width():
    for width, taps in MAXIMAL_TAPS.items():
        assert max(taps) == width


def test_draw_below_rejects_bad_bound():
    with pytest.raises(ValueError):
        LFSR(8).draw_below(0)


@pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS))
def test_sample_jump_matches_sequential_steps(width):
    # sample() applies a precomputed GF(2) jump map; it must be
    # bit-identical to clocking the register steps_per_draw times.
    jumped = LFSR(width, seed=1)
    stepped = LFSR(width, seed=1)
    for _ in range(50):
        expected = None
        for _ in range(stepped.steps_per_draw):
            expected = stepped.step()
        assert jumped.sample() == expected
    assert jumped.state == stepped.state


def test_sample_jump_matches_steps_with_custom_taps_and_stride():
    kwargs = {"width": 8, "seed": 77, "taps": (8, 6, 5, 4), "steps_per_draw": 5}
    jumped = LFSR(**kwargs)
    stepped = LFSR(**kwargs)
    for _ in range(200):
        for _ in range(5):
            stepped.step()
        assert jumped.sample() == stepped.state


@given(
    width=st.sampled_from(sorted(MAXIMAL_TAPS)),
    seed=st.integers(min_value=-(1 << 40), max_value=1 << 40),
)
def test_seed_with_nonzero_low_bits_keeps_its_state(width, seed):
    mask = (1 << width) - 1
    assume(seed & mask)
    assert LFSR(width, seed=seed).state == seed & mask


@given(
    width=st.sampled_from(sorted(MAXIMAL_TAPS)),
    multiple=st.integers(min_value=1, max_value=1 << 24),
)
def test_seed_without_low_bits_folds_to_a_nonzero_state(width, multiple):
    mask = (1 << width) - 1
    lfsr = LFSR(width, seed=multiple << width)
    assert 0 < lfsr.state <= mask
    assert lfsr.state == ((multiple << width) % mask or mask)
