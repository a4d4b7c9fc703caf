"""Two-tier screened sweeps: frontier equality with the exhaustive
sweep on a pinned grid, the conservative path, and input validation."""

import pytest

from repro.analytic import CALIBRATION
from repro.experiments.screen import (
    OBJECTIVES,
    _row_score,
    run_screened_sweep,
)
from repro.experiments.sweep import run_sweep

ARBITERS = (
    "static-priority",
    "lottery-static",
    "lottery-dynamic",
    "lottery-compensated",
)
TRAFFIC = ("T1", "T5", "T8")
WEIGHTS = (12, 2, 6, 1)
TOP_K = 4

# The pinned reference settings: the calibration cycles/warmup the
# error bounds are valid at, so band_scale=1 screening is sound.
SETTINGS = dict(
    weights=WEIGHTS,
    cycles=CALIBRATION["cycles"],
    warmup=CALIBRATION["warmup"],
    seed=CALIBRATION["seed"],
    backend="vector",
)


@pytest.fixture(scope="module")
def exhaustive():
    return run_sweep(ARBITERS, TRAFFIC, **SETTINGS)


@pytest.fixture(scope="module")
def screened(exhaustive):
    return run_screened_sweep(
        ARBITERS, TRAFFIC, objective="worst_latency", top_k=TOP_K,
        **SETTINGS
    )


def test_confirmed_rows_are_bit_identical_to_exhaustive(
    screened, exhaustive
):
    by_key = {
        (row["arbiter"], row["traffic"]): row for row in exhaustive.rows
    }
    assert screened.result.rows  # something survived
    for row in screened.result.rows:
        assert row == by_key[(row["arbiter"], row["traffic"])]


def test_frontier_equals_exhaustive_top_k(screened, exhaustive):
    want = sorted(
        exhaustive.rows,
        key=lambda row: _row_score("worst_latency", row),
    )[:TOP_K]
    assert screened.frontier == want


def test_funnel_accounts_for_every_candidate(screened):
    funnel = screened.funnel
    assert funnel["scored"] == len(ARBITERS) * len(TRAFFIC)
    assert funnel["scored"] == (
        funnel["screened_out"] + funnel["survivors"]
    )
    assert funnel["confirmed"] == funnel["survivors"]
    assert funnel["screened_out"] > 0  # the screen actually screens


def test_report_shows_frontier_and_funnel(screened):
    text = screened.format_report()
    assert "Screened sweep frontier" in text
    assert "funnel:" in text
    assert "worst_latency" in text


def test_min_share_objective_preserves_frontier_too(exhaustive):
    screened = run_screened_sweep(
        ARBITERS, TRAFFIC, objective="min_share", top_k=TOP_K,
        **SETTINGS
    )
    want = sorted(
        exhaustive.rows, key=lambda row: _row_score("min_share", row)
    )[:TOP_K]
    assert screened.frontier == want


def test_unscreenable_arbiter_goes_straight_to_simulation():
    screened = run_screened_sweep(
        ("weighted-rr", "lottery-static"),
        ("T8",),
        weights=WEIGHTS,
        cycles=1_500,
        seed=3,
        top_k=1,
        band_scale=4.0,
    )
    conservative = [
        c for c in screened.candidates if c["conservative"]
    ]
    assert [c["arbiter"] for c in conservative] == ["weighted-rr"]
    assert all(c["survivor"] for c in conservative)
    assert any(
        row["arbiter"] == "weighted-rr" for row in screened.result.rows
    )


def test_weights_grid_crosses_every_vector():
    screened = run_screened_sweep(
        ("lottery-static",),
        ("T8",),
        weights=[(12, 2, 6, 1), (1, 1, 1, 1)],
        cycles=1_500,
        seed=3,
        top_k=8,
    )
    assert screened.funnel["scored"] == 2
    got = {c["weights"] for c in screened.candidates}
    assert got == {(12, 2, 6, 1), (1, 1, 1, 1)}


def test_bad_inputs_are_rejected():
    with pytest.raises(ValueError):
        run_screened_sweep(ARBITERS, TRAFFIC, objective="prettiness")
    with pytest.raises(ValueError):
        run_screened_sweep(ARBITERS, TRAFFIC, top_k=0)
    with pytest.raises(ValueError):
        run_screened_sweep(ARBITERS, TRAFFIC, backend="gpu")
    assert "worst_latency" in OBJECTIVES
