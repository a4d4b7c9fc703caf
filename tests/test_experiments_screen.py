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
    assert [c["point"].arbiter for c in conservative] == ["weighted-rr"]
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
    got = {c["point"].weights for c in screened.candidates}
    assert got == {(12, 2, 6, 1), (1, 1, 1, 1)}


def test_bad_inputs_are_rejected():
    with pytest.raises(ValueError):
        run_screened_sweep(ARBITERS, TRAFFIC, objective="prettiness")
    with pytest.raises(ValueError):
        run_screened_sweep(ARBITERS, TRAFFIC, top_k=0)
    with pytest.raises(ValueError):
        run_screened_sweep(ARBITERS, TRAFFIC, backend="gpu")
    assert "worst_latency" in OBJECTIVES


def _record_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def recorded(points, *args, **kwargs):
        calls.append(list(points))
        return original(points, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


def test_confirmed_points_are_the_scored_points(monkeypatch):
    import repro.analytic
    import repro.vector

    scored, confirmed = [], []
    _record_calls(monkeypatch, repro.analytic, "score_grid", scored)
    _record_calls(monkeypatch, repro.vector, "run_testbed_batch", confirmed)
    screened = run_screened_sweep(
        ARBITERS, ("T1", "T8"), weights=[WEIGHTS, (1, 1, 1, 1)],
        cycles=1_500, seed=3, top_k=3, band_scale=2.0, backend="vector",
    )
    assert len(scored) == len(confirmed) == 1
    survivors = [c["point"] for c in screened.candidates if c["survivor"]]
    assert confirmed[0] == survivors
    assert set(confirmed[0]) <= set(scored[0])
    for point, row in zip(confirmed[0], screened.result.rows):
        assert (row["arbiter"], row["traffic"]) == (point.arbiter,
                                                    point.traffic)
        assert point.max_burst == 16
    # The bus is the point's: no separate scoring bus to diverge from.
    with pytest.raises(TypeError):
        run_screened_sweep(ARBITERS, TRAFFIC, max_burst=8)


def test_unmodeled_kwargs_turn_only_that_candidate_conservative(
    monkeypatch
):
    import repro.analytic

    scored = []
    _record_calls(monkeypatch, repro.analytic, "score_grid", scored)
    # ticket_bits is a registry extra the simulator takes and the
    # surrogate does not model.
    screened = run_screened_sweep(
        ("lottery-static", "lottery-dynamic", "static-priority"),
        ("T8",),
        weights=WEIGHTS,
        cycles=1_500,
        seed=3,
        top_k=1,
        arbiter_kwargs={"lottery-dynamic": {"ticket_bits": 8}},
    )
    by_arbiter = {c["point"].arbiter: c for c in screened.candidates}
    unmodeled = by_arbiter["lottery-dynamic"]
    assert unmodeled["conservative"] and unmodeled["survivor"]
    assert unmodeled["score"] is None
    for name in ("lottery-static", "static-priority"):
        assert not by_arbiter[name]["conservative"]
        assert by_arbiter[name]["score"] is not None
    assert len(scored) == 1
    assert [point.arbiter for point in scored[0]] == [
        "lottery-static", "static-priority"
    ]
    assert screened.funnel["conservative"] == 1
    assert any(
        row["arbiter"] == "lottery-dynamic" for row in screened.result.rows
    )
