"""The analytic surrogate: closed-form exactness, input validation,
and scalar<->batch agreement."""

import pytest

from repro.analytic import (
    UnsupportedArbiterError,
    predict,
    score_grid,
    supported_arbiters,
)
from repro.analytic.families import priority_ranks
from repro.analytic.model import PERCENTILES
from repro.arbiters.registry import make_arbiter
from repro.experiments.sweep import SweepResult
from repro.experiments.system import Point

WEIGHTS = (12, 2, 6, 1)


def test_supported_arbiters_exist_in_registry():
    for name in supported_arbiters():
        make_arbiter(name, 4, list(WEIGHTS))


def test_priority_ranks_match_registry_mapping():
    for weights in [(12, 2, 6, 1), (1, 1, 1, 1), (5, 5, 2, 9)]:
        arbiter = make_arbiter("static-priority", 4, list(weights))
        assert tuple(priority_ranks(list(weights))) == arbiter.priorities


def test_saturated_tdma_shares_are_slot_proportional():
    # T8 saturates every master with fixed bursts, so the TDMA wheel's
    # closed form is exact: shares are slot proportions.
    result = predict("tdma", "T8", weights=WEIGHTS)
    total = sum(WEIGHTS)
    assert result.utilization == pytest.approx(1.0, abs=1e-4)
    for share, weight in zip(result.bandwidth_shares, WEIGHTS):
        assert share == pytest.approx(weight / total, abs=1e-4)


def test_saturated_round_robin_shares_are_equal():
    result = predict("round-robin", "T8", weights=WEIGHTS)
    for share in result.bandwidth_shares:
        assert share == pytest.approx(0.25, abs=1e-6)


def test_saturated_priority_starves_the_low_ranks():
    result = predict("static-priority", "T1", weights=WEIGHTS)
    shares = result.bandwidth_shares
    # Master 0 outranks everyone (weight 12); master 3 (weight 1) is
    # starved to a vanishing share.
    assert shares[0] == max(shares)
    assert shares[3] < 0.01


def test_lottery_shares_track_ticket_order():
    result = predict("lottery-static", "T8", weights=WEIGHTS)
    shares = result.bandwidth_shares
    assert shares[0] > shares[2] > shares[1] > shares[3]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)


def test_percentiles_are_monotone_and_cover_the_mean():
    result = predict("lottery-static", "T3", weights=WEIGHTS)
    keys = ["p{:02.0f}".format(q * 100) for q in PERCENTILES]
    assert set(result.latency_percentiles) == set(keys)
    for master in range(4):
        ladder = [result.latency_percentiles[k][master] for k in keys]
        assert ladder == sorted(ladder)
        assert ladder[0] >= 1.0  # transfer floor: one cycle per word


def test_row_matches_sweep_columns():
    row = predict("lottery-static", "T8", weights=WEIGHTS).row()
    assert set(row) == set(SweepResult.COLUMNS)
    assert row["weights"] == "12:2:6:1"


def test_unknown_arbiter_is_rejected():
    with pytest.raises(UnsupportedArbiterError):
        predict("token-ring", "T8", weights=WEIGHTS)


def test_bad_inputs_are_rejected():
    with pytest.raises(ValueError):
        predict("lottery-static", "T8", weights=(1, 0, 1, 1))
    with pytest.raises(ValueError):
        predict("lottery-static", "T8", weights=(1, 2, 3))
    with pytest.raises(ValueError):
        predict("lottery-static", "T8", weights=WEIGHTS, cap=4)
    with pytest.raises(ValueError):
        predict(
            "lottery-static", "T8", weights=WEIGHTS,
            draw_policy="discard",
        )


def test_horizon_zeroes_latencies_no_message_can_complete_in():
    free = predict("lottery-static", "T8", weights=WEIGHTS)
    assert all(lat > 0.0 for lat in free.latencies_per_word)
    clipped = predict("lottery-static", "T8", weights=WEIGHTS, horizon=1)
    assert all(lat == 0.0 for lat in clipped.latencies_per_word)


def _grid_points():
    points = []
    for arbiter_name in supported_arbiters():
        for traffic_name in ("T1", "T3", "T6", "T8"):
            for weights in (WEIGHTS, (1, 1, 1, 1)):
                points.append(Point(arbiter_name, traffic_name, weights))
    return points


def test_score_grid_matches_predict():
    points = _grid_points()
    batch = score_grid(points, horizon=15_000, percentiles=True)
    for point, result in zip(points, batch):
        scalar = predict(
            point.arbiter,
            point.traffic,
            weights=point.weights,
            horizon=15_000,
        )
        assert result.arbiter == point.arbiter
        assert result.traffic == point.traffic
        assert result.utilization == pytest.approx(
            scalar.utilization, rel=1e-6, abs=1e-9
        )
        for got, want in zip(
            result.bandwidth_shares, scalar.bandwidth_shares
        ):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
        for got, want in zip(
            result.latencies_per_word, scalar.latencies_per_word
        ):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
        for key, want_row in scalar.latency_percentiles.items():
            for got, want in zip(
                result.latency_percentiles[key], want_row
            ):
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_score_grid_rejects_unsupported_points():
    with pytest.raises(UnsupportedArbiterError):
        score_grid(
            [
                Point("lottery-static", "T8", WEIGHTS),
                Point("token-ring", "T8", WEIGHTS),
            ]
        )
