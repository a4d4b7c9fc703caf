"""Table-driven surrogate error-bound regression tests (one row per
arbiter family x traffic class, at the pinned calibration settings).

The checked-in :data:`repro.analytic.ERROR_BOUNDS` are the contract the
two-tier screened sweep leans on; any model drift that pushes an
observed error past its bound must fail here, not in a user's screen.
"""

import pytest

from repro.analytic import (
    CALIBRATION,
    ERROR_BOUNDS,
    bound_for,
    supported_arbiters,
    validate_surrogate,
)


@pytest.fixture(scope="module")
def calibration_report():
    """One cross-validation sweep at the calibration settings; every
    parametrized case below reads its combination's row from it."""
    return validate_surrogate(backend="vector")


def test_every_supported_combination_has_a_bound():
    for arbiter_name in supported_arbiters():
        for traffic_name in CALIBRATION["traffic_classes"]:
            bound = bound_for(arbiter_name, traffic_name)
            assert bound is not None, (arbiter_name, traffic_name)
            assert bound.share > 0.0
            assert bound.utilization > 0.0
            assert bound.latency > 0.0


def test_bound_for_unknown_combination_is_none():
    assert bound_for("token-ring", "T1") is None
    assert bound_for("lottery-static", "T99") is None


def test_calibration_settings_are_pinned():
    # The bounds are only meaningful at these settings; changing them
    # requires recalibrating (python -m repro.analytic.validate
    # --suggest-bounds) and updating this pin.
    assert CALIBRATION["cycles"] == 15_000
    assert CALIBRATION["warmup"] == 1_000
    assert CALIBRATION["seed"] == 1
    assert tuple(CALIBRATION["weights"]) == (12, 2, 6, 1)
    assert tuple(CALIBRATION["traffic_classes"]) == tuple(
        "T{}".format(i) for i in range(1, 10)
    )


@pytest.mark.parametrize(
    "arbiter_name,traffic_name", sorted(ERROR_BOUNDS)
)
def test_observed_error_within_checked_in_bound(
    calibration_report, arbiter_name, traffic_name
):
    row = next(
        r
        for r in calibration_report.rows
        if r["arbiter"] == arbiter_name and r["traffic"] == traffic_name
    )
    bound = ERROR_BOUNDS[(arbiter_name, traffic_name)]
    assert row["share_error"] <= bound.share
    assert row["utilization_error"] <= bound.utilization
    assert row["latency_error"] <= bound.latency


def test_report_is_clean_and_formats(calibration_report):
    assert calibration_report.ok
    assert calibration_report.violations == []
    text = calibration_report.format_report()
    assert "Surrogate cross-validation" in text
    assert "VIOLATED" not in text
