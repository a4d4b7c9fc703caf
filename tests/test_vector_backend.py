"""The batch backend: sweep/replication dispatch and per-point
fallback."""

import pytest

from repro.experiments.replication import run_replicated_testbed
from repro.experiments.sweep import run_sweep
from repro.experiments.system import Point

ARCHS = ("static-priority", "lottery-static", "lottery-compensated")
WEIGHTS = (12, 2, 6, 1)


def test_sweep_backends_produce_identical_rows():
    kwargs = dict(
        weights=WEIGHTS, cycles=1200, warmup=300, seed=3
    )
    scalar = run_sweep(ARCHS, ("T1", "T6", "T8"), backend="scalar", **kwargs)
    vector = run_sweep(ARCHS, ("T1", "T6", "T8"), backend="vector", **kwargs)
    assert vector.rows == scalar.rows  # T6 exercises per-point fallback


def test_replication_backends_produce_identical_statistics():
    kwargs = dict(
        seeds=range(1, 5), cycles=900, warmup=200
    )
    scalar = run_replicated_testbed(
        "lottery-compensated", "T8", list(WEIGHTS), backend="scalar",
        **kwargs
    )
    vector = run_replicated_testbed(
        "lottery-compensated", "T8", list(WEIGHTS), backend="vector",
        **kwargs
    )
    assert (
        scalar.replication.state_dict() == vector.replication.state_dict()
    )


def test_batch_points_carry_backend_attribute():
    from repro.vector import run_testbed_batch

    batch = run_testbed_batch(
        [
            Point("lottery-static", "T8", WEIGHTS, cycles=600, seed=1),
            Point("lottery-static", "T6", WEIGHTS, cycles=600, seed=1),
            Point("round-robin", "T8", WEIGHTS, cycles=600, seed=1),
        ]
    )
    assert [result.backend for result in batch.results] == [
        "vector", "scalar", "scalar"
    ]
    assert batch.vector_points == 1 and batch.scalar_points == 2
    reasons = [reason for _, _, reason in batch.fallbacks]
    assert any("OnOffGenerator" in reason for reason in reasons)
    assert any("vector profile" in reason for reason in reasons)


def test_strict_cross_check_runs_by_default():
    from repro.vector import run_testbed_batch

    batch = run_testbed_batch(
        [
            Point(name, "T8", WEIGHTS, cycles=500, seed=2)
            for name in ARCHS
        ]
    )
    assert len(batch.checked_labels) == batch.groups == 1


def test_bad_backend_name_is_rejected():
    with pytest.raises(ValueError):
        run_sweep(("lottery-static",), ("T8",), backend="gpu")
    with pytest.raises(ValueError):
        run_replicated_testbed(
            "lottery-static", "T8", list(WEIGHTS), backend="gpu"
        )


def test_auto_backend_is_rejected():
    # numpy is a required dependency, so there is no "auto" to detect.
    with pytest.raises(ValueError):
        run_sweep(("lottery-static",), ("T8",), backend="auto")
    with pytest.raises(ValueError):
        run_replicated_testbed(
            "lottery-static", "T8", list(WEIGHTS), backend="auto"
        )


def test_quick_batch_benchmark_is_identical():
    from repro import bench

    # Shrink the workload: the full quick bench is CI-sized, not
    # unit-test-sized.
    original = bench._batch_lane_specs

    def tiny_specs(quick):
        specs, _ = original(True)
        # A static-priority slice plus a static-lottery slice (the
        # latter exercises the shared lookup-table cache).
        return specs[:6] + specs[24:30], 400

    bench._batch_lane_specs = tiny_specs
    try:
        results = bench.run_leg("batch", quick=True, repeats=1)
    finally:
        bench._batch_lane_specs = original
    assert results["ok"]
    assert results["gates"] == {"vector_equals_scalar": True}
    assert results["lanes"] == 12
    assert results["mismatched_lanes"] == []
    assert results["platform"]["machine"]
    assert results["vector"]["lookup_table_cache"]["builds"] >= 1


def test_scalar_fallback_keeps_the_compensated_quantum_apart_from_the_bus():
    # T6 is a traffic class the vector engine cannot model, so this point
    # falls back to the scalar simulator; its quantum (4) is not the
    # bus's max_burst (16), so the fallback must run the point as given.
    from repro.vector import run_testbed_batch

    point = Point("lottery-compensated", "T6", (1, 2, 3, 4), cycles=200,
                  kwargs={"max_burst": 4})
    batch = run_testbed_batch([point])
    assert batch.scalar_points == 1
    assert batch.results[0].summary == point.run().summary
