"""The batch backend: sweep/replication dispatch and per-point
fallback."""

import pytest

from repro.experiments.replication import run_replicated_testbed
from repro.experiments.sweep import run_sweep

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
            dict(arbiter_name="lottery-static", traffic_class_name="T8",
                 weights=list(WEIGHTS), cycles=600, seed=1),
            dict(arbiter_name="lottery-static", traffic_class_name="T6",
                 weights=list(WEIGHTS), cycles=600, seed=1),
            dict(arbiter_name="round-robin", traffic_class_name="T8",
                 weights=list(WEIGHTS), cycles=600, seed=1),
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
            dict(arbiter_name=name, traffic_class_name="T8",
                 weights=list(WEIGHTS), cycles=500, seed=2)
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
        results = bench.run_batch_benchmark(quick=True, repeats=1)
    finally:
        bench._batch_lane_specs = original
    assert results["all_identical"]
    assert results["lanes"] == 12
    assert results["mismatched_lanes"] == []
    assert results["platform"]["machine"]
    assert results["vector"]["lookup_table_cache"]["builds"] >= 1
