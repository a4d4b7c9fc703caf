"""The percentile rule, seeded inputs, expected-digest checks and the
metric catalog against BENCHMARK.json."""

import json
import os

import pytest

import harness
import run
from workloads import WORKLOADS, bus, dse, service


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    assert harness.percentile(samples, 0.99) == 989
    assert harness.percentile(samples[:999], 0.99) is None
    assert harness.percentile(list(range(100)), 0.90) == 89
    assert harness.percentile(list(range(99)), 0.90) is None


def test_median_needs_one_sample():
    assert harness.percentile([7.5], 0.5) == 7.5
    assert harness.percentile([3, 1, 2], 0.5) == 2
    assert harness.percentile([], 0.5) is None


def test_digest_ignores_last_ulp_float_noise():
    assert harness.digest({"a": 0.1 + 0.2}) == harness.digest({"a": 0.3})
    assert harness.digest({"a": 0.3}) != harness.digest({"a": 0.31})
    assert harness.digest([1, 2]) == harness.digest((1, 2))


@pytest.mark.parametrize("generate", [
    lambda seed: bus.saturated_inputs(seed, 0),
    lambda seed: bus.idle_inputs(seed, 0),
    lambda seed: dse.round_inputs(seed, 0),
    lambda seed: service.plan(seed, 2.0),
])
def test_seed_changes_the_generated_inputs(generate):
    assert generate(1) == generate(1)
    assert generate(1) != generate(2)


def test_passes_of_one_run_differ_but_repeat_with_the_input_period():
    assert bus.saturated_inputs(1, 0) != bus.saturated_inputs(1, 1)
    assert dse.round_inputs(1, 0) != dse.round_inputs(1, 1)


def _ctx(tmp_path, table):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"results": table}))
    return harness.Context("bus_saturated", 1, 1.0, False, False, 0.0,
                           expected=harness.Expected(str(path)))


def test_a_mismatching_digest_fails_every_op_of_the_group(tmp_path):
    inputs, results = {"ops": [1, 2]}, ["a", "b"]
    good = {harness.digest(inputs): {"result": harness.digest(results)}}
    run = harness.Run(_ctx(tmp_path, good))
    run.check_group("g", inputs, results, 2)
    assert (run.failed, run.checked) == (0, 1)

    bad = {harness.digest(inputs): {"result": "0" * 16}}
    run = harness.Run(_ctx(tmp_path, bad))
    run.check_group("g", inputs, results, 2)
    assert run.failed == 2 and not run.correct


def test_unknown_inputs_are_not_checked(tmp_path):
    run = harness.Run(_ctx(tmp_path, {}))
    run.check_group("g", {"ops": []}, [], 3)
    assert (run.failed, run.checked) == (0, 0)


def test_expected_table_covers_seeds_one_and_two():
    table = harness.Expected().table
    for seed in harness.EXPECTED_SEEDS:
        for group in range(bus.INPUT_PERIOD):
            assert harness.digest(bus.saturated_inputs(seed, group)) in table
            assert harness.digest(bus.idle_inputs(seed, group)) in table
        for group in range(dse.INPUT_PERIOD):
            for smoke in (False, True):
                inputs = dse.round_inputs(seed, group, smoke)
                assert harness.digest(inputs) in table
    assert harness.digest(service.report_inputs()) in table


def test_benchmark_json_matches_the_metric_catalog():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == harness.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.10 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_length_is_run_seconds_of_benchmark_json():
    length = run.run_seconds()
    assert run._parse([]).seconds == length
    assert run._parse(["--smoke"]).seconds == length / run.SMOKE_DIVISOR
    args = run._parse(["--seconds", str(length), "--trace", "0"])
    assert (args.seconds, args.trace) == (length, 0)
    assert run._parse(["--trace"]).trace == 1
    with pytest.raises(SystemExit):
        run._parse(["--seconds", str(length + 1)])
