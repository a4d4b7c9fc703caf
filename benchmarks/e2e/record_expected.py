#!/usr/bin/env python3
"""Regenerate ``expected.json``: the result digest of every group of
inputs the benchmark generates for the seeds in
``harness.EXPECTED_SEEDS``, full length and ``--smoke`` alike.

Run from the repository root after a change that is meant to alter
simulated results::

    python benchmarks/e2e/record_expected.py

A change meant only to be faster must leave the file as it is.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"),
                HERE]

import harness  # noqa: E402
from workloads import bus, dse, service  # noqa: E402


def entries(seed):
    """``(label, inputs, results)`` for every group a run can make."""
    for group in range(bus.INPUT_PERIOD):
        for spec in (bus.SATURATED, bus.IDLE):
            inputs = spec.inputs(seed, group)
            yield ("{} seed {} pass {}".format(spec.name, seed, group),
                   inputs, [spec.execute(op) for op in inputs["ops"]])
    for group in range(dse.INPUT_PERIOD):
        for smoke in (False, True):
            inputs = dse.round_inputs(seed, group, smoke)
            yield ("dse_sweep seed {} round {}{}".format(
                seed, group, " (smoke)" if smoke else ""),
                inputs, dse.run_round(inputs)[0])
    yield ("service_mixed figure5 report", service.report_inputs(),
           service.reference_report(service.cold_seed(seed, 0)))


def main():
    table = {}
    for seed in harness.EXPECTED_SEEDS:
        for label, inputs, results in entries(seed):
            table[harness.digest(inputs)] = {
                "what": label, "result": harness.digest(results),
            }
            print("{:<40} {}".format(label, table[harness.digest(inputs)]
                                     ["result"]))
    with open(harness.EXPECTED_PATH, "w") as handle:
        json.dump({"seeds": list(harness.EXPECTED_SEEDS), "results": table},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
