#!/usr/bin/env python3
"""End-to-end benchmark of the LOTTERYBUS reproduction.

Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace]
        [--smoke] [--out FILE]

With ``--workload`` one workload runs in this process; without it every
workload runs in a fresh process of its own.  All inputs derive from
``--seed``.  Each workload measures for ``run_seconds`` of
``BENCHMARK.json`` (1/20 of it with ``--smoke``).  Each run prints every
metric with its unit, checks the program's outputs and ends with one
JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with ``--trace`` the per-layer ones
(and ``out/<workload>-seed<N>/trace.jsonl``).  The exit code is 1 when
any op failed or any correctness check did not hold.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import hostclock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_DIVISOR = 20
CHILD_TIMEOUT_S = 600


def run_seconds():
    """How long one workload measures: ``run_seconds`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    # Some callers pass the run length and an explicit trace flag; the
    # length is checked against BENCHMARK.json, its one source.
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/{} length".format(
                            SMOKE_DIVISOR))
    parser.add_argument("--out", help="also write the result JSON here")
    args = parser.parse_args(argv)
    length = run_seconds()
    if args.seconds is not None and args.seconds != length:
        parser.error("run length is run_seconds of BENCHMARK.json ({}), "
                     "not {:g}".format(length, args.seconds))
    args.seconds = length / (SMOKE_DIVISOR if args.smoke else 1.0)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _isolate_temp_files():
    # Everything a run writes stays inside the checkout.
    temp = os.path.join(harness.OUT_DIR, "tmp")
    os.makedirs(temp, exist_ok=True)
    os.environ["TMPDIR"] = temp


def _import_seconds(module_name):
    """Median scaled time of importing the workload in fresh interpreters.

    Imports happen once per process, so set-up repeats them in child
    interpreters, each scaled by reference runs in the same child just
    before and after the import.
    """
    return statistics.median(_import_once(module_name)
                             for _ in range(harness.SETUP_REPS))


def _import_once(module_name):
    code = ("import importlib, statistics, sys, time; sys.path[:0] = {!r}; "
            "import hostclock; "
            "refs = [hostclock.reference_seconds() for _ in range(3)]; "
            "start = time.perf_counter(); importlib.import_module({!r}); "
            "seconds = time.perf_counter() - start; "
            "refs += [hostclock.reference_seconds() for _ in range(3)]; "
            "print(seconds, statistics.harmonic_mean(refs))").format(
                sys.path[:2], module_name)
    child = subprocess.run([sys.executable, "-c", code], check=True,
                           stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    seconds, reference_s = map(float, child.stdout.split())
    return hostclock.scale(seconds, reference_s)


def run_one(args):
    _isolate_temp_files()
    module_name, function = WORKLOADS[args.workload].split(":")
    import_s = _import_seconds(module_name)
    module = importlib.import_module(module_name)
    ctx = harness.Context(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, import_s)
    run = getattr(module, function)(ctx)
    for line in run.notes:
        print(line)
    for problem in run.problems:
        print("FAILED: " + problem)
    print("{}: {} ops attempted, {} failed, {} groups checked against "
          "expected.json".format(args.workload, run.attempted, run.failed,
                                 run.checked))
    result = run.result()
    for name, metric in result["metrics"].items():
        print("{}.{} = {} {}".format(args.workload, name, metric["value"],
                                     metric["unit"]))
    return result


def run_all(args):
    """Each workload in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in sorted(WORKLOADS):
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed)]
        if args.trace:
            command.append("--trace")
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("FAILED: {} printed no result (exit {})".format(
                workload, child.returncode))
            return None
        combined["correct"] &= bool(result["correct"]) and (
            child.returncode == 0)
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["{}.{}".format(workload, name)] = metric
    return combined


def main(argv=None):
    args = _parse(argv)
    result = run_one(args) if args.workload else run_all(args)
    if result is None:
        return 1
    line = json.dumps(result, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
