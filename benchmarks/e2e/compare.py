#!/usr/bin/env python3
"""Compare a change against its parent on the end-to-end benchmark.

    python benchmarks/e2e/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT
        [--pairs 10] [--workload NAME ...]

Runs ``--pairs`` pairs of fresh-process runs per workload, alternating
which side runs first, with pair ``i`` on seed ``1000 + i`` for both
sides.  Both checkouts must hold the same benchmark code, so the run
length (``run_seconds`` of BENCHMARK.json) is the same on both.  Then,
for every end-to-end metric of ``BENCHMARK.json``, one row per workload:

* ``better``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound, so
  "no regression" cannot be told (unless every change run beats every
  parent run, which is ``better``);
* ``same`` otherwise.

Exit code 1 if any run failed or any metric is ``worse``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600
WIN_SHARE = 0.9
SEED_BASE = 1000


def _benchmark_digest(checkout, paths):
    """Hash of BENCHMARK.json and the benchmark's files in one checkout."""
    sha = hashlib.sha256()
    with open(os.path.join(checkout, "BENCHMARK.json"), "rb") as handle:
        sha.update(handle.read())
    for path in paths:
        top = os.path.join(checkout, path)
        for directory, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs
                             if d not in ("out", "__pycache__"))
            for name in sorted(files):
                full = os.path.join(directory, name)
                sha.update(os.path.relpath(full, checkout).encode())
                with open(full, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def run_once(checkout, command, workload, seed):
    """One fresh-process run; returns its result object or None."""
    argv = [sys.executable if command[0] in ("python", "python3")
            else command[0]] + command[1:] + [
        "--workload", workload, "--seed", str(seed)]
    child = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    try:
        return json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None


def better(value, other, direction):
    return value > other if direction == "higher" else value < other


def verdict(parent, change, direction, bound):
    """Classify one metric on one workload from paired run values.

    ``parent[i]`` and ``change[i]`` come from pair ``i``.  Returns
    ``(verdict, wins)``.
    """
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    p_median = statistics.median(parent)
    c_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if wins >= WIN_SHARE * len(parent) and better(c_median, p_median,
                                                  direction) \
            and abs(c_median - p_median) > q3 - q1:
        return "better", wins
    if all(better(c, p, direction) for c in change for p in parent):
        return "better", wins
    if (q3 - q1) / p_median > bound:
        return "unresolved", wins
    worsening = (p_median - c_median if direction == "higher"
                 else c_median - p_median)
    if worsening > bound * p_median:
        return "worse", wins
    return "same", wins


def _row(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "{:.4g} [{:.4g}, {:.4g}]".format(statistics.median(values), q1,
                                            q3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.pairs < 4:
        parser.error("--pairs must be at least 4 (quartiles need them)")

    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    digests = {_benchmark_digest(side, spec["paths"])
               for side in (args.parent, args.change)}
    if len(digests) != 1:
        parser.error("the two checkouts hold different benchmark code")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values = {}  # (workload, side) -> list of result objects
    failed_runs = 0
    for index in range(args.pairs):
        seed = SEED_BASE + index
        sides = ("parent", "change") if index % 2 == 0 else (
            "change", "parent")
        for workload in workloads:
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, spec["command"], workload, seed)
                if result is None or not result["correct"]:
                    failed_runs += 1
                    print("run failed: {} {} seed {}".format(
                        side, workload, seed))
                values.setdefault((workload, side), []).append(result)

    worse = False
    widths = [max(len(m["name"]), len("unresolved")) for m in metrics]
    print("{:<16} {}".format("workload", " ".join(
        m["name"].ljust(width) for m, width in zip(metrics, widths))))
    details = []
    for workload in workloads:
        cells = []
        for metric in metrics:
            name = metric["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(values[(workload, "parent")],
                                     values[(workload, "change")])
                     if p and c and p["metrics"][name]["value"] is not None
                     and c["metrics"][name]["value"] is not None]
            if len(pairs) < 4:
                cells.append("no-data")
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            result, wins = verdict(parent, change, metric["better"],
                                   metric["bound"])
            worse |= result == "worse"
            cells.append(result)
            details.append("  {} {}: parent {} -> change {} {}, change won "
                           "{}/{} pairs: {}".format(
                               workload, name, _row(parent), _row(change),
                               metric["unit"], wins, len(pairs), result))
        print("{:<16} {}".format(workload, " ".join(
            cell.ljust(width) for cell, width in zip(cells, widths))))
    for line in details:
        print(line)
    return 1 if worse or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
