"""Command line driver: ``python -m repro.lint``.

Exit codes follow the supervisor's convention (PR 2): ``0`` clean,
``1`` unbaselined findings, ``2`` usage or input errors.
"""

import argparse
import os
import sys
import time

from repro.analysis.baseline import (
    Baseline,
    BaselineError,
    DEFAULT_BASELINE_NAME,
)
from repro.analysis.cache import DEFAULT_CACHE_NAME, LintCache
from repro.analysis.core import LintError, get_rules, lint_paths
from repro.analysis.reporters import json_report, text_report

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static determinism & contract linter for the LOTTERYBUS "
            "reproduction: per-file rules (LB1xx) plus whole-program "
            "flow rules (LB2xx)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/ tests/)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=(
            "baseline file of accepted findings (default: {} when it "
            "exists)".format(DEFAULT_BASELINE_NAME)
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file, report every finding",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help=(
            "write current findings to FILE as a baseline (justifications "
            "stubbed with TODO; edit before committing) and exit 0"
        ),
    )
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help=(
            "rewrite the baseline file without its stale entries "
            "(entries matching no current finding) before reporting"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--no-incremental", action="store_true",
        help="disable the content-hash incremental cache (always cold)",
    )
    parser.add_argument(
        "--cache-file", metavar="FILE", default=DEFAULT_CACHE_NAME,
        help="incremental cache location (default: {})".format(
            DEFAULT_CACHE_NAME
        ),
    )
    return parser


def list_rules():
    lines = []
    for rule in get_rules():
        lines.append("{}  {}".format(rule.id, rule.name))
        lines.append("    {}".format(rule.description))
    return "\n".join(lines)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return EXIT_CLEAN

    paths = args.paths or [p for p in ("src", "tests") if os.path.isdir(p)]
    if not paths:
        print("error: no paths given and no src/ or tests/ here",
              file=sys.stderr)
        return EXIT_USAGE

    select = args.select.split(",") if args.select else None
    try:
        rules = get_rules(select)
    except LintError as error:
        print("error: {}".format(error), file=sys.stderr)
        return EXIT_USAGE

    cache = None
    if not args.no_incremental:
        cache = LintCache.load(args.cache_file, [rule.id for rule in rules])

    started = time.perf_counter()
    try:
        findings = lint_paths(paths, rules=rules, cache=cache)
    except LintError as error:
        print("error: {}".format(error), file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - started
    if cache is not None:
        cache.save()
        print(cache.stats_line(), file=sys.stderr)
    print(
        "lint: completed in {:.3f}s".format(elapsed),
        file=sys.stderr,
    )

    if args.write_baseline:
        Baseline.from_findings(findings).save(args.write_baseline)
        print(
            "wrote {} entr{} to {} — fill in the justifications".format(
                len(findings),
                "y" if len(findings) == 1 else "ies",
                args.write_baseline,
            ),
            file=sys.stderr,
        )
        return EXIT_CLEAN

    accepted, stale = [], []
    if not args.no_baseline:
        baseline_path = args.baseline
        if baseline_path is None and os.path.isfile(DEFAULT_BASELINE_NAME):
            baseline_path = DEFAULT_BASELINE_NAME
        if baseline_path is None and args.prune_baseline:
            print("error: --prune-baseline needs a baseline file",
                  file=sys.stderr)
            return EXIT_USAGE
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except BaselineError as error:
                print("error: {}".format(error), file=sys.stderr)
                return EXIT_USAGE
            findings, accepted, stale = baseline.apply(findings)
            if args.prune_baseline and stale:
                kept = [
                    entry for entry in baseline.entries
                    if all(entry is not gone for gone in stale)
                ]
                Baseline(kept).save(baseline_path)
                print(
                    "pruned {} stale entr{} from {}".format(
                        len(stale), "y" if len(stale) == 1 else "ies",
                        baseline_path,
                    ),
                    file=sys.stderr,
                )
                stale = []
    if args.prune_baseline and args.no_baseline:
        print("error: --prune-baseline needs a baseline", file=sys.stderr)
        return EXIT_USAGE

    reporter = json_report if args.format == "json" else text_report
    print(reporter(findings, accepted=len(accepted), stale=stale))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
