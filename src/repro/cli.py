"""Command-line interface: regenerate any paper table or figure.

Examples::

    lotterybus list
    lotterybus table1
    lotterybus figure12a --scale 0.25 --seed 7
    lotterybus all --scale 0.1
    lotterybus all --jobs 4 --timeout 3600 --checkpoint-dir ckpt
    lotterybus all --jobs 4 --checkpoint-dir ckpt --resume
    python -m repro figure5

Exit codes: 0 success, 1 one or more experiments failed, 2 bad usage,
130 interrupted (^C), 143 drained after SIGTERM (in-flight work was
finished and recorded; rerun with ``--resume`` to continue).
"""

import argparse
import sys

from repro.experiments.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.experiments.runner import (
    checkpoint_aware_experiments,
    experiment_names,
    format_full_report,
    run_all,
    run_experiment,
)

DEFAULT_CHECKPOINT_DIR = ".lotterybus-checkpoints"
DEFAULT_CACHE_DIR = ".lotterybus-cache"


def _emit(message):
    # Progress must survive `lotterybus all ... | tee log` and cron
    # captures: when stdout is not a tty stderr may be block-buffered
    # under some wrappers, so flush every line explicitly.
    print(message, file=sys.stderr, flush=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lotterybus",
        description="LOTTERYBUS (DAC 2001) reproduction experiment runner",
    )
    parser.add_argument(
        "experiment",
        help='an experiment id, "all", or "list"',
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale simulation cycle counts (default 1.0 = paper-length runs)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="root RNG seed (default 1)"
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        help=(
            "faultsweep only: sweep just {0, RATE} instead of the default "
            "fault-rate ladder"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("scalar", "vector"),
        default=None,
        help=(
            "sweep only: execution engine — scalar simulator or the "
            "vectorized batch engine; rows are bit-identical either "
            "way (default scalar)"
        ),
    )
    parser.add_argument(
        "--screen",
        action="store_true",
        help=(
            "sweep only: two-tier screened sweep — the analytic "
            "surrogate (repro.analytic) scores the whole grid and only "
            "the configurations whose error band overlaps the top-k "
            "are simulated; confirmed rows are bit-identical to the "
            "exhaustive sweep's"
        ),
    )
    parser.add_argument(
        "--screen-top-k",
        type=int,
        default=None,
        help=(
            "sweep with --screen only: frontier size the screen must "
            "preserve (default 8)"
        ),
    )
    parser.add_argument(
        "--output",
        help="also write the report to this file",
    )
    supervision = parser.add_argument_group(
        "supervised execution (checkpoint/resume)"
    )
    supervision.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            'worker processes for "all" (default: all CPUs once '
            "supervision engages; passing >1 implies supervision)"
        ),
    )
    supervision.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-experiment wall-clock limit in seconds (default unlimited)",
    )
    supervision.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries after a crash or timeout (default 1)",
    )
    supervision.add_argument(
        "--resume",
        action="store_true",
        help="skip work already recorded in the checkpoint directory",
    )
    supervision.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help=(
            "cycles between mid-run simulator checkpoints "
            "(default {}; implies checkpointing)".format(
                DEFAULT_CHECKPOINT_EVERY
            )
        ),
    )
    supervision.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory for checkpoints and the campaign result store "
            "(default {}; implies checkpointing)".format(
                DEFAULT_CHECKPOINT_DIR
            )
        ),
    )
    cache = parser.add_argument_group("result cache (campaigns)")
    cache.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "content-addressed result cache for supervised campaigns "
            "(default {}; unchanged points are served from it for "
            "free)".format(DEFAULT_CACHE_DIR)
        ),
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the campaign result cache entirely",
    )
    cache.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        help=(
            "cap the result cache directory at this many megabytes; "
            "least-recently-used entries are evicted to stay under it "
            "(default: unbounded)"
        ),
    )
    return parser


def _usage_error(message):
    print("lotterybus: error: {}".format(message), file=sys.stderr)
    return 2


def _validate(args):
    """One-line usage errors instead of tracebacks; None when valid."""
    if args.scale <= 0:
        return "--scale must be positive (got {})".format(args.scale)
    if args.backend is not None and args.experiment != "sweep":
        return "--backend applies only to the sweep experiment"
    if args.screen and args.experiment != "sweep":
        return "--screen applies only to the sweep experiment"
    if args.screen_top_k is not None:
        if not args.screen:
            return "--screen-top-k requires --screen"
        if args.screen_top_k < 1:
            return "--screen-top-k must be >= 1 (got {})".format(
                args.screen_top_k
            )
    if args.fault_rate is not None and args.experiment not in (
        "faultsweep", "all"
    ):
        return "--fault-rate applies only to faultsweep"
    if args.seed < 0:
        return "--seed must be non-negative (got {})".format(args.seed)
    if args.jobs is not None and args.jobs < 1:
        return "--jobs must be >= 1 (got {})".format(args.jobs)
    if args.no_cache and args.cache_dir is not None:
        return "--no-cache and --cache-dir are mutually exclusive"
    if args.cache_max_mb is not None:
        if args.no_cache:
            return "--cache-max-mb is meaningless with --no-cache"
        if args.cache_max_mb <= 0:
            return "--cache-max-mb must be positive (got {})".format(
                args.cache_max_mb
            )
    if args.retries < 0:
        return "--retries must be >= 0 (got {})".format(args.retries)
    if args.timeout is not None and args.timeout <= 0:
        return "--timeout must be positive (got {})".format(args.timeout)
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        return "--checkpoint-every must be >= 1 cycle (got {})".format(
            args.checkpoint_every
        )
    return None


def _wants_supervision(args):
    return (
        (args.jobs is not None and args.jobs > 1)
        or args.resume
        or args.timeout is not None
        or args.checkpoint_every is not None
        or args.checkpoint_dir is not None
    )


def _run_all_supervised(args):
    from repro.experiments.supervisor import default_jobs, run_campaign

    jobs = args.jobs if args.jobs is not None else default_jobs()
    campaign = run_campaign(
        scale=args.scale,
        seed=args.seed,
        jobs=jobs,
        timeout=args.timeout,
        retries=args.retries,
        resume=args.resume,
        checkpoint_dir=args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR,
        checkpoint_every=args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
        use_cache=not args.no_cache,
        cache_dir=(
            None if args.no_cache
            else (args.cache_dir or DEFAULT_CACHE_DIR)
        ),
        cache_max_bytes=(
            None if args.cache_max_mb is None
            else int(args.cache_max_mb * 1024 * 1024)
        ),
        on_event=_emit,
    )
    if args.resume and not campaign.skipped:
        _emit("nothing to resume: no completed tasks on record")
    return campaign.format_report(), (0 if campaign.ok else 1)


def _run_one_checkpointed(args, options):
    from repro.experiments.checkpoint import task_checkpointer

    checkpointer = task_checkpointer(
        args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR,
        every=args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
        resume=args.resume,
        on_event=_emit,
    )
    result = run_experiment(
        args.experiment,
        scale=args.scale,
        seed=args.seed,
        checkpointer=checkpointer,
        **options
    )
    return result.format_report()


def main(argv=None):
    args = build_parser().parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        return _usage_error(problem)
    options = {}
    if args.fault_rate is not None:
        options["fault_rates"] = (0.0, args.fault_rate)
    if args.backend is not None:
        options["backend"] = args.backend
    if args.screen:
        options["screen"] = True
        if args.screen_top_k is not None:
            options["screen_top_k"] = args.screen_top_k
    from repro.experiments.errors import CampaignDrained

    exit_code = 0
    try:
        if args.experiment == "list":
            report = "\n".join(experiment_names())
        elif args.experiment == "all":
            if options:
                return _usage_error("--fault-rate applies only to faultsweep")
            if _wants_supervision(args):
                report, exit_code = _run_all_supervised(args)
            else:
                results = run_all(scale=args.scale, seed=args.seed)
                report = format_full_report(results)
        else:
            try:
                if (
                    _wants_supervision(args)
                    and args.experiment in checkpoint_aware_experiments()
                ):
                    report = _run_one_checkpointed(args, options)
                else:
                    if _wants_supervision(args):
                        _emit(
                            "note: {!r} does not support checkpointing; "
                            "running it unsupervised".format(args.experiment)
                        )
                    result = run_experiment(
                        args.experiment,
                        scale=args.scale,
                        seed=args.seed,
                        **options
                    )
                    report = result.format_report()
            except ValueError as error:
                return _usage_error(str(error))
    except KeyboardInterrupt:
        _emit("lotterybus: interrupted")
        return 130
    except CampaignDrained as drained:
        _emit("lotterybus: {}".format(drained))
        _emit("lotterybus: rerun with --resume to finish the campaign")
        return 143
    print(report, flush=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
