"""``python -m repro.service`` — run the durable DSE server.

The front-end is the dependency-free stdlib server
(:mod:`repro.service.http`).

Exit codes follow the repo convention: ``0`` clean shutdown, ``2``
usage error, ``130`` SIGINT, ``143`` graceful SIGTERM drain.
"""

import argparse
import sys


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Long-running design-space-exploration server: WAL-backed "
            "job queue, admission control, crash-proof serving."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8741,
                        help="bind port (default: %(default)s; 0 = "
                             "OS-assigned)")
    parser.add_argument("--state-dir", required=True,
                        help="durable state directory (job WAL); reuse "
                             "it across restarts to resume the queue")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory "
                             "(default: no memoization)")
    parser.add_argument("--cache-max-mb", type=float, default=None,
                        help="LRU size cap for the result cache in MiB "
                             "(default: unbounded)")
    parser.add_argument("--workers", type=int, default=2,
                        help="supervisor worker-pool width "
                             "(default: %(default)s)")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="bounded-queue admission limit "
                             "(default: %(default)s)")
    parser.add_argument("--rate", type=float, default=None,
                        help="per-client sustained submissions/second "
                             "(default: unlimited)")
    parser.add_argument("--burst", type=int, default=10,
                        help="per-client instantaneous submission "
                             "allowance (default: %(default)s)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock timeout in seconds "
                             "(default: unlimited)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts after a crash/timeout "
                             "(default: %(default)s)")
    parser.add_argument("--quarantine-after", type=int, default=3,
                        help="consecutive crashes before a job is "
                             "quarantined (default: %(default)s)")
    parser.add_argument("--circuit-breaker", type=int, default=6,
                        help="consecutive crashes before the pool "
                             "degrades to serial (default: %(default)s)")
    parser.add_argument("--verbose", action="store_true",
                        help="log requests and engine events to stderr")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.workers < 1 or args.queue_depth < 1:
        print("error: --workers and --queue-depth must be >= 1",
              file=sys.stderr)
        return 2
    if args.cache_max_mb is not None and args.cache_dir is None:
        print("error: --cache-max-mb requires --cache-dir",
              file=sys.stderr)
        return 2

    on_event = None
    if args.verbose:
        def on_event(message):
            print("[service] {}".format(message), file=sys.stderr,
                  flush=True)

    # Imported late so ``--help`` costs nothing.
    from repro.service.http import core_from_args, run_server

    core = core_from_args(args, on_event=on_event)
    return run_server(core, host=args.host, port=args.port,
                      on_event=on_event)


if __name__ == "__main__":
    sys.exit(main())
