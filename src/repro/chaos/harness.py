"""The chaos acceptance harness behind ``python -m repro.chaos``.

Three phases, each a hard check on the supervision stack:

1. **Reference** — the requested experiments run serially, fault-free,
   with no cache.  This is ground truth.
2. **Chaos campaign** — the same experiments run on the worker pool
   with a seeded :class:`~repro.chaos.plan.ChaosPlan` attacking every
   infrastructure seam at once (worker SIGKILL/SIGSTOP at dispatch,
   torn/ENOSPC result-store appends, cache-envelope byte flips,
   truncated checkpoint containers).  The campaign must converge with
   exit 0 and its final report must be **bit-identical** to phase 1.
3. **Poison demo** (skippable with ``--no-poison``) — a synthetic task
   that deterministically SIGKILLs every worker that touches it must be
   quarantined after exactly ``quarantine_after`` respawns and reported
   failed, while a clean task sharing the pool still completes.

Exit codes: 0 all phases passed, 1 a phase failed (mismatched report,
failed tasks, quarantine misbehaviour), 2 bad usage.
"""

import argparse
import os
import shutil
import sys
import tempfile

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import ChaosPlan
from repro.experiments.runner import experiment_names
from repro.experiments.supervisor import JobSpec, Supervisor, run_campaign

DEFAULT_EXPERIMENTS = ("table1",)

# Flag-activated rates: high enough that a short campaign provably
# exercises the recovery path, low enough to still converge fast.
TORN_WRITE_RATE = 0.75
CACHE_CORRUPTION_RATE = 0.75
CHECKPOINT_CORRUPTION_RATE = 0.5


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description=(
            "run a campaign under seeded infrastructure faults and "
            "verify the report is bit-identical to a fault-free run"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="root seed for both the experiments and the chaos streams",
    )
    parser.add_argument(
        "--experiments", nargs="+", default=list(DEFAULT_EXPERIMENTS),
        metavar="NAME", help="registry experiments to campaign over",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="simulation scale factor (default 0.1: a quick campaign)",
    )
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool workers for the chaos campaign")
    parser.add_argument(
        "--kill-rate", type=float, default=0.0,
        help="per-dispatch probability of SIGKILLing the worker",
    )
    parser.add_argument(
        "--stall-rate", type=float, default=0.0,
        help=(
            "per-dispatch probability of SIGSTOPping the worker "
            "(recovered by heartbeat liveness; each event costs a "
            "heartbeat timeout)"
        ),
    )
    parser.add_argument(
        "--enospc-rate", type=float, default=0.0,
        help="per-write probability of an injected ENOSPC",
    )
    parser.add_argument(
        "--torn-writes", action="store_true",
        help="tear result-store appends (rate {})".format(TORN_WRITE_RATE),
    )
    parser.add_argument(
        "--corrupt-cache", action="store_true",
        help="byte-flip fresh cache envelopes (rate {})".format(
            CACHE_CORRUPTION_RATE
        ),
    )
    parser.add_argument(
        "--corrupt-checkpoints", action="store_true",
        help="truncate checkpoint containers in workers (rate {})".format(
            CHECKPOINT_CORRUPTION_RATE
        ),
    )
    parser.add_argument(
        "--retries", type=int, default=25,
        help="retry budget per task (quarantine binds first)",
    )
    parser.add_argument(
        "--quarantine-after", type=int, default=5,
        help="consecutive crashes before a task is quarantined",
    )
    parser.add_argument(
        "--circuit-breaker", type=int, default=10,
        help="consecutive crashes before degrading to serial execution",
    )
    parser.add_argument(
        "--workdir", default=None,
        help=(
            "directory for stores/checkpoints/cache (default: a "
            "temporary directory, removed on success)"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume a previous chaos campaign in --workdir",
    )
    parser.add_argument(
        "--no-poison", action="store_true",
        help="skip the poison-task quarantine demonstration",
    )
    parser.add_argument(
        "--service", action="store_true",
        help=(
            "run the durable-service phase: start the DSE server as a "
            "subprocess, hammer it with concurrent/duplicate/malformed "
            "submissions, kill -9 and restart it mid-campaign, and "
            "verify bit-identical results with zero duplicated work"
        ),
    )
    parser.add_argument(
        "--service-kills", type=int, default=2,
        help="kill -9 / restart rounds in the service phase "
             "(default: %(default)s)",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="stream supervisor events to stderr")
    return parser


def _validate(args):
    if args.scale <= 0:
        return "--scale must be positive"
    if args.jobs < 1:
        return "--jobs must be >= 1"
    if args.retries < 0:
        return "--retries must be >= 0"
    if args.quarantine_after < 1:
        return "--quarantine-after must be >= 1"
    if args.circuit_breaker < 1:
        return "--circuit-breaker must be >= 1"
    for name in ("kill_rate", "stall_rate", "enospc_rate"):
        if not 0.0 <= getattr(args, name) <= 1.0:
            return "--{} must lie in [0, 1]".format(name.replace("_", "-"))
    if args.resume and args.workdir is None:
        return "--resume requires --workdir (temp dirs do not persist)"
    if args.service_kills < 0:
        return "--service-kills must be >= 0"
    known = set(experiment_names())
    unknown = [name for name in args.experiments if name not in known]
    if unknown:
        return "unknown experiment(s): {}".format(", ".join(unknown))
    return None


def plan_from_args(args):
    return ChaosPlan(
        kill_rate=args.kill_rate,
        stall_rate=args.stall_rate,
        torn_write_rate=TORN_WRITE_RATE if args.torn_writes else 0.0,
        enospc_rate=args.enospc_rate,
        cache_corruption_rate=(
            CACHE_CORRUPTION_RATE if args.corrupt_cache else 0.0
        ),
        checkpoint_corruption_rate=(
            CHECKPOINT_CORRUPTION_RATE if args.corrupt_checkpoints else 0.0
        ),
    )


def _emit(message):
    print(message, file=sys.stderr, flush=True)


def run_reference(args, workdir, on_event=None):
    """Phase 1: the fault-free serial ground-truth campaign."""
    return run_campaign(
        names=list(args.experiments),
        scale=args.scale,
        seed=args.seed,
        jobs=1,
        retries=0,
        checkpoint_dir=os.path.join(workdir, "reference"),
        use_cache=False,
        on_event=on_event,
    )


def run_chaos(args, workdir, injector, on_event=None):
    """Phase 2: the same campaign under the chaos schedule."""
    supervisor = Supervisor(
        jobs=args.jobs,
        retries=args.retries,
        backoff=0.05,
        quarantine_after=args.quarantine_after,
        circuit_breaker=args.circuit_breaker,
        heartbeat_interval=0.25,
        heartbeat_timeout=5.0,
        chaos=injector,
    )
    return run_campaign(
        names=list(args.experiments),
        scale=args.scale,
        seed=args.seed,
        resume=args.resume,
        checkpoint_dir=os.path.join(workdir, "chaos"),
        cache_dir=os.path.join(workdir, "chaos-cache"),
        supervisor=supervisor,
        chaos=injector,
        on_event=on_event,
    )


def poison_task_runner(spec, checkpointer):
    """Pool task runner whose ``chaos-poison`` task kills its worker.

    ``os._exit`` sidesteps every exception handler in the worker loop —
    from the supervisor's seat this is indistinguishable from an OOM
    kill or a segfaulting native extension, which is the point.
    """
    if spec.experiment == "chaos-poison":
        os._exit(23)
    if spec.experiment.startswith("chaos-"):
        return "ok:{}".format(spec.experiment)
    return spec.run(checkpointer)


def run_poison_demo(args, on_event=None):
    """Phase 3: prove bounded respawns + quarantine + forward progress.

    Returns a list of failure strings (empty = pass).
    """
    supervisor = Supervisor(
        jobs=2,
        retries=10,
        backoff=0.01,
        quarantine_after=3,
        circuit_breaker=None,
        task_runner=poison_task_runner,
    )
    specs = {name: JobSpec(name) for name in ("chaos-poison", "chaos-clean")}
    outcomes = supervisor.run(specs, on_event=on_event)
    problems = []
    poison = outcomes.get("chaos-poison")
    clean = outcomes.get("chaos-clean")
    if poison is None or poison.status != "failed":
        problems.append("poison task was not reported failed")
    elif poison.error_kind != "quarantined":
        problems.append(
            "poison task failed as {!r}, expected 'quarantined'".format(
                poison.error_kind
            )
        )
    elif poison.attempts != 3:
        problems.append(
            "poison task took {} attempts, expected exactly 3 "
            "(bounded respawns)".format(poison.attempts)
        )
    if clean is None or clean.status != "done":
        problems.append("clean task did not complete alongside the poison")
    return problems


def main(argv=None):
    args = build_parser().parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        print(
            "python -m repro.chaos: error: {}".format(problem),
            file=sys.stderr,
        )
        return 2
    on_event = _emit if args.verbose else None
    plan = plan_from_args(args)
    injector = ChaosInjector(plan, seed=args.seed)
    workdir = args.workdir
    temporary = workdir is None
    if temporary:
        workdir = tempfile.mkdtemp(prefix="lotterybus-chaos-")
    os.makedirs(workdir, exist_ok=True)

    failures = []
    total_phases = 3 + (1 if args.service else 0)
    _emit("chaos: plan {!r}".format(plan))
    _emit("chaos: phase 1/{}: fault-free serial reference".format(
        total_phases
    ))
    reference = run_reference(args, workdir, on_event=on_event)
    if not reference.ok:
        _emit("chaos: reference campaign failed; aborting")
        return 1
    _emit(
        "chaos: phase 2/{}: campaign under chaos "
        "(jobs={}, seed={})".format(total_phases, args.jobs, args.seed)
    )
    campaign = run_chaos(args, workdir, injector, on_event=on_event)
    _emit(injector.format_summary())
    if not campaign.ok:
        failures.append(
            "chaos campaign failed tasks: {}".format(
                ", ".join(sorted(campaign.failed))
            )
        )
    elif campaign.format_report() != reference.format_report():
        failures.append(
            "chaos campaign report differs from fault-free reference"
        )
    else:
        _emit(
            "chaos: report bit-identical to fault-free reference "
            "({} experiment(s))".format(len(args.experiments))
        )

    if args.no_poison:
        _emit("chaos: phase 3/{}: poison demo skipped (--no-poison)".format(
            total_phases
        ))
    else:
        _emit("chaos: phase 3/{}: poison-task quarantine".format(
            total_phases
        ))
        poison_problems = run_poison_demo(args, on_event=on_event)
        if poison_problems:
            failures.extend(poison_problems)
        else:
            _emit(
                "chaos: poison task quarantined after 3 bounded respawns; "
                "clean task unaffected"
            )

    if args.service:
        _emit(
            "chaos: phase 4/{}: durable service under kill -9 "
            "({} kill round(s))".format(total_phases, args.service_kills)
        )
        from repro.chaos.service_phase import run_service_phase

        service_problems = run_service_phase(args, workdir,
                                             on_event=on_event)
        if service_problems:
            failures.extend(service_problems)
        else:
            _emit(
                "chaos: service survived {} kill -9 round(s): results "
                "bit-identical, zero duplicated admissions, drain "
                "exited 143".format(args.service_kills)
            )

    if failures:
        for failure in failures:
            _emit("chaos: FAIL: {}".format(failure))
        _emit("chaos: workdir kept at {}".format(workdir))
        return 1
    _emit("chaos: all phases passed")
    if temporary:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
