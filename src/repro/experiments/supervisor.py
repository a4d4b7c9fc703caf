"""Supervised, crash-safe parallel execution of experiment campaigns.

``lotterybus all`` runs every registry experiment.  At paper scale that
is hours of simulation, so the campaign must saturate the machine and
survive worker crashes, hangs, and outright loss of the supervising
process:

* tasks run on a **persistent, preloaded worker pool**: each worker
  process imports the ``repro`` experiment stack once, then serves any
  number of tasks over a duplex pipe, so per-task cost is one pickle
  round-trip instead of a fresh interpreter + import per task;
* dispatch is **deterministic**: tasks are independent, seeded points
  dispatched in submission order and assembled in campaign order, so
  ``--jobs N`` produces bit-identical campaign results to ``--jobs 1``
  regardless of which worker ran what when;
* each task has a wall-clock **timeout** — an expired worker is
  terminated (and replaced) and the task treated like a crash;
* crashed and timed-out tasks are **retried** a bounded number of times
  with exponential backoff, and checkpoint-aware experiments resume
  their retries from their own stage checkpoints instead of starting
  over.  A worker that merely *reports* an error (an exception inside
  the task) stays alive and keeps serving tasks; only a dying process
  costs a respawn;
* finished reports land in an append-only **JSONL result store** whose
  records are flushed, fsynced and CRC-stamped, so a SIGKILL between
  tasks loses at most the task in flight, a torn or corrupted tail is
  truncated back to the last valid record on load, and ``--resume``
  skips everything recorded;
* finished reports are also published to a **content-addressed result
  cache** (:mod:`repro.experiments.cache`) keyed by (experiment id,
  config, seed, schema version), so rerunning an unchanged point in a
  *later* campaign is a cache hit instead of a simulation;
* pool workers send **heartbeats** on a side thread, so a worker that
  is alive but wedged (stopped, swapped out, pipe stalled) is detected,
  killed and respawned instead of hanging the campaign;
* a task that kills ``quarantine_after`` consecutive workers is
  **quarantined** — reported as failed with a
  :class:`~repro.experiments.errors.QuarantinedTaskError` — instead of
  being retried forever (the poison-task guard);
* a **circuit breaker** watches respawn churn: after
  ``circuit_breaker`` consecutive worker crashes with no intervening
  success, the pool is torn down and the campaign degrades to serial
  in-process execution (tasks with a crash history still run on a
  single-use worker, so a poison task can never take the supervisor
  down);
* **SIGTERM drains gracefully**: in-flight tasks finish (their stage
  checkpoints are already on disk), nothing new is dispatched, and
  :class:`~repro.experiments.errors.CampaignDrained` tells the caller
  to exit 143 — a later ``--resume`` is bit-identical to a run that
  was never interrupted.

Failures are typed (:mod:`repro.experiments.errors`): retry policy,
quarantine accounting and event-log tags are driven by the error class,
not by string matching.

The infrastructure-fault seams (``chaos=`` on :class:`Supervisor`,
:class:`ResultStore` and :class:`~repro.experiments.cache.ResultCache`)
accept a :class:`repro.chaos.ChaosInjector`, which schedules worker
SIGKILL/SIGSTOP, torn store appends, cache corruption and disk-full
errors from a seeded plan; ``python -m repro.chaos`` drives a campaign
under such a schedule and verifies the final report is bit-identical to
a fault-free serial run.

Experiments are deterministic given (name, scale, seed), so a resumed,
cached, or differently-parallel campaign's combined report is
byte-identical to a serial uninterrupted one.

:func:`pool_map` exposes the same pool to intra-experiment fan-out
(sweep points, figure surfaces, replication chunks): call a module-level
function over a list of argument tuples and get results back in
submission order.
"""

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait_connections

from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.errors import (
    CampaignDrained,
    CampaignError,
    QuarantinedTaskError,
    StoreCorruptionError,
    TaskError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.experiments.runner import experiment_names, run_experiment
from repro.ioutil import RecordLog


def default_jobs():
    """CPU-count-aware worker default.

    Prefers ``os.process_cpu_count()`` (Python 3.13+, respects CPU
    affinity) and falls back to ``os.cpu_count()``; never below 1.
    """
    counter = getattr(os, "process_cpu_count", None)
    count = counter() if counter is not None else None
    if not count:
        count = os.cpu_count()
    return count or 1


class TaskOutcome:
    """What the supervisor concluded about one task.

    ``error`` is the human-readable message (a string, stable for
    existing consumers); ``error_kind`` is the machine-readable tag of
    the :class:`~repro.experiments.errors.CampaignError` subclass that
    settled the task, so logs and exit-code policy key on types.
    """

    def __init__(self, name, status, report=None, error=None, attempts=1,
                 cached=False, error_kind=None):
        self.name = name
        self.status = status  # "done" | "failed"
        self.report = report
        self.error = error
        self.attempts = attempts
        self.cached = cached
        self.error_kind = error_kind

    def record(self):
        return {
            "name": self.name,
            "status": self.status,
            "report": self.report,
            "error": self.error,
            "error_kind": self.error_kind,
            "attempts": self.attempts,
        }


class ResultStore(RecordLog):
    """Append-only JSONL store of per-task outcomes: a prefix-recovery
    :class:`~repro.ioutil.RecordLog`.

    Every appended record is durable and CRC-stamped, so corruption (a
    flipped byte, not just a torn tail) is *detected* rather than
    silently resumed from.  :meth:`load` reads the longest valid prefix:
    a torn or corrupt record ends it, the tail is truncated off the file
    and counted in ``recovered_records`` / ``recovered_bytes``, and the
    affected tasks simply rerun.  Only an unreadable-but-present file
    raises, as :class:`~repro.experiments.errors.StoreCorruptionError`.

    :param chaos: optional :class:`repro.chaos.ChaosInjector`; when
        given, appends may be deliberately torn or rejected with
        ``ENOSPC`` so chaos campaigns prove the recovery path.
    """

    def __init__(self, path, chaos=None):
        super().__init__(
            path, "prefix",
            None if chaos is None else chaos.mangle_store_append,
        )

    def load(self, repair=True):
        """{name: record} for every successfully recorded task.

        With ``repair=True`` (the default) a torn or corrupt tail is
        physically truncated off the file; ``repair=False`` only skips
        it for this load.
        """
        try:
            records = self.read(repair)
        except OSError as error:
            raise StoreCorruptionError(
                "cannot read result store {}: {}".format(self.path, error)
            )
        return {
            record["name"]: record
            for record in records
            if record.get("status") == "done"
            and isinstance(record.get("name"), str)
        }


class JobSpec:
    """One run of one registry experiment: ``(experiment, scale, seed,
    options)``, the unit a campaign task, a service job and a chaos
    reference all describe.

    Identity is the content-addressed :meth:`key`: two specs with the
    same four fields are the *same* work, no matter who asked for it or
    when, so campaigns, the service and the chaos harness share one
    memo table.
    """

    __slots__ = ("experiment", "scale", "seed", "options")

    def __init__(self, experiment, scale=1.0, seed=1, options=None):
        self.experiment = experiment
        self.scale = scale
        self.seed = seed
        self.options = dict(options or {})

    def key(self):
        """The result-cache key, which is also the service's
        idempotency key."""
        return cache_key(
            self.experiment,
            {"scale": self.scale, "options": self.options},
            self.seed,
        )

    def run(self, checkpointer=None):
        """Run the experiment in this process; returns the report text."""
        options = dict(self.options)
        if checkpointer is not None:
            options["checkpointer"] = checkpointer
        result = run_experiment(
            self.experiment, scale=self.scale, seed=self.seed,
            _warn_seedless=False, **options
        )
        return result.format_report()

    def as_dict(self):
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a spec from its ``as_dict`` form (WAL replay path).

        Replay trusts the WAL's CRC, not the registry: an experiment
        renamed between restarts still replays (and then fails typed at
        execution time) instead of wedging recovery.
        """
        return cls(
            payload["experiment"],
            scale=payload.get("scale", 1.0),
            seed=payload.get("seed", 1),
            options=payload.get("options") or {},
        )

    def __repr__(self):
        return "JobSpec({!r}, scale={}, seed={})".format(
            self.experiment, self.scale, self.seed
        )


def _run_task(task_runner, spec, checkpoint, resume):
    """Run one task attempt in this process; returns the report text.

    Pool workers and degraded in-process execution both come through
    here, so a task checkpoints identically whichever ran it.
    ``checkpoint`` is ``None`` or the task's ``(directory, every)``.
    """
    checkpointer = None
    if checkpoint is not None:
        from repro.experiments.checkpoint import task_checkpointer

        directory, every = checkpoint
        checkpointer = task_checkpointer(
            directory, every=every, resume=resume
        )
    return task_runner(spec, checkpointer)


def _die_with_parent():
    """Linux: SIGKILL this worker the moment its parent process dies.

    Forked workers inherit each other's pipe file descriptors, so after
    a ``kill -9`` of the parent the orphans can keep every pipe open
    among themselves — ``conn.recv()`` never sees EOF and the orphans
    linger forever, still holding inherited sockets (which blocks a
    service restart from rebinding its port).  ``PR_SET_PDEATHSIG``
    severs that: no parent, no workers, no leaked listeners.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG
    except (OSError, AttributeError, ValueError, TypeError):
        return  # non-Linux: orphan cleanup falls back to pipe EOF
    if os.getppid() == 1:
        # The parent died in the fork-to-prctl window; the death signal
        # will never fire, so leave now instead of lingering as the
        # orphan the prctl was meant to prevent.
        os._exit(1)


def _heartbeat_sender(conn, lock, interval, stop):
    """Side thread: prove the worker process is scheduling.

    A wedged worker (SIGSTOPped, swapped to death, stalled on a dead
    pipe) stops beating; the parent's liveness check then kills and
    replaces it.  Send failures mean the parent is gone — just stop.
    """
    while not stop.wait(interval):
        try:
            with lock:
                conn.send(("heartbeat",))
        except (OSError, ValueError, BrokenPipeError):
            return  # the parent is gone; stop beating


def _serve_pool_tasks(conn, task_runner, heartbeat_interval=None,
                      chaos_setup=None):
    """A persistent pool worker: preload once, serve tasks until told
    to stop.

    Protocol (parent -> worker): ``("task", spec, checkpoint, resume)``,
    ``("call", func, args, kwargs)``, ``("stop",)``.
    Worker -> parent: ``("ok", payload)``, ``("error", message)``, plus
    unsolicited ``("heartbeat",)`` frames from a side thread when
    ``heartbeat_interval`` is set.

    An exception inside a task is *reported*, not fatal — the worker
    stays warm for the next task.  Only process death (os._exit, OOM
    kill, signal) costs the supervisor a respawn.

    ``chaos_setup`` is the worker half of the infrastructure-fault
    seam: ``(plan_state, seed, worker_id)`` installs a seeded
    write-fault hook (ENOSPC, checkpoint corruption) into
    :mod:`repro.ioutil` before any task runs.
    """
    _die_with_parent()
    # The expensive part of a fresh worker is importing the experiment
    # stack; do it exactly once, before the first task arrives.
    import repro.experiments.runner  # noqa: F401  (preload)

    if chaos_setup is not None:
        from repro.chaos.injector import install_worker_chaos

        install_worker_chaos(*chaos_setup)

    send_lock = threading.Lock()
    stop_beating = threading.Event()
    if heartbeat_interval is not None:
        threading.Thread(
            target=_heartbeat_sender,
            args=(conn, send_lock, heartbeat_interval, stop_beating),
            daemon=True,
        ).start()

    def send(message):
        with send_lock:
            conn.send(message)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "task":
                send(("ok", _run_task(task_runner, *message[1:])))
            elif kind == "call":
                _, func, args, kwargs = message
                send(("ok", func(*args, **(kwargs or {}))))
            else:
                send(("error", "unknown message {!r}".format(kind)))
        except KeyboardInterrupt:
            break
        except BaseException as error:
            try:
                send(("error", "{}: {}".format(type(error).__name__, error)))
            except (OSError, ValueError):
                break
    stop_beating.set()
    conn.close()


class _PoolWorker:
    """Parent-side handle for one persistent worker process."""

    _next_id = 0

    def __init__(self, context, task_runner, heartbeat_interval=None,
                 worker_chaos=None):
        _PoolWorker._next_id += 1
        self.id = _PoolWorker._next_id
        chaos_setup = (
            None if worker_chaos is None
            else tuple(worker_chaos) + (self.id,)
        )
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = context.Process(
            target=_serve_pool_tasks,
            args=(child_conn, task_runner, heartbeat_interval, chaos_setup),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.tasks_done = 0
        self.last_heartbeat = time.monotonic()

    def send(self, message):
        self.conn.send(message)

    def poll_message(self):
        """The next pending non-heartbeat message, or ``None``.

        Heartbeat frames are consumed here (refreshing
        ``last_heartbeat``); a broken pipe surfaces as ``("crashed",)``
        so callers fold it into the worker-death path.
        """
        while True:
            try:
                if not self.conn.poll():
                    return None
                message = self.conn.recv()
            except (EOFError, OSError):
                return ("crashed",)
            if message[0] == "heartbeat":
                self.last_heartbeat = time.monotonic()
                continue
            return message

    def alive(self):
        return self.process.is_alive()

    def stop(self, grace=2.0):
        """Ask the worker to exit; escalate to terminate/kill."""
        if self.process.is_alive():
            try:
                self.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass  # pipe is dead; terminate()/kill below still reap it
        try:
            self.conn.close()
        except OSError:
            pass  # already closed
        self.process.join(timeout=grace)
        self.terminate()

    def terminate(self):
        if not self.process.is_alive():
            self.process.join(timeout=0.1)
            return
        self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


class WorkerPool:
    """A set of persistent worker processes sharing one task protocol.

    :param jobs: maximum concurrent workers (spawned lazily).
    :param task_runner: the in-worker task executor of
        ``(spec, checkpointer)`` (injectable for tests); must be a
        module-level callable.
    :param heartbeat_interval: seconds between worker heartbeat frames
        (``None`` disables heartbeats — e.g. :func:`pool_map`, whose
        protocol has no liveness checks).
    :param worker_chaos: ``(plan_state, seed)`` installing worker-side
        infrastructure faults; each spawned worker derives its own
        stream from its worker id.
    """

    def __init__(self, jobs=None, task_runner=JobSpec.run, context=None,
                 heartbeat_interval=None, worker_chaos=None):
        if jobs is None:
            jobs = default_jobs()
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.task_runner = task_runner
        self.heartbeat_interval = heartbeat_interval
        self.worker_chaos = worker_chaos
        self._context = context or multiprocessing.get_context()
        self.idle = []
        self.spawned = 0

    def checkout(self, active):
        """An idle worker, or a fresh one if under the jobs cap.

        ``active`` is the number of workers currently busy; returns
        ``None`` when the pool is saturated.
        """
        while self.idle:
            worker = self.idle.pop(0)
            if worker.alive():
                return worker
            worker.terminate()
        if active + len(self.idle) < self.jobs:
            self.spawned += 1
            return _PoolWorker(
                self._context, self.task_runner,
                heartbeat_interval=self.heartbeat_interval,
                worker_chaos=self.worker_chaos,
            )
        return None

    def checkin(self, worker):
        """Return a worker after a served task (alive workers only)."""
        worker.tasks_done += 1
        if worker.alive():
            self.idle.append(worker)
        else:
            worker.terminate()

    def discard(self, worker):
        """Drop a crashed / timed-out worker permanently."""
        worker.terminate()
        try:
            worker.conn.close()
        except OSError:
            pass  # already closed

    def stop(self):
        for worker in self.idle:
            worker.stop()
        self.idle = []

    def terminate_all(self, extra=()):
        for worker in list(self.idle) + list(extra):
            worker.terminate()
        self.idle = []


def pool_map(func, calls, jobs=None):
    """Apply a module-level ``func`` over argument tuples, in parallel.

    The intra-experiment fan-out primitive: sweep points, figure
    surface cells and replication chunks are pure functions of their
    arguments, so results depend only on ``calls`` — never on ``jobs``
    or scheduling — and are returned in submission order.  ``jobs`` of
    ``None`` or 1 runs inline (no processes); errors raise
    :class:`RuntimeError` with the worker's message.
    """
    calls = [tuple(call) for call in calls]
    if jobs is None or jobs <= 1 or len(calls) <= 1:
        return [func(*call) for call in calls]
    pool = WorkerPool(jobs=min(jobs, len(calls)))
    results = [None] * len(calls)
    busy = {}  # worker -> call index
    next_index = 0
    try:
        while next_index < len(calls) or busy:
            while next_index < len(calls):
                worker = pool.checkout(len(busy))
                if worker is None:
                    break
                worker.send(("call", func, calls[next_index], None))
                busy[worker] = next_index
                next_index += 1
            ready = _wait_connections(
                [worker.conn for worker in busy], timeout=0.05
            )
            for worker in list(busy):
                if worker.conn not in ready and worker.alive():
                    continue
                index = busy[worker]
                try:
                    status, payload = worker.conn.recv()
                except (EOFError, OSError):
                    status, payload = None, None
                del busy[worker]
                if status == "ok":
                    results[index] = payload
                    pool.checkin(worker)
                    continue
                pool.discard(worker)
                # pool_map is the low-level fan-out seam (preload and
                # benchmarks), documented to raise RuntimeError; the
                # campaign retry/quarantine machinery never calls it —
                # Supervisor.run has its own dispatch loop.
                raise RuntimeError(  # lb: noqa[LB204]
                    "pool_map call {} failed: {}".format(
                        index,
                        payload if status == "error" else "worker crashed",
                    )
                )
    except BaseException:
        pool.terminate_all(extra=busy)
        raise
    pool.stop()
    return results


def _ignore_event(message):
    """The event sink when the caller passed none."""


class _Task:
    """One attempt at a labelled task, with its wall-clock deadline."""

    def __init__(self, label, attempt, deadline=None):
        self.label = label
        self.attempt = attempt
        self.deadline = deadline


class Supervisor:
    """Runs labelled job specs on a supervised persistent worker pool.

    :param jobs: maximum concurrently running workers (``None`` = all
        CPUs, via :func:`default_jobs`).
    :param timeout: per-task wall-clock seconds (``None`` = unlimited).
    :param retries: extra attempts after the first (0 = fail fast).
    :param backoff: base seconds of delay before retry ``n`` (doubled
        each further attempt).
    :param poll_interval: supervisor loop sleep between health checks.
    :param task_runner: in-pool task executor (injectable for tests);
        must be a module-level callable of ``(spec, checkpointer)``
        returning the report text.
    :param heartbeat_interval: seconds between worker heartbeat frames
        (``None`` disables liveness checks).
    :param heartbeat_timeout: seconds of heartbeat silence after which
        a busy worker is declared wedged, killed and replaced.
    :param quarantine_after: consecutive worker crashes (for one task)
        before the task is quarantined instead of retried — the poison
        task guard (``None`` disables).
    :param circuit_breaker: consecutive worker crashes (across tasks,
        reset by any success) before the pool degrades to serial
        in-process execution (``None`` disables).
    :param chaos: a :class:`repro.chaos.ChaosInjector` scheduling
        infrastructure faults (worker kills/stalls and, via the worker
        seam, write faults); ``None`` in production.
    :param drain_on_sigterm: install a SIGTERM handler for the duration
        of :meth:`run` that drains gracefully (finish in-flight work,
        dispatch nothing new, raise
        :class:`~repro.experiments.errors.CampaignDrained`).  Only
        engages on the main thread.
    """

    def __init__(self, jobs=None, timeout=None, retries=1, backoff=0.5,
                 poll_interval=0.05, task_runner=JobSpec.run,
                 heartbeat_interval=0.5, heartbeat_timeout=10.0,
                 quarantine_after=3,
                 circuit_breaker=6, chaos=None, drain_on_sigterm=True):
        if jobs is None:
            jobs = default_jobs()
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive when given")
        if quarantine_after is not None and quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1 when given")
        if circuit_breaker is not None and circuit_breaker < 1:
            raise ValueError("circuit_breaker must be >= 1 when given")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive when given")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive when given")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.poll_interval = poll_interval
        self.task_runner = task_runner
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            None if heartbeat_interval is None else heartbeat_timeout
        )
        self.quarantine_after = quarantine_after
        self.circuit_breaker = circuit_breaker
        self.chaos = chaos
        self.drain_on_sigterm = drain_on_sigterm
        self._context = multiprocessing.get_context()
        self.workers_spawned = 0
        self.breaker_opened = False
        self._crash_counts = {}
        self._crash_streak = 0
        self._draining = False
        self._drain_announced = False
        self._specs = {}
        self._checkpoints = {}
        self._resume = False

    def request_drain(self):
        """Stop dispatching; finish in-flight tasks; then raise
        :class:`~repro.experiments.errors.CampaignDrained`.  Called by
        the SIGTERM handler, callable directly (e.g. from tests or an
        embedding service)."""
        # Single-transition bool flag (False -> True), polled by the
        # dispatch loop.  It must stay lock-free: this runs inside a
        # signal handler, where taking a lock the interrupted thread
        # may hold would deadlock.  A GIL-atomic store is the point.
        self._draining = True  # lb: noqa[LB201]

    def _handle_sigterm(self, signum, frame):
        self.request_drain()

    def run(self, specs, store=None, on_event=None, resume=False,
            checkpoints=None):
        """Run every task; returns {label: TaskOutcome}.

        ``specs`` maps each task's label (a campaign's experiment name,
        a service's job id) to its :class:`JobSpec`; tasks dispatch in
        its order.  ``checkpoints`` maps the labels of checkpoint-aware
        tasks to their ``(directory, every)``; ``resume`` makes their
        first attempts resume from those checkpoints, as every retry
        does.

        Completed tasks are appended to ``store`` as they finish.  A
        KeyboardInterrupt terminates all workers before propagating, so
        ^C never leaves orphaned simulations running.  A SIGTERM drains
        instead: in-flight tasks finish, the rest stay pending, and
        :class:`~repro.experiments.errors.CampaignDrained` (carrying
        the settled outcomes) is raised so the caller can exit 143 and
        later ``--resume``.
        """
        self._specs = dict(specs)
        self._checkpoints = dict(checkpoints or {})
        self._resume = resume
        self._crash_counts = {}
        self._crash_streak = 0
        self._draining = False
        self._drain_announced = False
        self.breaker_opened = False
        previous_handler = None
        installed = False
        if self.drain_on_sigterm:
            try:
                if threading.current_thread() is threading.main_thread():
                    previous_handler = signal.signal(
                        signal.SIGTERM, self._handle_sigterm
                    )
                    installed = True
            except (ValueError, OSError):
                pass  # embedded interpreters without signal support
        try:
            outcomes = self._run_pooled(store, on_event)
        finally:
            if installed:
                signal.signal(signal.SIGTERM, previous_handler)
        if self._draining:
            pending = [
                label for label in self._specs if label not in outcomes
            ]
            if pending:
                raise CampaignDrained(outcomes, pending)
        return outcomes

    # -- shared bookkeeping ------------------------------------------------

    def _task_args(self, task):
        """``(spec, checkpoint, resume)`` for one attempt: the payload of
        its ``("task", ...)`` frame and of :func:`_run_task`."""
        return (
            self._specs[task.label],
            self._checkpoints.get(task.label),
            self._resume or task.attempt > 1,
        )

    def _make_settle(self, outcomes, store, emit):
        def settle(task, status, report=None, error=None):
            name = task.label
            if status == "done":
                # Success resets the poison and churn accounting.
                self._crash_counts.pop(name, None)
                self._crash_streak = 0
            outcome = TaskOutcome(
                name, status, report=report,
                error=None if error is None else str(error),
                error_kind=(
                    getattr(error, "kind", "campaign-error")
                    if error is not None else None
                ),
                attempts=task.attempt,
            )
            outcomes[name] = outcome
            if store is not None:
                try:
                    store.append(outcome.record())
                except OSError as store_error:
                    # A full disk must not kill the campaign: the
                    # outcome stays in memory (and in the final
                    # report); only resumability of this record is
                    # lost.
                    emit(
                        "result store append failed for task {} ({}); "
                        "continuing without persistence".format(
                            name, store_error
                        )
                    )
        return settle

    def _make_retry_or_fail(self, pending, settle, emit):
        def retry_or_fail(task, error):
            name = task.label
            if not isinstance(error, CampaignError):
                error = TaskError(str(error))
            if error.counts_as_crash:
                self._crash_counts[name] = (
                    self._crash_counts.get(name, 0) + 1
                )
                self._crash_streak += 1
                if (
                    self.quarantine_after is not None
                    and self._crash_counts[name] >= self.quarantine_after
                ):
                    quarantined = QuarantinedTaskError(
                        "quarantined after {} consecutive worker crashes "
                        "(last: {})".format(self._crash_counts[name], error)
                    )
                    emit(
                        "task {}: {} [{}]".format(
                            name, quarantined, quarantined.kind
                        )
                    )
                    settle(task, "failed", error=quarantined)
                    return
            if error.retryable and task.attempt <= self.retries:
                delay = self.backoff * (2 ** (task.attempt - 1))
                emit(
                    "task {}: {}; retrying in {:.1f}s (attempt {}/{}) "
                    "[{}]".format(
                        name, error, delay, task.attempt + 1,
                        self.retries + 1, error.kind,
                    )
                )
                pending.append(
                    (name, task.attempt + 1, time.monotonic() + delay)
                )
            else:
                emit(
                    "task {}: {}; giving up [{}]".format(
                        name, error, error.kind
                    )
                )
                settle(task, "failed", error=error)
        return retry_or_fail

    def _announce_drain(self, emit, pending):
        if self._draining and not self._drain_announced:
            self._drain_announced = True
            emit(
                "SIGTERM: draining — finishing in-flight tasks, {} pending "
                "task(s) deferred to --resume".format(len(pending))
            )

    # -- pooled execution --------------------------------------------------

    def _run_pooled(self, store, on_event):
        emit = on_event if on_event is not None else _ignore_event
        pending = deque((label, 1, 0.0) for label in self._specs)
        outcomes = {}
        settle = self._make_settle(outcomes, store, emit)
        retry_or_fail = self._make_retry_or_fail(pending, settle, emit)
        worker_chaos = (
            None if self.chaos is None else self.chaos.worker_setup()
        )
        pool = WorkerPool(
            jobs=self.jobs, task_runner=self.task_runner,
            context=self._context,
            heartbeat_interval=self.heartbeat_interval,
            worker_chaos=worker_chaos,
        )
        busy = {}  # worker -> _Task
        try:
            while pending or busy:
                if self._draining and not busy:
                    self._announce_drain(emit, pending)
                    break
                now = time.monotonic()
                self._announce_drain(emit, pending)
                # Dispatch whatever is due onto idle/fresh workers, in
                # deterministic submission order.  A drain stops
                # dispatch entirely; in-flight tasks still finish.
                blocked = []
                while pending and not self._draining:
                    label, attempt, not_before = pending.popleft()
                    if not_before > now:
                        blocked.append((label, attempt, not_before))
                        continue
                    worker = pool.checkout(len(busy))
                    if worker is None:
                        blocked.append((label, attempt, not_before))
                        break
                    deadline = (
                        None if self.timeout is None
                        else now + self.timeout
                    )
                    task = _Task(label, attempt, deadline)
                    worker.send(("task",) + self._task_args(task))
                    # The liveness clock starts at dispatch so a long
                    # idle gap can never count against the worker.
                    worker.last_heartbeat = now
                    busy[worker] = task
                    emit(
                        "task {}: started (attempt {}/{}) on worker {}".format(
                            label, attempt, self.retries + 1, worker.id
                        )
                    )
                    if self.chaos is not None:
                        action = self.chaos.sabotage_dispatch(worker)
                        if action:
                            emit(
                                "chaos: {} worker {} (task {})".format(
                                    action, worker.id, label
                                )
                            )
                pending.extendleft(reversed(blocked))

                if busy:
                    _wait_connections(
                        [worker.conn for worker in busy],
                        timeout=self.poll_interval,
                    )
                elif pending:
                    time.sleep(self.poll_interval)

                now = time.monotonic()
                for worker in list(busy):
                    task = busy[worker]
                    finished, crashed = self._collect_pooled(
                        worker, task, settle, retry_or_fail, emit, now
                    )
                    if not finished:
                        continue
                    del busy[worker]
                    if crashed:
                        pool.discard(worker)
                    else:
                        pool.checkin(worker)

                if (
                    self.circuit_breaker is not None
                    and self._crash_streak >= self.circuit_breaker
                    and (pending or busy)
                ):
                    self._open_breaker(pool, busy, pending, emit)
                    busy = {}
                    self._run_degraded(pending, settle, retry_or_fail, emit)
                    return outcomes
        except KeyboardInterrupt:
            pool.terminate_all(extra=busy)
            raise
        pool.stop()
        self.workers_spawned = pool.spawned
        return outcomes

    def _collect_pooled(self, worker, task, settle, retry_or_fail, emit,
                        now):
        """One health check; returns (finished, worker_crashed)."""
        message = worker.poll_message()
        if message is not None:
            if message[0] == "ok":
                emit("task {}: done".format(task.label))
                settle(task, "done", report=message[1])
                return True, False
            if message[0] == "error":
                retry_or_fail(task, TaskError(message[1]))
                return True, False
            # ("crashed",) from a broken pipe, or an unparseable frame
            # from a corrupted worker: either way the worker is gone.
            retry_or_fail(
                task,
                WorkerCrashError(
                    "worker crashed (exit code {})".format(
                        worker.process.exitcode
                    )
                ),
            )
            return True, True
        if task.deadline is not None and now > task.deadline:
            retry_or_fail(
                task,
                TaskTimeoutError(
                    "timed out after {:.0f}s".format(self.timeout)
                ),
            )
            return True, True
        if not worker.alive():
            retry_or_fail(
                task,
                WorkerCrashError(
                    "worker crashed (exit code {})".format(
                        worker.process.exitcode
                    )
                ),
            )
            return True, True
        if (
            self.heartbeat_timeout is not None
            and now - worker.last_heartbeat > self.heartbeat_timeout
        ):
            silence = now - worker.last_heartbeat
            worker.terminate()
            retry_or_fail(
                task,
                WorkerCrashError(
                    "worker wedged (no heartbeat for {:.1f}s); "
                    "killed".format(silence)
                ),
            )
            return True, True
        return False, False

    # -- degraded (post-circuit-breaker) execution -------------------------

    def _open_breaker(self, pool, busy, pending, emit):
        """Tear the pool down; requeue in-flight tasks for serial runs.

        Requeued tasks keep their attempt number (the breaker trip is
        not their fault and does not count against them) and go to the
        *front* of the queue in dispatch order, preserving the
        campaign's deterministic task ordering.
        """
        self.breaker_opened = True
        emit(
            "circuit breaker open: {} consecutive worker crashes; "
            "degrading to serial in-process execution".format(
                self._crash_streak
            )
        )
        requeue = [
            (task.label, task.attempt, 0.0) for task in busy.values()
        ]
        pool.terminate_all(extra=list(busy))
        self.workers_spawned = pool.spawned
        pending.extendleft(reversed(requeue))

    def _run_degraded(self, pending, settle, retry_or_fail, emit):
        """Serial fallback once the circuit breaker has opened.

        Clean tasks run in-process (no fork, no pipe — nothing left to
        chaos-kill); tasks with a crash history run on a single-use
        worker without chaos, health-checked like a pooled one, so a
        poison task still cannot take the supervisor down.
        """
        while pending:
            self._announce_drain(emit, pending)
            if self._draining:
                return
            label, attempt, not_before = pending.popleft()
            wait = not_before - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            task = _Task(label, attempt)
            contained = bool(self._crash_counts.get(label))
            emit(
                "task {}: started (attempt {}/{}) [degraded, {}]".format(
                    label, attempt, self.retries + 1,
                    "contained" if contained else "in-process",
                )
            )
            if contained:
                self._run_contained(task, settle, retry_or_fail, emit)
                continue
            try:
                report = _run_task(self.task_runner, *self._task_args(task))
            except Exception as error:
                retry_or_fail(
                    task,
                    TaskError(
                        "{}: {}".format(type(error).__name__, error)
                    ),
                )
            else:
                emit("task {}: done".format(label))
                settle(task, "done", report=report)

    def _run_contained(self, task, settle, retry_or_fail, emit):
        """Run one task on a fresh worker that serves only it."""
        worker = _PoolWorker(
            self._context, self.task_runner,
            heartbeat_interval=self.heartbeat_interval,
        )
        self.workers_spawned += 1
        now = time.monotonic()
        if self.timeout is not None:
            task.deadline = now + self.timeout
        worker.last_heartbeat = now
        crashed = True
        try:
            worker.send(("task",) + self._task_args(task))
            finished = False
            while not finished:
                _wait_connections([worker.conn], timeout=self.poll_interval)
                finished, crashed = self._collect_pooled(
                    worker, task, settle, retry_or_fail, emit,
                    time.monotonic(),
                )
        finally:
            if crashed:
                worker.terminate()
            else:
                worker.stop()


class CampaignReport:
    """The assembled outcome of a supervised campaign."""

    def __init__(self, sections, skipped, failed, cached=None,
                 cache_stats=None):
        self.sections = sections  # [(name, report_text or None)]
        self.skipped = skipped  # names reused from the result store
        self.failed = failed  # {name: error}
        self.cached = cached or []  # names served by the result cache
        self.cache_stats = cache_stats  # CacheStats or None

    @property
    def ok(self):
        return not self.failed

    def format_report(self):
        lines = []
        for name, report in self.sections:
            lines.append("=" * 72)
            lines.append("[{}]".format(name))
            if report is None:
                lines.append(
                    "FAILED: {}".format(self.failed.get(name, "unknown"))
                )
            else:
                lines.append(report)
            lines.append("")
        return "\n".join(lines)

    def format_cache_summary(self):
        """Cache accounting block (empty string without a cache)."""
        if self.cache_stats is None:
            return ""
        from repro.metrics.report import format_kv_section

        stats = self.cache_stats.as_dict()
        stats["hit_rate"] = "{:.1%}".format(self.cache_stats.hit_rate)
        stats["cached_tasks"] = (
            ", ".join(self.cached) if self.cached else "(none)"
        )
        return format_kv_section("campaign result cache", stats)


def run_campaign(names=None, scale=1.0, seed=1, jobs=None, timeout=None,
                 retries=1, resume=False, checkpoint_dir=None,
                 checkpoint_every=None, on_event=None, supervisor=None,
                 cache=None, cache_dir=None, cache_max_bytes=None,
                 use_cache=True, chaos=None):
    """Run a supervised experiment campaign; returns a CampaignReport.

    ``checkpoint_dir`` hosts both the JSONL result store
    (``results.jsonl``) and one sub-directory per checkpoint-aware
    experiment.  With ``resume=True``, tasks recorded in the store are
    skipped outright and interrupted checkpoint-aware tasks restart
    from their stage checkpoints.

    The result cache sits in front of the supervisor: a task whose
    (name, scale, seed, options, schema-version) key holds a verified
    entry is served from the cache without dispatching a worker, and
    every freshly finished task is published back.  ``cache_dir`` names
    the cache root (``use_cache=False`` or a pre-built ``cache``
    override it); ``cache_max_bytes`` caps the cache directory size
    with least-recently-used eviction; accounting lands on
    ``CampaignReport.cache_stats``.

    ``chaos`` threads one :class:`repro.chaos.ChaosInjector` through
    every infrastructure seam at once — store appends, cache entries,
    worker dispatch and (inside workers) checkpoint writes.

    A SIGTERM mid-campaign drains: settled outcomes are published to
    the cache, then :class:`~repro.experiments.errors.CampaignDrained`
    propagates so the CLI can exit 143; ``--resume`` picks up the rest.
    """
    from repro.experiments.runner import checkpoint_aware_experiments

    if names is None:
        names = experiment_names()
    if checkpoint_dir is None:
        # Argument validation at the wiring seam, before any task runs:
        # a programmer error, not a task outcome for retry/quarantine
        # policy (the same rationale as LB204's __init__ exemption).
        raise ValueError(  # lb: noqa[LB204]
            "a campaign needs a checkpoint directory"
        )
    os.makedirs(checkpoint_dir, exist_ok=True)
    if cache is None and use_cache and cache_dir is not None:
        cache = ResultCache(cache_dir, chaos=chaos,
                            max_bytes=cache_max_bytes)
    store = ResultStore(
        os.path.join(checkpoint_dir, "results.jsonl"), chaos=chaos
    )
    if not resume:
        store.clear()
    completed = store.load()

    def emit(message):
        if on_event is not None:
            on_event(message)

    if store.recovered_bytes:
        emit(
            "result store: dropped {} torn/corrupt trailing record(s) "
            "({} bytes); affected tasks will rerun".format(
                store.recovered_records, store.recovered_bytes
            )
        )

    skipped = [name for name in names if name in completed]
    for name in skipped:
        emit("task {}: already complete, skipping".format(name))

    specs = {name: JobSpec(name, scale=scale, seed=seed) for name in names}
    cached = []
    if cache is not None:
        for name in names:
            if name in completed:
                continue
            record = cache.get(specs[name].key())
            if record is None:
                continue
            cached.append(name)
            completed[name] = {
                "name": name,
                "status": "done",
                "report": record["report"],
            }
            try:
                store.append(
                    {
                        "name": name,
                        "status": "done",
                        "report": record["report"],
                        "error": None,
                        "attempts": 0,
                    }
                )
            except OSError as error:
                emit(
                    "result store append failed for task {} ({}); "
                    "continuing without persistence".format(name, error)
                )
            emit("task {}: cache hit, skipping".format(name))

    todo = {
        name: spec for name, spec in specs.items() if name not in completed
    }
    aware = checkpoint_aware_experiments()
    checkpoints = {
        name: (os.path.join(checkpoint_dir, name), checkpoint_every)
        for name in todo
        if name in aware
    }

    if supervisor is None:
        supervisor = Supervisor(
            jobs=jobs, timeout=timeout, retries=retries, chaos=chaos
        )

    def publish(finished):
        if cache is None:
            return
        for name, outcome in finished.items():
            if outcome.status != "done":
                continue
            try:
                cache.put_report(specs[name].key(), name, outcome.report)
            except OSError as error:
                emit(
                    "cache store failed for task {} ({}); "
                    "continuing".format(name, error)
                )

    try:
        outcomes = supervisor.run(
            todo, store=store, on_event=on_event, resume=resume,
            checkpoints=checkpoints,
        )
    except CampaignDrained as drained:
        # What finished is safely stored and cached; the caller exits
        # 143 and a later --resume runs only the pending remainder.
        publish(drained.outcomes)
        if cache is not None:
            emit(cache.stats.format_line())
        raise

    publish(outcomes)

    sections, failed = [], {}
    for name in names:
        if name in completed:
            sections.append((name, completed[name]["report"]))
        elif name in outcomes and outcomes[name].status == "done":
            sections.append((name, outcomes[name].report))
        else:
            error = (
                outcomes[name].error
                if name in outcomes
                else "never completed"
            )
            failed[name] = error
            sections.append((name, None))
    if cache is not None:
        emit(cache.stats.format_line())
    return CampaignReport(
        sections, skipped, failed, cached=cached,
        cache_stats=None if cache is None else cache.stats,
    )
