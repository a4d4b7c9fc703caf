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

import json
import multiprocessing
import os
import signal
import threading
import time
import zlib
from collections import deque
from multiprocessing.connection import wait as _wait_connections

from repro.experiments.cache import (
    ResultCache,
    canonical_json,
    experiment_key,
)
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


class ResultStore:
    """Append-only JSONL store of per-task outcomes.

    Appends are flushed and fsynced so a completed task survives any
    later crash, and every record carries a CRC32 of its canonical form
    so corruption (a flipped byte, not just a torn tail) is *detected*
    rather than silently resumed from.

    :meth:`load` is crash-consistent: the store is read as the longest
    valid prefix of records.  A torn trailing line (the one write a
    SIGKILL can interrupt) or a corrupt record ends the prefix — the
    file is truncated back to the last valid record (so later appends
    cannot concatenate onto torn bytes), the loss is surfaced through
    ``recovered_records`` / ``recovered_bytes``, and the affected tasks
    simply rerun.  Corruption never raises out of :meth:`load`; only an
    unreadable-but-present file (permissions, I/O error) raises
    :class:`~repro.experiments.errors.StoreCorruptionError`.

    :param chaos: optional :class:`repro.chaos.ChaosInjector`; when
        given, appends may be deliberately torn or rejected with
        ``ENOSPC`` so chaos campaigns prove the recovery path.
    """

    def __init__(self, path, chaos=None):
        self.path = path
        self.chaos = chaos
        self.recovered_records = 0  # records dropped by the last load()
        self.recovered_bytes = 0  # bytes truncated by the last load()

    def load(self, repair=True):
        """{name: record} for every successfully recorded task.

        With ``repair=True`` (the default) a torn or corrupt tail is
        physically truncated off the file; ``repair=False`` only skips
        it for this load.
        """
        self.recovered_records = 0
        self.recovered_bytes = 0
        completed = {}
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return completed
        except OSError as error:
            raise StoreCorruptionError(
                "cannot read result store {}: {}".format(self.path, error)
            )
        records, valid_end = self._valid_prefix(raw)
        dropped = raw[valid_end:]
        if dropped:
            self.recovered_bytes = len(dropped)
            self.recovered_records = sum(
                1 for line in dropped.split(b"\n") if line.strip()
            )
            if repair:
                self._truncate_to(valid_end)
        for record in records:
            if (
                record.get("status") == "done"
                and isinstance(record.get("name"), str)
            ):
                completed[record["name"]] = record
        return completed

    def _valid_prefix(self, raw):
        """Parse the longest valid record prefix of the raw bytes.

        Returns ``(records, end_offset)`` where ``end_offset`` is the
        byte offset just past the last valid record — the truncation
        point that recovery rewinds the file to.
        """
        records = []
        valid_end = 0
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                line, end = raw[offset:], len(raw)
            else:
                line, end = raw[offset:newline], newline + 1
            line = line.strip()
            if line:
                record = self._parse_record(line)
                if record is None:
                    break
                records.append(record)
            valid_end = end
            offset = end
        return records, valid_end

    @staticmethod
    def _parse_record(line):
        """One validated record, or ``None`` for torn/corrupt bytes."""
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None  # torn/corrupt line: it ends the valid prefix
        if not isinstance(record, dict):
            return None
        crc = record.pop("_crc", None)
        if not isinstance(crc, int):
            return None
        payload = canonical_json(record).encode("utf-8")
        if zlib.crc32(payload) != crc:
            return None
        return record

    def _truncate_to(self, size):
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(size)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass  # repair is best-effort; load already skipped the tail

    def append(self, record):
        """Append one record (flushed, fsynced, CRC-stamped).

        If a previous append was torn (file does not end in a newline —
        a crash mid-write), a newline is inserted first so the new
        record can never be glued onto torn bytes and lost with them.
        """
        record = dict(record)
        record.pop("_crc", None)
        record["_crc"] = zlib.crc32(canonical_json(record).encode("utf-8"))
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        if self.chaos is not None:
            data = self.chaos.mangle_store_append(data)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "ab") as handle:
            if handle.tell() > 0 and not self._ends_with_newline():
                handle.write(b"\n")
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def _ends_with_newline(self):
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except OSError:
            return True

    def clear(self):
        try:
            os.unlink(self.path)
        except OSError:
            pass  # a missing store is already "cleared"


class TaskSpec:
    """One supervised unit of work: a single registry experiment."""

    def __init__(self, name, scale=1.0, seed=1, options=None,
                 checkpoint_dir=None, checkpoint_every=None, resume=False):
        self.name = name
        self.scale = scale
        self.seed = seed
        self.options = dict(options or {})
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.resume = resume


def run_task_spec(spec, resume):
    """Execute one task spec in-process; returns the report text.

    The default task runner of pool workers and of degraded in-process
    execution, so both produce byte-identical reports.
    """
    kwargs = dict(spec.options)
    if spec.checkpoint_dir is not None:
        from repro.experiments.checkpoint import task_checkpointer

        kwargs["checkpointer"] = task_checkpointer(
            spec.checkpoint_dir,
            every=spec.checkpoint_every,
            resume=resume,
        )
    result = run_experiment(
        spec.name, scale=spec.scale, seed=spec.seed,
        _warn_seedless=False, **kwargs
    )
    return result.format_report()


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

    Protocol (parent -> worker): ``("task", spec, resume)``,
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
                _, spec, resume = message
                send(("ok", task_runner(spec, resume)))
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
    :param task_runner: the in-worker task executor (injectable for
        tests); must be a module-level callable.
    :param heartbeat_interval: seconds between worker heartbeat frames
        (``None`` disables heartbeats — e.g. :func:`pool_map`, whose
        protocol has no liveness checks).
    :param worker_chaos: ``(plan_state, seed)`` installing worker-side
        infrastructure faults; each spawned worker derives its own
        stream from its worker id.
    """

    def __init__(self, jobs=None, task_runner=run_task_spec, context=None,
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


def pool_map(func, calls, jobs=None, task_runner=run_task_spec):
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
    pool = WorkerPool(jobs=min(jobs, len(calls)), task_runner=task_runner)
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
    """One attempt at a task spec, with its wall-clock deadline."""

    def __init__(self, spec, attempt, deadline=None):
        self.spec = spec
        self.attempt = attempt
        self.deadline = deadline


class Supervisor:
    """Runs task specs on a supervised persistent worker pool.

    :param jobs: maximum concurrently running workers (``None`` = all
        CPUs, via :func:`default_jobs`).
    :param timeout: per-task wall-clock seconds (``None`` = unlimited).
    :param retries: extra attempts after the first (0 = fail fast).
    :param backoff: base seconds of delay before retry ``n`` (doubled
        each further attempt).
    :param poll_interval: supervisor loop sleep between health checks.
    :param task_runner: in-pool task executor (injectable for tests);
        must be a module-level callable of ``(spec, resume)``.
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
                 poll_interval=0.05, task_runner=run_task_spec,
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

    def run(self, specs, store=None, on_event=None):
        """Run every spec; returns {name: TaskOutcome}.

        Completed tasks are appended to ``store`` as they finish.  A
        KeyboardInterrupt terminates all workers before propagating, so
        ^C never leaves orphaned simulations running.  A SIGTERM drains
        instead: in-flight tasks finish, the rest stay pending, and
        :class:`~repro.experiments.errors.CampaignDrained` (carrying
        the settled outcomes) is raised so the caller can exit 143 and
        later ``--resume``.
        """
        specs = list(specs)
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
            outcomes = self._run_pooled(specs, store, on_event)
        finally:
            if installed:
                signal.signal(signal.SIGTERM, previous_handler)
        if self._draining:
            pending = [
                spec.name for spec in specs if spec.name not in outcomes
            ]
            if pending:
                raise CampaignDrained(outcomes, pending)
        return outcomes

    # -- shared bookkeeping ------------------------------------------------

    def _make_settle(self, outcomes, store, emit):
        def settle(task, status, report=None, error=None):
            name = task.spec.name
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
            name = task.spec.name
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
                    (task.spec, task.attempt + 1, time.monotonic() + delay)
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

    def _run_pooled(self, specs, store, on_event):
        emit = on_event if on_event is not None else _ignore_event
        pending = deque((spec, 1, 0.0) for spec in specs)
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
                    spec, attempt, not_before = pending.popleft()
                    if not_before > now:
                        blocked.append((spec, attempt, not_before))
                        continue
                    worker = pool.checkout(len(busy))
                    if worker is None:
                        blocked.append((spec, attempt, not_before))
                        break
                    resume = spec.resume or attempt > 1
                    worker.send(("task", spec, resume))
                    # The liveness clock starts at dispatch so a long
                    # idle gap can never count against the worker.
                    worker.last_heartbeat = now
                    deadline = (
                        None if self.timeout is None
                        else now + self.timeout
                    )
                    busy[worker] = _Task(spec, attempt, deadline)
                    emit(
                        "task {}: started (attempt {}/{}) on worker {}".format(
                            spec.name, attempt, self.retries + 1, worker.id
                        )
                    )
                    if self.chaos is not None:
                        action = self.chaos.sabotage_dispatch(worker)
                        if action:
                            emit(
                                "chaos: {} worker {} (task {})".format(
                                    action, worker.id, spec.name
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
                emit("task {}: done".format(task.spec.name))
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
            (task.spec, task.attempt, 0.0) for task in busy.values()
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
            spec, attempt, not_before = pending.popleft()
            wait = not_before - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            task = _Task(spec, attempt)
            contained = bool(self._crash_counts.get(spec.name))
            emit(
                "task {}: started (attempt {}/{}) [degraded, {}]".format(
                    spec.name, attempt, self.retries + 1,
                    "contained" if contained else "in-process",
                )
            )
            if contained:
                self._run_contained(task, settle, retry_or_fail, emit)
                continue
            resume = spec.resume or attempt > 1
            try:
                report = self.task_runner(spec, resume)
            except Exception as error:
                retry_or_fail(
                    task,
                    TaskError(
                        "{}: {}".format(type(error).__name__, error)
                    ),
                )
            else:
                emit("task {}: done".format(spec.name))
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
        resume = task.spec.resume or task.attempt > 1
        crashed = True
        try:
            worker.send(("task", task.spec, resume))
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

    keys = {
        name: experiment_key(name, scale=scale, seed=seed)
        for name in names
    }
    cached = []
    if cache is not None:
        for name in names:
            if name in completed:
                continue
            record = cache.get(keys[name])
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

    aware = checkpoint_aware_experiments()
    specs = []
    for name in names:
        if name in completed:
            continue
        specs.append(
            TaskSpec(
                name,
                scale=scale,
                seed=seed,
                checkpoint_dir=(
                    os.path.join(checkpoint_dir, name)
                    if name in aware
                    else None
                ),
                checkpoint_every=checkpoint_every,
                resume=resume,
            )
        )

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
                cache.put(
                    keys[name], {"name": name, "report": outcome.report}
                )
            except OSError as error:
                emit(
                    "cache store failed for task {} ({}); "
                    "continuing".format(name, error)
                )

    try:
        outcomes = supervisor.run(specs, store=store, on_event=on_event)
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
