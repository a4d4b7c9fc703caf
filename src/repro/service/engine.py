"""The lease/worker loop: queue out, supervisor in, queue back.

The engine is one background thread that repeatedly leases a batch of
jobs and hands them to a fresh PR 6
:class:`~repro.experiments.supervisor.Supervisor` run — so every
hardening behaviour the campaign engine earned (persistent preloaded
worker pool, per-task timeouts, bounded retries with backoff, heartbeat
liveness for wedged workers, poison-task quarantine, the circuit
breaker degrading to contained serial execution) applies verbatim to
service jobs.  The supervisor's typed error taxonomy flows through
unchanged: a failed job's ``error_kind`` is the
:class:`~repro.experiments.errors.CampaignError` kind the supervisor
settled it with.

Before dispatching, each leased job is checked against the shared
content-addressed :class:`~repro.experiments.cache.ResultCache` — the
cluster-wide memo table — so identical work ever done by *any* client
(or any past campaign) is served without an execution.  Fresh results
are published back, which is what makes many concurrent clients
sweeping one design space cheap: the first submission pays, everyone
else hits.

Settlement is streamed: the supervisor appends each outcome to its
result store as the task finishes, and the engine's store adapter turns
those appends into per-job queue transitions — a job's status flips to
``done`` the moment its report exists, not when the whole batch ends.

A drain (SIGTERM) reuses the supervisor's own drain: in-flight jobs
finish and settle, undispached leases are rewound to ``submitted`` with
durable ``requeue`` records, and the restarted server picks them up.
"""

import threading

from repro.experiments.errors import CampaignDrained
from repro.experiments.runner import run_experiment
from repro.experiments.supervisor import Supervisor


def service_task_runner(spec, checkpointer):
    """In-worker executor for service jobs (module-level, pool-picklable).

    Service jobs carry no checkpoint placement, so ``checkpointer`` is
    always ``None``.
    """
    # Not spec.run(): the e2e benchmark wraps this module's run_experiment.
    result = run_experiment(
        spec.experiment, scale=spec.scale, seed=spec.seed,
        _warn_seedless=False, **spec.options
    )
    return result.format_report()


class _SettleAdapter:
    """Duck-typed result store streaming supervisor outcomes to a callback.

    The supervisor appends each settled outcome record as the task
    finishes; this adapter forwards them instead of persisting (the
    queue's WAL is the durable record).  It must never raise — the
    supervisor treats only ``OSError`` as survivable here.
    """

    def __init__(self, on_settle):
        self.on_settle = on_settle

    def append(self, record):
        self.on_settle(record)


class ServiceEngine:
    """Background execution loop between a :class:`JobQueue` and the pool.

    :param queue: the :class:`~repro.service.queue.JobQueue`.
    :param cache: a :class:`~repro.experiments.cache.ResultCache` or
        ``None`` (memoization off).
    :param jobs: supervisor pool width (concurrent worker processes).
    :param timeout: per-job wall-clock seconds (``None`` unlimited).
    :param retries: extra attempts after a crash/timeout.
    :param quarantine_after: consecutive crashes before quarantine.
    :param circuit_breaker: consecutive crashes before the pool
        degrades to contained serial execution.
    :param batch_max: most jobs leased into one supervisor run; bounds
        the admission-to-execution latency of jobs arriving mid-batch.
    :param on_event: optional progress callback (supervisor events and
        engine lifecycle lines).
    """

    def __init__(self, queue, cache=None, jobs=2, timeout=None, retries=1,
                 quarantine_after=3, circuit_breaker=6, batch_max=None,
                 backoff=0.1, on_event=None):
        self.queue = queue
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.quarantine_after = quarantine_after
        self.circuit_breaker = circuit_breaker
        self.batch_max = batch_max or max(1, jobs * 2)
        self.backoff = backoff
        self.on_event = on_event
        # _state_lock guards everything the engine thread mutates while
        # other threads (HTTP handlers via stats/healthz, the drain
        # thread via stop) read: the counters, the published supervisor,
        # and the engine thread handle itself.
        self._state_lock = threading.Lock()
        self.executed = 0  # jobs that actually ran (not cache-served)
        self.memo_hits = 0  # jobs served from the shared cache at lease
        self.breaker_opened = False  # sticky: any batch tripped it
        self._supervisor = None
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._thread = None

    def _emit(self, message):
        if self.on_event is not None:
            self.on_event(message)

    # -- lifecycle -------------------------------------------------------

    def start(self):
        thread = threading.Thread(
            target=self._loop, name="service-engine", daemon=True
        )
        with self._state_lock:
            if self._thread is not None:
                raise RuntimeError("engine already started")
            self._thread = thread
        thread.start()

    def stop(self, drain=True, timeout=None):
        """Stop the loop; with ``drain`` wait for in-flight jobs.

        The supervisor's own drain finishes what is running; leased but
        undispatched jobs are rewound to ``submitted`` (durably) for
        the next process.  Without ``drain`` the pool is left to its
        daemon-thread fate — only for tests.
        """
        self._stop.set()
        with self._state_lock:
            supervisor = self._supervisor
            thread = self._thread
        if supervisor is not None:
            supervisor.request_drain()
        self.queue.close()
        if drain and thread is not None:
            thread.join(timeout)

    def busy(self):
        return not self._idle.is_set()

    def counters(self):
        """Locked snapshot of the cross-thread monitoring counters —
        what ``/stats`` and ``/healthz`` report."""
        with self._state_lock:
            return {
                "executed": self.executed,
                "memo_hits": self.memo_hits,
                "breaker_opened": self.breaker_opened,
            }

    # -- the loop --------------------------------------------------------

    def _loop(self):
        while not self._stop.is_set():
            leased = self.queue.lease(self.batch_max, timeout=0.2)
            if not leased:
                continue
            self._idle.clear()
            try:
                self._run_batch(leased)
            finally:
                self._idle.set()
        # Leases taken after the stop flag raced the close; rewind them.
        self._rewind_unfinished()

    def _run_batch(self, leased):
        to_run = []
        for job in leased:
            if self._serve_from_cache(job):
                continue
            to_run.append(job)
        if not to_run:
            return
        if self._stop.is_set():
            self.queue.requeue([job.id for job in to_run])
            return

        by_id = {}
        for job in to_run:
            self.queue.mark_running(job.id)
            by_id[job.id] = job

        supervisor = Supervisor(
            jobs=min(self.jobs, len(by_id)),
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            quarantine_after=self.quarantine_after,
            circuit_breaker=self.circuit_breaker,
            task_runner=service_task_runner,
            drain_on_sigterm=False,  # the HTTP layer owns SIGTERM
        )
        with self._state_lock:
            self._supervisor = supervisor
        if self._stop.is_set():
            # A drain landed between the check above and publishing the
            # supervisor; honour it before dispatch begins.
            supervisor.request_drain()
        def settle(record):
            try:
                self._settle(by_id, record)
            except Exception as error:
                # A settlement defect must not take down the supervisor
                # loop mid-batch; the job stays in flight and is rewound
                # to ``submitted`` when the batch ends.
                self._emit(
                    "engine settle failed for {} ({}); job will be "
                    "requeued".format(record.get("name"), error)
                )

        adapter = _SettleAdapter(settle)
        try:
            # The job id labels each task: unique within the batch even
            # when two jobs run one experiment with different seeds.
            supervisor.run(
                {job_id: job.spec for job_id, job in by_id.items()},
                store=adapter, on_event=self.on_event,
            )
        except CampaignDrained as drained:
            # In-flight tasks finished and settled; the rest are rewound
            # by the reconciliation below.
            self._emit("engine drain: {}".format(drained))
        finally:
            with self._state_lock:
                if supervisor.breaker_opened:
                    self.breaker_opened = True
                self._supervisor = None
            # Reconcile: anything the batch left unsettled (a drain, a
            # settle defect) is rewound so no job can wedge in flight.
            leftovers = self.queue.in_flight(list(by_id))
            if leftovers:
                self.queue.requeue(leftovers)

    def _serve_from_cache(self, job):
        """Settle a leased job from the memo table; True when served."""
        if self.cache is None:
            return False
        record = self.cache.get(job.key)
        if record is None:
            return False
        with self._state_lock:
            self.memo_hits += 1
        self.queue.complete(job.id, record["report"], cached=True)
        self._emit("job {}: served from cache".format(job.id))
        return True

    def _settle(self, by_id, record):
        """One streamed supervisor outcome -> one queue transition."""
        job = by_id.get(record.get("name"))
        if job is None:
            return
        if record.get("status") == "done":
            report = record.get("report")
            with self._state_lock:
                self.executed += 1
            if self.cache is not None:
                try:
                    self.cache.put_report(
                        job.key, job.spec.experiment, report
                    )
                except OSError as error:
                    self._emit(
                        "cache store failed for job {} ({}); "
                        "continuing".format(job.id, error)
                    )
            self.queue.complete(job.id, report)
        else:
            self.queue.fail(
                job.id,
                record.get("error_kind") or "task-error",
                record.get("error") or "unknown failure",
            )

    def _rewind_unfinished(self):
        stuck = self.queue.in_flight()
        if stuck:
            self.queue.requeue(stuck)
