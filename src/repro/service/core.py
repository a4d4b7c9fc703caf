"""The framework-agnostic service core the HTTP front-end dispatches into.

Every public request method returns the same triple —
``(status, body, headers)`` with ``status`` an HTTP status code,
``body`` a JSON-representable dict and ``headers`` extra response
headers (``Retry-After`` for backpressure) — and **never raises** for a
request defect: typed :class:`~repro.service.models.ServiceError`
values are converted to their canonical status/body here, once, so the
stdlib front-end (:mod:`repro.service.http`) translates requests
mechanically and holds no semantics of its own.

The core owns the whole durable stack: the WAL-backed
:class:`~repro.service.queue.JobQueue`, the
:class:`~repro.service.engine.ServiceEngine` lease loop, the shared
content-addressed :class:`~repro.experiments.cache.ResultCache` (with
its LRU size cap) and per-client token-bucket rate limiting.  Admission
is layered cheapest-first: drain check, then the rate limiter, then
validation, then the warm memo table (a cached result admits the job
already ``done`` — no queue capacity consumed), then the bounded queue.
"""

import os
import threading

from repro.experiments.cache import ResultCache
from repro.service.engine import ServiceEngine
from repro.service.models import (
    FAILED_JOB_HTTP_STATUS,
    JobState,
    ServiceDrainingError,
    ServiceError,
    validate_submission,
    validate_sweep,
)
from repro.service.queue import JobQueue
from repro.service.ratelimit import RateLimiter
from repro.service.wal import JobWAL

#: Suggested poll interval (seconds) returned with 202 "still running"
#: results; doubles as that response's ``Retry-After`` header.
POLL_RETRY_AFTER = 1


class ServiceCore:
    """The DSE service behind any transport.

    :param state_dir: directory holding the job WAL (``queue.wal``);
        restarting with the same directory resumes the queue.
    :param cache_dir: content-addressed result cache root, or ``None``
        to run without memoization.
    :param cache_max_bytes: LRU size cap for the cache (``None`` =
        unbounded).
    :param workers: supervisor pool width.
    :param max_depth: bounded-queue admission limit.
    :param rate: per-client sustained submissions/second (``None`` =
        unlimited); ``burst`` is the instantaneous allowance.
    :param timeout: per-job wall-clock timeout (seconds).
    :param retries: extra attempts after a crash/timeout.
    :param quarantine_after: consecutive crashes before quarantine.
    :param circuit_breaker: consecutive crashes before serial fallback.
    :param chaos: optional injector threaded into the WAL and cache so
        the chaos harness can fault the service's own durability layer.
    :param on_event: optional progress callback.
    """

    def __init__(self, state_dir, cache_dir=None, cache_max_bytes=None,
                 workers=2, max_depth=64, rate=None, burst=10,
                 timeout=None, retries=1, quarantine_after=3,
                 circuit_breaker=6, chaos=None, on_event=None):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.wal = JobWAL(os.path.join(state_dir, "queue.wal"), chaos=chaos)
        self.queue = JobQueue(self.wal, max_depth=max_depth,
                              on_event=on_event)
        self.cache = None
        if cache_dir is not None:
            self.cache = ResultCache(cache_dir, chaos=chaos,
                                     max_bytes=cache_max_bytes)
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.engine = ServiceEngine(
            self.queue, cache=self.cache, jobs=workers, timeout=timeout,
            retries=retries, quarantine_after=quarantine_after,
            circuit_breaker=circuit_breaker, on_event=on_event,
        )
        self.recovery = None  # queue.recover() summary, set by start()
        self._draining = threading.Event()
        self._started = False

    # -- lifecycle --------------------------------------------------------

    def start(self):
        """Recover the queue from the WAL and start the lease loop."""
        if self._started:
            raise RuntimeError("core already started")
        # Written exactly once, before the engine and the HTTP listener
        # start — publication happens-before the first request thread.
        self.recovery = self.queue.recover()  # lb: noqa[LB201]
        self.engine.start()
        self._started = True
        return self.recovery

    def drain(self, timeout=None):
        """Graceful shutdown: stop admitting, finish in-flight, rewind.

        After this returns the WAL is a resumable checkpoint: every job
        is either settled or durably ``submitted``, so a restart with
        the same ``state_dir`` continues exactly where the drain
        stopped.
        """
        self._draining.set()
        self.engine.stop(drain=True, timeout=timeout)

    def close(self):
        """Non-draining stop (tests); in-flight work is rewound."""
        self._draining.set()
        self.engine.stop(drain=True, timeout=5.0)

    @property
    def draining(self):
        return self._draining.is_set()

    @property
    def started(self):
        return self._started

    # -- request plumbing -------------------------------------------------

    @staticmethod
    def _error_response(error):
        headers = {}
        if error.retry_after is not None:
            headers["Retry-After"] = str(error.retry_after)
        return error.http_status, error.as_dict(), headers

    def _admission_checks(self, client):
        if self._draining.is_set():
            raise ServiceDrainingError(
                "server is draining; resubmit after restart"
            )
        self.limiter.check(client or "anonymous")

    def _admit(self, spec, client):
        """Admit one validated spec; returns the job's status body.

        The warm memo-table path: a spec whose result already sits in
        the content-addressed cache is admitted directly to ``done``
        (journaled, so the WAL stays the complete history) without
        consuming queue capacity or an execution.
        """
        if self.cache is not None:
            state = self.queue.key_state(spec.key())
            if state is None or state not in JobState.ACTIVE:
                record = self.cache.get(spec.key())
                if record is not None:
                    job, deduplicated = self.queue.submit(
                        spec, client=client,
                        completed_report=record["report"], cached=True,
                    )
                    body = self.queue.status_of(job.id)
                    body["deduplicated"] = deduplicated
                    return body
        job, deduplicated = self.queue.submit(spec, client=client)
        body = self.queue.status_of(job.id)
        body["deduplicated"] = deduplicated
        return body

    # -- submissions ------------------------------------------------------

    def submit(self, payload, client=None):
        """``POST /jobs`` — admit one experiment submission.

        ``202`` with the job body for admitted (or joined in-flight)
        work; ``200`` when the job is already ``done`` (warm cache or a
        duplicate of finished work).
        """
        try:
            self._admission_checks(client)
            spec = validate_submission(payload)
            body = self._admit(spec, client)
        except ServiceError as error:
            return self._error_response(error)
        status = 200 if body["state"] == JobState.DONE else 202
        return status, body, {}

    def submit_sweep(self, payload, client=None):
        """``POST /sweeps`` — admit one spec crossed with many seeds.

        Admission is per-seed and stops at the first refusal, reporting
        partial progress honestly: the body lists every job admitted
        before the queue filled, plus the refusal that stopped the
        sweep, so a client can resubmit exactly the unadmitted seeds
        after ``Retry-After``.
        """
        try:
            self._admission_checks(client)
            specs = validate_sweep(payload)
        except ServiceError as error:
            return self._error_response(error)
        admitted = []
        for spec in specs:
            try:
                admitted.append(self._admit(spec, client))
            except ServiceError as error:
                status, body, headers = self._error_response(error)
                body["admitted"] = admitted
                body["rejected_seeds"] = [
                    s.seed for s in specs[len(admitted):]
                ]
                return status, body, headers
        return 202, {"jobs": admitted, "count": len(admitted)}, {}

    # -- job introspection ------------------------------------------------

    def job_status(self, job_id):
        """``GET /jobs/{id}`` — the job's full status body."""
        try:
            body = self.queue.status_of(job_id)
        except ServiceError as error:
            return self._error_response(error)
        return 200, body, {}

    def job_result(self, job_id):
        """``GET /jobs/{id}/result`` — the report, or where it stands.

        ``200`` + report when done; ``202`` + state while in flight
        (with a poll ``Retry-After``); ``500`` + the campaign-engine
        error taxonomy when failed/quarantined; ``409`` when cancelled.
        """
        try:
            snap = self.queue.snapshot(job_id)
        except ServiceError as error:
            return self._error_response(error)
        state = snap["state"]
        if state == JobState.DONE:
            return 200, {
                "job": snap["job"],
                "state": state,
                "report": snap["report"],
                "cached": snap["cached"],
            }, {}
        if state in (JobState.FAILED, JobState.QUARANTINED):
            return FAILED_JOB_HTTP_STATUS, {
                "job": snap["job"],
                "state": state,
                "error": snap.get("error"),
                "error_kind": snap.get("error_kind"),
                "attempts": snap["attempts"],
            }, {}
        if state == JobState.CANCELLED:
            return 409, {
                "job": snap["job"],
                "state": state,
                "error": "job was cancelled",
                "kind": "job-conflict",
            }, {}
        return 202, {
            "job": snap["job"],
            "state": state,
            "retry_after": POLL_RETRY_AFTER,
        }, {"Retry-After": str(POLL_RETRY_AFTER)}

    def cancel(self, job_id):
        """``DELETE /jobs/{id}`` — cancel a not-yet-leased job."""
        try:
            self.queue.cancel(job_id)
            body = self.queue.status_of(job_id)
        except ServiceError as error:
            return self._error_response(error)
        return 200, body, {}

    def list_jobs(self):
        """``GET /jobs`` — every job (submission order) plus counts."""
        return 200, {
            "jobs": self.queue.statuses(),
            "counts": self.queue.counts(),
        }, {}

    # -- probes -----------------------------------------------------------

    def healthz(self):
        """``GET /healthz`` — liveness: always 200 while the process
        serves, with the queue/pool/breaker state for dashboards."""
        return 200, {
            "status": "ok",
            "draining": self.draining,
            "depth": self.queue.depth(),
            "max_depth": self.queue.max_depth,
            "counts": self.queue.counts(),
            "breaker_opened": self.engine.counters()["breaker_opened"],
            "busy": self.engine.busy(),
        }, {}

    def readyz(self):
        """``GET /readyz`` — readiness: 503 while draining or saturated
        (load balancers should stop routing submissions here)."""
        if self.draining:
            return 503, {"status": "draining", "ready": False}, {}
        depth = self.queue.depth()
        if depth >= self.queue.max_depth:
            return 503, {
                "status": "saturated",
                "ready": False,
                "depth": depth,
                "max_depth": self.queue.max_depth,
            }, {"Retry-After": str(self.queue.retry_after_hint(depth))}
        return 200, {
            "status": "ready",
            "ready": True,
            "depth": depth,
            "max_depth": self.queue.max_depth,
        }, {}

    def stats(self):
        """``GET /stats`` — counters for benchmarks and the chaos
        harness (executions vs memo hits is the duplicate-work probe)."""
        engine = self.engine.counters()
        body = {
            "executed": engine["executed"],
            "memo_hits": engine["memo_hits"],
            "dedup_hits": self.queue.dedup_count(),
            "rate_limited": self.limiter.denied_count(),
            "wal_appended": self.wal.appended,
            "recovery": self.recovery,
            "counts": self.queue.counts(),
            "breaker_opened": engine["breaker_opened"],
        }
        if self.cache is not None:
            body["cache"] = self.cache.stats.as_dict()
            body["cache_bytes"] = self.cache.total_bytes()
            body["cache_max_bytes"] = self.cache.max_bytes
        return 200, body, {}
