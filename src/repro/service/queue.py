"""The WAL-backed job queue: state machine, idempotency, admission.

Every transition is written ahead (:class:`repro.service.wal.JobWAL`)
and only then applied in memory, so the durable journal is always at
least as advanced as the acknowledged state:

* **no lost jobs** — a submission is acknowledged only after its
  ``submit`` record is flushed and fsynced; a ``kill -9`` one syscall
  later replays it back into the queue;
* **no duplicated jobs** — the idempotency key (the campaign cache key
  of the spec) is rebuilt from the WAL on recovery, so resubmitting an
  identical spec after a crash still joins the original job instead of
  spawning a second execution;
* **crash rewind is explicit** — jobs found ``leased``/``running`` at
  recovery were in flight when the process died; they are rewound to
  ``submitted`` with a durable ``requeue`` record (the execution never
  completed, so rerunning is correct and, experiments being
  deterministic, bit-identical).

Admission control is a bounded queue: once ``max_depth`` jobs are
active (submitted/leased/running), further submissions raise
:class:`~repro.service.models.QueueFullError` — the HTTP layers turn
that into ``429`` + ``Retry-After`` instead of hanging or growing
without bound.
"""

import threading
import time

from repro.experiments import JobSpec
from repro.service.models import (
    JobConflictError,
    JobNotFoundError,
    JobState,
    QueueFullError,
    StoreFailureError,
)


class Job:
    """One submitted unit of work and everything the API reports on it."""

    __slots__ = (
        "id", "key", "spec", "state", "client", "seq", "attempts",
        "report", "error", "error_kind", "cached", "duplicates",
    )

    def __init__(self, job_id, key, spec, client, seq):
        self.id = job_id
        self.key = key
        self.spec = spec
        self.state = JobState.SUBMITTED
        self.client = client
        self.seq = seq
        self.attempts = 0  # executions started (``run`` transitions)
        self.report = None
        self.error = None
        self.error_kind = None
        self.cached = False  # served from the content-addressed cache
        self.duplicates = 0  # submissions that joined this job

    def status_dict(self):
        # Job fields are mutated only under JobQueue._lock, and this
        # method is invoked solely by the queue's locked snapshot
        # accessors (status_of/snapshot/statuses).  Jobs fetched out of
        # the _jobs table are untyped to the flow engine, so those lock
        # edges are invisible to LB201 — suppressed, not unguarded.
        body = {
            "job": self.id,
            "key": self.key,
            "state": self.state,  # lb: noqa[LB201]
            "experiment": self.spec.experiment,
            "scale": self.spec.scale,
            "seed": self.spec.seed,
            "attempts": self.attempts,
            "cached": self.cached,  # lb: noqa[LB201]
            "duplicates": self.duplicates,
        }
        if self.error is not None:
            body["error"] = self.error
            body["error_kind"] = self.error_kind
        return body


class JobQueue:
    """Thread-safe, WAL-backed queue of :class:`Job` objects.

    :param wal: the :class:`~repro.service.wal.JobWAL` journal.
    :param max_depth: bound on active (submitted/leased/running) jobs;
        the admission-control knob.
    :param retry_after: seconds suggested to clients bounced by a full
        queue (scaled up with backlog depth in :meth:`retry_after_hint`).
    :param on_event: optional ``on_event(message)`` progress callback.
    """

    def __init__(self, wal, max_depth=64, retry_after=2.0, on_event=None):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.wal = wal
        self.max_depth = max_depth
        self.retry_after = retry_after
        self.on_event = on_event
        self._lock = threading.RLock()
        self._has_pending = threading.Condition(self._lock)
        self._settled = threading.Condition(self._lock)
        self._jobs = {}  # id -> Job
        self._by_key = {}  # idempotency key -> latest job id
        self._pending = []  # job ids in FIFO (submission seq) order
        self._next_seq = 1
        self._closed = False
        self.dedup_hits = 0

    def _emit(self, message):
        if self.on_event is not None:
            self.on_event(message)

    # -- recovery --------------------------------------------------------

    def recover(self):
        """Replay the WAL into a live queue; returns a summary dict.

        In-flight jobs (leased/running at crash time) are rewound to
        ``submitted`` with durable ``requeue`` records, in original
        submission order, so the restarted engine picks them up exactly
        where admission left them.
        """
        with self._lock:
            records = self.wal.replay()
            for record in records:
                self._apply(record)
            self._next_seq = (
                max((r.get("seq", 0) for r in records), default=0) + 1
            )
            rewound = []
            for job in sorted(self._jobs.values(), key=lambda j: j.seq):
                if job.state in (JobState.LEASED, JobState.RUNNING):
                    rewound.append(job.id)
                    self._append({"op": "requeue", "job": job.id},
                                 best_effort=True)
                    job.state = JobState.SUBMITTED
                    self._pending.append(job.id)
            self._pending.sort(key=lambda job_id: self._jobs[job_id].seq)
            if rewound:
                self._emit(
                    "queue recovery: rewound {} in-flight job(s) to "
                    "submitted: {}".format(len(rewound), ", ".join(rewound))
                )
            if self.wal.recovered_bytes:
                self._emit(
                    "queue recovery: dropped {} torn/corrupt trailing WAL "
                    "record(s) ({} bytes)".format(
                        self.wal.recovered_records, self.wal.recovered_bytes
                    )
                )
            self._has_pending.notify_all()
            return {
                "replayed": len(records),
                "jobs": len(self._jobs),
                "rewound": rewound,
                "recovered_records": self.wal.recovered_records,
                "recovered_bytes": self.wal.recovered_bytes,
            }

    def _apply(self, record):
        """Apply one replayed WAL record to the in-memory table."""
        op = record.get("op")
        if op == "submit":
            try:
                spec = JobSpec.from_dict(record.get("spec") or {})
            except KeyError:
                return  # CRC-valid but schema-foreign: skip, never crash
            job = Job(
                record.get("job"), record.get("key"), spec,
                record.get("client"), record.get("seq", 0),
            )
            self._jobs[job.id] = job
            self._by_key[job.key] = job.id
            self._pending.append(job.id)
            return
        job = self._jobs.get(record.get("job"))
        if job is None:
            return  # transition for a job whose submit never survived
        if op == "lease":
            job.state = JobState.LEASED
            self._drop_pending(job.id)
        elif op == "run":
            job.state = JobState.RUNNING
            job.attempts = record.get("attempt", job.attempts + 1)
        elif op == "done":
            job.state = JobState.DONE
            job.report = record.get("report")
            job.cached = bool(record.get("cached"))
            self._drop_pending(job.id)
        elif op == "fail":
            kind = record.get("error_kind")
            job.state = (
                JobState.QUARANTINED if kind == "quarantined"
                else JobState.FAILED
            )
            job.error = record.get("error")
            job.error_kind = kind
            self._drop_pending(job.id)
        elif op == "cancel":
            job.state = JobState.CANCELLED
            self._drop_pending(job.id)
        elif op == "requeue":
            if job.state in (JobState.LEASED, JobState.RUNNING):
                job.state = JobState.SUBMITTED
                self._pending.append(job.id)

    def _drop_pending(self, job_id):
        try:
            self._pending.remove(job_id)
        except ValueError:
            pass  # already leased off the pending list

    # -- write-ahead helper ----------------------------------------------

    def _append(self, record, best_effort=False):
        """WAL-append one transition (with the next sequence number).

        ``best_effort=True`` is for transitions whose loss is *safe* —
        a missing lease/run/requeue record only rewinds the job to an
        earlier, rerunnable state on recovery.  The ``submit`` record is
        never best-effort: if it cannot be made durable the submission
        is refused, because acknowledging it would risk a lost job.
        """
        record = dict(record)
        record["seq"] = self._next_seq
        try:
            self.wal.append(record)
        except OSError as error:
            if not best_effort:
                raise StoreFailureError(
                    "cannot journal {} transition: {}".format(
                        record.get("op"), error
                    )
                )
            self._emit(
                "WAL append failed for {} {} ({}); continuing — the "
                "transition replays as rerunnable on restart".format(
                    record.get("op"), record.get("job"), error
                )
            )
        self._next_seq += 1

    # -- submission / admission ------------------------------------------

    def depth(self):
        """Active jobs (submitted + leased + running)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.state in JobState.ACTIVE
            )

    def counts(self):
        with self._lock:
            table = dict.fromkeys(JobState.ALL, 0)
            for job in self._jobs.values():
                table[job.state] += 1
            return table

    def retry_after_hint(self, depth):
        """Suggested client wait (seconds) for a backlog of ``depth``.

        Linear in backlog: a queue twice as deep suggests waiting twice
        as long, bounded so clients never park for minutes.
        """
        return min(60, max(1, int(round(self.retry_after * depth
                                        / float(self.max_depth)))))

    def submit(self, spec, client=None, completed_report=None,
               cached=False):
        """Admit one spec; returns ``(job, deduplicated)``.

        Identical in-flight or done work joins the existing job (the
        idempotency guarantee); settled failures do *not* absorb
        resubmissions — a failed point may legitimately be retried.
        ``completed_report`` admits the job already done (the warm
        memo-table path: the content-addressed cache held the result, so
        no execution is needed — but the job still exists and is
        journaled, keeping the WAL the complete execution history).
        """
        key = spec.key()
        with self._lock:
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state in JobState.ACTIVE or (
                    existing.state == JobState.DONE
                ):
                    existing.duplicates += 1
                    self.dedup_hits += 1
                    return existing, True
            depth = self.depth()
            if completed_report is None and depth >= self.max_depth:
                raise QueueFullError(
                    "queue full: {} active job(s) (max {})".format(
                        depth, self.max_depth
                    ),
                    retry_after=self.retry_after_hint(depth),
                )
            seq = self._next_seq
            job_id = "j-{:08d}".format(seq)
            job = Job(job_id, key, spec, client, seq)
            self._append({
                "op": "submit",
                "job": job_id,
                "key": key,
                "client": client,
                "spec": spec.as_dict(),
            })
            self._jobs[job_id] = job
            self._by_key[key] = job_id
            if completed_report is not None:
                self._append({
                    "op": "done",
                    "job": job_id,
                    "report": completed_report,
                    "cached": cached,
                }, best_effort=True)
                job.state = JobState.DONE
                job.report = completed_report
                job.cached = cached
                self._settled.notify_all()
            else:
                self._pending.append(job_id)
                self._has_pending.notify_all()
            return job, False

    # -- lease / worker transitions --------------------------------------

    def lease(self, limit, timeout=None):
        """Up to ``limit`` pending jobs, atomically moved to ``leased``.

        Blocks until at least one job is pending, the timeout elapses
        (returns ``[]``), or the queue is closed (returns ``[]``).
        """
        with self._lock:
            if not self._pending and not self._closed:
                self._has_pending.wait(timeout)
            if self._closed or not self._pending:
                return []
            taken, rest = self._pending[:limit], self._pending[limit:]
            self._pending = rest
            jobs = []
            for job_id in taken:
                job = self._jobs[job_id]
                self._append({"op": "lease", "job": job_id},
                             best_effort=True)
                job.state = JobState.LEASED
                jobs.append(job)
            return jobs

    def mark_running(self, job_id):
        with self._lock:
            job = self._require(job_id)
            if job.state != JobState.LEASED:
                raise JobConflictError(
                    "job {} is {}, not leased".format(job_id, job.state)
                )
            self._append({
                "op": "run", "job": job_id, "attempt": job.attempts + 1,
            }, best_effort=True)
            job.state = JobState.RUNNING
            job.attempts += 1

    def complete(self, job_id, report, cached=False):
        with self._lock:
            job = self._require(job_id)
            if job.state not in (JobState.LEASED, JobState.RUNNING):
                raise JobConflictError(
                    "job {} is {}, not in flight".format(job_id, job.state)
                )
            self._append({
                "op": "done", "job": job_id, "report": report,
                "cached": cached,
            }, best_effort=True)
            job.state = JobState.DONE
            job.report = report
            job.cached = cached
            self._settled.notify_all()

    def fail(self, job_id, error_kind, error):
        with self._lock:
            job = self._require(job_id)
            if job.state not in (JobState.LEASED, JobState.RUNNING):
                raise JobConflictError(
                    "job {} is {}, not in flight".format(job_id, job.state)
                )
            self._append({
                "op": "fail", "job": job_id, "error_kind": error_kind,
                "error": error,
            }, best_effort=True)
            job.state = (
                JobState.QUARANTINED if error_kind == "quarantined"
                else JobState.FAILED
            )
            job.error = error
            job.error_kind = error_kind
            self._settled.notify_all()

    def cancel(self, job_id):
        """Cancel a job that has not been leased yet.

        In-flight and settled jobs conflict (HTTP 409): the supervisor
        owns a running job's fate (timeout/retry/quarantine), and a
        settled job's history is immutable.
        """
        with self._lock:
            job = self._require(job_id)
            if job.state != JobState.SUBMITTED:
                raise JobConflictError(
                    "cannot cancel job {} in state {}".format(
                        job_id, job.state
                    )
                )
            self._append({"op": "cancel", "job": job_id})
            job.state = JobState.CANCELLED
            self._drop_pending(job_id)
            self._settled.notify_all()

    def requeue(self, job_ids):
        """Rewind leased/running jobs to ``submitted`` (drain path)."""
        with self._lock:
            for job_id in job_ids:
                job = self._require(job_id)
                if job.state not in (JobState.LEASED, JobState.RUNNING):
                    continue
                self._append({"op": "requeue", "job": job_id},
                             best_effort=True)
                job.state = JobState.SUBMITTED
                self._pending.append(job.id)
            self._pending.sort(key=lambda job_id: self._jobs[job_id].seq)
            self._has_pending.notify_all()

    # -- introspection ---------------------------------------------------

    def _require(self, job_id):
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError("no job {!r}".format(job_id))
        return job

    def get(self, job_id):
        with self._lock:
            return self._require(job_id)

    def find_by_key(self, key):
        with self._lock:
            job_id = self._by_key.get(key)
            return None if job_id is None else self._jobs[job_id]

    def jobs(self):
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    def dedup_count(self):
        with self._lock:
            return self.dedup_hits

    def status_of(self, job_id):
        """The job's status body, snapshotted under the queue lock.

        Callers outside the engine must not read ``Job`` fields
        directly: the engine thread transitions jobs under the lock, so
        an unlocked ``job.state``/``job.cached`` read can observe a
        half-applied transition.
        """
        with self._lock:
            return self._require(job_id).status_dict()

    def snapshot(self, job_id):
        """:meth:`status_of` plus the report — the result-endpoint view."""
        with self._lock:
            job = self._require(job_id)
            body = job.status_dict()
            body["report"] = job.report
            return body

    def key_state(self, key):
        """State of the latest job for an idempotency key, or ``None``."""
        with self._lock:
            job_id = self._by_key.get(key)
            return None if job_id is None else self._jobs[job_id].state

    def statuses(self):
        """Status bodies for every job, in submission order, one lock."""
        with self._lock:
            ordered = sorted(self._jobs.values(), key=lambda job: job.seq)
            return [job.status_dict() for job in ordered]

    def in_flight(self, job_ids=None):
        """IDs (among ``job_ids``; all when ``None``) still leased/running."""
        with self._lock:
            if job_ids is None:
                job_ids = [
                    job.id for job in
                    sorted(self._jobs.values(), key=lambda job: job.seq)
                ]
            out = []
            for job_id in job_ids:
                job = self._jobs.get(job_id)
                if job is not None and job.state in (
                        JobState.LEASED, JobState.RUNNING):
                    out.append(job_id)
            return out

    def wait_settled(self, job_id, timeout=None):
        """Block until the job reaches a terminal state; returns it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            job = self._require(job_id)
            while job.state not in JobState.TERMINAL:
                if deadline is None:
                    self._settled.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job
                self._settled.wait(remaining)
            return job

    def close(self):
        """Wake every waiter; subsequent leases return empty."""
        with self._lock:
            self._closed = True
            self._has_pending.notify_all()
            self._settled.notify_all()
