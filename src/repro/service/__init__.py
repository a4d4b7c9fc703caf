"""Durable design-space-exploration service (``python -m repro.service``).

The campaign engine (PR 4/6) runs one supervised campaign and exits;
this package wraps it in a **long-running server** so many concurrent
clients can sweep LOTTERYBUS arbiter/ticket configurations against one
warm content-addressed cache:

* :mod:`repro.service.models` — experiment/sweep submission specs with
  strict validation and a typed :class:`~repro.service.models.ServiceError`
  taxonomy that maps one-to-one onto HTTP statuses;
* :mod:`repro.service.wal` — the write-ahead log (a
  :class:`repro.ioutil.RecordLog`) every job state transition goes
  through *before* the in-memory queue changes, so a ``kill -9`` at any
  byte offset loses no job and duplicates none;
* :mod:`repro.service.queue` — the WAL-backed job state machine
  (``submitted → leased → running → done/failed/quarantined``) with
  idempotency keys, a bounded queue and admission control;
* :mod:`repro.service.engine` — the lease/worker loop delegating
  execution to the PR 6 :class:`~repro.experiments.supervisor.Supervisor`
  (timeouts, retries, heartbeats, quarantine, circuit breaker);
* :mod:`repro.service.core` — the framework-agnostic request API the
  HTTP front-end dispatches into;
* :mod:`repro.service.http` — the dependency-free stdlib HTTP server
  (graceful SIGTERM drain, exit 143, resumable state);
* :mod:`repro.service.client` — a stdlib client used by the chaos
  harness, the benchmark and the tests.
"""

from repro.service.core import ServiceCore
from repro.service.engine import ServiceEngine
from repro.service.models import (
    JobSpec,
    JobState,
    ServiceError,
    validate_submission,
    validate_sweep,
)
from repro.service.queue import JobQueue
from repro.service.wal import JobWAL

__all__ = [
    "JobSpec",
    "JobState",
    "JobQueue",
    "JobWAL",
    "ServiceCore",
    "ServiceEngine",
    "ServiceError",
    "validate_submission",
    "validate_sweep",
]
