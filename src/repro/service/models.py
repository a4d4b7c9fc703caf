"""Submission specs and the typed service error taxonomy.

A submission is JSON: ``{"experiment": name, "scale": s, "seed": n,
"options": {...}}`` (a sweep adds ``"seeds": [...]``).  Validation is
dependency-free and strict — every defect is a typed
:class:`SpecValidationError` naming the field, never a traceback out of
the server — and yields the campaign engine's own
:class:`repro.experiments.JobSpec`, whose :meth:`~repro.experiments.JobSpec.key`
is both the service's **idempotency key** and the content-addressed
cache key, so the service, the CLI and the chaos harness all address
the same memo table.

Errors follow the campaign engine's taxonomy style
(:mod:`repro.experiments.errors`): each :class:`ServiceError` subclass
carries a stable machine-readable ``kind`` plus the HTTP status it maps
to, so the front-end translates mechanically and clients key on types
instead of prose.  This module is the single source of validation
truth.
"""

import math

from repro.experiments import JobSpec
from repro.experiments.runner import experiment_names
from repro.ioutil import canonical_json

#: Hard ceiling on one sweep submission; a bigger sweep must be split
#: by the client so admission control can meter it.
MAX_SWEEP_SEEDS = 1024


class JobState:
    """The job lifecycle state machine (values stored in the WAL).

    ``SUBMITTED → LEASED → RUNNING → DONE | FAILED | QUARANTINED``;
    ``SUBMITTED → CANCELLED`` (cancel only before a lease); a crash or
    drain rewinds ``LEASED``/``RUNNING`` back to ``SUBMITTED`` via an
    explicit ``requeue`` transition, never silently.
    """

    SUBMITTED = "submitted"
    LEASED = "leased"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"
    CANCELLED = "cancelled"

    ALL = (SUBMITTED, LEASED, RUNNING, DONE, FAILED, QUARANTINED, CANCELLED)
    #: States still occupying queue/pool capacity (feed admission control).
    ACTIVE = (SUBMITTED, LEASED, RUNNING)
    #: Settled states — the job will never change again.
    TERMINAL = (DONE, FAILED, QUARANTINED, CANCELLED)


# -- error taxonomy --------------------------------------------------------


class ServiceError(Exception):
    """Base class: a request the service refuses, typed for transport.

    ``kind`` is the stable machine tag (mirrors
    :class:`repro.experiments.errors.CampaignError.kind`);
    ``http_status`` is the one status this error maps to;
    ``retry_after`` (seconds, optional) becomes a ``Retry-After``
    header when present.
    """

    kind = "service-error"
    http_status = 500

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after

    def as_dict(self):
        body = {"error": str(self), "kind": self.kind}
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return body


class SpecValidationError(ServiceError):
    """The submission payload is malformed (wrong shape/type/value)."""

    kind = "invalid-spec"
    http_status = 400


class UnknownExperimentError(SpecValidationError):
    """The named experiment is not in the registry."""

    kind = "unknown-experiment"


class JobNotFoundError(ServiceError):
    """No job with the requested id (or it predates the WAL)."""

    kind = "job-not-found"
    http_status = 404


class JobConflictError(ServiceError):
    """The transition is illegal from the job's current state
    (e.g. cancelling a job that is already running or settled)."""

    kind = "job-conflict"
    http_status = 409


class QueueFullError(ServiceError):
    """Admission control: the bounded queue is at capacity."""

    kind = "queue-full"
    http_status = 429


class RateLimitedError(ServiceError):
    """Admission control: the client exceeded its submission budget."""

    kind = "rate-limited"
    http_status = 429


class ServiceDrainingError(ServiceError):
    """The server is draining after SIGTERM; resubmit after restart."""

    kind = "draining"
    http_status = 503


class StoreFailureError(ServiceError):
    """The WAL append failed (full disk, I/O error); nothing was
    admitted — the submission is safe to retry."""

    kind = "store-failure"
    http_status = 503


#: Campaign-engine ``error_kind`` values a *failed* job surfaces; the
#: job status body carries the kind verbatim so clients key on the PR 6
#: taxonomy (worker-crash, task-timeout, task-error, quarantined, ...).
FAILED_JOB_HTTP_STATUS = 500


# -- spec validation -------------------------------------------------------


def _require_mapping(payload):
    if not isinstance(payload, dict):
        raise SpecValidationError(
            "submission must be a JSON object, got {}".format(
                type(payload).__name__
            )
        )


def _validate_experiment(payload):
    name = payload.get("experiment")
    if not isinstance(name, str) or not name:
        raise SpecValidationError(
            'field "experiment" must be a non-empty string'
        )
    known = experiment_names()
    if name not in known:
        raise UnknownExperimentError(
            "unknown experiment {!r}; choose from {}".format(name, known)
        )
    return name


def _validate_scale(payload):
    scale = payload.get("scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise SpecValidationError('field "scale" must be a number')
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0:
        raise SpecValidationError(
            'field "scale" must be a positive finite number, got {!r}'.format(
                scale
            )
        )
    return scale


def _validate_seed(value, field="seed"):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(
            'field "{}" must be an integer'.format(field)
        )
    if value < 0:
        raise SpecValidationError(
            'field "{}" must be non-negative, got {}'.format(field, value)
        )
    return value


def _validate_options(payload):
    options = payload.get("options", {})
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise SpecValidationError('field "options" must be a JSON object')
    if any(not isinstance(key, str) for key in options):
        raise SpecValidationError('"options" keys must be strings')
    try:
        canonical_json(options)
    except (TypeError, ValueError) as error:
        raise SpecValidationError(
            '"options" must be JSON-representable: {}'.format(error)
        )
    return options


_KNOWN_FIELDS = frozenset(("experiment", "scale", "seed", "options"))
_KNOWN_SWEEP_FIELDS = _KNOWN_FIELDS | frozenset(("seeds",))


def _reject_unknown_fields(payload, known):
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise SpecValidationError(
            "unknown field(s): {}".format(", ".join(unknown))
        )


def validate_submission(payload):
    """Validate one job submission; returns a :class:`JobSpec`.

    Every defect raises a typed :class:`SpecValidationError` (HTTP 400)
    naming the offending field — garbage in a request body must never
    become a traceback out of the server.
    """
    _require_mapping(payload)
    _reject_unknown_fields(payload, _KNOWN_FIELDS)
    name = _validate_experiment(payload)
    scale = _validate_scale(payload)
    seed = _validate_seed(payload.get("seed", 1))
    options = _validate_options(payload)
    return JobSpec(name, scale=scale, seed=seed, options=options)


def validate_sweep(payload):
    """Validate a sweep submission; returns a list of :class:`JobSpec`.

    A sweep is one experiment/scale/options point crossed with an
    explicit ``"seeds"`` list — the service-side analogue of the
    replication sweep, bounded by :data:`MAX_SWEEP_SEEDS` so one request
    cannot blow past admission control.
    """
    _require_mapping(payload)
    _reject_unknown_fields(payload, _KNOWN_SWEEP_FIELDS)
    if "seed" in payload and "seeds" in payload:
        raise SpecValidationError('"seed" and "seeds" are mutually exclusive')
    name = _validate_experiment(payload)
    scale = _validate_scale(payload)
    options = _validate_options(payload)
    seeds = payload.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise SpecValidationError(
            'field "seeds" must be a non-empty list of integers'
        )
    if len(seeds) > MAX_SWEEP_SEEDS:
        raise SpecValidationError(
            "sweep of {} seeds exceeds the per-request limit of {}; "
            "split the sweep".format(len(seeds), MAX_SWEEP_SEEDS)
        )
    validated = [_validate_seed(seed, field="seeds") for seed in seeds]
    if len(set(validated)) != len(validated):
        raise SpecValidationError('"seeds" must not contain duplicates')
    return [
        JobSpec(name, scale=scale, seed=seed, options=options)
        for seed in validated
    ]
