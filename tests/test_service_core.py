"""ServiceCore request semantics: statuses, admission, probes, drain.

Most tests drive an *unstarted* core (no engine thread), so admission
and introspection behaviour is deterministic — jobs stay ``submitted``
until a test says otherwise.  A handful of end-to-end tests start the
engine and run a real (tiny) experiment.
"""

import os
import time

import pytest

from repro.experiments import JobSpec
from repro.service.core import ServiceCore
from repro.service.models import JobState, RateLimitedError
from repro.service.ratelimit import RateLimiter

SCALE = 0.05


def make_core(tmp_path, started=False, cache=False, **kwargs):
    core = ServiceCore(
        os.path.join(str(tmp_path), "state"),
        cache_dir=os.path.join(str(tmp_path), "cache") if cache else None,
        workers=2,
        **kwargs
    )
    if started:
        core.start()
    return core


def payload(seed=1, **extra):
    body = {"experiment": "figure5", "scale": SCALE, "seed": seed}
    body.update(extra)
    return body


# ---------------------------------------------------------------------------
# Submission statuses.
# ---------------------------------------------------------------------------


def test_submit_returns_202_and_job_body(tmp_path):
    core = make_core(tmp_path)
    status, body, headers = core.submit(payload())
    assert status == 202
    assert body["state"] == JobState.SUBMITTED
    assert body["experiment"] == "figure5"
    assert not body["deduplicated"]


def test_duplicate_submission_is_flagged_and_shares_the_job(tmp_path):
    core = make_core(tmp_path)
    _, first, _ = core.submit(payload())
    status, second, _ = core.submit(payload())
    assert status == 202
    assert second["job"] == first["job"]
    assert second["deduplicated"]


def test_malformed_submissions_get_typed_400s(tmp_path):
    core = make_core(tmp_path)
    cases = [
        ({"experiment": "no-such"}, "unknown-experiment"),
        ({"experiment": "figure5", "scale": -2}, "invalid-spec"),
        ({"experiment": "figure5", "seed": "x"}, "invalid-spec"),
        ({"experiment": "figure5", "wat": 1}, "invalid-spec"),
        (["list"], "invalid-spec"),
        ({"experiment": "figure5", "scale": float("nan")}, "invalid-spec"),
    ]
    for bad, kind in cases:
        status, body, _ = core.submit(bad)
        assert status == 400, bad
        assert body["kind"] == kind, bad


def test_queue_full_gives_429_with_retry_after_header(tmp_path):
    core = make_core(tmp_path, max_depth=2)
    core.submit(payload(seed=1))
    core.submit(payload(seed=2))
    status, body, headers = core.submit(payload(seed=3))
    assert status == 429
    assert body["kind"] == "queue-full"
    assert int(headers["Retry-After"]) >= 1


def test_warm_cache_admits_job_already_done(tmp_path):
    core = make_core(tmp_path, cache=True)
    key = JobSpec("figure5", scale=SCALE, seed=7).key()
    core.cache.put(key, {"name": "figure5", "report": "warm report"})
    status, body, _ = core.submit(payload(seed=7))
    assert status == 200
    assert body["state"] == JobState.DONE and body["cached"]
    status, result, _ = core.job_result(body["job"])
    assert status == 200 and result["report"] == "warm report"
    # It is journaled like any other job — the WAL is complete history.
    assert core.queue.status_of(body["job"])["cached"]


def test_sweep_admits_each_seed_and_reports_partial_admission(tmp_path):
    core = make_core(tmp_path, max_depth=3)
    status, body, _ = core.submit_sweep(
        {"experiment": "figure5", "scale": SCALE, "seeds": [1, 2, 3]}
    )
    assert status == 202 and body["count"] == 3
    status, body, headers = core.submit_sweep(
        {"experiment": "figure5", "scale": SCALE, "seeds": [4, 5]}
    )
    assert status == 429
    assert body["admitted"] == []
    assert body["rejected_seeds"] == [4, 5]
    assert "Retry-After" in headers


def test_sweep_validation_rejects_duplicates_and_mixed_seed_fields(tmp_path):
    core = make_core(tmp_path)
    status, body, _ = core.submit_sweep(
        {"experiment": "figure5", "seeds": [1, 1]}
    )
    assert status == 400
    status, body, _ = core.submit_sweep(
        {"experiment": "figure5", "seed": 1, "seeds": [2]}
    )
    assert status == 400


# ---------------------------------------------------------------------------
# Rate limiting.
# ---------------------------------------------------------------------------


def test_rate_limiter_enforces_burst_then_recovers():
    limiter = RateLimiter(rate=1000.0, burst=3)
    for _ in range(3):
        limiter.check("alice")
    with pytest.raises(RateLimitedError) as excinfo:
        limiter.check("alice")
    assert excinfo.value.http_status == 429
    assert excinfo.value.retry_after >= 1
    limiter.check("bob")  # other clients are unaffected
    time.sleep(0.01)  # 1000/s refills fast
    limiter.check("alice")
    assert limiter.denied_count() == 1


def test_rate_limiter_disabled_when_rate_is_none():
    limiter = RateLimiter(rate=None, burst=1)
    for _ in range(100):
        limiter.check("anyone")
    assert limiter.denied_count() == 0


def test_core_surfaces_rate_limit_as_429(tmp_path):
    core = make_core(tmp_path, rate=0.001, burst=1)
    status, _, _ = core.submit(payload(seed=1), client="c1")
    assert status == 202
    status, body, headers = core.submit(payload(seed=2), client="c1")
    assert status == 429
    assert body["kind"] == "rate-limited"
    assert "Retry-After" in headers
    status, _, _ = core.submit(payload(seed=3), client="c2")
    assert status == 202


# ---------------------------------------------------------------------------
# Introspection and probes.
# ---------------------------------------------------------------------------


def test_job_result_statuses_by_state(tmp_path):
    core = make_core(tmp_path)
    _, body, _ = core.submit(payload())
    job_id = body["job"]
    status, result, headers = core.job_result(job_id)
    assert status == 202 and "Retry-After" in headers
    core.queue.lease(1)
    core.queue.fail(job_id, "worker-crash", "kaboom")
    status, result, _ = core.job_result(job_id)
    assert status == 500
    assert result["error_kind"] == "worker-crash"
    status, result, _ = core.job_result("j-404")
    assert status == 404
    _, body, _ = core.submit(payload(seed=5))
    core.cancel(body["job"])
    status, result, _ = core.job_result(body["job"])
    assert status == 409


def test_healthz_always_ok_readyz_tracks_saturation(tmp_path):
    core = make_core(tmp_path, max_depth=1)
    status, body, _ = core.healthz()
    assert status == 200 and body["status"] == "ok"
    status, body, _ = core.readyz()
    assert status == 200 and body["ready"]
    core.submit(payload())
    status, body, headers = core.readyz()
    assert status == 503 and body["status"] == "saturated"
    assert "Retry-After" in headers
    status, body, _ = core.healthz()
    assert status == 200  # liveness unaffected by saturation


def test_drain_refuses_submissions_and_flips_readyz(tmp_path):
    core = make_core(tmp_path, started=True)
    core.drain(timeout=5.0)
    status, body, _ = core.submit(payload())
    assert status == 503 and body["kind"] == "draining"
    status, body, _ = core.readyz()
    assert status == 503 and body["status"] == "draining"


def test_stats_reports_counters_and_cache(tmp_path):
    core = make_core(tmp_path, cache=True, cache_max_bytes=1 << 20)
    core.submit(payload())
    status, body, _ = core.stats()
    assert status == 200
    assert body["wal_appended"] >= 1
    assert body["counts"][JobState.SUBMITTED] == 1
    assert body["cache"]["stores"] == 0
    assert body["cache_max_bytes"] == 1 << 20


# ---------------------------------------------------------------------------
# End to end with the engine running.
# ---------------------------------------------------------------------------


def test_end_to_end_execution_and_memoization(tmp_path):
    core = make_core(tmp_path, started=True, cache=True, timeout=60)
    try:
        _, body, _ = core.submit(payload(seed=11))
        job = core.queue.wait_settled(body["job"], timeout=120)
        assert job.state == JobState.DONE
        report = job.report
        assert "Figure 5" in report
        # Same work requested again after settlement: served as done.
        status, again, _ = core.submit(payload(seed=11))
        assert status == 200 and again["state"] == JobState.DONE
        assert core.engine.executed == 1
    finally:
        core.close()


def test_restart_resumes_pending_jobs_bit_identical(tmp_path):
    reference_core = make_core(tmp_path, started=True, timeout=60)
    try:
        _, body, _ = reference_core.submit(payload(seed=21))
        reference = reference_core.queue.wait_settled(
            body["job"], timeout=120
        ).report
    finally:
        reference_core.close()

    # Submit against a core that never runs anything, then "crash".
    cold = ServiceCore(os.path.join(str(tmp_path), "state2"), workers=2)
    cold.queue.recover()
    _, body, _ = cold.submit(payload(seed=21))
    job_id = body["job"]
    # No clean shutdown: the WAL alone carries the job.

    revived = ServiceCore(os.path.join(str(tmp_path), "state2"),
                          workers=2, timeout=60)
    revived.start()
    try:
        job = revived.queue.wait_settled(job_id, timeout=120)
        assert job.state == JobState.DONE
        assert job.report == reference
    finally:
        revived.close()
