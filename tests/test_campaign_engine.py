"""Tests for the persistent worker pool and the cached campaign engine.

Supervisor retry/timeout basics and the result store live in
``test_supervisor.py``; everything here exercises the pool itself:
worker reuse, crash containment, ``pool_map`` determinism, and
campaigns that are bit-identical across ``jobs`` counts and cache
reruns.
"""

import os
import time

import pytest

from repro.experiments.cache import ResultCache, experiment_key
from repro.experiments.supervisor import (
    Supervisor,
    TaskSpec,
    default_jobs,
    pool_map,
    run_campaign,
)

CAMPAIGN_NAMES = ["figure8", "hardware", "hwscale"]


# Pool entry points must be module-level so forked/spawned workers can
# unpickle them.

def _square(x):
    return x * x


def _pair(x, y):
    return (x, y, os.getpid())


def _boom(x):
    raise ValueError("boom {}".format(x))


def _die(x):
    os._exit(9)


def pid_task_runner(spec, resume):
    return "pid={} name={}".format(os.getpid(), spec.name)


def crashy_task_runner(spec, resume):
    if spec.name == "dies":
        os._exit(7)
    return "survived " + spec.name


def erroring_task_runner(spec, resume):
    if spec.name == "bad":
        raise ValueError("synthetic task error")
    return "pid={} name={}".format(os.getpid(), spec.name)


def flaky_task_runner(spec, resume):
    # Errors on the first attempt; the retry arrives with resume=True.
    if not resume:
        raise ValueError("transient")
    return "recovered " + spec.name


def sleepy_task_runner(spec, resume):
    time.sleep(60)


def _fast_supervisor(**kwargs):
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("backoff", 0.01)
    return Supervisor(**kwargs)


def _pids(outcomes):
    return {
        outcome.report.split()[0] for outcome in outcomes.values()
    }


# -- default_jobs ---------------------------------------------------------


def test_default_jobs_is_a_positive_int():
    jobs = default_jobs()
    assert isinstance(jobs, int)
    assert jobs >= 1


# -- pool_map -------------------------------------------------------------


def test_pool_map_inline_without_jobs():
    assert pool_map(_square, [(3,), (4,)]) == [9, 16]
    assert pool_map(_square, [(3,), (4,)], jobs=1) == [9, 16]


def test_pool_map_results_independent_of_jobs():
    calls = [(i,) for i in range(9)]
    serial = pool_map(_square, calls, jobs=1)
    assert pool_map(_square, calls, jobs=3) == serial
    assert pool_map(_square, calls, jobs=9) == serial


def test_pool_map_preserves_submission_order():
    calls = [(i, i * 10) for i in range(6)]
    results = pool_map(_pair, calls, jobs=2)
    assert [(x, y) for x, y, _pid in results] == calls


def test_pool_map_reuses_workers():
    results = pool_map(_pair, [(i, i) for i in range(6)], jobs=2)
    worker_pids = {pid for _x, _y, pid in results}
    assert len(worker_pids) <= 2
    assert os.getpid() not in worker_pids


def test_pool_map_task_error_raises():
    with pytest.raises(RuntimeError, match="ValueError: boom"):
        pool_map(_boom, [(1,), (2,)], jobs=2)


def test_pool_map_worker_crash_raises():
    with pytest.raises(RuntimeError, match="worker crashed"):
        pool_map(_die, [(1,), (2,)], jobs=2)


# -- Supervisor on the pool ----------------------------------------------


def test_workers_are_reused_across_tasks():
    supervisor = _fast_supervisor(jobs=1, task_runner=pid_task_runner)
    specs = [TaskSpec("t{}".format(i)) for i in range(3)]
    outcomes = supervisor.run(specs)
    assert all(o.status == "done" for o in outcomes.values())
    pids = _pids(outcomes)
    assert len(pids) == 1  # one persistent worker served every task
    assert pids != {"pid={}".format(os.getpid())}  # and it was not us
    assert supervisor.workers_spawned == 1


def test_task_error_keeps_worker_warm():
    supervisor = _fast_supervisor(
        jobs=1, retries=0, task_runner=erroring_task_runner
    )
    outcomes = supervisor.run(
        [TaskSpec("ok1"), TaskSpec("bad"), TaskSpec("ok2")]
    )
    assert outcomes["bad"].status == "failed"
    assert "synthetic task error" in outcomes["bad"].error
    assert outcomes["ok1"].status == "done"
    assert outcomes["ok2"].status == "done"
    # The exception was reported over the pipe, not fatal: the same
    # worker process served all three tasks.
    assert supervisor.workers_spawned == 1
    assert _pids({k: v for k, v in outcomes.items() if k != "bad"})


def test_worker_crash_is_contained_and_replaced():
    supervisor = _fast_supervisor(
        jobs=1, retries=0, task_runner=crashy_task_runner
    )
    outcomes = supervisor.run([TaskSpec("dies"), TaskSpec("lives")])
    assert outcomes["dies"].status == "failed"
    assert "crashed" in outcomes["dies"].error
    assert outcomes["lives"].status == "done"
    assert supervisor.workers_spawned == 2  # crash cost one respawn


def test_pool_retry_resumes_and_recovers():
    supervisor = _fast_supervisor(retries=1, task_runner=flaky_task_runner)
    outcomes = supervisor.run([TaskSpec("flaky")])
    assert outcomes["flaky"].status == "done"
    assert outcomes["flaky"].attempts == 2
    assert outcomes["flaky"].report == "recovered flaky"


def test_pool_timeout_kills_hung_worker():
    supervisor = _fast_supervisor(
        jobs=1, timeout=0.3, retries=0, task_runner=sleepy_task_runner
    )
    start = time.monotonic()
    outcomes = supervisor.run([TaskSpec("hangs")])
    assert time.monotonic() - start < 10
    assert outcomes["hangs"].status == "failed"
    assert "timed out" in outcomes["hangs"].error


# -- campaigns ------------------------------------------------------------


def _run(tmp_path, tag, **kwargs):
    kwargs.setdefault("names", CAMPAIGN_NAMES)
    kwargs.setdefault("scale", 0.05)
    kwargs.setdefault("checkpoint_dir", str(tmp_path / tag))
    return run_campaign(**kwargs)


def test_campaign_bit_identical_across_jobs(tmp_path):
    serial = _run(tmp_path, "serial", jobs=1)
    parallel = _run(tmp_path, "parallel", jobs=4)
    assert serial.ok and parallel.ok
    assert parallel.format_report() == serial.format_report()


def test_campaign_cache_hit_on_identical_rerun(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = _run(tmp_path, "cold", jobs=1, cache_dir=cache_dir)
    assert cold.ok
    assert cold.cache_stats.hits == 0
    assert cold.cache_stats.stores == len(CAMPAIGN_NAMES)

    warm = _run(tmp_path, "warm", jobs=1, cache_dir=cache_dir)
    assert warm.ok
    assert warm.cache_stats.hits == len(CAMPAIGN_NAMES)
    assert warm.cache_stats.misses == 0
    assert warm.cached == CAMPAIGN_NAMES
    assert warm.format_report() == cold.format_report()


def test_campaign_cache_misses_on_config_and_seed_change(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _run(tmp_path, "base", jobs=1, cache_dir=cache_dir)
    reseeded = _run(tmp_path, "seed", jobs=1, cache_dir=cache_dir, seed=2)
    assert reseeded.cache_stats.hits == 0
    rescaled = _run(
        tmp_path, "scale", jobs=1, cache_dir=cache_dir, scale=0.1
    )
    assert rescaled.cache_stats.hits == 0


def test_campaign_survives_corrupted_cache_entries(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = _run(tmp_path, "cold", jobs=1, cache_dir=cache_dir)
    cache = ResultCache(cache_dir)
    for name in CAMPAIGN_NAMES:
        path = cache.entry_path(
            experiment_key(name, scale=0.05, seed=1)
        )
        with open(path, "w") as handle:
            handle.write("garbage, not an envelope")
    rerun = _run(tmp_path, "rerun", jobs=1, cache_dir=cache_dir)
    assert rerun.ok
    assert rerun.cache_stats.hits == 0
    assert rerun.cache_stats.invalidated == len(CAMPAIGN_NAMES)
    assert rerun.format_report() == cold.format_report()


def test_campaign_without_cache_has_no_stats(tmp_path):
    campaign = _run(tmp_path, "plain", jobs=1)
    assert campaign.cache_stats is None
    assert campaign.format_cache_summary() == ""


def test_campaign_cache_summary_block(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _run(tmp_path, "cold", jobs=1, cache_dir=cache_dir)
    warm = _run(tmp_path, "warm", jobs=1, cache_dir=cache_dir)
    summary = warm.format_cache_summary()
    assert "campaign result cache" in summary
    assert "hit_rate: 100.0%" in summary
    assert "figure8" in summary


def test_campaign_emits_grep_friendly_cache_line(tmp_path):
    events = []
    _run(
        tmp_path, "cold", jobs=1,
        cache_dir=str(tmp_path / "cache"), on_event=events.append,
    )
    lines = [e for e in events if e.startswith("campaign cache: ")]
    assert len(lines) == 1
    assert "stores={}".format(len(CAMPAIGN_NAMES)) in lines[0]
