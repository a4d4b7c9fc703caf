"""Tests for the supervised experiment executor and its result store."""

import json
import os
import time

import pytest

from repro.experiments.supervisor import (
    JobSpec,
    ResultStore,
    Supervisor,
    run_campaign,
)


# Task runners must be module-level so every multiprocessing start
# method can reach them.

def ok_runner(spec, checkpointer):
    return "report for " + spec.experiment


def crash_runner(spec, checkpointer):
    os._exit(3)


def hang_runner(spec, checkpointer):
    time.sleep(60)


def error_runner(spec, checkpointer):
    raise ValueError("synthetic failure")


def flaky_runner(spec, checkpointer):
    # Crashes on the first attempt; the retry resumes its checkpoints.
    if not checkpointer.resume:
        os._exit(1)
    return "recovered " + spec.experiment


def _specs(*labels):
    return {label: JobSpec(label) for label in labels}


def _fast_supervisor(**kwargs):
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("backoff", 0.01)
    return Supervisor(**kwargs)


# -- ResultStore ----------------------------------------------------------


def test_store_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "r.jsonl"))
    store.append({"name": "a", "status": "done", "report": "ra"})
    store.append({"name": "b", "status": "failed", "error": "boom"})
    store.append({"name": "c", "status": "done", "report": "rc"})
    completed = store.load()
    assert set(completed) == {"a", "c"}
    assert completed["a"]["report"] == "ra"


def test_store_tolerates_torn_tail_line(tmp_path):
    path = tmp_path / "r.jsonl"
    store = ResultStore(str(path))
    store.append({"name": "a", "status": "done", "report": "ra"})
    with open(path, "a") as handle:
        handle.write('{"name": "b", "status": "do')  # killed mid-append
    assert set(store.load()) == {"a"}


def test_store_missing_file_is_empty(tmp_path):
    assert ResultStore(str(tmp_path / "none.jsonl")).load() == {}


# -- Supervisor -----------------------------------------------------------


def test_tasks_complete_and_land_in_store(tmp_path):
    store = ResultStore(str(tmp_path / "r.jsonl"))
    supervisor = _fast_supervisor(jobs=3, task_runner=ok_runner)
    specs = _specs(*("t{}".format(i) for i in range(5)))
    outcomes = supervisor.run(specs, store=store)
    assert len(outcomes) == 5
    assert all(o.status == "done" for o in outcomes.values())
    assert set(store.load()) == set(specs)


def test_worker_crash_fails_task_not_campaign(tmp_path):
    supervisor = _fast_supervisor(jobs=2, retries=0, task_runner=crash_runner)
    outcomes = supervisor.run(_specs("dies", "dies2"))
    assert outcomes["dies"].status == "failed"
    assert "crashed" in outcomes["dies"].error
    assert outcomes["dies2"].status == "failed"


def test_worker_error_message_is_captured():
    supervisor = _fast_supervisor(retries=0, task_runner=error_runner)
    outcomes = supervisor.run(_specs("t"))
    assert outcomes["t"].status == "failed"
    assert "synthetic failure" in outcomes["t"].error


def test_timeout_kills_hanging_worker():
    supervisor = _fast_supervisor(
        timeout=0.3, retries=0, task_runner=hang_runner
    )
    start = time.monotonic()
    outcomes = supervisor.run(_specs("hangs"))
    assert time.monotonic() - start < 10
    assert outcomes["hangs"].status == "failed"
    assert "timed out" in outcomes["hangs"].error


def test_retry_recovers_with_resume_flag(tmp_path):
    events = []
    supervisor = _fast_supervisor(retries=1, task_runner=flaky_runner)
    outcomes = supervisor.run(
        _specs("flaky"), on_event=events.append,
        checkpoints={"flaky": (str(tmp_path / "flaky"), None)},
    )
    assert outcomes["flaky"].status == "done"
    assert outcomes["flaky"].attempts == 2
    assert outcomes["flaky"].report == "recovered flaky"
    assert any("retrying" in event for event in events)


def test_retries_are_bounded():
    supervisor = _fast_supervisor(
        retries=2, quarantine_after=None, task_runner=crash_runner
    )
    outcomes = supervisor.run(_specs("dies"))
    assert outcomes["dies"].status == "failed"
    assert outcomes["dies"].attempts == 3


def test_supervisor_validates_parameters():
    with pytest.raises(ValueError):
        Supervisor(jobs=0)
    with pytest.raises(ValueError):
        Supervisor(retries=-1)
    with pytest.raises(ValueError):
        Supervisor(timeout=0)


# -- run_campaign ---------------------------------------------------------


def test_campaign_resume_skips_recorded_tasks(tmp_path):
    directory = str(tmp_path / "ck")
    names = ["figure8", "hardware", "hwscale"]

    first = run_campaign(
        names=names,
        checkpoint_dir=directory,
        supervisor=_fast_supervisor(jobs=2, task_runner=ok_runner),
    )
    assert first.ok and first.skipped == []
    assert [name for name, _ in first.sections] == names

    events = []
    second = run_campaign(
        names=names,
        resume=True,
        checkpoint_dir=directory,
        on_event=events.append,
        supervisor=_fast_supervisor(jobs=2, task_runner=ok_runner),
    )
    assert second.skipped == names
    assert second.format_report() == first.format_report()
    assert sum("skipping" in event for event in events) == len(names)


def test_campaign_without_resume_restarts_fresh(tmp_path):
    directory = str(tmp_path / "ck")
    names = ["figure8"]
    run_campaign(
        names=names,
        checkpoint_dir=directory,
        supervisor=_fast_supervisor(task_runner=ok_runner),
    )
    again = run_campaign(
        names=names,
        checkpoint_dir=directory,
        supervisor=_fast_supervisor(task_runner=ok_runner),
    )
    assert again.skipped == []


def test_campaign_reports_failures_without_aborting(tmp_path):
    campaign = run_campaign(
        names=["figure8", "hardware"],
        checkpoint_dir=str(tmp_path / "ck"),
        supervisor=_fast_supervisor(retries=0, task_runner=crash_runner),
    )
    assert not campaign.ok
    assert set(campaign.failed) == {"figure8", "hardware"}
    report = campaign.format_report()
    assert "FAILED" in report


def test_campaign_store_is_json_lines(tmp_path):
    directory = tmp_path / "ck"
    run_campaign(
        names=["figure8"],
        checkpoint_dir=str(directory),
        supervisor=_fast_supervisor(task_runner=ok_runner),
    )
    lines = (directory / "results.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["name"] == "figure8"
    assert records[0]["status"] == "done"
