"""Golden pins for every stored key and record shape.

Cache keys, cache envelopes, service WAL records and campaign
``results.jsonl`` records outlive the code that wrote them: a restarted
service replays its WAL and a later campaign reads the cache.  Every
literal below was captured from the writers themselves and must not
change unless ``SCHEMA_VERSION`` is bumped on purpose.
"""

import hashlib
import os

from repro.experiments.cache import ResultCache
from repro.experiments.supervisor import ResultStore, TaskOutcome, run_campaign
from repro.service import JobQueue, JobSpec, JobWAL, ServiceCore

TABLE1_KEY = "6fa39ed86d8ba867127e7d4d17ec7af5d17ee83c20503f5468a8301bdb3c1320"
SWEEP_KEY = "860f6aa04391cc282248e71e7f75cb6b34e58ee6586c683f3cda79f480b20759"
FIGURE5_KEY = "a6765ce5df721395ee023d36353b6aaad3d9b46986552ac47f9478040c5428ee"

SWEEP_SPEC = JobSpec(
    "sweep", scale=0.1, seed=3, options={"screen": True, "max_burst": 8}
)

WAL_SUBMIT_LINE = (
    '{"_crc": 1502614122, "client": "golden", "job": "j-00000001", '
    '"key": "' + SWEEP_KEY + '", "op": "submit", "seq": 1, "spec": '
    '{"experiment": "sweep", "options": {"max_burst": 8, "screen": true}, '
    '"scale": 0.1, "seed": 3}}\n'
)

CACHE_ENVELOPE = (
    '{"key": "' + SWEEP_KEY + '", "kind": "lotterybus-result-cache", '
    '"record": {"name": "sweep", "report": "golden report"}, "schema": 1, '
    '"sha256": '
    '"1f23116acc6b271357ef101520c0f6d7ba8c6c0086c7208f83f9dba6967fbcd4"}'
)

RESULTS_LINE = (
    '{"_crc": 1423430302, "attempts": 1, "error": null, "error_kind": null, '
    '"name": "table1", "report": "golden report", "status": "done"}\n'
)

#: SHA-256 of the bytes the campaign engine writes for ``table1`` at
#: scale 0.05, seed 1: the cache envelope, the executed
#: ``results.jsonl`` record and the cache-hit ``results.jsonl`` record.
CAMPAIGN_ENVELOPE_SHA = (
    "fd4b666f29a7e4bbf226782ced5672b8ca194b0ee76795ed9b8cb5a3f6de97c0"
)
CAMPAIGN_RESULTS_SHA = (
    "c70a66eb0cd38f28503203a2e9deeb16bfd1c6ea493cf0a5ad4b58519e366c9d"
)
CAMPAIGN_HIT_RESULTS_SHA = (
    "e15ff22feae4f81bea399f1cd09855abc078caaaa0276fcb64ee93141b7335f5"
)

#: SHA-256 of the cache envelope the service writes for ``figure5`` at
#: scale 0.05, seed 11.
SERVICE_ENVELOPE_SHA = (
    "ddf755da38acc4d9d6f62f8255d2ec9e668160541f4e1af82ad5ce87f8929b15"
)


def _sha(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read(path):
    with open(path, "r") as handle:
        return handle.read()


def test_campaign_task_and_service_job_keys_are_pinned():
    assert JobSpec("table1", scale=0.05, seed=1).key() == TABLE1_KEY
    assert SWEEP_SPEC.key() == SWEEP_KEY
    assert JobSpec("figure5", scale=0.05, seed=11).key() == FIGURE5_KEY


def test_wal_submit_record_is_pinned(tmp_path):
    path = str(tmp_path / "queue.wal")
    queue = JobQueue(JobWAL(path))
    queue.submit(SWEEP_SPEC, client="golden")
    assert _read(path) == WAL_SUBMIT_LINE


def test_cache_envelope_is_pinned(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(SWEEP_KEY, {"name": "sweep", "report": "golden report"})
    assert _read(cache.entry_path(SWEEP_KEY)) == CACHE_ENVELOPE


def test_results_record_is_pinned(tmp_path):
    path = str(tmp_path / "results.jsonl")
    store = ResultStore(path)
    store.append(TaskOutcome("table1", "done", report="golden report").record())
    assert _read(path) == RESULTS_LINE


def test_campaign_writes_pinned_bytes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    for run, results_sha in (("cold", CAMPAIGN_RESULTS_SHA),
                             ("warm", CAMPAIGN_HIT_RESULTS_SHA)):
        checkpoint_dir = str(tmp_path / run)
        campaign = run_campaign(
            names=["table1"], scale=0.05, seed=1, jobs=1,
            checkpoint_dir=checkpoint_dir, cache_dir=cache_dir,
        )
        assert campaign.ok
        assert _sha(os.path.join(checkpoint_dir, "results.jsonl")) == \
            results_sha
    entries = sorted(
        name for _, _, names in os.walk(cache_dir) for name in names
    )
    assert entries == [TABLE1_KEY + ".json"]
    cache = ResultCache(cache_dir)
    assert _sha(cache.entry_path(TABLE1_KEY)) == CAMPAIGN_ENVELOPE_SHA


def test_service_writes_pinned_cache_envelope(tmp_path):
    core = ServiceCore(
        str(tmp_path / "state"), cache_dir=str(tmp_path / "cache"),
        workers=1, timeout=60,
    )
    core.start()
    try:
        _, body, _ = core.submit(
            {"experiment": "figure5", "scale": 0.05, "seed": 11}
        )
        job = core.queue.wait_settled(body["job"], timeout=120)
        assert job.report is not None
    finally:
        core.close()
    cache = ResultCache(str(tmp_path / "cache"))
    assert _sha(cache.entry_path(FIGURE5_KEY)) == SERVICE_ENVELOPE_SHA
