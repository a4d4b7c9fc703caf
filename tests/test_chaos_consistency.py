"""Exhaustive corruption fuzzing of the whole-file artifacts.

For each atomically written format — the content-addressed cache
envelope and the framed checkpoint container — this suite truncates
the file at *every* byte offset and flips *every* byte, then asserts
the invariant each format promises (the append-only record logs have
their own harness in ``test_record_log.py``):

* ResultCache: :meth:`get` returns the exact stored record or ``None``
  — never a silently different record.
* Checkpoint container: :func:`read_checkpoint` raises
  :class:`CheckpointError` for every corrupted byte pattern; nothing is
  ever unpickled from bytes that fail validation.
"""

import os

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.checkpoint import (
    _RESULT_KIND,
    ExperimentCheckpointer,
)
from repro.sim.snapshot import CheckpointError, read_checkpoint, write_checkpoint


# -- ResultCache ----------------------------------------------------------


def _cache_entry(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    record = {"name": "table1", "status": "done", "report": "payload"}
    key = "ab" + "0" * 62
    cache.put(key, record)
    path = cache.entry_path(key)
    return cache, key, record, path, open(path, "rb").read()


def test_cache_truncation_at_every_offset_misses_cleanly(tmp_path):
    cache, key, record, path, raw = _cache_entry(tmp_path)
    for cut in range(len(raw) + 1):
        with open(path, "wb") as handle:
            handle.write(raw[:cut])
        result = cache.get(key)
        if cut == len(raw):
            assert result == record
        else:
            assert result is None, cut
            # The defective entry was deleted so the slot heals.
            assert not os.path.exists(path), cut


def test_cache_byte_flip_at_every_offset_never_fabricates(tmp_path):
    cache, key, record, path, raw = _cache_entry(tmp_path)
    for offset in range(len(raw)):
        mutated = bytearray(raw)
        mutated[offset] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(mutated))
        result = cache.get(key)
        assert result is None or result == record, offset


def test_cache_heals_after_invalidation(tmp_path):
    cache, key, record, path, raw = _cache_entry(tmp_path)
    with open(path, "wb") as handle:
        handle.write(raw[: len(raw) // 2])
    assert cache.get(key) is None
    assert cache.stats.invalidated >= 1
    cache.put(key, record)
    assert cache.get(key) == record


# -- Checkpoint container -------------------------------------------------


def _checkpoint_bytes(tmp_path):
    path = str(tmp_path / "stage.ckpt")
    payload = {"cycle": 123_456, "stats": [1.5, 2.5], "label": "alpha"}
    write_checkpoint(path, payload)
    return path, payload, open(path, "rb").read()


def test_checkpoint_truncation_at_every_length_raises(tmp_path):
    path, payload, raw = _checkpoint_bytes(tmp_path)
    for cut in range(len(raw)):
        with open(path, "wb") as handle:
            handle.write(raw[:cut])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
    with open(path, "wb") as handle:
        handle.write(raw)
    assert read_checkpoint(path) == payload


def test_checkpoint_byte_flip_at_every_offset_raises(tmp_path):
    # CRC32 detects every single-byte substitution, and the header
    # fields (magic, version, length) are validated before the CRC —
    # so a one-byte flip anywhere must raise, never return a payload.
    path, payload, raw = _checkpoint_bytes(tmp_path)
    for offset in range(len(raw)):
        mutated = bytearray(raw)
        mutated[offset] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(mutated))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


def test_checkpoint_trailing_garbage_raises(tmp_path):
    path, payload, raw = _checkpoint_bytes(tmp_path)
    with open(path, "wb") as handle:
        handle.write(raw + b"\x00")
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


# -- StageCheckpoint integration ------------------------------------------


def test_stage_resume_discards_corrupt_done_file(tmp_path):
    """A corrupted stage result degrades to recomputation, never a
    resume failure and never a wrong result."""
    directory = str(tmp_path / "ckpt")
    checkpointer = ExperimentCheckpointer(directory, resume=False)
    stage = checkpointer.stage("alpha run")
    result = {"report": "table-1 body", "cycles": 9000}
    write_checkpoint(
        stage.done_path,
        {"kind": _RESULT_KIND, "stage": stage.name, "result": result},
    )
    raw = open(stage.done_path, "rb").read()
    for offset in range(0, len(raw), 7):
        events = []
        resumed = ExperimentCheckpointer(
            directory, resume=True, on_event=events.append
        )
        mutated = bytearray(raw)
        mutated[offset] ^= 0xFF
        with open(stage.done_path, "wb") as handle:
            handle.write(bytes(mutated))
        outcome = resumed.stage("alpha run").completed_result()
        assert outcome is None, offset
        assert any("discarding" in event for event in events)
        assert not os.path.exists(stage.done_path)
    # Intact file: the result round-trips exactly.
    with open(stage.done_path, "wb") as handle:
        handle.write(raw)
    resumed = ExperimentCheckpointer(directory, resume=True)
    assert resumed.stage("alpha run").completed_result() == result
