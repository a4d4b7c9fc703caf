"""The WAL's own rules: legal ops, skipped interior junk, torn tails.

The byte-offset truncation and bit-flip fuzzing shared with the result
store lives in ``test_record_log.py``; these tests pin what only the
journal promises: unknown ops are refused, interior junk is skipped
and counted without orphaning later records, and appends after a torn
tail are never glued onto garbage.
"""

import json
import os
import zlib

import pytest

from repro.ioutil import canonical_json
from repro.service.wal import WAL_OPS, JobWAL


def wal_at(tmp_path, name="queue.wal"):
    return JobWAL(os.path.join(str(tmp_path), name))


def sample_records(n=6):
    records = []
    for i in range(n):
        records.append({
            "op": WAL_OPS[i % len(WAL_OPS)],
            "job": "j-{:08d}".format(i + 1),
            "seq": i + 1,
            "spec": {"experiment": "figure5", "scale": 0.05, "seed": i},
        })
    return records


def test_append_then_replay_roundtrips(tmp_path):
    wal = wal_at(tmp_path)
    for record in sample_records():
        wal.append(record)
    replayed = JobWAL(wal.path).replay()
    assert [r["job"] for r in replayed] == [
        r["job"] for r in sample_records()
    ]
    # The CRC stamp is consumed by validation, not leaked to callers.
    assert all("_crc" not in r for r in replayed)


def test_replay_missing_file_is_empty(tmp_path):
    wal = wal_at(tmp_path)
    assert wal.replay() == []
    assert wal.recovered_bytes == 0


def test_truncation_repair_physically_removes_torn_tail(tmp_path):
    wal = wal_at(tmp_path)
    for record in sample_records(3):
        wal.append(record)
    whole = os.path.getsize(wal.path)
    with open(wal.path, "ab") as handle:
        handle.write(b'{"op": "done", "job"')  # torn mid-record
    reader = JobWAL(wal.path)
    replayed = reader.replay()
    assert len(replayed) == 3
    assert reader.recovered_bytes > 0
    assert os.path.getsize(wal.path) == whole  # tail physically gone
    # A fresh append lands cleanly after the repair.
    reader.append({"op": "done", "job": "j-00000099", "seq": 99})
    assert len(JobWAL(wal.path).replay()) == 4


def test_unknown_op_is_rejected_even_with_valid_crc(tmp_path):
    record = {"op": "teleport", "job": "j-1"}
    stamped = dict(record)
    stamped["_crc"] = zlib.crc32(canonical_json(record).encode("utf-8"))
    path = os.path.join(str(tmp_path), "ops.wal")
    with open(path, "wb") as handle:
        handle.write((json.dumps(stamped, sort_keys=True) + "\n").encode())
    assert JobWAL(path).replay() == []


def test_interior_junk_lines_are_skipped_and_counted(tmp_path):
    wal = wal_at(tmp_path)
    wal.append({"op": "submit", "job": "j-1", "seq": 1})
    with open(wal.path, "ab") as handle:
        handle.write(b'[1, 2, 3]\n')
    wal.append({"op": "done", "job": "j-1", "seq": 2})
    # The junk line is skipped, never trusted — but it must not orphan
    # the durable, CRC-valid record appended after it.
    reader = JobWAL(wal.path)
    replayed = reader.replay()
    assert [r["op"] for r in replayed] == ["submit", "done"]
    assert reader.skipped_records == 1
    assert reader.recovered_bytes == 0  # the tail itself is clean


def test_append_self_heals_missing_trailing_newline(tmp_path):
    wal = wal_at(tmp_path)
    wal.append({"op": "submit", "job": "j-1", "seq": 1})
    with open(wal.path, "ab") as handle:
        handle.write(b'{"torn": ')  # torn append with no newline
    wal.append({"op": "submit", "job": "j-2", "seq": 2})
    # The self-healing newline isolated the new record on its own line,
    # so the torn bytes cost exactly themselves — j-2 was acknowledged
    # durable and must replay.
    reader = JobWAL(wal.path)
    replayed = reader.replay()
    assert [r["job"] for r in replayed] == ["j-1", "j-2"]
    assert reader.skipped_records == 1


def test_chaos_enospc_append_raises_and_journal_stays_valid(tmp_path):
    class Injector:
        def __init__(self):
            self.calls = 0

        def mangle_store_append(self, data):
            self.calls += 1
            if self.calls == 2:
                raise OSError(28, "No space left on device")
            return data

    injector = Injector()
    wal = JobWAL(os.path.join(str(tmp_path), "c.wal"), chaos=injector)
    wal.append({"op": "submit", "job": "j-1", "seq": 1})
    with pytest.raises(OSError):
        wal.append({"op": "submit", "job": "j-2", "seq": 2})
    wal.append({"op": "submit", "job": "j-3", "seq": 3})
    assert [r["job"] for r in JobWAL(wal.path).replay()] == ["j-1", "j-3"]


def test_clear_removes_the_journal(tmp_path):
    wal = wal_at(tmp_path)
    wal.append({"op": "submit", "job": "j-1", "seq": 1})
    wal.clear()
    assert not os.path.exists(wal.path)
    wal.clear()  # idempotent
    assert wal.replay() == []
