"""Crash consistency of the one record log, through both of its consumers.

:class:`repro.ioutil.RecordLog` is the on-disk protocol under the
service's :class:`~repro.service.wal.JobWAL` (``"skip"`` recovery) and
the campaign's :class:`~repro.experiments.supervisor.ResultStore`
(``"prefix"`` recovery).  Every case here runs against both, so a
durability bug is caught once, whichever consumer trips it:

* truncation at every byte offset keeps exactly the whole records, and
  a repaired reload recovers nothing;
* one flipped byte at every offset never yields a record that was not
  appended;
* a chaos-torn tail is dropped, truncated, and appended after cleanly;
* ``ENOSPC`` on append raises and leaves the log as it was;
* creating the log fsyncs its directory, once;
* the bytes on disk are pinned, both written and read.
"""

import errno
import os
import zlib

import pytest

from repro import ioutil
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import ChaosPlan
from repro.experiments.supervisor import ResultStore
from repro.service.wal import WAL_OPS, JobWAL

# Valid for both consumers: a WAL op, and a "done" status with a name.
RECORDS = [
    {
        "op": WAL_OPS[i],
        "name": "task{}".format(i),
        "status": "done",
        "seq": i,
        "report": "r{}".format(i) * (i + 1),
    }
    for i in range(4)
]


class Consumer:
    def __init__(self, cls, recovery, read):
        self.cls = cls
        self.recovery = recovery
        self._read = read

    def make(self, path, chaos=None):
        return self.cls(path, chaos=chaos)

    def read(self, log, repair=True):
        """The records the consumer hands back, in append order."""
        return self._read(log, repair)


CONSUMERS = {
    "wal": Consumer(JobWAL, "skip", lambda log, repair: log.replay(repair)),
    "store": Consumer(
        ResultStore, "prefix",
        lambda log, repair: list(log.load(repair).values()),
    ),
}


@pytest.fixture(params=sorted(CONSUMERS))
def consumer(request):
    return CONSUMERS[request.param]


def _written(consumer, tmp_path):
    """``(path, raw bytes, offset just past each record)`` of RECORDS."""
    path = str(tmp_path / "records.jsonl")
    log = consumer.make(path)
    ends = []
    for record in RECORDS:
        log.append(record)
        ends.append(os.path.getsize(path))
    with open(path, "rb") as handle:
        return path, handle.read(), ends


def _overwrite(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def _contents(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_each_consumer_fixes_its_recovery_policy(consumer, tmp_path):
    assert consumer.make(str(tmp_path / "log")).recovery == consumer.recovery
    with pytest.raises(ValueError):
        ioutil.RecordLog(str(tmp_path / "log"), "lenient")


# -- truncation -------------------------------------------------------------


def test_truncation_at_every_offset_keeps_whole_records(consumer, tmp_path):
    path, raw, ends = _written(consumer, tmp_path)
    for cut in range(len(raw) + 1):
        _overwrite(path, raw[:cut])
        # A record survives once all its bytes are present; losing only
        # its newline is harmless (the next append self-heals it).
        survivors = RECORDS[:sum(1 for end in ends if cut >= end - 1)]
        assert consumer.read(consumer.make(path)) == survivors, cut
        # The first read truncated the torn tail off the file.
        again = consumer.make(path)
        assert consumer.read(again) == survivors, cut
        assert (again.recovered_records, again.recovered_bytes) == (0, 0)


# -- bit rot ----------------------------------------------------------------


@pytest.mark.parametrize("mask", [0x01, 0x08, 0x80, 0xFF])
def test_flipped_byte_at_every_offset_never_fabricates(consumer, mask,
                                                       tmp_path):
    path, raw, ends = _written(consumer, tmp_path)
    for offset in range(len(raw)):
        mutated = bytearray(raw)
        mutated[offset] ^= mask
        _overwrite(path, bytes(mutated))
        got = consumer.read(consumer.make(path), repair=False)
        # Only records that were appended, in their order, unaltered.
        assert got == [r for r in RECORDS if r in got], offset
        hit = next(i for i, end in enumerate(ends) if offset < end)
        if consumer.recovery == "prefix":
            # Everything before the damaged record, nothing after it.
            assert got == RECORDS[:len(got)], offset
            assert hit <= len(got) <= hit + 1, offset
        else:
            # A flipped newline joins its record to the next line.
            lost = {hit, hit + 1} if offset == ends[hit] - 1 else {hit}
            for i, record in enumerate(RECORDS):
                assert i in lost or record in got, offset


# -- chaos ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(1, 9))
def test_chaos_torn_tail_is_dropped_and_repaired(consumer, seed, tmp_path):
    path = str(tmp_path / "records.jsonl")
    clean = consumer.make(path)
    for record in RECORDS[:2]:
        clean.append(record)
    whole = os.path.getsize(path)
    injector = ChaosInjector(ChaosPlan(torn_write_rate=1.0), seed=seed)
    consumer.make(path, chaos=injector).append(RECORDS[2])
    assert injector.events["torn_write"] == 1
    tail = _contents(path)[whole:]
    # A tear that spares all but the newline loses nothing.
    kept = RECORDS[:3] if tail.endswith(b"}") else RECORDS[:2]
    reader = consumer.make(path)
    assert consumer.read(reader) == kept
    if kept == RECORDS[:2]:
        assert reader.recovered_records == 1
        assert reader.recovered_bytes == len(tail)
        assert os.path.getsize(path) == whole
    reader.append(RECORDS[3])
    again = consumer.make(path)
    assert consumer.read(again) == kept + RECORDS[3:]
    assert again.recovered_bytes == 0


def test_chaos_enospc_append_raises_and_leaves_the_log(consumer, tmp_path):
    path = str(tmp_path / "records.jsonl")
    log = consumer.make(path)
    log.append(RECORDS[0])
    before = _contents(path)
    full = consumer.make(
        path, chaos=ChaosInjector(ChaosPlan(enospc_rate=1.0), seed=1)
    )
    with pytest.raises(OSError) as raised:
        full.append(RECORDS[1])
    assert raised.value.errno == errno.ENOSPC
    assert _contents(path) == before
    log.append(RECORDS[2])
    reader = consumer.make(path)
    assert consumer.read(reader) == [RECORDS[0], RECORDS[2]]
    assert reader.recovered_bytes == 0


def test_enospc_at_fsync_rolls_the_append_back(consumer, tmp_path,
                                               monkeypatch):
    # Delayed allocation reports a full disk at fsync, after the bytes
    # reached the file: a refused record must not replay later.
    path = str(tmp_path / "records.jsonl")
    log = consumer.make(path)
    log.append(RECORDS[0])
    before = _contents(path)
    real_fsync = os.fsync
    failures = []

    def full_disk_once(fd):
        if not failures:
            failures.append(fd)
            raise OSError(errno.ENOSPC, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", full_disk_once)
    with pytest.raises(OSError):
        log.append(RECORDS[1])
    assert failures
    assert _contents(path) == before
    log.append(RECORDS[2])
    reader = consumer.make(path)
    assert consumer.read(reader) == [RECORDS[0], RECORDS[2]]
    assert reader.recovered_bytes == 0


# -- file creation ----------------------------------------------------------


def test_first_append_fsyncs_the_directory_once(consumer, tmp_path,
                                                monkeypatch):
    synced = []
    monkeypatch.setattr(ioutil, "fsync_directory", synced.append)
    directory = str(tmp_path / "fresh")
    log = consumer.make(os.path.join(directory, "records.jsonl"))
    log.append(RECORDS[0])
    assert synced == [directory]
    for record in RECORDS[1:]:
        log.append(record)
    assert synced == [directory]


# -- format -----------------------------------------------------------------

PINNED_RECORD = {
    "op": "submit",
    "name": "té",
    "status": "done",
    "seq": 7,
    "spec": {"seed": 3, "scale": 0.05},
}
PINNED_CANONICAL = (
    b'{"name":"t\\u00e9","op":"submit","seq":7,'
    b'"spec":{"scale":0.05,"seed":3},"status":"done"}'
)
PINNED_LINE = (
    b'{"_crc": 4165476067, "name": "t\\u00e9", "op": "submit", "seq": 7, '
    b'"spec": {"scale": 0.05, "seed": 3}, "status": "done"}\n'
)

# Two records exactly as the WAL and the result store have always
# written them; a log on disk today must replay unchanged.
CHECKED_IN_LOG = (
    b'{"_crc": 156504525, "attempts": 1, "error": null, "name": "figure5", '
    b'"op": "submit", "report": "share 0.10\\nshare 0.20", '
    b'"status": "done"}\n'
    b'{"_crc": 2330967559, "attempts": 2, "error": null, "name": "table1", '
    b'"op": "done", "report": "ok", "status": "done"}\n'
)


def test_append_writes_the_pinned_line(consumer, tmp_path):
    assert zlib.crc32(PINNED_CANONICAL) == 4165476067
    path = str(tmp_path / "records.jsonl")
    consumer.make(path).append(PINNED_RECORD)
    assert _contents(path) == PINNED_LINE
    assert consumer.read(consumer.make(path)) == [PINNED_RECORD]


def test_replays_the_checked_in_log(consumer, tmp_path):
    path = str(tmp_path / "records.jsonl")
    _overwrite(path, CHECKED_IN_LOG)
    reader = consumer.make(path)
    got = consumer.read(reader)
    assert [r["name"] for r in got] == ["figure5", "table1"]
    assert got[0]["report"] == "share 0.10\nshare 0.20"
    assert got[1]["attempts"] == 2
    assert (reader.recovered_records, reader.recovered_bytes) == (0, 0)
    assert _contents(path) == CHECKED_IN_LOG
