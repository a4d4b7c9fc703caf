"""Crash-consistent file I/O shared by every persistent store.

Every artifact the campaign engine persists — cache envelopes, stage
checkpoints, lint baselines, CSV exports — must survive the failure a
long-running service actually sees: a SIGKILL, power loss or full disk
landing *between any two syscalls* of a save.  The rules that make a
whole-file write safe are always the same, so they live here once:

1. serialize the complete new content first (no in-place rewrites);
2. write it to a sibling temp file in the *same directory* (so the
   final rename never crosses a filesystem boundary);
3. ``flush`` + ``fsync`` the temp file (data reaches the platter, not
   just the page cache);
4. ``os.replace`` it over the destination (atomic on POSIX and NTFS);
5. ``fsync`` the parent directory (the rename itself is durable — step
   4 without step 5 can still be lost by a power cut).

A crash at any point leaves either the old file or the complete new
one, never a torn hybrid.

The module also hosts the **write-fault seam** used by
:mod:`repro.chaos`: an installed hook sees every payload before it is
written and may corrupt it or raise ``OSError`` (``ENOSPC``), so tests
and the chaos harness can prove that every reader recovers from
whatever an unreliable disk can produce.  Production code never
installs a hook.

Append-only logs (the service's job WAL, the campaign's result store)
cannot rewrite the whole file per record, so they share
:class:`RecordLog` instead: one CRC32-stamped JSON record per line,
appended with flush + fsync, and a single scanner that replays the log
after a crash and truncates its torn tail.
"""

import json
import os
import tempfile
import zlib


def canonical_json(payload):
    """The canonical serialized form hashed into cache keys and CRCs.

    Sorted keys, no whitespace, explicit unicode — byte-stable across
    Python versions and hosts for JSON-representable payloads.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


# The chaos seam.  When set, called as hook(path, data) -> data before
# each atomic write; it may return different bytes (simulating bitrot
# or a torn device write) or raise OSError (simulating a full disk).
_write_fault_hook = None


def set_write_fault_hook(hook):
    """Install (or with ``None`` clear) the write-fault hook.

    Returns the previously installed hook so callers can restore it.
    Only fault-injection code (``repro.chaos``, tests) should ever call
    this.
    """
    global _write_fault_hook
    previous = _write_fault_hook
    _write_fault_hook = hook
    return previous


def fsync_directory(path):
    """Best-effort fsync of a directory (durability of renames).

    Some platforms (Windows) and some filesystems refuse to open or
    fsync directories; failing to harden the rename is not worth
    failing the write, so errors are swallowed.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without openable dirs; the data write landed
    try:
        os.fsync(fd)
    except OSError:
        pass  # best-effort hardening; failing it must not fail the write
    finally:
        os.close(fd)


def atomic_write(path, data, fsync_dir=True):
    """Write ``data`` (bytes or str) to ``path`` atomically and durably.

    Temp file in the destination directory + file fsync + ``os.replace``
    + parent-directory fsync; see the module docstring for why each step
    exists.  ``str`` data is encoded as UTF-8.  Raises ``OSError`` on
    failure, leaving any previous file intact.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    hook = _write_fault_hook
    if hook is not None:
        data = hook(path, data)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=".{}.".format(os.path.basename(path)), suffix=".tmp",
        dir=directory,
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass  # cleanup is best-effort; the raise carries the real error
        raise
    if fsync_dir:
        fsync_directory(directory)
    return path


def _crc(record):
    """CRC32 of a record's canonical form (the ``_crc`` stamp)."""
    return zlib.crc32(canonical_json(record).encode("utf-8"))


def _parse_record(line):
    """One CRC-valid record from a stripped line, or ``None``."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None  # torn/corrupt bytes: the caller's policy decides
    if not isinstance(record, dict):
        return None
    crc = record.pop("_crc", None)
    if not isinstance(crc, int) or _crc(record) != crc:
        return None
    return record


class RecordLog:
    """Append-only JSONL log of CRC32-stamped records, replayable after a crash.

    Each record is one line, ``json.dumps(record, sort_keys=True)``,
    carrying ``_crc``: the CRC32 of the record's :func:`canonical_json`
    form without ``_crc``.  :meth:`append` is durable when it returns;
    :meth:`read` never raises for corruption.

    :param path: the log file, created (with its directory) on first
        append.
    :param recovery: what :meth:`read` does at an invalid line — torn,
        corrupt, or refused by :meth:`_accepts`.  ``"skip"`` skips it,
        counts it in ``skipped_records`` once a later valid record
        follows, and keeps scanning; ``"prefix"`` stops there, so the
        log is its longest valid prefix.  Fixed by each subclass, never
        chosen by callers.
    :param mangle: optional fault seam, called as ``mangle(data) ->
        data`` on each append's bytes before they are written; like the
        write-fault hook it may return other bytes (a torn write) or
        raise ``OSError`` (a full disk).  The consumers bind
        :meth:`repro.chaos.ChaosInjector.mangle_store_append` here.
    """

    def __init__(self, path, recovery, mangle=None):
        if recovery not in ("skip", "prefix"):
            raise ValueError("unknown recovery policy {!r}".format(recovery))
        self.path = path
        self.recovery = recovery
        self.mangle = mangle
        self.recovered_records = 0  # invalid tail lines of the last read()
        self.recovered_bytes = 0  # tail bytes dropped by the last read()
        self.skipped_records = 0  # interior invalid lines ("skip" only)

    def _accepts(self, record):
        """Domain check on a CRC-valid record; ``False`` makes it invalid."""
        return True

    def append(self, record):
        """Durably append one record; returns it with its ``_crc`` stamp.

        If a previous append was torn (the file does not end in a
        newline), a newline goes first so the record can never be glued
        onto torn bytes and lost with them.  The write is flushed and
        fsynced; the first append to an empty file also fsyncs the
        parent directory, so a power cut cannot lose the file's
        directory entry together with an acknowledged record.  Raises
        ``OSError`` on failure, after truncating off whatever part of
        this append reached the file.
        """
        record = dict(record)
        record.pop("_crc", None)
        record["_crc"] = _crc(record)
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        if self.mangle is not None:
            data = self.mangle(data)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        start = None
        try:
            with open(self.path, "ab") as handle:
                start = handle.tell()
                if start and not self._ends_with_newline():
                    handle.write(b"\n")
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            # A full disk can fail the write or the fsync after bytes
            # landed; drop them so a refused record never replays.
            if start is not None:
                self._truncate_to(start)
            raise
        if start == 0:
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        return record

    def _ends_with_newline(self):
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except OSError:
            # Unreadable tail: treat as clean and let the append land on
            # its own line; read()'s CRC check still guards the result.
            return True

    def read(self, repair=True):
        """Every valid record, in append order, without its ``_crc``.

        The invalid tail after the last valid record is counted in
        ``recovered_records``/``recovered_bytes`` and, with
        ``repair=True``, truncated off the file so later appends start
        on a clean boundary.  A missing file reads as empty; only a
        present-but-unreadable one raises ``OSError``.
        """
        self.recovered_records = 0
        self.recovered_bytes = 0
        self.skipped_records = 0
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return []
        records, valid_end = self._scan(raw)
        dropped = raw[valid_end:]
        if dropped:
            self.recovered_bytes = len(dropped)
            self.recovered_records = sum(
                1 for line in dropped.split(b"\n") if line.strip()
            )
            if repair:
                self._truncate_to(valid_end)
        return records

    def _scan(self, raw):
        """``(records, offset just past the last valid record)``."""
        records = []
        valid_end = 0
        invalid = 0  # invalid lines since the last valid record
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            end = len(raw) if newline == -1 else newline + 1
            line = raw[offset:end].strip()
            offset = end
            if not line:
                if not invalid:
                    valid_end = end  # blank line: harmless padding
                continue
            record = _parse_record(line)
            if record is None or not self._accepts(record):
                if self.recovery == "prefix":
                    break
                invalid += 1
                continue
            records.append(record)
            self.skipped_records += invalid
            invalid = 0
            valid_end = end
        return records, valid_end

    def _truncate_to(self, size):
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(size)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass  # repair is best-effort; read() already skipped the tail

    def clear(self):
        try:
            os.unlink(self.path)
        except OSError:
            pass  # a missing log is already "cleared"
