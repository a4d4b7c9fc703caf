# lb: module=repro.experiments.fixture_bad
"""LB106 true positives: in-place writes in a persistence module."""

import io
import json
import os
import pathlib


def save_report_plain(path, report):
    with open(path, "w") as handle:
        handle.write(report)


def save_report_binary(path, payload):
    with open(path, mode="wb") as handle:
        handle.write(payload)


def save_exclusive(path, payload):
    with open(path, "x") as handle:
        handle.write(payload)


def save_via_fdopen(path, payload):
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    with os.fdopen(fd, "wb") as handle:
        handle.write(payload)


def save_via_io_open(path, record):
    with io.open(path, "w") as handle:
        json.dump(record, handle)


def save_via_pathlib(path, report):
    pathlib.Path(path).write_text(report)


def save_bytes_via_pathlib(path, payload):
    pathlib.Path(path).write_bytes(payload)


def append_record(path, record):
    # A hand-rolled JSONL append: repro.ioutil.RecordLog owns this.
    with open(path, "ab") as handle:
        handle.write(json.dumps(record).encode("utf-8") + b"\n")
        handle.flush()
        os.fsync(handle.fileno())


def repair_tail(path, size):
    # A hand-rolled tail repair: RecordLog.read truncates torn tails.
    with open(path, "r+b") as handle:
        handle.truncate(size)
