"""LB106: persistent-artifact writes must go through ``repro.ioutil``.

Everything the campaign engine and the service persist — cache
envelopes, checkpoint containers, result exports, the result store and
the job WAL under :mod:`repro.experiments` and :mod:`repro.service` —
and the snapshot container layer itself (:mod:`repro.sim.snapshot`)
must survive a SIGKILL or power cut landing between any two syscalls of
a save.  :mod:`repro.ioutil` is the one place that knows how:
:func:`~repro.ioutil.atomic_write` (sibling temp file + fsync +
``os.replace`` + directory fsync) for whole files, and
:class:`~repro.ioutil.RecordLog` (CRC-stamped, fsynced appends with
tail repair) for append-only logs.  A bare ``open(path, "w")`` or
``open(path, "ab")`` in these modules is a torn file waiting for the
wrong moment.

The static approximation: inside the scoped modules, flag

* ``open(...)`` / ``os.fdopen(...)`` / ``io.open(...)`` whose mode
  constant writes — contains ``"w"``, ``"x"``, ``"a"`` or ``"+"`` —
  whether positional or ``mode=``;
* ``.write_text(...)`` / ``.write_bytes(...)`` calls (pathlib's
  equivalent whole-file rewrite).

A write that is genuinely safe without these protocols can carry
``# lb: noqa[LB106]`` with a justifying comment, or a baseline entry.
"""

import ast

from repro.analysis.core import Rule, register
from repro.analysis.visitors import call_name

_OPEN_CALLS = {"open": 1, "os.fdopen": 1, "io.open": 1}
_REWRITE_METHODS = ("write_text", "write_bytes")


def _mode_argument(node, position):
    """The call's mode argument node, positional or ``mode=``."""
    if len(node.args) > position:
        return node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_writing_mode(mode_node):
    """True when the mode is a string constant that opens for writing."""
    if not isinstance(mode_node, ast.Constant):
        return False
    if not isinstance(mode_node.value, str):
        return False
    return any(flag in mode_node.value for flag in "wxa+")


@register
class DurableWritesRule(Rule):
    id = "LB106"
    name = "durable-writes"
    description = (
        "file write in a persistence module bypasses repro.ioutil "
        "(torn file on crash)"
    )

    def check(self, source):
        if not (
            source.in_package("repro.experiments", "repro.service")
            or source.module == "repro.sim.snapshot"
        ):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _OPEN_CALLS:
                mode = _mode_argument(node, _OPEN_CALLS[name])
                if _is_writing_mode(mode):
                    yield source.finding(
                        self.id, node,
                        "{}(..., {!r}) writes in place — a crash "
                        "mid-write leaves a torn file; route the write "
                        "through repro.ioutil (atomic_write or "
                        "RecordLog)".format(name, mode.value),
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _REWRITE_METHODS
            ):
                yield source.finding(
                    self.id, node,
                    ".{}() rewrites the whole file non-atomically; route "
                    "the write through repro.ioutil.atomic_write".format(
                        node.func.attr
                    ),
                )
