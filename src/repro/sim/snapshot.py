"""Checkpoint/restore for simulations.

Two layers live here:

* the **snapshot protocol** — every :class:`~repro.sim.component.Component`
  (and the stateful helpers hanging off components: arbiters, lottery
  managers, RNG streams, metrics) exposes ``state_dict()`` /
  ``load_state_dict(state)``.  The default implementation snapshots the
  attributes a class *declares* in ``state_attrs`` (plain values,
  shallow-copied containers) and ``state_children`` (sub-objects restored
  in place through their own ``state_dict`` hooks), collected across the
  MRO so subclasses only declare what they add.

* the **checkpoint file format** — a versioned, checksummed container
  written atomically (temp file + ``os.replace``), so a crash or
  ``SIGKILL`` mid-save leaves the previous checkpoint intact.  Readers
  verify magic, version, length and CRC32 *before* unpickling, and a
  :class:`~repro.sim.kernel.Simulator` validates the whole payload
  before mutating any component, so a corrupted file raises
  :class:`CheckpointError` and never yields a half-restored simulator.

Identity matters: a pending :class:`~repro.bus.transaction.Request` is
simultaneously referenced from its master's queue, the bus's active
burst and (for ATM cells) an output port's in-flight slot.  Component
``state_dict``s therefore store *live references*, and the simulator
serializes the combined payload in a single ``pickle`` pass, whose memo
preserves shared identity across components on both save and load.
"""

import copy
import pickle
import struct
import zlib
from collections import deque

from repro.ioutil import atomic_write

CHECKPOINT_MAGIC = b"LBUSCKPT"
# Version 2: requests no longer carry the word-stretch latency slots and
# LatencyStats no longer snapshots ``total_word_latency``; a version-1
# payload would not restore into either.  Version 3: requests no longer
# carry a ``flow`` slot, so a version-2 pickle cannot restore either.
CHECKPOINT_VERSION = 3

# magic (8s) | format version (u32) | payload length (u64) | CRC32 (u32)
_HEADER = struct.Struct(">8sIQI")


class CheckpointError(RuntimeError):
    """Raised for unreadable, corrupted or mismatched checkpoints."""


# ---------------------------------------------------------------------------
# The snapshot protocol.
# ---------------------------------------------------------------------------


def declared_state(obj, attribute):
    """Collect a class-tuple declaration (``state_attrs`` or
    ``state_children``) across ``type(obj)``'s MRO, base classes first,
    deduplicated so a subclass may re-list an inherited name harmlessly.
    """
    seen = set()
    names = []
    for klass in reversed(type(obj).__mro__):
        for name in vars(klass).get(attribute, ()):
            if name not in seen:
                seen.add(name)
                names.append(name)
    return names


def _copy_value(value):
    """Shallow-copy mutable containers so later in-place mutation of the
    live attribute (or of the restored object) cannot reach through the
    snapshot; contained elements stay shared, which the simulator-level
    pickle pass resolves."""
    if isinstance(value, (list, set, dict, deque)):
        return copy.copy(value)
    return value


def default_state_dict(obj):
    """The default ``state_dict``: declared attrs plus nested children."""
    state = {}
    for name in declared_state(obj, "state_attrs"):
        state[name] = _copy_value(getattr(obj, name))
    for name in declared_state(obj, "state_children"):
        child = getattr(obj, name)
        # A child without hooks (e.g. a caller-supplied random source)
        # is treated as stateless rather than failing the whole save.
        if child is None or not hasattr(child, "state_dict"):
            state[name] = None
        else:
            state[name] = child.state_dict()
    return state


def default_load_state_dict(obj, state):
    """The default ``load_state_dict``: strict inverse of the default
    ``state_dict``.  Raises :class:`CheckpointError` when the state's key
    set does not exactly match the declaration (a mismatched or corrupted
    payload), before assigning anything."""
    if not isinstance(state, dict):
        raise CheckpointError(
            "state for {} must be a dict, got {!r}".format(
                type(obj).__name__, type(state).__name__
            )
        )
    attrs = declared_state(obj, "state_attrs")
    children = declared_state(obj, "state_children")
    declared = set(attrs) | set(children)
    if set(state) != declared:
        missing = declared - set(state)
        unknown = set(state) - declared
        raise CheckpointError(
            "state mismatch for {}: missing {}, unknown {}".format(
                type(obj).__name__, sorted(missing), sorted(unknown)
            )
        )
    for name in children:
        child = getattr(obj, name)
        if state[name] is not None and (
            child is None or not hasattr(child, "load_state_dict")
        ):
            raise CheckpointError(
                "snapshot carries state for child {!r} of {} but the live "
                "object cannot accept it".format(name, type(obj).__name__)
            )
    for name in attrs:
        setattr(obj, name, _copy_value(state[name]))
    for name in children:
        if state[name] is not None:
            getattr(obj, name).load_state_dict(state[name])


class Snapshottable:
    """Mixin providing the default snapshot hooks.

    Subclasses declare the attributes that constitute their runtime
    state::

        class TokenRing(Arbiter):
            state_attrs = ("_holder", "_consecutive", "token_passes")

    ``state_attrs`` are captured by value (containers shallow-copied);
    ``state_children`` name sub-objects with their own hooks, restored
    *in place* so object wiring (who points at whom) never changes.
    """

    state_attrs = ()
    state_children = ()

    def state_dict(self):
        """Snapshot the declared runtime state of this object."""
        return default_state_dict(self)

    def load_state_dict(self, state):
        """Restore a snapshot produced by :meth:`state_dict`."""
        default_load_state_dict(self, state)


# ---------------------------------------------------------------------------
# The checkpoint file container.
# ---------------------------------------------------------------------------


def write_checkpoint(path, payload, version=CHECKPOINT_VERSION):
    """Serialize ``payload`` to ``path`` atomically.

    The payload is pickled once (preserving shared identity between the
    objects inside it), framed with magic/version/length/CRC32, and
    written through :func:`repro.ioutil.atomic_write` (sibling temp
    file + fsync + ``os.replace`` + directory fsync) — a kill at any
    point leaves either the old file or the complete new one, never a
    torn checkpoint.
    """
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(CHECKPOINT_MAGIC, version, len(data), zlib.crc32(data))
    atomic_write(path, header + data)
    return path


def read_checkpoint(path):
    """Read and validate a checkpoint written by :func:`write_checkpoint`.

    Every validation failure — missing file, short header, bad magic,
    unsupported version, truncation, trailing garbage, CRC mismatch,
    unpicklable payload — raises :class:`CheckpointError`; nothing is
    deserialized until the checksum has been verified.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise CheckpointError(
            "cannot read checkpoint {!r}: {}".format(path, error)
        ) from error
    if len(raw) < _HEADER.size:
        raise CheckpointError(
            "truncated checkpoint {!r}: {} bytes is shorter than the "
            "{}-byte header".format(path, len(raw), _HEADER.size)
        )
    magic, version, length, crc = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            "bad magic in {!r}: not a LOTTERYBUS checkpoint".format(path)
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            "unsupported checkpoint version {} in {!r} "
            "(this build reads version {})".format(
                version, path, CHECKPOINT_VERSION
            )
        )
    data = raw[_HEADER.size:]
    if len(data) < length:
        raise CheckpointError(
            "truncated checkpoint {!r}: payload is {} of {} bytes".format(
                path, len(data), length
            )
        )
    if len(data) > length:
        raise CheckpointError(
            "trailing garbage after payload in {!r}".format(path)
        )
    if zlib.crc32(data) != crc:
        raise CheckpointError(
            "CRC mismatch in {!r}: checkpoint is corrupted".format(path)
        )
    try:
        return pickle.loads(data)
    except Exception as error:
        raise CheckpointError(
            "cannot deserialize checkpoint {!r}: {}".format(path, error)
        ) from error
