"""The job queue's write-ahead log: a skip-recovery record log.

Every state transition the queue makes — submit, lease, run, done,
fail, quarantine, cancel, requeue — is appended here *before* the
in-memory table changes.  The framing, fsync and crash repair are
:class:`repro.ioutil.RecordLog`'s; this module adds the journal's one
domain rule, the set of legal ops.

Recovery uses the ``"skip"`` policy: a torn or corrupt line is skipped
and counted rather than ending the replay.  The append's newline
self-heal gives each record its own line, so a record torn by a fault
injector mid-campaign must not orphan the durable, acknowledged records
appended after it.  Because the record for a transition is durable
before the transition is acknowledged, replay can only ever *lose the
acknowledgement*, never fabricate one: a job is either fully admitted
(its ``submit`` record survived) or was never admitted at all — no lost
jobs, no duplicated jobs.
"""

from repro.ioutil import RecordLog

#: Every legal ``op`` field; replay rejects records claiming others so
#: a bit flip that survives CRC (it cannot) or a version skew surfaces
#: as a typed replay stop, not a KeyError mid-recovery.
WAL_OPS = (
    "submit",
    "lease",
    "run",
    "done",
    "fail",
    "cancel",
    "requeue",
)


class JobWAL(RecordLog):
    """Append-only journal of queue transitions.

    :param path: journal file (created on first append).
    :param chaos: optional :class:`repro.chaos.ChaosInjector`; appends
        may be torn or rejected with ``ENOSPC`` so the chaos harness
        exercises WAL recovery too.
    """

    def __init__(self, path, chaos=None):
        super().__init__(
            path, "skip",
            None if chaos is None else chaos.mangle_store_append,
        )
        self.appended = 0  # records appended by this instance

    def _accepts(self, record):
        return record.get("op") in WAL_OPS

    def append(self, record):
        """Durably append one transition record; returns the record.

        Raises ``OSError`` on failure — the caller must *not* apply the
        transition in memory in that case.
        """
        record = super().append(record)
        # Single writer: every append happens under JobQueue._lock (the
        # WAL is the queue's journal), which the flow engine cannot see
        # across the untyped constructor param.  The /stats read is a
        # monitoring snapshot of a GIL-atomic int.
        self.appended += 1  # lb: noqa[LB201]
        return record

    def replay(self, repair=True):
        """Every valid transition record, in append order (see
        :meth:`~repro.ioutil.RecordLog.read`)."""
        return self.read(repair)

    def __repr__(self):
        return "JobWAL({!r}, appended={})".format(self.path, self.appended)
