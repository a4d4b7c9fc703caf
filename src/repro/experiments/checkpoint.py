"""Stage-structured checkpointing for long experiments.

An experiment that runs several independent simulations in sequence
(e.g. :mod:`~repro.experiments.table1` building one switch per
architecture) exposes each simulation as a named *stage*.  An
:class:`ExperimentCheckpointer` gives every stage two files inside its
directory:

``<stage>.ckpt``
    the most recent mid-run simulator checkpoint (rewritten atomically
    every ``every`` cycles; deleted once the stage completes), and

``<stage>.done``
    the stage's final result, written through the same versioned,
    checksummed container (see :mod:`repro.sim.snapshot`).

Because experiment construction is deterministic from its parameters,
resuming is exact: completed stages are replayed from their ``.done``
files, an interrupted stage restores its simulator from ``.ckpt`` and
runs the remaining cycles (chunked execution is cycle-identical to a
single ``run`` call), and stages never started run fresh.  The resumed
report is bit-identical to an uninterrupted one.
"""

import os
import re

from repro.sim.snapshot import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)

_RESULT_KIND = "lotterybus-stage-result"
DEFAULT_CHECKPOINT_EVERY = 50_000


def task_checkpointer(directory, every=None, resume=False, on_event=None):
    """Build the checkpointer a campaign worker attaches to its task.

    The one construction path shared by the CLI, every pool worker and
    degraded in-process execution, so a task checkpoints identically no
    matter which execution mode ran it.  ``every=None`` means
    :data:`DEFAULT_CHECKPOINT_EVERY`.
    """
    return ExperimentCheckpointer(
        directory,
        every=every or DEFAULT_CHECKPOINT_EVERY,
        resume=resume,
        on_event=on_event,
    )


def stage_slug(label):
    """A filesystem-safe stage name derived from a human label."""
    slug = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")
    return slug or "stage"


class ExperimentCheckpointer:
    """Owns one experiment's checkpoint directory.

    :param directory: where stage files live; created if missing.  A
        fresh (non-resuming) run wipes any stage files left behind by a
        previous run so stale state can never leak into new results.
    :param every: cycles between mid-run simulator checkpoints.
    :param resume: honour existing stage files instead of wiping them.
    :param on_event: optional callable receiving one-line progress
        strings ("skipping ...", "resuming ..."); the CLI routes these
        to stderr so ``--resume`` shows exactly what was reused.
    """

    def __init__(self, directory, every=DEFAULT_CHECKPOINT_EVERY,
                 resume=False, on_event=None):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1 cycle")
        self.directory = directory
        self.every = every
        self.resume = resume
        self.on_event = on_event
        os.makedirs(directory, exist_ok=True)
        if not resume:
            self._wipe()

    def _wipe(self):
        for name in os.listdir(self.directory):
            if name.endswith((".ckpt", ".done")):
                os.unlink(os.path.join(self.directory, name))

    def emit(self, message):
        if self.on_event is not None:
            self.on_event(message)

    def stage(self, name):
        """The :class:`StageCheckpoint` for one named stage."""
        return StageCheckpoint(self, stage_slug(name))


class StageCheckpoint:
    """Checkpoint handle for one stage of an experiment."""

    def __init__(self, checkpointer, name):
        self.checkpointer = checkpointer
        self.name = name
        self.ckpt_path = os.path.join(checkpointer.directory, name + ".ckpt")
        self.done_path = os.path.join(checkpointer.directory, name + ".done")

    def completed_result(self):
        """The stage's recorded result when resuming, else ``None``.

        A corrupted ``.done`` file (torn device write, bitrot) is
        discarded and the stage recomputes — experiments are
        deterministic, so recomputation yields the identical result;
        corruption must never fail a resume.  A *well-formed* container
        holding the wrong kind or stage is a caller error and still
        raises :class:`~repro.sim.snapshot.CheckpointError`.
        """
        if not self.checkpointer.resume or not os.path.exists(self.done_path):
            return None
        try:
            payload = read_checkpoint(self.done_path)
        except CheckpointError as error:
            self._discard(
                self.done_path,
                "corrupt result for stage {}: {}".format(self.name, error),
            )
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != _RESULT_KIND
            or payload.get("stage") != self.name
        ):
            raise CheckpointError(
                "{} does not hold a result for stage {!r}".format(
                    self.done_path, self.name
                )
            )
        self.checkpointer.emit(
            "skipping stage {} (already complete)".format(self.name)
        )
        return payload["result"]

    def _discard(self, path, reason):
        """Drop an unusable stage file; recomputation takes over."""
        self.checkpointer.emit(
            "discarding {} ({}); recomputing".format(path, reason)
        )
        try:
            os.unlink(path)
        except OSError:
            pass  # already gone; recomputation proceeds either way

    def run(self, simulator, total_cycles, progress=None):
        """Advance ``simulator`` to ``total_cycles``, checkpointing.

        When resuming past a mid-run checkpoint the simulator is
        restored first; a *corrupted* checkpoint is discarded and the
        stage restarts from cycle 0 (determinism makes the recomputed
        stage bit-identical, so corruption degrades to lost progress,
        never a failed task).  A valid checkpoint already beyond
        ``total_cycles`` (e.g. from a longer earlier run) raises
        :class:`~repro.sim.snapshot.CheckpointError` rather than
        silently producing a wrong-length result.

        Mid-run checkpoint *writes* are best-effort: a full disk
        (``OSError``) skips that checkpoint and the simulation carries
        on — losing resumability is strictly better than losing the
        run.  ``progress`` is called as ``progress(stage, cycle,
        total_cycles)`` after every chunk.  Returns the final cycle
        count.
        """
        if self.checkpointer.resume and os.path.exists(self.ckpt_path):
            try:
                cycle = simulator.load_checkpoint(self.ckpt_path)
            except CheckpointError as error:
                self._discard(
                    self.ckpt_path,
                    "corrupt checkpoint for stage {}: {}".format(
                        self.name, error
                    ),
                )
            else:
                if cycle > total_cycles:
                    raise CheckpointError(
                        "checkpoint for stage {} is at cycle {}, beyond the "
                        "requested {} cycles".format(
                            self.name, cycle, total_cycles
                        )
                    )
                self.checkpointer.emit(
                    "resuming stage {} at cycle {}".format(self.name, cycle)
                )
        every = self.checkpointer.every
        while simulator.cycle < total_cycles:
            simulator.run(min(every, total_cycles - simulator.cycle))
            if simulator.cycle < total_cycles:
                try:
                    simulator.save_checkpoint(self.ckpt_path)
                except OSError as error:
                    self.checkpointer.emit(
                        "checkpoint write failed for stage {} at cycle {} "
                        "({}); continuing without it".format(
                            self.name, simulator.cycle, error
                        )
                    )
            if progress is not None:
                progress(self.name, simulator.cycle, total_cycles)
        return simulator.cycle

    def complete(self, result):
        """Record the stage's final result and drop its checkpoint.

        Persisting the result is best-effort too: if the write fails
        (``OSError``), the stage simply is not resumable and will
        recompute next time — the in-memory result is still returned
        and the experiment proceeds.
        """
        try:
            write_checkpoint(
                self.done_path,
                {"kind": _RESULT_KIND, "stage": self.name, "result": result},
            )
        except OSError as error:
            self.checkpointer.emit(
                "result write failed for stage {} ({}); stage will "
                "recompute on resume".format(self.name, error)
            )
        if os.path.exists(self.ckpt_path):
            os.unlink(self.ckpt_path)
        return result
