# lb: module=repro.experiments.fixture_good
"""LB106 true negatives: durable, read-only and excused writes."""

from repro.ioutil import atomic_write


def save_report(path, report):
    atomic_write(path, report)


def load_report(path):
    with open(path, "r") as handle:
        return handle.read()


def dynamic_mode(path, payload, mode):
    # Non-constant mode: statically unknowable, so not flagged.
    with open(path, mode) as handle:
        handle.write(payload)


def excused_scratch_file(path, payload):
    with open(path, "w") as handle:  # lb: noqa[LB106]
        handle.write(payload)
