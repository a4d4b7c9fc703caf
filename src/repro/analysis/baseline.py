"""Baseline files: tracked, justified acceptance of pre-existing findings.

A baseline lets the linter be adopted on a tree with known findings and
still fail the build on *new* ones.  Unlike a noqa, every baseline
entry carries a ``justification`` string — the file is the audit trail
for why each accepted finding is safe, reviewed like any other code.

Format (JSON, tracked in git)::

    {
      "version": 1,
      "entries": [
        {
          "rule": "LB203",
          "path": "src/repro/experiments/hardware.py",
          "code": "def run_hardware_scaling(...)",
          "justification": "analytic gate-cost model, no randomness"
        }
      ]
    }

Matching is by ``(rule, path, normalized code line)`` — the finding's
:meth:`~repro.analysis.core.Finding.fingerprint` — so entries survive
unrelated edits that shift line numbers but die with the line they
excuse.  Each entry absorbs at most one finding per occurrence listed
(duplicate entries absorb duplicates).  Entries that match nothing are
reported as *stale* so the file cannot silently rot.
"""

import json

from repro.analysis.core import normalize_code
from repro.ioutil import atomic_write

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "lint-baseline.json"


class BaselineError(Exception):
    """Raised for unreadable or malformed baseline files."""


class Baseline:
    """A multiset of accepted finding fingerprints with justifications."""

    def __init__(self, entries=()):
        self.entries = list(entries)
        for entry in self.entries:
            for key in ("rule", "path", "code", "justification"):
                if not isinstance(entry.get(key), str) or not entry[key]:
                    raise BaselineError(
                        "baseline entry missing non-empty {!r}: {!r}".format(
                            key, entry
                        )
                    )

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise BaselineError(
                "cannot read baseline {!r}: {}".format(path, error)
            ) from error
        except ValueError as error:
            raise BaselineError(
                "baseline {!r} is not valid JSON: {}".format(path, error)
            ) from error
        if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
            raise BaselineError(
                "baseline {!r}: expected a version-{} document".format(
                    path, BASELINE_VERSION
                )
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise BaselineError(
                "baseline {!r}: 'entries' must be a list".format(path)
            )
        return cls(entries)

    def save(self, path):
        payload = {"version": BASELINE_VERSION, "entries": self.entries}
        atomic_write(
            path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def from_findings(cls, findings, justification="TODO: justify"):
        entries = [
            {
                "rule": finding.rule,
                "path": finding.path,
                "code": normalize_code(finding.code),
                "justification": justification,
            }
            for finding in findings
        ]
        return cls(entries)

    def apply(self, findings):
        """Split findings into ``(new, accepted)`` and report stale
        entries: ``(new_findings, accepted_findings, stale_entries)``."""
        budget = {}
        for index, entry in enumerate(self.entries):
            key = (entry["rule"], entry["path"], normalize_code(entry["code"]))
            budget.setdefault(key, []).append(index)
        new, accepted, used = [], [], set()
        for finding in findings:
            indices = budget.get(finding.fingerprint())
            if indices:
                used.add(indices.pop(0))
                accepted.append(finding)
            else:
                new.append(finding)
        stale = [
            entry
            for index, entry in enumerate(self.entries)
            if index not in used
        ]
        return new, accepted, stale
