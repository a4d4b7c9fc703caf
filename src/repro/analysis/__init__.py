"""Static analysis for the reproduction's determinism & contract invariants.

Every result this repository ships rests on invariants that hold by
convention, not by construction: all randomness flows through seeded
:class:`repro.sim.rng.RandomStream` objects, every stateful component
declares its complete runtime state for the checkpoint protocol, the
wakeup contract pairs ``next_activity`` promises with ``skip_quiet``
replays, hot-path caches are invalidated on every mutation of what they
were computed from, and experiment entry points thread an explicit seed.
A violation of any of them does not crash — it silently corrupts
reproduction results.  This package checks the conventions *statically*,
over the AST, without importing or running anything.

Usage::

    python -m repro.lint src/ tests/
    python -m repro.lint --format json --baseline lint-baseline.json src/

Rules carry stable identifiers (``LB101`` .. ``LB107`` per file,
``LB201`` .. ``LB204`` whole-program); individual lines opt out with a
``# lb: noqa[LB101]`` trailing comment, and accepted pre-existing
findings live in a tracked baseline file with a justification per entry
(see :mod:`repro.analysis.baseline`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "ALL_RULE_IDS",
        "Finding",
        "LintError",
        "Rule",
        "SourceFile",
        "get_rules",
        "lint_file",
        "lint_paths",
        "lint_source",
        "register",
    ),
    ".baseline": ("Baseline", "BaselineError"),
})
