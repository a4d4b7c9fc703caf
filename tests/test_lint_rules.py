"""Per-rule fixture tests for the repro.analysis linter.

Each rule has a known-bad fixture (every finding it must raise) and a
known-good fixture (zero findings, including the suppression and
escape-hatch syntaxes).  Fixtures carry ``# lb: module=...`` directives
so package-scoped rules see them as in-scope.
"""

import os

import pytest

from repro.analysis import get_rules, lint_file, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def fixture(name):
    return os.path.join(FIXTURES, name)


def findings_for(name, rule_id):
    rules = get_rules([rule_id])
    return lint_file(fixture(name), rules=rules)


# ---------------------------------------------------------------------------
# Bad fixtures: every construct the rule bans is caught.
# ---------------------------------------------------------------------------


def test_lb101_bad_fixture_catches_each_hazard():
    findings = findings_for("lb101_bad.py", "LB101")
    messages = "\n".join(f.message for f in findings)
    assert len(findings) >= 8
    assert "random.random()" in messages
    assert "time.time()" in messages
    assert "from-import of wall-clock" in messages
    assert "from-import of module-level RNG" in messages
    assert "os.urandom" in messages
    assert "iteration over a set" in messages
    assert "iteration over set(...)" in messages
    assert "unsorted directory listing" in messages
    assert "builtin hash()" in messages


def test_lb102_bad_fixture_catches_drift_and_stale_declaration():
    findings = findings_for("lb102_bad.py", "LB102")
    messages = "\n".join(f.message for f in findings)
    assert "LeakyQueue._pending" in messages
    assert "LeakyQueue._latency_sums" in messages
    assert "_consecutive_grants" in messages and "stale" in messages
    assert len(findings) == 3


def test_lb103_bad_fixture_catches_contract_violations():
    findings = findings_for("lb103_bad.py", "LB103")
    messages = "\n".join(f.message for f in findings)
    assert "CountdownWithoutReplay.next_activity" in messages
    assert "DeadReplay.skip_quiet" in messages
    assert "DroppedWake.wake" in messages
    assert "StaleSleepWake.wake" in messages
    assert len(findings) == 4


def test_lb104_bad_fixture_catches_stale_cache_paths():
    findings = findings_for("lb104_bad.py", "LB104")
    messages = "\n".join(f.message for f in findings)
    assert "StaleSumsManager.set_tickets" in messages
    assert "_sums_cache" in messages
    assert "RestoreBehindCache" in messages
    assert "load_state_dict" in messages
    # Three: the un-invalidated mutator, plus the missing restore
    # invalidation on BOTH classes (StaleSumsManager also snapshots
    # _tickets without a load_state_dict that drops the memo).
    assert len(findings) == 3


def test_lb203_bad_fixture_catches_seed_violations():
    findings = findings_for("lb203_bad.py", "LB203")
    by_line = {f.line: f.message for f in findings}
    assert sorted(by_line) == [5, 9, 13, 18, 23]
    # Entry-point signatures: no seed at all, or a None default.
    assert "run_seedless_sweep() takes no seed" in by_line[5]
    assert "run_none_seeded() defaults seed=None" in by_line[9]
    # Flow: dropped directly, and dropped one hop down.
    assert "of run_dropped_seed never reaches" in by_line[13]
    assert "of run_sim never reaches" in by_line[18]
    assert "of helper never reaches" in by_line[23]
    assert len(findings) == 5


def test_lb106_bad_fixture_catches_truncating_writes():
    findings = findings_for("lb106_bad.py", "LB106")
    messages = "\n".join(f.message for f in findings)
    assert "open(..., 'w')" in messages
    assert "open(..., 'wb')" in messages
    assert "open(..., 'x')" in messages
    assert "os.fdopen(..., 'wb')" in messages
    assert "io.open(..., 'w')" in messages
    assert ".write_text()" in messages
    assert ".write_bytes()" in messages
    assert "open(..., 'ab')" in messages
    assert "open(..., 'r+b')" in messages
    assert len(findings) == 9


def test_lb107_bad_fixture_catches_swallowed_exceptions():
    findings = findings_for("lb107_bad.py", "LB107")
    messages = "\n".join(f.message for f in findings)
    assert "except Exception swallows every error" in messages
    assert "bare except swallows every error" in messages
    assert "except BaseException swallows every error" in messages
    assert "except OSError swallows the error with no justifying" in messages
    assert "except ValueError swallows the error" in messages
    # Six broad swallows (incl. docstring-only, continue, bare return,
    # BaseException-in-tuple) plus two uncommented narrow swallows.
    assert len(findings) == 8


# ---------------------------------------------------------------------------
# Good fixtures: zero findings under EVERY rule, not just their own —
# the blessed idioms must not trip neighbouring rules either.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    [
        "lb101_good.py",
        "lb102_good.py",
        "lb103_good.py",
        "lb104_good.py",
        "lb106_good.py",
        "lb107_good.py",
        "lb203_good.py",
    ],
)
def test_good_fixtures_are_clean_under_all_rules(name):
    assert lint_file(fixture(name)) == []


# ---------------------------------------------------------------------------
# Targeted unit checks on tricky rule internals.
# ---------------------------------------------------------------------------


def test_lb101_scopes_to_deterministic_packages():
    source = "import time\nSTAMP = time.time()\n"
    assert lint_source(source, module="repro.bench") == []
    assert lint_source(source, module="repro.experiments.runner") == []
    findings = lint_source(source, module="repro.sim.kernel")
    assert [f.rule for f in findings] == ["LB101"]


def test_lb101_allows_seeded_random_instances():
    source = "import random\nRNG = random.Random(42)\n"
    assert lint_source(source, module="repro.sim.rng") == []


def test_lb102_requires_declaration_only_for_snapshot_classes():
    source = (
        "class Plain:\n"
        "    def __init__(self):\n"
        "        self._stuff = []\n"
    )
    # No state_attrs/state_children: the class opted out of snapshots.
    assert lint_source(source, module="repro.sim.x") == []


def test_lb103_periodic_arithmetic_over_config_is_clean():
    source = (
        "class P:\n"
        "    def __init__(self, period):\n"
        "        self.period = period\n"
        "    def next_activity(self, cycle):\n"
        "        return cycle + self.period\n"
    )
    assert lint_source(source, module="repro.sim.x") == []


def test_lb103_countdown_over_runtime_state_is_flagged():
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self._left = 0\n"
        "    def tick(self, cycle):\n"
        "        self._left -= 1\n"
        "    def next_activity(self, cycle):\n"
        "        return cycle + self._left\n"
    )
    findings = lint_source(source, module="repro.sim.x")
    assert [f.rule for f in findings] == ["LB103"]


def test_noqa_bare_suppresses_all_rules_on_line():
    source = "import time\nSTAMP = time.time()  # lb: noqa\n"
    assert lint_source(source, module="repro.sim.x") == []


def test_noqa_scoped_to_other_rule_does_not_suppress():
    source = "import time\nSTAMP = time.time()  # lb: noqa[LB203]\n"
    findings = lint_source(source, module="repro.sim.x")
    assert [f.rule for f in findings] == ["LB101"]


def test_noqa_inside_string_literal_is_not_a_suppression():
    source = (
        "import time\n"
        'TEXT = "# lb: noqa"\n'
        "STAMP = time.time()\n"
    )
    findings = lint_source(source, module="repro.sim.x")
    assert [f.rule for f in findings] == ["LB101"]


def test_module_directive_overrides_path_inference():
    source = "# lb: module=repro.sim.pretend\nimport time\nT = time.time()\n"
    findings = lint_source(source, path="/tmp/elsewhere.py")
    assert [f.rule for f in findings] == ["LB101"]


def test_lb106_scopes_to_persistence_modules():
    source = 'def save(path, text):\n    open(path, "w").write(text)\n'
    assert lint_source(source, module="repro.sim.kernel") == []
    assert lint_source(source, module="repro.cli") == []
    for module in (
        "repro.experiments.cache", "repro.sim.snapshot", "repro.service.wal",
    ):
        findings = lint_source(source, module=module)
        assert [f.rule for f in findings] == ["LB106"]


def test_rule_registry_has_the_documented_rules():
    ids = [rule.id for rule in get_rules()]
    assert ids == [
        "LB101", "LB102", "LB103", "LB104", "LB106", "LB107",
        "LB201", "LB202", "LB203", "LB204",
    ]
    for rule in get_rules():
        assert rule.name and rule.description


def test_lb107_scopes_to_the_repro_package():
    source = "def f(t):\n    try:\n        t()\n    except Exception:\n        pass\n"
    assert lint_source(source, module="") == []
    assert lint_source(source, module="thirdparty.mod") == []
    findings = lint_source(source, module="repro.sim.kernel")
    assert [f.rule for f in findings] == ["LB107"]


def test_lb107_narrow_catch_with_comment_is_clean():
    source = (
        "def f(t):\n"
        "    try:\n"
        "        t()\n"
        "    except OSError:\n"
        "        pass  # already gone; exactly the state we wanted\n"
    )
    assert lint_source(source, module="repro.sim.kernel") == []


def test_lb107_broad_catch_needs_noqa_not_just_a_comment():
    source = (
        "def f(t):\n"
        "    try:\n"
        "        t()\n"
        "    except Exception:\n"
        "        pass  # a comment alone is not enough for broad catches\n"
    )
    findings = lint_source(source, module="repro.sim.kernel")
    assert [f.rule for f in findings] == ["LB107"]


def test_lb107_nontrivial_handler_is_clean():
    source = (
        "def f(t, log):\n"
        "    try:\n"
        "        t()\n"
        "    except Exception as error:\n"
        "        log(error)\n"
    )
    assert lint_source(source, module="repro.sim.kernel") == []
