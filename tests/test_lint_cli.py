"""CLI, baseline and self-check tests for ``python -m repro.lint``."""

import json
import os
import shutil
import subprocess
import sys

from repro.analysis import Baseline, lint_file
from repro.analysis.baseline import BaselineError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "lint")
SRC = os.path.join(REPO_ROOT, "src")


def run_lint(*args, cwd=REPO_ROOT, src=SRC):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint"] + list(args),
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


# ---------------------------------------------------------------------------
# The self-check: the shipped tree is clean against the shipped baseline.
# ---------------------------------------------------------------------------


def test_repo_tree_is_clean_against_committed_baseline():
    result = run_lint("src/", "tests/")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean: no unbaselined findings" in result.stdout


def test_bad_fixture_fails_the_cli_with_exit_1():
    result = run_lint(os.path.join(FIXTURES, "lb101_bad.py"))
    assert result.returncode == 1
    assert "LB101" in result.stdout


def test_every_rule_has_a_fixture_verified_true_positive():
    for rule in ("LB101", "LB102", "LB103", "LB104", "LB106",
                 "LB107", "LB201", "LB202", "LB203", "LB204"):
        bad = os.path.join(FIXTURES, "{}_bad.py".format(rule.lower()))
        result = run_lint("--select", rule, bad)
        assert result.returncode == 1, "{} bad fixture not caught".format(rule)
        assert rule in result.stdout


def test_every_rule_has_a_fixture_verified_true_negative():
    for rule in ("LB101", "LB102", "LB103", "LB104", "LB106",
                 "LB107", "LB201", "LB202", "LB203", "LB204"):
        good = os.path.join(FIXTURES, "{}_good.py".format(rule.lower()))
        result = run_lint("--select", rule, good)
        assert result.returncode == 0, "{} good fixture flagged:\n{}".format(
            rule, result.stdout
        )


def test_introducing_a_bad_file_into_the_tree_fails(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    shutil.copy(
        os.path.join(FIXTURES, "lb203_bad.py"), str(tree / "newexp.py")
    )
    result = run_lint(str(tree))
    assert result.returncode == 1
    assert "LB203" in result.stdout


def test_fixture_directory_is_excluded_from_tree_walks_only(tmp_path):
    # Walking tests/ skips fixtures/ (the tree self-check depends on it)…
    result = run_lint("tests/")
    assert result.returncode == 0
    # …but naming a fixture file explicitly always lints it.
    result = run_lint(os.path.join(FIXTURES, "lb103_bad.py"))
    assert result.returncode == 1


# ---------------------------------------------------------------------------
# Output formats and exit codes.
# ---------------------------------------------------------------------------


def test_json_report_shape():
    result = run_lint(
        "--format", "json", os.path.join(FIXTURES, "lb102_bad.py")
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["version"] == 1
    assert payload["summary"]["total"] == len(payload["findings"]) > 0
    assert payload["summary"]["by_rule"].keys() == {"LB102"}
    finding = payload["findings"][0]
    assert {"rule", "path", "line", "col", "message", "code"} <= set(finding)


def test_json_report_clean_tree_has_empty_findings():
    result = run_lint(
        "--format", "json", os.path.join(FIXTURES, "lb101_good.py")
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["findings"] == []


def test_unknown_rule_is_a_usage_error():
    result = run_lint("--select", "LB999", "src/")
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


def test_missing_path_is_a_usage_error():
    result = run_lint("no/such/dir")
    assert result.returncode == 2


def test_list_rules_prints_catalog():
    result = run_lint("--list-rules")
    assert result.returncode == 0
    for rule in ("LB101", "LB102", "LB103", "LB104", "LB106",
                 "LB201", "LB202", "LB203", "LB204"):
        assert rule in result.stdout


# ---------------------------------------------------------------------------
# Baseline workflow.
# ---------------------------------------------------------------------------


def test_write_baseline_then_lint_is_clean(tmp_path):
    bad = os.path.join(FIXTURES, "lb104_bad.py")
    baseline = str(tmp_path / "baseline.json")
    written = run_lint("--write-baseline", baseline, bad)
    assert written.returncode == 0
    result = run_lint("--baseline", baseline, bad)
    assert result.returncode == 0, result.stdout
    assert "baselined finding" in result.stdout


def test_baseline_does_not_mask_new_findings(tmp_path):
    baseline = str(tmp_path / "baseline.json")
    run_lint(
        "--write-baseline", baseline, os.path.join(FIXTURES, "lb104_bad.py")
    )
    # A different bad file is not covered by that baseline.
    result = run_lint(
        "--baseline", baseline, os.path.join(FIXTURES, "lb203_bad.py")
    )
    assert result.returncode == 1


def test_stale_baseline_entries_are_reported(tmp_path):
    baseline = str(tmp_path / "baseline.json")
    Baseline(
        [
            {
                "rule": "LB101",
                "path": "src/gone.py",
                "code": "x = time.time()",
                "justification": "was needed once",
            }
        ]
    ).save(baseline)
    result = run_lint(
        "--baseline", baseline, os.path.join(FIXTURES, "lb101_good.py")
    )
    assert result.returncode == 0
    assert "stale baseline entry" in result.stdout


def test_no_baseline_flag_reports_accepted_findings():
    result = run_lint("--no-baseline", "src/")
    assert result.returncode == 1
    assert "run_task_spec" in result.stdout


def test_committed_baseline_justifications_are_non_empty():
    baseline = Baseline.load(os.path.join(REPO_ROOT, "lint-baseline.json"))
    for entry in baseline.entries:
        assert entry["justification"].strip()
        assert "TODO" not in entry["justification"]


def test_baseline_rejects_malformed_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1, "entries": [{"rule": "LB101"}]}')
    try:
        Baseline.load(str(path))
    except BaselineError:
        pass
    else:
        raise AssertionError("malformed baseline accepted")


def test_baseline_matching_survives_line_drift(tmp_path):
    original = os.path.join(FIXTURES, "lb203_bad.py")
    baseline = str(tmp_path / "baseline.json")
    run_lint("--write-baseline", baseline, original)
    # Same content shifted 20 lines down: fingerprints still match.
    shifted = tmp_path / "lb203_shifted.py"
    with open(original) as handle:
        content = handle.read()
    directive, rest = content.split("\n", 1)
    shifted.write_text(directive + "\n" + "#\n" * 20 + rest)
    entries = json.load(open(baseline))["entries"]
    for entry in entries:
        entry["path"] = _display(str(shifted))
    json.dump({"version": 1, "entries": entries}, open(baseline, "w"))
    result = run_lint("--baseline", baseline, str(shifted))
    assert result.returncode == 0, result.stdout


def _display(path):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith(".."):
        path = rel
    return path.replace(os.sep, "/")


def test_lint_file_api_matches_cli(tmp_path):
    findings = lint_file(os.path.join(FIXTURES, "lb103_bad.py"))
    assert {f.rule for f in findings} == {"LB103"}
    assert all(f.code for f in findings)


# ---------------------------------------------------------------------------
# Incremental cache, parallelism and baseline pruning (PR 10).
# ---------------------------------------------------------------------------


def test_incremental_cache_warms_to_identical_findings(tmp_path):
    # Lint a private copy of the tree, so a file saved in the checkout
    # between the cold and the warm run cannot count as a cache miss.
    tree = tmp_path / "tree"
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(REPO_ROOT, name), str(tree / name),
                        ignore=skip)
    shutil.copy(os.path.join(REPO_ROOT, "lint-baseline.json"), str(tree))
    lint = dict(cwd=str(tree), src=str(tree / "src"))
    cache = str(tmp_path / "cache.json")
    cold = run_lint("--cache-file", cache, "src/", "tests/", **lint)
    assert cold.returncode == 0, cold.stdout + cold.stderr
    assert "0.0% warm" in cold.stderr
    warm = run_lint("--cache-file", cache, "src/", "tests/", **lint)
    assert warm.returncode == 0, warm.stdout + warm.stderr
    assert warm.stdout == cold.stdout  # byte-identical findings
    # Nothing changed, so every per-file result must come from cache.
    hits, misses = _cache_counts(warm.stderr)
    assert misses == 0 and hits > 0
    assert hits / float(hits + misses) >= 0.95


def test_cache_invalidates_on_content_change(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("# lb: module=repro.sim.edited\nX = 1\n")
    cache = str(tmp_path / "cache.json")
    first = run_lint("--cache-file", cache, str(target))
    assert first.returncode == 0
    target.write_text(
        "# lb: module=repro.sim.edited\nimport time\nX = time.time()\n"
    )
    second = run_lint("--cache-file", cache, str(target))
    assert second.returncode == 1  # the edit is re-linted, not served stale
    assert "LB101" in second.stdout


def test_project_pass_memo_invalidates_when_any_file_changes(tmp_path):
    # A cross-file race only exists once the second file adds an
    # unlocked writer; replaying stale project findings would miss it.
    tree = tmp_path / "pkg"
    tree.mkdir()
    shared = (
        "# lb: module=repro.sim.memoshared\n"
        "import threading\n"
        "class Shared:\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "    def start(self):\n"
        "        threading.Thread(target=self.work, daemon=True).start()\n"
        "    def work(self):\n"
        "        self.hits += 1\n"
    )
    (tree / "shared.py").write_text(shared)
    (tree / "user.py").write_text(
        "# lb: module=repro.sim.memouser\nX = 1\n"
    )
    cache = str(tmp_path / "cache.json")
    first = run_lint("--cache-file", cache, str(tree))
    assert first.returncode == 0, first.stdout  # one root: no race yet
    (tree / "user.py").write_text(
        "# lb: module=repro.sim.memouser\n"
        "from repro.sim.memoshared import Shared\n"
        "def poke(tracker):\n"
        "    tracker = Shared()\n"
        "    tracker.start()\n"
        "    tracker.hits += 1\n"
    )
    second = run_lint("--cache-file", cache, str(tree))
    assert second.returncode == 1, second.stdout
    assert "LB201" in second.stdout


def test_no_incremental_bypasses_the_cache(tmp_path):
    cache = str(tmp_path / "cache.json")
    result = run_lint(
        "--no-incremental", "--cache-file", cache,
        os.path.join(FIXTURES, "lb101_good.py"),
    )
    assert result.returncode == 0
    assert "cache:" not in result.stderr
    assert not os.path.exists(cache)


def test_timing_line_is_reported_on_stderr():
    result = run_lint(
        "--no-incremental", os.path.join(FIXTURES, "lb101_good.py")
    )
    assert "lint: completed in" in result.stderr


def test_prune_baseline_drops_stale_entries_and_keeps_live_ones(tmp_path):
    baseline = str(tmp_path / "baseline.json")
    live_bad = os.path.join(FIXTURES, "lb104_bad.py")
    run_lint("--write-baseline", baseline, live_bad)
    entries = json.load(open(baseline))["entries"]
    assert entries
    stale = {
        "rule": "LB101",
        "path": "src/deleted_long_ago.py",
        "code": "x = time.time()",
        "justification": "the file is gone",
    }
    json.dump(
        {"version": 1, "entries": entries + [stale]}, open(baseline, "w")
    )
    result = run_lint("--baseline", baseline, "--prune-baseline", live_bad)
    assert result.returncode == 0, result.stdout
    assert "pruned" in result.stderr
    kept = json.load(open(baseline))["entries"]
    assert len(kept) == len(entries)
    assert all(entry["path"] != "src/deleted_long_ago.py" for entry in kept)


def test_prune_baseline_without_baseline_is_a_usage_error():
    result = run_lint("--prune-baseline", "--no-baseline", "src/")
    assert result.returncode == 2


def _cache_counts(stderr):
    for line in stderr.splitlines():
        if line.startswith("cache:"):
            parts = line.split()
            return int(parts[1]), int(parts[4])
    raise AssertionError("no cache line in stderr:\n" + stderr)
