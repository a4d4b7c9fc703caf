"""The ``repro.bench`` leg harness: repeat fingerprinting, the report
header, gates, output path and CLI, on fake legs and shrunken real ones."""

import json
import os
import time

import pytest

from repro import bench


def _fake_leg(passed):
    def leg(quick, repeats):
        sections = {
            "count": 3,
            "timed": {"wall_seconds": 0.5},
            "rows": [{"name": "a"}, {"name": "b"}],
        }
        return sections, {"fake_gate": passed, "other_gate": True}

    return leg


def test_best_of_raises_when_a_repeat_changes_its_fingerprint():
    answers = iter([1, 1, 2])
    with pytest.raises(AssertionError, match="non-deterministic"):
        bench._best_of(lambda: next(answers), 3)


def test_default_output_is_the_legs_bench_json(monkeypatch, tmp_path,
                                               capsys):
    monkeypatch.setitem(bench.LEGS, "fake", _fake_leg(True))
    monkeypatch.chdir(tmp_path)
    assert bench.main(["fake", "--quick", "--repeats", "2"]) == 0
    report = json.loads(
        (tmp_path / "benchmarks" / "perf" / "BENCH_fake.json").read_text()
    )
    assert report["benchmark"] == "repro.bench fake"
    assert report["quick"] is True and report["repeats"] == 2
    assert report["platform"]["machine"]
    assert report["gates"] == {"fake_gate": True, "other_gate": True}
    assert report["ok"] is True
    out = capsys.readouterr().out
    assert "count=3" in out
    assert "timed: wall_seconds=0.5" in out
    assert "name=a" in out and "name=b" in out


def test_failed_gate_exits_1_and_is_named_on_stderr(monkeypatch, tmp_path,
                                                     capsys):
    monkeypatch.setitem(bench.LEGS, "fake", _fake_leg(False))
    output = tmp_path / "report.json"
    assert bench.main(["fake", "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert "fake_gate" in err and "other_gate" not in err
    assert json.loads(output.read_text())["ok"] is False


def test_unknown_leg_exits_2():
    with pytest.raises(SystemExit) as exc:
        bench.main(["bogus"])
    assert exc.value.code == 2


def test_kernel_leg_fast_equals_dense_on_short_runs(monkeypatch):
    monkeypatch.setattr(bench, "SCENARIOS", tuple(
        (name, runner, systems, 300, 300, description)
        for name, runner, systems, _, _, description in bench.SCENARIOS
    ))
    monkeypatch.setattr(bench, "DRAW_COUNTS", (300, 300))
    report = bench.run_leg("kernel", quick=True, repeats=2)
    assert report["ok"]
    names = [entry["name"] for entry in report["scenarios"]]
    assert sorted(report["gates"]) == sorted(
        "{}_fast_equals_dense".format(name) for name in names
    )
    assert all(
        entry["cycles_per_system"] == 300 and entry["speedup"] > 0
        for entry in report["scenarios"]
    )
    assert [(entry["name"], entry["calls"]) for entry in report["draws"]] == [
        ("lfsr_sample_w12", 300), ("lfsr_sample_w16", 300),
        ("static_manager", 300), ("dynamic_manager", 300),
        ("compensated_manager", 300), ("bernoulli_run", 3),
    ]
    assert all(len(entry["fingerprint"]) == 16 for entry in report["draws"])
    assert report["draws"][-1]["trials_per_second"] > 0


def test_best_of_each_reverses_the_order_every_other_repeat():
    calls = []
    best, walls = bench._best_of_each(
        [lambda: calls.append("a"), lambda: calls.append("b")], 4
    )
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert [len(fn_walls) for fn_walls in walls] == [4, 4]
    assert [entry[0] for entry in best] == [min(w) for w in walls]


def test_pair_wins_count_repeats_no_slower_than_the_other_side():
    assert bench._pair_wins([1.0, 2.0, 3.0], [1.0, 1.5, 4.0]) == 2
    assert bench._pair_wins([2.0, 2.0], [1.0, 1.0]) == 0


def _sleeping_scenario(name, dense_s, fast_s):
    """A kernel scenario whose modes agree but take the given walls."""
    def runner(mode, cycles):
        time.sleep(fast_s if mode == "fast" else dense_s)
        return "same summary", 0

    return (name, runner, 1, 10, 10, "sleeps")


def test_a_slower_fast_mode_fails_the_not_slower_gate(monkeypatch):
    # figure8's fast mode is genuinely 10x slower in every pair; the
    # saturated scenario's is 10x faster.
    monkeypatch.setattr(bench, "SCENARIOS", (
        _sleeping_scenario("figure8_lottery", dense_s=0.002, fast_s=0.02),
        _sleeping_scenario("table1_saturated", dense_s=0.02, fast_s=0.002),
    ))
    monkeypatch.setattr(bench, "_draws_section", lambda quick, repeats: [])
    sections, gates = bench.kernel_leg(quick=False, repeats=3)
    assert gates == {
        "figure8_lottery_fast_equals_dense": True,
        "figure8_lottery_fast_not_slower": False,
        "table1_saturated_fast_equals_dense": True,
        "table1_saturated_fast_not_slower": True,
    }
    assert [(entry["name"], entry["fast_pair_wins"])
            for entry in sections["scenarios"]] == [
        ("figure8_lottery", 0), ("table1_saturated", 3),
    ]
    # Quick runs record the pair wins without gating on them.
    _, quick_gates = bench.kernel_leg(quick=True, repeats=3)
    assert "figure8_lottery_fast_not_slower" not in quick_gates


def test_lint_leg_missing_the_warm_target_fails_only_that_gate(
        monkeypatch, tmp_path, capsys):
    # Every run costs the same, so the warm run cannot be 5x faster.
    # The cost is large next to the cold run's cache write (an fsynced
    # file), which the warm run skips: a 5 ms cost let one slow fsync
    # make the cold run 5x slower and the gate pass.
    def flat_cost_lint(paths, rules=None, cache=None):
        time.sleep(0.05)
        return []

    monkeypatch.setattr("repro.analysis.core.lint_paths", flat_cost_lint)
    output = tmp_path / "BENCH_lint.json"
    assert bench.main(["lint", "--repeats", "1", "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert "warm_speedup_meets_target" in err
    assert "equals_cold" not in err
    assert json.loads(output.read_text())["gates"] == {
        "warm_equals_cold": True,
        "simulation_imports_lean": True,
        "warm_speedup_meets_target": False,
    }


def test_lint_leg_reports_source_size_per_package(monkeypatch):
    monkeypatch.setattr("repro.analysis.core.lint_paths",
                        lambda paths, rules=None, cache=None: [])
    size = bench.run_leg("lint", quick=True, repeats=1)["size"]
    packages = size["packages"]
    assert "repro" in packages and "repro.experiments" in packages
    assert all(name == "repro" or name.startswith("repro.")
               for name in packages)
    assert all(entry["modules"] > 0 and entry["lines"] > 0
               for entry in packages.values())
    assert size["total"] == {
        "modules": sum(e["modules"] for e in packages.values()),
        "lines": sum(e["lines"] for e in packages.values()),
    }
    modules = sum(
        name.endswith(".py")
        for _, _, files in os.walk(os.path.join("src", "repro"))
        for name in files
    )
    assert size["total"]["modules"] == modules


def test_lint_leg_records_what_each_entry_point_imports(monkeypatch):
    monkeypatch.setattr("repro.analysis.core.lint_paths",
                        lambda paths, rules=None, cache=None: [])
    imports = bench.run_leg("lint", quick=True, repeats=1)["size"]["imports"]
    entries = imports["entry_points"]
    assert list(entries) == ["simulation", "cli", "service", "analytic"]
    for name, entry in entries.items():
        assert entry["module"] == bench.IMPORT_ENTRY_POINTS[name]
        assert entry["repro_modules"] > 0 and entry["repro_lines"] > 0
        assert entry["import_s"] > 0
    simulation = entries["simulation"]
    assert simulation["module"] == "repro.experiments.system"
    assert simulation["off_path"] == []
    # The simulator is a strict subset of the CLI's stack.
    assert simulation["repro_lines"] < entries["cli"]["repro_lines"]


def test_simulation_imports_lean_gate_fails_on_an_excluded_module(
        monkeypatch):
    monkeypatch.setattr("repro.analysis.core.lint_paths",
                        lambda paths, rules=None, cache=None: [])
    real_graph = bench.import_graph

    def graph_with_a_pool(*modules):
        seconds, loaded = real_graph(*modules)
        loaded = dict(loaded, **{"multiprocessing.pool": None,
                                 "repro.experiments.cache": None})
        return seconds, loaded

    monkeypatch.setattr(bench, "import_graph", graph_with_a_pool)
    report = bench.run_leg("lint", quick=True, repeats=1)
    assert report["gates"]["simulation_imports_lean"] is False
    assert not report["ok"]
    simulation = report["size"]["imports"]["entry_points"]["simulation"]
    assert simulation["off_path"] == [
        "multiprocessing.pool", "repro.experiments.cache"]


def test_off_simulation_path_matches_modules_and_their_submodules():
    assert bench.off_simulation_path([
        "repro.sim.kernel", "numpy", "numpy.core", "socketserver",
        "repro.atm", "repro.atmosphere", "repro.experiments.system",
        "repro.experiments.supervisor",
    ]) == ["numpy", "numpy.core", "repro.atm",
           "repro.experiments.supervisor"]
