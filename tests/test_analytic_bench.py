"""The --analytic benchmark leg: report shape and the bound-violation
gate, with the expensive validation/simulation legs stubbed out."""

import json

import pytest

from repro import bench


class _FakeReport:
    def __init__(self, ok):
        self.rows = [
            {
                "arbiter": "lottery-static",
                "traffic": "T8",
                "share_error": 0.002,
                "utilization_error": 0.001,
                "latency_error": 0.01,
                "within_bounds": ok,
            }
        ]
        self.cycles = 15_000
        self.seed = 1
        self.ok = ok

    @property
    def violations(self):
        return [] if self.ok else list(self.rows)

    def max_errors(self):
        return {"share": 0.002, "utilization": 0.001, "latency": 0.01}


def _stub_legs(monkeypatch, ok):
    monkeypatch.setattr(
        "repro.analytic.validate_surrogate",
        lambda arbiters=None, backend=None, jobs=None: _FakeReport(ok),
    )
    monkeypatch.setattr(
        "repro.vector.run_testbed_batch", lambda calls: None
    )


def test_quick_analytic_benchmark_reports_and_passes(monkeypatch):
    _stub_legs(monkeypatch, ok=True)
    results = bench.run_analytic_benchmark(quick=True, repeats=1)
    assert results["all_identical"]
    assert results["validation"]["ok"]
    assert results["validation"]["violations"] == []
    assert results["surrogate"]["configs"] > 0
    assert results["surrogate"]["per_config_microseconds"] > 0
    assert results["simulator"]["cycles_per_config"] == 50_000
    assert results["speedup_target"] == 1000.0
    assert not results["speedup_gated"]  # quick reports, full gates


def test_bound_violation_fails_the_benchmark(monkeypatch, tmp_path,
                                             capsys):
    _stub_legs(monkeypatch, ok=False)
    output = tmp_path / "BENCH_analytic.json"
    assert bench.main(
        ["--analytic", "--quick", "--repeats", "1",
         "--analytic-output", str(output)]
    ) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "error" in err
    written = json.loads(output.read_text())
    assert not written["all_identical"]
    assert written["validation"]["violations"] == [
        "lottery-static/T8"
    ]


def test_analytic_excludes_other_benchmark_modes():
    with pytest.raises(SystemExit):
        bench.main(["--analytic", "--batch"])
