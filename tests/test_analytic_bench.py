"""The analytic benchmark leg: report shape and the bound-violation
gate, with the expensive validation and simulation runs stubbed out."""

import json

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
    results = bench.run_leg("analytic", quick=True, repeats=1)
    assert results["ok"]
    # Quick runs report the speedup; only full runs gate it.
    assert results["gates"] == {"within_error_bounds": True}
    assert results["validation"]["violations"] == []
    assert results["surrogate"]["configs"] > 0
    assert results["surrogate"]["per_config_microseconds"] > 0
    assert results["simulator"]["cycles_per_config"] == 50_000
    assert results["speedup_target"] == 1000.0


def test_bound_violation_fails_the_benchmark(monkeypatch, tmp_path,
                                             capsys):
    _stub_legs(monkeypatch, ok=False)
    output = tmp_path / "BENCH_analytic.json"
    assert bench.main(
        ["analytic", "--quick", "--repeats", "1", "--output", str(output)]
    ) == 1
    assert "within_error_bounds" in capsys.readouterr().err
    written = json.loads(output.read_text())
    assert written["gates"] == {"within_error_bounds": False}
    assert not written["ok"]
    assert written["validation"]["violations"] == [
        "lottery-static/T8"
    ]

