"""Analytic surrogate models for the shared-bus test-bed.

Simulation answers "what happens" one cycle at a time; this package
answers it in closed form, a few microseconds per configuration, using
a stochastic-automata-style contention model (PAPERS.md: "Stochastic
Automata Network for Performance Evaluation of Heterogeneous SoC
Communication") built on the paper's Section 4 ticket->bandwidth-share
relationship.

Entry points:

* :func:`predict` — per-master bandwidth shares, bus utilization and
  latency distribution (mean + percentiles) for one
  (arbiter, traffic class, weights) configuration.
* :func:`score_grid` — the vectorized batch path: a list of
  test-bed :class:`~repro.experiments.system.Point` objects predicted
  at a few microseconds each.
* :func:`check_config` — whether the surrogate models one point.
* :data:`ERROR_BOUNDS` / :func:`bound_for` — the checked-in, regression-
  tested surrogate<->simulator error bounds.
* :func:`validate_surrogate` — cross-validation driver producing the
  observed errors the bounds are calibrated from.

The surrogate exists to *screen*, not to replace, the simulator: see
:func:`repro.experiments.run_screened_sweep` for the two-tier driver
that scores a grid analytically and confirms the surviving frontier
with bit-identical simulation rows.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".batch": ("score_grid",),
    ".bounds": ("CALIBRATION", "ERROR_BOUNDS", "ErrorBound", "bound_for"),
    ".model": (
        "AnalyticResult",
        "UnsupportedArbiterError",
        "check_config",
        "predict",
        "supported_arbiters",
    ),
    ".validate": ("ValidationReport", "validate_surrogate"),
})
