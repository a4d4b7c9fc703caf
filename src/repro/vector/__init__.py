"""Vectorized struct-of-arrays batch engine for saturated workloads.

Hosts many independent test-bed systems as lanes of numpy arrays and
advances all of them one bus cycle per vectorized step — bit-identical
to the scalar dense simulator (equivalence is enforced by fingerprint
comparison and a strict cross-check; see :mod:`repro.vector.lanes`).

numpy is imported lazily, by the code that builds arrays: importing
this package does not load numpy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".backend": ("BatchRun", "run_testbed_batch"),
    ".engine": ("VectorEngine",),
    ".lanes": (
        "LanePlan",
        "UnsupportedConfigError",
        "VectorDivergenceError",
        "arbiter_check_state",
        "plan_lane",
        "scalar_fingerprint",
    ),
    ".lfsr": ("VectorLFSR",),
})
