"""Vectorized struct-of-arrays batch engine for saturated workloads.

Hosts many independent test-bed systems as lanes of numpy arrays and
advances all of them one bus cycle per vectorized step — bit-identical
to the scalar dense simulator (equivalence is enforced by fingerprint
comparison and a strict cross-check; see :mod:`repro.vector.lanes`).

numpy is imported lazily, by the code that builds arrays: importing
this package does not load numpy.
"""

from repro.vector.backend import (
    BatchRun,
    make_testbed_builder,
    run_testbed_batch,
)
from repro.vector.engine import VectorEngine
from repro.vector.lanes import (
    LanePlan,
    UnsupportedConfigError,
    VectorDivergenceError,
    arbiter_check_state,
    plan_lane,
    scalar_fingerprint,
)
from repro.vector.lfsr import VectorLFSR

__all__ = [
    "BatchRun",
    "LanePlan",
    "UnsupportedConfigError",
    "VectorDivergenceError",
    "VectorEngine",
    "VectorLFSR",
    "arbiter_check_state",
    "make_testbed_builder",
    "plan_lane",
    "run_testbed_batch",
    "scalar_fingerprint",
]

