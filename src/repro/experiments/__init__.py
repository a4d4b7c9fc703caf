"""Experiment harnesses: one module per paper table/figure.

Every experiment returns a plain-data result object with a
``format_report()`` method, so benchmarks, the CLI and tests all share
one code path.  Experiment parameters default to the values recorded in
EXPERIMENTS.md; cycle counts can be reduced for smoke tests.
"""

from repro.experiments.checkpoint import (
    ExperimentCheckpointer,
    StageCheckpoint,
)
from repro.experiments.fault_sweep import build_fault_testbed, run_fault_sweep
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6a, run_figure6b
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure12 import run_figure12a, run_figure12_latency
from repro.experiments.hardware import (
    run_hardware_comparison,
    run_hardware_scaling,
)
from repro.experiments.replication import run_replicated_testbed
from repro.experiments.screen import (
    ScreenedSweepResult,
    run_screened_sweep,
)
from repro.experiments.starvation import run_starvation
from repro.experiments.sweep import run_sweep
from repro.experiments.system import Point, run_testbed
from repro.experiments.supervisor import (
    ResultStore,
    Supervisor,
    TaskSpec,
    run_campaign,
)
from repro.experiments.table1 import run_table1

__all__ = [
    "ExperimentCheckpointer",
    "Point",
    "ResultStore",
    "ScreenedSweepResult",
    "StageCheckpoint",
    "Supervisor",
    "TaskSpec",
    "build_fault_testbed",
    "run_campaign",
    "run_fault_sweep",
    "run_figure4",
    "run_figure5",
    "run_figure6a",
    "run_figure6b",
    "run_figure8",
    "run_figure12a",
    "run_figure12_latency",
    "run_hardware_comparison",
    "run_hardware_scaling",
    "run_replicated_testbed",
    "run_screened_sweep",
    "run_starvation",
    "run_sweep",
    "run_testbed",
    "run_table1",
]
