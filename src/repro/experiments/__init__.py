"""Experiment harnesses: one module per paper table/figure.

Every experiment returns a plain-data result object with a
``format_report()`` method, so benchmarks, the CLI and tests all share
one code path.  Experiment parameters default to the values recorded in
EXPERIMENTS.md; cycle counts can be reduced for smoke tests.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".checkpoint": ("ExperimentCheckpointer", "StageCheckpoint"),
    ".fault_sweep": ("build_fault_testbed", "run_fault_sweep"),
    ".figure4": ("run_figure4",),
    ".figure5": ("run_figure5",),
    ".figure6": ("run_figure6a", "run_figure6b"),
    ".figure8": ("run_figure8",),
    ".figure12": ("run_figure12a", "run_figure12_latency"),
    ".hardware": ("run_hardware_comparison", "run_hardware_scaling"),
    ".replication": ("run_replicated_testbed",),
    ".screen": ("ScreenedSweepResult", "run_screened_sweep"),
    ".starvation": ("run_starvation",),
    ".sweep": ("run_sweep",),
    ".system": ("Point", "run_testbed"),
    ".supervisor": ("JobSpec", "ResultStore", "Supervisor", "run_campaign"),
    ".table1": ("run_table1",),
})
