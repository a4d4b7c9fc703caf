"""Run every experiment and emit a combined report.

``python -m repro all`` (or ``lotterybus all``) regenerates every table
and figure of the paper in one pass; individual experiments are exposed
through the same registry for the CLI and the benchmarks.
"""

import warnings

from repro.experiments.fault_sweep import run_fault_sweep
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6a, run_figure6b
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure12 import run_figure12a, run_figure12_latency
from repro.experiments.hardware import (
    run_hardware_comparison,
    run_hardware_scaling,
)
from repro.experiments.starvation import run_starvation
from repro.experiments.sweep import run_sweep
from repro.experiments.table1 import run_table1

# The standard sweep: every batch-engine-supported arbiter crossed with
# all nine traffic classes at the Table 1 weights.  ``backend=`` picks
# the execution engine (scalar / vector); rows are bit-identical
# across backends.
_SWEEP_ARBITERS = (
    "static-priority",
    "lottery-static",
    "lottery-dynamic",
    "lottery-compensated",
)
_SWEEP_TRAFFIC = tuple("T{}".format(i) for i in range(1, 10))
_SWEEP_WEIGHTS = (12, 2, 6, 1)


def _run_standard_sweep(scale, seed, screen=False, screen_top_k=8,
                        **options):
    """The standard sweep grid, exhaustive or two-tier screened.

    With ``screen=True`` the grid is scored by the analytic surrogate
    first and only the surviving candidates are simulated (see
    :func:`repro.experiments.run_screened_sweep`); confirmed rows stay
    bit-identical to the exhaustive sweep's.
    """
    common = dict(
        weights=_SWEEP_WEIGHTS,
        cycles=int(50_000 * scale),
        seed=seed,
        **options
    )
    if screen:
        from repro.experiments.screen import run_screened_sweep

        return run_screened_sweep(
            _SWEEP_ARBITERS, _SWEEP_TRAFFIC,
            top_k=screen_top_k, **common
        )
    return run_sweep(_SWEEP_ARBITERS, _SWEEP_TRAFFIC, **common)

# Cycle counts are scaled by ``scale`` (1.0 = the EXPERIMENTS.md values).
_EXPERIMENTS = {
    "figure4": lambda scale, seed: run_figure4(
        cycles=int(100_000 * scale), seed=seed
    ),
    "figure5": lambda scale, seed: run_figure5(
        cycles=int(40_000 * scale), seed=seed
    ),
    "figure6a": lambda scale, seed: run_figure6a(
        cycles=int(100_000 * scale), seed=seed
    ),
    "figure6b": lambda scale, seed: run_figure6b(
        cycles=int(400_000 * scale), seed=seed
    ),
    "figure8": lambda scale, seed: run_figure8(),
    "figure12a": lambda scale, seed: run_figure12a(
        cycles=int(200_000 * scale), seed=seed
    ),
    "figure12b": lambda scale, seed: run_figure12_latency(
        "tdma", cycles=int(400_000 * scale), seed=seed, reclaim="single"
    ),
    "figure12c": lambda scale, seed: run_figure12_latency(
        "lottery-static", cycles=int(400_000 * scale), seed=seed
    ),
    "table1": lambda scale, seed, **extra: run_table1(
        cycles=int(500_000 * scale), seed=seed, **extra
    ),
    "hardware": lambda scale, seed: run_hardware_comparison(),
    "hwscale": lambda scale, seed: run_hardware_scaling(),
    "starvation": lambda scale, seed: run_starvation(
        drawings=int(200_000 * scale), seed=seed
    ),
    "faultsweep": lambda scale, seed, **options: run_fault_sweep(
        cycles=int(60_000 * scale), seed=seed, **options
    ),
    "sweep": _run_standard_sweep,
}

# Experiments accepting extra keyword options (e.g. the CLI's
# ``--fault-rate`` or ``--backend``); passing options to any other
# experiment is an error.
_OPTION_AWARE = {"faultsweep", "sweep"}

# Deterministic/analytic experiments whose lambdas take no cycle count
# or RNG: --scale/--seed cannot change their result, so passing
# non-default values draws a warning instead of being silently ignored.
_SEEDLESS = {"figure8", "hardware", "hwscale"}

# Experiments that accept a ``checkpointer``/``progress`` pair (see
# repro.experiments.checkpoint) for interruptible, resumable execution.
_CHECKPOINT_AWARE = {"table1"}


def experiment_names():
    """All runnable experiment ids, in paper order."""
    return list(_EXPERIMENTS)


def checkpoint_aware_experiments():
    """Experiment ids that support stage checkpointing / resume."""
    return set(_CHECKPOINT_AWARE)


def run_experiment(name, scale=1.0, seed=1, checkpointer=None,
                   progress=None, _warn_seedless=True, **options):
    """Run one experiment by id; returns its result object.

    :param checkpointer: optional
        :class:`~repro.experiments.checkpoint.ExperimentCheckpointer`
        for checkpoint-aware experiments (a ValueError for others).
    :param progress: optional ``progress(stage, cycle, total)`` callback
        driven by checkpoint-aware experiments as they advance.
    """
    try:
        runner = _EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            "unknown experiment {!r}; choose from {}".format(
                name, experiment_names()
            )
        )
    if _warn_seedless and name in _SEEDLESS and (scale != 1.0 or seed != 1):
        warnings.warn(
            "experiment {!r} is deterministic; --scale/--seed have no "
            "effect on it".format(name),
            RuntimeWarning,
            stacklevel=2,
        )
    extra = {}
    if checkpointer is not None:
        if name not in _CHECKPOINT_AWARE:
            raise ValueError(
                "experiment {!r} does not support checkpointing "
                "(only {} do)".format(name, sorted(_CHECKPOINT_AWARE))
            )
        extra["checkpointer"] = checkpointer
        if progress is not None:
            extra["progress"] = progress
    if options:
        if name not in _OPTION_AWARE:
            raise ValueError(
                "experiment {!r} takes no extra options ({} apply only to {})".format(
                    name, sorted(options), sorted(_OPTION_AWARE)
                )
            )
        return runner(scale, seed, **options, **extra)
    if extra:
        return runner(scale, seed, **extra)
    return runner(scale, seed)


def _run_named(name, scale, seed):
    """Module-level pool entry: one registry experiment, warnings off."""
    return run_experiment(name, scale=scale, seed=seed, _warn_seedless=False)


def run_all(scale=1.0, seed=1, names=None, jobs=None):
    """Run experiments and return {name: result}.

    Campaign-wide --scale/--seed legitimately cover the deterministic
    experiments too, so the per-experiment seedless warning stays quiet
    on this path.  ``jobs`` > 1 fans the experiments out over the
    persistent worker pool; results are keyed and ordered by name
    exactly as the serial path produces them.
    """
    if names is None:
        names = experiment_names()
    if jobs is not None and jobs > 1:
        from repro.experiments.supervisor import pool_map

        results = pool_map(
            _run_named, [(name, scale, seed) for name in names], jobs=jobs
        )
        return dict(zip(names, results))
    return {
        name: _run_named(name, scale, seed)
        for name in names
    }


def format_full_report(results):
    """Concatenate every result's report with separators."""
    sections = []
    for name, result in results.items():
        sections.append("=" * 72)
        sections.append("[{}]".format(name))
        sections.append(result.format_report())
        sections.append("")
    return "\n".join(sections)
