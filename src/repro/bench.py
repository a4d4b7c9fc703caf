"""Performance benchmarks (``python -m repro.bench <leg>``).

    python -m repro.bench {kernel,campaign,batch,analytic,lint,service}
        [--quick] [--repeats N] [--output PATH]

Each *leg* is one function that builds its systems, runs them and
returns its measurement sections plus a dict of named gates.  The
harness owns the rest, once for every leg:

* timing: every timed region is the best of ``--repeats`` runs, and a
  repeat that reproduces a different fingerprint is an error (the legs
  are deterministic);
* the report header: ``benchmark``, ``quick``, ``repeats`` and the
  host ``platform``, so checked-in numbers read next to their machine;
* ``gates`` and ``ok = all(gates)``: speed without equivalence is a
  bug, not a result;
* one printer, one JSON writer (default
  ``benchmarks/perf/BENCH_<leg>.json``), and exit status 1 naming
  each failed gate on stderr.

``--quick`` shortens every workload for CI smoke runs.  A speed target
is gated only in full runs; ``--quick`` records it without gating.
"""

import argparse
import ast
import functools
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from repro.arbiters.registry import make_arbiter
from repro.atm.switch import OutputQueuedSwitch
from repro.bus.topology import build_single_bus_system
from repro.core.compensation import CompensatedLotteryManager
from repro.core.lfsr import LFSR
from repro.core.lottery_manager import (
    DynamicLotteryManager,
    StaticLotteryManager,
)
from repro.experiments.table1 import ARCHITECTURES, TABLE1_WEIGHTS, table1_workload
from repro.sim.rng import RandomStream
from repro.traffic.generator import PoissonGenerator, SaturatingGenerator
from repro.traffic.message import FixedWords

NUM_MASTERS = 4


def _platform_info():
    """Host fingerprint recorded in every benchmark report header."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
        "release": platform.release(),
        "cpu_count": os.cpu_count(),
    }


def _best_of(fn, repeats, setup=None, fingerprint=lambda value: value):
    """Time ``repeats`` calls of ``fn`` and keep the fastest.

    With ``setup``, each call is ``fn(setup())`` and ``setup`` runs
    outside the timed region.  ``fingerprint(value)`` is taken outside
    it too; every repeat must reproduce the first repeat's fingerprint,
    else :class:`AssertionError`.  Returns ``(wall_seconds, value,
    fingerprint)`` of the fastest repeat.
    """
    return _best_of_each([fn], repeats, setup, fingerprint)[0][0]


def _best_of_each(fns, repeats, setup=None, fingerprint=lambda value: value):
    """:func:`_best_of` for each of ``fns``, with their repeats
    interleaved so slow drift in machine load biases all of them alike,
    and their order reversed on every other repeat so none always runs
    first.  Returns ``(best, walls)``: :func:`_best_of`'s triple per
    fn, and per fn its wall of every repeat, in repeat order."""
    best = [None] * len(fns)
    walls = [[] for _ in fns]
    order = list(range(len(fns)))
    for _ in range(repeats):
        for index in order:
            fn = fns[index]
            args = () if setup is None else (setup(),)
            start = time.perf_counter()
            value = fn(*args)
            wall = time.perf_counter() - start
            walls[index].append(wall)
            mark = fingerprint(value)
            if best[index] is not None and mark != best[index][2]:
                raise AssertionError(
                    "{} is non-deterministic across repeats".format(
                        getattr(fn, "__name__", fn)
                    )
                )
            if best[index] is None or wall < best[index][0]:
                best[index] = (wall, value, mark)
        order.reverse()
    return best, walls


def _pair_wins(walls, others):
    """Repeats in which ``walls`` was no slower than ``others``: the
    per-pair count a "not slower" gate reads, as the end-to-end
    ``compare.py`` does, so one slow stretch of machine load costs at
    most the pairs it lands on instead of deciding the gate alone."""
    return sum(1 for wall, other in zip(walls, others) if wall <= other)


def _throughput(wall, count, key):
    return {"wall_seconds": round(wall, 4), key: round(count / wall, 1)}


# -- kernel leg ------------------------------------------------------------
#
# The paper's workloads under the dense reference kernel and the
# activity-driven fast path; the metrics summary and the full kernel
# ``state_dict`` of every system are pickled and compared byte-for-byte
# between the modes.
#
# * ``table1_lowutil`` — the four Table 1 architectures under light
#   Poisson load (~1.5% offered utilisation): the idle-heavy sweep the
#   fast path exists for.
# * ``table1_saturated`` — the same architectures with saturating
#   generators: nothing to skip, so this measures the fast path's
#   overhead on busy systems.
# * ``figure8_lottery`` — the Figure 8 ticket assignment (1:2:3:4) on a
#   saturated lottery bus.
# * ``atm_switch`` — the Table 1 output-queued ATM switch.  Bernoulli
#   cell arrivals draw their RNG every cycle, so this runs dense-
#   equivalent by design and measures pure kernel overhead.
#
# On the two saturated scenarios fast mode has nothing to skip; it must
# still not lose to dense (blocked generators sleep instead of ticking),
# a speed target gated in full runs: fast must be no slower than dense
# in more than half of the interleaved repeat pairs (``fast_pair_wins``
# of ``repeats``).
_FAST_NOT_SLOWER = ("table1_saturated", "figure8_lottery")


def _fingerprint(simulator, summary):
    return pickle.dumps(
        (summary, simulator.state_dict()), protocol=pickle.HIGHEST_PROTOCOL
    )


def _lowutil_factory(index, master):
    return PoissonGenerator(
        "gen{}".format(index),
        master,
        FixedWords(4),
        0.001,
        seed=17 + index,
    )


def _saturating_factory(index, master):
    return SaturatingGenerator(
        "gen{}".format(index), master, FixedWords(8), seed=7 + index
    )


def _run_architectures(mode, cycles, generator_factory, architectures):
    """One testbed run per architecture; returns (fingerprint, skipped)."""
    blobs = []
    skipped = 0
    for label, arb_name, kwargs in architectures:
        arbiter = make_arbiter(
            arb_name, NUM_MASTERS, list(TABLE1_WEIGHTS), **kwargs
        )
        system, bus = build_single_bus_system(
            NUM_MASTERS, arbiter, generator_factory=generator_factory
        )
        system.simulator.mode = mode
        system.run(cycles)
        blobs.append(
            (label, _fingerprint(system.simulator, bus.metrics.summary()))
        )
        skipped += system.simulator.skipped_cycles
    return pickle.dumps(blobs), skipped


def _run_table1_lowutil(mode, cycles):
    return _run_architectures(mode, cycles, _lowutil_factory, ARCHITECTURES)


def _run_table1_saturated(mode, cycles):
    return _run_architectures(mode, cycles, _saturating_factory, ARCHITECTURES)


def _run_figure8(mode, cycles):
    arbiter = make_arbiter("lottery-static", NUM_MASTERS, [1, 2, 3, 4])
    system, bus = build_single_bus_system(
        NUM_MASTERS, arbiter, generator_factory=_saturating_factory
    )
    system.simulator.mode = mode
    system.run(cycles)
    sim = system.simulator
    return _fingerprint(sim, bus.metrics.summary()), sim.skipped_cycles


def _run_atm_switch(mode, cycles):
    arbiter = make_arbiter(
        "lottery-static", NUM_MASTERS, list(TABLE1_WEIGHTS)
    )
    switch = OutputQueuedSwitch(arbiter, table1_workload(), seed=1)
    switch.simulator.mode = mode
    switch.run(cycles)
    sim = switch.simulator
    return _fingerprint(sim, switch.bus.metrics.summary()), sim.skipped_cycles


# (name, runner, systems, full cycles, quick cycles, description)
SCENARIOS = (
    (
        "table1_lowutil",
        _run_table1_lowutil,
        len(ARCHITECTURES),
        150000,
        20000,
        "Table 1 architectures, ~1.5% utilisation Poisson load",
    ),
    (
        "table1_saturated",
        _run_table1_saturated,
        len(ARCHITECTURES),
        40000,
        8000,
        "Table 1 architectures, saturating generators",
    ),
    (
        "figure8_lottery",
        _run_figure8,
        1,
        120000,
        24000,
        "Figure 8 ticket ratios (1:2:3:4), saturated lottery bus",
    ),
    (
        "atm_switch",
        _run_atm_switch,
        1,
        30000,
        6000,
        "Table 1 output-queued ATM switch (dense-equivalent workload)",
    ),
)


# The lottery draws underneath the scenarios, alone: ``LFSR.sample`` at
# the static manager's register width for 1:2:3:4 tickets (12 bits) and
# the dynamic manager's (16 bits), and one lottery per call on each
# manager, cycling through every non-empty request map of 4 masters.
# The compensated manager also takes each draw's grant feedback, with
# burst sizes cycling through 1..16 words.  ``bernoulli_run`` is a
# Poisson source's pre-draw at ``table1_lowutil``'s rate: one
# ``RandomStream.failures(0.001)`` per call, about 1000 trials each, so
# it makes 1/100 as many calls and reports trials per second.  An
# entry's fingerprint (the final register, manager or stream state,
# plus the wins per master) must repeat across repeats, like a
# scenario's.
DRAW_COUNTS = (200_000, 20_000)  # (full, quick) calls per entry
DRAW_TICKETS = (1, 2, 3, 4)


def _run_lfsr_samples(width, count):
    lfsr = LFSR(width, seed=1)
    sample = lfsr.sample
    for _ in range(count):
        sample()
    return count, lfsr.state


def _run_manager_draws(make_manager, count):
    manager = make_manager(DRAW_TICKETS)
    draw = manager.draw_index
    wins = [0] * NUM_MASTERS
    compensated = isinstance(manager, CompensatedLotteryManager)
    for call in range(count):
        winner = draw(call % 15 + 1).winner
        wins[winner] += 1
        if compensated:
            manager.note_grant(winner, call % 16 + 1)
    return count, (wins, manager.state_dict())


def _run_bernoulli_runs(p, count):
    stream = RandomStream(1, "bernoulli")
    failures = stream.failures
    trials = count
    for _ in range(count):
        trials += failures(p)
    return trials, stream.state_dict()


# (name, runner, runner's first argument, rate key, calls divisor).  A
# runner returns (units its rate counts, state to fingerprint).
DRAWS = (
    ("lfsr_sample_w12", _run_lfsr_samples, 12, "samples_per_second", 1),
    ("lfsr_sample_w16", _run_lfsr_samples, 16, "samples_per_second", 1),
    ("static_manager", _run_manager_draws, StaticLotteryManager,
     "draws_per_second", 1),
    ("dynamic_manager", _run_manager_draws, DynamicLotteryManager,
     "draws_per_second", 1),
    ("compensated_manager", _run_manager_draws,
     functools.partial(CompensatedLotteryManager, max_burst=16),
     "draws_per_second", 1),
    ("bernoulli_run", _run_bernoulli_runs, 0.001, "trials_per_second", 100),
)


def _digest(value):
    return hashlib.sha256(pickle.dumps(value)).hexdigest()[:16]


def _draws_section(quick, repeats):
    count = DRAW_COUNTS[1] if quick else DRAW_COUNTS[0]
    entries = []
    for name, runner, argument, key, divisor in DRAWS:
        calls = count // divisor
        wall, (units, _), mark = _best_of(
            functools.partial(runner, argument, calls), repeats,
            fingerprint=lambda value: _digest(value[1]),
        )
        entry = {"name": name, "calls": calls}
        entry.update(_throughput(wall, units, key))
        entry["fingerprint"] = mark
        entries.append(entry)
    return entries


def kernel_leg(quick, repeats):
    """Fast vs dense mode on every scenario, then the draws alone."""
    scenarios = []
    gates = {}
    for name, runner, systems, full_cycles, quick_cycles, description in (
        SCENARIOS
    ):
        cycles = quick_cycles if quick else full_cycles
        total_cycles = cycles * systems
        (dense, fast), (dense_walls, fast_walls) = _best_of_each(
            [functools.partial(runner, mode, cycles)
             for mode in ("dense", "fast")],
            repeats,
        )
        (dense_wall, (dense_print, _), _) = dense
        (fast_wall, (fast_print, skipped), _) = fast
        fast_wins = _pair_wins(fast_walls, dense_walls)
        gates["{}_fast_equals_dense".format(name)] = dense_print == fast_print
        if name in _FAST_NOT_SLOWER and not quick:
            gates["{}_fast_not_slower".format(name)] = 2 * fast_wins > repeats
        fast_section = _throughput(
            fast_wall, total_cycles, "cycles_per_second"
        )
        fast_section["skipped_fraction"] = round(
            skipped / float(total_cycles), 4
        )
        scenarios.append({
            "name": name,
            "description": description,
            "systems": systems,
            "cycles_per_system": cycles,
            "dense": _throughput(
                dense_wall, total_cycles, "cycles_per_second"
            ),
            "fast": fast_section,
            "speedup": round(dense_wall / fast_wall, 2),
            "fast_pair_wins": fast_wins,
        })
    return {"scenarios": scenarios,
            "draws": _draws_section(quick, repeats)}, gates


# -- campaign leg ----------------------------------------------------------
#
# The same Table 1 point campaign three ways: serial in-process, fanned
# over the worker pool (``pool_map`` starts its workers inside the timed
# region), and against the content-addressed result cache, cold then
# warm.  All must produce the same rows.


def _campaign_calls(quick):
    """The benchmark campaign: Table 1 architectures x two seeds."""
    cycles = 6_000 if quick else 60_000
    calls = []
    for seed in (1, 2):
        for label, arb_name, kwargs in ARCHITECTURES:
            calls.append(
                ("{} seed{}".format(label, seed), arb_name, kwargs, cycles,
                 seed)
            )
    return calls


def _campaign_point_key(call):
    from repro.experiments.cache import cache_key

    label, arb_name, kwargs, cycles, seed = call
    return cache_key(
        "table1-point",
        {"label": label, "arbiter": arb_name, "kwargs": kwargs,
         "cycles": cycles},
        seed,
    )


def _run_campaign_cached(calls, cache):
    from repro.experiments.table1 import run_table1_point

    rows = []
    for call in calls:
        key = _campaign_point_key(call)
        record = cache.get(key)
        if record is None:
            row = run_table1_point(*call)
            cache.put(key, {"row": row})
        else:
            row = record["row"]
        rows.append(row)
    return rows


def _canonical_rows(rows):
    """Rows normalized through JSON so cached (list) and fresh (tuple)
    results compare by value, not container type."""
    return json.loads(json.dumps(rows))


def campaign_leg(quick, repeats):
    """Serial vs pooled vs cold/warm-cache campaign."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.supervisor import default_jobs, pool_map
    from repro.experiments.table1 import run_table1_point

    calls = _campaign_calls(quick)
    jobs = default_jobs()

    serial_wall, _, serial = _best_of(
        lambda: [run_table1_point(*call) for call in calls], repeats,
        fingerprint=_canonical_rows,
    )
    pooled_wall, _, pooled = _best_of(
        lambda: pool_map(run_table1_point, calls, jobs=jobs), repeats,
        fingerprint=_canonical_rows,
    )

    work_dir = tempfile.mkdtemp(prefix="bench-campaign-cache-")
    cache_dir = os.path.join(work_dir, "cache")

    def empty_cache():
        shutil.rmtree(cache_dir, ignore_errors=True)
        return ResultCache(cache_dir)

    def cached_run(cache):
        return _run_campaign_cached(calls, cache), cache.stats.as_dict()

    def rows_print(value):
        return _canonical_rows(value[0])

    try:
        cold_wall, (_, cold_stats), cold = _best_of(
            cached_run, repeats, setup=empty_cache, fingerprint=rows_print
        )
        warm_wall, (_, warm_stats), warm = _best_of(
            cached_run, repeats, setup=lambda: ResultCache(cache_dir),
            fingerprint=rows_print,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    return {
        "tasks": len(calls),
        "cycles_per_task": calls[0][3],
        "jobs": jobs,
        "serial": {"wall_seconds": round(serial_wall, 4)},
        "pooled": {
            "wall_seconds": round(pooled_wall, 4),
            "speedup_vs_serial": round(serial_wall / pooled_wall, 2),
        },
        "cache_cold": {
            "wall_seconds": round(cold_wall, 4),
            "stats": cold_stats,
        },
        "cache_warm": {
            "wall_seconds": round(warm_wall, 4),
            "fraction_of_cold": round(warm_wall / cold_wall, 4),
            "stats": warm_stats,
        },
    }, {
        "pooled_equals_serial": pooled == serial,
        "cached_equals_serial": cold == serial == warm,
    }


# -- batch leg -------------------------------------------------------------
#
# The saturated Table 1 sweep two ways: one dense scalar run per lane
# (the reference) and one struct-of-arrays VectorEngine hosting every
# lane at once (repro.vector).  Every lane's metrics summary and
# arbiter state are fingerprinted on both sides and compared
# byte-for-byte.


# The engine-hosted architectures of the saturated sweep: the full
# lottery family plus static priority (TDMA stays on the scalar path —
# its wheel state has no vector profile).
BATCH_ARCHITECTURES = (
    ("static priority", "static-priority", {}),
    ("LOTTERYBUS", "lottery-static", {}),
    ("lottery dynamic", "lottery-dynamic", {}),
    ("lottery compensated", "lottery-compensated", {}),
)


def _batch_lane_specs(quick):
    """The batch workload: lottery-family architectures x seeds.

    Saturated fixed-size bursts (the ``table1_saturated`` scenario,
    Table 1 weights) with a per-lane ``lfsr_seed`` so every lottery
    lane replays a different draw stream.
    """
    seeds_per_arch = 24 if quick else 96
    cycles = 2_500 if quick else 12_000
    specs = []
    for label, arb_name, kwargs in BATCH_ARCHITECTURES:
        for seed in range(1, seeds_per_arch + 1):
            lane_kwargs = dict(kwargs)
            if arb_name.startswith("lottery"):
                lane_kwargs["lfsr_seed"] = seed
            specs.append(
                ("{} seed{}".format(label, seed), arb_name, lane_kwargs)
            )
    return specs, cycles


def _batch_lane_builder(arb_name, kwargs):
    def build():
        arbiter = make_arbiter(
            arb_name, NUM_MASTERS, list(TABLE1_WEIGHTS), **kwargs
        )
        return build_single_bus_system(
            NUM_MASTERS, arbiter, generator_factory=_saturating_factory
        )

    return build


def batch_leg(quick, repeats):
    """Dense scalar runs vs one vectorized batch run."""
    from repro.core.lookup_table import (
        lookup_table_cache_stats,
        reset_lookup_table_cache,
    )
    from repro.vector import scalar_fingerprint
    from repro.vector.engine import VectorEngine
    from repro.vector.lanes import plan_lane

    specs, cycles = _batch_lane_specs(quick)
    builders = [
        (label, _batch_lane_builder(arb_name, kwargs))
        for label, arb_name, kwargs in specs
    ]

    def scalar_run():
        prints = []
        for _, builder in builders:
            system, bus = builder()
            system.simulator.mode = "dense"
            system.run(cycles)
            prints.append(scalar_fingerprint(bus))
        return prints

    def vector_run(engine):
        engine.run(cycles)
        return engine

    def lane_prints(engine):
        return [engine.lane_fingerprint(lane) for lane in range(len(builders))]

    scalar_wall, scalar_prints, _ = _best_of(scalar_run, repeats)
    # Lane planning (and its lookup-table builds) is setup, not run.
    reset_lookup_table_cache()
    vector_wall, _, vector_prints = _best_of(
        vector_run, repeats,
        setup=lambda: VectorEngine(
            [plan_lane(builder, label=label) for label, builder in builders]
        ),
        fingerprint=lane_prints,
    )

    mismatches = [
        label
        for (label, _), scalar, vector in zip(
            builders, scalar_prints, vector_prints
        )
        if scalar != vector
    ]
    total_cycles = len(builders) * cycles
    vector = _throughput(vector_wall, total_cycles, "cycles_per_second")
    vector["lookup_table_cache"] = lookup_table_cache_stats()
    return {
        "lanes": len(builders),
        "cycles_per_lane": cycles,
        "scalar_dense": _throughput(
            scalar_wall, total_cycles, "cycles_per_second"
        ),
        "vector": vector,
        "speedup": round(scalar_wall / vector_wall, 2),
        "mismatched_lanes": mismatches[:10],
    }, {"vector_equals_scalar": not mismatches}


# -- analytic leg ----------------------------------------------------------
#
# Accuracy: the surrogate is cross-validated against one simulated
# sweep at the pinned calibration settings, and every combination must
# land inside its checked-in error bound (repro.analytic.bounds).
# Speed: the surrogate scores a large replicated grid while the vector
# engine runs the standard-sweep grid at the standard 50k-cycle budget;
# the per-configuration speedup must clear 1000x.


# The simulator side of the speed measurement: the standard sweep's
# engine-hosted arbiters (see repro.experiments.runner).
_ANALYTIC_SIM_ARBITERS = (
    "static-priority",
    "lottery-static",
    "lottery-dynamic",
    "lottery-compensated",
)
_ANALYTIC_SIM_CYCLES = 50_000
_ANALYTIC_SPEEDUP_TARGET = 1000.0


def analytic_leg(quick, repeats):
    """Surrogate accuracy + throughput vs the vector engine."""
    from repro.analytic import (
        CALIBRATION,
        score_grid,
        supported_arbiters,
        validate_surrogate,
    )
    from repro.experiments.supervisor import default_jobs
    from repro.experiments.system import Point
    from repro.vector import run_testbed_batch

    # --quick trims the arbiter families, not the settings: the bounds
    # are only meaningful at the cycles they were calibrated for.
    families = list(supported_arbiters())
    if quick:
        families = ["lottery-static", "static-priority", "tdma"]
    validation = validate_surrogate(
        arbiters=families, backend="vector", jobs=default_jobs()
    )

    # The full supported grid, replicated so the batch path dominates
    # fixed overheads.
    weights = tuple(CALIBRATION["weights"])
    traffic = list(CALIBRATION["traffic_classes"])
    base_grid = [
        Point(arbiter_name, traffic_name, weights)
        for arbiter_name in supported_arbiters()
        for traffic_name in traffic
    ]
    grid = base_grid * (8 if quick else 40)
    surrogate_wall, predictions, _ = _best_of(
        lambda: score_grid(grid, horizon=_ANALYTIC_SIM_CYCLES), repeats,
        fingerprint=pickle.dumps,
    )
    surrogate_per_config = surrogate_wall / len(grid)

    # What a screened sweep avoids paying per screened-out
    # configuration: the standard sweep grid on the vector engine.
    sim_calls = [
        Point(arbiter_name, traffic_name, weights,
              cycles=_ANALYTIC_SIM_CYCLES, seed=CALIBRATION["seed"])
        for arbiter_name in _ANALYTIC_SIM_ARBITERS
        for traffic_name in traffic
    ]
    if quick:
        sim_calls = sim_calls[:: len(traffic) // 3]
    sim_wall, _, _ = _best_of(
        lambda: run_testbed_batch(sim_calls), repeats,
        fingerprint=pickle.dumps,
    )
    sim_per_config = sim_wall / len(sim_calls)

    speedup = sim_per_config / surrogate_per_config
    max_errors = validation.max_errors()
    gates = {"within_error_bounds": validation.ok}
    if not quick:
        gates["speedup_meets_target"] = speedup >= _ANALYTIC_SPEEDUP_TARGET
    return {
        "validation": {
            "cycles": validation.cycles,
            "seed": validation.seed,
            "arbiters": families,
            "combinations": len(validation.rows),
            "max_share_error": round(max_errors["share"], 4),
            "max_utilization_error": round(max_errors["utilization"], 4),
            "max_latency_error": round(max_errors["latency"], 4),
            "violations": [
                "{}/{}".format(row["arbiter"], row["traffic"])
                for row in validation.violations
            ][:10],
        },
        "surrogate": {
            "configs": len(grid),
            "wall_seconds": round(surrogate_wall, 4),
            "per_config_microseconds": round(
                surrogate_per_config * 1e6, 2
            ),
            "configs_per_second": round(len(grid) / surrogate_wall, 1),
            "sample_utilization": round(predictions[0].utilization, 4),
        },
        "simulator": {
            "backend": "vector",
            "configs": len(sim_calls),
            "cycles_per_config": _ANALYTIC_SIM_CYCLES,
            "wall_seconds": round(sim_wall, 4),
            "per_config_milliseconds": round(sim_per_config * 1e3, 2),
            "configs_per_second": round(len(sim_calls) / sim_wall, 2),
        },
        "speedup": round(speedup, 1),
        "speedup_target": _ANALYTIC_SPEEDUP_TARGET,
    }, gates


# -- lint leg --------------------------------------------------------------
#
# The incremental linter (repro.lint) on the repo's own tree: a cold
# run against an empty cache and a fully warm run (every per-file result
# and the whole-program pass replayed from the cache).  Both must
# produce byte-identical findings, and the warm run must clear the 5x
# speedup target.  The leg also reports the size of src/repro, per
# package, so net lines of code are tracked like any other figure, and
# what importing each entry point loads in a fresh interpreter: the
# import is most of a short simulation's set-up time.

_LINT_TARGETS = ("src", "tests")
_LINT_WARM_SPEEDUP_TARGET = 5.0
_SIZE_ROOT = os.path.join("src", "repro")

#: Entry points whose fresh-interpreter import the lint leg records,
#: by name; ``simulation`` is the scalar simulator and ``Point``.
IMPORT_ENTRY_POINTS = {
    "simulation": "repro.experiments.system",
    "cli": "repro.cli",
    "service": "repro.service",
    "analytic": "repro.analytic",
}

#: What a simulation never runs.  ``import repro.experiments.system``
#: (the scalar simulator and ``Point``) loads none of these modules and
#: none of their submodules: gate ``simulation_imports_lean``.
SIMULATION_PATH_EXCLUDES = (
    "multiprocessing", "socket", "subprocess", "hashlib", "numpy",
    "repro.experiments.supervisor", "repro.experiments.runner",
    "repro.experiments.cache", "repro.service", "repro.analytic",
    "repro.vector", "repro.atm", "repro.faults", "repro.analysis",
)

# Run as ``python -c _IMPORT_PROBE module...``: imports each module as
# ``from <module> import *`` (so a package counts every name it
# exports, lazy or not) and prints the wall time and {module: file} for
# every module that loaded.
_IMPORT_PROBE = """
import sys, time
before = set(sys.modules)
start = time.perf_counter()
for name in sys.argv[1:]:
    __import__(name, fromlist=["*"])
seconds = time.perf_counter() - start
print(repr((seconds, {
    name: getattr(sys.modules[name], "__file__", None)
    for name in sorted(set(sys.modules) - before)
})))
"""


def import_graph(*modules):
    """Import ``modules`` in a fresh interpreter, each as ``from
    <module> import *``; returns ``(seconds, {module: file or None})``
    for every module the imports loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE] + list(modules),
        env=env, capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(result.stdout)


def off_simulation_path(loaded):
    """The modules among ``loaded`` that ``SIMULATION_PATH_EXCLUDES``
    rules out of the simulation path."""
    return sorted(
        name for name in loaded
        if any(name == excluded or name.startswith(excluded + ".")
               for excluded in SIMULATION_PATH_EXCLUDES)
    )


def _line_count(path):
    with open(path, "rb") as handle:
        return handle.read().count(b"\n")


def _import_size(runs):
    """Per entry point: the ``repro`` modules and source lines its
    import loads, the other modules, and the median import seconds over
    ``runs`` fresh interpreters (entry points interleaved)."""
    walls = {name: [] for name in IMPORT_ENTRY_POINTS}
    graphs = {}
    for _ in range(runs):
        for name, module in IMPORT_ENTRY_POINTS.items():
            wall, graphs[name] = import_graph(module)
            walls[name].append(wall)
    entries = {}
    for entry, loaded in graphs.items():
        ours = [name for name in loaded if name.split(".")[0] == "repro"]
        entries[entry] = {
            "module": IMPORT_ENTRY_POINTS[entry],
            "repro_modules": len(ours),
            "repro_lines": sum(_line_count(loaded[name]) for name in ours
                               if loaded[name]),
            "other_modules": len(loaded) - len(ours),
            "import_s": round(statistics.median(walls[entry]), 4),
        }
    entries["simulation"]["off_path"] = off_simulation_path(
        graphs["simulation"])
    return {
        "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "entry_points": entries,
    }


def _source_size(files):
    """Lines and modules per ``repro`` package among ``files``, plus
    the total; a module directly in ``repro`` counts as ``repro``."""
    packages = {}
    for path in files:
        parts = os.path.relpath(path, _SIZE_ROOT).split(os.sep)
        package = "repro" if len(parts) == 1 else "repro." + parts[0]
        lines = _line_count(path)
        entry = packages.setdefault(package, {"modules": 0, "lines": 0})
        entry["modules"] += 1
        entry["lines"] += lines
    return {
        "packages": dict(sorted(packages.items())),
        "total": {
            "modules": sum(e["modules"] for e in packages.values()),
            "lines": sum(e["lines"] for e in packages.values()),
        },
    }


def lint_leg(quick, repeats):
    """Cold vs warm lint of the repo tree, in process.

    The cache lives in a throwaway directory so the benchmark never
    touches (or benefits from) the checkout's own ``.lint-cache.json``.
    Cache load and save are inside the timed region on both the cold
    and warm runs: persistence is part of what each run costs.
    """
    from repro.analysis.cache import LintCache
    from repro.analysis.core import (
        get_rules,
        iter_python_files,
        lint_paths,
    )

    rules = get_rules()
    rule_ids = [rule.id for rule in rules]
    paths = list(_LINT_TARGETS)
    file_count = sum(1 for _ in iter_python_files(paths))

    def findings_print(findings):
        return json.dumps(
            [finding.as_dict() for finding in findings], sort_keys=True
        )

    work_dir = tempfile.mkdtemp(prefix="bench-lint-")
    cache_path = os.path.join(work_dir, ".lint-cache.json")

    def forget_cache():
        if os.path.exists(cache_path):
            os.remove(cache_path)

    def cached_lint():
        cache = LintCache.load(cache_path, rule_ids)
        findings = lint_paths(paths, rules=rules, cache=cache)
        cache.save()
        return findings, cache

    try:
        cold_wall, (findings, _), cold = _best_of(
            lambda _: cached_lint(), repeats, setup=forget_cache,
            fingerprint=lambda value: findings_print(value[0]),
        )
        warm_wall, (_, warm_cache), warm = _best_of(
            cached_lint, repeats,
            fingerprint=lambda value: findings_print(value[0]),
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    warm_speedup = cold_wall / warm_wall
    size = _source_size(iter_python_files([_SIZE_ROOT]))
    size["imports"] = _import_size(repeats)
    simulation = size["imports"]["entry_points"]["simulation"]
    gates = {
        "warm_equals_cold": warm == cold,
        "simulation_imports_lean": not simulation["off_path"],
    }
    if not quick:
        gates["warm_speedup_meets_target"] = (
            warm_speedup >= _LINT_WARM_SPEEDUP_TARGET
        )
    return {
        "targets": paths,
        "files": file_count,
        "rules": rule_ids,
        "findings": len(findings),
        "cold": _throughput(cold_wall, file_count, "files_per_second"),
        "warm": dict(
            _throughput(warm_wall, file_count, "files_per_second"),
            cache_hits=warm_cache.hits,
            cache_misses=warm_cache.misses,
        ),
        "warm_speedup": round(warm_speedup, 1),
        "warm_speedup_target": _LINT_WARM_SPEEDUP_TARGET,
        "size": size,
    }, gates


# -- service leg -----------------------------------------------------------
#
# A live in-process DSE server (stdlib front-end, real sockets) under
# concurrent clients: cold submissions that execute on the worker pool,
# duplicate submissions that must *join* the finished jobs, and warm
# result fetches.  The served reports must be bit-identical to
# in-process references and the duplicates must cause zero extra
# executions.

SERVICE_CLIENTS = 4


def _percentile_ms(samples, q):
    """The q-quantile of ``samples`` (seconds) in milliseconds."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return round(ordered[index] * 1000.0, 3)


def _hammer(address, seeds, per_client, request):
    """``SERVICE_CLIENTS`` threads, each with its own client, send
    ``per_client`` calls of ``request(client, seed)`` round-robin over
    ``seeds``; returns every ``(status, body, seconds)``, client by
    client, in order."""
    from repro.service.client import ServiceClient

    outcomes = [[] for _ in range(SERVICE_CLIENTS)]

    def loop(index):
        client = ServiceClient(address, client_id="bench-{}".format(index))
        for i in range(per_client):
            seed = seeds[(index + i) % len(seeds)]
            begin = time.perf_counter()
            status, body = request(client, seed)
            outcomes[index].append(
                (status, body, time.perf_counter() - begin)
            )

    threads = [
        threading.Thread(target=loop, args=(index,), daemon=True)
        for index in range(SERVICE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for client in outcomes for outcome in client]


def _answers(outcomes):
    """What a hammer run was told, without its timings."""
    return [
        (status, body.get("job"), body.get("state"))
        for status, body, _ in outcomes
    ]


def _hammer_section(wall, outcomes, requests):
    latencies = [seconds for _, _, seconds in outcomes]
    section = _throughput(wall, requests, "per_second")
    section["total"] = requests
    section["p50_ms"] = _percentile_ms(latencies, 0.50)
    section["p95_ms"] = _percentile_ms(latencies, 0.95)
    return section


def service_leg(quick, repeats):
    """Concurrent-client service benchmark."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.supervisor import default_jobs
    from repro.service.client import ServiceClient
    from repro.service.core import ServiceCore
    from repro.service.http import ServiceServer

    scale = 0.05
    seeds = tuple(range(1, 3 if quick else 5))
    per_client = 25 if quick else 100
    requests = SERVICE_CLIENTS * per_client
    workers = default_jobs()

    root = tempfile.mkdtemp(prefix="bench-service-")
    core = ServiceCore(
        os.path.join(root, "state"),
        cache_dir=os.path.join(root, "cache"),
        workers=workers, timeout=300,
    )
    server = ServiceServer(core, port=0)
    server.start()
    try:
        client = ServiceClient(server.address, client_id="bench-root")

        def cold_jobs():
            job_ids = {}
            for seed in seeds:
                status, body = client.submit(
                    "figure5", scale=scale, seed=seed
                )
                if status != 202:
                    raise AssertionError(
                        "cold submit bounced: {} {}".format(status, body)
                    )
                job_ids[seed] = body["job"]
            return job_ids, client.wait_all(
                list(job_ids.values()), timeout=600
            )

        # Once: a second cold pass would only join the first one's jobs.
        cold_wall, (job_ids, results), _ = _best_of(cold_jobs, 1)
        cold_identical = all(
            results[job_ids[seed]][0] == 200
            and results[job_ids[seed]][1]["report"]
            == run_experiment(
                "figure5", scale=scale, seed=seed, _warn_seedless=False
            ).format_report()
            for seed in seeds
        )

        # Duplicates must join their finished jobs (200, deduplicated),
        # never rerun them; warm fetches read the memoized reports.
        submit_wall, submits, _ = _best_of(
            lambda: _hammer(
                server.address, seeds, per_client,
                lambda mine, seed: mine.submit(
                    "figure5", scale=scale, seed=seed
                ),
            ),
            repeats, fingerprint=_answers,
        )
        fetch_wall, fetches, _ = _best_of(
            lambda: _hammer(
                server.address, seeds, per_client,
                lambda mine, seed: mine.job_result(job_ids[seed]),
            ),
            repeats, fingerprint=_answers,
        )
        errors = [
            "duplicate submit: {} {}".format(status, body)
            for status, body, _ in submits
            if status != 200 or not body.get("deduplicated")
        ] + [
            "warm fetch: {} {}".format(status, body)
            for status, body, _ in fetches
            if status != 200
        ]
        if len(submits) + len(fetches) != 2 * requests:
            errors.append("{} requests unanswered".format(
                2 * requests - len(submits) - len(fetches)
            ))

        status, stats = client.stats()
        executed = stats.get("executed", -1) if status == 200 else -1
        return {
            "workers": workers,
            "clients": SERVICE_CLIENTS,
            "requests_per_client": per_client,
            "cold": {
                "jobs": len(seeds),
                "wall_seconds": round(cold_wall, 4),
            },
            "submissions": _hammer_section(submit_wall, submits, requests),
            "warm_results": _hammer_section(fetch_wall, fetches, requests),
            "executed": executed,
            "duplicate_executions": max(0, executed - len(seeds)),
            "errors": errors[:5],
        }, {
            "cold_reports_identical": cold_identical,
            "no_request_errors": not errors,
            "no_duplicate_executions": executed == len(seeds),
        }
    finally:
        server.drain(timeout=30.0)
        shutil.rmtree(root, ignore_errors=True)


# -- harness ---------------------------------------------------------------

LEGS = {
    "kernel": kernel_leg,
    "campaign": campaign_leg,
    "batch": batch_leg,
    "analytic": analytic_leg,
    "lint": lint_leg,
    "service": service_leg,
}


def run_leg(name, quick=False, repeats=3):
    """Run one leg; returns its report (header, sections, gates, ok)."""
    sections, gates = LEGS[name](quick, repeats)
    report = {
        "benchmark": "repro.bench {}".format(name),
        "quick": quick,
        "repeats": repeats,
        "platform": _platform_info(),
    }
    report.update(sections)
    report["gates"] = gates
    report["ok"] = all(gates.values())
    return report


def _fields(section, prefix=""):
    """``key=value`` strings of a section; nested dicts flatten to
    ``outer.inner=value``."""
    fields = []
    for key, value in section.items():
        if isinstance(value, dict):
            fields.extend(_fields(value, "{}{}.".format(prefix, key)))
        else:
            fields.append("{}{}={}".format(prefix, key, value))
    return fields


def _print_report(report):
    """Each section's scalars on one line, one line per list entry."""
    print("{} ({}, best of {})".format(
        report["benchmark"], "quick" if report["quick"] else "full",
        report["repeats"],
    ))
    scalars = {}
    lines = []
    for key, value in report.items():
        if key in ("benchmark", "quick", "repeats", "platform", "gates",
                   "ok"):
            continue
        if isinstance(value, dict):
            lines.append("  {}: {}".format(key, " ".join(_fields(value))))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append("  {}:".format(key))
            lines.extend("    " + " ".join(_fields(entry)) for entry in value)
        else:
            scalars[key] = value
    if scalars:
        print("  " + " ".join(_fields(scalars)))
    for line in lines:
        print(line)
    print("  gates: " + " ".join(
        "{}={}".format(name, "ok" if passed else "FAIL")
        for name, passed in report["gates"].items()
    ))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one benchmark leg, write its JSON report and "
        "exit 1 if any of its gates fails.",
    )
    parser.add_argument("leg", choices=list(LEGS), help="the leg to run")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened workloads for CI smoke runs; speed targets are "
        "reported, not gated",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repeats per measurement; the fastest is kept "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        help="where to write the JSON report "
        "(default: benchmarks/perf/BENCH_<leg>.json)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run_leg(args.leg, quick=args.quick, repeats=args.repeats)
    _print_report(report)

    output = args.output or os.path.join(
        "benchmarks", "perf", "BENCH_{}.json".format(args.leg)
    )
    out_dir = os.path.dirname(output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("\nwrote {}".format(output))

    failed = [name for name, passed in report["gates"].items() if not passed]
    if failed:
        print("FAIL: gates failed: {}".format(", ".join(failed)),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
