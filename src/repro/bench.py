"""Kernel performance benchmarks (``python -m repro.bench``).

Times the paper's workloads under the dense reference kernel and the
activity-driven fast path, verifies that both produce bit-identical
results, and writes the measurements to ``benchmarks/perf/BENCH_kernel.json``.

Scenarios:

* ``table1_lowutil`` — the four Table 1 architectures under light
  Poisson load (~1.5% offered utilisation).  The idle-heavy sweep the
  fast path exists for; target is a >= 5x cycles/sec speedup.
* ``table1_saturated`` — the same architectures with saturating
  generators.  There is nothing to skip, so this guards the fast
  path's overhead on busy systems (target: within 2% of dense).
* ``figure8_lottery`` — the Figure 8 ticket assignment (1:2:3:4) on a
  saturated lottery bus.
* ``atm_switch`` — the Table 1 output-queued ATM switch.  Bernoulli
  cell arrivals draw their RNG every cycle, so this runs dense-
  equivalent by design and measures pure kernel overhead.

Every scenario is run once per mode and fingerprinted: the metrics
summary and the full kernel ``state_dict`` are pickled and compared
byte-for-byte.  Any divergence fails the benchmark (exit status 1) —
speed without equivalence is a bug, not a result.
"""

import argparse
import json
import os
import pickle
import platform
import shutil
import sys
import tempfile
import threading
import time

from repro.arbiters.registry import make_arbiter
from repro.atm.switch import OutputQueuedSwitch
from repro.bus.topology import build_single_bus_system
from repro.experiments.table1 import ARCHITECTURES, TABLE1_WEIGHTS, table1_workload
from repro.traffic.generator import PoissonGenerator, SaturatingGenerator
from repro.traffic.message import FixedWords

NUM_MASTERS = 4
DEFAULT_OUTPUT = os.path.join("benchmarks", "perf", "BENCH_kernel.json")
DEFAULT_CAMPAIGN_OUTPUT = os.path.join(
    "benchmarks", "perf", "BENCH_campaign.json"
)
DEFAULT_SERVICE_OUTPUT = os.path.join(
    "benchmarks", "perf", "BENCH_service.json"
)
DEFAULT_BATCH_OUTPUT = os.path.join(
    "benchmarks", "perf", "BENCH_batch.json"
)
DEFAULT_ANALYTIC_OUTPUT = os.path.join(
    "benchmarks", "perf", "BENCH_analytic.json"
)
DEFAULT_LINT_OUTPUT = os.path.join(
    "benchmarks", "perf", "BENCH_lint.json"
)


def _platform_info():
    """Host fingerprint recorded in every benchmark report header, so
    checked-in numbers can be read next to the machine they came from."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
        "release": platform.release(),
        "cpu_count": os.cpu_count(),
    }


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
    """One testbed run per architecture; returns (fingerprints, counters)."""
    blobs = []
    ticked = skipped = 0
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
        ticked += system.simulator.ticked_cycles
        skipped += system.simulator.skipped_cycles
    return pickle.dumps(blobs), ticked, skipped


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
    blob = _fingerprint(sim, bus.metrics.summary())
    return blob, sim.ticked_cycles, sim.skipped_cycles


def _run_atm_switch(mode, cycles):
    arbiter = make_arbiter(
        "lottery-static", NUM_MASTERS, list(TABLE1_WEIGHTS)
    )
    switch = OutputQueuedSwitch(arbiter, table1_workload(), seed=1)
    switch.simulator.mode = mode
    switch.run(cycles)
    sim = switch.simulator
    blob = _fingerprint(sim, switch.bus.metrics.summary())
    return blob, sim.ticked_cycles, sim.skipped_cycles


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


def _time_once(runner, mode, cycles, best):
    """One timed run folded into ``best``; runs are deterministic, so
    every repeat must reproduce the same fingerprint."""
    start = time.perf_counter()
    blob, ticked, skipped = runner(mode, cycles)
    elapsed = time.perf_counter() - start
    if best["blob"] is not None and blob != best["blob"]:
        raise AssertionError(
            "{} mode is non-deterministic across repeats".format(mode)
        )
    best["blob"] = blob
    best["ticked"] = ticked
    best["skipped"] = skipped
    if best["wall"] is None or elapsed < best["wall"]:
        best["wall"] = elapsed
    return best


def run_benchmarks(quick=False, repeats=3):
    """Run every scenario in both modes; returns the results document."""
    scenarios = []
    all_match = True
    for name, runner, systems, full_cycles, quick_cycles, description in (
        SCENARIOS
    ):
        cycles = quick_cycles if quick else full_cycles
        total_cycles = cycles * systems
        # Repeats are interleaved dense/fast so slow drift in machine
        # load biases both modes equally instead of whichever ran last.
        dense = {"blob": None, "ticked": None, "skipped": None, "wall": None}
        fast = {"blob": None, "ticked": None, "skipped": None, "wall": None}
        for _ in range(repeats):
            _time_once(runner, "dense", cycles, dense)
            _time_once(runner, "fast", cycles, fast)
        match = dense["blob"] == fast["blob"]
        all_match = all_match and match
        entry = {
            "name": name,
            "description": description,
            "systems": systems,
            "cycles_per_system": cycles,
            "dense": {
                "wall_seconds": round(dense["wall"], 4),
                "cycles_per_second": round(total_cycles / dense["wall"], 1),
            },
            "fast": {
                "wall_seconds": round(fast["wall"], 4),
                "cycles_per_second": round(total_cycles / fast["wall"], 1),
                "skipped_fraction": round(
                    fast["skipped"] / float(total_cycles), 4
                ),
            },
            "speedup": round(dense["wall"] / fast["wall"], 2),
            "identical": match,
        }
        scenarios.append(entry)
    return {
        "benchmark": "repro.bench",
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": _platform_info(),
        "scenarios": scenarios,
        "all_identical": all_match,
    }


# -- campaign benchmark ----------------------------------------------------
#
# Times the same Table 1 point campaign three ways: serial in-process,
# fanned over the persistent worker pool, and replayed against a warm
# content-addressed result cache.  All three must produce identical
# campaign results; the JSON report records the walls, speedups and
# cache accounting.


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


def _bench_point_runner(spec, resume):
    """Pool-worker runner for the chaos leg: one Table 1 point per task.

    The call parameters ride in ``spec.options`` so workers (which
    unpickle the spec, not a closure) can reconstruct the exact same
    point the serial leg computed.
    """
    from repro.experiments.table1 import run_table1_point

    options = spec.options
    row = run_table1_point(
        options["label"], options["arbiter"], options["kwargs"],
        options["cycles"], spec.seed,
    )
    return json.dumps(row)


def _run_campaign_chaos(calls, jobs, chaos_rate):
    """The campaign under seeded worker kills; returns (rows, stats).

    Every task must still finish with a row identical to the serial
    leg's — resilience without equivalence is a bug, not a result.
    """
    from repro.chaos import ChaosInjector, ChaosPlan
    from repro.experiments.supervisor import Supervisor, TaskSpec

    specs = []
    for label, arb_name, kwargs, cycles, seed in calls:
        specs.append(
            TaskSpec(
                "{} seed{}".format(label, seed),
                seed=seed,
                options={"label": label, "arbiter": arb_name,
                         "kwargs": kwargs, "cycles": cycles},
            )
        )
    injector = ChaosInjector(ChaosPlan(kill_rate=chaos_rate), seed=1)
    supervisor = Supervisor(
        jobs=jobs, retries=30, backoff=0.05, quarantine_after=None,
        circuit_breaker=None, task_runner=_bench_point_runner,
        chaos=injector,
    )
    outcomes = supervisor.run(specs)
    rows = [json.loads(outcomes[spec.name].report) for spec in specs]
    return rows, injector, supervisor


def run_campaign_benchmark(quick=False, jobs=4, cache_dir=None,
                           chaos_rate=0.0):
    """Serial vs pooled vs warm-cache campaign; returns the results doc."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.supervisor import default_jobs, pool_map
    from repro.experiments.table1 import run_table1_point

    calls = _campaign_calls(quick)

    start = time.perf_counter()
    serial_rows = [run_table1_point(*call) for call in calls]
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    pooled_rows = pool_map(run_table1_point, calls, jobs=jobs)
    pooled_wall = time.perf_counter() - start
    pooled_identical = serial_rows == pooled_rows

    own_cache_dir = cache_dir is None
    if own_cache_dir:
        cache_dir = tempfile.mkdtemp(prefix="bench-campaign-cache-")
    try:
        cold_cache = ResultCache(cache_dir)
        start = time.perf_counter()
        cold_rows = _run_campaign_cached(calls, cold_cache)
        cold_wall = time.perf_counter() - start

        warm_cache = ResultCache(cache_dir)
        start = time.perf_counter()
        warm_rows = _run_campaign_cached(calls, warm_cache)
        warm_wall = time.perf_counter() - start
    finally:
        if own_cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)

    warm_identical = (
        _canonical_rows(serial_rows)
        == _canonical_rows(cold_rows)
        == _canonical_rows(warm_rows)
    )

    chaos_entry = None
    chaos_identical = True
    if chaos_rate:
        start = time.perf_counter()
        chaos_rows, injector, supervisor = _run_campaign_chaos(
            calls, jobs, chaos_rate
        )
        chaos_wall = time.perf_counter() - start
        chaos_identical = (
            _canonical_rows(serial_rows) == _canonical_rows(chaos_rows)
        )
        chaos_entry = {
            "rate": chaos_rate,
            "wall_seconds": round(chaos_wall, 4),
            "slowdown_vs_pooled": round(chaos_wall / pooled_wall, 2),
            "workers_killed": injector.events["kill"],
            "workers_spawned": supervisor.workers_spawned,
            "identical": chaos_identical,
        }

    all_identical = pooled_identical and warm_identical and chaos_identical
    return {
        "benchmark": "repro.bench --campaign",
        "quick": quick,
        "python": platform.python_version(),
        "platform": _platform_info(),
        "cpus": default_jobs(),
        "tasks": len(calls),
        "cycles_per_task": calls[0][3],
        "jobs": jobs,
        "serial": {"wall_seconds": round(serial_wall, 4)},
        "pooled": {
            "wall_seconds": round(pooled_wall, 4),
            "speedup_vs_serial": round(serial_wall / pooled_wall, 2),
            "identical": pooled_identical,
        },
        "cache_cold": {
            "wall_seconds": round(cold_wall, 4),
            "stats": cold_cache.stats.as_dict(),
        },
        "cache_warm": {
            "wall_seconds": round(warm_wall, 4),
            "fraction_of_cold": round(warm_wall / cold_wall, 4),
            "stats": warm_cache.stats.as_dict(),
            "identical": warm_identical,
        },
        "chaos": chaos_entry,
        "all_identical": all_identical,
    }


# -- batch (vectorized) benchmark ------------------------------------------
#
# Times the saturated Table 1 sweep two ways: one dense scalar run per
# lane (the reference) and one struct-of-arrays VectorEngine hosting
# every lane at once (repro.vector).  Every lane's metrics summary and
# arbiter state are fingerprinted on both sides and compared
# byte-for-byte; any divergence fails the benchmark (exit status 1).


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


def run_batch_benchmark(quick=False, repeats=3, block_size=32):
    """Scalar-dense vs vectorized batch run; returns the results doc."""
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

    # Scalar reference leg: one dense run per lane.
    scalar_prints = []
    start = time.perf_counter()
    for _, builder in builders:
        system, bus = builder()
        system.simulator.mode = "dense"
        system.run(cycles)
        scalar_prints.append(scalar_fingerprint(bus))
    scalar_wall = time.perf_counter() - start

    # Vector leg: every lane in one engine; best wall over repeats, and
    # repeats must reproduce the same fingerprints (determinism guard).
    reset_lookup_table_cache()
    vector_wall = None
    vector_prints = None
    for _ in range(max(1, repeats)):
        plans = [
            plan_lane(builder, label=label) for label, builder in builders
        ]
        engine = VectorEngine(plans, block_size=block_size)
        start = time.perf_counter()
        engine.run(cycles)
        elapsed = time.perf_counter() - start
        prints = [
            engine.lane_fingerprint(lane) for lane in range(len(plans))
        ]
        if vector_prints is not None and prints != vector_prints:
            raise AssertionError(
                "vector engine is non-deterministic across repeats"
            )
        vector_prints = prints
        if vector_wall is None or elapsed < vector_wall:
            vector_wall = elapsed

    mismatches = [
        label
        for (label, _), scalar, vector in zip(
            builders, scalar_prints, vector_prints
        )
        if scalar != vector
    ]
    lanes = len(builders)
    total_cycles = lanes * cycles
    return {
        "benchmark": "repro.bench --batch",
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": _platform_info(),
        "lanes": lanes,
        "cycles_per_lane": cycles,
        "scalar_dense": {
            "wall_seconds": round(scalar_wall, 4),
            "cycles_per_second": round(total_cycles / scalar_wall, 1),
        },
        "vector": {
            "wall_seconds": round(vector_wall, 4),
            "cycles_per_second": round(total_cycles / vector_wall, 1),
            "block_size": block_size,
            "lookup_table_cache": lookup_table_cache_stats(),
        },
        "speedup": round(scalar_wall / vector_wall, 2),
        "mismatched_lanes": mismatches[:10],
        "all_identical": not mismatches,
    }


def _print_batch(results):
    print("batch: {} lanes x {} cycles (block_size={})".format(
        results["lanes"], results["cycles_per_lane"],
        results["vector"]["block_size"],
    ))
    print("  scalar dense {:>9.3f}s  {:>12.1f} cycles/s".format(
        results["scalar_dense"]["wall_seconds"],
        results["scalar_dense"]["cycles_per_second"],
    ))
    print("  vector       {:>9.3f}s  {:>12.1f} cycles/s".format(
        results["vector"]["wall_seconds"],
        results["vector"]["cycles_per_second"],
    ))
    cache = results["vector"]["lookup_table_cache"]
    print("  speedup      {:>8.2f}x  identical={}  table cache: "
          "{} builds / {} hits".format(
              results["speedup"],
              "yes" if results["all_identical"] else "NO",
              cache["builds"], cache["hits"],
          ))
    for label in results["mismatched_lanes"]:
        print("  MISMATCH: {}".format(label))


# -- analytic surrogate benchmark ------------------------------------------
#
# Two legs.  Accuracy: the surrogate is cross-validated against one
# simulated sweep at the pinned calibration settings and every
# combination must land inside its checked-in error bound
# (repro.analytic.bounds) — any violation fails the benchmark (exit
# status 1).  Speed: the surrogate scores a large replicated grid while
# the vectorized simulator runs the standard-sweep grid at the standard
# 50k-cycle budget; the per-configuration speedup must clear 1000x
# (gated in full runs; --quick still reports it).


# The simulator side of the speed leg: the standard sweep's
# engine-hosted arbiters (see repro.experiments.runner).
_ANALYTIC_SIM_ARBITERS = (
    "static-priority",
    "lottery-static",
    "lottery-dynamic",
    "lottery-compensated",
)
_ANALYTIC_SIM_CYCLES = 50_000
_ANALYTIC_SPEEDUP_TARGET = 1000.0


def run_analytic_benchmark(quick=False, repeats=3, jobs=None):
    """Surrogate accuracy + throughput vs the vector engine."""
    from repro.analytic import (
        CALIBRATION,
        score_grid,
        supported_arbiters,
        validate_surrogate,
    )
    from repro.vector import run_testbed_batch

    # Accuracy leg: one cross-validation sweep at the calibration
    # settings.  --quick trims the arbiter families, not the settings —
    # the bounds are only meaningful at the cycles they were
    # calibrated for.
    families = list(supported_arbiters())
    if quick:
        families = ["lottery-static", "static-priority", "tdma"]
    validation = validate_surrogate(
        arbiters=families, backend="vector", jobs=jobs
    )

    # Surrogate timing: the full supported grid, replicated so the
    # batch path dominates fixed overheads; best wall over repeats.
    weights = tuple(CALIBRATION["weights"])
    traffic = list(CALIBRATION["traffic_classes"])
    base_grid = [
        {
            "arbiter_name": arbiter_name,
            "traffic_class_name": traffic_name,
            "weights": weights,
        }
        for arbiter_name in supported_arbiters()
        for traffic_name in traffic
    ]
    grid = base_grid * (8 if quick else 40)
    surrogate_wall = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        predictions = score_grid(grid, horizon=_ANALYTIC_SIM_CYCLES)
        elapsed = time.perf_counter() - start
        if surrogate_wall is None or elapsed < surrogate_wall:
            surrogate_wall = elapsed
    surrogate_per_config = surrogate_wall / len(grid)

    # Simulator baseline: the standard sweep grid on the vector engine
    # at the standard cycle budget (what a screened sweep avoids
    # paying per screened-out configuration).
    sim_calls = [
        dict(
            arbiter_name=arbiter_name,
            traffic_class_name=traffic_name,
            weights=list(weights),
            cycles=_ANALYTIC_SIM_CYCLES,
            seed=CALIBRATION["seed"],
        )
        for arbiter_name in _ANALYTIC_SIM_ARBITERS
        for traffic_name in traffic
    ]
    if quick:
        sim_calls = sim_calls[:: len(traffic) // 3]
    start = time.perf_counter()
    run_testbed_batch(sim_calls)
    sim_wall = time.perf_counter() - start
    sim_per_config = sim_wall / len(sim_calls)

    speedup = sim_per_config / surrogate_per_config
    speedup_ok = quick or speedup >= _ANALYTIC_SPEEDUP_TARGET
    max_errors = validation.max_errors()
    return {
        "benchmark": "repro.bench --analytic",
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": _platform_info(),
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
            "ok": validation.ok,
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
        "speedup_gated": not quick,
        "all_identical": validation.ok and speedup_ok,
    }


def _print_analytic(results):
    validation = results["validation"]
    print("analytic: {} combinations validated ({} cycles, seed {})".format(
        validation["combinations"], validation["cycles"],
        validation["seed"],
    ))
    print("  max error    share={} util={} latency={}  bounds={}".format(
        validation["max_share_error"],
        validation["max_utilization_error"],
        validation["max_latency_error"],
        "ok" if validation["ok"] else "VIOLATED",
    ))
    print("  surrogate   {:>9.3f}s  {:>10.1f} configs/s  ({} configs, "
          "{}us each)".format(
              results["surrogate"]["wall_seconds"],
              results["surrogate"]["configs_per_second"],
              results["surrogate"]["configs"],
              results["surrogate"]["per_config_microseconds"],
          ))
    print("  simulator   {:>9.3f}s  {:>10.2f} configs/s  ({} configs, "
          "{} cycles each)".format(
              results["simulator"]["wall_seconds"],
              results["simulator"]["configs_per_second"],
              results["simulator"]["configs"],
              results["simulator"]["cycles_per_config"],
          ))
    print("  speedup     {:>8.0f}x  (target {:.0f}x, {})".format(
        results["speedup"], results["speedup_target"],
        "gated" if results["speedup_gated"] else "reported only",
    ))
    for label in validation["violations"]:
        print("  VIOLATED: {}".format(label))


# -- lint benchmark --------------------------------------------------------
#
# Times the incremental linter (repro.lint) on the repo's own tree:
# a cold run against an empty cache, a fully warm run (every per-file
# result and the whole-program pass replayed from the cache), and a
# cold run fanned across a worker pool.  All three legs must produce
# byte-identical findings, and the warm run must clear the 5x speedup
# target — an incremental cache that changes answers is a bug, not a
# result.

_LINT_TARGETS = ("src", "tests")
_LINT_WARM_SPEEDUP_TARGET = 5.0


def run_lint_benchmark(quick=False, repeats=3, jobs=4,
                       targets=_LINT_TARGETS):
    """Cold vs warm vs parallel lint of the repo tree, in process.

    The cache lives in a throwaway directory so the benchmark never
    touches (or benefits from) the checkout's own ``.lint-cache.json``.
    Cache load and save are inside the timed region on both the cold
    and warm legs — persistence is part of what each run costs.
    """
    from repro.analysis.cache import LintCache
    from repro.analysis.core import (
        get_rules,
        iter_python_files,
        lint_paths,
    )

    rules = get_rules()
    rule_ids = [rule.id for rule in rules]
    paths = list(targets)
    file_count = sum(1 for _ in iter_python_files(paths))
    repeats = 1 if quick else max(1, repeats)

    def fingerprint(findings):
        return json.dumps(
            [finding.as_dict() for finding in findings], sort_keys=True
        )

    work_dir = tempfile.mkdtemp(prefix="bench-lint-")
    cache_path = os.path.join(work_dir, ".lint-cache.json")
    try:
        # Cold: empty cache, every file parsed and summarized.
        cold_wall = None
        for _ in range(repeats):
            try:
                os.remove(cache_path)
            except OSError:
                pass  # first iteration: nothing written yet
            start = time.perf_counter()
            cache = LintCache.load(cache_path, rule_ids)
            findings = lint_paths(paths, rules=rules, cache=cache)
            cache.save()
            elapsed = time.perf_counter() - start
            if cold_wall is None or elapsed < cold_wall:
                cold_wall = elapsed
        cold_fingerprint = fingerprint(findings)
        finding_count = len(findings)

        # Warm: unchanged tree, reloaded cache — per-file results and
        # the project pass all replay; no parsing at all.
        warm_wall = None
        warm_hits = warm_misses = 0
        for _ in range(repeats):
            start = time.perf_counter()
            cache = LintCache.load(cache_path, rule_ids)
            findings = lint_paths(paths, rules=rules, cache=cache)
            cache.save()
            elapsed = time.perf_counter() - start
            if warm_wall is None or elapsed < warm_wall:
                warm_wall = elapsed
            warm_hits, warm_misses = cache.hits, cache.misses
        warm_fingerprint = fingerprint(findings)

        # Parallel: cold per-file work fanned across a process pool,
        # no cache — exercises the multiprocessing path, not reuse.
        # Reported, never gated: a 1-CPU container legitimately shows
        # ~1x here.
        parallel_wall = None
        for _ in range(repeats):
            start = time.perf_counter()
            findings = lint_paths(paths, rules=rules, jobs=jobs)
            elapsed = time.perf_counter() - start
            if parallel_wall is None or elapsed < parallel_wall:
                parallel_wall = elapsed
        parallel_fingerprint = fingerprint(findings)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    identical = (
        cold_fingerprint == warm_fingerprint == parallel_fingerprint
    )
    warm_speedup = (cold_wall / warm_wall) if warm_wall else float("inf")
    speedup_ok = quick or warm_speedup >= _LINT_WARM_SPEEDUP_TARGET
    return {
        "benchmark": "repro.bench --lint",
        "quick": quick,
        "repeats": repeats,
        "platform": _platform_info(),
        "targets": list(targets),
        "files": file_count,
        "rules": rule_ids,
        "findings": finding_count,
        "cold": {
            "wall_seconds": round(cold_wall, 4),
            "files_per_second": round(file_count / cold_wall, 1),
        },
        "warm": {
            "wall_seconds": round(warm_wall, 4),
            "files_per_second": round(file_count / warm_wall, 1),
            "cache_hits": warm_hits,
            "cache_misses": warm_misses,
        },
        "parallel": {
            "jobs": jobs,
            "wall_seconds": round(parallel_wall, 4),
            "files_per_second": round(file_count / parallel_wall, 1),
            "speedup_vs_cold": round(cold_wall / parallel_wall, 2),
        },
        "warm_speedup": round(warm_speedup, 1),
        "warm_speedup_target": _LINT_WARM_SPEEDUP_TARGET,
        "warm_speedup_gated": not quick,
        "identical_findings": identical,
        "all_identical": identical and speedup_ok,
    }


def _print_lint(results):
    print("lint: {} files, {} rules, {} findings".format(
        results["files"], len(results["rules"]), results["findings"],
    ))
    print("  cold        {:>9.3f}s  {:>8.1f} files/s".format(
        results["cold"]["wall_seconds"],
        results["cold"]["files_per_second"],
    ))
    print("  warm        {:>9.3f}s  {:>8.1f} files/s  "
          "({} hits / {} misses)".format(
              results["warm"]["wall_seconds"],
              results["warm"]["files_per_second"],
              results["warm"]["cache_hits"],
              results["warm"]["cache_misses"],
          ))
    print("  parallel    {:>9.3f}s  {:>8.1f} files/s  "
          "(jobs={}, {:.2f}x vs cold)".format(
              results["parallel"]["wall_seconds"],
              results["parallel"]["files_per_second"],
              results["parallel"]["jobs"],
              results["parallel"]["speedup_vs_cold"],
          ))
    print("  warm speedup {:>7.1f}x  (target {:.0f}x, {})".format(
        results["warm_speedup"], results["warm_speedup_target"],
        "gated" if results["warm_speedup_gated"] else "reported only",
    ))
    print("  findings     {}".format(
        "identical across all legs"
        if results["identical_findings"] else "DIVERGED"
    ))


# -- service benchmark -----------------------------------------------------
#
# Hammers a live in-process DSE server (stdlib front-end, real sockets)
# with concurrent clients: cold submissions that execute on the worker
# pool, duplicate submissions that must *join* the finished jobs, and
# warm result fetches.  The served reports must be bit-identical to
# in-process references and the duplicates must cause zero extra
# executions — throughput without idempotency is a bug, not a result.


def _percentile_ms(samples, q):
    """The q-quantile of ``samples`` (seconds) in milliseconds."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return round(ordered[index] * 1000.0, 3)


def _hammer_clients(clients, worker):
    """Run ``worker(index, errors)`` on ``clients`` threads; returns
    (wall_seconds, errors)."""
    errors = []
    threads = [
        threading.Thread(target=worker, args=(index, errors), daemon=True)
        for index in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, errors


def run_service_benchmark(quick=False, workers=2, clients=4):
    """Concurrent-client service benchmark; returns the results doc."""
    from repro.experiments.runner import run_experiment
    from repro.service.client import ServiceClient
    from repro.service.core import ServiceCore
    from repro.service.http import ServiceServer

    scale = 0.05
    seeds = tuple(range(1, 3 if quick else 5))
    per_client = 25 if quick else 100

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

        # Cold leg: real executions on the worker pool.
        start = time.perf_counter()
        job_ids = {}
        for seed in seeds:
            status, body = client.submit("figure5", scale=scale, seed=seed)
            if status != 202:
                raise AssertionError(
                    "cold submit bounced: {} {}".format(status, body)
                )
            job_ids[seed] = body["job"]
        results = client.wait_all(list(job_ids.values()), timeout=600)
        cold_wall = time.perf_counter() - start
        reference = {
            seed: run_experiment(
                "figure5", scale=scale, seed=seed, _warn_seedless=False
            ).format_report()
            for seed in seeds
        }
        identical = all(
            results[job_ids[seed]][0] == 200
            and results[job_ids[seed]][1]["report"] == reference[seed]
            for seed in seeds
        )

        # Duplicate-submission leg: pure admission path.  Every request
        # must join its finished job (200, deduplicated), never rerun it.
        submit_latencies = []

        def _submitter(index, errors):
            mine = ServiceClient(
                server.address, client_id="bench-{}".format(index)
            )
            for i in range(per_client):
                seed = seeds[(index + i) % len(seeds)]
                begin = time.perf_counter()
                status, body = mine.submit("figure5", scale=scale, seed=seed)
                submit_latencies.append(time.perf_counter() - begin)
                if status != 200 or not body.get("deduplicated"):
                    errors.append(
                        "duplicate submit: {} {}".format(status, body)
                    )
                    return

        submit_wall, submit_errors = _hammer_clients(clients, _submitter)

        # Warm-result leg: concurrent fetches of memoized reports.
        fetch_latencies = []

        def _fetcher(index, errors):
            mine = ServiceClient(
                server.address, client_id="bench-{}".format(index)
            )
            for i in range(per_client):
                seed = seeds[(index + i) % len(seeds)]
                begin = time.perf_counter()
                status, body = mine.job_result(job_ids[seed])
                fetch_latencies.append(time.perf_counter() - begin)
                if status != 200:
                    errors.append(
                        "warm fetch: {} {}".format(status, body)
                    )
                    return

        fetch_wall, fetch_errors = _hammer_clients(clients, _fetcher)

        status, stats = client.stats()
        executed = stats.get("executed", -1) if status == 200 else -1
        errors = submit_errors + fetch_errors
        all_identical = (
            identical and not errors and executed == len(seeds)
        )
        requests = clients * per_client
        return {
            "benchmark": "repro.bench --service",
            "quick": quick,
            "python": platform.python_version(),
            "platform": _platform_info(),
            "workers": workers,
            "clients": clients,
            "requests_per_client": per_client,
            "cold": {
                "jobs": len(seeds),
                "wall_seconds": round(cold_wall, 4),
                "identical": identical,
            },
            "submissions": {
                "total": requests,
                "wall_seconds": round(submit_wall, 4),
                "per_second": round(requests / submit_wall, 1),
                "p50_ms": _percentile_ms(submit_latencies, 0.50),
                "p95_ms": _percentile_ms(submit_latencies, 0.95),
            },
            "warm_results": {
                "total": requests,
                "wall_seconds": round(fetch_wall, 4),
                "per_second": round(requests / fetch_wall, 1),
                "p50_ms": _percentile_ms(fetch_latencies, 0.50),
                "p95_ms": _percentile_ms(fetch_latencies, 0.95),
            },
            "executed": executed,
            "duplicate_executions": max(0, executed - len(seeds)),
            "errors": errors[:5],
            "all_identical": all_identical,
        }
    finally:
        server.drain(timeout=30.0)
        shutil.rmtree(root, ignore_errors=True)


def _print_service(results):
    print("service: {} clients x {} requests ({} workers)".format(
        results["clients"], results["requests_per_client"],
        results["workers"],
    ))
    print("  cold jobs   {:>8.3f}s  ({} jobs) identical={}".format(
        results["cold"]["wall_seconds"], results["cold"]["jobs"],
        "yes" if results["cold"]["identical"] else "NO",
    ))
    print(
        "  submit      {:>8.1f}/s  p50={}ms p95={}ms "
        "(duplicates joined, {} extra executions)".format(
            results["submissions"]["per_second"],
            results["submissions"]["p50_ms"],
            results["submissions"]["p95_ms"],
            results["duplicate_executions"],
        )
    )
    print("  warm fetch  {:>8.1f}/s  p50={}ms p95={}ms".format(
        results["warm_results"]["per_second"],
        results["warm_results"]["p50_ms"],
        results["warm_results"]["p95_ms"],
    ))
    for error in results["errors"]:
        print("  error: {}".format(error))


def _print_campaign(results):
    print("campaign: {} tasks x {} cycles (jobs={}, {} cpus)".format(
        results["tasks"], results["cycles_per_task"], results["jobs"],
        results["cpus"],
    ))
    print("  serial      {:>8.3f}s".format(
        results["serial"]["wall_seconds"]))
    print("  pooled      {:>8.3f}s  {:>5.2f}x  identical={}".format(
        results["pooled"]["wall_seconds"],
        results["pooled"]["speedup_vs_serial"],
        "yes" if results["pooled"]["identical"] else "NO",
    ))
    print("  cache cold  {:>8.3f}s  ({} stores)".format(
        results["cache_cold"]["wall_seconds"],
        results["cache_cold"]["stats"]["stores"],
    ))
    print("  cache warm  {:>8.3f}s  ({:.1%} of cold, {} hits) identical={}".format(
        results["cache_warm"]["wall_seconds"],
        results["cache_warm"]["fraction_of_cold"],
        results["cache_warm"]["stats"]["hits"],
        "yes" if results["cache_warm"]["identical"] else "NO",
    ))
    chaos = results.get("chaos")
    if chaos:
        print(
            "  chaos       {:>8.3f}s  ({} kills at rate {:.2f}, "
            "{} workers) identical={}".format(
                chaos["wall_seconds"],
                chaos["workers_killed"],
                chaos["rate"],
                chaos["workers_spawned"],
                "yes" if chaos["identical"] else "NO",
            )
        )


def _print_table(results):
    header = "{:<18} {:>10} {:>12} {:>12} {:>8} {:>8} {:>6}".format(
        "scenario", "cycles", "dense c/s", "fast c/s", "skip%", "speedup",
        "match",
    )
    print(header)
    print("-" * len(header))
    for entry in results["scenarios"]:
        print(
            "{:<18} {:>10} {:>12} {:>12} {:>7.1f}% {:>7.2f}x {:>6}".format(
                entry["name"],
                entry["cycles_per_system"] * entry["systems"],
                entry["dense"]["cycles_per_second"],
                entry["fast"]["cycles_per_second"],
                entry["fast"]["skipped_fraction"] * 100.0,
                entry["speedup"],
                "yes" if entry["identical"] else "NO",
            )
        )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the fast-path kernel against the dense "
        "reference and verify bit-identical results.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened cycle counts for CI smoke runs",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repeats per mode; best wall time is kept "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--campaign",
        action="store_true",
        help="benchmark the campaign engine (serial vs pooled vs "
        "warm-cache) instead of the kernel",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker pool size for --campaign / --service "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--campaign-output",
        default=DEFAULT_CAMPAIGN_OUTPUT,
        help="where --campaign writes its JSON report "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="benchmark the DSE service (submission throughput and "
        "warm-cache hit latency under concurrent clients) instead of "
        "the kernel",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent clients for --service (default: %(default)s)",
    )
    parser.add_argument(
        "--service-output",
        default=DEFAULT_SERVICE_OUTPUT,
        help="where --service writes its JSON report "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="benchmark the vectorized batch engine (repro.vector) "
        "against per-lane dense scalar runs on the saturated Table 1 "
        "sweep",
    )
    parser.add_argument(
        "--batch-output",
        default=DEFAULT_BATCH_OUTPUT,
        help="where --batch writes its JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=32,
        metavar="N",
        help="with --batch: LFSR samples pre-drawn per refill block "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--analytic",
        action="store_true",
        help="benchmark the analytic surrogate (repro.analytic): "
        "cross-validate it against the simulator at the calibration "
        "settings and time it against the vector engine; any error-"
        "bound violation fails the run",
    )
    parser.add_argument(
        "--analytic-output",
        default=DEFAULT_ANALYTIC_OUTPUT,
        help="where --analytic writes its JSON report "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="benchmark the incremental linter (repro.lint) on the "
        "repo tree: cold vs fully-warm vs parallel runs must produce "
        "byte-identical findings and the warm run must clear the "
        "{:.0f}x speedup target".format(_LINT_WARM_SPEEDUP_TARGET),
    )
    parser.add_argument(
        "--lint-output",
        default=DEFAULT_LINT_OUTPUT,
        help="where --lint writes its JSON report "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="with --campaign: also time the campaign under seeded "
        "worker kills at this per-dispatch rate and verify the rows "
        "stay identical to serial (default: off)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.chaos_rate <= 1.0:
        parser.error("--chaos-rate must be within [0, 1]")
    if args.chaos_rate and not args.campaign:
        parser.error("--chaos-rate requires --campaign")
    if sum((args.service, args.campaign, args.batch, args.analytic,
            args.lint)) > 1:
        parser.error("--service, --campaign, --batch, --analytic and "
                     "--lint are mutually exclusive")
    if args.clients < 1:
        parser.error("--clients must be >= 1")
    if args.block_size < 1:
        parser.error("--block-size must be >= 1")

    if args.lint:
        results = run_lint_benchmark(
            quick=args.quick, repeats=args.repeats, jobs=args.jobs
        )
        _print_lint(results)
        output = args.lint_output
        failure = ("FAIL: warm or parallel lint diverged from the cold "
                   "run, or the warm run missed the {:.0f}x speedup "
                   "target".format(_LINT_WARM_SPEEDUP_TARGET))
    elif args.analytic:
        results = run_analytic_benchmark(
            quick=args.quick, repeats=args.repeats, jobs=args.jobs
        )
        _print_analytic(results)
        output = args.analytic_output
        failure = ("FAIL: surrogate exceeded its checked-in error "
                   "bounds or missed the {}x speedup target".format(
                       int(_ANALYTIC_SPEEDUP_TARGET)))
    elif args.batch:
        results = run_batch_benchmark(
            quick=args.quick, repeats=args.repeats,
            block_size=args.block_size,
        )
        _print_batch(results)
        output = args.batch_output
        failure = ("FAIL: vectorized batch engine diverged from the "
                   "dense scalar reference")
    elif args.service:
        results = run_service_benchmark(
            quick=args.quick, workers=args.jobs, clients=args.clients
        )
        _print_service(results)
        output = args.service_output
        failure = ("FAIL: service served non-identical reports or "
                   "re-executed deduplicated jobs")
    elif args.campaign:
        results = run_campaign_benchmark(
            quick=args.quick, jobs=args.jobs, chaos_rate=args.chaos_rate
        )
        _print_campaign(results)
        output = args.campaign_output
        failure = "FAIL: pooled or cached campaign diverged from serial"
    else:
        results = run_benchmarks(quick=args.quick, repeats=args.repeats)
        _print_table(results)
        output = args.output
        failure = "FAIL: fast path diverged from the dense reference"

    out_dir = os.path.dirname(output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print("\nwrote {}".format(output))

    if not results["all_identical"]:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
