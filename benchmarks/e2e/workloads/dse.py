"""The design-space-exploration workload: a closed loop of rounds.

Each round has two phases, one span each:

* ``dse.sweep`` -- :func:`repro.experiments.run_screened_sweep` over the
  four vector-engine arbiters x T1-T9 x the 24 weight permutations
  (864 configurations) with ``backend="vector"``, 5k cycles and
  ``top_k=16``: the surrogate scores the grid in one batch, the vector
  engine (and the scalar simulator for configurations it does not
  model) confirms the survivors;
* ``dse.predict`` -- :func:`repro.analytic.predict` once per
  configuration over the six surrogate arbiters x T1-T9 x 24
  permutations (1296 calls), in a seeded order.

The same ``analytic`` layer thus serves a batch and one point at a
time, so a change that speeds one use and slows the other shows here.
An op is one configuration, scored in the sweep or predicted.
"""

import contextlib
import random
import statistics
import time

import repro.analytic as analytic
import repro.vector as vector
from repro.experiments import screen
from repro.experiments.sweep import point_seed
from repro.experiments.system import run_testbed, weight_permutations
from repro.vector import backend as vector_backend

import harness
from hostclock import HostClock
from tracing import Tracer, format_summary, self_times

VECTOR_ARBITERS = ("lottery-static", "lottery-dynamic",
                   "lottery-compensated", "static-priority")
CLASSES = tuple("T{}".format(index) for index in range(1, 10))
# A sweep at 20k cycles takes 10-13 s on a 2-vCPU x86-64 box, so a run
# would hold one or two; at 5k it holds four to six.
SWEEP_CYCLES = 5_000
TOP_K = 16
# Rounds reuse their inputs with this period (see expected.json).  How
# long a sweep simulates depends on its traffic seeds (by up to 15%
# between two rounds), so a run averages over as many seeds as it has
# rounds.
INPUT_PERIOD = 8
# A traced run first repeats this many rounds untraced.
TRACE_PAIRS = 2
# --smoke rounds keep this many weight permutations of the 24.
SMOKE_PERMUTATIONS = 2
CROSS_CHECKS = 3
# Host seconds of one traced round on a 2-CPU x86-64 box: a traced run
# makes run length / TRACED_ROUND_S rounds, a fixed number.
TRACED_ROUND_S = 3.0


def round_inputs(seed, group, smoke=False):
    rng = random.Random(harness.derive(seed, "dse", group))
    permutations = weight_permutations()
    rng.shuffle(permutations)
    if smoke:
        permutations = permutations[:SMOKE_PERMUTATIONS]
    kwargs = {"tdma": {"reclaim": "single"}}
    for arbiter in analytic.supported_arbiters():
        if arbiter.startswith("lottery"):
            kwargs[arbiter] = {"lfsr_seed": harness.derive(
                seed, "lfsr", group, arbiter) % 255 + 1}
    points = [[arbiter, traffic, weights]
              for arbiter in analytic.supported_arbiters()
              for traffic in CLASSES for weights in permutations]
    rng.shuffle(points)
    return {
        "workload": "dse_sweep",
        "sweep": {
            "arbiters": list(VECTOR_ARBITERS),
            "classes": list(CLASSES),
            "weights": permutations,
            "cycles": SWEEP_CYCLES,
            "seed": harness.derive(seed, "sweep", group),
            "top_k": TOP_K,
            "kwargs": {arbiter: kwargs[arbiter]
                       for arbiter in VECTOR_ARBITERS if arbiter in kwargs},
        },
        "predict": {"points": points, "kwargs": kwargs},
    }


def run_round(inputs, tracer=None, group=None):
    """One round; returns ``(results, sweep (start, end), each predict
    call's (start, end), round seconds)``."""
    def span(name):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(name, group=group)

    sweep = inputs["sweep"]
    round_start = time.perf_counter()
    with span("dse.sweep"):
        start = time.perf_counter()
        screened = screen.run_screened_sweep(
            sweep["arbiters"], sweep["classes"], weights=sweep["weights"],
            cycles=sweep["cycles"], seed=sweep["seed"],
            arbiter_kwargs=sweep["kwargs"], backend="vector",
            top_k=sweep["top_k"],
        )
        sweep_stamp = (start, time.perf_counter())
    kwargs = inputs["predict"]["kwargs"]
    predictions, predict_stamps = [], []
    with span("dse.predict"):
        for arbiter, traffic, weights in inputs["predict"]["points"]:
            start = time.perf_counter()
            prediction = analytic.predict(arbiter, traffic, weights,
                                          **kwargs.get(arbiter, {}))
            predict_stamps.append((start, time.perf_counter()))
            predictions.append([prediction.row(),
                                prediction.latency_percentiles])
    round_s = time.perf_counter() - round_start
    results = {
        "rows": screened.result.rows,
        "funnel": screened.funnel,
        "predictions": predictions,
    }
    return results, sweep_stamp, predict_stamps, round_s


def _cross_check(run, inputs, results):
    """Re-simulate sampled confirmed rows with run_testbed: identical."""
    sweep = inputs["sweep"]
    rows = results["rows"]
    rng = random.Random(harness.derive(run.ctx.seed, "dse-check"))
    for row in rng.sample(rows, min(CROSS_CHECKS, len(rows))):
        arbiter, traffic = row["arbiter"], row["traffic"]
        weights = [int(w) for w in row["weights"].split(":")]
        result = run_testbed(
            arbiter, traffic, weights, cycles=sweep["cycles"],
            seed=point_seed(sweep["seed"], arbiter, traffic),
            **sweep["kwargs"].get(arbiter, {})
        )
        expected = {"utilization": result.utilization}
        for master in range(len(weights)):
            expected["share{}".format(master)] = \
                result.bandwidth_shares[master]
            expected["latency{}".format(master)] = \
                result.latencies_per_word[master]
        got = {key: row[key] for key in expected}
        if harness.digest(got) != harness.digest(expected):
            run.fail(1, "dse_sweep: confirmed row {}/{}/{} differs from "
                        "run_testbed".format(arbiter, traffic,
                                             row["weights"]))


def _run_group(run, group, tracer=None):
    """One round, checked.  Only the first TRACE_PAIRS rounds keep their
    full results (for the cross-checks), so memory does not grow with
    the number of rounds a run fits in."""
    inputs = round_inputs(run.ctx.seed, group % INPUT_PERIOD, run.ctx.smoke)
    results, sweep, predicts, round_s = run_round(inputs, tracer, group)
    ops = results["funnel"]["scored"] + len(predicts)
    run.attempted += ops
    run.check_group("dse_sweep round {}".format(group), inputs, results, ops)
    return {
        "inputs": inputs if group < TRACE_PAIRS else None,
        "results": results if group < TRACE_PAIRS else None,
        "funnel": results["funnel"],
        "sweep": sweep,
        "predicts": predicts,
        "round_s": round_s,
    }


def _instrument(tracer, counts):
    def count_configs(args, result):
        counts["configs"] += len(args[0])

    def count_lanes(args, result):
        counts["lanes"] += len(args[0]) - len(result.fallbacks)

    tracer.time_calls(screen, "run_screened_sweep", "experiments.screen")
    tracer.time_calls(analytic, "score_grid", "analytic.score_grid",
                      on_call=count_configs)
    tracer.time_calls(vector, "run_testbed_batch", "vector",
                      on_call=count_lanes)
    tracer.time_calls(vector_backend, "run_testbed",
                      "vector.scalar_fallback")
    tracer.time_calls(analytic, "predict", "analytic.predict")


def _layers(tracer, counts, rounds, untraced_s, traced_s):
    totals = tracer.totals()
    selfs = self_times(totals)
    spans = tracer.closed()
    paired = [span for span in spans
              if span.attrs["group"] < TRACE_PAIRS]
    spans_self = sum(tracer.span_self_ns(span) for span in spans) / 1e9
    accounted = (sum(selfs.values()) + spans_self
                 + sum(total[3] for total in totals.values()) / 1e9)
    latencies = [end - start for round_ in rounds
                 for start, end in round_["predicts"]]
    p99 = harness.percentile(latencies, 0.99)
    scored = sum(round_["funnel"]["scored"] for round_ in rounds)
    survivors = sum(round_["funnel"]["survivors"] for round_ in rounds)
    return {
        "analytic.score_grid_s": selfs.get("analytic.score_grid", 0.0),
        "analytic.score_grid_configs": counts["configs"],
        "analytic.predict_s": selfs.get("analytic.predict", 0.0),
        "analytic.predict_p99_us": None if p99 is None else p99 * 1e6,
        "experiments.screen.self_s": selfs.get("experiments.screen", 0.0),
        "experiments.screen.survivor_ratio": survivors / float(scored),
        "vector.run_testbed_batch_s": selfs.get("vector", 0.0),
        "vector.lanes": counts["lanes"],
        "vector.scalar_fallback_s": selfs.get("vector.scalar_fallback", 0.0),
        "vector.scalar_fallbacks": totals.get(
            "vector.scalar_fallback", [0])[0],
        "trace.overhead_frac": (
            sum(span.wall_ns for span in paired) / 1e9 / untraced_s - 1.0
        ),
        "trace.accounted_frac": accounted / traced_s,
    }


def dse_sweep(ctx):
    run = harness.Run(ctx)
    clock = HostClock()
    rng = random.Random(harness.derive(ctx.seed, "dse-warmup"))

    def warm_up(rep):
        # The first sweep of a process runs slower (lazy imports, numpy
        # and lookup-table caches); set-up pays for it once.
        weights = rng.sample(weight_permutations(), 2)
        screen.run_screened_sweep(
            ["lottery-static", "static-priority"], ["T1", "T9"],
            weights=weights, cycles=2000, seed=rng.randrange(1 << 30),
            backend="vector", top_k=2,
        )
        for arbiter in analytic.supported_arbiters():
            analytic.predict(arbiter, "T1", weights[0])

    _, setup_s = harness.repeated_setup(warm_up, lambda state: None, clock)
    run.set_setup(setup_s)

    end_to_end = layers = None
    if not ctx.trace:
        with clock.sampling():
            # Every round has inputs of its own: nothing to balance.
            rounds = harness.measure_groups(
                ctx.seconds, lambda group: _run_group(run, group), 1,
            )
        sweeps = [clock.scaled(*round_["sweep"]) for round_ in rounds]
        scored = sum(round_["funnel"]["scored"] for round_ in rounds)
        end_to_end = {
            "throughput_per_s": scored / sum(sweeps),
            "latency_p50_ms": statistics.median(
                clock.scaled(start, end) for round_ in rounds
                for start, end in round_["predicts"]) * 1e3,
            "job_p50_ms": statistics.median(sweeps) * 1e3,
        }
        unscaled = sum(end - start for start, end in
                       (round_["sweep"] for round_ in rounds))
        run.notes.append("dse_sweep: {} rounds, {:.4g} configs/s "
                         "unscaled; {}; scaled sweeps {} s".format(
                             len(rounds), scored / unscaled, clock.describe(),
                             " ".join("{:.3f}".format(s) for s in sweeps)))
        reference = rounds[0]
    else:
        tracer = Tracer()
        counts = {"configs": 0, "lanes": 0}
        references, rounds, traced_s = harness.paired_trace(
            max(TRACE_PAIRS, int(round(ctx.seconds / TRACED_ROUND_S))),
            TRACE_PAIRS,
            lambda group, traced: _run_group(
                run, group, tracer if traced else None),
            lambda: _instrument(tracer, counts), tracer.uninstall,
        )
        run.check_pairs("dse_sweep", [r["results"] for r in references],
                        [r["results"] for r in rounds])
        reference = references[0]
        layers = _layers(tracer, counts, rounds,
                         sum(r["round_s"] for r in references), traced_s)
        run.notes += format_summary(harness.write_trace(ctx, tracer))
    _cross_check(run, reference["inputs"], reference["results"])
    run.finish(end_to_end, layers)
    return run
