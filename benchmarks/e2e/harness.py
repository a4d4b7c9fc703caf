"""Shared plumbing of the end-to-end benchmark.

Seeds, result hashing, the percentile rule, the expected-result table,
repeated set-up timing and the per-run record every workload fills in.
Nothing here imports the program under test.
"""

import hashlib
import json
import math
import os
import resource
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Seeds whose result digests are recorded in ``expected.json``.
EXPECTED_SEEDS = (1, 2)

#: Set-up is repeated this many times per run and the median reported
#: (one repetition's scaled time varies by about 8% here).
SETUP_REPS = 9

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL = 10

#: End-to-end metrics: name -> (unit, better).  Every workload reports
#: every one of them; README.md says what each means per workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "job_p50_ms": ("ms", "lower"),
}

#: Per-layer metrics of the ``--trace`` run: name -> (unit, better).
#: Layers a workload does not exercise report 0.
PER_LAYER = {
    "experiments.system.self_s": ("s", "lower"),
    "sim.kernel.self_s": ("s", "lower"),
    "sim.kernel.ticked_cycles": ("count", "lower"),
    "sim.kernel.skipped_frac": ("ratio", "higher"),
    "bus.self_s": ("s", "lower"),
    "bus.pending_words_calls": ("count", "lower"),
    "bus.pending_words_s": ("s", "lower"),
    "bus.host_ns_per_word": ("ns/word", "lower"),
    "arbiters.arbitrate_s": ("s", "lower"),
    "arbiters.arbitrate_calls": ("count", "lower"),
    "arbiters.grant_ratio": ("ratio", "higher"),
    "core.lottery_manager.draw_s": ("s", "lower"),
    "core.lottery_manager.draws": ("count", "lower"),
    "traffic.generator.tick_s": ("s", "lower"),
    "traffic.generator.ticks": ("count", "lower"),
    "metrics.collector.record_s": ("s", "lower"),
    "metrics.collector.calls": ("count", "lower"),
    "model.bus.utilization": ("ratio", "higher"),
    "model.bus.words": ("count", "higher"),
    "model.bus.grants": ("count", "higher"),
    "model.bus.lottery_share_err_pp": ("pp", "lower"),
    "analytic.score_grid_s": ("s", "lower"),
    "analytic.score_grid_configs": ("count", "higher"),
    "analytic.predict_s": ("s", "lower"),
    "analytic.predict_p99_us": ("us", "lower"),
    "experiments.screen.self_s": ("s", "lower"),
    "experiments.screen.survivor_ratio": ("ratio", "lower"),
    "vector.run_testbed_batch_s": ("s", "lower"),
    "vector.lanes": ("count", "higher"),
    "vector.scalar_fallback_s": ("s", "lower"),
    "vector.scalar_fallbacks": ("count", "lower"),
    "service.http.self_s": ("s", "lower"),
    "service.core.submit_s": ("s", "lower"),
    "service.core.job_result_s": ("s", "lower"),
    "service.wal.append_s": ("s", "lower"),
    "service.wal.appends": ("count", "lower"),
    "service.queue.submit_s": ("s", "lower"),
    "service.queue.dedup_hits": ("count", "higher"),
    "service.queue.wait_s": ("s", "lower"),
    "experiments.supervisor.run_s": ("s", "lower"),
    "experiments.cache.get_s": ("s", "lower"),
    "experiments.cache.put_s": ("s", "lower"),
    "experiments.cache.hit_ratio": ("ratio", "higher"),
    "service.request_p99_ms": ("ms", "lower"),
    "service.job_p90_s": ("s", "lower"),
    "service.loadgen.late_max_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
}


def derive(seed, *labels):
    """A positive 31-bit input seed for one labelled use of ``seed``.

    Every traffic seed, LFSR seed, request mix and job seed of a run is
    derived here from the run's ``--seed``, so the same seed gives the
    same inputs and different seeds decorrelated ones.
    """
    text = "|".join(str(part) for part in (seed,) + labels)
    value = int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:4], "big"
    )
    return (value & 0x7FFFFFFF) or 1


def _normalized(value):
    # Floats are hashed at 12 significant digits so a last-ulp libm
    # difference cannot fail a run; the simulator's own statistics are
    # ratios of integers and agree to far more digits than that.
    if isinstance(value, float):
        return "f:{:.12g}".format(value)
    if isinstance(value, dict):
        return {str(key): _normalized(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalized(item) for item in value]
    if hasattr(value, "item"):  # numpy scalar
        return _normalized(value.item())
    return value


def digest(value):
    """A short, stable hash of a JSON-like value."""
    blob = json.dumps(_normalized(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def percentile(samples, q):
    """Nearest-rank ``q``-quantile of ``samples``.

    A tail percentile (``q > 0.5``) is only as good as the samples
    beyond it, so it is ``None`` unless at least :data:`MIN_TAIL`
    samples lie above its rank.  The median needs one sample.
    """
    count = len(samples)
    if count == 0:
        return None
    rank = max(1, math.ceil(round(q * count, 6)))
    if q > 0.5 and count - rank < MIN_TAIL:
        return None
    return sorted(samples)[rank - 1]


def peak_rss_mb():
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(setup, teardown, clock, reps=SETUP_REPS):
    """Run ``setup(rep)`` ``reps`` times, tearing down all but the last,
    while ``clock`` (a :class:`hostclock.HostClock`) samples host speed,
    with one sample before each set-up and one after the last, however
    short they are.

    Returns ``(state of the last set-up, median scaled set-up seconds)``.
    """
    stamps = []
    state = None
    with clock.sampling():
        for rep in range(reps):
            if state is not None:
                teardown(state)
            clock.sample()
            start = time.perf_counter()
            state = setup(rep)
            stamps.append((start, time.perf_counter()))
        clock.sample()
    return state, statistics.median(clock.scaled(start, end)
                                    for start, end in stamps)


def measure_groups(seconds, run_group, period):
    """Closed loop: ``run_group(0)``, ``run_group(1)``, ... until
    ``seconds`` have passed, finishing the group in progress and then the
    input period in progress, so that every configuration and every
    group of inputs is weighted alike.  Returns their results."""
    results = []
    start = time.perf_counter()
    while (not results or time.perf_counter() - start < seconds
           or len(results) % period):
        results.append(run_group(len(results)))
    return results


def paired_trace(count, pairs, run_group, install, uninstall):
    """The ``--trace`` loop: ``pairs`` untraced groups, then ``count``
    traced groups, of which the first ``pairs`` repeat the untraced ones.

    ``run_group(group, traced)`` runs one group; ``install`` and
    ``uninstall`` put the timers in place and take them out again.  They
    are installed once: changing a class again and again would keep
    CPython from re-specializing the call sites that use it, slowing
    both sides.  The pairs give the tracing overhead and check that
    tracing changes no result.  Returns ``(untraced results, traced
    results, wall seconds of the traced groups)``.
    """
    references = [run_group(group, False) for group in range(pairs)]
    install()
    start = time.perf_counter()
    try:
        traced = [run_group(group, True) for group in range(count)]
    finally:
        wall = time.perf_counter() - start
        uninstall()
    return references, traced, wall


def write_trace(ctx, tracer, parents=None):
    """Write the run's ``trace.jsonl``; returns the self-time summary."""
    os.makedirs(ctx.out_dir, exist_ok=True)
    return tracer.write(os.path.join(ctx.out_dir, "trace.jsonl"), parents)


class Expected:
    """The checked-in table ``digest(inputs) -> digest(results)``.

    Keying by the generated inputs rather than by seed means every group
    of ops a run generates is checked wherever the table knows its
    inputs, whatever the run length; ``record_expected.py`` fills it for
    :data:`EXPECTED_SEEDS`.
    """

    def __init__(self, path=EXPECTED_PATH):
        self.table = {}
        if os.path.exists(path):
            with open(path) as handle:
                self.table = json.load(handle)["results"]

    def check(self, inputs, result_digest):
        """True/False against the table, ``None`` for unknown inputs."""
        entry = self.table.get(digest(inputs))
        if entry is None:
            return None
        return entry["result"] == result_digest


class Context:
    """What one workload run was asked to do."""

    def __init__(self, workload, seed, seconds, trace, smoke, import_s,
                 expected=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.import_s = import_s
        self.expected = expected if expected is not None else Expected()
        self.out_dir = os.path.join(
            OUT_DIR, "{}-seed{}".format(workload, seed)
        )


class Run:
    """The record one workload run fills in and ``run.py`` prints."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.problems = []
        self.metrics = {}
        self.notes = []

    def fail(self, ops, message):
        self.failed += ops
        self.problems.append(message)

    def check_group(self, label, inputs, results, ops):
        """Hash one group's results and check them against expected.json.

        A mismatch fails every op of the group.
        """
        result_digest = digest(results)
        verdict = self.ctx.expected.check(inputs, result_digest)
        if verdict is False:
            self.fail(ops, "{}: result digest {} differs from "
                           "expected.json".format(label, result_digest))
        elif verdict:
            self.checked += 1

    def check_pairs(self, label, untraced, traced):
        """Traced groups must give exactly the untraced groups' results."""
        for group, (plain, timed) in enumerate(zip(untraced, traced)):
            if digest(plain) != digest(timed):
                self.fail(len(plain), "{} group {}: traced results differ "
                                      "from untraced".format(label, group))

    def set_setup(self, setup_s):
        self.metrics["setup_s"] = self.ctx.import_s + setup_s

    def finish(self, end_to_end=None, layers=None):
        """Fill the metric set ``--trace`` asks for."""
        if self.attempted == 0:
            self.attempted = 1
            self.fail(1, "no op was attempted")
        self.metrics["peak_rss_mb"] = peak_rss_mb()
        if self.ctx.trace:
            values = dict.fromkeys(PER_LAYER, 0)
            values.update(layers or {})
            # Layer self times, the spans' own time and the timer cost
            # must cover the traced wall time (0: not measured).
            accounted = values["trace.accounted_frac"]
            if accounted and not 0.9 <= accounted <= 1.1:
                self.fail(1, "trace: layers account for {:.1%} of the "
                             "traced wall time".format(accounted))
            unknown = set(values) - set(PER_LAYER)
            catalog = PER_LAYER
        else:
            values = dict(self.metrics)
            values.update(end_to_end or {})
            unknown = set(values) - set(END_TO_END)
            catalog = END_TO_END
        if unknown:
            raise KeyError("metrics outside the catalog: {}".format(
                sorted(unknown)))
        self.metrics = {name: values.get(name) for name in catalog}

    @property
    def correct(self):
        return self.failed == 0 and not self.problems

    def result(self):
        """The result object ``run.py`` prints as its last line."""
        catalog = PER_LAYER if self.ctx.trace else END_TO_END
        metrics = {}
        for name, value in self.metrics.items():
            if value is not None and not math.isfinite(value):
                value = None
            metrics[name] = {"value": value, "unit": catalog[name][0]}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
