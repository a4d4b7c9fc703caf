"""The two bus workloads, both closed loops of whole simulations.

``bus_saturated`` runs :func:`repro.experiments.system.run_testbed` in
the default fast kernel mode over five arbiters x {T1, T8, T9} at
1:2:3:4.  Every cycle has a pending master, so nothing is skipped: host
time goes to bus bookkeeping, arbitration, lottery draws, generators
and metrics.  Messages of 1-16 words vary how many arbitrations each
word costs.

``bus_idle`` runs the four Table 1 architectures with one sparse
Poisson source per master (4-word messages, rate 0.001).  About 97% of
cycles are skipped by the fast kernel, so host time goes to horizon
probes and wakeup replay: a bus-bookkeeping change should not move it,
a kernel or wakeup-contract change should.

One op is one simulation; one pass runs every configuration once.
"""

import contextlib
import statistics
import time

from repro.arbiters.registry import make_arbiter
from repro.core.lottery_manager import (
    DynamicLotteryManager,
    StaticLotteryManager,
)
from repro.experiments import system as system_module
from repro.experiments.table1 import ARCHITECTURES, TABLE1_WEIGHTS
from repro.traffic.generator import PoissonGenerator
from repro.traffic.message import FixedWords

import harness
from hostclock import HostClock
from tracing import Tracer, format_summary, self_times

NUM_MASTERS = 4
# Passes reuse their inputs with this period, so expected.json holds
# every pass a run of any length makes.
INPUT_PERIOD = 4
WARMUP_CYCLES = 500

SATURATED_ARBITERS = (
    ("static-priority", {}),
    ("tdma", {"reclaim": "single"}),
    ("lottery-static", {}),
    ("lottery-dynamic", {}),
    ("lottery-compensated", {}),
)
SATURATED_CLASSES = ("T1", "T8", "T9")
SATURATED_WEIGHTS = (1, 2, 3, 4)
SATURATED_CYCLES = 10_000

IDLE_CYCLES = 100_000
IDLE_RATE = 0.001
IDLE_WORDS = 4

# Metrics records the bus makes from its tick; observe_idle_gap is the
# kernel's replay of skipped cycles (through the bus's skip_quiet).  The
# per-cycle observe_cycle (one increment) stays untimed and counts as
# bus time: timing it would cost more than it does.
_METRICS_CALLS = (
    "record_idle", "record_stall", "record_grant", "record_word",
    "record_completion",
)

# Who calls whom among the timed layers (None: the op's span).
PARENTS = {
    "sim.kernel": None,
    "bus": "sim.kernel",
    "traffic.generator": "sim.kernel",
    "metrics.collector.skip": "sim.kernel",
    "bus.pending_words": "bus",
    "arbiters": "bus",
    "metrics.collector": "bus",
    "core.lottery_manager": "arbiters",
}


def _lfsr_seed(seed, *labels):
    # Any value in [1, 255] is nonzero modulo every LFSR width in use.
    return harness.derive(seed, "lfsr", *labels) % 255 + 1


def saturated_inputs(seed, group, cycles=SATURATED_CYCLES):
    ops = []
    for arbiter, kwargs in SATURATED_ARBITERS:
        for traffic in SATURATED_CLASSES:
            kwargs = dict(kwargs)
            if arbiter.startswith("lottery"):
                kwargs["lfsr_seed"] = _lfsr_seed(seed, group, arbiter,
                                                 traffic)
            ops.append({
                "arbiter": arbiter,
                "traffic": traffic,
                "weights": list(SATURATED_WEIGHTS),
                "cycles": cycles,
                "seed": harness.derive(seed, "traffic", group, arbiter,
                                       traffic),
                "kwargs": kwargs,
            })
    return {"workload": "bus_saturated", "ops": ops}


def run_saturated_op(op):
    return system_module.run_testbed(
        op["arbiter"], op["traffic"], op["weights"], cycles=op["cycles"],
        seed=op["seed"], **op["kwargs"]
    ).summary


def idle_inputs(seed, group, cycles=IDLE_CYCLES):
    ops = []
    for label, arbiter, kwargs in ARCHITECTURES:
        kwargs = dict(kwargs)
        if arbiter.startswith("lottery"):
            kwargs["lfsr_seed"] = _lfsr_seed(seed, group, label)
        ops.append({
            "arbiter": arbiter,
            "label": label,
            "weights": list(TABLE1_WEIGHTS),
            "cycles": cycles,
            "rate": IDLE_RATE,
            "words": IDLE_WORDS,
            "seeds": [harness.derive(seed, "poisson", group, label, master)
                      for master in range(NUM_MASTERS)],
            "kwargs": kwargs,
        })
    return {"workload": "bus_idle", "ops": ops}


def run_idle_op(op):
    arbiter = make_arbiter(op["arbiter"], NUM_MASTERS, op["weights"],
                           **op["kwargs"])
    seeds = op["seeds"]

    def generator(index, master):
        return PoissonGenerator(
            "gen{}".format(index), master, FixedWords(op["words"]),
            op["rate"], seed=seeds[index],
        )

    # Built through the same module attribute run_testbed uses, so one
    # build hook instruments (or densifies) both workloads.
    system, bus = system_module.build_single_bus_system(
        NUM_MASTERS, arbiter, generator_factory=generator
    )
    system.run(op["cycles"])
    return bus.metrics.summary()


class BusSpec:
    """What distinguishes the two bus workloads."""

    def __init__(self, name, inputs, execute, span, traced_pass_s,
                 share_error):
        self.name = name
        self.inputs = inputs
        self.execute = execute
        self.span = span
        # Host seconds of one traced pass on a 2-CPU x86-64 box: a
        # traced run makes run length / traced_pass_s passes, a fixed
        # number, so its counts repeat exactly from run to run.
        self.traced_pass_s = traced_pass_s
        self.share_error = share_error


SATURATED = BusSpec("bus_saturated", saturated_inputs, run_saturated_op,
                    "experiments.system.run_testbed", 1.2, True)
IDLE = BusSpec("bus_idle", idle_inputs, run_idle_op,
               "bus.topology.build_and_run", 0.25, False)


@contextlib.contextmanager
def build_hook(after_build):
    """Call ``after_build(system, bus)`` on every test-bed system built."""
    original = system_module.build_single_bus_system

    def build(*args, **kwargs):
        system, bus = original(*args, **kwargs)
        after_build(system, bus)
        return system, bus

    system_module.build_single_bus_system = build
    try:
        yield
    finally:
        system_module.build_single_bus_system = original


def _dense(system, bus):
    system.simulator.mode = "dense"


def timed_methods(spec, seed):
    """``(class, method, layer)`` for the per-cycle methods of every class
    the workload's systems use; timed on the classes themselves (see
    :meth:`Tracer.time_method`)."""
    systems = []
    with build_hook(lambda system, bus: systems.append((system, bus))):
        for op in spec.inputs(seed, 0, cycles=1)["ops"]:
            spec.execute(op)
    methods = []
    for system, bus in systems:
        methods.append((type(system.simulator), "run", "sim.kernel"))
        methods.append((type(bus), "tick", "bus"))
        methods.append((type(bus), "pending_words", "bus.pending_words"))
        methods.append((type(bus.arbiter), "arbitrate", "arbiters"))
        for name in _METRICS_CALLS:
            methods.append((type(bus.metrics), name, "metrics.collector"))
        methods.append((type(bus.metrics), "observe_idle_gap",
                        "metrics.collector.skip"))
        for generator in system.generators:
            methods.append((type(generator), "tick", "traffic.generator"))
    # The managers that hold the lotteries; the compensated manager
    # delegates its draws to a DynamicLotteryManager.
    for manager in (StaticLotteryManager, DynamicLotteryManager):
        methods.append((manager, "draw", "core.lottery_manager"))
    return methods


def _run_pass(run, spec, group, tracer=None):
    """One pass: every configuration once.  Returns ``(inputs, results,
    stamps)``, ``stamps`` holding each op's ``(start, end)``."""
    inputs = spec.inputs(run.ctx.seed, group % INPUT_PERIOD)
    results, stamps = [], []
    for index, op in enumerate(inputs["ops"]):
        span = (contextlib.nullcontext() if tracer is None
                else tracer.span(spec.span, group=group, op=index))
        with span:
            start = time.perf_counter()
            try:
                results.append(spec.execute(op))
            except Exception as error:  # counted, reported, run goes on
                results.append(None)
                run.fail(1, "{} pass {} op {} raised {!r}".format(
                    spec.name, group, index, error))
            stamps.append((start, time.perf_counter()))
    run.attempted += len(stamps)
    if None not in results:
        run.check_group("{} pass {}".format(spec.name, group), inputs,
                        results, len(results))
    return inputs, results, stamps


def _host_seconds(passes):
    return sum(end - start for _, _, stamps in passes
               for start, end in stamps)


def _dense_cross_check(run, spec, inputs, results):
    """Re-run one sampled configuration in dense mode: identical summary."""
    index = harness.derive(run.ctx.seed, "dense") % len(inputs["ops"])
    if results[index] is None:
        return
    with build_hook(_dense):
        dense = spec.execute(inputs["ops"][index])
    if harness.digest(dense) != harness.digest(results[index]):
        run.fail(1, "{} op {}: dense kernel summary differs from fast "
                    "mode".format(spec.name, index))


def _share_error_pp(inputs, results):
    """Largest gap (percentage points) between a lottery master's word
    share and its ticket ratio: the paper's proportional-share claim."""
    worst = 0.0
    for op, summary in zip(inputs["ops"], results):
        if not op["arbiter"].startswith("lottery"):
            continue
        total = float(sum(op["weights"]))
        for weight, share in zip(op["weights"],
                                 summary["bandwidth_shares"]):
            worst = max(worst, abs(share - weight / total) * 100.0)
    return worst


def _layers(tracer, spec, kernels, passes, untraced_s, traced_s):
    # The first INPUT_PERIOD traced passes repeat the untraced ones: the
    # difference is the tracing overhead.
    paired = [span for span in tracer.closed(spec.span)
              if span.attrs["group"] < INPUT_PERIOD]
    paired_s = sum(span.wall_ns for span in paired) / 1e9
    totals = tracer.totals(parents=PARENTS)
    selfs = self_times(totals)

    def calls(*layers):
        return sum(totals.get(layer, [0])[0] for layer in layers)

    def own(*layers):
        return sum(selfs.get(layer, 0.0) for layer in layers)

    spans_self = sum(tracer.span_self_ns(span, PARENTS)
                     for span in tracer.closed(spec.span)) / 1e9
    accounted = (sum(selfs.values()) + spans_self
                 + sum(total[3] for total in totals.values()) / 1e9)
    summaries = [s for _, results, _ in passes for s in results]
    words = sum(sum(s["words"]) for s in summaries)
    grants = sum(sum(s["grants"]) for s in summaries)
    cycles = sum(s["cycles"] for s in summaries)
    ticked = sum(k.ticked_cycles for k in kernels)
    skipped = sum(k.skipped_cycles for k in kernels)
    share_error = 0.0
    if spec.share_error:
        share_error = max(_share_error_pp(inputs, results)
                          for inputs, results, _ in passes)
    return {
        "experiments.system.self_s": spans_self,
        "sim.kernel.self_s": own("sim.kernel"),
        "sim.kernel.ticked_cycles": ticked,
        "sim.kernel.skipped_frac": skipped / float(ticked + skipped),
        "bus.self_s": own("bus"),
        "bus.pending_words_calls": calls("bus.pending_words"),
        "bus.pending_words_s": own("bus.pending_words"),
        "bus.host_ns_per_word": (
            (own("bus") + own("bus.pending_words")) * 1e9 / words
        ),
        "arbiters.arbitrate_s": own("arbiters"),
        "arbiters.arbitrate_calls": calls("arbiters"),
        "arbiters.grant_ratio": grants / float(calls("arbiters")),
        "core.lottery_manager.draw_s": own("core.lottery_manager"),
        "core.lottery_manager.draws": calls("core.lottery_manager"),
        "traffic.generator.tick_s": own("traffic.generator"),
        "traffic.generator.ticks": calls("traffic.generator"),
        "metrics.collector.record_s": own("metrics.collector",
                                          "metrics.collector.skip"),
        "metrics.collector.calls": calls("metrics.collector",
                                         "metrics.collector.skip"),
        "model.bus.utilization": words / float(cycles),
        "model.bus.words": words,
        "model.bus.grants": grants,
        "model.bus.lottery_share_err_pp": share_error,
        "trace.overhead_frac": paired_s / untraced_s - 1.0,
        "trace.accounted_frac": accounted / traced_s,
    }


def _bus_workload(ctx, spec):
    run = harness.Run(ctx)
    clock = HostClock()

    def warm_up(rep):
        for op in spec.inputs(ctx.seed, 0, cycles=WARMUP_CYCLES)["ops"]:
            spec.execute(op)

    _, setup_s = harness.repeated_setup(warm_up, lambda state: None, clock)
    run.set_setup(setup_s)

    end_to_end = layers = None
    if not ctx.trace:
        with clock.sampling():
            passes = harness.measure_groups(
                ctx.seconds, lambda group: _run_pass(run, spec, group),
                INPUT_PERIOD,
            )
        ops = [[clock.scaled(start, end) for start, end in stamps]
               for _, _, stamps in passes]
        cycles = sum(op["cycles"] for inputs, _, _ in passes
                     for op in inputs["ops"])
        end_to_end = {
            "throughput_per_s": cycles / sum(map(sum, ops)),
            "latency_p50_ms": statistics.median(
                seconds for pass_ in ops for seconds in pass_) * 1e3,
            "job_p50_ms": statistics.median(map(sum, ops)) * 1e3,
        }
        run.notes.append("{}: {} passes, {:.4g} cycles/s unscaled; {}".format(
            spec.name, len(passes), cycles / _host_seconds(passes),
            clock.describe()))
        reference = passes[0]
    else:
        tracer = Tracer()
        methods = timed_methods(spec, ctx.seed)
        kernels = []

        def run_group(group, traced):
            if not traced:
                return _run_pass(run, spec, group)
            with build_hook(lambda system, bus:
                            kernels.append(system.simulator)):
                return _run_pass(run, spec, group, tracer)

        def install():
            for cls, attr, layer in methods:
                tracer.time_method(cls, attr, layer)

        references, passes, traced_s = harness.paired_trace(
            max(INPUT_PERIOD, int(round(ctx.seconds / spec.traced_pass_s))),
            INPUT_PERIOD, run_group, install, tracer.uninstall,
        )
        run.check_pairs(spec.name, [r[1] for r in references],
                        [p[1] for p in passes])
        layers = _layers(tracer, spec, kernels, passes,
                         _host_seconds(references), traced_s)
        run.notes += format_summary(
            harness.write_trace(ctx, tracer, PARENTS))
        reference = references[0]
    _dense_cross_check(run, spec, reference[0], reference[1])
    run.finish(end_to_end, layers)
    return run


def bus_saturated(ctx):
    return _bus_workload(ctx, SATURATED)


def bus_idle(ctx):
    return _bus_workload(ctx, IDLE)
