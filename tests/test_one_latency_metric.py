"""One latency metric on generated configurations.

The paper's latency (bus cycles per word, waiting included) is a
message's ``c - a + 1`` in-flight cycles over its ``w`` words,
word-weighted.  Charging each word the cycles since it became ready
telescopes to the same sum, so the bus keeps one metric and the
summary's ``word_latencies`` key repeats ``latencies_per_word`` (kept
so that summary digests stay stable).  These properties hold that
alias exactly on every execution path: the fast, dense and strict
kernels, with preemption, split transactions, retries and injected
faults, and the vector engine's lanes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arbiters.registry import make_arbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.slave import Slave
from repro.bus.topology import BusSystem
from repro.experiments.system import Point, run_testbed
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.traffic.classes import get_traffic_class
from repro.vector import run_testbed_batch
from tests.strategies import FAULT_PLAN, TESTBED_POINT

MODES = ("fast", "dense", "strict")
CYCLES = 400


def _run_point(mode, arbiter, traffic, weights, max_burst, preemptive,
               split_transactions, setup_wait_states, seed, plan, policy):
    masters = [
        MasterInterface("m{}".format(i), i, retry_policy=policy,
                        retry_seed=seed + i)
        for i in range(4)
    ]
    bus = SharedBus(
        "bus", masters, make_arbiter(arbiter, 4, weights),
        slaves=[Slave("s0", 0, setup_wait_states=setup_wait_states)],
        max_burst=max_burst, preemptive=preemptive,
        split_transactions=split_transactions, bus_timeout=64,
    )
    system = BusSystem()
    if plan.active:
        injector = FaultInjector("faults", plan, seed=seed)
        injector.attach_bus(bus)
        system.add_generator(injector)
    factory = get_traffic_class(traffic).generator_factory(seed=seed)
    for index, master in enumerate(masters):
        system.add_generator(factory(index, master))
    system.add_bus(bus)
    system.simulator.mode = mode
    system.run(CYCLES)
    return bus.metrics.summary()


@settings(max_examples=10, deadline=None)
@given(
    retries=st.booleans(),
    **dict(TESTBED_POINT, **FAULT_PLAN)
)
def test_word_latencies_alias_latency_on_every_kernel(
        arbiter, traffic, weights, max_burst, preemptive,
        split_transactions, setup_wait_states, seed, retries, max_retries,
        timeout, backoff_base, word_error_rate, grant_drop_rate,
        slave_stall_rate):
    plan = FaultPlan(word_error_rate=word_error_rate,
                     grant_drop_rate=grant_drop_rate,
                     slave_stall_rate=slave_stall_rate)
    policy = None
    if retries:
        policy = RetryPolicy(max_retries=max_retries, timeout=timeout,
                             backoff_base=backoff_base)
    summaries = [
        _run_point(mode, arbiter, traffic, weights, max_burst, preemptive,
                   split_transactions, setup_wait_states, seed, plan, policy)
        for mode in MODES
    ]
    for summary in summaries:
        assert summary["word_latencies"] == summary["latencies_per_word"]
    assert summaries[0] == summaries[1] == summaries[2]


@settings(max_examples=10, deadline=None)
@given(
    arbiter=TESTBED_POINT["arbiter"],
    traffic=TESTBED_POINT["traffic"],
    weights=TESTBED_POINT["weights"],
    max_burst=TESTBED_POINT["max_burst"],
    seed=TESTBED_POINT["seed"],
)
@example(arbiter="lottery-compensated", traffic="T8", weights=[1, 2, 3, 4],
         max_burst=16, seed=1)
def test_vector_lanes_match_scalar_word_latencies(arbiter, traffic, weights,
                                                  max_burst, seed):
    point = Point(arbiter, traffic, weights, cycles=CYCLES, seed=seed,
                  max_burst=max_burst)
    lane = run_testbed_batch([point], strict=False).results[0]
    scalar = run_testbed(arbiter, traffic, weights, cycles=CYCLES, seed=seed,
                         max_burst=max_burst)
    # A point the batch engine does not model ran on the scalar engine
    # (``lane.backend == "scalar"``); the alias holds there too.  On a
    # vector lane the whole summary, word_latencies included, must equal
    # the scalar run's.
    assert lane.summary["word_latencies"] == lane.summary["latencies_per_word"]
    assert lane.summary == scalar.summary
