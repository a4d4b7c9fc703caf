"""Sleep/wake scheduling in the simulation kernel.

A component whose tick will be a no-op until some outside event may
``sleep()``; the owner of that event calls ``wake()``.  The fast kernel
leaves sleepers unticked, strict mode ticks them and checks their state
stays put, and dense mode ignores sleep altogether.  These tests pin the
kernel contract, the master interface's waiter list, the generators
that sleep on it, and fast == dense == strict on generated
configurations.
"""

import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiters.registry import make_arbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.slave import Slave
from repro.bus.topology import BusSystem, build_single_bus_system
from repro.experiments.fault_sweep import build_fault_testbed
from repro.faults import FaultPlan, RetryPolicy
from repro.sim import Component, KernelDivergenceError, Simulator
from repro.traffic.classes import get_traffic_class
from repro.traffic.generator import ClosedLoopGenerator, SaturatingGenerator
from repro.traffic.message import FixedWords
from tests.strategies import FAULT_PLAN, TESTBED_POINT, weights

MODES = ("fast", "dense", "strict")


# -- the kernel contract -----------------------------------------------------


class Napper(Component):
    """Sleeps after every tick; the cycles it saw are not state."""

    def __init__(self, name="napper"):
        super().__init__(name)
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)
        self.sleep()


class RestlessSleeper(Component):
    """Sleeps, yet its every tick changes its state: a broken promise."""

    state_attrs = ("count",)

    def __init__(self, name="restless"):
        super().__init__(name)
        self.count = 0

    def tick(self, cycle):
        self.count += 1
        self.sleep()


def test_fast_mode_leaves_a_sleeper_unticked_until_woken():
    sim = Simulator(mode="fast")
    napper = sim.add(Napper())
    sim.run(5)
    assert napper.ticks == [0]
    napper.wake()
    sim.run(3)
    assert napper.ticks == [0, 5]
    assert sim.cycle == 8


def test_strict_mode_ticks_sleepers_that_keep_their_promise():
    sim = Simulator(mode="strict")
    napper = sim.add(Napper())
    sim.run(5)
    assert napper.ticks == [0, 1, 2, 3, 4]


def test_strict_mode_names_a_sleeper_whose_tick_changes_state():
    sim = Simulator(mode="strict")
    sim.add(RestlessSleeper())
    with pytest.raises(KernelDivergenceError, match="'restless'"):
        sim.run(10)


def test_fast_mode_trusts_a_sleeper():
    # The broken promise silently freezes a fast run; dense does the
    # work.  Strict mode (above) is what catches the difference.
    counts = {}
    for mode in ("fast", "dense"):
        sim = Simulator(mode=mode)
        restless = sim.add(RestlessSleeper())
        sim.run(10)
        counts[mode] = restless.count
    assert counts == {"fast": 1, "dense": 10}


def test_reset_leaves_every_component_awake():
    sim = Simulator(mode="fast")
    napper = sim.add(Napper())
    sim.run(5)
    sim.reset()
    sim.run(2)
    assert napper.ticks == [0, 0]


def test_restore_leaves_every_component_awake():
    sim = Simulator(mode="fast")
    napper = sim.add(Napper())
    sim.run(1)
    state = pickle.loads(pickle.dumps(sim.state_dict()))
    sim.run(4)
    sim.load_state_dict(state)
    sim.run(1)
    assert napper.ticks == [0, 1]


def test_sleep_is_not_part_of_the_snapshot():
    sim = Simulator(mode="fast")
    sim.add(RestlessSleeper())
    awake = pickle.dumps(sim.state_dict())
    sim.components[0].sleep()
    assert pickle.dumps(sim.state_dict()) == awake


# -- the master interface wakes its waiters ---------------------------------


def _blocked_waiter(interface):
    waiter = Napper("waiter")
    interface.add_waiter(waiter)
    waiter.sleep()
    return waiter


def _retire(interface, request):
    interface.retire(request)


def _pop(interface, request):
    interface.pop()


def _complete_with_error(interface, request):
    interface.complete_with_error(request, 0)


def _reset(interface, request):
    interface.reset()


@pytest.mark.parametrize(
    "shrink", [_retire, _pop, _complete_with_error, _reset],
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_interface_wakes_waiters_when_its_queue_shrinks(shrink):
    interface = MasterInterface("m", 0)
    request = interface.submit(4, 0)
    waiter = _blocked_waiter(interface)
    shrink(interface, request)
    assert not waiter._asleep


def test_interface_wakes_waiters_on_request_timeout():
    interface = MasterInterface(
        "m", 0, retry_policy=RetryPolicy(max_retries=0, timeout=5)
    )
    interface.submit(4, 0)
    waiter = _blocked_waiter(interface)
    interface.service(5)
    assert waiter._asleep  # not yet expired: nothing left the queue
    interface.service(6)
    assert interface.queue_depth == 0
    assert not waiter._asleep


def test_interface_does_not_wake_waiters_when_its_queue_grows():
    interface = MasterInterface("m", 0)
    waiter = _blocked_waiter(interface)
    interface.submit(4, 0)
    assert waiter._asleep


def test_interface_holds_its_waiters_weakly():
    interface = MasterInterface("m", 0)
    generator = ClosedLoopGenerator("gen", interface, FixedWords(4))
    alive = weakref.ref(generator)
    del generator
    # Freed by reference counting alone: no generator <-> interface cycle.
    assert alive() is None
    interface.reset()  # a dead waiter is skipped


# -- generators sleep while blocked ------------------------------------------


class DuckInterface:
    """Just enough of a master interface for a generator to submit to,
    without a waiter list: nothing would ever wake a sleeper."""

    def __init__(self):
        self.queue = []

    @property
    def queue_depth(self):
        return len(self.queue)

    def submit(self, words, cycle, slave=0, flow=None):
        self.queue.append(words)
        return words


@pytest.mark.parametrize("make", [
    lambda i: ClosedLoopGenerator("gen", i, FixedWords(4)),
    lambda i: SaturatingGenerator("gen", i, FixedWords(4)),
], ids=["closedloop", "saturating"])
def test_generator_sleeps_only_on_an_interface_that_can_wake_it(make):
    generator = make(MasterInterface("m", 0))
    generator.tick(0)
    assert generator._asleep

    duck = DuckInterface()
    generator = make(duck)
    for cycle in range(3):
        generator.tick(cycle)
        assert not generator._asleep
    assert duck.queue_depth >= 1


class CountingClosedLoop(ClosedLoopGenerator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1
        super().tick(cycle)


def test_fast_mode_stops_ticking_blocked_generators():
    ticks = {}
    summaries = {}
    for mode in ("fast", "dense"):
        system, bus = build_single_bus_system(
            4,
            make_arbiter("lottery-static", 4, [1, 2, 3, 4]),
            generator_factory=lambda i, m: CountingClosedLoop(
                "gen{}".format(i), m, FixedWords(16), seed=i
            ),
        )
        system.simulator.mode = mode
        system.run(2000)
        ticks[mode] = sum(g.ticks for g in system.generators)
        summaries[mode] = bus.metrics.summary()
    assert summaries["fast"] == summaries["dense"]
    assert ticks["dense"] == 4 * 2000
    # One tick per completed 16-word message, plus the first.
    assert ticks["fast"] < ticks["dense"] // 4


# -- the bus ------------------------------------------------------------------


class CountingInterface(MasterInterface):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.services = 0

    def service(self, cycle, faults=None):
        self.services += 1
        super().service(cycle, faults)


def test_bus_services_only_masters_with_a_retry_policy():
    masters = [
        CountingInterface("m0", 0),
        CountingInterface("m1", 1, retry_policy=RetryPolicy()),
    ]
    bus = SharedBus("bus", masters, make_arbiter("round-robin", 2))
    for cycle in range(10):
        bus.tick(cycle)
    assert [m.services for m in masters] == [0, 10]


def _t9_system(mode):
    system, bus = build_single_bus_system(
        4,
        make_arbiter("lottery-static", 4, [1, 2, 3, 4]),
        generator_factory=get_traffic_class("T9").generator_factory(seed=3),
    )
    system.simulator.mode = mode
    return system, bus


def _capture(system, bus):
    return bus.metrics.summary(), pickle.dumps(system.simulator.state_dict())


@pytest.mark.parametrize("mode", ["fast", "dense"])
def test_reset_then_rerun_equals_a_fresh_run(mode):
    system, bus = _t9_system(mode)
    system.run(1003)
    assert any(generator._asleep for generator in system.generators)
    system.reset()
    system.run(2000)

    fresh_system, fresh_bus = _t9_system(mode)
    fresh_system.run(2000)
    assert _capture(system, bus) == _capture(fresh_system, fresh_bus)
    assert bus.slaves[0].words_served == 2000


def test_restore_mid_run_replays_the_same_future():
    system, bus = _t9_system("fast")
    system.run(1000)
    state = pickle.dumps(system.simulator.state_dict())
    system.run(777)
    straight = _capture(system, bus)
    system.simulator.load_state_dict(pickle.loads(state))
    system.run(777)
    assert _capture(system, bus) == straight


# -- fast == dense == strict on generated configurations ----------------------


@settings(max_examples=8, deadline=None)
@given(**TESTBED_POINT)
def test_testbed_modes_agree(arbiter, traffic, weights, max_burst, preemptive,
                             split_transactions, setup_wait_states, seed):
    def run(mode):
        masters = [MasterInterface("m{}".format(i), i) for i in range(4)]
        bus = SharedBus(
            "bus", masters, make_arbiter(arbiter, 4, weights),
            slaves=[Slave("s0", 0, setup_wait_states=setup_wait_states)],
            max_burst=max_burst, preemptive=preemptive,
            split_transactions=split_transactions,
        )
        system = BusSystem()
        factory = get_traffic_class(traffic).generator_factory(seed=seed)
        for index, master in enumerate(masters):
            system.add_generator(factory(index, master))
        system.add_bus(bus)
        system.simulator.mode = mode
        system.run(400)
        return _capture(system, bus)

    captures = [run(mode) for mode in MODES]
    assert captures[0] == captures[1] == captures[2]


@settings(max_examples=8, deadline=None)
@given(
    arbiter=TESTBED_POINT["arbiter"],
    weights=weights(),
    seed=st.integers(min_value=1, max_value=2**16),
    **FAULT_PLAN
)
def test_fault_testbed_modes_agree(arbiter, weights, max_retries, timeout,
                                   backoff_base, word_error_rate,
                                   grant_drop_rate, slave_stall_rate, seed):
    def run(mode):
        system, bus, _, _ = build_fault_testbed(
            tickets=weights,
            seed=seed,
            plan=FaultPlan(word_error_rate=word_error_rate,
                           grant_drop_rate=grant_drop_rate,
                           slave_stall_rate=slave_stall_rate),
            retry_policy=RetryPolicy(max_retries=max_retries,
                                     timeout=timeout,
                                     backoff_base=backoff_base),
            arbiter=make_arbiter(arbiter, 4, weights),
            bus_timeout=64,
        )
        system.simulator.mode = mode
        system.run(400)
        return _capture(system, bus)

    captures = [run(mode) for mode in MODES]
    assert captures[0] == captures[1] == captures[2]
