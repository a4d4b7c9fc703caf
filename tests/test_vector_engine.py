"""VectorEngine equivalence: every lane bit-identical to the scalar
dense simulator, enforced through the engine's own strict cross-check
(which rebuilds a scalar twin, replays the schedule, and raises
:class:`VectorDivergenceError` on any metric or arbiter-state drift).
"""

import pytest

from repro.arbiters.registry import make_arbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.slave import Slave
from repro.bus.topology import BusSystem, build_single_bus_system
from repro.traffic.generator import PoissonGenerator, SaturatingGenerator
from repro.traffic.message import FixedWords, UniformWords
from repro.vector.backend import make_testbed_builder
from repro.vector.engine import VectorEngine
from repro.vector.lanes import (
    UnsupportedConfigError,
    VectorDivergenceError,
    plan_lane,
)

ARBITERS = (
    ("lottery-static", {}),
    ("lottery-static", {"draw_policy": "rejection"}),
    ("lottery-dynamic", {}),
    ("lottery-compensated", {}),
    ("static-priority", {}),
)
WEIGHTS = [12, 2, 6, 1]


def _engine(plans, cycles, warmup=0):
    engine = VectorEngine(plans)
    if warmup:
        engine.run(warmup)
        engine.reset_metrics()
    engine.run(cycles)
    return engine


def _check_all(plans, cycles, warmup=0):
    engine = _engine(plans, cycles, warmup=warmup)
    for lane in range(len(plans)):
        engine.cross_check(lane)
    return engine


@pytest.mark.parametrize("arbiter_name,kwargs", ARBITERS)
def test_closed_loop_traffic_matches_scalar(arbiter_name, kwargs):
    plans = [
        plan_lane(
            make_testbed_builder(
                arbiter_name, traffic, WEIGHTS, seed=seed,
                arbiter_kwargs=kwargs,
            ),
            label="{}/{}".format(traffic, seed),
        )
        for traffic in ("T1", "T8", "T9")
        for seed in (1, 6)
    ]
    _check_all(plans, cycles=1500, warmup=300)


def _saturated_builder(arbiter_name, kwargs, seed, uniform=False,
                       arbitration_cycles=0):
    def factory(index, master):
        words = UniformWords(2, 9) if uniform else FixedWords(8)
        return SaturatingGenerator(
            "gen{}".format(index), master, words, seed=seed + index
        )

    def build():
        arbiter = make_arbiter(arbiter_name, 4, WEIGHTS, **kwargs)
        return build_single_bus_system(
            4, arbiter, generator_factory=factory,
            arbitration_cycles=arbitration_cycles,
        )

    return build


@pytest.mark.parametrize("arbiter_name,kwargs", ARBITERS)
@pytest.mark.parametrize("uniform", [False, True])
def test_saturated_traffic_matches_scalar(arbiter_name, kwargs, uniform):
    plans = [
        plan_lane(_saturated_builder(arbiter_name, kwargs, seed,
                                     uniform=uniform))
        for seed in (7, 40)
    ]
    _check_all(plans, cycles=1800)


def test_arbitration_penalty_and_wait_states():
    def builder(arbiter_name, seed):
        def build():
            system = BusSystem()
            masters = [MasterInterface("m{}".format(i), i) for i in range(4)]
            slaves = [
                Slave("s0", 0, setup_wait_states=2, per_word_wait_states=1),
                Slave("s1", 1),
            ]
            bus = SharedBus(
                "bus", masters, make_arbiter(arbiter_name, 4, WEIGHTS),
                slaves=slaves, max_burst=8, arbitration_cycles=1,
            )
            for i, master in enumerate(masters):
                system.add_generator(
                    SaturatingGenerator(
                        "gen{}".format(i), master, FixedWords(5),
                        seed=seed + i, slave=i % 2,
                    )
                )
            system.add_bus(bus)
            return system, bus

        return build

    plans = [
        plan_lane(builder(name, seed))
        for name, _ in ARBITERS
        for seed in (3, 11)
    ]
    _check_all(plans, cycles=1500, warmup=200)


def test_mixed_architectures_share_one_engine():
    plans = [
        plan_lane(
            make_testbed_builder(name, "T8", WEIGHTS, seed=2,
                                 arbiter_kwargs=kwargs)
        )
        for name, kwargs in ARBITERS
    ]
    _check_all(plans, cycles=2000, warmup=500)


def test_metric_tamper_is_caught():
    plans = [plan_lane(make_testbed_builder("lottery-static", "T8", WEIGHTS))]
    engine = _engine(plans, cycles=800)
    engine.cross_check(0)
    engine.m_words[0, 1] += 1
    with pytest.raises(VectorDivergenceError):
        engine.cross_check(0)


def test_arbiter_state_tamper_is_caught():
    plans = [
        plan_lane(make_testbed_builder("lottery-compensated", "T8", WEIGHTS))
    ]
    engine = _engine(plans, cycles=800)
    engine.cross_check(0)
    engine.lott_held[0] += 1
    with pytest.raises(VectorDivergenceError):
        engine.cross_check(0)


def test_unsupported_arbiter_is_rejected():
    with pytest.raises(UnsupportedConfigError):
        plan_lane(make_testbed_builder("round-robin", "T8", WEIGHTS))


def test_unsupported_generator_is_rejected():
    def build():
        arbiter = make_arbiter("lottery-static", 4, WEIGHTS)
        return build_single_bus_system(
            4,
            arbiter,
            generator_factory=lambda i, m: PoissonGenerator(
                "gen{}".format(i), m, FixedWords(4), 0.01, seed=i
            ),
        )

    with pytest.raises(UnsupportedConfigError):
        plan_lane(build)


def test_already_run_system_is_rejected():
    def build():
        arbiter = make_arbiter("lottery-static", 4, WEIGHTS)
        system, bus = build_single_bus_system(
            4, arbiter, generator_factory=lambda i, m: SaturatingGenerator(
                "gen{}".format(i), m, FixedWords(4), seed=i
            ),
        )
        system.run(10)
        return system, bus

    with pytest.raises(UnsupportedConfigError):
        plan_lane(build)


def test_lanes_must_share_master_count():
    def build_two():
        arbiter = make_arbiter("lottery-static", 2, [3, 1])
        return build_single_bus_system(2, arbiter)

    plans = [
        plan_lane(make_testbed_builder("lottery-static", "T8", WEIGHTS)),
        plan_lane(build_two),
    ]
    with pytest.raises(ValueError):
        VectorEngine(plans)
