"""Lane planning: turning scalar systems into batch-engine lanes.

A *lane* is one complete simulated system (bus + masters + slaves +
generators + arbiter) occupying one column of the engine's
struct-of-arrays state.  :func:`plan_lane` inspects a freshly built
scalar system and either extracts everything the engine needs into a
:class:`LanePlan` or raises :class:`UnsupportedConfigError` naming the
feature that forces the scalar path — the backend turns that into a
per-point fallback, never a failure.

Supported configurations (everything else falls back):

* exactly one plain :class:`~repro.bus.bus.SharedBus` — no preemption,
  split transactions, bus timeout, fault injector, or completion hooks;
* plain :class:`~repro.bus.master.MasterInterface` masters (no retry
  policy, no queue bound) and plain :class:`~repro.bus.slave.Slave`
  slaves (wait states are fine);
* :class:`~repro.traffic.generator.SaturatingGenerator` /
  :class:`~repro.traffic.generator.ClosedLoopGenerator` sources (at most
  one per master);
* lottery-family arbiters (static / dynamic / compensated) drawing from
  a hardware :class:`~repro.core.lfsr.LFSR`, plus the static-priority
  arbiter.
"""

import pickle

from repro.arbiters.lottery import (
    CompensatedLotteryArbiter,
    DynamicLotteryArbiter,
    StaticLotteryArbiter,
)
from repro.arbiters.static_priority import StaticPriorityArbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.slave import Slave
from repro.core.lfsr import LFSR
from repro.traffic.generator import ClosedLoopGenerator, SaturatingGenerator
from repro.traffic.message import FixedWords

# The static table is materialized per lane as a (2**M, M) block; cap
# the exponent so a pathological master count cannot explode memory.
MAX_TABLE_MASTERS = 8

SUPPORTED_FAMILIES = (
    "lottery-static",
    "lottery-dynamic",
    "lottery-compensated",
    "static-priority",
)
LOTTERY_FAMILIES = SUPPORTED_FAMILIES[:3]


class UnsupportedConfigError(ValueError):
    """The system uses a feature the batch engine does not model."""


class VectorDivergenceError(RuntimeError):
    """A cross-checked lane disagreed with the scalar simulator."""


class GeneratorSpec:
    """Per-master traffic source config lifted off a built generator."""

    __slots__ = ("kind", "depth", "mean_think", "fixed_words", "words",
                 "rng", "slave")

    def __init__(self, kind, depth, mean_think, fixed_words, words, rng,
                 slave):
        self.kind = kind                # "saturating" | "closedloop"
        self.depth = depth              # saturating backlog target
        self.mean_think = mean_think    # closed-loop think mean
        self.fixed_words = fixed_words  # int when the size draws no RNG
        self.words = words              # the distribution object
        self.rng = rng                  # the generator's RandomStream
        self.slave = slave


class LanePlan:
    """Everything the engine needs to host one system as a lane."""

    __slots__ = ("label", "num_masters", "max_burst", "arbitration_cycles",
                 "slave_setup", "slave_per_word", "generators", "profile",
                 "builder")

    def __init__(self, label, num_masters, max_burst, arbitration_cycles,
                 slave_setup, slave_per_word, generators, profile, builder):
        self.label = label
        self.num_masters = num_masters
        self.max_burst = max_burst
        self.arbitration_cycles = arbitration_cycles
        self.slave_setup = slave_setup
        self.slave_per_word = slave_per_word
        self.generators = generators    # one GeneratorSpec or None per master
        self.profile = profile          # arbiter vector_profile() dict
        self.builder = builder          # () -> (system, bus), fresh twin


def _require(condition, reason):
    if not condition:
        raise UnsupportedConfigError(reason)


def _plan_generator(generator, master_index, num_slaves):
    _require(
        0 <= generator.slave < num_slaves,
        "generator targets slave {} of {}".format(generator.slave,
                                                  num_slaves),
    )
    words = generator.words
    fixed = words.words if isinstance(words, FixedWords) else None
    if type(generator) is SaturatingGenerator:
        return GeneratorSpec("saturating", generator.depth, 0, fixed, words,
                             generator._rng, generator.slave)
    if type(generator) is ClosedLoopGenerator:
        _require(generator._think == 0, "closed-loop source already thinking")
        return GeneratorSpec("closedloop", 0, generator.mean_think, fixed,
                             words, generator._rng, generator.slave)
    raise UnsupportedConfigError(
        "generator type {}".format(type(generator).__name__)
    )


def _plan_arbiter(arbiter):
    _require(
        hasattr(arbiter, "vector_profile"),
        "arbiter {} exports no vector profile".format(
            type(arbiter).__name__
        ),
    )
    profile = arbiter.vector_profile()
    family = profile["family"]
    _require(family in SUPPORTED_FAMILIES,
             "arbiter family {}".format(family))
    if family in LOTTERY_FAMILIES:
        source = profile["random_source"]
        _require(
            type(source) is LFSR,
            "lottery random source {}".format(type(source).__name__),
        )
    if family == "lottery-dynamic":
        _require(profile["ticket_channel_up"],
                 "ticket channel is faulted down")
    return profile


def plan_lane(builder, label=None):
    """Build a fresh system via ``builder`` and plan it as a lane.

    ``builder`` must be a zero-argument callable returning a
    ``(BusSystem, SharedBus)`` pair (the :func:`build_single_bus_system`
    shape); it is kept on the plan so a strict cross-check can construct
    an untouched scalar twin later.  Raises
    :class:`UnsupportedConfigError` for anything the engine cannot
    reproduce bit-identically.
    """
    system, bus = builder()
    _require(len(system.buses) == 1 and system.buses[0] is bus,
             "multi-bus topology")
    _require(not system.monitors, "registered monitors")
    _require(type(bus) is SharedBus, "bus type {}".format(type(bus).__name__))
    _require(not bus.preemptive, "preemptive arbitration")
    _require(not bus.split_transactions, "split transactions")
    _require(bus.bus_timeout is None, "bus watchdog timeout")
    _require(bus.injector is None, "fault injector attached")
    _require(not bus._completion_hooks, "completion hooks attached")
    _require(bus._burst is None and bus._stall == 0
             and bus.metrics.cycles == 0, "system already run")
    for master in bus.masters:
        _require(type(master) is MasterInterface,
                 "master type {}".format(type(master).__name__))
        _require(master.retry_policy is None, "retry policy installed")
        _require(master.max_queue is None, "bounded master queue")
        _require(master.queue_depth == 0, "master queue not empty")
    for slave in bus.slaves:
        _require(type(slave) is Slave,
                 "slave type {}".format(type(slave).__name__))
    num_masters = len(bus.masters)
    generators = [None] * num_masters
    ids = {id(master): index for index, master in enumerate(bus.masters)}
    for generator in system.generators:
        index = ids.get(id(generator.interface))
        _require(index is not None, "generator wired to a foreign master")
        _require(generators[index] is None,
                 "two generators share master {}".format(index))
        generators[index] = _plan_generator(generator, index,
                                            len(bus.slaves))
    profile = _plan_arbiter(bus.arbiter)
    if profile["family"] == "lottery-static":
        _require(num_masters <= MAX_TABLE_MASTERS,
                 "{} masters exceed the static-table cap".format(num_masters))
    return LanePlan(
        label=label,
        num_masters=num_masters,
        max_burst=bus.max_burst,
        arbitration_cycles=bus.arbitration_cycles,
        slave_setup=[slave.setup_wait_states for slave in bus.slaves],
        slave_per_word=[slave.per_word_wait_states for slave in bus.slaves],
        generators=generators,
        profile=profile,
        builder=builder,
    )


def arbiter_check_state(arbiter):
    """The arbiter-side state folded into a lane fingerprint.

    Covers everything the engine replays beyond the metrics summary:
    lottery counters, the LFSR register, and live ticket state — enough
    that an RNG- or compensation-path divergence cannot hide behind
    matching bandwidth numbers.
    """
    if isinstance(arbiter, CompensatedLotteryArbiter):
        manager = arbiter.manager
        return {
            "family": "lottery-compensated",
            "lotteries_held": manager.lotteries_held,
            "tickets": tuple(manager.tickets),
            "factors": tuple(manager.policy.factors),
            "lfsr_state": manager._manager.random_source.state,
        }
    if isinstance(arbiter, StaticLotteryArbiter):
        manager = arbiter.manager
        return {
            "family": "lottery-static",
            "lotteries_held": manager.lotteries_held,
            "rejected_draws": manager.rejected_draws,
            "lfsr_state": manager.random_source.state,
        }
    if isinstance(arbiter, DynamicLotteryArbiter):
        manager = arbiter.manager
        return {
            "family": "lottery-dynamic",
            "lotteries_held": manager.lotteries_held,
            "tickets": tuple(manager.tickets),
            "lfsr_state": manager.random_source.state,
        }
    if isinstance(arbiter, StaticPriorityArbiter):
        return {"family": "static-priority"}
    return {"family": type(arbiter).__name__}


def scalar_fingerprint(bus):
    """Canonical fingerprint of a scalar system's observable state."""
    return pickle.dumps(
        (bus.metrics.summary(), arbiter_check_state(bus.arbiter)),
        protocol=2,
    )
