"""Tests for the fault-injection subsystem and the recovery machinery."""

import pytest

from repro.arbiters.lottery import DynamicLotteryArbiter, StaticLotteryArbiter
from repro.bus.bridge import Bridge, BridgeTag
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.slave import Slave
from repro.core.lottery_manager import DynamicLotteryManager
from repro.experiments.fault_sweep import build_fault_testbed, run_fault_sweep
from repro.faults import FaultInjector, FaultPlan, RetryPolicy, StuckRandomSource
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStream


# -- FaultPlan / RetryPolicy configuration -------------------------------


def test_plan_validates_rates():
    with pytest.raises(ValueError):
        FaultPlan(word_error_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(grant_drop_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(slave_stall_cycles=(0, 4))
    with pytest.raises(ValueError):
        FaultPlan(lfsr_stuck_cycles=0)
    with pytest.raises(ValueError):
        FaultPlan(bridge_retry_delay=0)


def test_plan_uniform_and_active():
    assert not FaultPlan().active
    plan = FaultPlan.uniform(0.01)
    assert plan.active
    assert plan.word_error_rate == 0.01
    assert plan.grant_spurious_rate == pytest.approx(0.005)
    assert plan.lfsr_stuck_rate == pytest.approx(0.00125)
    override = FaultPlan.uniform(0.01, word_error_rate=0.0)
    assert override.word_error_rate == 0.0
    with pytest.raises(ValueError):
        FaultPlan.uniform(2.0)


def test_retry_policy_validation_and_disabled():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_backoff=1, backoff_base=8)
    assert RetryPolicy.disabled().max_retries == 0


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(backoff_base=8, backoff_factor=2.0, max_backoff=64,
                         jitter=0.0)
    delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4, 5)]
    assert delays == [8, 16, 32, 64, 64]


def test_backoff_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(backoff_base=10, backoff_factor=1.0, max_backoff=10,
                         jitter=0.5)
    first = [policy.delay(1, RandomStream(7, "jitter")) for _ in range(5)]
    second = [policy.delay(1, RandomStream(7, "jitter")) for _ in range(5)]
    assert first == second  # reproducible from the seed
    assert all(10 <= delay <= 15 for delay in first)


# -- master-side error-response path -------------------------------------


def test_error_completion_schedules_retry_then_reissues():
    iface = MasterInterface("m", 0, retry_policy=RetryPolicy(
        max_retries=2, backoff_base=4, backoff_factor=1.0, jitter=0.0))
    request = iface.submit(5, 0)
    request.remaining = 0  # transfer "finished" but corrupted
    assert iface.complete_with_error(request, 10) == "retry"
    assert iface.queue_depth == 0
    assert iface.retried_requests == 1
    assert request.remaining == 5  # prepare_retry restored the words
    assert request.retries == 1
    iface.service(13)  # before the backoff expires: still parked
    assert iface.queue_depth == 0
    iface.service(14)  # 10 + delay(1) = 14
    assert iface.queue_depth == 1
    assert iface.queue[0] is request


def test_retries_exhausted_aborts():
    iface = MasterInterface("m", 0, retry_policy=RetryPolicy(max_retries=1))
    request = iface.submit(3, 0)
    assert iface.complete_with_error(request, 0) == "retry"
    iface.service(10_000)
    assert iface.complete_with_error(iface.queue[0], 10_001) == "abort"
    assert request.aborted
    assert iface.aborted_requests == 1


def test_no_policy_means_first_error_aborts():
    iface = MasterInterface("m", 0)
    request = iface.submit(3, 0)
    assert iface.complete_with_error(request, 5) == "abort"
    assert request.aborted


def test_request_timeout_expires_never_granted_head():
    iface = MasterInterface("m", 0, retry_policy=RetryPolicy(
        max_retries=4, timeout=100, backoff_base=1, backoff_factor=1.0,
        jitter=0.0))
    request = iface.submit(3, 0)
    iface.service(100)  # exactly at the bound: not yet expired
    assert iface.queue_depth == 1
    iface.service(101)
    assert iface.timeout_requests == 1
    assert iface.queue_depth == 0  # parked for retry
    assert request.retries == 1


def test_request_timeout_spares_granted_attempts():
    iface = MasterInterface("m", 0,
                            retry_policy=RetryPolicy(timeout=10))
    request = iface.submit(3, 0)
    request.attempt_granted = True  # the bus's watchdog owns it now
    iface.service(1_000)
    assert iface.timeout_requests == 0
    assert iface.queue_depth == 1


def test_retire_removes_specific_request_not_head():
    # Regression: a retry released mid-burst lands at the queue front,
    # so completion must retire the in-flight request, not pop the head.
    iface = MasterInterface("m", 0, retry_policy=RetryPolicy())
    active = iface.submit(4, 0)
    retried = iface.submit(4, 1)
    iface._queue.remove(retried)
    iface._queue.appendleft(retried)  # retry re-entered at the front
    iface.retire(active)
    assert iface.queue_depth == 1
    assert iface.queue[0] is retried


# -- injector fault channels ---------------------------------------------


def _fault_bus(plan, retry_policy=None, masters=1, bus_timeout=None,
               slaves=None, seed=1):
    interfaces = [
        MasterInterface("m{}".format(i), i, retry_policy=retry_policy,
                        retry_seed=seed + i)
        for i in range(masters)
    ]
    bus = SharedBus(
        "bus",
        interfaces,
        StaticLotteryArbiter(tickets=[1] * masters, lfsr_seed=seed),
        slaves=slaves,
        bus_timeout=bus_timeout,
    )
    injector = FaultInjector("faults", plan, seed=seed)
    injector.attach_bus(bus)
    sim = Simulator()
    sim.add(injector)
    sim.add(bus)
    return sim, bus, interfaces, injector


def test_word_corruption_detected_retried_recovered():
    plan = FaultPlan(word_error_rate=0.05)
    sim, bus, (iface,), injector = _fault_bus(
        plan, retry_policy=RetryPolicy(max_retries=8))
    for _ in range(50):
        iface.submit(4, 0)
    sim.run(2_000)
    faults = bus.metrics.faults
    assert faults.injected["word_error"] > 0
    assert faults.detected > 0
    assert faults.retried > 0
    assert faults.recovered >= 1
    assert faults.aborted == 0
    assert faults.recovery_latency.total == faults.recovered
    assert injector.stats.injected == faults.injected


def test_word_corruption_without_retries_aborts():
    plan = FaultPlan(word_error_rate=1.0)  # every transfer corrupts
    sim, bus, (iface,), _ = _fault_bus(
        plan, retry_policy=RetryPolicy.disabled())
    iface.submit(4, 0)
    sim.run(50)
    faults = bus.metrics.faults
    assert faults.aborted == 1
    assert faults.recovered == 0
    assert iface.aborted_requests == 1


def test_grant_drop_idles_the_bus():
    plan = FaultPlan(grant_drop_rate=1.0)
    sim, bus, (iface,), injector = _fault_bus(plan)
    iface.submit(4, 0)
    sim.run(50)
    assert injector.stats.injected["grant_drop"] == 50
    assert bus.metrics.busy_cycles == 0
    assert bus.metrics.idle_cycles == 50


def test_spurious_grant_to_idle_master_is_detected_not_fatal():
    plan = FaultPlan(grant_spurious_rate=1.0)
    sim, bus, interfaces, _ = _fault_bus(plan, masters=2)
    for cycle in range(0, 200, 4):
        interfaces[0].submit(2, cycle)  # master 1 stays idle
    sim.run(200)  # must not raise BusProtocolError
    faults = bus.metrics.faults
    assert faults.injected["grant_spurious"] > 0
    assert faults.detected > 0  # some spurious grants decoded to master 1
    assert bus.metrics.busy_cycles > 0  # some decoded back to master 0


class _HungSlave(Slave):
    """A slave that wedges after serving its first word."""

    def serve_word(self):
        super().serve_word()
        return 1_000_000


def test_bus_timeout_watchdog_aborts_hung_transfer():
    sim, bus, (iface,), _ = _fault_bus(
        FaultPlan(),
        retry_policy=RetryPolicy.disabled(),
        bus_timeout=20,
        slaves=[_HungSlave("hung", 0)],
    )
    iface.submit(4, 0)
    sim.run(100)
    faults = bus.metrics.faults
    assert faults.timeouts == 1
    assert faults.aborted == 1
    assert bus._burst is None  # the bus is free again
    assert bus.metrics.stall_cycles <= 25


def test_stuck_random_source_wedges_and_releases():
    class _Inner:
        def __init__(self):
            self.draws = 0

        def draw_below(self, bound):
            self.draws += 1
            return self.draws % bound

    source = StuckRandomSource(_Inner())
    assert not source.stuck
    source.stick(until=10)
    assert source.stuck
    values = {source.draw_below(8) for _ in range(10)}
    assert len(values) == 1  # constant while wedged
    assert source.stuck_draws == 10
    source.release()
    assert not source.stuck
    assert len({source.draw_below(8) for _ in range(8)}) > 1  # varied again
    source.reset()
    assert source.stuck_draws == 0


def test_injector_drives_stuck_windows_on_the_lottery():
    plan = FaultPlan(lfsr_stuck_rate=1.0, lfsr_stuck_cycles=5)
    sim, bus, (iface,), injector = _fault_bus(plan)
    (wrapper, owner) = injector._sources[0]
    assert owner is bus
    assert isinstance(bus.arbiter.manager.random_source, StuckRandomSource)
    sim.run(1)
    assert wrapper.stuck
    assert wrapper.stuck_until == 5
    # The window expires at cycle 5 (release tick) and rate 1.0 re-sticks
    # on the following tick.
    sim.run(6)
    assert injector.stats.injected["lfsr_stuck"] >= 2


def test_ticket_outage_degrades_gracefully():
    manager = DynamicLotteryManager([1, 2, 3, 4])
    manager.disable_ticket_channel()
    manager.disable_ticket_channel()  # already down: one event, not two
    assert manager.degradation_events == 1
    manager.set_tickets(0, 9)
    manager.set_all_tickets([5, 5, 5, 5])
    assert manager.dropped_updates == 5
    assert manager.tickets == (1, 2, 3, 4)  # last-known table survives
    assert manager.draw([1, 1, 1, 1]) is not None  # still granting
    manager.restore_ticket_channel()
    manager.set_tickets(0, 9)
    assert manager.tickets[0] == 9
    manager.reset()
    assert manager.ticket_channel_up
    assert manager.degradation_events == 0


def test_injector_windows_ticket_outage():
    arbiter = DynamicLotteryArbiter(tickets=[1, 1])
    interfaces = [MasterInterface("m0", 0), MasterInterface("m1", 1)]
    bus = SharedBus("bus", interfaces, arbiter)
    plan = FaultPlan(ticket_outage_rate=1.0, ticket_outage_cycles=3)
    injector = FaultInjector("faults", plan, seed=1)
    injector.attach_bus(bus)
    sim = Simulator()
    sim.add(injector)
    sim.add(bus)
    sim.run(1)
    manager = arbiter.manager
    assert not manager.ticket_channel_up
    # The outage expires at cycle 3 (restore tick) and rate 1.0 takes the
    # channel down again on the following tick.
    sim.run(4)
    assert manager.degradation_events >= 2
    assert bus.metrics.faults.degradations == manager.degradation_events


def test_bridge_retransmits_lost_forwards():
    cpu = MasterInterface("cpu", 0)
    bridge_master = MasterInterface("bridge.m", 0)
    far_memory = Slave("far.mem", 0)
    bridge = Bridge("bridge", slave_id=0, far_master=bridge_master)
    near_bus = SharedBus(
        "near", [cpu], StaticLotteryArbiter(tickets=[1]), slaves=[bridge]
    )
    far_bus = SharedBus(
        "far",
        [bridge_master],
        StaticLotteryArbiter(tickets=[1]),
        slaves=[far_memory],
    )
    bridge.attach(near_bus)
    plan = FaultPlan(bridge_loss_rate=0.5, bridge_retry_delay=2)
    injector = FaultInjector("faults", plan, seed=3)
    injector.attach_bridge(bridge)
    sim = Simulator()
    sim.add(injector)
    sim.add(near_bus)
    sim.add(bridge)
    sim.add(far_bus)
    for cycle in range(0, 80, 8):
        cpu.submit(2, cycle, slave=0, tag=BridgeTag(remote_slave=0))
    sim.run(500)
    assert bridge.retransmits > 0  # losses happened...
    assert bridge.forwarded == 10  # ...but every forward got through
    assert far_memory.words_served == 20


def test_attach_system_wires_buses_and_bridge_slaves():
    cpu = MasterInterface("cpu", 0)
    bridge_master = MasterInterface("bridge.m", 0)
    bridge = Bridge("bridge", slave_id=0, far_master=bridge_master)
    near_bus = SharedBus(
        "near", [cpu], StaticLotteryArbiter(tickets=[1]), slaves=[bridge]
    )
    far_bus = SharedBus(
        "far", [bridge_master], StaticLotteryArbiter(tickets=[1])
    )
    bridge.attach(near_bus)
    from repro.bus.topology import BusSystem

    system = BusSystem()
    system.add_bus(near_bus)
    system.add_bus(far_bus)
    injector = FaultInjector("faults", FaultPlan.uniform(0.01), seed=1)
    injector.attach_system(system)
    assert near_bus.injector is injector
    assert far_bus.injector is injector
    assert bridge.injector is injector


# -- determinism and reset -----------------------------------------------


def test_fault_runs_replay_exactly_from_the_seed():
    def one_run():
        system, bus, injector, checker = build_fault_testbed(
            seed=5,
            plan=FaultPlan.uniform(0.004),
            retry_policy=RetryPolicy(max_retries=8, timeout=5_000),
        )
        system.run(4_000)
        return (
            bus.metrics.bandwidth_shares(),
            bus.metrics.faults.summary(),
        )

    assert one_run() == one_run()


def test_injector_reset_clears_windows_and_stats():
    plan = FaultPlan(lfsr_stuck_rate=1.0, word_error_rate=0.5)
    sim, bus, (iface,), injector = _fault_bus(plan)
    iface.submit(4, 0)
    sim.run(20)
    assert injector.stats.active
    injector.reset()
    assert not injector.stats.active
    (wrapper, _) = injector._sources[0]
    assert not wrapper.stuck


# -- the sweep experiment ------------------------------------------------


def test_fault_sweep_meets_acceptance_criteria():
    result = run_fault_sweep(cycles=8_000, seed=1)
    # Completed => zero CheckerViolations at every fault rate.
    top = len(result.rates) - 1
    assert result.rates[0] == 0.0
    faults = result.fault_summaries[top]
    assert faults["recovered"] >= 1
    assert faults["aborted"] == 0
    for row in range(len(result.rates)):
        assert result.max_share_delta_pp(row) <= 2.0
        assert result.utilizations[row] > 0.9
    assert result.no_retry is not None
    assert result.no_retry["aborted"] > 0
    assert result.degradation is not None
    assert result.degradation["events"] >= 1
    assert result.degradation["dropped_updates"] >= 1
    report = result.format_report()
    assert "no-retry control" in report
    assert "degradation" in report


def test_fault_sweep_rejects_bad_rates():
    with pytest.raises(ValueError, match="fault rates"):
        run_fault_sweep(cycles=100, fault_rates=(-0.5,))
    with pytest.raises(ValueError, match="fault rates"):
        run_fault_sweep(cycles=100, fault_rates=(0.0, 2.0))


def test_fault_free_run_keeps_fault_section_inert():
    system, bus, injector, checker = build_fault_testbed(seed=1, plan=None)
    assert injector is None
    system.run(2_000)
    assert not bus.metrics.faults.active
    summary = bus.metrics.summary()
    assert summary["faults"]["injected_total"] == 0
