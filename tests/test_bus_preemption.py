"""Tests for preemptive arbitration (Section 2's optional feature)."""

from repro.arbiters.static_priority import StaticPriorityArbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.sim.kernel import Simulator


def make_bus(preemptive, num_masters=2):
    masters = [MasterInterface("m{}".format(i), i) for i in range(num_masters)]
    arbiter = StaticPriorityArbiter(list(range(1, num_masters + 1)))
    bus = SharedBus("bus", masters, arbiter, max_burst=16,
                    preemptive=preemptive)
    return bus, masters


def test_high_priority_preempts_mid_burst():
    bus, masters = make_bus(preemptive=True)
    sim = Simulator()
    sim.add(bus)
    low = masters[0].submit(10, 0)
    sim.run(3)  # low-priority master moves 3 words
    high = masters[1].submit(2, 3)
    sim.run(20)
    # The high-priority request completes immediately on arrival...
    assert high.completion_cycle == 4
    # ...and the displaced request resumes without losing progress:
    # 7 remaining words move at cycles 5-11.
    assert low.completion_cycle == 11
    assert bus.metrics.total_words == 12


def test_non_preemptive_bus_finishes_burst_first():
    bus, masters = make_bus(preemptive=False)
    sim = Simulator()
    sim.add(bus)
    masters[0].submit(10, 0)
    sim.run(3)
    high = masters[1].submit(2, 3)
    sim.run(20)
    # Must wait for the 10-word burst to finish.
    assert high.completion_cycle == 11


def test_preemptive_bus_conserves_words_and_throughput():
    bus, masters = make_bus(preemptive=True)
    sim = Simulator()
    sim.add(bus)
    masters[0].submit(7, 0)
    masters[1].submit(5, 0)
    sim.run(12)
    assert bus.metrics.total_words == 12
    assert bus.metrics.idle_cycles == 0
    assert all(not m.has_request for m in masters)


def test_preemption_interleaving_visible_in_latency():
    bus, masters = make_bus(preemptive=True)
    sim = Simulator()
    sim.add(bus)
    low = masters[0].submit(6, 0)
    masters[1].submit(6, 0)
    sim.run(12)
    # The low-priority request was stretched across the other's words.
    assert low.latency_cycles == 12
    assert low.latency_per_word == 2.0
