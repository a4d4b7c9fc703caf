"""Integration tests combining extension features."""

import pytest

from repro.arbiters.lottery import StaticLotteryArbiter
from repro.arbiters.registry import make_arbiter
from repro.bus.address_map import AddressedMaster, AddressMap
from repro.bus.bus import SharedBus
from repro.bus.checker import BusChecker
from repro.bus.master import MasterInterface
from repro.bus.network import BusNetwork
from repro.bus.slave import Slave
from repro.bus.topology import build_single_bus_system
from repro.metrics.histogram import LatencyDistribution
from repro.sim.kernel import Simulator
from repro.traffic.classes import get_traffic_class


def test_preemptive_lottery_bus_with_checker():
    arbiter = make_arbiter("lottery-static", 4, [1, 2, 3, 4])
    system, bus = build_single_bus_system(
        4, arbiter, get_traffic_class("T8").generator_factory(seed=1)
    )
    bus.preemptive = True
    checker = system.add_monitor(BusChecker("chk", bus, starvation_bound=3000))
    system.run(15_000)
    # Per-word lotteries: grants == words, invariants hold throughout.
    assert bus.metrics.utilization() == pytest.approx(1.0, abs=0.01)
    grants = sum(s.grants for s in bus.metrics.masters)
    assert grants == bus.metrics.total_words
    assert checker.worst_wait < 3000


def test_addressed_submissions_route_to_the_decoded_slave():
    address_map = AddressMap()
    address_map.add_region("sram", 0x0000, 0x10000, slave=0)
    address_map.add_region("dram", 0x8000_0000, 0x10000, slave=1)

    interface = MasterInterface("cpu.if", 0)
    arbiter = StaticLotteryArbiter(tickets=[1])
    bus = SharedBus(
        "bus",
        [interface],
        arbiter,
        slaves=[Slave("sram", 0), Slave("dram", 1)],
    )
    addressed = AddressedMaster(interface, address_map)

    # Three 8-word bursts into the DRAM window, routed by address alone.
    for chunk in range(3):
        addressed.submit(0x8000_0000 + chunk * 32, 8, cycle=0)
    sim = Simulator()
    sim.add(bus)
    sim.run(60)
    assert bus.slaves[1].words_served == 24
    assert bus.slaves[0].words_served == 0
    assert addressed.decode_errors == 0


def test_lottery_network_with_histograms():
    net = BusNetwork()
    net.add_channel(
        "sys", lambda n: StaticLotteryArbiter(tickets=[2] * n, lfsr_seed=3)
    )
    net.add_channel(
        "io", lambda n: StaticLotteryArbiter(tickets=[1] * n, lfsr_seed=4)
    )
    net.add_master("cpu", "sys")
    net.add_master("nic", "io")
    net.add_slave("mem", "sys")
    net.add_slave("flash", "io")
    net.add_bridge("sys", "io")
    system = net.build()

    distribution = LatencyDistribution(2)
    net.bus("io").add_completion_hook(distribution.on_completion)
    for cycle_slot in range(10):
        net.submit("cpu", "flash", words=4, cycle=0)
        net.submit("nic", "flash", words=4, cycle=0)
    system.run(300)
    # Both the bridge (master 0 on io) and the NIC completed transfers.
    rows = distribution.summary_rows()
    assert rows[0][1] == 10
    assert rows[1][1] == 10


def test_weighted_rr_vs_lottery_same_shares():
    results = {}
    for name in ("weighted-rr", "lottery-dynamic"):
        arbiter = make_arbiter(name, 4, [1, 2, 3, 4])
        system, bus = build_single_bus_system(
            4, arbiter, get_traffic_class("T9").generator_factory(seed=6)
        )
        system.run(40_000)
        results[name] = bus.metrics.bandwidth_shares()
    for a, b in zip(results["weighted-rr"], results["lottery-dynamic"]):
        assert a == pytest.approx(b, abs=0.03)


def test_cli_exposes_hwscale(capsys):
    from repro.cli import main

    assert main(["hwscale"]) == 0
    out = capsys.readouterr().out
    assert "crossover" in out
