"""Tests for address maps and decode."""

import pytest

from repro.bus.address_map import AddressedMaster, AddressError, AddressMap
from repro.bus.master import MasterInterface


@pytest.fixture
def soc_map():
    address_map = AddressMap()
    address_map.add_region("sram", 0x0000_0000, 0x1_0000, slave=0)
    address_map.add_region("periph", 0x4000_0000, 0x1000, slave=1)
    address_map.add_region("ddr", 0x8000_0000, 0x100_0000, slave=2)
    return address_map


def test_decode_hits_the_right_region(soc_map):
    assert soc_map.decode(0x0) == (0, 0)
    assert soc_map.decode(0xFFFF) == (0, 0xFFFF)
    assert soc_map.decode(0x4000_0004) == (1, 4)
    assert soc_map.decode(0x8000_1000) == (2, 0x1000)


def test_holes_raise(soc_map):
    with pytest.raises(AddressError, match="no region"):
        soc_map.decode(0x2000_0000)
    with pytest.raises(AddressError):
        soc_map.decode(0x4000_1000)  # one past the peripheral window


def test_overlap_rejected(soc_map):
    with pytest.raises(AddressError, match="overlaps"):
        soc_map.add_region("bad", 0x4000_0800, 0x1000, slave=3)


def test_duplicate_name_rejected(soc_map):
    with pytest.raises(AddressError, match="duplicate"):
        soc_map.add_region("sram", 0x9000_0000, 0x100, slave=3)


def test_region_lookup_and_repr(soc_map):
    region = soc_map.region("ddr")
    assert region.slave == 2
    assert "ddr" in repr(region)
    with pytest.raises(AddressError):
        soc_map.region("flash")


def test_regions_sorted_by_base():
    address_map = AddressMap()
    address_map.add_region("high", 0x1000, 0x100, slave=1)
    address_map.add_region("low", 0x0, 0x100, slave=0)
    assert [r.name for r in address_map.regions()] == ["low", "high"]


def test_decode_burst_within_region(soc_map):
    assert soc_map.decode_burst(0x8000_0000, 16) == 2


def test_decode_burst_crossing_boundary_rejected(soc_map):
    # 16 words x 4 bytes ending beyond the peripheral window.
    with pytest.raises(AddressError, match="crosses"):
        soc_map.decode_burst(0x4000_0FF0, 16)


def test_format_map(soc_map):
    text = soc_map.format_map()
    assert "sram" in text
    assert "0x80000000" in text


def test_addressed_master_submits_decoded_slave(soc_map):
    interface = MasterInterface("cpu", 0)
    master = AddressedMaster(interface, soc_map)
    request = master.submit(0x4000_0010, 2, cycle=0)
    assert request.slave == 1


def test_addressed_master_counts_decode_errors(soc_map):
    interface = MasterInterface("cpu", 0)
    master = AddressedMaster(interface, soc_map)
    with pytest.raises(AddressError):
        master.submit(0x2000_0000, 1, cycle=0)
    assert master.decode_errors == 1
    assert interface.queue_depth == 0


def test_addressed_master_end_to_end(soc_map):
    from repro.arbiters.round_robin import RoundRobinArbiter
    from repro.bus.bus import SharedBus
    from repro.bus.slave import Slave
    from repro.sim.kernel import Simulator

    interface = MasterInterface("cpu", 0)
    slaves = [Slave("s{}".format(i), i) for i in range(3)]
    bus = SharedBus("bus", [interface], RoundRobinArbiter(1), slaves=slaves)
    master = AddressedMaster(interface, soc_map)
    sim = Simulator()
    sim.add(bus)
    master.submit(0x8000_0000, 4, cycle=0)
    sim.run(10)
    assert slaves[2].words_served == 4
