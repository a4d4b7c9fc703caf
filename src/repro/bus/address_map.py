"""System address maps and bus address decoding.

Real masters issue *addresses*, not slave indices; the bus's address
decoder maps each transaction onto the slave whose region contains it.
:class:`AddressMap` is that decoder: named, non-overlapping regions,
each bound to a slave index, with the usual SoC memory-map operations
(decode, region queries, overlap/alignment validation, map rendering).

:class:`AddressedMaster` wraps a
:class:`~repro.bus.master.MasterInterface` so components can submit by
address; bursts that would cross a region boundary are rejected, as a
real decoder would signal a bus error.
"""


class AddressError(ValueError):
    """Bad region definition or undecodable address."""


class Region:
    """One slave's window in the system address space."""

    __slots__ = ("name", "base", "size", "slave")

    def __init__(self, name, base, size, slave):
        if base < 0:
            raise AddressError("region base must be non-negative")
        if size < 1:
            raise AddressError("region size must be >= 1")
        if slave < 0:
            raise AddressError("slave index must be non-negative")
        self.name = name
        self.base = base
        self.size = size
        self.slave = slave

    @property
    def end(self):
        """One past the last valid address."""
        return self.base + self.size

    def contains(self, address):
        return self.base <= address < self.end

    def overlaps(self, other):
        return self.base < other.end and other.base < self.end

    def __repr__(self):
        return "Region({!r}, 0x{:08x}..0x{:08x} -> slave {})".format(
            self.name, self.base, self.end - 1, self.slave
        )


class AddressMap:
    """A set of non-overlapping regions with decode."""

    def __init__(self):
        self._regions = []
        self._by_name = {}

    def add_region(self, name, base, size, slave):
        """Register a region; rejects duplicates and overlaps."""
        if name in self._by_name:
            raise AddressError("duplicate region name {!r}".format(name))
        region = Region(name, base, size, slave)
        for existing in self._regions:
            if region.overlaps(existing):
                raise AddressError(
                    "region {!r} overlaps {!r}".format(name, existing.name)
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self._by_name[name] = region
        return region

    def regions(self):
        """Regions in ascending base order."""
        return list(self._regions)

    def region(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise AddressError("unknown region {!r}".format(name))

    def decode(self, address):
        """(slave_index, offset_within_region) for an address.

        Binary search over the sorted regions; raises
        :class:`AddressError` for holes in the map.
        """
        lo, hi = 0, len(self._regions) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            region = self._regions[mid]
            if address < region.base:
                hi = mid - 1
            elif address >= region.end:
                lo = mid + 1
            else:
                return region.slave, address - region.base
        raise AddressError("address 0x{:x} maps to no region".format(address))

    def decode_burst(self, address, words, word_bytes=4):
        """Decode a burst; rejects bursts crossing a region boundary."""
        if words < 1:
            raise AddressError("a burst carries at least one word")
        slave, _ = self.decode(address)
        last = address + words * word_bytes - 1
        try:
            last_slave, _ = self.decode(last)
        except AddressError:
            last_slave = None
        if last_slave != slave:
            raise AddressError(
                "burst 0x{:x}+{}w crosses a region boundary".format(
                    address, words
                )
            )
        return slave

    def format_map(self):
        """The memory map as an aligned text table."""
        lines = ["address map:"]
        for region in self._regions:
            lines.append(
                "  0x{:08x}-0x{:08x}  {:<12} -> slave {}".format(
                    region.base, region.end - 1, region.name, region.slave
                )
            )
        return "\n".join(lines)


class AddressedMaster:
    """Address-based submission wrapper over a MasterInterface."""

    def __init__(self, interface, address_map, word_bytes=4):
        if word_bytes < 1:
            raise AddressError("word_bytes must be >= 1")
        self.interface = interface
        self.address_map = address_map
        self.word_bytes = word_bytes
        self.decode_errors = 0

    def submit(self, address, words, cycle, tag=None):
        """Decode and enqueue; raises AddressError on bad addresses."""
        try:
            slave = self.address_map.decode_burst(
                address, words, word_bytes=self.word_bytes
            )
        except AddressError:
            self.decode_errors += 1
            raise
        return self.interface.submit(words, cycle, slave=slave, tag=tag)
