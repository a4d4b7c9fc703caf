"""Linear-feedback shift registers.

The static lottery manager's random number source is an LFSR
(Section 4.3): cheap in hardware, one new pseudo-random word per cycle.
This module implements Fibonacci LFSRs with maximal-length tap sets for
widths 2..32, giving period ``2**k - 1``.  A sample clocks the register
a whole word at once: the clocks compose into one GF(2) linear map,
applied as one table lookup per byte of the state.

A maximal LFSR never emits the all-zero state, so draws are uniform over
``[1, 2**k - 1]``.  :meth:`LFSR.draw` maps the state to ``[0, 2**k - 1)``
by subtracting one, which preserves uniformity over the full lottery
range when the ticket total is ``2**k`` minus the single missing value —
across a maximal period each value in ``[0, 2**k - 2]`` appears exactly
once, and value ``2**k - 1`` never, a bias of one part in ``2**k - 1``
that the paper's hardware shares.
"""

import functools

from repro.sim.snapshot import Snapshottable

# Maximal-length tap positions (1-indexed from the output bit), from the
# standard XAPP 052 table.  taps[k] -> tuple of bit positions whose XOR
# feeds back for a width-k register.
MAXIMAL_TAPS = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


def _compute_jump_masks(width, taps, steps_per_draw):
    """The GF(2) jump map of ``steps_per_draw`` clocks: output bit ``i``
    of the jumped state is the parity of ``state & masks[i]``.

    The register update is linear over GF(2), so the clocks collapse
    into one linear map.  Iterating the single-step symbolic update
    builds the masks: after a clock, bit 0 is the XOR of the tap masks
    and bit ``i`` inherits bit ``i-1``'s mask.
    """
    masks = [1 << i for i in range(width)]
    for _ in range(steps_per_draw):
        feedback = 0
        for tap in taps:
            feedback ^= masks[tap - 1]
        masks = [feedback] + masks[:-1]
    return tuple(masks)


def _byte_tables(masks):
    """One table per input byte of the jump map ``masks`` (256 entries,
    fewer for a partial top byte).

    By linearity the jumped state is the XOR of the images of the
    input's set bits; table ``b`` holds that XOR for every value of
    input byte ``b``, so a jump is one lookup per byte.  Entry ``v`` is
    entry ``v`` without its lowest bit, XOR the image of that bit.
    """
    width = len(masks)
    # images[j]: the output word one set input bit j maps to.
    images = [
        sum(1 << i for i, mask in enumerate(masks) if mask >> j & 1)
        for j in range(width)
    ]
    tables = []
    for low in range(0, width, 8):
        table = [0] * (1 << min(8, width - low))
        for value in range(1, len(table)):
            lowest = value & -value
            table[value] = (table[value ^ lowest]
                            ^ images[low + lowest.bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


# Every seed of a replication and every lane of a sweep clocks the same
# few registers; building their tables once per process keeps them out
# of each constructor.  The entries are immutable.
@functools.lru_cache(maxsize=256)
def _jump_map(width, taps, steps_per_draw):
    """``(jump masks, four byte tables)`` shared by every register with
    this width, tap tuple and clocks per sample.  Bytes a register
    narrower than 32 bits lacks get a one-entry table of zero, so
    :meth:`LFSR.sample` always has four."""
    masks = _compute_jump_masks(width, taps, steps_per_draw)
    tables = _byte_tables(masks)
    return masks, tables + ((0,),) * (4 - len(tables))


class LFSR(Snapshottable):
    """A Fibonacci LFSR of the given bit width.

    :param width: register width in bits (2..32 for maximal taps).
    :param seed: initial state; any nonzero integer.  It is taken
        modulo ``2**width``; a multiple of ``2**width`` is folded to
        ``seed % (2**width - 1)`` (or ``2**width - 1``) instead.
    :param taps: optional explicit tap positions (1-indexed); defaults to
        a maximal-length set.
    :param steps_per_draw: register clocks per sampled word (default:
        ``width``).  Consecutive LFSR states differ by a single shift, so
        their low bits are strongly correlated; clocking the register a
        full word between samples (the standard serial-LFSR practice,
        and cheap at bus clock rates since the register runs continuously
        while the lottery is only held per burst) decorrelates successive
        draws.
    """

    def __init__(self, width, seed=1, taps=None, steps_per_draw=None):
        if width < 2:
            raise ValueError("LFSR width must be at least 2")
        if taps is None:
            if width not in MAXIMAL_TAPS:
                raise ValueError(
                    "no maximal tap set known for width {}".format(width)
                )
            taps = MAXIMAL_TAPS[width]
        if any(t < 1 or t > width for t in taps):
            raise ValueError("tap positions must lie in [1, width]")
        self.width = width
        self.taps = tuple(taps)
        self._mask = (1 << width) - 1
        if seed == 0:
            raise ValueError("LFSR seed must be nonzero")
        if seed & self._mask:
            seed &= self._mask
        else:
            # A nonzero seed with no low bits (a multiple of 2**width):
            # fold its high bits in rather than reject it.
            seed = (seed % self._mask) or self._mask
        if steps_per_draw is None:
            steps_per_draw = width
        if steps_per_draw < 1:
            raise ValueError("steps_per_draw must be >= 1")
        self.steps_per_draw = steps_per_draw
        self.seed = seed
        self.state = seed
        self._jump_masks, (self._t0, self._t1, self._t2, self._t3) = (
            _jump_map(width, self.taps, steps_per_draw)
        )

    # The register's runtime state is exactly its current word (the seed
    # rides along so a restored LFSR still resets correctly).
    state_attrs = ("seed", "state")

    def reset(self):
        self.state = self.seed

    def step(self):
        """Advance one clock; returns the new state (never zero)."""
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        self.state = ((self.state << 1) | feedback) & self._mask
        return self.state

    def sample(self):
        """Advance ``steps_per_draw`` clocks in one jump; returns the new
        state — bit-identical to that many :meth:`step` calls."""
        state = self.state
        if state >> 16:
            result = (
                self._t0[state & 0xFF]
                ^ self._t1[state >> 8 & 0xFF]
                ^ self._t2[state >> 16 & 0xFF]
                ^ self._t3[state >> 24]
            )
        else:
            # The high bytes are zero and a linear map sends zero to
            # zero, so their lookups would add nothing.
            result = self._t0[state & 0xFF] ^ self._t1[state >> 8]
        self.state = result
        return result

    def sample_block(self, count):
        """Pre-draw ``count`` consecutive samples in one call.

        Returns a list of the next ``count`` :meth:`sample` values and
        leaves the register in the state of the last one, so a block is
        bit-identical to ``count`` sequential one-shot draws — blocks,
        single samples and snapshot save/restore boundaries can be
        interleaved freely without perturbing the stream.  This is the
        scalar reference for the batch engine's block pre-draws
        (:mod:`repro.vector`), which evaluate the same GF(2) jump map
        over whole lane arrays at once.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.sample() for _ in range(count)]

    @property
    def jump_masks(self):
        """The GF(2) jump map for one :meth:`sample`: output bit ``i`` is
        the parity of ``state & jump_masks[i]``.  Exported so the batch
        engine can lift the same linear map into vectorized draws."""
        return self._jump_masks

    def draw(self):
        """Sample a fresh word; value in ``[0, 2**width - 1)``."""
        return self.sample() - 1

    def draw_below(self, bound):
        """Sample a fresh word reduced into ``[0, bound)``.

        For the static manager ``bound`` is the power-of-two ticket total
        and the reduction is a simple bit mask; for other bounds this
        models the dynamic manager's modulo hardware.
        """
        if bound < 1:
            raise ValueError("bound must be positive")
        if bound & (bound - 1) == 0:
            return self.sample() & (bound - 1)
        return self.sample() % bound

    @property
    def period(self):
        """The sequence period for maximal taps: ``2**width - 1``."""
        return self._mask

    def __repr__(self):
        return "LFSR(width={}, taps={}, state={:#x})".format(
            self.width, self.taps, self.state
        )
