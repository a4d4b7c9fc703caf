"""Vectorized LFSR streams with block pre-draws.

The scalar :class:`repro.core.lfsr.LFSR` collapses ``steps_per_draw``
register clocks into one GF(2) linear map (``jump_masks``): output bit
``i`` of a sample is the parity of ``state & jump_masks[i]``.  That map
is data-independent, so it vectorizes directly: stack every lane's
masks into a ``(max_width, lanes)`` array and one sample step for *all*
lanes is a broadcast AND, a popcount-parity, and a shifted sum.

Draws are pre-generated in blocks of ``block_size`` samples per lane
(the ISSUE's "LFSR ticket draws pre-generated in blocks").  Each lane
consumes its block through its own cursor; when any lane about to draw
has exhausted the block, the whole block is regenerated from the
current per-lane states.  Because a lane's tracked state is always the
last sample it *consumed* (not the last one precomputed), regeneration
continues every stream exactly where it left off — blocks are
bit-identical to sequential :meth:`repro.core.lfsr.LFSR.sample` calls,
which is what the equivalence tests pin.
"""


class VectorLFSR:
    """A bank of per-lane Fibonacci LFSRs advanced together.

    :param np: the numpy module.
    :param masks: per-lane jump-mask tuples (``LFSR.jump_masks``); lanes
        may have different widths — shorter mask tuples are zero-padded,
        and a zero mask row contributes nothing to that lane's samples.
    :param states: per-lane current register states (``LFSR.state``).
    :param block_size: samples precomputed per refill.
    """

    def __init__(self, np, masks, states, block_size=32):
        if len(masks) != len(states):
            raise ValueError("one mask tuple and one state per lane")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._np = np
        lanes = len(states)
        width = max((len(m) for m in masks), default=1) or 1
        mask_array = np.zeros((width, lanes), dtype=np.uint64)
        for lane, lane_masks in enumerate(masks):
            for bit, mask in enumerate(lane_masks):
                mask_array[bit, lane] = mask
        self._masks = mask_array
        self._shifts = np.arange(width, dtype=np.uint64)[:, None]
        self.state = np.asarray(states, dtype=np.uint64)
        self.block_size = block_size
        self._block = None
        self._cursor = np.zeros(lanes, dtype=np.int64)

    @property
    def num_lanes(self):
        return len(self.state)

    def _sample_all(self, states):
        """One jump for every lane: ``(lanes,)`` states -> next states."""
        np = self._np
        # Per-element parity of the masked states (0 or 1, uint64).
        bits = (np.bitwise_count(states[None, :] & self._masks)
                .astype(np.uint64) & np.uint64(1))
        return (bits << self._shifts).sum(axis=0, dtype=np.uint64)

    def _refill(self):
        np = self._np
        block = np.empty((self.block_size, self.num_lanes), dtype=np.uint64)
        states = self.state
        for row in range(self.block_size):
            states = self._sample_all(states)
            block[row] = states
        self._block = block
        self._cursor[:] = 0

    def consume(self, lanes):
        """The next sample for each lane in ``lanes`` (unique indices).

        Advances only the named lanes; returns their new states as an
        int64 array (register widths are <= 32 bits, so the conversion
        is lossless).
        """
        np = self._np
        if self._block is None or (
            self._cursor[lanes] >= self.block_size
        ).any():
            self._refill()
        values = self._block[self._cursor[lanes], lanes]
        self._cursor[lanes] += 1
        self.state[lanes] = values
        return values.astype(np.int64)
