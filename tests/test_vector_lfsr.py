"""VectorLFSR: per-lane streams must equal the scalar LFSR bit-for-bit."""

import numpy as np
import pytest

from repro.core.lfsr import LFSR
from repro.vector.lfsr import VectorLFSR


def _bank(widths, seeds, block_size):
    scalars = [
        LFSR(width, seed=seed) for width, seed in zip(widths, seeds)
    ]
    bank = VectorLFSR(
        np,
        [lfsr.jump_masks for lfsr in scalars],
        [lfsr.state for lfsr in scalars],
        block_size=block_size,
    )
    return scalars, bank


@pytest.mark.parametrize("block_size", [1, 3, 32])
def test_all_lanes_match_scalar_streams(block_size):
    widths = [2, 5, 8, 16, 16, 24, 32]
    seeds = [1, 3, 9, 1, 77, 5, 123456]
    scalars, bank = _bank(widths, seeds, block_size)
    every = np.arange(len(widths))
    for _ in range(50):
        values = bank.consume(every)
        expected = [lfsr.sample() for lfsr in scalars]
        assert values.tolist() == expected
    assert bank.state.tolist() == [lfsr.state for lfsr in scalars]


def test_partial_consumption_keeps_lanes_independent():
    # Lanes draw at different rates (only arbitrating lanes consume);
    # block refills must continue each stream exactly regardless of how
    # much of the previous block other lanes used.
    widths = [16, 16, 8, 24]
    seeds = [1, 2, 3, 4]
    scalars, bank = _bank(widths, seeds, block_size=4)
    schedule = [
        [0], [0, 1], [2], [0, 1, 2, 3], [3], [0], [1, 2], [0, 3],
        [0, 1, 2], [2, 3], [0], [1], [0, 1, 2, 3], [3, 0], [2],
    ]
    counts = [0, 0, 0, 0]
    for lanes in schedule:
        lanes = sorted(lanes)
        values = bank.consume(np.array(lanes))
        expected = [scalars[lane].sample() for lane in lanes]
        assert values.tolist() == expected
        for lane in lanes:
            counts[lane] += 1
    assert bank.state.tolist() == [lfsr.state for lfsr in scalars]
    assert counts != [counts[0]] * 4  # rates genuinely diverged


def test_single_lane_bank():
    scalars, bank = _bank([16], [42], block_size=8)
    lane = np.array([0])
    stream = [int(bank.consume(lane)[0]) for _ in range(30)]
    assert stream == [scalars[0].sample() for _ in range(30)]


def test_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        VectorLFSR(np, [(1, 2)], [1, 2])
    with pytest.raises(ValueError):
        VectorLFSR(np, [(1, 2)], [1], block_size=0)
