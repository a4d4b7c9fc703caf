# lb: module=repro.sim.fixture_good
"""LB101 true negatives: the blessed equivalents of everything banned."""

import os
import random
import zlib

import _random


class SeededStream:
    """random.Random wrapped behind an explicit seed is the blessed path."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def draw(self):
        return self._rng.random()


class SeededEngine:
    """So is the C engine behind it, seeded explicitly (this is what
    repro.sim.rng.RandomStream holds)."""

    def __init__(self, seed):
        self._rng = _random.Random(seed)

    def draw(self):
        return self._rng.random()


def arbitrate_sorted(masters):
    for master in sorted({"dma", "cpu", "dsp"}):
        if master in masters:
            return master
    return None


def sorted_listing(path):
    return sorted(os.listdir(path))


def stable_key(name):
    return zlib.crc32(name.encode("utf-8")) % 16


class Outcome:
    def __init__(self, winner):
        self.winner = winner

    def __hash__(self):
        # hash() inside __hash__ is how value objects compose hashes.
        return hash((type(self).__name__, self.winner))


def suppressed_wall_clock():
    import time

    return time.time()  # lb: noqa[LB101]
