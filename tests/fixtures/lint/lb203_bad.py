# lb: module=repro.experiments.fixture_seedless
"""LB203 true positives: seedless, None-defaulted and dropped seeds."""


def run_seedless_sweep(cycles=1000, scale=1.0):
    return cycles * scale


def run_none_seeded(cycles=1000, seed=None):
    return (cycles, seed)


def run_dropped_seed(cycles=1000, seed=1):
    # Accepts a seed but never threads it into anything.
    return cycles * 2


def run_sim(cycles, seed=1):
    # Forwards the seed to a helper that drops it on the floor.
    return helper(cycles, seed)


def helper(cycles, seed):
    return cycles * 2
