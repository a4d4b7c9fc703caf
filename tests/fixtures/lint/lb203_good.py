# lb: module=repro.experiments.fixture_seeded
"""LB203 true negatives: fixed-default seeds reaching sinks directly, via
hops, via closures and via stores; a deterministic entry point opting out."""

import random


def run_sim(cycles, seed=1):
    rng = make_generator(seed)
    return sum(rng.random() for _ in range(cycles))


def make_generator(seed):
    return random.Random(seed)


def run_factory(cycles, seed=1):
    # Closure capture: the nested function consumes the outer seed.
    def build():
        return random.Random(seed)
    return build().random() * cycles


def run_stored(cycles, seed=1):
    return Simulation(seed).run(cycles)


class Simulation:
    def __init__(self, seed):
        self.seed = seed

    def run(self, cycles):
        return random.Random(self.seed).random() * cycles


def run_with_base_seed(replicates=8, base_seed=1):
    # Arithmetic seed derivation consumes the seed.
    return [run_sim(1000, seed=base_seed + i) for i in range(replicates)]


def run_analytic_model(sizes=(2, 4, 8)):  # lb: noqa[LB203] — closed-form, no RNG
    return [size * size for size in sizes]


def helper_function(cycles):
    # Not a run_* entry point; out of scope.
    return cycles
