# repro: sim-visible
"""Good twin: randomness is a seeded stream threaded from the simulation."""
import random

from repro.simenv.environment import derive_rng


def jitter(rng):
    return rng.random() * 0.5


def fork_stream(sim):
    return derive_rng(sim.seed, "jitter")


def make_stream(seed):
    return random.Random(seed)
