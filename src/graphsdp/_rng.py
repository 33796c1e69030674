"""Seeded, splittable random streams.

Every stochastic routine takes an integer seed and derives independent
substreams through ``SeedSequence`` spawn keys, so replicate-level
parallelism never correlates and results are bit-reproducible across runs.
"""

from __future__ import annotations

import numpy as np

from .linalg import InvalidInputError, check_value

# Fixed substream indices; never renumber, files produced with one layout
# must reload identically.
STREAM_EDGES = 0      # Bernoulli edge indicators B_ij
STREAM_MASK = 1       # sampling/mask indicators s_ij
STREAM_NOISE = 2      # Gaussian or outlier offsets g_ij
STREAM_PHASES = 3     # ground-truth angles
STREAM_SOLVER = 4     # solver-internal randomness (restarts, rounding)


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The sequence of (seed, key...); a seed that is not an integer >= 0
    raises where it enters, before any draw."""
    check_value("seed", seed, int)
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed!r}")
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...)."""
    return np.random.default_rng(seed_sequence(seed, *key))


def cell_seed(master_seed: int, grid_index: int, replicate: int) -> int:
    """Stable integer seed of one experiment cell.

    Keyed by (grid index, replicate) so extending a grid or adding
    replicates never perturbs existing cells.
    """
    return int(seed_sequence(master_seed, grid_index, replicate).generate_state(1)[0])
