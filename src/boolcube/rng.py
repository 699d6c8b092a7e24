"""Seeded, splittable random streams.

Every stochastic operation in this package takes an explicit stream so
experiments replay exactly.  Streams are backed by the counter-based
Philox generator; independent streams are derived from a master seed
plus an integer path, so parallel consumers never share state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent Philox generator for (seed, *path).

    The same (seed, path) always yields the same draw sequence; distinct
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))
