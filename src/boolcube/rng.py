"""Seeded, splittable random streams.

Every stochastic operation in this package takes an explicit stream so
experiments replay exactly.  Streams are backed by the counter-based
Philox generator; independent streams are derived from a master seed
plus an integer path, so parallel consumers never share state.
"""

from __future__ import annotations

import numpy as np

from .cube import _is_integer

__all__ = ["stream"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent Philox generator for (seed, *path).

    The same (seed, path) always yields the same draw sequence; distinct
    paths yield statistically independent streams.  The seed and every
    path entry must be non-negative integers; nothing is truncated.
    """
    if not all(_is_integer(v) and v >= 0 for v in (seed, *path)):
        raise ValueError("stream seed and path must be non-negative "
                         "integers, got %r" % ((seed, *path),))
    ss = np.random.SeedSequence([int(v) for v in (seed, *path)])
    return np.random.Generator(np.random.Philox(ss))
