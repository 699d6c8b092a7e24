"""Points on the Boolean cube {-1,+1}^n and product distributions over it.

Points are plain numpy arrays with entries -1/+1 (any integer or float
dtype); `point` validates and normalizes external input.  Truth tables
index points by the sign pattern: coordinate i maps to bit i of the
index, little-endian, with x_i = +1 setting the bit.  Golden files and
serialized tables depend on this convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "MAX_N",
    "PROB_FLOOR",
    "ProbabilityClampWarning",
    "ProductDistribution",
    "SubsetIndex",
    "point",
    "point_to_index",
    "points_to_indices",
    "index_to_point",
    "enumerate_points",
    "weights",
    "sample",
    "correlated_sample",
    "phi",
    "phi_set",
    "phi_matrix",
]

# Coordinate probabilities are clamped away from {0, 1}; at the boundary
# sigma -> 0 and score terms blow up.
PROB_FLOOR = 1e-6

# Largest dimension whose 2^n truth tables and coefficient vectors the
# library builds; larger ones are refused before anything is allocated.
MAX_N = 16


class ProbabilityClampWarning(UserWarning):
    """A coordinate probability was clamped into [PROB_FLOOR, 1 - PROB_FLOOR]."""


@dataclass(frozen=True)
class ProductDistribution:
    """Independent Bernoulli coordinates on {-1,+1}^n.

    `probs[i]` is the probability of coordinate i being +1.  Derived
    per-coordinate means mu = 2p - 1 and standard deviations
    sigma = 2*sqrt(p*(1-p)) are exposed as read-only arrays.
    """

    probs: np.ndarray
    mu: np.ndarray = field(init=False, repr=False, compare=False)
    sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.probs, dtype=np.float64)).copy()
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite")
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("probs must lie strictly inside (0, 1)")
        clipped = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
        if np.any(clipped != p):
            warnings.warn(
                "coordinate probabilities clamped to [%g, %g]"
                % (PROB_FLOOR, 1.0 - PROB_FLOOR),
                ProbabilityClampWarning,
                stacklevel=2,
            )
        clipped.flags.writeable = False
        object.__setattr__(self, "probs", clipped)
        mu = 2.0 * clipped - 1.0
        sigma = 2.0 * np.sqrt(clipped * (1.0 - clipped))
        mu.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "ProductDistribution":
        """The unbiased distribution: every coordinate +1 with probability 1/2."""
        return cls(np.full(n, 0.5))

    def mean(self, i: int) -> float:
        return float(self.mu[i])

    def sd(self, i: int) -> float:
        return float(self.sigma[i])

    def min_outcome_probability(self) -> float:
        """min_i min(p_i, 1 - p_i) — the smallest outcome probability."""
        return float(np.min(np.minimum(self.probs, 1.0 - self.probs)))

    def with_prob(self, i: int, value: float) -> "ProductDistribution":
        """A copy with coordinate i's probability replaced."""
        p = np.array(self.probs)
        p[i] = value
        return ProductDistribution(p)


@dataclass(frozen=True, order=True)
class SubsetIndex:
    """A subset of coordinate indices, encoded as an unsigned bitmask.

    Bit i set means coordinate i belongs to the subset.  Hashable, so it
    serves as the key type for sparse coefficient maps.
    """

    mask: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("mask must be non-negative")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "SubsetIndex":
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError("coordinate indices must be non-negative")
            bit = 1 << int(i)
            if mask & bit:
                raise ValueError("duplicate coordinate %d" % i)
            mask |= bit
        return cls(mask)

    @classmethod
    def empty(cls) -> "SubsetIndex":
        return cls(0)

    @classmethod
    def full(cls, n: int) -> "SubsetIndex":
        return cls((1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        out, m, i = [], self.mask, 0
        while m:
            if m & 1:
                out.append(i)
            m >>= 1
            i += 1
        return tuple(out)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def contains(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    def without(self, i: int) -> "SubsetIndex":
        return SubsetIndex(self.mask & ~(1 << i))

    def valid_for(self, n: int) -> bool:
        return self.mask < (1 << n)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"


def point(coords: Iterable[float]) -> np.ndarray:
    """Validate and normalize a cube point to an int8 array of -1/+1."""
    x = np.asarray(list(coords) if not isinstance(coords, np.ndarray) else coords)
    x = np.atleast_1d(x)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("a point is a non-empty 1-d sequence")
    out = np.empty(x.shape, dtype=np.int8)
    pos = x == 1
    neg = x == -1
    if not np.all(pos | neg):
        raise ValueError("point coordinates must be exactly -1 or +1")
    out[pos] = 1
    out[neg] = -1
    return out


def point_to_index(x: np.ndarray) -> int:
    """Truth-table index of a point (x_i = +1 -> bit i set, little-endian)."""
    bits = (np.asarray(x) > 0).astype(np.uint64)
    return int(bits @ (np.uint64(1) << np.arange(len(bits), dtype=np.uint64)))


def points_to_indices(xs: np.ndarray) -> np.ndarray:
    """Truth-table index of every row of xs, as an int64 array."""
    bits = (np.asarray(xs) > 0).astype(np.int64)
    return bits @ (np.int64(1) << np.arange(bits.shape[-1], dtype=np.int64))


def index_to_point(index: int, n: int) -> np.ndarray:
    """Inverse of point_to_index."""
    if not 0 <= index < (1 << n):
        raise ValueError("index out of range for dimension %d" % n)
    bits = (index >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def enumerate_points(n: int) -> np.ndarray:
    """All 2^n points as an int8 matrix; row m is the point with index m."""
    idx = np.arange(1 << n)[:, None]
    bits = (idx >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def weights(dist: ProductDistribution) -> np.ndarray:
    """Probability of every point, indexed by truth-table convention."""
    w = np.ones(1)
    for i in range(dist.n):
        p = dist.probs[i]
        w = np.concatenate([w * (1.0 - p), w * p])
    return w


def sample(dist: ProductDistribution, rng: np.random.Generator,
           size: int | None = None) -> np.ndarray:
    """Draw points from `dist`: shape (n,) or (size, n) of -1/+1 int8.

    Coordinate i is +1 with probability probs[i], independently.
    Deterministic given the stream state.
    """
    shape = (dist.n,) if size is None else (size, dist.n)
    u = rng.random(shape)
    return np.where(u < dist.probs, 1, -1).astype(np.int8)


def correlated_sample(x: np.ndarray, rho: float, dist: ProductDistribution,
                      rng: np.random.Generator,
                      size: int | None = None) -> np.ndarray:
    """Resample x coordinatewise: keep x_i with probability rho, else draw fresh.

    Conditionally on x, E[x'_i | x] = rho*x_i + (1-rho)*mu_i.  The stream
    is consumed in a fixed order (keep mask first, then fresh draws), so
    replays are exact.  With size given, x may be a single point or a
    batch of matching leading dimension.
    """
    x = np.asarray(x)
    shape = x.shape if size is None else (size, dist.n)
    return _resampled(np.broadcast_to(x, shape), rho, dist.probs,
                      rng).astype(np.int8)


def _resampled(x: np.ndarray, rho: float, p: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """x with each coordinate kept with probability rho and otherwise
    redrawn as +1 with probability p, which broadcasts against x.  The
    keep mask is drawn before the fresh values."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    keep = rng.random(x.shape) < rho
    fresh = np.where(rng.random(x.shape) < p, 1, -1)
    return np.where(keep, x, fresh)


def phi(i: int, x: np.ndarray, dist: ProductDistribution) -> float:
    """The standardized coordinate (x_i - mu_i) / sigma_i."""
    return float((np.asarray(x)[..., i] - dist.mu[i]) / dist.sigma[i])


def phi_set(S: SubsetIndex, x: np.ndarray, dist: ProductDistribution) -> float:
    """Product of phi over the subset's members; the empty subset gives 1."""
    out = 1.0
    x = np.asarray(x)
    for i in S:
        out *= (x[i] - dist.mu[i]) / dist.sigma[i]
    return float(out)


def phi_matrix(x: np.ndarray, dist: ProductDistribution) -> np.ndarray:
    """Standardized coordinates for a point or batch: (x - mu) / sigma."""
    return (np.asarray(x, dtype=np.float64) - dist.mu) / dist.sigma
