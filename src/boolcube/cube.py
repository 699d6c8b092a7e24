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


def _check_dimension(n: int) -> int:
    """n as an int, refused unless it is an integer in [1, MAX_N]: int()
    would truncate a float, below 1 there is no cube, and above MAX_N the
    library does not allocate the 2^n arrays."""
    if not _is_integer(n):
        raise ValueError("dimension must be an integer, got %r" % (n,))
    if not 1 <= n <= MAX_N:
        raise ValueError("dimension %d lies outside the supported range "
                         "[1, %d]" % (n, MAX_N))
    return int(n)


def _check_pairing(dist, n: int, paired: str = "function") -> None:
    """Refuse a distribution paired with a table or expansion of another
    dimension."""
    if dist.n != n:
        raise ValueError("distribution dimension %d != %s dimension %d"
                         % (dist.n, paired, n))


def _check_width(xs, n: int, paired: str) -> np.ndarray:
    """xs as an array whose rows have the n coordinates of the paired
    function or distribution; a shape check, the values are not read."""
    xs = np.atleast_1d(np.asarray(xs))
    if xs.shape[-1] != n:
        raise ValueError("points have %d coordinates, the %s %d"
                         % (xs.shape[-1], paired, n))
    return xs


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_coordinate(i, n: int) -> int:
    """i as an int, refused unless it is an integer in [0, n): numpy
    would read a negative one from the end and fail inside on a float."""
    if not _is_integer(i):
        raise ValueError("coordinate i must be an integer")
    if not 0 <= i < n:
        raise ValueError("coordinate %d out of range [0, %d)" % (i, n))
    return int(i)


def _member(i) -> int:
    """i as an int, refused unless it is a non-negative integer: int()
    would truncate a float, and a negative one fails inside a shift."""
    if not (_is_integer(i) and i >= 0):
        raise ValueError("coordinate %r is not a non-negative integer" % (i,))
    return int(i)


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer or is below least."""
    if not _is_integer(value):
        raise ValueError("%s must be an integer" % name)
    if value < least:
        raise ValueError("%s must be at least %d" % (name, least))


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
        return float(self.mu[_check_coordinate(i, self.n)])

    def sd(self, i: int) -> float:
        return float(self.sigma[_check_coordinate(i, self.n)])

    def min_outcome_probability(self) -> float:
        """min_i min(p_i, 1 - p_i) — the smallest outcome probability."""
        return float(np.min(np.minimum(self.probs, 1.0 - self.probs)))

    def with_prob(self, i: int, value: float) -> "ProductDistribution":
        """A copy with coordinate i's probability replaced."""
        p = np.array(self.probs)
        p[_check_coordinate(i, self.n)] = value
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
            bit = 1 << _member(i)
            if mask & bit:
                raise ValueError("duplicate coordinate %d" % i)
            mask |= bit
        return cls(mask)

    @classmethod
    def empty(cls) -> "SubsetIndex":
        return cls(0)

    @classmethod
    def full(cls, n: int) -> "SubsetIndex":
        _check_count("n", n, 0)
        return cls((1 << int(n)) - 1)

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
        return bool((self.mask >> _member(i)) & 1)

    def without(self, i: int) -> "SubsetIndex":
        return SubsetIndex(self.mask & ~(1 << _member(i)))

    def valid_for(self, n: int) -> bool:
        if type(n) is not int or n < 0:  # a non-negative int needs no check
            _check_count("n", n, 0)
            n = int(n)
        return not self.mask >> n

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"


def point(coords: Iterable[float]) -> np.ndarray:
    """Validate and normalize a cube point to an int8 array of -1/+1.

    Every function that takes one point from its caller reads it through
    here, so a value other than exactly -1 or +1 is refused.  Batches of
    rows (`BooleanFunction.batch`, the samplers) are checked for width
    only and read by sign: a row's coordinate counts as +1 when it is
    positive."""
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
    """Truth-table index of a point (x_i = +1 -> bit i set, little-endian),
    for the dimensions index_to_point takes."""
    return int(points_to_indices(point(x)))


def points_to_indices(xs: np.ndarray) -> np.ndarray:
    """Truth-table index of every row of xs, as an int64 array; rows wider
    than MAX_N, which index no table, are refused.

    The sign bits are packed by one float64 BLAS product against powers
    of two: every partial sum is an integer below 2^MAX_N, so the
    product is exact in any summation order.  Against the int64 product
    it took 1.33 against 1.35 ms for 10^5 rows of 10 coordinates, 67
    against 121 us for 10^4 rows of 12 and 0.97 against 1.33 ms for
    2^16 rows of 16 (numpy 2.4.6, one thread, 2-core x86-64 box)."""
    xs = np.asarray(xs)
    powers = 2.0 ** np.arange(_check_dimension(xs.shape[-1]))
    return ((xs > 0).astype(np.float64) @ powers).astype(np.int64)


def index_to_point(index: int, n: int) -> np.ndarray:
    """Inverse of point_to_index."""
    _check_dimension(n)
    if not _is_integer(index):
        raise ValueError("index must be an integer")
    if not 0 <= index < (1 << n):
        raise ValueError("index out of range for dimension %d" % n)
    bits = (int(index) >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def enumerate_points(n: int) -> np.ndarray:
    """All 2^n points as an int8 matrix; row m is the point with index m."""
    idx = np.arange(1 << _check_dimension(n))[:, None]
    bits = (idx >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def _per_coordinate(table: np.ndarray, step, reverse: bool = False) -> np.ndarray:
    """A float64 copy of table in which, for each coordinate i in turn
    (0 to n-1, or n-1 to 0 if reverse), every pair (lo, hi) of entries
    whose indices differ only in bit i is replaced by the pair step
    writes: step(i, lo, hi, out_lo, out_hi) fills out_lo and out_hi,
    arrays over all the pairs, and returns nothing.

    The geometry is constant (Pease's FFT): every pass reads and writes
    at one fixed stride, so no pass transposes the table.  A forward
    pass reads the pairs (x[0::2], x[1::2]) and writes the halves of a
    second buffer, which rotates the index bits right by one, so the
    next coordinate is bit 0 of the next pass.  A reverse pass reads the
    halves and writes (y[0::2], y[1::2]).  After n passes the table is
    back in its own layout.  Each pass does the same elementwise
    arithmetic on the same pairs as a pass in the table's own layout.
    out_lo and out_hi never overlap lo or hi, so a step may use them as
    scratch."""
    x = np.array(table, dtype=np.float64)
    y = np.empty_like(x)
    half = x.size // 2
    n = half.bit_length()
    for i in range(n - 1, -1, -1) if reverse else range(n):
        if reverse:
            step(i, x[:half], x[half:], y[0::2], y[1::2])
        else:
            step(i, x[0::2], x[1::2], y[:half], y[half:])
        x, y = y, x
    return x


def weights(dist: ProductDistribution) -> np.ndarray:
    """Probability of every point, indexed by truth-table convention."""
    w = np.ones(1)
    for i in range(_check_dimension(dist.n)):
        p = dist.probs[i]
        w = np.concatenate([w * (1.0 - p), w * p])
    return w


def sample(dist: ProductDistribution, rng: np.random.Generator,
           size: int | None = None) -> np.ndarray:
    """Draw points from `dist`: shape (n,) or (size, n) of -1/+1 int8.

    Coordinate i is +1 with probability probs[i], independently.
    Deterministic given the stream state.
    """
    if size is not None:
        _check_count("size", size, 1)
    shape = (dist.n,) if size is None else (size, dist.n)
    return _signs(rng.random(shape) < dist.probs)


def correlated_sample(x: np.ndarray, rho: float, dist: ProductDistribution,
                      rng: np.random.Generator,
                      size: int | None = None) -> np.ndarray:
    """Resample x coordinatewise: keep x_i with probability rho, else draw fresh.

    Conditionally on x, E[x'_i | x] = rho*x_i + (1-rho)*mu_i.  The stream
    is consumed in a fixed order (keep mask first, then fresh draws), so
    replays are exact.  With size given, x may be a single point or a
    batch of size rows.  A single point's values are checked as `point`
    does; a batch's width only.  The draw runs on x's sign bits, turned
    back into -1/+1 int8 here.
    """
    x = _check_width(point(x) if np.ndim(x) < 2 else x, dist.n,
                     "distribution")
    if size is not None:
        _check_count("size", size, 1)
        if x.ndim > 1 and x.shape[0] != size:
            raise ValueError("size %d != %d rows of x" % (size, x.shape[0]))
    shape = x.shape if size is None else (size, dist.n)
    return _signs(_resampled(np.broadcast_to(x > 0, shape), rho, dist.probs,
                             rng))


def _signs(bits: np.ndarray) -> np.ndarray:
    """Sign bits (True = +1) as -1/+1 int8, by integer ufuncs: 2 * bit - 1."""
    out = bits.astype(np.int8)
    out += out
    out -= 1
    return out


def _resampled(bits: np.ndarray, rho: float, p: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Sign bits (True = +1) with each kept with probability rho and
    otherwise redrawn as True with probability p, which broadcasts
    against bits.  The keep mask is drawn before the fresh values.
    Callers read their rows' signs once and convert back at their edge.

    The select is bitwise: fresh ^ ((fresh ^ bits) & keep) is bits where
    keep holds and fresh elsewhere, exactly np.where(keep, bits, fresh)
    on bools.  Per 10^6 entries np.where took 4.4 ms and the xor select
    0.3 ms (numpy 2.4.6, one thread, 2-core x86-64 box).  bits may be a
    read-only view; the select writes only into the fresh draw."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    keep = rng.random(bits.shape) < rho
    fresh = rng.random(bits.shape) < p
    fresh ^= (fresh ^ bits) & keep
    return fresh


def phi(i: int, x: np.ndarray, dist: ProductDistribution) -> float:
    """The standardized coordinate (x_i - mu_i) / sigma_i."""
    return float(phi_matrix(x, dist)[..., _check_coordinate(i, dist.n)])


def phi_set(S: SubsetIndex, x: np.ndarray, dist: ProductDistribution) -> float:
    """Product of phi over the subset's members; the empty subset gives 1."""
    out, ph = 1.0, phi_matrix(x, dist)
    for i in S:
        out *= ph[_check_coordinate(i, dist.n)]
    return float(out)


def phi_matrix(x: np.ndarray, dist: ProductDistribution) -> np.ndarray:
    """Standardized coordinates for a point or batch: (x - mu) / sigma."""
    x = _check_width(x, dist.n, "distribution")
    return (x.astype(np.float64, copy=False) - dist.mu) / dist.sigma
