"""Orthonormal expansions of functions on the cube under a product measure.

The basis is phi_S(x) = prod_{i in S} (x_i - mu_i)/sigma_i, orthonormal
under the given product distribution.  `transform` computes all 2^n
coefficients by a butterfly pass per coordinate in O(n 2^n), every pass
at one fixed stride (`cube._per_coordinate`); the inverse runs the same
recursion backwards.  The coefficients of degree at most one, which the
gradient identity reads, take O(2^n) work on their own (`_degree_one`),
bit for bit equal to transform's.  An expansion is one dense vector of
2^n coefficients indexed by subset bitmask, the same index convention as
truth tables, so every exact operation is an array pass.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .cube import (
    MAX_N,
    ProductDistribution,
    SubsetIndex,
    _check_count,
    _check_dimension,
    _check_pairing,
    _check_width,
    _per_coordinate,
    phi_matrix,
    point,
    points_to_indices,
    sample,
    weights,
)

__all__ = [
    "BooleanFunction",
    "FourierExpansion",
    "transform",
    "inverse_transform",
    "multilinear_gradient",
    "norm",
    "coefficient_mc",
    "expansion_to_text",
    "expansion_from_text",
]

# Butterfly outputs at or below this multiple of the table's largest
# magnitude are treated as exact zeros.
COEFF_DROP = 1e-14


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    """|S| for every bitmask S < 2^n, read-only."""
    out = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        out = np.concatenate([out, out + 1])
    out.flags.writeable = False
    return out


def _basis(ph: np.ndarray) -> np.ndarray:
    """prod_{i in m} ph[:, i] for every bitmask m < 2^k, one row per row
    of the (rows, k) matrix ph."""
    out = np.ones((ph.shape[0], 1))
    for i in range(ph.shape[1]):
        out = np.concatenate([out, out * ph[:, i, None]], axis=1)
    return out


class BooleanFunction:
    """A real-valued function on {-1,+1}^n, held as its read-only truth
    table: entry m is the value at the point with bitmask m."""

    def __init__(self, n: int, *, table: np.ndarray):
        self.n = _check_dimension(n)
        t = np.asarray(table, dtype=np.float64).reshape(-1).copy()
        if t.shape[0] != (1 << self.n):
            raise ValueError("truth table must have 2^n entries")
        if not np.all(np.isfinite(t)):
            raise ValueError("truth table must be finite")
        t.flags.writeable = False
        self._table = t

    def value(self, x: np.ndarray) -> float:
        """Evaluate at one point, checked as `point` checks it."""
        return float(self.batch(point(x)[None, :])[0])

    def values(self) -> np.ndarray:
        """The full truth table (read-only)."""
        return self._table

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate a batch of points (rows of xs).  The width is checked;
        the values are not, and a coordinate counts as +1 when positive."""
        xs = _check_width(xs, self.n, "function")
        return self._table[points_to_indices(xs)]

    def __repr__(self) -> str:
        return "BooleanFunction(n=%d, table)" % self.n


class FourierExpansion:
    """Coefficients of a function in the phi_S basis.

    `vector` is a read-only float64 array of length 2^n whose entry m is
    the coefficient of the subset with bitmask m; subsets without a
    coefficient hold 0.  Construct from {SubsetIndex: coefficient}.
    `coeffs`, `len` and `items_sorted` list the nonzero entries only.
    """

    def __init__(self, n: int, coeffs: Mapping[SubsetIndex, float] | None = None):
        n = _check_dimension(n)
        vector = np.zeros(1 << n)
        for S, c in (coeffs or {}).items():
            if not S.valid_for(n):
                raise ValueError("subset %s out of range for n=%d" % (S, n))
            vector[S.mask] = c
        if not np.all(np.isfinite(vector)):
            raise ValueError("coefficients must be finite")
        vector.flags.writeable = False
        self.n = n
        self.vector = vector

    @classmethod
    def _of_vector(cls, vector: np.ndarray) -> "FourierExpansion":
        """Wrap a coefficient vector of length 2^n; the caller gives it up."""
        e = cls.__new__(cls)
        vector.flags.writeable = False
        e.n = vector.shape[0].bit_length() - 1
        e.vector = vector
        return e

    @property
    def coeffs(self) -> Mapping[SubsetIndex, float]:
        """Read-only {SubsetIndex: coefficient} of the nonzero entries,
        in bitmask order, built anew on each access."""
        nz = np.flatnonzero(self.vector)
        return MappingProxyType(dict(zip(map(SubsetIndex, nz.tolist()),
                                         self.vector[nz].tolist())))

    def coefficient(self, S: SubsetIndex) -> float:
        return float(self.vector[S.mask]) if S.valid_for(self.n) else 0.0

    def mean(self) -> float:
        """E[f] under the defining distribution: the empty-set coefficient."""
        return float(self.vector[0])

    def variance(self) -> float:
        """Var[f]: the sum of squared coefficients over non-empty subsets."""
        rest = self.vector[1:]
        return float(rest @ rest)

    def norm_squared(self) -> float:
        """E[f^2]: the sum of all squared coefficients."""
        return float(self.vector @ self.vector)

    def degree(self) -> int:
        return int(_popcounts(self.n)[self.vector != 0.0].max(initial=0))

    def evaluate(self, x: np.ndarray, dist: ProductDistribution) -> float:
        """Evaluate the expansion at a point under `dist`'s phi basis."""
        return float(self.evaluate_batch(np.asarray(x)[None, :], dist)[0])

    def evaluate_batch(self, xs: np.ndarray, dist: ProductDistribution) -> np.ndarray:
        """Evaluate at every row of xs (points may be fractional).

        The coefficients, as a matrix indexed by (mask of the high
        coordinates, mask of the low ones), meet the phi-product bases of
        the two halves, so the work arrays hold 2^(n/2) entries per point.
        """
        _check_pairing(dist, self.n, "expansion")
        ph = phi_matrix(xs, dist)
        low = self.n // 2
        partial = _basis(ph[:, :low]) @ self.vector.reshape(-1, 1 << low).T
        return np.einsum("bj,bj->b", partial, _basis(ph[:, low:]))

    def items_sorted(self) -> list[tuple[SubsetIndex, float]]:
        """Deterministic order: by degree, then by member tuple."""
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].members))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.vector))

    def __repr__(self) -> str:
        return "FourierExpansion(n=%d, %d nonzero)" % (self.n, len(self))


def _transform_step(dist: ProductDistribution):
    """transform's pass on coordinate i, for `_per_coordinate`: each pair
    (lo, hi) becomes its mean part (1-p)*lo + p*hi and its phi part
    sqrt(p(1-p))*(hi - lo), written into the output views."""
    p, q, s = dist.probs, 1.0 - dist.probs, dist.sigma / 2.0

    def step(i, lo, hi, out_lo, out_hi):
        np.multiply(lo, q[i], out=out_lo)
        np.multiply(hi, p[i], out=out_hi)
        out_lo += out_hi
        np.subtract(hi, lo, out=out_hi)
        out_hi *= s[i]
    return step


def transform(f: BooleanFunction, dist: ProductDistribution) -> FourierExpansion:
    """All coefficients of f under `dist`, by a per-coordinate butterfly.

    On coordinate i, each pair (lo, hi) becomes its mean part
    (1-p)*lo + p*hi and its phi part sqrt(p(1-p))*(hi - lo).  After all
    n passes, entry m holds the coefficient of the subset with bitmask m.
    """
    _check_pairing(dist, f.n)
    work = _per_coordinate(f.values(), _transform_step(dist))
    work[np.abs(work) <= COEFF_DROP * np.abs(f.values()).max()] = 0.0
    return FourierExpansion._of_vector(work)


def _degree_one(f: BooleanFunction, dist: ProductDistribution) -> np.ndarray:
    """[c_{}, c_{0}, ..., c_{n-1}]: transform's entries 0 and 1 << i, bit
    for bit, in O(2^n) work instead of O(n 2^n).

    A stack of rows holds the partial sums these entries read: row 0 the
    mean part of every coordinate passed so far, row r > 0 the phi part
    of coordinate r - 1 and the mean part of the others.  Pass i runs
    transform's step on every row's (even, odd) pairs and keeps each
    row's mean part, plus row 0's phi part as a new row.  A pass writes
    r * m entries for r rows of m, never more than 2^n, so two buffers
    of 2^n serve all passes in turn."""
    _check_pairing(dist, f.n)
    step = _transform_step(dist)
    bufs = np.empty((2, 1 << f.n))
    rows = f.values().reshape(1, -1)
    for i in range(f.n):
        r, m = rows.shape
        out = bufs[i % 2, :r * m].reshape(2 * r, m // 2)
        step(i, rows[:, 0::2], rows[:, 1::2], out[:r], out[r:])
        rows = out[:r + 1]
    c = rows.ravel().copy()
    c[np.abs(c) <= COEFF_DROP * np.abs(f.values()).max()] = 0.0
    return c


def inverse_transform(e: FourierExpansion, dist: ProductDistribution) -> BooleanFunction:
    """Reconstruct the truth table from an expansion (exact inverse of transform)."""
    _check_pairing(dist, e.n, "expansion")
    # coordinate i, last first, rebuilds lo = a + phi_i(-1) b and
    # hi = a + phi_i(+1) b from the pair (a, b)
    p = dist.probs
    phi_lo, phi_hi = -np.sqrt(p / (1.0 - p)), np.sqrt((1.0 - p) / p)

    def step(i, a, b, out_lo, out_hi):
        np.multiply(b, phi_lo[i], out=out_lo)
        out_lo += a
        np.multiply(b, phi_hi[i], out=out_hi)
        out_hi += a
    return BooleanFunction(e.n, table=_per_coordinate(e.vector, step,
                                                      reverse=True))


def _lower_slots(v: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """Copy each coefficient of v on a subset containing j to out's slot
    for the subset without j, and return out.  Its other slots are left
    alone, so zeros in give the formal derivative with respect to phi_j."""
    out.reshape(-1, 2, 1 << j)[:, 0] = v.reshape(-1, 2, 1 << j)[:, 1]
    return out


def multilinear_gradient(e: FourierExpansion, x: np.ndarray,
                         dist: ProductDistribution) -> np.ndarray:
    """Gradient of the multilinear extension at a (possibly fractional) point.

    d/dx_j keeps the subsets containing j, with j removed, over sigma_j:
    row j of `rows` moves each such coefficient to its slot without j.
    """
    n = e.n
    _check_pairing(dist, n, "expansion")
    rows = np.zeros((n, 1 << n))
    for j in range(n):
        _lower_slots(e.vector, j, rows[j])
    return rows @ _basis(phi_matrix(x, dist)[None, :])[0] / dist.sigma


def norm(f: BooleanFunction, dist: ProductDistribution, order: float) -> float:
    """Exact moment norm by enumeration: (E |f|^order)^(1/order), and
    max |f| at an infinite order, since every point has positive weight.

    Monotone nondecreasing in the order.
    """
    if not order >= 1.0:
        raise ValueError("norm order must be at least 1")
    _check_pairing(dist, f.n)
    if order == np.inf:
        return float(np.max(np.abs(f.values())))
    return float((weights(dist) @ np.abs(f.values()) ** order) ** (1.0 / order))


def coefficient_mc(f: BooleanFunction, S: SubsetIndex, dist: ProductDistribution,
                   rng: np.random.Generator, samples: int) -> float:
    """Monte Carlo estimate of one coefficient: the sample mean of f * phi_S."""
    _check_count("samples", samples, 1)
    if not S.valid_for(f.n):
        raise ValueError("subset %s out of range for n=%d" % (S, f.n))
    _check_pairing(dist, f.n)
    xs = sample(dist, rng, size=samples)
    phi_S = np.prod(phi_matrix(xs, dist)[:, list(S)], axis=1)
    return float(np.mean(f.batch(xs) * phi_S))


def expansion_to_text(e: FourierExpansion) -> str:
    """Serialize an expansion, one `indices<TAB>coefficient` line per subset.

    Indices are comma-separated ascending; the empty subset prints as `-`.
    Lines are ordered by (degree, indices) so output is deterministic.
    Coefficients print with repr-level precision and round-trip exactly.
    Zero coefficients are not written.
    """
    lines = ["# n=%d" % e.n]
    for S, c in e.items_sorted():
        key = ",".join(str(i) for i in S.members) if S.mask else "-"
        lines.append("%s\t%s" % (key, repr(c)))
    return "\n".join(lines) + "\n"


def expansion_from_text(text: str) -> FourierExpansion:
    """Parse the format written by expansion_to_text.  At most one
    `# n=` header; every subset must lie within its dimension."""
    n = None
    coeffs: dict[SubsetIndex, float] = {}
    lines: dict[SubsetIndex, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                if n is not None:
                    raise ValueError("line %d: repeated dimension header %r"
                                     % (ln, raw))
                try:
                    n = int(body[2:])
                except ValueError:
                    raise ValueError("line %d: bad dimension header %r" % (ln, raw))
                try:
                    n = _check_dimension(n)
                except ValueError as e:
                    raise ValueError("line %d: %s" % (ln, e))
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("line %d: expected `indices<TAB>coefficient`" % ln)
        key, val = parts
        if key == "-":
            S = SubsetIndex.empty()
        else:
            try:
                members = [int(tok) for tok in key.split(",")]
            except ValueError:
                raise ValueError("line %d: bad index list %r" % (ln, key))
            if any(not 0 <= i < MAX_N for i in members):
                raise ValueError("line %d: coordinate index outside [0, %d)"
                                 % (ln, MAX_N))
            if sorted(set(members)) != members:
                raise ValueError("line %d: indices must be strictly ascending" % ln)
            S = SubsetIndex.of(members)
        try:
            c = float(val)
        except ValueError:
            raise ValueError("line %d: bad coefficient %r" % (ln, val))
        if not np.isfinite(c):
            raise ValueError("line %d: coefficient %r is not finite" % (ln, val))
        if S in coeffs:
            raise ValueError("line %d: duplicate subset %s" % (ln, S))
        coeffs[S] = c
        lines[S] = ln
    if n is None:
        top = max((S.members[-1] for S in coeffs if S.mask), default=-1)
        n = top + 1 if top >= 0 else 1
    for S, ln in lines.items():
        if not S.valid_for(n):
            raise ValueError("line %d: subset %s out of range for n=%d"
                             % (ln, S, n))
    return FourierExpansion(n, coeffs)
