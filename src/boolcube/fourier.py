"""Orthonormal expansions of functions on the cube under a product measure.

The basis is phi_S(x) = prod_{i in S} (x_i - mu_i)/sigma_i, orthonormal
under the given product distribution.  `transform` computes all 2^n
coefficients by a butterfly pass per coordinate in O(n 2^n); the inverse
runs the same recursion backwards.  An expansion is one dense vector of
2^n coefficients indexed by subset bitmask, the same index convention as
truth tables, so every exact operation is an array pass.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .cube import (
    MAX_N,
    ProductDistribution,
    SubsetIndex,
    phi_matrix,
    point_to_index,
    points_to_indices,
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


def _check_dimension(n: int) -> int:
    """Refuse a dimension outside [1, MAX_N]: below 1 there is no cube,
    above MAX_N the library does not allocate the 2^n arrays."""
    if not 1 <= n <= MAX_N:
        raise ValueError("dimension %d lies outside the supported range "
                         "[1, %d]" % (n, MAX_N))
    return int(n)


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

    def __init__(self, n: int, *, table: np.ndarray, name: str = ""):
        self.n = _check_dimension(n)
        self.name = name
        t = np.asarray(table, dtype=np.float64).reshape(-1).copy()
        if t.shape[0] != (1 << self.n):
            raise ValueError("truth table must have 2^n entries")
        if not np.all(np.isfinite(t)):
            raise ValueError("truth table must be finite")
        t.flags.writeable = False
        self._table = t

    def value(self, x: np.ndarray) -> float:
        """Evaluate at one point."""
        return float(self._table[point_to_index(x)])

    def values(self) -> np.ndarray:
        """The full truth table (read-only)."""
        return self._table

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate a batch of points (rows of xs)."""
        xs = np.asarray(xs)
        if xs.shape[-1] != self.n:
            raise ValueError("points have %d coordinates, the function %d"
                             % (xs.shape[-1], self.n))
        return self._table[points_to_indices(xs)]

    def __repr__(self) -> str:
        label = " %r" % self.name if self.name else ""
        return "BooleanFunction(n=%d, table%s)" % (self.n, label)


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

    def scaled_by_degree(self, factor: Callable[[int], float]) -> "FourierExpansion":
        """Multiply each coefficient by factor(|S|)."""
        per_degree = np.array([factor(d) for d in range(self.n + 1)],
                              dtype=np.float64)
        return FourierExpansion._of_vector(
            self.vector * per_degree[_popcounts(self.n)])

    def evaluate(self, x: np.ndarray, dist: ProductDistribution) -> float:
        """Evaluate the expansion at a point under `dist`'s phi basis."""
        return float(self.evaluate_batch(np.asarray(x)[None, :], dist)[0])

    def evaluate_batch(self, xs: np.ndarray, dist: ProductDistribution) -> np.ndarray:
        """Evaluate at every row of xs (points may be fractional).

        The coefficients, as a matrix indexed by (mask of the high
        coordinates, mask of the low ones), meet the phi-product bases of
        the two halves, so the work arrays hold 2^(n/2) entries per point.
        """
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


def transform(f: BooleanFunction, dist: ProductDistribution) -> FourierExpansion:
    """All coefficients of f under `dist`, by a per-coordinate butterfly.

    Coordinate i splits the table into pairs (value at x_i=-1, value at
    x_i=+1); the mean part (1-p)*lo + p*hi replaces the lo slot and the
    phi part sqrt(p(1-p))*(hi - lo) the hi slot.  After all n passes,
    entry m holds the coefficient of the subset with bitmask m.
    """
    if dist.n != f.n:
        raise ValueError("distribution dimension %d != function dimension %d"
                         % (dist.n, f.n))
    work = np.array(f.values(), dtype=np.float64)
    drop = COEFF_DROP * np.abs(work).max()
    n = f.n
    for i in range(n):
        p = dist.probs[i]
        half_sigma = np.sqrt(p * (1.0 - p))
        pairs = work.reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0], pairs[:, 1]
        pairs[:, 0], pairs[:, 1] = (1.0 - p) * lo + p * hi, half_sigma * (hi - lo)
    work[np.abs(work) <= drop] = 0.0
    return FourierExpansion._of_vector(work)


def inverse_transform(e: FourierExpansion, dist: ProductDistribution) -> BooleanFunction:
    """Reconstruct the truth table from an expansion (exact inverse of transform)."""
    if dist.n != e.n:
        raise ValueError("distribution dimension %d != expansion dimension %d"
                         % (dist.n, e.n))
    n = e.n
    work = np.array(e.vector)
    for i in range(n - 1, -1, -1):
        p = dist.probs[i]
        # phi_i at x_i = +1 and -1; the inverse butterfly rebuilds
        # lo = a + phi(-1) b, hi = a + phi(+1) b from (a, b).
        phi_hi = np.sqrt((1.0 - p) / p)
        phi_lo = -np.sqrt(p / (1.0 - p))
        pairs = work.reshape(-1, 2, 1 << i)
        a, b = pairs[:, 0], pairs[:, 1]
        pairs[:, 0], pairs[:, 1] = a + phi_lo * b, a + phi_hi * b
    return BooleanFunction(n, table=work)


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
    rows = np.zeros((n, 1 << n))
    for j in range(n):
        _lower_slots(e.vector, j, rows[j])
    return rows @ _basis(phi_matrix(x, dist)[None, :])[0] / dist.sigma


def norm(f: BooleanFunction, dist: ProductDistribution, order: float) -> float:
    """Exact moment norm by enumeration: (E |f|^order)^(1/order).

    Monotone nondecreasing in the order.
    """
    if order < 1.0:
        raise ValueError("norm order must be at least 1")
    return float((weights(dist) @ np.abs(f.values()) ** order) ** (1.0 / order))


def coefficient_mc(f: BooleanFunction, S: SubsetIndex, dist: ProductDistribution,
                   rng: np.random.Generator, samples: int) -> float:
    """Monte Carlo estimate of one coefficient: the sample mean of f * phi_S."""
    from .cube import sample as draw

    xs = draw(dist, rng, size=samples)
    ph = phi_matrix(xs, dist)
    prod = np.ones(samples)
    for i in S:
        prod *= ph[:, i]
    return float(np.mean(f.batch(xs) * prod))


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
    """Parse the format written by expansion_to_text."""
    n = None
    coeffs: dict[SubsetIndex, float] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    n = int(body[2:])
                except ValueError:
                    raise ValueError("line %d: bad dimension header %r" % (ln, raw))
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
        if S in coeffs:
            raise ValueError("line %d: duplicate subset %s" % (ln, S))
        coeffs[S] = c
    if n is None:
        top = max((S.members[-1] for S in coeffs if S.mask), default=-1)
        n = top + 1 if top >= 0 else 1
    return FourierExpansion(n, coeffs)
