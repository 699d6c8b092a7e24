"""Operators on cube functions: derivatives, noise smoothing, and the
gradient of the mean with respect to coordinate probabilities.

All exact routines enumerate the truth table, so they are meant for
small n (oracles, tests, toy problems).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import (PROB_FLOOR, ProductDistribution, _check_coordinate,
                   _check_count, _check_pairing, _check_width, _per_coordinate,
                   _resampled, correlated_sample, point, weights)
from .fourier import (
    BooleanFunction,
    FourierExpansion,
    _degree_one,
    _lower_slots,
    _popcounts,
    norm,
)

__all__ = [
    "discrete_derivative",
    "noise_expansion",
    "noise_exact",
    "noise_mc",
    "expectation",
    "exact_gradient",
    "numeric_gradient",
    "HypercontractivityReport",
    "rho_bound",
    "hypercontractivity_check",
]


def discrete_derivative(e: FourierExpansion, i: int) -> FourierExpansion:
    """Formal derivative with respect to phi_i.

    Every coefficient on a subset containing i moves to the subset
    without i; the rest drop.  The result never involves coordinate i.
    """
    return FourierExpansion._of_vector(
        _lower_slots(e.vector, _check_coordinate(i, e.n), np.zeros(1 << e.n)))


def noise_expansion(e: FourierExpansion, rho: float) -> FourierExpansion:
    """Apply the noise operator in coefficient space: scale by rho^|S|.

    Any finite rho is taken, inside [0, 1] or not, unless a scaled
    coefficient leaves the float range; a power past it counts as
    infinite, so 0 * rho^|S| is refused there too."""
    if not np.isfinite(rho):
        raise ValueError("rho must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            per_degree = np.array([rho ** d for d in range(e.n + 1)])
        except OverflowError:  # a Python float's power past the float range
            per_degree = np.full(e.n + 1, np.inf)
        vector = e.vector * per_degree[_popcounts(e.n)]
    if not np.isfinite(vector).all():
        raise ValueError("rho = %r takes the scaled coefficients past the "
                         "float range" % float(rho))
    return FourierExpansion._of_vector(vector)


def noise_exact(f: BooleanFunction, rho: float,
                dist: ProductDistribution) -> BooleanFunction:
    """The smoothed function T_rho f as a truth table.

    (T_rho f)(x) = E[f(x')] where each coordinate of x' independently
    keeps x_i with probability rho and is redrawn from `dist` otherwise.
    Coordinate i's pass maps each pair (lo, hi) to rho (lo, hi) + (1 - rho)
    ((1 - p_i) lo + p_i hi); for any real rho it equals `noise_expansion`.
    """
    if not np.isfinite(rho):
        raise ValueError("rho must be finite")
    _check_pairing(dist, f.n)
    p = dist.probs

    def step(i, lo, hi, out_lo, out_hi):
        np.subtract(hi, lo, out=out_hi)
        np.multiply(out_hi, (1.0 - rho) * p[i], out=out_lo)
        out_lo += lo
        out_hi *= (1.0 - rho) * (1.0 - p[i])
        np.subtract(hi, out_hi, out=out_hi)

    return BooleanFunction(f.n, table=_per_coordinate(f.values(), step))


def noise_mc(f: BooleanFunction, x: np.ndarray, rho: float,
             dist: ProductDistribution, rng: np.random.Generator,
             samples: int = 1) -> float:
    """Monte Carlo value of (T_rho f)(x): the mean of f over `samples`
    `correlated_sample` draws from x, a point checked as `point` checks it."""
    _check_count("samples", samples, 1)
    _check_pairing(dist, f.n)
    x = _check_width(point(x), f.n, "function")
    return float(np.mean(f.batch(correlated_sample(x, rho, dist, rng,
                                                   size=samples))))


def _smoothed_mc(g, x: np.ndarray, p: np.ndarray, rho: float, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """k-draw Monte Carlo value of (T_rho g) at every row of x; each draw
    resamples every row as `correlated_sample` does, against
    probabilities p (a distribution's probs, or one row per row), so a
    stream replays exactly.  x's rows are read by sign once, and g
    evaluates a batch of sign-bit rows (True = +1): `BooleanFunction.batch`
    takes them as they are, and a caller whose g wants -1/+1 converts."""
    bits = x > 0
    acc = np.zeros(x.shape[0])
    for _ in range(k):
        acc += g(_resampled(bits, rho, p, rng))
    return acc / k


def expectation(f: BooleanFunction, dist: ProductDistribution) -> float:
    """E[f] by exact enumeration."""
    _check_pairing(dist, f.n)
    return float(f.values() @ weights(dist))


def exact_gradient(f: BooleanFunction, dist: ProductDistribution) -> np.ndarray:
    """d E_p[f] / d p_i for every coordinate, from degree-one coefficients.

    Equals (2 / sigma_i) * fhat({i}); one O(2^n) pass reads fhat({i}) for
    every coordinate without the rest of the spectrum.
    """
    return 2.0 / dist.sigma * _degree_one(f, dist)[1:]


def numeric_gradient(f: BooleanFunction, dist: ProductDistribution,
                     h: float = 1e-5) -> np.ndarray:
    """Central finite difference of E_p[f] in each coordinate probability.

    Independent of the transform: each evaluation re-enumerates the
    weight vector at the perturbed probability.  The step p_i -+ h is
    clipped into [PROB_FLOOR, 1 - PROB_FLOOR], where the distribution
    takes it as given; E_p[f] is affine in p_i, so the difference over
    the clipped interval is still the exact slope, up to rounding.
    """
    if not h > 0.0:
        raise ValueError("step h must be positive")
    _check_pairing(dist, f.n)
    t = f.values()
    out = np.empty(dist.n)
    for i in range(dist.n):
        p = dist.probs[i]
        lo, hi = max(p - h, PROB_FLOOR), min(p + h, 1.0 - PROB_FLOOR)
        up = float(t @ weights(dist.with_prob(i, hi)))
        dn = float(t @ weights(dist.with_prob(i, lo)))
        out[i] = (up - dn) / (2.0 * h if (lo, hi) == (p - h, p + h)
                              else hi - lo)
    return out


def rho_bound(q: float, min_prob: float) -> float:
    """Largest rho for which T_rho is (2 -> q) norm-contractive.

    rho <= (q-1)^{-1/2} * lambda^{1/2 - 1/q} with lambda the smallest
    outcome probability of the measure.
    """
    if not q > 2.0:
        raise ValueError("q must exceed 2")
    if not 0.0 < min_prob <= 0.5:
        raise ValueError("min_prob must lie in (0, 0.5]")
    return (q - 1.0) ** -0.5 * min_prob ** (0.5 - 1.0 / q)


@dataclass(frozen=True)
class HypercontractivityReport:
    """One norm comparison: ||T_rho f||_q against ||f||_2 at rho = rho_max."""

    q: float
    rho: float
    norm_q: float
    norm_2: float

    @property
    def satisfied(self) -> bool:
        return self.norm_q <= self.norm_2 + 1e-10

    @property
    def slack(self) -> float:
        return self.norm_2 - self.norm_q


def hypercontractivity_check(f: BooleanFunction, dist: ProductDistribution,
                             q: float = 4.0,
                             rho: float | None = None) -> HypercontractivityReport:
    """Evaluate ||T_rho f||_q <= ||f||_2 at the critical rho (or a given one).

    Norms are with respect to `dist`: ||g||_r = (E |g|^r)^{1/r}.
    """
    if rho is None:
        rho = rho_bound(q, dist.min_outcome_probability())
    return HypercontractivityReport(
        q=q, rho=rho,
        norm_q=norm(noise_exact(f, rho, dist), dist, q),
        norm_2=norm(f, dist, 2.0))
