"""Operators on cube functions: derivatives, noise smoothing, and the
gradient of the mean with respect to coordinate probabilities.

All exact routines enumerate the truth table, so they are meant for
small n (oracles, tests, toy problems).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import PROB_FLOOR, ProductDistribution, _resampled, weights
from .fourier import (
    BooleanFunction,
    FourierExpansion,
    _lower_slots,
    inverse_transform,
    norm,
    transform,
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
    if not 0 <= i < e.n:
        raise ValueError("coordinate %d out of range" % i)
    return FourierExpansion._of_vector(
        _lower_slots(e.vector, i, np.zeros(1 << e.n)))


def noise_expansion(e: FourierExpansion, rho: float) -> FourierExpansion:
    """Apply the noise operator in coefficient space: scale by rho^|S|."""
    return e.scaled_by_degree(lambda d: rho ** d)


def noise_exact(f: BooleanFunction, rho: float,
                dist: ProductDistribution) -> BooleanFunction:
    """The smoothed function T_rho f as a truth table.

    (T_rho f)(x) = E[f(x')] where each coordinate of x' independently
    keeps x_i with probability rho and is redrawn from `dist` otherwise.
    Computed exactly by scaling the expansion and inverting.
    """
    return inverse_transform(noise_expansion(transform(f, dist), rho), dist)


def noise_mc(f: BooleanFunction, x: np.ndarray, rho: float,
             dist: ProductDistribution, rng: np.random.Generator,
             samples: int = 1) -> float:
    """Monte Carlo value of (T_rho f)(x): average f over resamplings of x."""
    xs = np.broadcast_to(np.asarray(x, dtype=np.int8), (samples, dist.n))
    return float(np.mean(_smoothed_mc(f.batch, xs, dist.probs, rho, 1, rng)))


def _smoothed_mc(g, x: np.ndarray, p: np.ndarray, rho: float, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """k-draw Monte Carlo value of (T_rho g) at every row of x, with g
    evaluating a batch of rows; each draw resamples every row as
    `correlated_sample` does, against probabilities p (a distribution's
    probs, or one row per row), so a stream replays exactly."""
    acc = np.zeros(x.shape[0])
    for _ in range(k):
        acc += g(_resampled(x, rho, p, rng).astype(x.dtype, copy=False))
    return acc / k


def expectation(f: BooleanFunction, dist: ProductDistribution) -> float:
    """E[f] by exact enumeration."""
    return float(f.values() @ weights(dist))


def exact_gradient(f: BooleanFunction, dist: ProductDistribution) -> np.ndarray:
    """d E_p[f] / d p_i for every coordinate, from degree-one coefficients.

    Equals (2 / sigma_i) * fhat({i}); one transform serves all coordinates.
    """
    singletons = transform(f, dist).vector[1 << np.arange(dist.n)]
    return 2.0 / dist.sigma * singletons


def numeric_gradient(f: BooleanFunction, dist: ProductDistribution,
                     h: float = 1e-5) -> np.ndarray:
    """Central finite difference of E_p[f] in each coordinate probability.

    Independent of the transform: each evaluation re-enumerates the
    weight vector at the perturbed probability.  The step p_i -+ h is
    clipped into [PROB_FLOOR, 1 - PROB_FLOOR], where the distribution
    takes it as given; E_p[f] is affine in p_i, so the difference over
    the clipped interval is still the exact slope, up to rounding.
    """
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
    if q <= 2.0:
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
