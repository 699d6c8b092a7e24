"""Score-function gradient estimators for d E_p[f] / d p_i on the cube.

Every estimator draws x from the product distribution and returns a
length-n contribution vector whose expectation (over x and any inner
resampling) equals the exact gradient.  The one deliberate exception is
straight_through, which is exact only when its derivative oracle is the
true multilinear derivative; with a relaxation's derivative (network
training) it is biased, and the enumeration oracle measures the gap.

Throughout, score_i(x) = d log p(x) / d p_i = 2 phi_i(x) / sigma_i,
which is 1/p_i at x_i = +1 and -1/(1-p_i) at x_i = -1.

Each kind's algebra is written once, in one batched kernel: the
score-weighted integrand minus a control variate, plus the variate's
expected contribution where it is not zero.  The per-sample functions,
the sampling front ends and the exact oracles here feed it parts from
truth tables, expansions and callables; the trainer in `sbn` feeds it
parts from the belief net.

Exact oracles (`expected_value_by_enumeration`, `variance_by_enumeration`)
enumerate the truth table, replacing inner Monte Carlo smoothing by the
exact smoothed function; both replacements are valid because every
contribution is linear in the inner estimate (and the variance oracle
adds the conditional variance term in closed form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cube import (
    ProductDistribution,
    enumerate_points,
    points_to_indices,
    sample,
    weights,
)
from .fourier import (BooleanFunction, FourierExpansion, inverse_transform,
                      transform)
from .operators import _smoothed_mc, noise_exact, noise_mc
from .rng import stream

__all__ = [
    "KINDS",
    "EstimatorConfig",
    "MeanTaylor",
    "GradientEstimate",
    "VarianceReport",
    "score",
    "log_prob",
    "derivative_tables",
    "reinforce",
    "reinforce_const_baseline",
    "straight_through",
    "muprop",
    "fourier_cv",
    "fourier_cv_alt",
    "combined",
    "single_sample",
    "expected_value_by_enumeration",
    "variance_by_enumeration",
    "estimate_gradient",
    "ema_mean_and_variance",
    "benchmark_variance",
]

KINDS = (
    "reinforce",
    "reinforce_const_baseline",
    "straight_through",
    "muprop",
    "fourier_cv",
    "fourier_cv_alt",
    "combined",
)

_ENUM_MAX_N = 10


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and its knobs.

    rho is the keep-probability of the correlated resampler, in [0, 1];
    kinds that divide by it need rho > 0.  t_rho_samples is the inner
    Monte Carlo count k.  alpha scales the first-order term and beta the
    smoothing-based variate in `combined`.  baseline_decay drives the EMA
    variance track of the benchmark harness.

    exact_inner replaces inner Monte Carlo by the exactly smoothed
    function (k is then ignored).  taylor_at_sample switches `combined`
    to the variant whose first-order term uses the derivative at the
    sampled point with no analytic correction; that variant is biased,
    which the enumeration oracle quantifies.
    """

    kind: str
    rho: float = 0.5
    alpha: float = 1.0
    beta: float = 1.0
    t_rho_samples: int = 1
    baseline_decay: float = 0.99
    exact_inner: bool = False
    taylor_at_sample: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown estimator kind %r (expected one of %s)"
                             % (self.kind, ", ".join(KINDS)))
        if not np.isfinite(self.rho) or not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.rho == 0.0 and not all(
                np.isfinite(slope) for _, slope in _smoothing_terms(self)):
            raise ValueError("kind %r divides by rho; rho must be positive"
                             % self.kind)
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.t_rho_samples < 1:
            raise ValueError("t_rho_samples must be at least 1")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must lie in [0, 1)")
        if self.taylor_at_sample and self.kind != "combined":
            raise ValueError("taylor_at_sample applies only to kind 'combined'")

    def label(self) -> str:
        """Canonical one-token description (comma-free, safe in CSV cells)."""
        flags = ""
        if self.exact_inner:
            flags += ";exact_inner"
        if self.taylor_at_sample:
            flags += ";taylor_at_sample"
        return "%s[rho=%s;alpha=%s;beta=%s;k=%d;decay=%s%s]" % (
            self.kind, repr(float(self.rho)), repr(float(self.alpha)),
            repr(float(self.beta)), self.t_rho_samples,
            repr(float(self.baseline_decay)), flags)


@dataclass(frozen=True)
class MeanTaylor:
    """Zeroth- and first-order data of a function at the distribution mean.

    value = f(mu) and gradient_i = d f / d x_i at mu, both for the
    multilinear extension (or whatever relaxation the caller trusts).
    """

    value: float
    gradient: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gradient, dtype=np.float64).copy()
        g.flags.writeable = False
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def exact(cls, e: FourierExpansion, dist: ProductDistribution) -> "MeanTaylor":
        """From an expansion: at mu every phi vanishes, so the value is the
        empty-set coefficient and gradient_i is the degree-one coefficient
        over sigma_i."""
        grad = e.vector[1 << np.arange(dist.n)] / dist.sigma
        return cls(value=e.mean(), gradient=grad)

    @classmethod
    def from_function(cls, f: BooleanFunction,
                      dist: ProductDistribution) -> "MeanTaylor":
        return cls.exact(transform(f, dist), dist)


@dataclass(frozen=True)
class GradientEstimate:
    """Averaged estimator output: grad has units d E[f] / d p_i."""

    grad: np.ndarray
    batch: int
    seed: int

    def __post_init__(self):
        g = np.asarray(self.grad, dtype=np.float64).copy()
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient estimate has non-finite entries")
        g.flags.writeable = False
        object.__setattr__(self, "grad", g)


def score(x: np.ndarray, dist: ProductDistribution) -> np.ndarray:
    """score_i(x) = d log p(x) / d p_i; broadcasts over leading axes."""
    x = np.asarray(x)
    return np.where(x > 0, 1.0 / dist.probs, -1.0 / (1.0 - dist.probs))


def log_prob(x: np.ndarray, dist: ProductDistribution) -> np.ndarray:
    """log p(x) under the product distribution; sums the last axis."""
    x = np.asarray(x)
    terms = np.where(x > 0, np.log(dist.probs), np.log1p(-dist.probs))
    return terms.sum(axis=-1)


def derivative_tables(f: BooleanFunction) -> np.ndarray:
    """Truth tables of D_i f for every i, stacked (n, 2^n).

    D_i f(x) = (f at x_i=+1 minus f at x_i=-1)/2 equals the partial
    derivative of the multilinear extension; it involves no distribution.
    """
    t = f.values()
    out = np.empty((f.n, t.shape[0]))
    for i in range(f.n):
        shaped = t.reshape(-1, 2 << i)
        d = (shaped[:, 1 << i:] - shaped[:, : 1 << i]) / 2.0
        row = out[i].reshape(-1, 2 << i)
        row[:, : 1 << i] = d
        row[:, 1 << i:] = d
    return out


# ---------------------------------------------------------------------------
# The kernel and what it alone knows about each kind.

def _contributions(cfg: EstimatorConfig, x: np.ndarray, p: np.ndarray,
                   mu: np.ndarray, *, f, g, smoothed, taylor, deriv,
                   baseline=0.0) -> np.ndarray:
    """(B, n) contributions of kind cfg.kind at the rows x, whose
    coordinates are +1 with probabilities p and have means mu = 2p - 1,
    each (n,) or (B, n).

    The other parts are functions, called only if the kind uses them:
    f() and g(), the integrand and the surrogate at each row (B,);
    smoothed(r), T_r g at each row, sampled or exact (B,); taylor(),
    the integrand the first-order term expands at each row, its value
    at the mean and its gradient there, (n,) shared or (B, n) per row;
    deriv(), the integrand's derivative at each row (B, n).  baseline
    is a scalar or a (B,) array that must not depend on x.
    """
    if cfg.kind == "straight_through":
        return 2.0 * deriv()
    sc = np.where(x > 0, 1.0 / p, -1.0 / (1.0 - p))
    if cfg.kind == "reinforce":
        return f()[:, None] * sc
    if cfg.kind == "reinforce_const_baseline":
        return (f() - baseline)[:, None] * sc
    if cfg.kind == "fourier_cv":
        return (f() - g() + smoothed(cfg.rho) / cfg.rho)[:, None] * sc
    if cfg.kind == "fourier_cv_alt":
        t = f() - g() + smoothed(cfg.rho) + smoothed(1.0 - cfg.rho)
        return t[:, None] * sc
    fx, value, grad = taylor()
    lin = _linear(x - mu, deriv() if cfg.taylor_at_sample else grad)
    if cfg.kind == "muprop":
        return (fx - value - lin)[:, None] * sc + 2.0 * grad
    # combined
    variate = g() - smoothed(cfg.rho) / cfg.rho
    t = fx - baseline - value - cfg.alpha * lin - cfg.beta * variate
    out = t[:, None] * sc
    return out if cfg.taylor_at_sample else out + 2.0 * cfg.alpha * grad


def _linear(centered: np.ndarray, d: np.ndarray) -> np.ndarray:
    """<d, x - mu> per row.  A gradient shared by all rows is contracted by
    a matrix product, one per row by a row-wise sum; the two round
    differently, and each caller's outputs rest on its form."""
    return centered @ d if d.ndim == 1 else np.sum(d * centered, axis=1)


@lru_cache
def _smoothing_terms(cfg: EstimatorConfig) -> tuple[tuple[float, float], ...]:
    """(rate, slope) of every smoothed value cfg's kind uses, in order.

    A contribution is affine in each smoothed value, with slope * score
    as its coefficient.  So at x = p = mu = 1 (score 1, x - mu = 0), with
    every other part 0, the kernel gives slope j on the row where value
    j alone is 1; at rho = 0 a kind that divides by rho gives a
    non-finite slope.  No kind uses more than two smoothed values.
    """
    rates: list[float] = []

    def smoothed(rho: float) -> np.ndarray:
        rates.append(rho)
        return np.eye(2)[len(rates) - 1]

    with np.errstate(divide="ignore", invalid="ignore"):
        out = _contributions(
            cfg, np.ones((2, 1)), np.ones(1), np.ones(1),
            f=lambda: np.zeros(2), g=lambda: np.zeros(2), smoothed=smoothed,
            taylor=lambda: (np.zeros(2), 0.0, np.zeros(1)),
            deriv=lambda: np.zeros((2, 1)))
    return tuple((rho, float(out[j, 0])) for j, rho in enumerate(rates))


# ---------------------------------------------------------------------------
# Cube front ends: parts from truth tables, expansions and callables.  The
# per-sample functions return the length-n contribution vector of one x.

def _derivative_at(derivs, f, xs: np.ndarray,
                   dist: ProductDistribution) -> np.ndarray:
    """(B, n) derivative at the rows xs, from whichever oracle the caller
    has: stacked tables, an expansion, a callable on one point, or None
    for f's own derivative tables."""
    if derivs is None and f is not None:
        derivs = derivative_tables(f)
    elif isinstance(derivs, FourierExpansion):
        # At +-1 points the multilinear gradient of an expansion is the
        # half-difference of its own truth table.
        derivs = derivative_tables(inverse_transform(derivs, dist))
    elif callable(derivs):
        return np.array([np.asarray(derivs(x), dtype=np.float64) for x in xs])
    if not isinstance(derivs, np.ndarray):
        raise TypeError("no usable derivative oracle: %r" % (derivs,))
    return derivs[:, points_to_indices(xs)].T


def _cube_contributions(cfg: EstimatorConfig, f: BooleanFunction,
                        dist: ProductDistribution, xs: np.ndarray, mc=None,
                        g=None, baseline: float = 0.0, taylor=None,
                        derivs=None) -> np.ndarray:
    """The kernel at the rows xs.  g defaults to f, taylor to f's exact
    MeanTaylor and derivs to f's derivative tables.  mc(g, rho) draws
    the smoothed g at the rows; without it the smoothing is exact."""
    g = f if g is None else g

    def first_order():
        t = MeanTaylor.from_function(f, dist) if taylor is None else taylor
        return f.batch(xs), t.value, t.gradient

    return _contributions(
        cfg, xs, dist.probs, dist.mu, f=lambda: f.batch(xs),
        g=lambda: g.batch(xs), taylor=first_order, smoothed=lambda rho: (
            noise_exact(g, rho, dist).batch(xs) if mc is None else mc(g, rho)),
        deriv=lambda: _derivative_at(derivs, f, xs, dist), baseline=baseline)


def _at_point(cfg: EstimatorConfig, f, x: np.ndarray,
              dist: ProductDistribution, rng=None, **oracles) -> np.ndarray:
    """The kernel on the single point x; each smoothed value averages k
    resamplings of x, drawn by noise_mc in one block."""
    def mc(g, rho):
        return np.array([noise_mc(g, x, rho, dist, rng, cfg.t_rho_samples)])

    return _cube_contributions(cfg, f, dist, np.asarray(x)[None, :], mc,
                               **oracles)[0]


def _sampled(cfg: EstimatorConfig, f: BooleanFunction,
             dist: ProductDistribution, rng: np.random.Generator,
             xs: np.ndarray, **oracles) -> np.ndarray:
    """Contributions at the points xs just drawn from rng.  Unless cfg
    asks for exact smoothing, every smoothed value averages k resampling
    draws of all rows, taken from the same stream."""
    mc = None if cfg.exact_inner else (lambda g, rho: _smoothed_mc(
        g.batch, xs, dist.probs, rho, cfg.t_rho_samples, rng))
    return _cube_contributions(cfg, f, dist, xs, mc, **oracles)


def reinforce(f: BooleanFunction, x: np.ndarray,
              dist: ProductDistribution) -> np.ndarray:
    """f(x) * score(x)."""
    return _at_point(EstimatorConfig("reinforce"), f, x, dist)


def reinforce_const_baseline(f: BooleanFunction, x: np.ndarray,
                             dist: ProductDistribution, c: float) -> np.ndarray:
    """(f(x) - c) * score(x); unbiased for any constant c."""
    return _at_point(EstimatorConfig("reinforce_const_baseline"), f, x, dist,
                     baseline=float(c))


def straight_through(deriv, x: np.ndarray,
                     dist: ProductDistribution) -> np.ndarray:
    """2 * d f / d x_i at x (the factor 2 is d mu_i / d p_i).

    Unbiased only when `deriv` is the exact multilinear derivative;
    callers passing a relaxation's derivative get the biased estimator.
    """
    return _at_point(EstimatorConfig("straight_through"), None, x, dist,
                     derivs=deriv)


def muprop(f: BooleanFunction, taylor: MeanTaylor, x: np.ndarray,
           dist: ProductDistribution) -> np.ndarray:
    """Score-weighted residual after a first-order expansion at the mean.

    The subtracted linear term's score-weighted expectation is exactly
    2 * gradient_i (since E[(x_j - mu_j) score_i] = 2 at j = i and 0
    otherwise), so adding 2 * gradient_i back keeps the estimator
    unbiased for ANY supplied (value, gradient) pair.
    """
    return _at_point(EstimatorConfig("muprop"), f, x, dist, taylor=taylor)


def fourier_cv(f: BooleanFunction, g: BooleanFunction, x: np.ndarray,
               dist: ProductDistribution, rho: float, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """(f(x) - g(x) + smoothed_g(x)/rho) * score(x).

    The subtracted variate g - T_rho(g)/rho has zero degree-one
    coefficients (the rho^|S| scaling cancels rho exactly at |S| = 1),
    so the estimator is unbiased for any g; the inner smoothing is a
    k-sample Monte Carlo value, conditionally unbiased given x.
    """
    cfg = EstimatorConfig("fourier_cv", rho=rho, t_rho_samples=k)
    return _at_point(cfg, f, x, dist, rng, g=g)


def fourier_cv_alt(f: BooleanFunction, g: BooleanFunction, x: np.ndarray,
                   dist: ProductDistribution, rho: float, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(f(x) - g(x) + smoothed(rho) + smoothed(1-rho)) * score(x).

    Degree-one coefficients of g - T_rho(g) - T_{1-rho}(g) cancel as
    1 - rho - (1-rho) = 0; valid for any rho in [0, 1].
    """
    cfg = EstimatorConfig("fourier_cv_alt", rho=rho, t_rho_samples=k)
    return _at_point(cfg, f, x, dist, rng, g=g)


def combined(f: BooleanFunction, b: float, taylor: MeanTaylor,
             g: BooleanFunction, x: np.ndarray, dist: ProductDistribution,
             cfg: EstimatorConfig, rng: np.random.Generator,
             deriv=None) -> np.ndarray:
    """All variance-reduction pieces at once.

    t(x) = f(x) - b - value - alpha*<gradient, x-mu> - beta*(g(x) - smoothed/rho)
    contribution_i = t(x)*score_i(x) + alpha*2*gradient_i

    b is a scalar that must not depend on x (it may depend on whatever
    conditions the problem, e.g. the observation); with that restriction
    the estimator is unbiased for any b, taylor, and g.

    With cfg.taylor_at_sample, the linear term uses the derivative at x
    (supply `deriv`) and no correction is added; that form is biased.
    """
    if cfg.kind != "combined":
        raise ValueError("cfg.kind must be 'combined'")
    if cfg.taylor_at_sample and deriv is None:
        raise ValueError("taylor_at_sample needs a derivative oracle")
    return _at_point(cfg, f, x, dist, rng, g=g, baseline=float(b),
                     taylor=taylor, derivs=deriv)


def single_sample(cfg: EstimatorConfig, f: BooleanFunction,
                  dist: ProductDistribution, rng: np.random.Generator,
                  g=None, baseline: float = 0.0, taylor=None,
                  derivs=None) -> np.ndarray:
    """Draw one x and return its contribution vector under cfg."""
    return _sampled(cfg, f, dist, rng, sample(dist, rng, size=1), g=g,
                    baseline=baseline, taylor=taylor, derivs=derivs)[0]


def _require_tables(*fns: BooleanFunction):
    for fn in fns:
        if fn.n > _ENUM_MAX_N:
            raise ValueError("enumeration oracle supports n <= %d, got n=%d"
                             % (_ENUM_MAX_N, fn.n))
        fn.values()


def expected_value_by_enumeration(cfg: EstimatorConfig, f: BooleanFunction,
                                  dist: ProductDistribution, g=None,
                                  baseline: float = 0.0, taylor=None,
                                  derivs=None) -> np.ndarray:
    """Exact expectation of the contribution vector.

    Enumerates all 2^n points with their probabilities; inner Monte
    Carlo smoothing is replaced by the exact smoothed function, which
    preserves the expectation because contributions are linear in the
    inner estimate.
    """
    g = f if g is None else g
    _require_tables(f, g)
    m = _cube_contributions(cfg, f, dist, enumerate_points(f.n), g=g,
                            baseline=baseline, taylor=taylor, derivs=derivs)
    return weights(dist) @ m


def variance_by_enumeration(cfg: EstimatorConfig, f: BooleanFunction,
                            dist: ProductDistribution, g=None,
                            baseline: float = 0.0, taylor=None,
                            derivs=None) -> np.ndarray:
    """Exact per-coordinate variance of the single-sample contribution.

    Law of total variance: the across-points variance of the exact
    conditional mean, plus the expected conditional variance of the
    inner Monte Carlo smoothing.  For a k-sample inner estimate, each
    smoothed value the kind uses adds
    slope^2 * score_i(x)^2 * (T_rho(g^2)(x) - (T_rho(g)(x))^2) / k,
    with the slope the kernel gives it: 1/rho (fourier_cv), 1 per
    smoothing term (alt), or beta/rho (combined).  Exact-inner configs
    have no inner term.
    """
    g = f if g is None else g
    _require_tables(f, g)
    pts = enumerate_points(f.n)
    w = weights(dist)
    m = _cube_contributions(cfg, f, dist, pts, g=g, baseline=baseline,
                            taylor=taylor, derivs=derivs)
    mean = w @ m
    var = w @ (m * m) - mean * mean
    terms = () if cfg.exact_inner else _smoothing_terms(cfg)
    if terms:
        g2 = BooleanFunction(g.n, table=g.values() ** 2)
        inner = sum(slope ** 2 * np.maximum(
            noise_exact(g2, rho, dist).values()
            - noise_exact(g, rho, dist).values() ** 2, 0.0)
            for rho, slope in terms) / cfg.t_rho_samples
        var = var + w @ (score(pts, dist) ** 2 * inner[:, None])
    return var


def estimate_gradient(cfg: EstimatorConfig, f: BooleanFunction,
                      dist: ProductDistribution, batch: int, seed: int,
                      g=None, baseline: float = 0.0, taylor=None,
                      derivs=None) -> GradientEstimate:
    """Average `batch` single-sample contributions from a fresh stream."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    rng = stream(seed)
    xs = sample(dist, rng, size=batch)
    m = _sampled(cfg, f, dist, rng, xs, g=g, baseline=baseline, taylor=taylor,
                 derivs=derivs)
    return GradientEstimate(grad=m.mean(axis=0), batch=batch, seed=seed)


# ---------------------------------------------------------------------------
# Variance benchmarking.

def ema_mean_and_variance(z: np.ndarray, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """Running EMA mean and EMA of squared innovations along axis 0.

    m[0] = z[0], v[0] = 0; for t >= 1, with innovation e = z[t] - m[t-1]:
    v[t] = decay*v[t-1] + (1-decay)*e^2, then m moves toward z[t].
    Measuring the innovation against the previous mean keeps v nearly
    calibrated for i.i.d. streams; decay 0 gives per-step squared
    innovations.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] == 0:
        raise ValueError("empty series")
    d = float(decay)
    if not 0.0 <= d < 1.0:
        raise ValueError("decay must lie in [0, 1)")
    # Imported here: scipy.signal is most of the package's import time,
    # and only this filter needs it.
    from scipy.signal import lfilter

    b, a = [1.0 - d], [1.0, -d]
    m, _ = lfilter(b, a, z, axis=0, zi=d * z[:1])
    innov2 = np.empty_like(z)
    innov2[0] = 0.0
    innov2[1:] = (z[1:] - m[:-1]) ** 2
    v, _ = lfilter(b, a, innov2, axis=0, zi=np.zeros((1,) + z.shape[1:]))
    return m, v


@dataclass(frozen=True)
class VarianceReport:
    """Per-coordinate moments of single-sample contributions."""

    mean: np.ndarray
    variance: np.ndarray
    ema_variance: np.ndarray
    trials: int
    seed: int
    estimator: EstimatorConfig

    def __post_init__(self):
        for name in ("mean", "variance", "ema_variance"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.trials < 2:
            raise ValueError("trials must be at least 2")
        if np.any(self.variance < 0.0):
            raise ValueError("variance must be non-negative")

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def to_csv(self, extra_header: str | None = None) -> str:
        """CSV with columns coord,mean,variance,ema_variance,trials,seed,estimator.

        A header comment records the estimator label, trials, and seed;
        callers may prepend one more comment line (resolved run config).
        Floats print via repr, so identical reports are byte-identical.
        """
        lines = []
        if extra_header:
            lines.append("# " + extra_header)
        lines.append("# estimator=%s trials=%d seed=%d"
                     % (self.estimator.label(), self.trials, self.seed))
        lines.append("coord,mean,variance,ema_variance,trials,seed,estimator")
        for i in range(self.n):
            lines.append("%d,%s,%s,%s,%d,%d,%s" % (
                i, repr(float(self.mean[i])), repr(float(self.variance[i])),
                repr(float(self.ema_variance[i])), self.trials, self.seed,
                self.estimator.label()))
        return "\n".join(lines) + "\n"


def benchmark_variance(cfg: EstimatorConfig, f: BooleanFunction,
                       dist: ProductDistribution, trials: int, seed: int,
                       g=None, baseline: float = 0.0, taylor=None,
                       derivs=None) -> VarianceReport:
    """Empirical per-coordinate mean/variance over `trials` single samples.

    Takes a seed rather than a generator so the report pins its own
    provenance; the sampling order is fixed, making reruns identical.
    The EMA track follows the trial order with decay cfg.baseline_decay.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2")
    rng = stream(seed)
    xs = sample(dist, rng, size=trials)
    m = _sampled(cfg, f, dist, rng, xs, g=g, baseline=baseline, taylor=taylor,
                 derivs=derivs)
    _, v = ema_mean_and_variance(m, cfg.baseline_decay)
    return VarianceReport(mean=m.mean(axis=0), variance=m.var(axis=0, ddof=1),
                          ema_variance=v[-1], trials=trials, seed=seed,
                          estimator=cfg)
