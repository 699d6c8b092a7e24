"""Score-function gradient estimators for d E_p[f] / d p_i on the cube.

Every estimator draws x from the product distribution and returns a
length-n contribution vector whose expectation (over x and any inner
resampling) equals the exact gradient.  The one deliberate exception is
straight_through, which is exact only when its derivative oracle is the
true multilinear derivative; with a relaxation's derivative (network
training) it is biased, and the enumeration oracle measures the gap.

Throughout, score_i(x) = d log p(x) / d p_i = 2 phi_i(x) / sigma_i,
which is 1/p_i at x_i = +1 and -1/(1-p_i) at x_i = -1.

Exact oracles (`expected_value_by_enumeration`, `variance_by_enumeration`)
enumerate the truth table, replacing inner Monte Carlo smoothing by the
exact smoothed function; both replacements are valid because every
contribution is linear in the inner estimate (and the variance oracle
adds the conditional variance term in closed form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import (
    ProductDistribution,
    correlated_sample,
    point_to_index,
    enumerate_points,
    sample,
    weights,
)
from .fourier import (
    BooleanFunction,
    FourierExpansion,
    inverse_transform,
    multilinear_gradient,
    transform,
)
from .operators import noise_exact, noise_mc
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

# Kinds whose contribution divides by rho; rho = 0 is invalid for them.
_DIVIDES_BY_RHO = ("fourier_cv", "combined")
# Kinds whose contribution involves inner smoothing samples.
_USES_INNER = ("fourier_cv", "fourier_cv_alt", "combined")
_ENUM_MAX_N = 10


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and its knobs.

    rho is the keep-probability of the correlated resampler (0 < rho <= 1
    at the config level; the fourier_cv_alt function itself also accepts
    rho = 0).  t_rho_samples is the inner Monte Carlo count k.  alpha
    scales the first-order term and beta the smoothing-based variate in
    `combined`.  baseline_decay drives the EMA variance track of the
    benchmark harness.

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
        if self.kind in _DIVIDES_BY_RHO and self.rho == 0.0:
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


def _deriv_at(oracle, x: np.ndarray, dist: ProductDistribution) -> np.ndarray:
    """Gradient of the (relaxed) function at one point, from whichever
    oracle form the caller has: expansion, stacked tables, or callable."""
    if isinstance(oracle, FourierExpansion):
        return multilinear_gradient(oracle, x, dist)
    if isinstance(oracle, np.ndarray):
        return oracle[:, point_to_index(x)]
    if callable(oracle):
        return np.asarray(oracle(x), dtype=np.float64)
    raise TypeError("no usable derivative oracle: %r" % (oracle,))


# ---------------------------------------------------------------------------
# Per-sample estimators.  Each returns the length-n contribution vector
# for one sampled x.

def reinforce(f: BooleanFunction, x: np.ndarray,
              dist: ProductDistribution) -> np.ndarray:
    """f(x) * score(x)."""
    return f.value(x) * score(x, dist)


def reinforce_const_baseline(f: BooleanFunction, x: np.ndarray,
                             dist: ProductDistribution, c: float) -> np.ndarray:
    """(f(x) - c) * score(x); unbiased for any constant c."""
    return (f.value(x) - float(c)) * score(x, dist)


def straight_through(deriv, x: np.ndarray,
                     dist: ProductDistribution) -> np.ndarray:
    """2 * d f / d x_i at x (the factor 2 is d mu_i / d p_i).

    Unbiased only when `deriv` is the exact multilinear derivative;
    callers passing a relaxation's derivative get the biased estimator.
    """
    return 2.0 * _deriv_at(deriv, x, dist)


def muprop(f: BooleanFunction, taylor: MeanTaylor, x: np.ndarray,
           dist: ProductDistribution) -> np.ndarray:
    """Score-weighted residual after a first-order expansion at the mean.

    The subtracted linear term's score-weighted expectation is exactly
    2 * gradient_i (since E[(x_j - mu_j) score_i] = 2 at j = i and 0
    otherwise), so adding 2 * gradient_i back keeps the estimator
    unbiased for ANY supplied (value, gradient) pair.
    """
    x = np.asarray(x)
    resid = f.value(x) - taylor.value - float((x - dist.mu) @ taylor.gradient)
    return resid * score(x, dist) + 2.0 * taylor.gradient


def fourier_cv(f: BooleanFunction, g: BooleanFunction, x: np.ndarray,
               dist: ProductDistribution, rho: float, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """(f(x) - g(x) + smoothed_g(x)/rho) * score(x).

    The subtracted variate g - T_rho(g)/rho has zero degree-one
    coefficients (the rho^|S| scaling cancels rho exactly at |S| = 1),
    so the estimator is unbiased for any g; the inner smoothing is a
    k-sample Monte Carlo value, conditionally unbiased given x.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    t = noise_mc(g, x, rho, dist, rng, samples=k)
    return (f.value(x) - g.value(x) + t / rho) * score(x, dist)


def fourier_cv_alt(f: BooleanFunction, g: BooleanFunction, x: np.ndarray,
                   dist: ProductDistribution, rho: float, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(f(x) - g(x) + smoothed(rho) + smoothed(1-rho)) * score(x).

    Degree-one coefficients of g - T_rho(g) - T_{1-rho}(g) cancel as
    1 - rho - (1-rho) = 0; valid for any rho in [0, 1].
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    t1 = noise_mc(g, x, rho, dist, rng, samples=k)
    t2 = noise_mc(g, x, 1.0 - rho, dist, rng, samples=k)
    return (f.value(x) - g.value(x) + t1 + t2) * score(x, dist)


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
    x = np.asarray(x)
    t_inner = noise_mc(g, x, cfg.rho, dist, rng, samples=cfg.t_rho_samples)
    variate = g.value(x) - t_inner / cfg.rho
    if cfg.taylor_at_sample:
        if deriv is None:
            raise ValueError("taylor_at_sample needs a derivative oracle")
        lin = float((x - dist.mu) @ _deriv_at(deriv, x, dist))
        t = f.value(x) - float(b) - taylor.value - cfg.alpha * lin - cfg.beta * variate
        return t * score(x, dist)
    lin = float((x - dist.mu) @ taylor.gradient)
    t = f.value(x) - float(b) - taylor.value - cfg.alpha * lin - cfg.beta * variate
    return t * score(x, dist) + 2.0 * cfg.alpha * taylor.gradient


# ---------------------------------------------------------------------------
# Batched core shared by the sampler, the benchmark, and the oracles.

def _batch_indices(xs: np.ndarray) -> np.ndarray:
    bits = (np.asarray(xs) > 0).astype(np.int64)
    return bits @ (np.int64(1) << np.arange(xs.shape[-1], dtype=np.int64))


def _resolve(cfg: EstimatorConfig, f: BooleanFunction,
             dist: ProductDistribution, g, taylor, derivs):
    """Fill in default oracles: g defaults to f; taylor and derivative
    tables default to the exact ones computed from f's table."""
    if g is None:
        g = f
    if taylor is None and cfg.kind in ("muprop", "combined"):
        taylor = MeanTaylor.from_function(f, dist)
    needs_derivs = cfg.kind == "straight_through" or (
        cfg.kind == "combined" and cfg.taylor_at_sample)
    if derivs is None and needs_derivs:
        derivs = derivative_tables(f)
    elif isinstance(derivs, FourierExpansion) and needs_derivs:
        # At +-1 points the multilinear gradient of an expansion is the
        # half-difference of its own truth table.
        derivs = derivative_tables(inverse_transform(derivs, dist))
    return g, taylor, derivs


def _smoothed(g: BooleanFunction, xs: np.ndarray, rho: float, k: int,
              dist: ProductDistribution, rng, exact: bool) -> np.ndarray:
    if exact:
        return noise_exact(g, rho, dist).batch(xs)
    acc = np.zeros(xs.shape[0])
    for _ in range(k):
        acc += g.batch(correlated_sample(xs, rho, dist, rng))
    return acc / k


def _contribution_matrix(cfg: EstimatorConfig, f: BooleanFunction,
                         dist: ProductDistribution, xs: np.ndarray,
                         rng, g, baseline: float, taylor, derivs,
                         exact_inner: bool) -> np.ndarray:
    """(trials, n) contributions for pre-drawn points xs."""
    kind = cfg.kind
    sc = score(xs, dist)
    if kind == "straight_through":
        return 2.0 * derivs[:, _batch_indices(xs)].T
    fx = f.batch(xs)
    if kind == "reinforce":
        return fx[:, None] * sc
    if kind == "reinforce_const_baseline":
        return (fx - baseline)[:, None] * sc
    if kind == "muprop":
        resid = fx - taylor.value - (xs - dist.mu) @ taylor.gradient
        return resid[:, None] * sc + 2.0 * taylor.gradient
    gx = g.batch(xs)
    if kind == "fourier_cv":
        t = _smoothed(g, xs, cfg.rho, cfg.t_rho_samples, dist, rng, exact_inner)
        return (fx - gx + t / cfg.rho)[:, None] * sc
    if kind == "fourier_cv_alt":
        t1 = _smoothed(g, xs, cfg.rho, cfg.t_rho_samples, dist, rng, exact_inner)
        t2 = _smoothed(g, xs, 1.0 - cfg.rho, cfg.t_rho_samples, dist, rng,
                       exact_inner)
        return (fx - gx + t1 + t2)[:, None] * sc
    # combined
    t_inner = _smoothed(g, xs, cfg.rho, cfg.t_rho_samples, dist, rng, exact_inner)
    variate = gx - t_inner / cfg.rho
    if cfg.taylor_at_sample:
        dmat = derivs[:, _batch_indices(xs)].T
        lin = np.sum(dmat * (xs - dist.mu), axis=1)
        t = fx - baseline - taylor.value - cfg.alpha * lin - cfg.beta * variate
        return t[:, None] * sc
    lin = (xs - dist.mu) @ taylor.gradient
    t = fx - baseline - taylor.value - cfg.alpha * lin - cfg.beta * variate
    return t[:, None] * sc + 2.0 * cfg.alpha * taylor.gradient


def single_sample(cfg: EstimatorConfig, f: BooleanFunction,
                  dist: ProductDistribution, rng: np.random.Generator,
                  g=None, baseline: float = 0.0, taylor=None,
                  derivs=None) -> np.ndarray:
    """Draw one x and return its contribution vector under cfg."""
    g, taylor, derivs = _resolve(cfg, f, dist, g, taylor, derivs)
    xs = sample(dist, rng, size=1)
    return _contribution_matrix(cfg, f, dist, xs, rng, g, baseline, taylor,
                                derivs, cfg.exact_inner)[0]


def _require_tables(cfg: EstimatorConfig, *fns: BooleanFunction):
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
    g, taylor, derivs = _resolve(cfg, f, dist, g, taylor, derivs)
    _require_tables(cfg, f, g)
    pts = enumerate_points(f.n)
    m = _contribution_matrix(cfg, f, dist, pts, None, g, baseline, taylor,
                             derivs, True)
    return weights(dist) @ m


def variance_by_enumeration(cfg: EstimatorConfig, f: BooleanFunction,
                            dist: ProductDistribution, g=None,
                            baseline: float = 0.0, taylor=None,
                            derivs=None) -> np.ndarray:
    """Exact per-coordinate variance of the single-sample contribution.

    Law of total variance: the across-points variance of the exact
    conditional mean, plus the expected conditional variance of the
    inner Monte Carlo smoothing, which for a k-sample inner estimate is
    scale^2 * score_i(x)^2 * (T_rho(g^2)(x) - (T_rho(g)(x))^2) / k
    with scale = 1/rho (fourier_cv), 1 per smoothing term (alt), or
    beta/rho (combined).  Exact-inner configs have no inner term.
    """
    g, taylor, derivs = _resolve(cfg, f, dist, g, taylor, derivs)
    _require_tables(cfg, f, g)
    pts = enumerate_points(f.n)
    w = weights(dist)
    m = _contribution_matrix(cfg, f, dist, pts, None, g, baseline, taylor,
                             derivs, True)
    mean = w @ m
    var = w @ (m * m) - mean * mean
    if cfg.kind in _USES_INNER and not cfg.exact_inner:
        sc2 = score(pts, dist) ** 2
        g2 = BooleanFunction(g.n, table=g.values() ** 2)

        def cond_var(rho: float) -> np.ndarray:
            v = (noise_exact(g2, rho, dist).values()
                 - noise_exact(g, rho, dist).values() ** 2)
            return np.maximum(v, 0.0)

        k = cfg.t_rho_samples
        if cfg.kind == "fourier_cv":
            inner = cond_var(cfg.rho) / (k * cfg.rho ** 2)
        elif cfg.kind == "fourier_cv_alt":
            inner = (cond_var(cfg.rho) + cond_var(1.0 - cfg.rho)) / k
        else:
            inner = cond_var(cfg.rho) * (cfg.beta ** 2) / (k * cfg.rho ** 2)
        var = var + w @ (sc2 * inner[:, None])
    return var


def estimate_gradient(cfg: EstimatorConfig, f: BooleanFunction,
                      dist: ProductDistribution, batch: int, seed: int,
                      g=None, baseline: float = 0.0, taylor=None,
                      derivs=None) -> GradientEstimate:
    """Average `batch` single-sample contributions from a fresh stream."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    g, taylor, derivs = _resolve(cfg, f, dist, g, taylor, derivs)
    rng = stream(seed)
    xs = sample(dist, rng, size=batch)
    m = _contribution_matrix(cfg, f, dist, xs, rng, g, baseline, taylor,
                             derivs, cfg.exact_inner)
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
    g, taylor, derivs = _resolve(cfg, f, dist, g, taylor, derivs)
    rng = stream(seed)
    xs = sample(dist, rng, size=trials)
    m = _contribution_matrix(cfg, f, dist, xs, rng, g, baseline, taylor,
                             derivs, cfg.exact_inner)
    _, v = ema_mean_and_variance(m, cfg.baseline_decay)
    return VarianceReport(mean=m.mean(axis=0), variance=m.var(axis=0, ddof=1),
                          ema_variance=v[-1], trials=trials, seed=seed,
                          estimator=cfg)
