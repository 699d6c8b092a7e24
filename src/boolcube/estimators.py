"""Score-function gradient estimators for d E_p[f] / d p_i on the cube.

Every estimator draws x from the product distribution and returns a
length-n contribution vector whose expectation (over x and any inner
resampling) equals the exact gradient.  The two deliberate exceptions,
straight_through and combined's taylor_at_sample form, are noted with
the other kinds beside the kernel; the enumeration oracle measures
their bias.

Throughout, score_i(x) = d log p(x) / d p_i = 2 phi_i(x) / sigma_i,
which is 1/p_i at x_i = +1 and -1/(1-p_i) at x_i = -1.

Each kind's algebra is written once, in one batched kernel: the
score-weighted integrand minus a control variate, plus the variate's
expected contribution where it is not zero.  The trainer in `sbn` feeds
it parts from the belief net.  Everything else here calls it through one
cube front end at a batch of rows: one row for `contribution`,
the rows drawn for the sampling functions, all 2^n points for the exact
oracles.  Inner smoothing averages k resampling draws of every row from
the caller's stream.  The oracles pass no stream and get the exact
smoothed function, valid because every contribution is linear in the
inner estimate (the variance oracle adds the conditional variance term
in closed form).

The front ends take the parts by keyword, as `contribution` lists them,
and pass them on; the cube front end alone gives their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .cube import (
    ProductDistribution,
    _check_count,
    _check_pairing,
    _check_width,
    enumerate_points,
    point,
    points_to_indices,
    sample,
    weights,
)
from .fourier import BooleanFunction, FourierExpansion, _degree_one
from .operators import _smoothed_mc, noise_exact
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
    "contribution",
    "expected_value_by_enumeration",
    "variance_by_enumeration",
    "estimate_gradient",
    "check_trials",
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

@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and its knobs.

    rho is the keep-probability of the correlated resampler, in [0, 1];
    kinds that divide by it need rho > 0.  t_rho_samples is the inner
    Monte Carlo count k.  alpha scales the first-order term and beta the
    smoothing-based variate in `combined`.  The trainer's settings,
    its variance-track decay among them, belong to `sbn.TrainConfig`.

    exact_inner replaces inner Monte Carlo by the exactly smoothed
    function (k is then ignored).  taylor_at_sample switches `combined`
    to its biased variant, noted with the kinds beside the kernel.
    """

    kind: str
    rho: float = 0.5
    alpha: float = 1.0
    beta: float = 1.0
    t_rho_samples: int = 1
    exact_inner: bool = False
    taylor_at_sample: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown estimator kind %r (expected one of %s)"
                             % (self.kind, ", ".join(KINDS)))
        for name in ("exact_inner", "taylor_at_sample"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError("%s must be a bool, got %r"
                                 % (name, getattr(self, name)))
        if not np.isfinite(self.rho) or not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        _, terms = _kernel_probe(self)
        if self.rho == 0.0 and not all(np.isfinite(s) for _, s in terms):
            raise ValueError("kind %r divides by rho; rho must be positive"
                             % self.kind)
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        _check_count("t_rho_samples", self.t_rho_samples, 1)
        if self.taylor_at_sample and self.kind != "combined":
            raise ValueError("taylor_at_sample applies only to kind 'combined'")

    def label(self) -> str:
        """Canonical one-token description (comma-free, safe in CSV cells)."""
        flags = ""
        if self.exact_inner:
            flags += ";exact_inner"
        if self.taylor_at_sample:
            flags += ";taylor_at_sample"
        return "%s[rho=%s;alpha=%s;beta=%s;k=%d%s]" % (
            self.kind, repr(float(self.rho)), repr(float(self.alpha)),
            repr(float(self.beta)), self.t_rho_samples, flags)


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
        _check_pairing(dist, e.n, "expansion")
        grad = e.vector[1 << np.arange(dist.n)] / dist.sigma
        return cls(value=e.mean(), gradient=grad)

    @classmethod
    def from_function(cls, f: BooleanFunction,
                      dist: ProductDistribution) -> "MeanTaylor":
        """As `exact` of f's expansion, from its degree <= 1 coefficients
        alone."""
        c = _degree_one(f, dist)
        return cls(value=c[0], gradient=c[1:] / dist.sigma)


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
    return _score(_check_width(x, dist.n, "distribution"), dist.probs)


def _score(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """score_i(x) at probabilities p, (n,) or one row per row of x."""
    return np.where(np.asarray(x) > 0, 1.0 / p, -1.0 / (1.0 - p))


def log_prob(x: np.ndarray, dist: ProductDistribution) -> np.ndarray:
    """log p(x) under the product distribution; sums the last axis."""
    x = _check_width(x, dist.n, "distribution")
    terms = np.where(x > 0, np.log(dist.probs), np.log1p(-dist.probs))
    return terms.sum(axis=-1)


def derivative_tables(f: BooleanFunction) -> np.ndarray:
    """Truth tables of D_i f for every i, stacked (n, 2^n).

    D_i f(x) = (f at x_i=+1 minus f at x_i=-1)/2 equals the partial
    derivative of the multilinear extension; it involves no distribution.
    Row i writes (hi - lo)/2 to both entries of every pair (lo, hi) of
    f's table whose indices differ only in bit i.
    """
    t = f.values()
    out = np.empty((f.n, t.size))
    for i in range(f.n):
        pairs = t.reshape(-1, 2, 1 << i)
        row = out[i].reshape(-1, 2, 1 << i)
        row[:, 0] = row[:, 1] = (pairs[:, 1] - pairs[:, 0]) / 2.0
    return out


# ---------------------------------------------------------------------------
# The kernel and what it alone knows about each kind.
#
# The kinds, with sc = score(x), mu = 2p - 1 and T_rho the noise operator:
# - reinforce: f(x) * sc.  Unbiased, since d E[f] / d p_i = E[f sc_i].
# - reinforce_const_baseline: (f(x) - b) * sc.  E[sc] = 0, so it is
#   unbiased for any b that does not depend on x.
# - straight_through: 2 * D f(x), the factor 2 being d mu_i / d p_i.
#   Unbiased only when the derivative oracle is the exact multilinear
#   derivative; a relaxation's derivative (network training) biases it.
# - muprop: (f(x) - value - <gradient, x - mu>) * sc + 2 * gradient.
#   E[(x_j - mu_j) sc_i] is 2 at j = i and 0 otherwise, so the added
#   2 * gradient is the subtracted term's mean, for ANY (value, gradient).
# - fourier_cv: (f(x) - g(x) + T_rho g(x) / rho) * sc.  The variate
#   g - T_rho g / rho has no degree-one coefficients (rho^|S| cancels
#   1/rho at |S| = 1), so it is unbiased for any g.  A k-sample inner
#   estimate of T_rho g is unbiased given x, and the kind is linear in it.
# - fourier_cv_alt: (f(x) - g(x) + T_rho g(x) + T_{1-rho} g(x)) * sc.
#   Degree-one coefficients cancel as 1 - rho - (1 - rho) = 0, so it is
#   unbiased for any g and any rho in [0, 1].
# - combined: t(x) * sc + 2 alpha * gradient, with t(x) = f(x) - b - value
#   - alpha <gradient, x - mu> - beta (g(x) - T_rho g(x) / rho).  It sums
#   the variates of reinforce_const_baseline, muprop and fourier_cv, so it
#   is unbiased for any b that does not depend on x (it may depend on what
#   conditions the problem, e.g. the observation), any Taylor data and any
#   g.  With taylor_at_sample the
#   linear term takes the derivative at x, whose score-weighted mean has
#   no closed form, and adds no correction: that form is biased.

def _contributions(cfg: EstimatorConfig, x: np.ndarray, p: np.ndarray,
                   mu: np.ndarray, *, f, g, smoothed, taylor, deriv,
                   baseline) -> np.ndarray:
    """(B, n) contributions of kind cfg.kind at the rows x, whose
    coordinates are +1 with probabilities p and have means mu = 2p - 1,
    each (n,) or (B, n).

    The other parts are functions, called only if the kind uses them:
    f() and g(), the integrand and the surrogate at each row (B,);
    smoothed(r), T_r g at each row, sampled or exact (B,); taylor(),
    the integrand the first-order term expands at each row, its value
    at the mean and its gradient there, (n,) shared or (B, n) per row;
    deriv(), the integrand's derivative at each row (B, n); baseline(),
    a scalar or (B,) that must not depend on x.
    """
    if cfg.kind == "straight_through":
        return 2.0 * deriv()
    sc = _score(x, p)
    if cfg.kind == "reinforce":
        return f()[:, None] * sc
    if cfg.kind == "reinforce_const_baseline":
        return (f() - baseline())[:, None] * sc
    if cfg.kind == "fourier_cv":
        return (f() - g() + smoothed(cfg.rho) / cfg.rho)[:, None] * sc
    if cfg.kind == "fourier_cv_alt":
        t = f() - g() + smoothed(cfg.rho) + smoothed(1.0 - cfg.rho)
        return t[:, None] * sc
    fx, value, grad = taylor()
    lin = _linear(x - mu, deriv() if cfg.taylor_at_sample else grad)
    if cfg.kind == "muprop":
        return (fx - value - lin)[:, None] * sc + 2.0 * grad
    # combined; at beta = 0 it reads no g
    variate = g() - smoothed(cfg.rho) / cfg.rho if cfg.beta else 0.0
    t = fx - baseline() - value - cfg.alpha * lin - cfg.beta * variate
    out = t[:, None] * sc
    return out if cfg.taylor_at_sample else out + 2.0 * cfg.alpha * grad


def _linear(centered: np.ndarray, d: np.ndarray) -> np.ndarray:
    """<d, x - mu> per row.  A gradient shared by all rows is contracted by
    a matrix product, one per row by a row-wise sum; the two round
    differently, and each caller's outputs rest on its form."""
    return centered @ d if d.ndim == 1 else np.sum(d * centered, axis=1)


@lru_cache
def _kernel_probe(cfg: EstimatorConfig):
    """(parts, terms): the names of the keyword parts of `_contributions`
    that cfg's kind calls, and the (rate, slope) of every smoothed value
    it uses, in order, from one run of the kernel on recording parts.

    A contribution is affine in each smoothed value, with slope * score
    as its coefficient.  So at x = p = mu = 1 (score 1, x - mu = 0), with
    every other part 0, the kernel gives slope j on the row where value
    j alone is 1; at rho = 0 a kind that divides by rho gives a
    non-finite slope.  No kind uses more than two smoothed values.
    """
    read: set[str] = set()
    rates: list[float] = []
    zeros = dict(f=np.zeros(2), g=np.zeros(2), deriv=np.zeros((2, 1)),
                 taylor=(np.zeros(2), 0.0, np.zeros(1)), baseline=0.0)

    def part(name):
        read.add(name)
        return zeros[name]

    def smoothed(rho: float) -> np.ndarray:
        read.add("smoothed")
        rates.append(rho)
        return np.eye(2)[len(rates) - 1]

    with np.errstate(divide="ignore", invalid="ignore"):
        out = _contributions(
            cfg, np.ones((2, 1)), np.ones(1), np.ones(1), smoothed=smoothed,
            **{k: partial(part, k) for k in zeros})
    return frozenset(read), tuple(zip(rates, out[:len(rates), 0].tolist()))


# ---------------------------------------------------------------------------
# The cube front end: parts from truth tables, at one row, at the rows a
# sampler drew, or at every point of the cube.

def _cube_contributions(cfg: EstimatorConfig, f: BooleanFunction,
                        dist: ProductDistribution, xs: np.ndarray, rng=None, *,
                        g=None, baseline: float = 0.0, taylor=None,
                        derivs=None) -> np.ndarray:
    """The kernel at the rows xs.  g defaults to f, taylor to f's exact
    MeanTaylor and derivs to f's derivative tables.  Each smoothed value
    averages k resampling draws of all rows, taken from rng; without a
    stream, or when cfg asks for it, the smoothing is exact.  Every front
    end enters here, so the dimension and width rules are checked here."""
    if f is not None:
        _check_pairing(dist, f.n)
    xs = _check_width(xs, dist.n, "distribution")
    g = f if g is None else g
    exact = rng is None or cfg.exact_inner

    def first_order():
        t = MeanTaylor.from_function(f, dist) if taylor is None else taylor
        return f.batch(xs), t.value, t.gradient

    def deriv():
        d = derivative_tables(f) if derivs is None else np.asarray(derivs)
        if d.shape != (dist.n, 1 << dist.n):
            raise ValueError("derivative tables must have shape (%d, %d), got %s"
                             % (dist.n, 1 << dist.n, d.shape))
        return d[:, points_to_indices(xs)].T

    return _contributions(
        cfg, xs, dist.probs, dist.mu, f=lambda: f.batch(xs),
        g=lambda: g.batch(xs), taylor=first_order, smoothed=lambda rho: (
            noise_exact(g, rho, dist).batch(xs) if exact else _smoothed_mc(
                g.batch, xs, dist.probs, rho, cfg.t_rho_samples, rng)),
        deriv=deriv, baseline=lambda: baseline)


def contribution(cfg: EstimatorConfig, f, x: np.ndarray,
                 dist: ProductDistribution, rng=None, **parts) -> np.ndarray:
    """The contribution vector of kind cfg.kind at the point x.

    The parts, by keyword, each read only by the kinds that use it:
    - g: the surrogate, a table function, f by default;
    - baseline: a scalar that does not depend on x;
    - taylor: a `MeanTaylor`, f's exact one by default;
    - derivs: (n, 2^n) derivative tables, f's by default
      (`derivative_tables`); f may be None for straight_through when
      derivs is given.

    Inner smoothing draws from rng, and is exact without one.  x is
    checked as `point` checks it, and dist must have f's dimension.  A
    drawn point's contribution is contribution(cfg, f, sample(dist, rng),
    dist, rng, ...): from a fresh `stream(seed)` it is
    `estimate_gradient`'s with batch 1.

    A default is rebuilt on every call, so a per-point loop should build
    taylor and derivs once and pass them in.  On randpoly(10,3,0.5,5), on
    a 2-core Xeon, a `combined` call took 0.206 ms without them and
    0.060 ms with them.
    """
    return _cube_contributions(cfg, f, dist, point(x)[None, :], rng,
                               **parts)[0]


def expected_value_by_enumeration(cfg: EstimatorConfig, f: BooleanFunction,
                                  dist: ProductDistribution,
                                  **parts) -> np.ndarray:
    """Exact expectation of the contribution vector.

    Enumerates all 2^n points with their probabilities; inner Monte
    Carlo smoothing is replaced by the exact smoothed function, which
    preserves the expectation because contributions are linear in the
    inner estimate.
    """
    m = _cube_contributions(cfg, f, dist, enumerate_points(f.n), **parts)
    return weights(dist) @ m


def variance_by_enumeration(cfg: EstimatorConfig, f: BooleanFunction,
                            dist: ProductDistribution, g=None,
                            **parts) -> np.ndarray:
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
    pts = enumerate_points(f.n)
    w = weights(dist)
    m = _cube_contributions(cfg, f, dist, pts, g=g, **parts)
    mean = w @ m
    var = w @ (m * m) - mean * mean
    terms = () if cfg.exact_inner else _kernel_probe(cfg)[1]
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
                      **parts) -> GradientEstimate:
    """Average `batch` single-sample contributions from a fresh stream."""
    _check_count("batch", batch, 1)
    rng = stream(seed)
    xs = sample(dist, rng, size=batch)
    m = _cube_contributions(cfg, f, dist, xs, rng, **parts)
    return GradientEstimate(grad=m.mean(axis=0), batch=batch, seed=seed)


# ---------------------------------------------------------------------------
# Variance benchmarking.

def check_trials(trials: int) -> None:
    """Reject a trial count that is not an integer, or is too small for a
    sample variance (below 2)."""
    _check_count("trials", trials, 2)


@dataclass(frozen=True)
class VarianceReport:
    """Per-coordinate moments of single-sample contributions."""

    mean: np.ndarray
    variance: np.ndarray
    trials: int
    seed: int
    estimator: EstimatorConfig

    def __post_init__(self):
        for name in ("mean", "variance"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        check_trials(self.trials)
        if np.any(self.variance < 0.0):
            raise ValueError("variance must be non-negative")

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def to_csv(self, extra_header: str | None = None) -> str:
        """CSV with columns coord,mean,variance,trials,seed,estimator.

        A header comment records the estimator label, trials, and seed;
        callers may prepend one more comment line (resolved run config).
        Floats print via repr, so identical reports are byte-identical.
        """
        lines = []
        if extra_header:
            lines.append("# " + extra_header)
        lines.append("# estimator=%s trials=%d seed=%d"
                     % (self.estimator.label(), self.trials, self.seed))
        lines.append("coord,mean,variance,trials,seed,estimator")
        for i in range(self.n):
            lines.append("%d,%s,%s,%d,%d,%s" % (
                i, repr(float(self.mean[i])), repr(float(self.variance[i])),
                self.trials, self.seed, self.estimator.label()))
        return "\n".join(lines) + "\n"


def benchmark_variance(cfg: EstimatorConfig, f: BooleanFunction,
                       dist: ProductDistribution, trials: int, seed: int,
                       **parts) -> VarianceReport:
    """Empirical per-coordinate mean/variance over `trials` single samples.

    Takes a seed rather than a generator so the report pins its own
    provenance; the sampling order is fixed, making reruns identical.
    """
    check_trials(trials)
    rng = stream(seed)
    xs = sample(dist, rng, size=trials)
    m = _cube_contributions(cfg, f, dist, xs, rng, **parts)
    return VarianceReport(mean=m.mean(axis=0), variance=m.var(axis=0, ddof=1),
                          trials=trials, seed=seed, estimator=cfg)
