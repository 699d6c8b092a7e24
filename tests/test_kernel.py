"""The estimator kernel's batched path, bit for bit: the bitwise score
select against np.where, each kind's output formed in the score array
against the plain algebra, one table index per batch of rows, and one
smoothed table per rate in the variance oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolcube import (
    KINDS,
    PROB_FLOOR,
    EstimatorConfig,
    ProductDistribution,
    benchmark_variance,
    enumerate_points,
    expected_value_by_enumeration,
    noise_exact,
    parse_function,
    sample,
    score,
    stream,
    variance_by_enumeration,
    weights,
)
from boolcube import estimators
from boolcube.estimators import (_contributions, _cube_contributions,
                                 _kernel_probe, _score)

# Every kind, combined's biased form, combined without its variate, and
# non-default knobs.
CONFIGS = [EstimatorConfig(k) for k in KINDS] + [
    EstimatorConfig("combined", taylor_at_sample=True),
    EstimatorConfig("combined", beta=0.0),
    EstimatorConfig("combined", rho=0.3, alpha=0.7, beta=1.3),
    EstimatorConfig("fourier_cv_alt", rho=0.3),
]
IDS = [c.label() for c in CONFIGS]
F = parse_function("randpoly(6,3,0.5,5)").build()
G = parse_function("randpoly(6,2,0.5,9)").build()
DIST = ProductDistribution(np.linspace(0.2, 0.8, 6))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def where_score(x, p):
    return np.where(np.asarray(x) > 0, 1.0 / p, -1.0 / (1.0 - p))


PROBS = st.one_of(st.sampled_from([PROB_FLOOR, 0.5, 1.0 - PROB_FLOOR]),
                  st.floats(PROB_FLOOR, 1.0 - PROB_FLOOR))


@st.composite
def score_cases(draw):
    rows, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    shape = (rows, n) if draw(st.booleans()) else (n,)
    p = np.array(draw(st.lists(PROBS, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))).reshape(shape)
    if draw(st.booleans()):
        entries = st.sampled_from([-1, 0, 1])
        dtype = np.int8
    else:
        entries = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                            st.floats(-3.0, 3.0))
        dtype = np.float64
    x = np.array(draw(st.lists(entries, min_size=rows * n,
                               max_size=rows * n)), dtype=dtype)
    return x.reshape(rows, n), p


@given(score_cases())
def test_score_select_is_bit_identical_to_where(case):
    x, p = case
    assert same_bits(_score(x, p), where_score(x, p))


def test_score_select_at_scale_and_at_zero():
    r = stream(3)
    x = sample(DIST, r, size=2000)
    assert same_bits(score(x, DIST), where_score(x, DIST.probs))
    per_row = r.uniform(PROB_FLOOR, 1.0 - PROB_FLOOR, x.shape)
    assert same_bits(_score(x, per_row), where_score(x, per_row))
    p = np.array([PROB_FLOOR, 0.5, 1.0 - PROB_FLOOR])
    assert same_bits(_score(np.zeros((1, 3)), p), -1.0 / (1.0 - p)[None, :])


def reference_contributions(cfg, x, p, mu, *, f, g, smoothed, taylor, deriv,
                            baseline):
    """The kernel's algebra written out, each output a fresh product."""
    if cfg.kind == "straight_through":
        return 2.0 * deriv()
    sc = where_score(x, p)
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
    d = deriv() if cfg.taylor_at_sample else grad
    centered = x - mu
    lin = centered @ d if d.ndim == 1 else np.sum(d * centered, axis=1)
    if cfg.kind == "muprop":
        return (fx - value - lin)[:, None] * sc + 2.0 * grad
    variate = g() - smoothed(cfg.rho) / cfg.rho if cfg.beta else 0.0
    t = fx - baseline() - value - cfg.alpha * lin - cfg.beta * variate
    out = t[:, None] * sc
    return out if cfg.taylor_at_sample else out + 2.0 * cfg.alpha * grad


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_contributions_match_the_plain_algebra_bit_for_bit(cfg, per_row, dtype):
    r = stream(11)
    rows, n = 40, 7
    x = np.where(r.random((rows, n)) < 0.4, 1, -1).astype(dtype)
    p = r.uniform(PROB_FLOOR, 1.0 - PROB_FLOOR, (rows, n) if per_row else n)
    mu = 2.0 * p - 1.0
    f, g = r.normal(size=rows), r.normal(size=rows)
    smooth = [r.normal(size=rows), r.normal(size=rows)]
    fx, value = r.normal(size=rows), r.normal()
    grad = r.normal(size=(rows, n) if per_row else n)
    deriv = r.normal(size=(n, rows)).T  # the cube front end's layout
    base = r.normal(size=rows) if per_row else r.normal()
    frozen = [a.copy() for a in (f, g, *smooth, fx, grad, deriv)]

    def parts():
        draws = iter(smooth)
        return dict(f=lambda: f, g=lambda: g, smoothed=lambda rho: next(draws),
                    taylor=lambda: (fx, value, grad), deriv=lambda: deriv,
                    baseline=lambda: base)

    got = _contributions(cfg, x, p, mu, **parts())
    assert same_bits(got, reference_contributions(cfg, x, p, mu, **parts()))
    for a, b in zip(frozen, (f, g, *smooth, fx, grad, deriv)):
        assert same_bits(a, b)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_each_cube_front_end_indexes_its_rows_once(cfg, monkeypatch):
    calls = []
    index = estimators.points_to_indices

    def counting(xs):
        calls.append(np.array(xs))
        return index(xs)

    monkeypatch.setattr(estimators, "points_to_indices", counting)
    # f, its first-order term, g, exact smoothing and the derivative
    # tables are the tables a kind can read at its rows
    want = 1 if _kernel_probe(cfg)[0] & {"f", "g", "smoothed", "taylor",
                                         "deriv"} else 0
    for g in (None, G):
        parts = {} if g is None else dict(g=g)
        for run, rows in (
                (lambda: benchmark_variance(cfg, F, DIST, 300, 4, **parts),
                 sample(DIST, stream(4), size=300)),
                (lambda: expected_value_by_enumeration(cfg, F, DIST, **parts),
                 enumerate_points(F.n)),
                (lambda: variance_by_enumeration(cfg, F, DIST, **parts),
                 enumerate_points(F.n))):
            calls.clear()
            run()
            assert len(calls) == want
            assert all(np.array_equal(c, rows) for c in calls)


@pytest.mark.parametrize("exact_inner", [False, True])
@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_variance_oracle_smooths_g_once_per_rate(cfg, exact_inner, monkeypatch):
    cfg = EstimatorConfig(cfg.kind, rho=cfg.rho, alpha=cfg.alpha,
                          beta=cfg.beta, t_rho_samples=3,
                          exact_inner=exact_inner,
                          taylor_at_sample=cfg.taylor_at_sample)
    for g in (F, G):
        # the law of total variance as written with T_rho g smoothed anew
        pts, w = enumerate_points(F.n), weights(DIST)
        m = _cube_contributions(cfg, F, DIST, pts, g=g)
        mean = w @ m
        want = w @ (m * m) - mean * mean
        terms = () if exact_inner else _kernel_probe(cfg)[1]
        if terms:
            g2 = type(g)(g.n, table=g.values() ** 2)
            inner = sum(slope ** 2 * np.maximum(
                noise_exact(g2, rho, DIST).values()
                - noise_exact(g, rho, DIST).values() ** 2, 0.0)
                for rho, slope in terms) / cfg.t_rho_samples
            want = want + w @ (score(pts, DIST) ** 2 * inner[:, None])

        smoothed = []
        real = estimators.noise_exact

        def counting(h, rho, dist):
            if h is g:
                smoothed.append(rho)
            return real(h, rho, dist)

        monkeypatch.setattr(estimators, "noise_exact", counting)
        got = variance_by_enumeration(cfg, F, DIST, g=g)
        monkeypatch.setattr(estimators, "noise_exact", real)
        assert np.array_equal(got, want)
        rates = sorted({rho for rho, _ in _kernel_probe(cfg)[1]})
        assert sorted(smoothed) == rates
