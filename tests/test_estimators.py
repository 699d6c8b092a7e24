"""Gradient estimators: identities, unbiasedness, variance oracles, benchmark."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import boolcube
from boolcube import (
    KINDS,
    BooleanFunction,
    EstimatorConfig,
    GradientEstimate,
    MeanTaylor,
    ProductDistribution,
    SubsetIndex,
    benchmark_variance,
    contribution,
    derivative_tables,
    enumerate_points,
    estimate_gradient,
    exact_gradient,
    expected_value_by_enumeration,
    inverse_transform,
    log_prob,
    multilinear_gradient,
    noise_exact,
    parse_function,
    phi_matrix,
    point,
    sample,
    score,
    stream,
    transform,
    variance_by_enumeration,
    weights,
)
from boolcube.operators import discrete_derivative

MAJ3 = parse_function("maj(3)").build()
U3 = ProductDistribution.uniform(3)


def random_dist(n, rng):
    return ProductDistribution(rng.uniform(0.1, 0.9, n))


def random_function(n, rng):
    return BooleanFunction(n, table=rng.choice([-1.0, 1.0], size=1 << n))


# ---------------------------------------------------------------------------
# Score function.

def test_score_two_closed_forms_agree():
    # 1/p at +1 and -1/(1-p) at -1 must equal 2*phi_i/sigma_i.
    rng = stream(3)
    for _ in range(20):
        dist = random_dist(5, rng)
        xs = sample(dist, rng, size=64)
        via_probs = score(xs, dist)
        via_phi = 2.0 * phi_matrix(xs, dist) / dist.sigma
        assert np.max(np.abs(via_probs - via_phi)) < 1e-12


def test_score_hand_values():
    dist = ProductDistribution([0.25, 0.5])
    sc = score(point([1, -1]), dist)
    assert sc == pytest.approx([4.0, -2.0], abs=1e-15)


def test_score_moments_by_enumeration():
    # E[score] = 0 and E[score_i score_j] = delta_ij / (p_i (1 - p_i)).
    dist = ProductDistribution([0.2, 0.5, 0.7, 0.35])
    pts = enumerate_points(4)
    w = weights(dist)
    sc = score(pts, dist)
    assert np.max(np.abs(w @ sc)) < 1e-14
    second = sc.T @ (w[:, None] * sc)
    expect = np.diag(1.0 / (dist.probs * (1.0 - dist.probs)))
    assert np.max(np.abs(second - expect)) < 1e-12


def test_log_prob_matches_product():
    dist = ProductDistribution([0.25, 0.5, 0.9])
    lp = log_prob(point([1, -1, -1]), dist)
    assert lp == pytest.approx(np.log(0.25) + np.log(0.5) + np.log(0.1), abs=1e-14)
    pts = enumerate_points(3)
    assert np.exp(log_prob(pts, dist)) == pytest.approx(weights(dist), abs=1e-14)


# ---------------------------------------------------------------------------
# Derivative tables.

def test_derivative_tables_dictator_and_majority():
    # parity(1) infers two coordinates and depends only on the second
    d = derivative_tables(parse_function("parity(1)").build())
    assert np.array_equal(d[1], np.ones(4))
    assert np.array_equal(d[0], np.zeros(4))
    # majority: flipping one vote matters only when the other two split
    d = derivative_tables(MAJ3)
    idx_all_plus = 7
    assert d[0][idx_all_plus] == 0.0
    idx_split = 2  # x = (-1, +1, -1): votes split, coordinate 0 decides
    assert d[0][idx_split] == 1.0


def test_derivative_tables_match_the_single_coordinate_pass_bit_for_bit():
    # row i is the table pass on coordinate i alone writing (hi - lo)/2
    # to both entries, as derivative_tables was once computed; here each
    # entry m reads its pair by index in the table's own layout, where
    # coordinate i is bit i
    for n in range(1, 17):
        f = BooleanFunction(n, table=stream(0, 400 + n).normal(size=1 << n))
        t, m = f.values(), np.arange(1 << n)
        want = np.array([(t[m | 1 << i] - t[m & ~(1 << i)]) / 2.0
                         for i in range(n)])
        got = derivative_tables(f)
        assert got.shape == (n, 1 << n) and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), n


def test_derivative_tables_match_expansion_derivative():
    # table derivative equals the expansion derivative divided by sigma_i,
    # whatever distribution built the expansion
    rng = stream(4)
    for _ in range(10):
        f = random_function(4, rng)
        dist = random_dist(4, rng)
        e = transform(f, dist)
        d = derivative_tables(f)
        for i in range(4):
            via_exp = inverse_transform(discrete_derivative(e, i), dist).values()
            assert np.max(np.abs(d[i] - via_exp / dist.sigma[i])) < 1e-10


def test_derivative_tables_match_multilinear_gradient():
    rng = stream(5)
    f = random_function(4, rng)
    dist = random_dist(4, rng)
    e = transform(f, dist)
    d = derivative_tables(f)
    pts = enumerate_points(4)
    for idx in range(16):
        g = multilinear_gradient(e, pts[idx], dist)
        assert np.max(np.abs(g - d[:, idx])) < 1e-10


# ---------------------------------------------------------------------------
# Per-sample hand examples.

def test_reinforce_hand_example():
    out = contribution(EstimatorConfig("reinforce"), MAJ3, point([1, 1, 1]), U3)
    assert out == pytest.approx([2.0, 2.0, 2.0], abs=1e-15)


def test_reinforce_constant_function_averages_to_zero():
    f = BooleanFunction(3, table=np.full(8, 0.75))
    cfg = EstimatorConfig("reinforce")
    assert np.max(np.abs(expected_value_by_enumeration(cfg, f, U3))) < 1e-14


def test_const_baseline_zero_matches_reinforce():
    rng = stream(6)
    f = random_function(3, rng)
    dist = random_dist(3, rng)
    for x in enumerate_points(3):
        a = contribution(EstimatorConfig("reinforce"), f, x, dist)
        b = contribution(EstimatorConfig("reinforce_const_baseline"), f, x,
                         dist, baseline=0.0)
        assert np.array_equal(a, b)


def test_const_baseline_same_mean_any_constant():
    cfg0 = EstimatorConfig("reinforce_const_baseline")
    f = MAJ3
    for c in (0.0, 0.5, -3.0, 10.0):
        enum = expected_value_by_enumeration(cfg0, f, U3, baseline=c)
        assert np.max(np.abs(enum - exact_gradient(f, U3))) < 1e-12


def test_const_baseline_variance_ordering():
    # centering at the mean beats a distant constant; exact values for maj3
    cfg = EstimatorConfig("reinforce_const_baseline")
    at_mean = variance_by_enumeration(cfg, MAJ3, U3, baseline=0.0)
    far = variance_by_enumeration(cfg, MAJ3, U3, baseline=10.0)
    assert at_mean == pytest.approx([3.0, 3.0, 3.0], abs=1e-12)
    assert far == pytest.approx([403.0, 403.0, 403.0], abs=1e-10)
    assert np.all(at_mean < far)


def test_straight_through_hand_examples():
    dictator = parse_function("parity(1)").build()
    st = EstimatorConfig("straight_through")
    d = derivative_tables(dictator)
    out = contribution(st, None, point([-1, 1]),
                       ProductDistribution([0.3, 0.6]), derivs=d)
    assert out == pytest.approx([0.0, 2.0], abs=1e-15)
    # at a unanimous majority vote every single flip is irrelevant
    out = contribution(st, None, point([1, 1, 1]), U3,
                       derivs=derivative_tables(MAJ3))
    assert out == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_straight_through_unbiased_with_exact_derivative():
    rng = stream(7)
    cfg = EstimatorConfig("straight_through")
    for _ in range(10):
        f = random_function(4, rng)
        dist = random_dist(4, rng)
        enum = expected_value_by_enumeration(cfg, f, dist)
        assert np.max(np.abs(enum - exact_gradient(f, dist))) < 1e-10


def test_contribution_at_a_drawn_point_is_a_one_row_estimate():
    # at k = 1 and k = 3, contribution at the point sample(dist, rng)
    # draws, with the stream left where that draw leaves it, is
    # estimate_gradient's one-row estimate from the same seed
    cases = [(MAJ3, U3),
             (parse_function("randpoly(5,3,0.5,7)").build(),
              ProductDistribution([0.2, 0.35, 0.5, 0.65, 0.8]))]
    for k, (f, dist) in itertools.product((1, 3), cases):
        taylor = MeanTaylor.from_function(f, dist)
        tables = derivative_tables(f)
        runs = [
            (EstimatorConfig("reinforce"), f, {}),
            (EstimatorConfig("reinforce_const_baseline"), f,
             {"baseline": 0.0}),
            (EstimatorConfig("straight_through"), None, {"derivs": tables}),
            (EstimatorConfig("muprop"), f, {"taylor": taylor}),
            (EstimatorConfig("fourier_cv", rho=0.5, t_rho_samples=k), f,
             {"g": f}),
            (EstimatorConfig("fourier_cv_alt", rho=0.5, t_rho_samples=k), f,
             {"g": f}),
            (EstimatorConfig("combined", t_rho_samples=k), f,
             {"g": f, "baseline": 0.0, "taylor": taylor}),
            (EstimatorConfig("combined", rho=0.5, t_rho_samples=k,
                             taylor_at_sample=True), f,
             {"g": f, "baseline": 0.0, "taylor": taylor, "derivs": tables}),
            (EstimatorConfig("combined", t_rho_samples=k, exact_inner=True),
             f, {"g": f, "baseline": 0.0, "taylor": taylor}),
        ]
        for cfg, fn, parts in runs:
            for s in range(20):
                rng = stream(s)
                got = contribution(cfg, fn, sample(dist, rng), dist, rng,
                                   **parts)
                want = estimate_gradient(cfg, fn, dist, 1, s, **parts).grad
                assert np.array_equal(got, want), (cfg.label(), s)


def test_muprop_hand_example():
    taylor = MeanTaylor.from_function(MAJ3, U3)
    assert taylor.value == pytest.approx(0.0, abs=1e-15)
    assert taylor.gradient == pytest.approx([0.5, 0.5, 0.5], abs=1e-14)
    out = contribution(EstimatorConfig("muprop"), MAJ3, point([1, 1, 1]), U3,
                       taylor=taylor)
    # residual -0.5 times score 2 cancels the +2*0.5 correction exactly
    assert out == pytest.approx([0.0, 0.0, 0.0], abs=1e-13)


def test_muprop_unbiased_for_arbitrary_taylor():
    # the +2*gradient correction makes any (value, gradient) pair legal
    rng = stream(8)
    f = random_function(3, rng)
    dist = random_dist(3, rng)
    taylor = MeanTaylor(value=0.3, gradient=[0.1, -0.2, 0.4])
    cfg = EstimatorConfig("muprop")
    enum = expected_value_by_enumeration(cfg, f, dist, taylor=taylor)
    assert np.max(np.abs(enum - exact_gradient(f, dist))) < 1e-12


def test_muprop_zero_variance_on_degree_one():
    f = parse_function("poly{0.5*[];0.25*[0];-0.75*[2]}").build()
    cfg = EstimatorConfig("muprop")
    dist = ProductDistribution([0.3, 0.5, 0.8])
    assert np.max(np.abs(variance_by_enumeration(cfg, f, dist))) < 1e-12
    rng = stream(9)
    out = contribution(cfg, f, sample(dist, rng), dist, rng)
    assert np.max(np.abs(out - exact_gradient(f, dist))) < 1e-12


def test_fourier_cv_with_zero_g_is_reinforce():
    g0 = BooleanFunction(3, table=np.zeros(8))
    rng = stream(10)
    cfg = EstimatorConfig("fourier_cv", rho=0.5, t_rho_samples=1)
    for x in enumerate_points(3):
        a = contribution(cfg, MAJ3, x, U3, rng, g=g0)
        assert np.array_equal(
            a, contribution(EstimatorConfig("reinforce"), MAJ3, x, U3))


def test_fourier_cv_rejects_rho_zero():
    with pytest.raises(ValueError):
        EstimatorConfig("fourier_cv", rho=0.0)


def test_variate_spectrum_degree_one_vanishes():
    # g - T_rho(g)/rho kills degree one and rescales the mean by 1 - 1/rho
    rng = stream(11)
    for _ in range(20):
        g = random_function(4, rng)
        dist = random_dist(4, rng)
        for rho in (0.25, 0.5, 0.75):
            h = BooleanFunction(
                4, table=g.values() - noise_exact(g, rho, dist).values() / rho)
            e = transform(h, dist)
            ge = transform(g, dist)
            for i in range(4):
                assert abs(e.coefficient(SubsetIndex.of([i]))) < 1e-12
            want = ge.mean() * (1.0 - 1.0 / rho)
            assert e.mean() == pytest.approx(want, abs=1e-12)


def test_alt_variate_spectrum_degree_one_vanishes():
    # g - T_rho(g) - T_{1-rho}(g): degree-one factors cancel as rho + (1-rho)
    rng = stream(12)
    for _ in range(20):
        g = random_function(4, rng)
        dist = random_dist(4, rng)
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            h = BooleanFunction(
                4, table=(g.values() - noise_exact(g, rho, dist).values()
                          - noise_exact(g, 1.0 - rho, dist).values()))
            e = transform(h, dist)
            for i in range(4):
                assert abs(e.coefficient(SubsetIndex.of([i]))) < 1e-12


def test_fourier_cv_alt_unbiased_at_rho_extremes():
    rng = stream(13)
    f = random_function(3, rng)
    g = random_function(3, rng)
    dist = random_dist(3, rng)
    for rho in (0.0, 1.0):
        cfg = EstimatorConfig("fourier_cv_alt", rho=rho)
        enum = expected_value_by_enumeration(cfg, f, dist, g=g)
        assert np.max(np.abs(enum - exact_gradient(f, dist))) < 1e-10


def test_combined_alpha_beta_zero_is_centered_reinforce():
    taylor = MeanTaylor.from_function(MAJ3, U3)
    cfg = EstimatorConfig("combined", alpha=0.0, beta=0.0, rho=0.5)
    for x in enumerate_points(3):
        a = contribution(cfg, MAJ3, x, U3, stream(14), g=MAJ3, baseline=0.0,
                         taylor=taylor)
        b = contribution(EstimatorConfig("reinforce_const_baseline"), MAJ3, x,
                         U3, baseline=taylor.value)
        assert np.max(np.abs(a - b)) < 1e-14


def test_combined_alpha_one_beta_zero_is_muprop():
    rng = stream(15)
    f = random_function(3, rng)
    dist = random_dist(3, rng)
    taylor = MeanTaylor.from_function(f, dist)
    cfg = EstimatorConfig("combined", alpha=1.0, beta=0.0, rho=0.5)
    for x in enumerate_points(3):
        a = contribution(cfg, f, x, dist, stream(16), g=f, baseline=0.0,
                         taylor=taylor)
        b = contribution(EstimatorConfig("muprop"), f, x, dist, taylor=taylor)
        assert np.max(np.abs(a - b)) < 1e-13


def test_combined_at_beta_zero_reads_no_g():
    # at beta = 0 the kernel skips the variate, so neither g nor rho, which
    # the variate divides by, changes a contribution, and rho = 0 is valid
    rng = stream(17)
    f, g = random_function(3, rng), random_function(3, rng)
    dist = random_dist(3, rng)
    want = variance_by_enumeration(EstimatorConfig("combined", beta=0.0),
                                   f, dist)
    for rho in (0.0, 0.5):
        cfg = EstimatorConfig("combined", beta=0.0, rho=rho)
        assert np.array_equal(variance_by_enumeration(cfg, f, dist, g=g),
                              want)


def test_combined_taylor_at_sample_defaults_to_own_derivative():
    # without a derivative oracle the linear term reads f's own tables,
    # as in every batched front end
    cfg = EstimatorConfig("combined", taylor_at_sample=True)
    taylor = MeanTaylor.from_function(MAJ3, U3)
    for x in enumerate_points(3):
        a = contribution(cfg, MAJ3, x, U3, stream(17), g=MAJ3, taylor=taylor)
        b = contribution(cfg, MAJ3, x, U3, stream(17), g=MAJ3, taylor=taylor,
                         derivs=derivative_tables(MAJ3))
        assert np.array_equal(a, b)


def test_combined_taylor_at_sample_bias_measured():
    # pointwise first-order term with no correction: bias is real and,
    # on majority, exactly -1 per coordinate
    cfg = EstimatorConfig("combined", rho=0.5, taylor_at_sample=True)
    enum = expected_value_by_enumeration(cfg, MAJ3, U3)
    bias = enum - exact_gradient(MAJ3, U3)
    assert bias == pytest.approx([-1.0, -1.0, -1.0], abs=1e-12)


# ---------------------------------------------------------------------------
# Unbiasedness across the board.

def test_unbiasedness_fifty_random_instances():
    rng = stream(18)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(2, 7))
        f = random_function(n, rng)
        g = random_function(n, rng)
        dist = random_dist(n, rng)
        rho = float(rng.uniform(0.25, 0.75))
        baseline = float(rng.uniform(-2.0, 2.0))
        exact = exact_gradient(f, dist)
        for kind in ("reinforce", "reinforce_const_baseline",
                     "straight_through", "muprop", "fourier_cv",
                     "fourier_cv_alt", "combined"):
            cfg = EstimatorConfig(kind, rho=rho)
            enum = expected_value_by_enumeration(cfg, f, dist, g=g,
                                                 baseline=baseline)
            assert np.max(np.abs(enum - exact)) < 1e-10, (trial, kind)
            checked += 1
    assert checked == 350


# ---------------------------------------------------------------------------
# Variance oracles.

def test_reinforce_variance_closed_form():
    # var_i = (2/sigma_i)^2 E[(f phi_i)^2] - grad_i^2, second moment via
    # Parseval on the transform of f * phi_i
    rng = stream(19)
    for _ in range(10):
        f = random_function(4, rng)
        dist = random_dist(4, rng)
        got = variance_by_enumeration(EstimatorConfig("reinforce"), f, dist)
        grad = exact_gradient(f, dist)
        pts = enumerate_points(4)
        for i in range(4):
            h = BooleanFunction(4, table=f.values() * phi_matrix(pts, dist)[:, i])
            e = transform(h, dist)
            second = sum(c * c for c in e.coeffs.values())
            want = (2.0 / dist.sigma[i]) ** 2 * second - grad[i] ** 2
            assert got[i] == pytest.approx(want, abs=1e-10)


def test_enumeration_oracles_vs_joint_enumeration():
    # independent check of the law-of-total-variance bookkeeping: enumerate
    # the (x, inner y) pair exhaustively for fourier_cv with k = 1
    rng = stream(20)
    f = random_function(3, rng)
    g = random_function(3, rng)
    dist = random_dist(3, rng)
    rho = 0.6
    cfg = EstimatorConfig("fourier_cv", rho=rho, t_rho_samples=1)
    pts = enumerate_points(3)
    w = weights(dist)
    mean = np.zeros(3)
    second = np.zeros(3)
    for a, x in enumerate(pts):
        sc = score(x, dist)
        for y in pts:
            keep = rho * (y == x) + (1.0 - rho) * np.where(
                y > 0, dist.probs, 1.0 - dist.probs)
            py = float(np.prod(keep))
            c = (f.value(x) - g.value(x) + g.value(y) / rho) * sc
            mean += w[a] * py * c
            second += w[a] * py * c * c
    assert np.max(np.abs(mean - expected_value_by_enumeration(cfg, f, dist, g=g))) < 1e-12
    joint_var = second - mean * mean
    assert np.max(np.abs(joint_var - variance_by_enumeration(cfg, f, dist, g=g))) < 1e-10


def test_exact_inner_witness_equals_reinforce_on_smoothed():
    # with g = f and the inner expectation taken exactly, the contribution
    # collapses to (T_rho f / rho) * score, so both oracles must agree with
    # plain reinforce applied to that smoothed function
    rng = stream(21)
    for _ in range(5):
        f = random_function(4, rng)
        dist = random_dist(4, rng)
        rho = float(rng.uniform(0.3, 0.9))
        cfg = EstimatorConfig("fourier_cv", rho=rho, exact_inner=True)
        h = BooleanFunction(4, table=noise_exact(f, rho, dist).values() / rho)
        r = EstimatorConfig("reinforce")
        assert np.max(np.abs(expected_value_by_enumeration(cfg, f, dist)
                             - expected_value_by_enumeration(r, h, dist))) < 1e-12
        assert np.max(np.abs(variance_by_enumeration(cfg, f, dist)
                             - variance_by_enumeration(r, h, dist))) < 1e-10


def test_variance_goldens_pinned_functions():
    # exact per-coordinate variances at p = 0.5, g = f, rho = 0.5, k = 1
    cases = {
        "maj(3)": {"reinforce": 3.0, "fourier_cv": 15.0,
                   "exact_inner": 2.0625, "combined": 13.0},
        "parity(0,1,2)": {"reinforce": 4.0, "fourier_cv": 16.0,
                          "exact_inner": 0.25, "combined": 16.0},
    }
    for name, want in cases.items():
        f = parse_function(name).build()
        dist = ProductDistribution.uniform(f.n)
        got = {
            "reinforce": variance_by_enumeration(
                EstimatorConfig("reinforce"), f, dist),
            "fourier_cv": variance_by_enumeration(
                EstimatorConfig("fourier_cv", rho=0.5), f, dist),
            "exact_inner": variance_by_enumeration(
                EstimatorConfig("fourier_cv", rho=0.5, exact_inner=True), f, dist),
            "combined": variance_by_enumeration(
                EstimatorConfig("combined", rho=0.5), f, dist),
        }
        for key, value in want.items():
            assert got[key] == pytest.approx(np.full(f.n, value), abs=1e-12), (
                name, key)


def test_variance_direction_exact_inner_beats_reinforce():
    # the smoothing variate helps once the inner expectation is exact;
    # with k = 1 Monte Carlo smoothing the resampling noise dominates and
    # the same configuration is strictly worse on all three functions
    for name in ("maj(3)", "parity(0,1,2)", "randpoly(6,3,0.5,17)"):
        f = parse_function(name).build()
        dist = ProductDistribution.uniform(f.n)
        base = variance_by_enumeration(EstimatorConfig("reinforce"), f, dist)
        exact = variance_by_enumeration(
            EstimatorConfig("fourier_cv", rho=0.5, exact_inner=True), f, dist)
        mc = variance_by_enumeration(
            EstimatorConfig("fourier_cv", rho=0.5, t_rho_samples=1), f, dist)
        assert np.all(exact < base), name
        assert np.all(mc > base), name


def test_variance_measured_matches_enumeration():
    # 1e5 pinned trials land within 3 percent of the exact values
    for name in ("maj(3)", "randpoly(6,3,0.5,17)"):
        f = parse_function(name).build()
        dist = ProductDistribution.uniform(f.n)
        for cfg in (EstimatorConfig("reinforce"),
                    EstimatorConfig("fourier_cv", rho=0.5)):
            exact = variance_by_enumeration(cfg, f, dist, g=f)
            rep = benchmark_variance(cfg, f, dist, trials=100000, seed=91, g=f)
            rel = np.abs(rep.variance - exact) / exact
            assert np.max(rel) < 0.03, (name, cfg.kind)


def test_inner_sample_count_shrinks_inner_term():
    # conditional-variance term scales as 1/k on top of the exact-inner floor
    f = parse_function("randpoly(5,3,0.5,3)").build()
    dist = ProductDistribution.uniform(5)
    floor = variance_by_enumeration(
        EstimatorConfig("fourier_cv", rho=0.5, exact_inner=True), f, dist)
    v1 = variance_by_enumeration(
        EstimatorConfig("fourier_cv", rho=0.5, t_rho_samples=1), f, dist)
    v4 = variance_by_enumeration(
        EstimatorConfig("fourier_cv", rho=0.5, t_rho_samples=4), f, dist)
    assert np.max(np.abs((v4 - floor) * 4.0 - (v1 - floor))) < 1e-9
    assert np.all(v4 < v1)


_NO_SCIPY = """
import sys
import boolcube
from boolcube.cli import main

def scipy_modules():
    return [name for name in sys.modules if name.split(".")[0] == "scipy"]

assert not scipy_modules(), scipy_modules()
assert main(["bench", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert not scipy_modules(), scipy_modules()
"""


def test_import_and_bench_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests alone
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"function": "maj(3)", "trials": 500, "k": 2,
                                "estimators": list(KINDS)}))
    src = os.path.dirname(os.path.dirname(boolcube.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(cfgp),
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(list((tmp_path / "out").iterdir())) == len(KINDS)


# ---------------------------------------------------------------------------
# Sampling front ends.

def test_estimate_gradient_concentrates():
    cfg = EstimatorConfig("muprop")
    est = estimate_gradient(cfg, MAJ3, U3, batch=20000, seed=25)
    assert est.batch == 20000 and est.seed == 25
    assert np.max(np.abs(est.grad - exact_gradient(MAJ3, U3))) < 0.05


def test_estimate_gradient_deterministic():
    cfg = EstimatorConfig("fourier_cv", rho=0.5)
    a = estimate_gradient(cfg, MAJ3, U3, batch=500, seed=26)
    b = estimate_gradient(cfg, MAJ3, U3, batch=500, seed=26)
    assert np.array_equal(a.grad, b.grad)


def test_gradient_estimate_rejects_nonfinite():
    with pytest.raises(ValueError):
        GradientEstimate(grad=np.array([1.0, np.nan]), batch=1, seed=0)
    with pytest.raises(ValueError):
        estimate_gradient(EstimatorConfig("reinforce"), MAJ3, U3, batch=0, seed=0)


# ---------------------------------------------------------------------------
# Benchmark harness.

def test_benchmark_constant_function_exact_variance():
    # c * score has variance c^2 / (p (1-p)) per coordinate; 9.0 at p = 1/2
    f = BooleanFunction(3, table=np.full(8, 1.5))
    exact = variance_by_enumeration(EstimatorConfig("reinforce"), f, U3)
    assert exact == pytest.approx([9.0, 9.0, 9.0], abs=1e-12)
    rep = benchmark_variance(EstimatorConfig("reinforce"), f, U3,
                             trials=20000, seed=27)
    assert rep.variance == pytest.approx(exact, rel=0.05)


def test_benchmark_muprop_linear_zero_variance():
    f = parse_function("poly{0.25*[0];-0.75*[2]}").build()
    rep = benchmark_variance(EstimatorConfig("muprop"), f, U3,
                             trials=2000, seed=28)
    assert np.max(rep.variance) < 1e-24
    assert np.max(np.abs(rep.mean - exact_gradient(f, U3))) < 1e-12


def test_benchmark_reruns_byte_identical():
    cfg = EstimatorConfig("fourier_cv", rho=0.5)
    a = benchmark_variance(cfg, MAJ3, U3, trials=300, seed=29).to_csv()
    b = benchmark_variance(cfg, MAJ3, U3, trials=300, seed=29).to_csv()
    assert a == b


def test_benchmark_csv_structure():
    cfg = EstimatorConfig("reinforce")
    text = benchmark_variance(cfg, MAJ3, U3, trials=10, seed=30).to_csv(
        extra_header="cmd=bench")
    lines = text.splitlines()
    assert lines[0] == "# cmd=bench"
    assert lines[1].startswith("# estimator=reinforce[")
    assert lines[2] == "coord,mean,variance,trials,seed,estimator"
    assert len(lines) == 6
    assert text.endswith("\n")


def test_variance_report_refuses_negative_variance():
    rep = benchmark_variance(EstimatorConfig("reinforce"), MAJ3, U3,
                             trials=10, seed=0)
    with pytest.raises(ValueError) as err:
        dataclasses.replace(rep, variance=-1.0 - rep.variance)
    assert str(err.value) == "variance must be non-negative"


def test_benchmark_rejects_tiny_runs():
    with pytest.raises(ValueError):
        benchmark_variance(EstimatorConfig("reinforce"), MAJ3, U3,
                           trials=1, seed=0)


# ---------------------------------------------------------------------------
# Config and guards.

def test_config_validation():
    with pytest.raises(ValueError, match="unknown estimator"):
        EstimatorConfig("nvil")
    with pytest.raises(ValueError, match="rho"):
        EstimatorConfig("reinforce", rho=1.5)
    with pytest.raises(ValueError, match="positive"):
        EstimatorConfig("fourier_cv", rho=0.0)
    with pytest.raises(ValueError, match="positive"):
        EstimatorConfig("combined", rho=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig("reinforce", alpha=np.inf)
    with pytest.raises(ValueError):
        EstimatorConfig("fourier_cv", t_rho_samples=0)
    # only what the kernel and the cube front ends read; the trainer's
    # variance-track decay is TrainConfig's
    assert [f.name for f in dataclasses.fields(EstimatorConfig)] == [
        "kind", "rho", "alpha", "beta", "t_rho_samples", "exact_inner",
        "taylor_at_sample"]
    with pytest.raises(ValueError, match="combined"):
        EstimatorConfig("muprop", taylor_at_sample=True)
    # rho = 0 is legal where no division by rho happens
    EstimatorConfig("fourier_cv_alt", rho=0.0)


def test_config_label_golden():
    cfg = EstimatorConfig("fourier_cv", rho=0.5)
    assert cfg.label() == "fourier_cv[rho=0.5;alpha=1.0;beta=1.0;k=1]"
    cfg = EstimatorConfig("combined", exact_inner=True)
    assert cfg.label().endswith(";exact_inner]")
    assert "," not in cfg.label()
    cfg = EstimatorConfig("combined", taylor_at_sample=True)
    assert cfg.label() == ("combined[rho=0.5;alpha=1.0;beta=1.0;k=1;"
                           "taylor_at_sample]")


def test_enumeration_oracles_at_max_n_match_exact_gradient():
    # both cube oracles run at the table limit, n = 16.  The mean is the
    # exact gradient.  With g = f, no baseline and exact smoothing the
    # score-weighted term t is f for reinforce and T_rho f / rho - E f -
    # <grad / 2, x - mu> for combined, whose mean is then all in its
    # constant grad; the variance is E[t^2 score^2] less (grad - constant)^2.
    rng = stream(23)
    f = random_function(16, rng)
    dist = random_dist(16, rng)
    grad = exact_gradient(f, dist)
    pts = enumerate_points(16)
    w = weights(dist)
    table = f.values()
    combined_t = (noise_exact(f, 0.5, dist).values() / 0.5 - w @ table
                  - (pts - dist.mu) @ (grad / 2.0))
    for cfg, t, constant in (
            (EstimatorConfig("reinforce"), table, 0.0),
            (EstimatorConfig("combined", exact_inner=True), combined_t, grad)):
        mean = expected_value_by_enumeration(cfg, f, dist)
        assert np.max(np.abs(mean - grad)) < 1e-10, cfg.kind
        var = variance_by_enumeration(cfg, f, dist)
        want = (w @ (t[:, None] ** 2 * score(pts, dist) ** 2)
                - (grad - constant) ** 2)
        assert np.max(np.abs(var - want)) < 1e-10 * np.max(want), cfg.kind


def test_derivative_tables_of_another_dimension_are_refused():
    # tables of a 4-dim function for a 3-dim problem
    wrong = derivative_tables(random_function(4, stream(29)))
    cfg = EstimatorConfig("straight_through")
    shape = r"shape \(3, 8\), got \(4, 16\)"
    with pytest.raises(ValueError, match=shape):
        contribution(cfg, MAJ3, point([1, 1, -1]), U3, derivs=wrong)
    with pytest.raises(ValueError, match=shape):
        expected_value_by_enumeration(cfg, MAJ3, U3, derivs=wrong)


def test_mean_taylor_read_only():
    t = MeanTaylor(value=1.0, gradient=[0.5, -0.5])
    with pytest.raises(ValueError):
        t.gradient[0] = 9.0
