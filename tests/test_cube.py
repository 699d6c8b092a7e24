"""Cube layer: distributions, points, subset indices, sampling kernels."""

import numpy as np
import pytest
import warnings

from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from boolcube import (
    PROB_FLOOR,
    ProbabilityClampWarning,
    ProductDistribution,
    SubsetIndex,
    correlated_sample,
    enumerate_points,
    index_to_point,
    phi,
    phi_matrix,
    phi_set,
    point,
    point_to_index,
    sample,
    stream,
    weights,
)


def random_dist(n, rng):
    return ProductDistribution(rng.uniform(0.1, 0.9, n))


# ---------------------------------------------------------------------------
# ProductDistribution


def test_dist_mu_sigma_closed_forms():
    d = ProductDistribution([0.5, 0.75, 0.2])
    assert np.allclose(d.mu, [0.0, 0.5, -0.6])
    assert np.allclose(d.sigma, [1.0, 2 * np.sqrt(0.75 * 0.25), 2 * np.sqrt(0.2 * 0.8)])
    assert d.n == 3
    assert d.mean(1) == d.mu[1]
    assert d.sd(2) == d.sigma[2]


def test_dist_rejects_out_of_range():
    with pytest.raises(ValueError):
        ProductDistribution([0.5, 0.0])
    with pytest.raises(ValueError):
        ProductDistribution([1.0])
    with pytest.raises(ValueError):
        ProductDistribution([0.5, np.nan])
    with pytest.raises(ValueError):
        ProductDistribution([])


def test_dist_clamps_near_degenerate_with_warning():
    with pytest.warns(ProbabilityClampWarning):
        d = ProductDistribution([1e-9, 0.5])
    assert d.probs[0] == PROB_FLOOR
    assert d.min_outcome_probability() == PROB_FLOOR


def test_dist_probs_read_only():
    d = ProductDistribution([0.3, 0.7])
    with pytest.raises(ValueError):
        d.probs[0] = 0.5


def test_with_prob_replaces_one_coordinate():
    d = ProductDistribution([0.3, 0.7])
    d2 = d.with_prob(1, 0.4)
    assert d.probs[1] == 0.7 and d2.probs[1] == 0.4
    assert d2.probs[0] == 0.3


def test_uniform_constructor():
    d = ProductDistribution.uniform(4)
    assert np.all(d.probs == 0.5)
    assert np.all(d.mu == 0.0) and np.all(d.sigma == 1.0)


# ---------------------------------------------------------------------------
# Points and truth-table indexing


def test_point_validation():
    p = point([1, -1, 1])
    assert p.dtype == np.int8
    with pytest.raises(ValueError):
        point([1, 0, -1])
    with pytest.raises(ValueError):
        point([2, 1])
    with pytest.raises(ValueError) as err:
        point([[1]])
    assert str(err.value) == "a point is a non-empty 1-d sequence"


def test_index_convention_little_endian_plus_one_sets_bit():
    # x_0=+1 only -> bit 0 -> index 1
    assert point_to_index(point([1, -1, -1])) == 1
    assert point_to_index(point([-1, 1, -1])) == 2
    assert point_to_index(point([1, 1, 1])) == 7
    assert np.array_equal(index_to_point(5, 3), [1, -1, 1])
    with pytest.raises(ValueError) as err:
        index_to_point(8, 3)
    assert str(err.value) == "index out of range for dimension 3"


@given(st.integers(1, 12), st.integers(0, 2 ** 12 - 1))
def test_point_index_round_trip(n, m):
    m = m % (1 << n)
    assert point_to_index(index_to_point(m, n)) == m


def test_enumerate_points_rows_match_indices():
    pts = enumerate_points(4)
    assert pts.shape == (16, 4)
    for m in range(16):
        assert point_to_index(pts[m]) == m


def test_weights_match_per_point_products():
    rng = stream(0, 100)
    d = random_dist(3, rng)
    w = weights(d)
    assert w.shape == (8,)
    assert abs(w.sum() - 1.0) < 1e-12
    for m, x in enumerate(enumerate_points(3)):
        expect = np.prod(np.where(x > 0, d.probs, 1 - d.probs))
        assert abs(w[m] - expect) < 1e-15


# ---------------------------------------------------------------------------
# SubsetIndex


def test_subset_basics():
    s = SubsetIndex.of([2, 0])
    assert s.members == (0, 2)
    assert s.degree == 2
    assert s.contains(0) and not s.contains(1)
    assert s.without(2) == SubsetIndex.of([0])
    assert str(s) == "{0,2}"
    assert list(s) == [0, 2]
    assert SubsetIndex.empty().degree == 0
    assert SubsetIndex.full(3).members == (0, 1, 2)


def test_subset_validation():
    with pytest.raises(ValueError):
        SubsetIndex.of([0, 0])
    with pytest.raises(ValueError):
        SubsetIndex.of([-1])
    with pytest.raises(ValueError) as err:
        SubsetIndex(-1)
    assert str(err.value) == "mask must be non-negative"
    assert SubsetIndex.of([5]).valid_for(6)
    assert not SubsetIndex.of([5]).valid_for(5)


@given(st.sets(st.integers(0, 15), max_size=8))
def test_subset_members_round_trip(idx):
    s = SubsetIndex.of(sorted(idx))
    assert set(s.members) == idx
    assert s.degree == len(idx)


# ---------------------------------------------------------------------------
# phi basis


def test_phi_hand_values():
    d = ProductDistribution([0.5, 0.75])
    assert phi(0, point([1, 1]), d) == 1.0
    assert phi(0, point([-1, 1]), d) == -1.0
    assert abs(phi(1, point([1, 1]), d) - 0.5773503) < 1e-6


def test_phi_set_examples():
    d = ProductDistribution.uniform(2)
    x = point([1, -1])
    assert phi_set(SubsetIndex.empty(), x, d) == 1.0
    assert phi_set(SubsetIndex.of([0, 1]), x, d) == -1.0


def test_phi_moments_by_enumeration():
    # E[phi_i] = 0 and E[phi_i^2] = 1 under the defining distribution
    rng = stream(0, 101)
    for n in (1, 3, 6, 10):
        d = random_dist(n, rng)
        w = weights(d)
        ph = phi_matrix(enumerate_points(n), d)
        assert np.abs(w @ ph).max() < 1e-12
        assert np.abs(w @ ph ** 2 - 1.0).max() < 1e-12


def test_phi_set_orthonormality_exhaustive():
    rng = stream(0, 102)
    n = 4
    d = random_dist(n, rng)
    w = weights(d)
    pts = enumerate_points(n)
    cols = {}
    for mask in range(1 << n):
        s = SubsetIndex(mask)
        cols[mask] = np.array([phi_set(s, x, d) for x in pts])
    for a in range(1 << n):
        for b in range(1 << n):
            got = float(w @ (cols[a] * cols[b]))
            assert abs(got - (1.0 if a == b else 0.0)) < 1e-12


# ---------------------------------------------------------------------------
# Sampling


def test_sample_determinism_and_dtype():
    d = ProductDistribution([0.3, 0.8])
    a = sample(d, stream(7, 1), size=50)
    b = sample(d, stream(7, 1), size=50)
    assert np.array_equal(a, b)
    assert a.dtype == np.int8
    assert np.all(np.abs(a) == 1)


def test_sample_empirical_means():
    d = ProductDistribution.uniform(2)
    xs = sample(d, stream(7, 2), size=100000)
    assert np.abs(xs.mean(axis=0)).max() < 0.02

    d9 = ProductDistribution([0.9])
    xs = sample(d9, stream(7, 3), size=100000)
    assert abs(xs.mean() - 0.8) < 0.02


def test_correlated_sample_rho_extremes():
    rng = stream(7, 4)
    d = ProductDistribution([0.4, 0.6, 0.5])
    x = sample(d, rng)
    assert np.array_equal(correlated_sample(x, 1.0, d, stream(7, 5)), x)
    with pytest.raises(ValueError):
        correlated_sample(x, 1.5, d, rng)
    with pytest.raises(ValueError):
        correlated_sample(x, -0.1, d, rng)


def test_correlated_sample_conditional_mean():
    # E[x'_1 | x] = rho x_1 + (1-rho) mu = 0.5 for rho=0.5, p=0.5, x=+1
    d = ProductDistribution.uniform(1)
    x = point([1])
    draws = correlated_sample(x, 0.5, d, stream(7, 6), size=100000)
    assert abs(draws.mean() - 0.5) < 0.02


def test_correlated_sample_rho_zero_independent():
    # chi-squared independence between x and x' at rho=0, n=2
    d = ProductDistribution([0.35, 0.65])
    rng = stream(7, 8)
    xs = sample(d, rng, size=100000)
    resampled = correlated_sample(xs, 0.0, d, stream(7, 9))
    for i in range(2):
        table = np.zeros((2, 2))
        for a in (0, 1):
            for b in (0, 1):
                table[a, b] = np.sum((xs[:, i] == 2 * a - 1)
                                     & (resampled[:, i] == 2 * b - 1))
        _, pval, _, _ = chi2_contingency(table)
        assert pval > 0.001


def test_correlated_kernel_smooths_phi_by_rho():
    # exhaustive conditional expectation of phi_i(x') equals rho * phi_i(x)
    rng = stream(7, 10)
    d = random_dist(2, rng)
    rho = 0.37
    for x in enumerate_points(2):
        for i in range(2):
            # direct kernel enumeration: keep with prob rho, else marginal
            acc = 0.0
            for v in (-1, 1):
                pv = d.probs[i] if v == 1 else 1 - d.probs[i]
                prob = rho * (v == x[i]) + (1 - rho) * pv
                acc += prob * (v - d.mu[i]) / d.sigma[i]
            assert abs(acc - rho * phi(i, x, d)) < 1e-12


def test_correlated_sample_batch_shape():
    d = ProductDistribution.uniform(3)
    xs = sample(d, stream(1, 1), size=10)
    out = correlated_sample(xs, 0.5, d, stream(1, 2))
    assert out.shape == (10, 3)
    assert np.all(np.abs(out) == 1)


def test_phi_matrix_batch_matches_scalar():
    rng = stream(7, 11)
    d = random_dist(4, rng)
    xs = sample(d, stream(7, 12), size=6)
    ph = phi_matrix(xs, d)
    for r in range(6):
        for i in range(4):
            assert abs(ph[r, i] - phi(i, xs[r], d)) < 1e-15


def test_stream_path_disjointness():
    a = stream(3, 1).random(4)
    b = stream(3, 2).random(4)
    c = stream(3, 1).random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


def test_no_warning_for_interior_probs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ProductDistribution([0.2, 0.8])
