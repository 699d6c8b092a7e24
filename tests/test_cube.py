"""Cube layer: distributions, points, subset indices, sampling kernels."""

import numpy as np
import pytest
import warnings

from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from boolcube import (
    KINDS,
    PROB_FLOOR,
    BooleanFunction,
    EstimatorConfig,
    FourierExpansion,
    InferenceNet,
    MeanTaylor,
    ProbabilityClampWarning,
    ProductDistribution,
    SbnModel,
    SubsetIndex,
    TrainConfig,
    bars_dataset,
    benchmark_variance,
    check_trials,
    coefficient_mc,
    contribution,
    correlated_sample,
    discrete_derivative,
    enumerate_points,
    estimate_gradient,
    exact_gradient,
    expectation,
    expected_value_by_enumeration,
    hypercontractivity_check,
    index_to_point,
    inverse_transform,
    log_prob,
    multilinear_gradient,
    noise_exact,
    noise_expansion,
    noise_mc,
    norm,
    numeric_gradient,
    parse_function,
    phi,
    phi_matrix,
    phi_set,
    point,
    point_to_index,
    points_to_indices,
    rho_bound,
    sample,
    score,
    stream,
    transform,
    variance_by_enumeration,
    weights,
)
from boolcube.cube import _per_coordinate, _resampled
from boolcube.fourier import _degree_one
from boolcube.nets import MLP
from boolcube.operators import _smoothed_mc


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
# The per-coordinate table pass


def per_coordinate_by_hand(table, coords, step):
    """The pass in the table's own layout: coordinate i is bit i, and
    step returns the new pair."""
    work = np.array(table, dtype=np.float64)
    for i in coords:
        pairs = work.reshape(-1, 2, 1 << i)
        pairs[:, 0], pairs[:, 1] = step(i, pairs[:, 0], pairs[:, 1])
    return work


def uneven_step(i, lo, hi):
    """Non-linear and asymmetric in lo and hi, so a wrong pairing or a
    swapped pair cannot cancel out; bounded, so repeats stay finite."""
    return (lo * hi / (1.0 + lo * lo + hi * hi) + 0.25 * i,
            (lo - hi) / (1.0 + hi * hi) - 0.5)


def writing(step):
    """A step returning its pair as one writing into the output views,
    which must not overlap its inputs."""
    def into(i, lo, hi, out_lo, out_hi):
        for out in (out_lo, out_hi):
            assert not np.shares_memory(out, lo)
            assert not np.shares_memory(out, hi)
        out_lo[...], out_hi[...] = step(i, lo, hi)
    return into


@pytest.mark.parametrize("n", range(1, 17))
def test_per_coordinate_matches_the_plain_loop_bit_for_bit(n):
    rng = stream(0, 300 + n)
    table = rng.normal(size=1 << n)
    before = table.copy()
    for reverse, coords in ((False, range(n)), (True, range(n - 1, -1, -1))):
        got = _per_coordinate(table, writing(uneven_step), reverse)
        want = per_coordinate_by_hand(table, coords, uneven_step)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), reverse
        assert got.dtype == np.float64 and got.shape == (1 << n,)
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, table)
    assert np.array_equal(table.view(np.int64), before.view(np.int64))


def butterfly_tables(n, dist, rng):
    """Tables that stress the butterfly's rounding and its drop rule: a
    normal draw, its rounding to quarters, a huge scale, a constant, and
    the variate q - T_0.5 q / 0.5 of the rounded table, whose degree-one
    coefficients come out as rounding residue the drop rule zeroes, also
    at scale 1e-15."""
    t = rng.normal(size=1 << n)
    q = np.round(4.0 * t) / 4.0
    v = q - noise_exact(BooleanFunction(n, table=q), 0.5, dist).values() / 0.5
    return [t, q, 1e8 * t, np.full(1 << n, 0.75), v, 1e-15 * v]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 16])
def test_butterfly_operators_match_their_old_arithmetic_bit_for_bit(n):
    # transform, inverse_transform and noise_exact against the pass in
    # the table's own layout, each with the pair arithmetic it had as a
    # step returning its pair
    rng = stream(0, 350 + n)
    cases = [(dist, t)
             for dist in (ProductDistribution(rng.uniform(0.02, 0.98, n)),
                          ProductDistribution(np.full(n, PROB_FLOOR)))
             for t in butterfly_tables(n, dist, rng)]
    for dist, t in cases:
        f = BooleanFunction(n, table=t)
        p, sigma = dist.probs, dist.sigma
        want = per_coordinate_by_hand(t, range(n), lambda i, lo, hi: (
            (1.0 - p[i]) * lo + p[i] * hi, sigma[i] / 2.0 * (hi - lo)))
        want[np.abs(want) <= 1e-14 * np.abs(t).max()] = 0.0
        e = transform(f, dist)
        assert np.array_equal(e.vector.view(np.int64), want.view(np.int64))

        phi_lo, phi_hi = -np.sqrt(p / (1.0 - p)), np.sqrt((1.0 - p) / p)
        want = per_coordinate_by_hand(e.vector, range(n - 1, -1, -1),
                                      lambda i, a, b: (a + phi_lo[i] * b,
                                                       a + phi_hi[i] * b))
        got = inverse_transform(e, dist).values()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

        for rho in (0.0, 0.6, 1.0, 1.3, -0.4):
            want = per_coordinate_by_hand(t, range(n), lambda i, lo, hi: (
                lo + ((1.0 - rho) * p[i]) * (hi - lo),
                hi - ((1.0 - rho) * (1.0 - p[i])) * (hi - lo)))
            got = noise_exact(f, rho, dist).values()
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), rho


def test_degree_one_equals_the_transform_entries_bit_for_bit():
    rng = stream(0, 370)
    for n in range(1, 17):
        dist = ProductDistribution(rng.uniform(0.02, 0.98, n))
        slots = np.concatenate([[0], 1 << np.arange(n)])
        for t in butterfly_tables(n, dist, rng):
            f = BooleanFunction(n, table=t)
            want = transform(f, dist).vector[slots]
            got = _degree_one(f, dist)
            assert got.shape == (n + 1,) and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), n


def test_degree_one_callers_equal_the_transform_route_bit_for_bit():
    # exact_gradient and MeanTaylor.from_function read the degree <= 1
    # coefficients from _degree_one; both equal the full spectrum's route
    rng = stream(0, 371)
    for n in (1, 2, 5, 10, 16):
        dist = ProductDistribution(rng.uniform(0.02, 0.98, n))
        for t in butterfly_tables(n, dist, rng):
            f = BooleanFunction(n, table=t)
            e = transform(f, dist)
            want = 2.0 / dist.sigma * e.vector[1 << np.arange(n)]
            got = exact_gradient(f, dist)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            want, got = MeanTaylor.exact(e, dist), MeanTaylor.from_function(f, dist)
            assert np.float64(got.value).view(np.int64) == \
                np.float64(want.value).view(np.int64)
            assert np.array_equal(got.gradient.view(np.int64),
                                  want.gradient.view(np.int64))


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


def sample_by_hand(p, size, rng):
    """The sampler written out: one uniform per coordinate, +1 below p."""
    shape = np.shape(p) if size is None else (size, np.size(p))
    return np.where(rng.random(shape) < p, 1, -1).astype(np.int8)


@pytest.mark.parametrize("size", [None, 1, 7, 1000])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_sample_matches_the_hand_written_draw(n, size):
    # bit for bit, dtype included, and two draws in a row leave the
    # stream where the reference leaves it; p at both clamp floors too
    r = stream(6, n)
    for probs in (r.uniform(0.1, 0.9, n), np.full(n, PROB_FLOOR),
                  np.full(n, 1.0 - PROB_FLOOR),
                  np.resize([PROB_FLOOR, 1.0 - PROB_FLOOR, 0.5], n)):
        d = ProductDistribution(probs)
        rng, ref = stream(6, 1, n), stream(6, 1, n)
        for _ in range(2):
            got = sample(d, rng, size=size)
            assert got.dtype == np.int8
            assert np.array_equal(got, sample_by_hand(d.probs, size, ref))


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


def resampled_by_hand(x, rho, p, rng):
    """The resampler written out: one uniform array for the keep mask,
    then one for the fresh values, taken from rng in that order; rows
    are read by sign and returned as -1/+1."""
    keep = rng.random(np.shape(x)) < rho
    fresh = np.where(rng.random(np.shape(x)) < p, 1, -1)
    return np.where(keep, np.where(np.asarray(x) > 0, 1, -1), fresh)


F5 = parse_function("randpoly(5,3,0.5,3)").build()


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("dtype", [np.int8, np.float64, bool])
def test_resampler_draws_keep_then_fresh(rho, dtype):
    # the batch entry points replay the hand-written stream order bit for
    # bit, whatever dtype carries the rows, on a table and on a net that
    # takes -1/+1 rows as the trainer's g does
    rows, n = 40, 5
    r = stream(5, 8)
    d = random_dist(n, r)
    signs = sample(d, r, size=rows)
    xs = signs > 0 if dtype is bool else signs.astype(dtype)

    got = correlated_sample(xs, rho, d, stream(5, 9))
    assert got.dtype == np.int8
    assert np.array_equal(got, resampled_by_hand(signs, rho, d.probs,
                                                 stream(5, 9)))

    net = MLP(stream(5, 10), (n, 8, 1))
    for p in (d.probs, r.uniform(0.1, 0.9, (rows, n))):
        for k in (1, 3):
            ref = stream(5, 11)
            drawn = [resampled_by_hand(signs, rho, p, ref) for _ in range(k)]
            for g, on_rows in (
                    (F5.batch, F5.batch),
                    (lambda bits: net.value(np.where(bits, 1.0, -1.0)),
                     net.value)):
                want = np.zeros(rows)
                for x in drawn:
                    want += on_rows(x)
                got = _smoothed_mc(g, xs, p, rho, k, stream(5, 11))
                assert np.array_equal(got, want / k), (k, p.ndim)


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_resampled_selects_from_a_read_only_view_and_per_row_p(rho):
    # the select writes only into its own fresh draw: a broadcast view of
    # one point's bits is read as it is, and p may be one row per row
    rows, n = 40, 5
    r = stream(5, 13)
    d = random_dist(n, r)
    x = index_to_point(19, n)
    view = np.broadcast_to(x > 0, (rows, n))
    assert not view.flags.writeable
    signs = sample(d, r, size=rows)
    for p in (d.probs, r.uniform(0.1, 0.9, (rows, n))):
        for bits, ref in ((view, np.broadcast_to(x, (rows, n))),
                          (signs > 0, signs)):
            got = _resampled(bits, rho, p, stream(5, 14))
            assert got.dtype == bool and got.shape == (rows, n)
            want = resampled_by_hand(ref, rho, p, stream(5, 14))
            assert np.array_equal(np.where(got, 1, -1), want), np.ndim(p)
    assert np.array_equal(view, np.broadcast_to(x > 0, (rows, n)))


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_resampler_draws_keep_then_fresh_from_one_point(rho, dtype):
    rows, n = 40, 5
    d = random_dist(n, stream(5, 8))
    x = index_to_point(19, n).astype(dtype)
    tiled = np.broadcast_to(x, (rows, n))
    got = correlated_sample(x, rho, d, stream(5, 9))
    assert got.dtype == np.int8
    assert np.array_equal(got, resampled_by_hand(x, rho, d.probs,
                                                 stream(5, 9)))
    got = correlated_sample(x, rho, d, stream(5, 9), size=rows)
    assert np.array_equal(got, resampled_by_hand(tiled, rho, d.probs,
                                                 stream(5, 9)))
    want = np.mean(F5.batch(resampled_by_hand(tiled, rho, d.probs,
                                              stream(5, 12))))
    assert noise_mc(F5, x, rho, d, stream(5, 12), samples=rows) == want


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


# ---------------------------------------------------------------------------
# The shape rules, one refusal per entry point and rule: a distribution
# pairs only with a table or expansion of its own dimension ("dimension"),
# rows have the paired object's width ("width"), and a point a caller
# passes is exactly -1/+1 ("value").  Each message is written once, in
# `cube`.  tests/test_exports.py requires a row for every public callable
# with a `dist` parameter.

F3 = parse_function("maj(3)").build()
F2 = BooleanFunction(2, table=np.ones(4))
E3 = transform(F3, ProductDistribution.uniform(3))
D1, D2, D3 = (ProductDistribution.uniform(n) for n in (1, 2, 3))
X2, X3 = [1, -1], [1, -1, 1]
CFG = EstimatorConfig("combined")

PAIR_F = "distribution dimension 2 != function dimension 3"
PAIR_E = "distribution dimension 2 != expansion dimension 3"
WIDTH_F = "points have 2 coordinates, the function 3"
WIDTH_G = "points have 3 coordinates, the function 2"
WIDTH_D3 = "points have 2 coordinates, the distribution 3"
WIDTH_D1 = "points have 3 coordinates, the distribution 1"
VALUE = "point coordinates must be exactly -1 or +1"


def fresh_rng():
    return stream(5, 5)


# (entry point, rule, call, message)
REFUSALS = [
    ("weights", "dimension", lambda: weights(ProductDistribution.uniform(17)),
     "dimension 17 lies outside the supported range [1, 16]"),
    ("enumerate_points", "dimension", lambda: enumerate_points(17),
     "dimension 17 lies outside the supported range [1, 16]"),
    ("enumerate_points", "dimension-float", lambda: enumerate_points(2.5),
     "dimension must be an integer, got 2.5"),
    ("BooleanFunction", "dimension-float",
     lambda: BooleanFunction(2.5, table=np.ones(4)),
     "dimension must be an integer, got 2.5"),
    ("BooleanFunction", "dimension-bool",
     lambda: BooleanFunction(True, table=np.ones(2)),
     "dimension must be an integer, got True"),
    ("FourierExpansion", "dimension-float", lambda: FourierExpansion(3.9),
     "dimension must be an integer, got 3.9"),
    ("index_to_point", "dimension", lambda: index_to_point(0, 0),
     "dimension 0 lies outside the supported range [1, 16]"),
    ("point_to_index", "value", lambda: point_to_index([1, 0, 1]), VALUE),
    ("point_to_index", "dimension-17", lambda: point_to_index([1] * 17),
     "dimension 17 lies outside the supported range [1, 16]"),
    ("point_to_index", "dimension-64", lambda: point_to_index([1] * 64),
     "dimension 64 lies outside the supported range [1, 16]"),
    ("points_to_indices", "dimension-0",
     lambda: points_to_indices(np.ones((2, 0))),
     "dimension 0 lies outside the supported range [1, 16]"),
    ("points_to_indices", "dimension-17",
     lambda: points_to_indices(np.ones((2, 17))),
     "dimension 17 lies outside the supported range [1, 16]"),
    ("points_to_indices", "dimension-63",
     lambda: points_to_indices(np.ones((2, 63))),
     "dimension 63 lies outside the supported range [1, 16]"),
    ("points_to_indices", "dimension-64",
     lambda: points_to_indices(np.ones((2, 64), dtype=np.int8)),
     "dimension 64 lies outside the supported range [1, 16]"),
    ("points_to_indices", "dimension-70", lambda: points_to_indices([1] * 70),
     "dimension 70 lies outside the supported range [1, 16]"),
    ("correlated_sample", "width",
     lambda: correlated_sample(X3, 0.5, D1, fresh_rng()), WIDTH_D1),
    ("correlated_sample", "value",
     lambda: correlated_sample([1, 0, 1], 1.0, D3, fresh_rng()), VALUE),
    ("correlated_sample", "rows",
     lambda: correlated_sample(sample(D3, fresh_rng(), size=4), 0.5, D3,
                               fresh_rng(), size=5), "size 5 != 4 rows of x"),
    ("phi", "width", lambda: phi(0, X3, D1), WIDTH_D1),
    ("phi_set", "width", lambda: phi_set(SubsetIndex.of([0]), X3, D1),
     WIDTH_D1),
    ("phi_matrix", "width", lambda: phi_matrix(X3, D1), WIDTH_D1),
    ("BooleanFunction.value", "width", lambda: F3.value(X2), WIDTH_F),
    ("BooleanFunction.value", "value", lambda: F3.value([1, 0.5, -3]), VALUE),
    ("BooleanFunction.batch", "width", lambda: F3.batch([X2]), WIDTH_F),
    ("FourierExpansion.evaluate", "dimension", lambda: E3.evaluate(X2, D2),
     PAIR_E),
    ("FourierExpansion.evaluate", "width", lambda: E3.evaluate(X2, D3),
     WIDTH_D3),
    ("FourierExpansion.evaluate_batch", "dimension",
     lambda: E3.evaluate_batch([X2], D2), PAIR_E),
    ("FourierExpansion.evaluate_batch", "width",
     lambda: E3.evaluate_batch([X2], D3), WIDTH_D3),
    ("transform", "dimension", lambda: transform(F3, D2), PAIR_F),
    ("inverse_transform", "dimension", lambda: inverse_transform(E3, D2),
     PAIR_E),
    ("multilinear_gradient", "dimension",
     lambda: multilinear_gradient(E3, X2, D2), PAIR_E),
    ("multilinear_gradient", "width",
     lambda: multilinear_gradient(E3, X2, D3), WIDTH_D3),
    ("norm", "dimension", lambda: norm(F3, D2, 2.0), PAIR_F),
    ("coefficient_mc", "dimension",
     lambda: coefficient_mc(F3, SubsetIndex.of([0]), D2, fresh_rng(), 10),
     PAIR_F),
    ("noise_exact", "dimension", lambda: noise_exact(F3, 0.5, D2), PAIR_F),
    ("noise_mc", "dimension",
     lambda: noise_mc(F3, X3, 0.5, D2, fresh_rng()), PAIR_F),
    ("noise_mc", "width",
     lambda: noise_mc(F3, X2, 0.5, D3, fresh_rng()), WIDTH_F),
    ("noise_mc", "value",
     lambda: noise_mc(F3, [1, 0, 1], 0.5, D3, fresh_rng()), VALUE),
    ("expectation", "dimension", lambda: expectation(F3, D2), PAIR_F),
    ("exact_gradient", "dimension", lambda: exact_gradient(F3, D2), PAIR_F),
    ("numeric_gradient", "dimension", lambda: numeric_gradient(F3, D2),
     PAIR_F),
    ("hypercontractivity_check", "dimension",
     lambda: hypercontractivity_check(F3, D2), PAIR_F),
    ("MeanTaylor.exact", "dimension", lambda: MeanTaylor.exact(E3, D2), PAIR_E),
    ("MeanTaylor.from_function", "dimension",
     lambda: MeanTaylor.from_function(F3, D2), PAIR_F),
    ("score", "width", lambda: score(X3, D1), WIDTH_D1),
    ("log_prob", "width", lambda: log_prob(X3, D1), WIDTH_D1),
    ("contribution", "dimension", lambda: contribution(CFG, F3, X3, D2),
     PAIR_F),
    ("contribution", "width", lambda: contribution(CFG, F3, X2, D3), WIDTH_D3),
    ("contribution", "value", lambda: contribution(CFG, F3, [1, 0, 1], D3),
     VALUE),
    ("contribution", "g-width",
     lambda: contribution(CFG, F3, X3, D3, g=F2), WIDTH_G),
    ("expected_value_by_enumeration", "g-width",
     lambda: expected_value_by_enumeration(CFG, F3, D3, g=F2), WIDTH_G),
    ("expected_value_by_enumeration", "dimension",
     lambda: expected_value_by_enumeration(CFG, F3, D2), PAIR_F),
    ("variance_by_enumeration", "dimension",
     lambda: variance_by_enumeration(CFG, F3, D2), PAIR_F),
    ("estimate_gradient", "dimension",
     lambda: estimate_gradient(CFG, F3, D2, 10, 0), PAIR_F),
    ("benchmark_variance", "dimension",
     lambda: benchmark_variance(CFG, F3, D2, 10, 0), PAIR_F),
]


@pytest.mark.parametrize("entry, rule, call, message", REFUSALS,
                         ids=["%s-%s" % row[:2] for row in REFUSALS])
def test_shape_rule_refusals(entry, rule, call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("kind", KINDS)
def test_estimator_front_ends_refuse_a_mismatch_with_one_message(kind):
    cfg = EstimatorConfig(kind)
    for call in (lambda: contribution(cfg, F3, X3, D2),
                 lambda: expected_value_by_enumeration(cfg, F3, D2),
                 lambda: variance_by_enumeration(cfg, F3, D2),
                 lambda: estimate_gradient(cfg, F3, D2, 10, 0),
                 lambda: benchmark_variance(cfg, F3, D2, 10, 0)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == PAIR_F


def test_point_to_index_and_phi_read_the_checked_point():
    # point_to_index is points_to_indices of a checked point, and phi and
    # phi_set read phi_matrix; both agree with the direct formulas
    r = stream(5, 6)
    for n in (1, 5, 16):
        d = random_dist(n, r)
        for m in r.integers(0, 1 << n, 20):
            x = index_to_point(int(m), n)
            assert point_to_index(x) == m
            assert point_to_index(x.astype(np.float64)) == m
            y = r.uniform(-1.0, 1.0, n)
            for z in (x, y):
                direct = (np.asarray(z) - d.mu) / d.sigma
                for i in range(n):
                    assert phi(i, z, d) == direct[i]
                S = SubsetIndex(int(r.integers(0, 1 << n)))
                want = 1.0
                for i in S:
                    want *= direct[i]
                assert phi_set(S, z, d) == want


def cfg_t(k):
    return EstimatorConfig("fourier_cv", t_rho_samples=k)


def cfg_train(**kw):
    args = dict(estimator=EstimatorConfig("reinforce"), steps=1, seed=0)
    args.update(kw)
    return TrainConfig(**args)


# Settings and counts that are not integers, out of range or not finite,
# each refused by the function or config class that owns it: (id, call,
# message).
SETTINGS = [
    ("t_rho_samples-float", lambda: cfg_t(1.5),
     "t_rho_samples must be an integer"),
    ("t_rho_samples-bool", lambda: cfg_t(True),
     "t_rho_samples must be an integer"),
    ("t_rho_samples-zero", lambda: cfg_t(0), "t_rho_samples must be at least 1"),
    ("exact_inner-text",
     lambda: EstimatorConfig("combined", exact_inner="false"),
     "exact_inner must be a bool, got 'false'"),
    ("exact_inner-int", lambda: EstimatorConfig("combined", exact_inner=1),
     "exact_inner must be a bool, got 1"),
    ("taylor_at_sample-text",
     lambda: EstimatorConfig("combined", taylor_at_sample="no"),
     "taylor_at_sample must be a bool, got 'no'"),
    ("steps-float", lambda: cfg_train(steps=1.5),
     "steps and minibatch must be integers"),
    ("minibatch-float", lambda: cfg_train(minibatch=2.0),
     "steps and minibatch must be integers"),
    ("learning_rate-nan", lambda: cfg_train(learning_rate=np.nan),
     "learning rates must be positive and finite"),
    ("baseline_lr_scale-nan", lambda: cfg_train(baseline_lr_scale=np.nan),
     "learning rates must be positive and finite"),
    ("learning_rate-inf", lambda: cfg_train(learning_rate=np.inf),
     "learning rates must be positive and finite"),
    ("baseline_lr_scale-inf", lambda: cfg_train(baseline_lr_scale=np.inf),
     "learning rates must be positive and finite"),
    ("check_trials-float", lambda: check_trials(2.5),
     "trials must be an integer"),
    ("benchmark_variance-trials-float",
     lambda: benchmark_variance(CFG, F3, D3, 2.5, 0),
     "trials must be an integer"),
    ("estimate_gradient-batch-float",
     lambda: estimate_gradient(CFG, F3, D3, 2.5, 0),
     "batch must be an integer"),
    ("noise_mc-samples-float",
     lambda: noise_mc(F3, X3, 0.5, D3, fresh_rng(), samples=2.5),
     "samples must be an integer"),
    ("norm-order-nan", lambda: norm(F3, D3, np.nan),
     "norm order must be at least 1"),
    ("rho_bound-q-nan", lambda: rho_bound(np.nan, 0.5), "q must exceed 2"),
    ("numeric_gradient-h-zero", lambda: numeric_gradient(F3, D3, h=0.0),
     "step h must be positive"),
    ("numeric_gradient-h-nan", lambda: numeric_gradient(F3, D3, h=np.nan),
     "step h must be positive"),
    ("sample-size-negative", lambda: sample(D3, fresh_rng(), size=-1),
     "size must be at least 1"),
    ("sample-size-float", lambda: sample(D3, fresh_rng(), size=1.5),
     "size must be an integer"),
    ("correlated_sample-size-zero",
     lambda: correlated_sample(X3, 0.5, D3, fresh_rng(), size=0),
     "size must be at least 1"),
    ("noise_exact-rho-nan", lambda: noise_exact(F3, np.nan, D3),
     "rho must be finite"),
    ("noise_exact-rho-inf", lambda: noise_exact(F3, -np.inf, D3),
     "rho must be finite"),
    ("noise_expansion-rho-nan", lambda: noise_expansion(E3, np.nan),
     "rho must be finite"),
    ("noise_expansion-rho-inf", lambda: noise_expansion(E3, np.inf),
     "rho must be finite"),
    ("discrete_derivative-i-float", lambda: discrete_derivative(E3, 1.5),
     "coordinate i must be an integer"),
    ("discrete_derivative-i-bool", lambda: discrete_derivative(E3, True),
     "coordinate i must be an integer"),
    ("discrete_derivative-i-past-n", lambda: discrete_derivative(E3, 3),
     "coordinate 3 out of range [0, 3)"),
    ("noise_expansion-rho-overflow", lambda: noise_expansion(E3, 1e200),
     "rho = 1e+200 takes the scaled coefficients past the float range"),
    ("noise_expansion-rho-overflow-float64",
     lambda: noise_expansion(E3, np.float64(1e200)),
     "rho = 1e+200 takes the scaled coefficients past the float range"),
    ("with_prob-i-negative", lambda: D3.with_prob(-1, 0.3),
     "coordinate -1 out of range [0, 3)"),
    ("with_prob-i-float", lambda: D3.with_prob(0.0, 0.3),
     "coordinate i must be an integer"),
    ("mean-i-negative", lambda: D3.mean(-1),
     "coordinate -1 out of range [0, 3)"),
    ("mean-i-float", lambda: D3.mean(1.0), "coordinate i must be an integer"),
    ("sd-i-negative", lambda: D3.sd(-3), "coordinate -3 out of range [0, 3)"),
    ("sd-i-past-n", lambda: D3.sd(3), "coordinate 3 out of range [0, 3)"),
    ("phi-i-negative", lambda: phi(-1, X3, D3),
     "coordinate -1 out of range [0, 3)"),
    ("phi-i-float", lambda: phi(2.0, X3, D3),
     "coordinate i must be an integer"),
    ("phi_set-member-past-n", lambda: phi_set(SubsetIndex.of([0, 5]), X3, D3),
     "coordinate 5 out of range [0, 3)"),
    ("SubsetIndex.of-float", lambda: SubsetIndex.of([1.5]),
     "coordinate 1.5 is not a non-negative integer"),
    ("SubsetIndex.of-negative", lambda: SubsetIndex.of([0, -1]),
     "coordinate -1 is not a non-negative integer"),
    ("SubsetIndex.of-bool", lambda: SubsetIndex.of([True]),
     "coordinate True is not a non-negative integer"),
    ("SubsetIndex.contains-negative", lambda: SubsetIndex(3).contains(-1),
     "coordinate -1 is not a non-negative integer"),
    ("SubsetIndex.without-negative", lambda: SubsetIndex(3).without(-1),
     "coordinate -1 is not a non-negative integer"),
    ("SubsetIndex.without-float", lambda: SubsetIndex(3).without(0.5),
     "coordinate 0.5 is not a non-negative integer"),
    ("SubsetIndex.full-negative", lambda: SubsetIndex.full(-1),
     "n must be at least 0"),
    ("SubsetIndex.full-float", lambda: SubsetIndex.full(2.5),
     "n must be an integer"),
    ("SubsetIndex.full-bool", lambda: SubsetIndex.full(True),
     "n must be an integer"),
    ("SubsetIndex.valid_for-negative", lambda: SubsetIndex(3).valid_for(-1),
     "n must be at least 0"),
    ("index_to_point-index-float", lambda: index_to_point(2.5, 3),
     "index must be an integer"),
    ("hypercontractivity_check-rho-nan",
     lambda: hypercontractivity_check(F3, D3, rho=np.nan),
     "rho must be finite"),
    ("stream-seed-float", lambda: stream(1.7),
     "stream seed and path must be non-negative integers, got (1.7,)"),
    ("stream-seed-text", lambda: stream("3"),
     "stream seed and path must be non-negative integers, got ('3',)"),
    ("stream-seed-bool", lambda: stream(True),
     "stream seed and path must be non-negative integers, got (True,)"),
    ("stream-path-negative", lambda: stream(1, 2, -3),
     "stream seed and path must be non-negative integers, got (1, 2, -3)"),
    ("estimate_gradient-seed-float",
     lambda: estimate_gradient(CFG, F3, D3, 8, 2.9),
     "stream seed and path must be non-negative integers, got (2.9,)"),
    ("TrainConfig-seed-negative", lambda: cfg_train(seed=-1),
     "seed must be a non-negative integer"),
    ("TrainConfig-seed-float", lambda: cfg_train(seed=1.5),
     "seed must be a non-negative integer"),
    ("TrainConfig-variance_decay-one", lambda: cfg_train(variance_decay=1.0),
     "variance_decay must lie in [0, 1)"),
    ("TrainConfig-variance_decay-nan",
     lambda: cfg_train(variance_decay=np.nan),
     "variance_decay must lie in [0, 1)"),
    ("bars_dataset-count-negative", lambda: bars_dataset(-1, 0),
     "count must be at least 1"),
    ("bars_dataset-count-float", lambda: bars_dataset(2.5, 0),
     "count must be an integer"),
    ("bars_dataset-size-zero", lambda: bars_dataset(3, 0, size=0),
     "size must be at least 1"),
    ("bars_dataset-p_bar-above", lambda: bars_dataset(3, 0, p_bar=2.0),
     "p_bar must lie in [0, 1]"),
    ("bars_dataset-p_bar-nan", lambda: bars_dataset(3, 0, p_bar=np.nan),
     "p_bar must lie in [0, 1]"),
    ("SbnModel-width-float", lambda: SbnModel((2.7,), 6, fresh_rng()),
     "widths and obs_dim must be integers"),
    ("SbnModel-obs_dim-float", lambda: SbnModel((2,), 6.0, fresh_rng()),
     "widths and obs_dim must be integers"),
    ("InferenceNet-width-float",
     lambda: InferenceNet((4, 2.7), 6, fresh_rng()),
     "widths and obs_dim must be integers"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in SETTINGS],
                         ids=[row[0] for row in SETTINGS])
def test_settings_and_counts_refused_by_their_owner(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_numpy_integer_counts_are_accepted():
    k = np.int64(2)
    assert cfg_t(k).label() == cfg_t(2).label()
    assert cfg_train(steps=np.int32(3), minibatch=np.int64(4)).steps == 3
    check_trials(np.int64(2))
    got = estimate_gradient(CFG, F3, D3, np.int64(8), 0).grad
    assert np.array_equal(got, estimate_gradient(CFG, F3, D3, 8, 0).grad)
    assert benchmark_variance(CFG, F3, D3, np.int64(4), 0).trials == 4
    for index in (np.int64(5), np.uint64(5)):
        assert np.array_equal(index_to_point(index, 3), index_to_point(5, 3))
    assert np.array_equal(discrete_derivative(E3, np.int8(1)).vector,
                          discrete_derivative(E3, 1).vector)
    d = ProductDistribution([0.2, 0.5, 0.7])
    i = np.int64(2)
    assert (d.mean(i), d.sd(i)) == (d.mean(2), d.sd(2))
    assert np.array_equal(d.with_prob(np.uint8(2), 0.3).probs, [0.2, 0.5, 0.3])
    assert phi(i, X3, d) == phi(2, X3, d)
    assert SubsetIndex.of([np.int64(70), 1]) == SubsetIndex((1 << 70) | 2)
    assert SubsetIndex(6).contains(np.uint8(2))
    assert SubsetIndex(6).without(np.int32(1)) == SubsetIndex(4)
    assert SubsetIndex.full(np.int64(70)) == SubsetIndex((1 << 70) - 1)
    assert SubsetIndex(5).valid_for(np.uint8(3))
    assert stream(np.int64(5), np.uint8(2)).random() == stream(5, 2).random()
    assert cfg_train(seed=np.int64(3)).seed == 3
    assert SbnModel((np.int64(2),), np.int32(6), fresh_rng()).widths == (2,)
    assert BooleanFunction(np.int64(2), table=np.ones(4)).n == 2
    # numpy's bool is a bool for EstimatorConfig's flags
    flags = dict(exact_inner=np.bool_(True), taylor_at_sample=np.bool_(True))
    assert (EstimatorConfig("combined", **flags).label()
            == EstimatorConfig("combined", exact_inner=True,
                               taylor_at_sample=True).label())
