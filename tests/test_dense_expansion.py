"""The dense coefficient vector against brute-force sums over subsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolcube import (
    BooleanFunction,
    FourierExpansion,
    ProductDistribution,
    SubsetIndex,
    discrete_derivative,
    enumerate_points,
    expansion_to_text,
    multilinear_gradient,
    noise_expansion,
    parse_function,
    phi_matrix,
    transform,
    weights,
)
from boolcube.fourier import COEFF_DROP

PROBS = st.floats(0.05, 0.95)
SEEDS = st.integers(0, 2 ** 32 - 1)


def basis(ph):
    """prod_{i in S} ph_i for every subset S (columns), one row per point,
    by a loop over subsets and their members."""
    ph = np.atleast_2d(ph)
    n = ph.shape[1]
    out = np.ones((ph.shape[0], 1 << n))
    for mask in range(1 << n):
        for i in SubsetIndex(mask):
            out[:, mask] *= ph[:, i]
    return out


@st.composite
def problems(draw, max_n=7):
    """(n, biased distribution, numpy generator)."""
    n = draw(st.integers(1, max_n))
    p = draw(st.lists(PROBS, min_size=n, max_size=n))
    return n, ProductDistribution(p), np.random.default_rng(draw(SEEDS))


def random_expansion(n, rng):
    return transform(BooleanFunction(n, table=rng.normal(size=1 << n)),
                     ProductDistribution(rng.uniform(0.1, 0.9, n)))


def sorted_items(coeffs):
    return sorted(coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].members))


@given(problems())
@settings(max_examples=60, deadline=None)
def test_transform_matches_weighted_inner_products(problem):
    n, dist, rng = problem
    f = BooleanFunction(n, table=rng.normal(size=1 << n))
    e = transform(f, dist)
    pts = enumerate_points(n)
    want = (weights(dist) * f.values()) @ basis(phi_matrix(pts, dist))
    assert e.vector.shape == (1 << n,)
    assert np.max(np.abs(e.vector - want)) < 1e-10
    drop = COEFF_DROP * np.abs(f.values()).max()
    assert not np.any((e.vector != 0.0) & (np.abs(e.vector) <= drop))


@given(st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_sparsity_of_a_monomial_spectrum(n, data):
    # x_T = prod_{i in T} (mu_i + sigma_i phi_i): the coefficient of S is
    # prod_{S} sigma_i prod_{T \ S} mu_i, zero outside T or where mu_i = 0
    grid = st.sampled_from([0.1, 0.25, 0.5, 0.6, 0.9])
    dist = ProductDistribution(data.draw(st.lists(grid, min_size=n, max_size=n)))
    T = SubsetIndex(data.draw(st.integers(0, (1 << n) - 1)))
    table = np.prod(enumerate_points(n)[:, list(T.members)], axis=1)
    e = transform(BooleanFunction(n, table=table.astype(float)), dist)
    want = {}
    for mask in range(1 << n):
        S = SubsetIndex(mask)
        if mask & ~T.mask or any(dist.mu[i] == 0.0 for i in T if not S.contains(i)):
            continue
        want[S] = (np.prod([dist.sigma[i] for i in S])
                   * np.prod([dist.mu[i] for i in T if not S.contains(i)]))
    coeffs = e.coeffs
    assert set(coeffs) == set(want)
    assert all(abs(coeffs[S] - c) < 1e-12 for S, c in want.items())
    assert len(e) == len(want)
    assert e.items_sorted() == sorted_items(coeffs)
    assert e.degree() == max((S.degree for S in want), default=0)


@given(problems(), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_evaluation_at_fractional_points(problem, count):
    n, dist, rng = problem
    e = random_expansion(n, rng)
    xs = rng.uniform(-1.0, 1.0, (count, n))
    b = basis(phi_matrix(xs, dist))
    want = b @ e.vector
    tol = 1e-12 * (1.0 + np.abs(b) @ np.abs(e.vector))
    assert np.all(np.abs(e.evaluate_batch(xs, dist) - want) <= tol)
    for x, w, t in zip(xs, want, tol):
        assert abs(e.evaluate(x, dist) - w) <= t


@given(problems())
@settings(max_examples=60, deadline=None)
def test_multilinear_gradient_matches_central_differences(problem):
    # the extension is affine in each coordinate, so a wide step is exact
    # up to rounding
    n, dist, rng = problem
    e = random_expansion(n, rng)
    x = rng.uniform(-1.0, 1.0, n)
    h = 0.25
    grad = multilinear_gradient(e, x, dist)
    for j in range(n):
        up, dn = x.copy(), x.copy()
        up[j] += h
        dn[j] -= h
        num = (e.evaluate(up, dist) - e.evaluate(dn, dist)) / (2 * h)
        scale = np.abs(basis(np.abs(phi_matrix(up, dist)) + 1.0)) @ np.abs(e.vector)
        assert abs(grad[j] - num) <= 1e-11 * (1.0 + float(scale[0])) / h


@given(problems(), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_coefficient_space_operators(problem, rho):
    n, _, rng = problem
    e = random_expansion(n, rng)
    for i in range(n):
        # D_i moves every coefficient on S containing i to S without i
        want = {S.without(i): c for S, c in e.coeffs.items() if S.contains(i)}
        assert dict(discrete_derivative(e, i).coeffs) == want
    # T_rho scales the coefficient of S by rho^|S|
    want = {S: c * rho ** S.degree for S, c in e.coeffs.items()}
    assert dict(noise_expansion(e, rho).coeffs) == {S: c for S, c in want.items()
                                                    if c != 0.0}


@given(st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_poly_build_matches_term_by_term_table(n, data):
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=24, unique=True))
    rng = np.random.default_rng(data.draw(SEEDS))
    terms = [(SubsetIndex(m).members, float(c))
             for m, c in zip(masks, rng.normal(size=len(masks)))]
    text = "poly{%s}" % ";".join("%r*[%s]" % (c, ",".join(map(str, ix)))
                                 for ix, c in terms)
    f = parse_function(text).build()
    pts = enumerate_points(f.n).astype(float)
    want = np.zeros(1 << f.n)
    for members, c in terms:
        term = np.full(1 << f.n, c)
        for i in members:
            term *= pts[:, i]
        want += term
    assert np.max(np.abs(f.values() - want)) <= 1e-12


@given(st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_constructed_expansions_list_nonzero_entries_only(n, data):
    entries = data.draw(st.dictionaries(
        st.integers(0, (1 << n) - 1),
        st.sampled_from([0.0, -0.0, 1e-300, -2.5, 3.0, 0.125])))
    e = FourierExpansion(n, {SubsetIndex(m): c for m, c in entries.items()})
    want = {SubsetIndex(m): c for m, c in entries.items() if c != 0.0}
    assert dict(e.coeffs) == want
    assert len(e) == len(want)
    assert e.items_sorted() == sorted_items(want)
    for m in range(1 << n):
        assert e.coefficient(SubsetIndex(m)) == want.get(SubsetIndex(m), 0.0)


def test_butterfly_residues_at_most_coeff_drop_read_as_zero():
    d = ProductDistribution.uniform(1)
    for eps, kept in ((4e-15, False), (2e-14, True)):
        e = transform(BooleanFunction(1, table=[1.0 - eps, 1.0 + eps]), d)
        assert (e.vector[1] != 0.0) == kept
        assert len(e) == 1 + kept and (SubsetIndex(1) in e.coeffs) == kept


def test_empty_expansion_is_zero():
    for n in (1, 4, 9):
        e = FourierExpansion(n, {})
        dist = ProductDistribution(np.linspace(0.2, 0.8, n))
        xs = np.random.default_rng(n).uniform(-1.0, 1.0, (5, n))
        assert e.evaluate(xs[0], dist) == 0.0
        assert np.array_equal(e.evaluate_batch(xs, dist), np.zeros(5))
        assert np.array_equal(multilinear_gradient(e, xs[0], dist), np.zeros(n))
        assert len(e) == 0 and dict(e.coeffs) == {} and e.items_sorted() == []
        assert e.mean() == 0.0 and e.variance() == 0.0 and e.degree() == 0
        assert expansion_to_text(e) == "# n=%d\n" % n


def test_vector_and_coeffs_are_read_only():
    e = random_expansion(3, np.random.default_rng(0))
    assert not e.vector.flags.writeable
    with pytest.raises(TypeError):
        e.coeffs[SubsetIndex.empty()] = 1.0
