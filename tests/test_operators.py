"""Derivative, smoothing, gradient, and norm-contraction operators."""

import numpy as np
import pytest

from boolcube import (
    BooleanFunction,
    FourierExpansion,
    ProductDistribution,
    SubsetIndex,
    discrete_derivative,
    enumerate_points,
    exact_gradient,
    expectation,
    hypercontractivity_check,
    inverse_transform,
    noise_exact,
    noise_expansion,
    noise_mc,
    norm,
    numeric_gradient,
    parse_function,
    rho_bound,
    stream,
    transform,
)


def random_dist(n, rng):
    return ProductDistribution(rng.uniform(0.1, 0.9, n))


def smoothed_by_kernel(f, rho, dist):
    """Independent oracle: T_rho f at every point via the explicit kernel.

    P(x' | x) factorizes per coordinate into keep-with-probability-rho
    plus refresh-from-marginal.
    """
    pts = enumerate_points(f.n)
    out = np.empty(1 << f.n)
    for m, x in enumerate(pts):
        cond = np.ones(1 << f.n)
        for i in range(f.n):
            marg = np.where(pts[:, i] > 0, dist.probs[i], 1 - dist.probs[i])
            cond *= rho * (pts[:, i] == x[i]) + (1 - rho) * marg
        out[m] = cond @ f.values()
    return out


# ---------------------------------------------------------------------------
# discrete derivative


def test_derivative_hand_examples():
    d = ProductDistribution.uniform(3)
    e = transform(parse_function("maj(3)").build(), d)
    de = discrete_derivative(e, 0)
    got = {str(s): c for s, c in de.items_sorted()}
    assert got == {"{}": 0.5, "{1,2}": -0.5}

    const = FourierExpansion(3, {SubsetIndex.empty(): 4.0})
    assert discrete_derivative(const, 1).coeffs == {}

    dictator = FourierExpansion(2, {SubsetIndex.of([0]): 2.5})
    de = discrete_derivative(dictator, 0)
    assert de.coefficient(SubsetIndex.empty()) == 2.5
    assert len(de.coeffs) == 1


def test_derivative_result_ignores_coordinate():
    rng = stream(13, 0)
    n = 4
    dist = random_dist(n, rng)
    e = transform(BooleanFunction(n, table=rng.normal(size=16)), dist)
    de = discrete_derivative(e, 2)
    table = inverse_transform(de, dist).values().reshape(-1, 8)
    # slots differing only in bit 2 carry equal values
    assert np.abs(table[:, :4] - table[:, 4:]).max() < 1e-12


def test_derivative_mean_is_singleton_coefficient():
    rng = stream(13, 1)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        dist = random_dist(n, rng)
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        e = transform(f, dist)
        for i in range(n):
            de = discrete_derivative(e, i)
            by_weights = expectation(inverse_transform(de, dist), dist)
            want = e.coefficient(SubsetIndex.of([i]))
            assert abs(de.mean() - want) < 1e-12
            assert abs(by_weights - want) < 1e-10


def test_derivative_bounds_checked():
    e = FourierExpansion(2, {})
    with pytest.raises(ValueError):
        discrete_derivative(e, 2)


# ---------------------------------------------------------------------------
# noise operator


def test_noise_expansion_examples():
    d = ProductDistribution.uniform(3)
    e = transform(parse_function("maj(3)").build(), d)

    same = noise_expansion(e, 1.0)
    for s, c in e.items_sorted():
        assert same.coefficient(s) == c

    collapsed = noise_expansion(e, 0.0)
    assert collapsed.mean() == e.mean()
    assert collapsed.variance() == 0.0

    half = noise_expansion(e, 0.5)
    assert abs(half.coefficient(SubsetIndex.of([1])) - 0.25) < 1e-15
    assert abs(half.coefficient(SubsetIndex.full(3)) + 0.0625) < 1e-15
    assert abs(half.variance() - 0.19140625) < 1e-12


def test_noise_exact_matches_kernel_oracle():
    rng = stream(13, 2)
    for n in (1, 3, 5):
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        dist = random_dist(n, rng)
        for rho in (0.0, 0.31, 0.75, 1.0):
            got = noise_exact(f, rho, dist).values()
            want = smoothed_by_kernel(f, rho, dist)
            assert np.abs(got - want).max() < 1e-10


def test_noise_mean_preserved_and_semigroup():
    rng = stream(13, 3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        dist = random_dist(n, rng)
        r1, r2 = rng.uniform(0, 1, 2)
        sm = noise_exact(f, r1, dist)
        assert abs(expectation(sm, dist) - expectation(f, dist)) < 1e-12
        twice = noise_exact(sm, r2, dist).values()
        once = noise_exact(f, r1 * r2, dist).values()
        assert np.abs(twice - once).max() < 1e-12


def test_noise_variance_monotone_on_grid():
    rng = stream(13, 4)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        dist = random_dist(n, rng)
        e = transform(BooleanFunction(n, table=rng.normal(size=1 << n)), dist)
        last = -1.0
        for rho in np.arange(0.0, 1.05, 0.1):
            v = noise_expansion(e, min(rho, 1.0)).variance()
            assert v <= e.variance() + 1e-12
            assert v >= last - 1e-12  # increasing in rho
            last = v


def test_noise_mc_examples():
    f = parse_function("maj(3)").build()
    d = ProductDistribution.uniform(3)
    x = np.array([1, 1, 1], dtype=np.int8)

    assert noise_mc(f, x, 1.0, d, stream(13, 5)) == f.value(x)

    const = BooleanFunction(3, table=np.full(8, 2.5))
    assert noise_mc(const, x, 0.4, d, stream(13, 6), samples=7) == 2.5

    est = noise_mc(f, x, 0.5, d, stream(13, 7), samples=100000)
    e = transform(f, d)
    want = noise_expansion(e, 0.5).evaluate(x, d)
    assert abs(want - 0.6875) < 1e-12
    assert abs(est - want) < 0.02


# ---------------------------------------------------------------------------
# gradients


def test_exact_gradient_hand_examples():
    # dictator: E[x1] = 2p-1 everywhere
    for p in (0.2, 0.5, 0.9):
        f = BooleanFunction(1, table=np.array([-1.0, 1.0]))
        g = exact_gradient(f, ProductDistribution([p]))
        assert abs(g[0] - 2.0) < 1e-10

    f = parse_function("parity(0,1)").build()
    g = exact_gradient(f, ProductDistribution([0.75, 0.5]))
    assert np.abs(g - [0.0, 1.0]).max() < 1e-12

    f = parse_function("maj(3)").build()
    g = exact_gradient(f, ProductDistribution.uniform(3))
    assert np.abs(g - 1.0).max() < 1e-12


def test_numeric_gradient_examples():
    const = BooleanFunction(2, table=np.full(4, 3.0))
    d = ProductDistribution([0.4, 0.7])
    assert np.abs(numeric_gradient(const, d)).max() < 1e-9

    f = BooleanFunction(1, table=np.array([-1.0, 1.0]))
    assert abs(numeric_gradient(f, ProductDistribution([0.3]))[0] - 2.0) < 1e-9


def test_small_scale_function_keeps_its_spectrum():
    # the transform's drop threshold follows the table's own scale, so a
    # function of magnitude 1e-15 keeps its gradient and its smoothing
    f = BooleanFunction(2, table=1e-15 * enumerate_points(2)[:, 0])
    dist = ProductDistribution.uniform(2)
    grad = exact_gradient(f, dist)
    assert np.allclose(grad, [2e-15, 0.0], rtol=1e-9, atol=0.0)
    assert np.allclose(grad, numeric_gradient(f, dist), rtol=1e-6, atol=1e-20)
    smoothed = noise_exact(f, 0.5, dist).values()
    assert np.allclose(smoothed, 0.5 * f.values(), rtol=1e-9, atol=0.0)


def test_gradient_identity_random_sweep():
    # the operators-module contract: 1e-8 at h=1e-5 over 100 random tables
    rng = stream(13, 8)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        dist = random_dist(n, rng)
        diff = np.abs(exact_gradient(f, dist) - numeric_gradient(f, dist))
        assert diff.max() < 1e-8


# ---------------------------------------------------------------------------
# hypercontractivity


def test_rho_bound_values_and_validation():
    assert abs(rho_bound(4.0, 0.5) - (1 / np.sqrt(3)) * 0.5 ** 0.25) < 1e-15
    assert abs(rho_bound(4.0, 0.5) - 0.4855) < 1e-4
    with pytest.raises(ValueError):
        rho_bound(2.0, 0.5)
    with pytest.raises(ValueError):
        rho_bound(4.0, 0.0)
    with pytest.raises(ValueError):
        rho_bound(4.0, 0.6)


def test_hypercontractivity_constant_function():
    const = BooleanFunction(2, table=np.full(4, -1.5))
    rep = hypercontractivity_check(const, ProductDistribution.uniform(2))
    assert abs(rep.norm_q - 1.5) < 1e-12
    assert abs(rep.norm_2 - 1.5) < 1e-12
    assert rep.satisfied


def test_hypercontractivity_random_sweep_and_interior():
    rng = stream(13, 9)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        table = 2.0 * rng.integers(0, 2, size=1 << n) - 1.0
        f = BooleanFunction(n, table=table)
        dist = random_dist(n, rng)
        rep = hypercontractivity_check(f, dist, q=4.0)
        assert rep.satisfied, (rep.rho, rep.slack)
        # interior rho is easier than the boundary
        inner = hypercontractivity_check(f, dist, q=4.0, rho=rep.rho / 2)
        assert inner.norm_q <= rep.norm_q + 1e-12


def test_hypercontractivity_uses_min_outcome_probability():
    dist = ProductDistribution([0.2, 0.5])
    f = BooleanFunction(2, table=np.array([1.0, -1.0, -1.0, 1.0]))
    rep = hypercontractivity_check(f, dist, q=4.0)
    assert abs(rep.rho - rho_bound(4.0, 0.2)) < 1e-15


def test_norm_contraction_witnesses_variance_corollary():
    # ||T_rho f||_2 <= ||f||_2 for any rho, from the same machinery
    rng = stream(13, 10)
    f = BooleanFunction(4, table=rng.normal(size=16))
    dist = random_dist(4, rng)
    for rho in (0.2, 0.6, 0.95):
        sm = noise_exact(f, rho, dist)
        assert norm(sm, dist, 2.0) <= norm(f, dist, 2.0) + 1e-12
