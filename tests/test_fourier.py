"""Transform layer against a direct inner-product oracle and hand values."""

import numpy as np
import pytest

from boolcube import (
    BooleanFunction,
    FourierExpansion,
    ProductDistribution,
    SubsetIndex,
    coefficient_mc,
    enumerate_points,
    expansion_from_text,
    expansion_to_text,
    inverse_transform,
    multilinear_gradient,
    norm,
    parse_function,
    phi_set,
    stream,
    transform,
    weights,
)


MAJ3 = parse_function("maj(3)").build()
U3 = ProductDistribution.uniform(3)


def random_dist(n, rng):
    return ProductDistribution(rng.uniform(0.1, 0.9, n))


def direct_transform(f, dist):
    """O(4^n) oracle: every coefficient as an explicit weighted inner product."""
    w = weights(dist)
    pts = enumerate_points(f.n)
    t = f.values()
    out = {}
    for mask in range(1 << f.n):
        s = SubsetIndex(mask)
        col = np.array([phi_set(s, x, dist) for x in pts])
        out[s] = float(w @ (t * col))
    return out


def test_transform_matches_direct_oracle():
    rng = stream(11, 0)
    for n in range(1, 8):
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        dist = random_dist(n, rng)
        e = transform(f, dist)
        oracle = direct_transform(f, dist)
        for s, c in oracle.items():
            assert abs(e.coefficient(s) - c) < 1e-10


def test_transform_hand_values():
    # dictator at p=0.5: f = phi_0 exactly
    e = transform(BooleanFunction(1, table=np.array([-1.0, 1.0])),
                  ProductDistribution.uniform(1))
    assert abs(e.coefficient(SubsetIndex.empty())) < 1e-15
    assert abs(e.coefficient(SubsetIndex.of([0])) - 1.0) < 1e-15

    # x1*x2 at p=(0.75, 0.5): expand (mu1 + s1 phi1) phi2
    f = parse_function("parity(0,1)").build()
    e = transform(f, ProductDistribution([0.75, 0.5]))
    assert abs(e.coefficient(SubsetIndex.empty())) < 1e-15
    assert abs(e.coefficient(SubsetIndex.of([0]))) < 1e-15
    assert abs(e.coefficient(SubsetIndex.of([1])) - 0.5) < 1e-12
    assert abs(e.coefficient(SubsetIndex.of([0, 1])) - 0.8660254) < 1e-7


def test_maj3_spectrum():
    f = parse_function("maj(3)").build()
    e = transform(f, ProductDistribution.uniform(3))
    got = {str(s): c for s, c in e.items_sorted()}
    assert got == {"{0}": 0.5, "{1}": 0.5, "{2}": 0.5, "{0,1,2}": -0.5}


def test_evaluate_round_trip_and_hand_points():
    f = parse_function("maj(3)").build()
    d = ProductDistribution.uniform(3)
    e = transform(f, d)
    assert abs(e.evaluate(np.array([1, 1, -1], dtype=np.int8), d) - 1.0) < 1e-12

    rng = stream(11, 1)
    for n in (2, 5, 8):
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        dist = random_dist(n, rng)
        e = transform(f, dist)
        pts = enumerate_points(n)
        vals = e.evaluate_batch(pts, dist)
        assert np.abs(vals - f.values()).max() < 1e-10


def test_empty_and_constant_expansions():
    d = ProductDistribution.uniform(2)
    x = np.array([1, -1], dtype=np.int8)
    assert FourierExpansion(2, {}).evaluate(x, d) == 0.0
    e = FourierExpansion(2, {SubsetIndex.empty(): 3.25})
    assert e.evaluate(x, d) == 3.25
    assert e.mean() == 3.25 and e.variance() == 0.0


def test_mean_variance_examples():
    d3 = ProductDistribution.uniform(3)
    e = transform(parse_function("maj(3)").build(), d3)
    assert abs(e.mean()) < 1e-15
    assert abs(e.variance() - 1.0) < 1e-12

    f = parse_function("parity(0,1)").build()
    e = transform(f, ProductDistribution([0.75, 0.5]))
    assert abs(e.mean()) < 1e-15
    assert abs(e.variance() - 1.0) < 1e-12


def test_parseval():
    rng = stream(11, 2)
    for n in (3, 6, 8):
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        dist = random_dist(n, rng)
        e = transform(f, dist)
        second_moment = float(weights(dist) @ f.values() ** 2)
        assert abs(e.norm_squared() - second_moment) < 1e-10


def test_coefficients_depend_on_distribution():
    f = parse_function("parity(0,1)").build()
    a = transform(f, ProductDistribution.uniform(2))
    b = transform(f, ProductDistribution([0.7, 0.7]))
    sing = SubsetIndex.of([0])
    assert abs(a.coefficient(sing) - b.coefficient(sing)) > 1e-3


def test_inverse_transform_round_trip():
    rng = stream(11, 3)
    for n in (1, 4, 7):
        f = BooleanFunction(n, table=rng.normal(size=1 << n))
        dist = random_dist(n, rng)
        back = inverse_transform(transform(f, dist), dist)
        assert np.abs(back.values() - f.values()).max() < 1e-10


def test_uniform_transform_of_parity_is_its_top_coefficient():
    f = parse_function("parity(0,1,2)").build()
    e = transform(f, ProductDistribution.uniform(3))
    assert abs(e.coefficient(SubsetIndex.full(3)) - 1.0) < 1e-12
    assert len(e) == 1


def test_norm_examples_and_monotonicity():
    d = ProductDistribution.uniform(2)
    par = parse_function("parity(0,1)").build()
    for order in (1.0, 2.0, 3.3, 7.0):
        assert abs(norm(par, d, order) - 1.0) < 1e-12

    spiky = BooleanFunction(2, table=np.array([2.0, 0.0, 0.0, 0.0]))
    assert abs(norm(spiky, d, 1.0) - 0.5) < 1e-15
    assert abs(norm(spiky, d, 2.0) - 1.0) < 1e-15

    with pytest.raises(ValueError):
        norm(spiky, d, 0.99)

    # at an infinite order, the sup norm
    ramp = BooleanFunction(3, table=np.arange(8.0))
    assert norm(ramp, U3, np.inf) == 7.0
    assert norm(spiky, d, np.inf) == 2.0

    rng = stream(11, 4)
    for _ in range(100):
        f = BooleanFunction(3, table=rng.normal(size=8))
        dist = random_dist(3, rng)
        norms = [norm(f, dist, q) for q in (1.0, 2.0, 4.0, 16.0, np.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] == np.abs(f.values()).max()


def test_coefficient_mc_unbiased_by_enumeration():
    # expectation of the one-sample estimate is the transform coefficient
    rng = stream(11, 5)
    n = 4
    f = BooleanFunction(n, table=rng.normal(size=16))
    dist = random_dist(n, rng)
    e = transform(f, dist)
    w = weights(dist)
    pts = enumerate_points(n)
    for s in (SubsetIndex.empty(), SubsetIndex.of([2]), SubsetIndex.of([0, 3])):
        col = np.array([phi_set(s, x, dist) for x in pts])
        assert abs(float(w @ (f.values() * col)) - e.coefficient(s)) < 1e-12


def test_coefficient_mc_concentrates():
    f = parse_function("maj(3)").build()
    d = ProductDistribution.uniform(3)
    got = coefficient_mc(f, SubsetIndex.of([0]), d, stream(11, 6), 100000)
    assert abs(got - 0.5) < 0.02
    const = BooleanFunction(3, table=np.full(8, 2.0))
    got = coefficient_mc(const, SubsetIndex.of([1]), d, stream(11, 7), 100000)
    assert abs(got) < 0.03


def test_expansion_text_round_trip_and_format():
    f = parse_function("maj(3)").build()
    d = ProductDistribution.uniform(3)
    e = transform(f, d)
    text = expansion_to_text(e)
    assert text.splitlines()[0] == "# n=3"
    assert "0,1,2\t-0.5" in text
    back = expansion_from_text(text)
    assert back.n == 3
    for s, c in e.items_sorted():
        assert back.coefficient(s) == c

    # empty set written as "-"
    const = FourierExpansion(2, {SubsetIndex.empty(): 1.5})
    assert "-\t1.5" in expansion_to_text(const)
    assert expansion_from_text(expansion_to_text(const)).mean() == 1.5


def test_expansion_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        expansion_from_text("# n=2\n0,0\t1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        expansion_from_text("# n=2\n0\t0.5\n1\tnot_a_number\n")
    # blank lines are skipped but still counted
    assert expansion_from_text("# n=2\n\n0\t0.5\n \t\n").coefficient(
        SubsetIndex.of([0])) == 0.5
    with pytest.raises(ValueError, match="line 3"):
        expansion_from_text("# n=2\n\n0,0\t1.0\n")


def test_expansion_text_without_header_takes_n_from_its_indices():
    assert expansion_from_text("0,3\t1.5\n").n == 4
    assert expansion_from_text("-\t2.0\n").n == 1


# Each refusal of a malformed table, subset, distribution or expansion
# text, with its exact message.
@pytest.mark.parametrize("call, message", [
    (lambda: BooleanFunction(2, table=np.zeros(3)),
     "truth table must have 2^n entries"),
    (lambda: BooleanFunction(2, table=[0.0, 1.0, np.inf, 0.0]),
     "truth table must be finite"),
    (lambda: FourierExpansion(3, {SubsetIndex.of([5]): 1.0}),
     "subset {5} out of range for n=3"),
    (lambda: transform(MAJ3, ProductDistribution.uniform(2)),
     "distribution dimension 2 != function dimension 3"),
    (lambda: inverse_transform(FourierExpansion(3), ProductDistribution.uniform(2)),
     "distribution dimension 2 != expansion dimension 3"),
    (lambda: expansion_from_text("# n=x\n"),
     "line 1: bad dimension header '# n=x'"),
    (lambda: expansion_from_text("# n=3\n# n=5\n0\t1.0\n"),
     "line 2: repeated dimension header '# n=5'"),
    (lambda: expansion_from_text("# n=17\n"),
     "line 1: dimension 17 lies outside the supported range [1, 16]"),
    (lambda: expansion_from_text("-\t1.0\n\n# n=0\n"),
     "line 3: dimension 0 lies outside the supported range [1, 16]"),
    (lambda: expansion_from_text("# n=3\n-\t1.0\n0,5\t1.0\n"),
     "line 3: subset {0,5} out of range for n=3"),
    (lambda: expansion_from_text("0,5\t1.0\n# n=3\n"),
     "line 1: subset {0,5} out of range for n=3"),
    (lambda: expansion_from_text("-\t1.0\n0\t1.0\textra\n"),
     "line 2: expected `indices<TAB>coefficient`"),
    (lambda: expansion_from_text("0,a\t1.0\n"), "line 1: bad index list '0,a'"),
    (lambda: expansion_from_text("1,0\t1.0\n"),
     "line 1: indices must be strictly ascending"),
    (lambda: expansion_from_text("0\tx\n"), "line 1: bad coefficient 'x'"),
    (lambda: expansion_from_text("0\t1.0\n0\t2.0\n"),
     "line 2: duplicate subset {0}"),
    (lambda: FourierExpansion(2, {SubsetIndex.of([1]): np.nan}),
     "coefficients must be finite"),
    (lambda: expansion_from_text("# n=2\n0\t1.0\n-\tnan\n"),
     "line 3: coefficient 'nan' is not finite"),
    (lambda: expansion_from_text("-\t-inf\n"),
     "line 1: coefficient '-inf' is not finite"),
])
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_value_refuses_a_point_of_the_wrong_width():
    # value reads the same index batch does, so it checks the same width
    for x in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError) as err:
            MAJ3.value(x)
        assert str(err.value) == "points have %d coordinates, the function 3" % len(x)
    assert MAJ3.value([1, 1, -1]) == 1.0 and MAJ3.value([1, -1, -1]) == -1.0


def test_coefficient_mc_refuses_bad_counts_and_subsets():
    # refused before anything is drawn, with FourierExpansion's message
    # for a subset outside the function
    for S, samples, message in (
            (SubsetIndex.of([0]), 0, "samples must be at least 1"),
            (SubsetIndex.of([0]), -3, "samples must be at least 1"),
            (SubsetIndex.of([5]), 10, "subset {5} out of range for n=3")):
        rng = stream(11, 9)
        with pytest.raises(ValueError) as err:
            coefficient_mc(MAJ3, S, U3, rng, samples)
        assert str(err.value) == message
        assert rng.random() == stream(11, 9).random()


def test_multilinear_gradient_matches_finite_difference():
    # gradient of the expansion's multilinear extension in x, checked at
    # interior points by central differences of evaluate
    rng = stream(11, 8)
    n = 4
    f = BooleanFunction(n, table=rng.normal(size=16))
    dist = random_dist(n, rng)
    e = transform(f, dist)
    x = rng.uniform(-0.9, 0.9, n)
    grad = multilinear_gradient(e, x, dist)
    h = 1e-6
    for j in range(n):
        up, dn = x.copy(), x.copy()
        up[j] += h
        dn[j] -= h
        num = (e.evaluate(up, dist) - e.evaluate(dn, dist)) / (2 * h)
        assert abs(grad[j] - num) < 1e-6


def test_dimension_limit_refused_before_allocation():
    # n = 40 would need 2^40 entries, and below 1 there is no cube; each
    # entry point refuses both up front with the same message
    outside = r"dimension -?\d+ lies outside the supported range \[1, 16\]"
    for n in (40, 0, -2):
        with pytest.raises(ValueError, match=outside):
            BooleanFunction(n, table=np.zeros(4))
        with pytest.raises(ValueError, match=outside):
            FourierExpansion(n, {})
    with pytest.raises(ValueError, match=outside):
        FourierExpansion(40, {SubsetIndex.of([39]): 1.0})
    for n in (40, 0, -1):
        with pytest.raises(ValueError, match=outside):
            expansion_from_text("# n=%d\n" % n)
    with pytest.raises(ValueError, match=outside):
        expansion_from_text("# n=40\n-\t1.0\n")
    with pytest.raises(ValueError, match=r"line 2: coordinate index outside \[0, 16\)"):
        expansion_from_text("1\t0.5\n0,39\t1.0\n")
    assert FourierExpansion(16, {}).vector.shape == (1 << 16,)
