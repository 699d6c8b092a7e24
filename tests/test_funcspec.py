"""Function mini-language: grammar, canonical forms, built tables."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from boolcube import (
    FunctionSpec,
    FunctionSpecError,
    ProductDistribution,
    enumerate_points,
    parse_function,
    transform,
)


def test_dictator_build():
    f = parse_function("dict(1)").build()
    assert f.n == 2
    for x in enumerate_points(2):
        assert f.value(x) == x[1]


def test_majority_build_and_odd_arity():
    f = parse_function("maj(3)").build()
    assert f.n == 3
    for x in enumerate_points(3):
        assert f.value(x) == np.sign(x.sum())
    err = pytest.raises(FunctionSpecError, parse_function, "maj(4)")
    assert "odd" in str(err.value)
    assert "byte" in str(err.value)


def test_parity_and_all_of():
    f = parse_function("parity(0,2)").build()
    assert f.n == 3
    for x in enumerate_points(3):
        assert f.value(x) == x[0] * x[2]

    g = parse_function("and(2)").build()
    want = {(-1, -1): -1, (1, -1): -1, (-1, 1): -1, (1, 1): 1}
    for x in enumerate_points(2):
        assert g.value(x) == want[tuple(x)]


def test_poly_example_equals_maj3():
    # 1/2 x1 - 1/2 x1 x2 x3 plus the two other linear terms is Maj3
    f = parse_function(
        "poly{0.5*[0]; 0.5*[1]; 0.5*[2]; -0.5*[0,1,2]}").build()
    maj = parse_function("maj(3)").build()
    assert np.array_equal(f.values(), maj.values())


def test_poly_spec_example():
    f = parse_function("poly{0.5*[0]; -0.5*[0,1,2]}").build()
    for x in enumerate_points(3):
        want = 0.5 * x[0] - 0.5 * x[0] * x[1] * x[2]
        assert abs(f.value(x) - want) < 1e-15


def test_table_hex_round_trip():
    # bits of the hex value, lowest bit = point index 0, 1 -> +1
    f = parse_function("table(1e)").build()
    assert f.n == 3
    want = [(0x1e >> m) & 1 for m in range(8)]
    assert np.array_equal(f.values(), 2.0 * np.array(want) - 1.0)


def test_table_hex_past_64_bits():
    # values of 2^63 and above do not fit a C long; bit m is still entry m
    assert np.array_equal(
        parse_function("table(ffffffffffffffff)").build().values(),
        np.ones(64))
    top = parse_function("table(8000000000000000)").build().values()
    assert np.array_equal(np.flatnonzero(top > 0), [63])


@given(st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_table_hex_matches_integer_shift(n, data):
    # below 2^63 the table is the integer's bits, lowest bit first
    val = data.draw(st.integers(0, min(2 ** (1 << n), 2 ** 63) - 1))
    text = "table(%0*x)" % ((1 << n) // 4, val)
    bits = (val >> np.arange(1 << n)) & 1
    assert np.array_equal(parse_function(text).build().values(),
                          2.0 * bits - 1.0)


def test_table_size_validation():
    with pytest.raises(FunctionSpecError):
        parse_function("table(abc)")  # 12 bits, not a power of two
    with pytest.raises(FunctionSpecError):
        parse_function("table()")
    with pytest.raises(FunctionSpecError):
        parse_function("table(zz)")


def test_randpoly_determinism_and_bounds():
    a = parse_function("randpoly(6,3,0.5,17)").build()
    b = parse_function("randpoly(6,3,0.5,17)").build()
    c = parse_function("randpoly(6,3,0.5,18)").build()
    assert np.array_equal(a.values(), b.values())
    assert not np.array_equal(a.values(), c.values())

    e = transform(a, ProductDistribution.uniform(6))
    assert e.degree() <= 3
    assert abs(e.mean()) < 1e-12  # no constant term by construction

    with pytest.raises(FunctionSpecError):
        parse_function("randpoly(4,5,0.5,1)")  # degree > n
    with pytest.raises(FunctionSpecError):
        parse_function("randpoly(4,0,0.5,1)")
    with pytest.raises(FunctionSpecError):
        parse_function("randpoly(4,2,1.5,1)")


def test_whitespace_insensitive():
    a = parse_function("poly{ 0.5 * [ 0 ] ; -0.5*[0, 1,2] }")
    b = parse_function("poly{0.5*[0];-0.5*[0,1,2]}")
    assert a == b


def test_canonical_round_trips():
    for text in ("dict(0)", "maj(5)", "parity(3,1)", "and(4)",
                 "poly{-0.5*[0,1,2];0.5*[0]}", "table(1E)",
                 "randpoly(6, 3, 0.5, 17)"):
        spec = parse_function(text)
        again = parse_function(spec.canonical())
        assert again == spec
        assert again.canonical() == spec.canonical()


def test_canonical_sorts_and_normalizes():
    spec = parse_function("parity(2, 0)")
    assert spec.canonical() == "parity(0,2)"
    spec = parse_function("poly{ -0.5*[2,1,0]; 0.25*[1] }")
    assert spec.canonical() == "poly{0.25*[1];-0.5*[0,1,2]}"
    assert parse_function("table(1E)").canonical() == "table(1e)"


def test_error_offsets_point_into_the_text():
    err = pytest.raises(FunctionSpecError, parse_function, "maj(4)")
    assert err.value.offset == 4
    err = pytest.raises(FunctionSpecError, parse_function, "parity(0,0)")
    assert "duplicate" in str(err.value)
    err = pytest.raises(FunctionSpecError, parse_function, "maj(3) trailing")
    assert "trailing" in str(err.value).lower()
    with pytest.raises(FunctionSpecError):
        parse_function("")
    with pytest.raises(FunctionSpecError):
        parse_function("waj(3)")


def test_dimension_inference():
    assert parse_function("dict(4)").n == 5
    assert parse_function("parity(1,6)").n == 7
    assert parse_function("poly{1.0*[2]}").n == 3
    assert parse_function("table(ff)").n == 3
    assert parse_function("randpoly(5,2,0.3,0)").n == 5


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_never_panics(text):
    # any byte string yields a spec or a structured error, nothing else
    try:
        spec = parse_function(text)
    except FunctionSpecError:
        return
    assert isinstance(spec, FunctionSpec)
    assert parse_function(spec.canonical()) == spec


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_random_poly_specs_round_trip(n, data):
    terms = data.draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, n - 1), min_size=1, unique=True),
            st.floats(-4, 4, allow_nan=False).filter(lambda c: c != 0.0)),
        min_size=1, max_size=5,
        unique_by=lambda t: tuple(sorted(t[0]))))
    text = "poly{" + ";".join(
        "%r*[%s]" % (c, ",".join(str(i) for i in idx)) for idx, c in terms) + "}"
    spec = parse_function(text)
    assert parse_function(spec.canonical()) == spec
    f = spec.build()
    # explicit multilinear evaluation oracle
    for x in enumerate_points(f.n)[:: max(1, (1 << f.n) // 8)]:
        want = sum(c * np.prod([x[i] for i in idx]) for idx, c in terms)
        assert abs(f.value(x) - want) < 1e-9


def test_build_names_are_canonical():
    f = parse_function("maj( 3 )").build()
    assert f.name == "maj(3)"


# Every rule the grammar enforces, with the offset and message it reports.
# An offset is the cursor position before the refused token, so it falls
# ahead of any whitespace that precedes the token.
_TOO_LARGE = "table(" + "f" * (1 << 15) + ")"  # a 2^17-entry table
_LONG = "1" * 5000  # more digits than Python converts to an integer


@pytest.mark.parametrize("text, offset, message", [
    (3, 0, "input must be text"),
    ("waj(3)", 0, "unknown function 'waj'"),
    ("", 0, "expected function name"),
    ("   ", 3, "expected function name"),
    ("dict(16)", 5, "coordinate index out of range"),
    ("dict(-1)", 5, "coordinate index out of range"),
    ("dict( 99 )", 5, "coordinate index out of range"),
    ("dict(%s)" % _LONG, 5, "bad coordinate index %r" % _LONG),
    ("maj(0)", 4, "arity out of range"),
    ("maj(17)", 4, "arity out of range"),
    ("maj(4)", 4, "majority requires odd arity"),
    ("maj( 4)", 4, "majority requires odd arity"),
    ("and(0)", 4, "arity out of range"),
    ("and(17)", 4, "arity out of range"),
    ("parity()", 7, "parity needs at least one coordinate"),
    ("parity(0,0)", 9, "duplicate coordinate index 0"),
    ("parity(-1)", 7, "coordinate index must be non-negative"),
    ("parity(16)", 7, "coordinate index 16 exceeds the supported range"),
    ("poly{}", 5, "poly needs at least one term"),
    ("poly{1*[0];2*[0]}", 14, "duplicate monomial"),
    ("poly{1e999*[0]}", 5, "non-finite coefficient"),
    ("poly{%s*[0]}" % _LONG, 5, "non-finite coefficient"),
    ("poly{1*[0]", 10, "expected '}'"),
    ("table(abc)", 6,
     "hex length must encode a power-of-two table of at least 4 entries"),
    (_TOO_LARGE, 6, "table too large"),
    ("table()", 6, "expected hex digits"),
    ("randpoly(0,1,0.5,1)", 9, "dimension out of range"),
    ("randpoly(17,1,0.5,1)", 9, "dimension out of range"),
    ("randpoly(4,5,0.5,1)", 11, "degree must lie in [1, dimension]"),
    ("randpoly(4,0,0.5,1)", 11, "degree must lie in [1, dimension]"),
    ("randpoly(4,2,1.5,1)", 13, "density must lie in [0, 1]"),
    ("randpoly(4,2,-0.1,1)", 13, "density must lie in [0, 1]"),
    ("randpoly(4,2,1e999,1)", 13, "non-finite density"),
    ("randpoly(4,2,0.5,-1)", 17, "seed must be non-negative"),
    ("randpoly(4, 2, 0.5)", 18, "expected ','"),
    ("maj(3) trailing", 7, "unexpected trailing input"),
    ("maj 3", 4, "expected '('"),
    ("maj(3", 5, "expected ')'"),
], ids=lambda v: v[:24] if isinstance(v, str) else None)
def test_grammar_error_table(text, offset, message):
    err = pytest.raises(FunctionSpecError, parse_function, text).value
    assert (err.offset, err.message) == (offset, message)


@pytest.mark.parametrize("text, canonical, n", [
    ("dict(4)", "dict(4)", 5),
    (" maj( 5 ) ", "maj(5)", 5),
    ("and(4)", "and(4)", 4),
    ("parity(3,1)", "parity(1,3)", 4),
    ("poly{-0.5*[0,1,2];0.5*[0]}", "poly{0.5*[0];-0.5*[0,1,2]}", 3),
    ("poly{2*[]}", "poly{2.0*[]}", 1),
    ("poly{1e-3*[];-2*[6]}", "poly{0.001*[];-2.0*[6]}", 7),
    ("table(1E)", "table(1e)", 3),
    ("table(0123456789abcdef)", "table(0123456789abcdef)", 6),
    ("randpoly(6, 3, 0.5, 17)", "randpoly(6,3,0.5,17)", 6),
    ("randpoly(3,1,1e-7,0)", "randpoly(3,1,1e-07,0)", 3),
    ("randpoly(3,1,1,0)", "randpoly(3,1,1.0,0)", 3),
    ("randpoly(16,2,.25,3)", "randpoly(16,2,0.25,3)", 16),
])
def test_grammar_form_table(text, canonical, n):
    spec = parse_function(text)
    assert (spec.canonical(), spec.n) == (canonical, n)
    assert spec.build().n == n
    assert parse_function(canonical) == spec
