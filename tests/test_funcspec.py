"""Function mini-language: grammar, canonical forms, built tables."""

import time

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


def test_table_build_does_not_enumerate_the_cube(monkeypatch):
    # a table's entries are its hex digits' bits; only maj and and read
    # the points, whose matrix would cost most of a 2^16-entry build
    text = "table(%s)" % ("9e" * (1 << 13))
    want = parse_function(text).build().values()

    def refuse(n):
        raise AssertionError("the build enumerated the cube")

    monkeypatch.setattr("boolcube.funcspec.enumerate_points", refuse)
    f = parse_function(text).build()
    assert f.n == 16 and np.array_equal(f.values(), want)
    assert np.array_equal(f.values()[:8], [-1, 1, 1, 1, 1, -1, -1, 1])
    with pytest.raises(AssertionError, match="enumerated"):
        parse_function("maj(3)").build()


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


# Every rule the grammar enforces, with the offset and message it reports.
# An offset is the cursor position before the refused token, so it falls
# ahead of any whitespace that precedes the token.
_TOO_LARGE = "table(" + "f" * (1 << 15) + ")"  # a 2^17-entry table
_LONG = "1" * 5000  # more digits than Python converts to an integer
_TOO_LONG = "bad %s '" + "1" * 20 + "...' (5000 digits)"


@pytest.mark.parametrize("text, offset, message", [
    (3, 0, "input must be text"),
    ("waj(3)", 0, "unknown function 'waj'"),
    ("", 0, "expected function name"),
    ("   ", 3, "expected function name"),
    ("dict(16)", 5, "coordinate index out of range"),
    ("dict(-1)", 5, "coordinate index out of range"),
    ("dict( 99 )", 5, "coordinate index out of range"),
    ("dict(%s)" % _LONG, 5, _TOO_LONG % "coordinate index"),
    ("maj(%s)" % _LONG, 4, _TOO_LONG % "arity"),
    ("randpoly(%s,1,0.5,1)" % _LONG, 9, _TOO_LONG % "dimension"),
    ("poly{1*[0,%s]}" % _LONG, 10, _TOO_LONG % "coordinate index"),
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
    # each poly rule also where a term would otherwise be well formed
    ("poly{ }", 6, "poly needs at least one term"),
    ("poly{1*[16]}", 8, "coordinate index 16 exceeds the supported range"),
    ("poly{1*[%s]}" % ("1" * 4301), 8,
     "bad coordinate index '" + "1" * 20 + "...' (4301 digits)"),
    ("poly{1*[-1]}", 8, "coordinate index must be non-negative"),
    ("poly{1*[2,2]}", 10, "duplicate coordinate index 2"),
    ("poly{1*[1,0];2*[0,1]}", 16, "duplicate monomial"),
    ("poly{1*[0];\n2 * [\u30000 ]}", 17, "duplicate monomial"),
    ("poly{1*[0]; 1e999*[1]}", 12, "non-finite coefficient"),
    ("poly{1*[0];;}", 11, "expected coefficient"),
    ("poly{1*[0,]}", 10, "expected coordinate index"),
    ("poly{1*[0] 2*[1]}", 11, "expected '}'"),
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
    ("poly{\t1 *\n[\x1c0 ,\u30002\t]\x1c;\n-2\u3000*[ 1\n]\t}",
     "poly{-2.0*[1];1.0*[0,2]}", 3),
    ("poly{1*[0];}", "poly{1.0*[0]}", 1),
    ("poly{ 1*[0] ;\t}", "poly{1.0*[0]}", 1),
    ("poly{ 1 * [ ] }", "poly{1.0*[]}", 1),
    ("poly{1*[007]}", "poly{1.0*[7]}", 8),
    ("poly{1*[+3]}", "poly{1.0*[3]}", 4),
    ("poly{1*[+3];2*[1]}", "poly{2.0*[1];1.0*[3]}", 4),
    ("poly{1*[\u0663]}", "poly{1.0*[3]}", 4),  # ARABIC-INDIC DIGIT THREE
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


def test_well_formed_poly_terms_never_reach_the_cursor(monkeypatch):
    # a long poly in mixed whitespace is read term by term by one pattern;
    # the character-level cursor serves only terms that pattern refuses
    rng = np.random.default_rng(27)
    subsets = sorted({tuple(sorted(rng.choice(16, rng.integers(0, 6),
                                              replace=False).tolist()))
                      for _ in range(4000)})[:1200]
    assert len(subsets) == 1200
    coeffs = rng.normal(size=len(subsets)).tolist()
    spaces = ["", " ", "\t", "\n", "\x1c", "　"]
    gap = lambda: "".join(rng.choice(spaces, rng.integers(0, 3)))
    text = "poly{" + ";".join(
        "%s%r%s*%s[%s%s]%s" % (gap(), c, gap(), gap(), gap(), (gap() + ","
                               + gap()).join(map(str, rng.permutation(ix))),
                               gap())
        for ix, c in zip(subsets, coeffs)) + ";}"

    def refuse(*args):
        raise AssertionError("a well-formed term reached the cursor")

    monkeypatch.setattr("boolcube.funcspec._Cursor.number", refuse)
    spec = parse_function(text)
    terms = sorted(zip(subsets, coeffs), key=lambda t: (len(t[0]), t[0]))
    assert spec == FunctionSpec("poly", tuple(terms), 16)


def test_a_long_refused_term_is_read_in_linear_time():
    # a pattern with two ways to split a run of digits would try every
    # split before refusing this term: seconds here, not a millisecond
    text = "poly{" + "1" * 16000 + "}"
    start = time.perf_counter()
    with pytest.raises(FunctionSpecError) as err:
        parse_function(text)
    assert time.perf_counter() - start < 1.0
    assert (err.value.offset, err.value.message) == (
        5, "non-finite coefficient")
