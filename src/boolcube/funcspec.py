"""A tiny text language for naming cube functions on the command line.

Forms:
    dict(i)                         coordinate x_i
    maj(n)                          majority of n coordinates (n odd)
    parity(i,j,...)                 product of the listed coordinates
    and(n)                          +1 iff all n coordinates are +1
    poly{c*[i,j,...]; ...}          explicit multilinear polynomial in the
                                    raw coordinates; [] is the constant term
    table(hex)                      truth table: bit m of the hex integer
                                    gives the value at index m (1 -> +1);
                                    4*len(hex) must be a power of two >= 4
    randpoly(n,degree,density,seed) random polynomial: every non-empty
                                    subset of size <= degree is kept with
                                    probability `density`, standard normal
                                    coefficient, no constant term

Whitespace between tokens is ignored.  Parsing never throws anything but
FunctionSpecError, and the error carries the byte offset it occurred at.
parse -> canonical() -> parse is a fixed point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .cube import MAX_N, ProductDistribution, enumerate_points
from .fourier import BooleanFunction, FourierExpansion, inverse_transform
from .rng import stream

__all__ = ["FunctionSpecError", "FunctionSpec", "parse_function"]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_INT = re.compile(r"[-+]?\d+")
_NAME = re.compile(r"[A-Za-z_]+")
_HEX = re.compile(r"[0-9a-fA-F]+")


class FunctionSpecError(ValueError):
    """Parse or validation failure, located by byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__("byte %d: %s" % (offset, message))
        self.offset = offset
        self.message = message


class _Cursor:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise FunctionSpecError("input must be text", 0)
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def fail(self, message: str, offset: int | None = None):
        raise FunctionSpecError(message, self.i if offset is None else offset)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != ch:
            self.fail("expected %r" % ch)
        self.i += 1

    def match(self, pattern: re.Pattern, what: str) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.i)
        if not m:
            self.fail("expected %s" % what)
        self.i = m.end()
        return m.group(0)

    def name(self) -> str:
        return self.match(_NAME, "function name")

    def integer(self, what: str = "integer") -> int:
        start = self.i
        tok = self.match(_INT, what)
        try:
            return int(tok)
        except ValueError:  # past Python's limit on integer digits
            self.fail("bad %s %r" % (what, tok), start)

    def number(self, what: str = "number") -> float:
        start = self.i
        val = float(self.match(_NUMBER, what))
        if not np.isfinite(val):
            self.fail("non-finite %s" % what, start)
        return val

    def end(self):
        self.skip_ws()
        if self.i < len(self.text):
            self.fail("unexpected trailing input")


def _index_list(cur: _Cursor, closing: str) -> tuple[int, ...]:
    """Comma-separated non-negative indices up to `closing`; may be empty."""
    out: list[int] = []
    if cur.peek() == closing:
        return tuple(out)
    while True:
        at = cur.i
        idx = cur.integer("coordinate index")
        if idx < 0:
            cur.fail("coordinate index must be non-negative", at)
        if idx >= MAX_N:
            cur.fail("coordinate index %d exceeds the supported range" % idx, at)
        if idx in out:
            cur.fail("duplicate coordinate index %d" % idx, at)
        out.append(idx)
        if cur.peek() != ",":
            return tuple(out)
        cur.take(",")


@dataclass(frozen=True)
class FunctionSpec:
    """Parsed function description: `data` is the kind-specific payload
    and `n`, the dimension, is set by the parser from it."""

    kind: str
    data: tuple
    n: int

    def canonical(self) -> str:
        if self.kind == "poly":
            body = ";".join("%r*[%s]" % (c, ",".join(map(str, ix)))
                            for ix, c in self.data)
            return "poly{%s}" % body
        return "%s(%s)" % (self.kind, ",".join(map(str, self.data)))

    def _poly_coefficients(self) -> np.ndarray:
        """The monomial coefficients, indexed by subset bitmask."""
        coeffs = np.zeros(1 << self.n)
        if self.kind != "randpoly":
            # a dictator or a parity is one monomial with coefficient 1
            terms = self.data if self.kind == "poly" else [(self.data, 1.0)]
            for members, coeff in terms:
                coeffs[sum(1 << i for i in members)] = coeff
            return coeffs
        n, degree, density, seed = self.data
        rng = stream(seed)
        for mask in range(1, 1 << n):
            if mask.bit_count() > degree:
                continue
            keep = rng.random() < density
            coeff = rng.normal()
            if keep:
                coeffs[mask] = coeff
        return coeffs

    def build(self) -> BooleanFunction:
        """Materialize the truth table (indexing per cube conventions)."""
        n = self.n
        if self.kind in ("dict", "parity", "poly", "randpoly"):
            # At p = 1/2, phi_i = x_i, so the monomial coefficients are
            # the expansion and the inverse butterfly gives the table.
            table = inverse_transform(
                FourierExpansion._of_vector(self._poly_coefficients()),
                ProductDistribution.uniform(n)).values()
            return BooleanFunction(n, table=table, name=self.canonical())
        pts = enumerate_points(n).astype(np.float64)
        if self.kind == "maj":
            table = np.sign(pts.sum(axis=1))
        elif self.kind == "and":
            table = np.where((pts > 0).all(axis=1), 1.0, -1.0)
        else:  # table
            # Bit m of the hex integer is bit m % 4 of digit m // 4 from the
            # right; read digit by digit, since the integer may pass 64 bits.
            nibbles = np.array([int(c, 16) for c in reversed(self.data[0])])
            bits = (nibbles[:, None] >> np.arange(4)) & 1
            table = 2.0 * bits.reshape(-1) - 1.0
        return BooleanFunction(n, table=table, name=self.canonical())


def _argument(cur: _Cursor, what: str, *rules, number: bool = False):
    """Read an integer, or a number when asked, and refuse it, at the
    offset where the read began, with the message of the first
    `(ok, message)` rule it breaks."""
    at = cur.i
    value = cur.number(what) if number else cur.integer(what)
    for ok, message in rules:
        if not ok(value):
            cur.fail(message, at)
    return value


def _dimension(n: int) -> bool:
    return 1 <= n <= MAX_N


def parse_function(text: str) -> FunctionSpec:
    """Parse one function description; whitespace-insensitive."""
    cur = _Cursor(text)
    cur.skip_ws()
    at = cur.i
    kind = cur.name()
    if kind == "poly":
        cur.take("{")
        terms: list[tuple[tuple[int, ...], float]] = []
        seen: set[tuple[int, ...]] = set()
        while True:
            if cur.peek() == "}" and not terms:
                cur.fail("poly needs at least one term")
            coeff = cur.number("coefficient")
            cur.take("*")
            cur.take("[")
            ix_at = cur.i
            members = tuple(sorted(_index_list(cur, "]")))
            cur.take("]")
            if members in seen:
                cur.fail("duplicate monomial", ix_at)
            seen.add(members)
            terms.append((members, coeff))
            if cur.peek() == ";":
                cur.take(";")
                if cur.peek() == "}":
                    break
                continue
            break
        cur.take("}")
        terms.sort(key=lambda t: (len(t[0]), t[0]))
        top = max((ix[-1] for ix, _ in terms if ix), default=-1)
        spec = FunctionSpec(kind, tuple(terms), max(top + 1, 1))
    elif kind in ("dict", "maj", "and", "parity", "table", "randpoly"):
        cur.take("(")
        if kind == "dict":
            i = _argument(cur, "coordinate index",
                          (lambda i: 0 <= i < MAX_N,
                           "coordinate index out of range"))
            spec = FunctionSpec(kind, (i,), i + 1)
        elif kind in ("maj", "and"):
            n = _argument(cur, "arity", (_dimension, "arity out of range"),
                          (lambda n: kind == "and" or n % 2,
                           "majority requires odd arity"))
            spec = FunctionSpec(kind, (n,), n)
        elif kind == "parity":
            ix_at = cur.i
            members = _index_list(cur, ")")
            if not members:
                cur.fail("parity needs at least one coordinate", ix_at)
            spec = FunctionSpec(kind, tuple(sorted(members)), max(members) + 1)
        elif kind == "table":
            h_at = cur.i
            digits = cur.match(_HEX, "hex digits").lower()
            bits = 4 * len(digits)
            if bits & (bits - 1) or bits < 4:
                cur.fail("hex length must encode a power-of-two table of at "
                         "least 4 entries", h_at)
            n = bits.bit_length() - 1
            if n > MAX_N:
                cur.fail("table too large", h_at)
            spec = FunctionSpec(kind, (digits,), n)
        else:  # randpoly
            n = _argument(cur, "dimension",
                          (_dimension, "dimension out of range"))
            cur.take(",")
            degree = _argument(cur, "degree", (lambda d: 1 <= d <= n,
                               "degree must lie in [1, dimension]"))
            cur.take(",")
            density = _argument(cur, "density", (lambda r: 0.0 <= r <= 1.0,
                                "density must lie in [0, 1]"), number=True)
            cur.take(",")
            seed = _argument(cur, "seed",
                             (lambda s: s >= 0, "seed must be non-negative"))
            spec = FunctionSpec(kind, (n, degree, density, seed), n)
        cur.take(")")
    else:
        cur.fail("unknown function %r" % kind, at)
    cur.end()
    return spec
