"""The oldest Python that pyproject.toml admits: every source file parses
with its grammar, and no compiled pattern uses syntax its `re` lacks.
`ast.parse(..., feature_version=...)` is best-effort: it refuses much
newer syntax (`except*`, for one), but not all of it."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import boolcube

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10 has the parser under its old name
    import sre_parse

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(int(v) for v in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups())

# Regular-expression syntax `re` accepts only from Python 3.11.
NEWER_PATTERN_OPS = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def _opcodes(node):
    """The name of every opcode in a parsed pattern, nested ones too."""
    if isinstance(node, sre_parse.SubPattern):
        for op, av in node:
            yield str(op)
            yield from _opcodes(av)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item)


def test_every_source_file_parses_at_the_floor():
    files = [p for d in ("src/boolcube", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
    if sys.version_info >= (3, 11):  # the check refuses newer syntax
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                      feature_version=FLOOR)


def test_no_compiled_pattern_needs_a_newer_re():
    patterns = {}
    for info in pkgutil.iter_modules(boolcube.__path__):
        mod = importlib.import_module("boolcube." + info.name)
        for name, value in vars(mod).items():
            if isinstance(value, re.Pattern):
                patterns["%s.%s" % (info.name, name)] = value
    assert "funcspec._TERM" in patterns
    for name, pattern in patterns.items():
        ops = set(_opcodes(sre_parse.parse(pattern.pattern, pattern.flags)))
        assert not ops & NEWER_PATTERN_OPS, name
    if sys.version_info >= (3, 11):  # the walk sees both kinds
        for text in (r"(?>a|b)c", r"x(y[0-9]++)"):
            assert set(_opcodes(sre_parse.parse(text))) & NEWER_PATTERN_OPS
