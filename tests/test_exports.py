"""Export lists: every listed name exists, removed names stay gone, and
every imported name is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import boolcube

# The per-sample functions `contribution` replaced.
REMOVED = ("reinforce", "reinforce_const_baseline", "straight_through",
           "muprop", "fourier_cv", "fourier_cv_alt", "combined")


def modules():
    yield boolcube
    for info in pkgutil.iter_modules(boolcube.__path__):
        yield importlib.import_module("boolcube." + info.name)


def test_every_exported_name_resolves():
    assert len(set(boolcube.__all__)) == len(boolcube.__all__)
    for mod in modules():
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)


def test_removed_per_sample_functions_are_not_exported():
    for mod in modules():
        for name in REMOVED:
            assert name not in mod.__all__, (mod.__name__, name)
    for name in REMOVED:
        assert not hasattr(boolcube.estimators, name), name


def test_callable_backing_is_gone():
    # a BooleanFunction holds a truth table and nothing else
    for name in ("from_callable", "has_table"):
        assert not hasattr(boolcube.BooleanFunction, name), name


def test_every_imported_name_is_used():
    # a name a module imports is read in that module, or re-exported
    # through its __all__
    for mod in modules():
        tree = ast.parse(Path(mod.__file__).read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used.update(getattr(mod, "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used, (mod.__name__, name, node.lineno)
