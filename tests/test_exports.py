"""Export lists: every listed name exists, the package re-exports each
module's list, removed names stay gone, every imported name is used,
every private module-level name is read, every config field is read,
every keyword part of the estimator kernel is read by some kind, and
every public callable that takes a distribution has a refusal row."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import boolcube
from test_cube import REFUSALS

ROOT = Path(__file__).resolve().parent.parent

# The modules the package re-exports, in the order of its __all__.
REEXPORTED = ("cube", "estimators", "fourier", "funcspec", "operators",
              "rng", "sbn")

# The per-sample functions `contribution` replaced.
REMOVED = ("reinforce", "reinforce_const_baseline", "straight_through",
           "muprop", "fourier_cv", "fourier_cv_alt", "combined",
           "single_sample")

# The batch EMA; the trainer's online track is the only EMA left.
REMOVED_EMA = ("ema_mean_and_variance", "variance_ema_track")


def modules():
    yield boolcube
    for info in pkgutil.iter_modules(boolcube.__path__):
        yield importlib.import_module("boolcube." + info.name)


def test_every_exported_name_resolves():
    assert len(set(boolcube.__all__)) == len(boolcube.__all__)
    expected = ["__version__"]
    for name in REEXPORTED:
        expected += getattr(boolcube, name).__all__
    assert boolcube.__all__ == expected
    for mod in modules():
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)


def test_removed_per_sample_functions_are_not_exported():
    for mod in modules():
        for name in REMOVED:
            assert name not in mod.__all__, (mod.__name__, name)
    for name in REMOVED:
        assert not hasattr(boolcube.estimators, name), name


def test_batch_ema_is_gone():
    for mod in modules():
        for name in REMOVED_EMA:
            assert not hasattr(mod, name), (mod.__name__, name)


def test_callable_backing_is_gone():
    # a BooleanFunction holds a truth table and nothing else
    for name in ("from_callable", "has_table"):
        assert not hasattr(boolcube.BooleanFunction, name), name


def source_files():
    # (path, package a relative import starts from, names it exports)
    for mod in modules():
        yield Path(mod.__file__), mod.__package__, mod.__all__
    for folder in ("tests", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            yield path, None, ()


def test_every_imported_name_is_used():
    # a name a file imports is read in that file, or re-exported through
    # its __all__; a star import re-exports all of its source's __all__
    for path, package, exported in source_files():
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used.update(exported)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = (path.name, node.lineno)
            for alias in node.names:
                if alias.name == "*":
                    source = importlib.import_module(
                        "." * node.level + (node.module or ""), package)
                    assert hasattr(source, "__all__"), where
                    assert set(source.__all__) <= set(exported), where
                    continue
                name = alias.asname or alias.name.split(".")[0]
                assert name in used, where + (name,)


def module_level_private_names(tree):
    # functions, classes and constants a module defines at its top level
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def library_trees():
    return {path.name: ast.parse(path.read_text())
            for path, _, _ in source_files() if path.parent.name == "boolcube"}


def test_every_private_module_level_name_is_read():
    # a private helper or constant no code in src/boolcube reads is left
    # over from a removed path; reads by tests alone do not count
    trees = library_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [(file, line, name) for file, tree in trees.items()
              for name, line in module_level_private_names(tree)
              if name not in read]
    assert not unread, unread


def test_every_config_field_is_read():
    # a field of EstimatorConfig or TrainConfig that no code in
    # src/boolcube reads as an attribute, outside the class's own body
    # (its checks and its text), is an option that does nothing
    trees = library_trees().values()
    for cls in (boolcube.EstimatorConfig, boolcube.TrainConfig):
        own = {id(node) for tree in trees for body in ast.walk(tree)
               if isinstance(body, ast.ClassDef) and body.name == cls.__name__
               for node in ast.walk(body)}
        read = {node.attr for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load) and id(node) not in own}
        unread = [f.name for f in dataclasses.fields(cls)
                  if f.name not in read]
        assert not unread, (cls.__name__, unread)


def test_every_kernel_part_is_read_by_some_kind():
    # a keyword part of the estimator kernel that no kind calls, in any
    # form, is a part nothing reads
    est = boolcube.estimators
    params = {name for name, p in inspect.signature(
                  est._contributions).parameters.items()
              if p.kind is p.KEYWORD_ONLY}
    cfgs = [est.EstimatorConfig(kind) for kind in est.KINDS]
    cfgs.append(est.EstimatorConfig("combined", taylor_at_sample=True))
    assert set().union(*(est._kernel_probe(c)[0] for c in cfgs)) == params


# Public callables with a `dist` parameter that pair it with nothing a
# caller gives, so the shape rules have nothing to refuse.
NO_REFUSAL = {
    "sample": "draws from the distribution alone",
}


def takes_dist(fn) -> bool:
    try:
        return "dist" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def public_dist_callables():
    # module functions by name, methods of exported classes as Class.method
    for mod in modules():
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                for attr in vars(obj):
                    if not attr.startswith("_") and takes_dist(getattr(obj, attr)):
                        yield "%s.%s" % (name, attr)
            elif callable(obj) and takes_dist(obj):
                yield name


def test_every_callable_taking_a_distribution_has_a_refusal_row():
    found = set(public_dist_callables())
    assert set(NO_REFUSAL) <= found
    rows = {entry for entry, *_ in REFUSALS}
    missing = sorted(found - rows - set(NO_REFUSAL))
    assert not missing, missing
