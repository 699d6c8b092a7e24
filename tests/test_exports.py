"""Export lists: every listed name exists, and removed names stay gone."""

import importlib
import pkgutil

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
