"""Every demo runs to the end, in-process, with its output captured."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SLOW = {"05_train_toy_sbn.py"}  # trains a net for several seconds


@pytest.mark.parametrize("path", [
    pytest.param(p, id=p.name,
                 marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
