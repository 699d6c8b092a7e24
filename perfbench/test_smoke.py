"""Smoke test of the benchmark itself: every workload on tiny inputs,
untraced and traced, with all its correctness checks; the form of
BENCHMARK.json; and a clean failure where the sources are missing.

    python3 -m pytest perfbench/test_smoke.py -q

It is kept out of tests/, so the library's own suite does not run it.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root, *args):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_benchmark_json_form():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert os.path.isdir(os.path.join(ROOT, p))
    cmd = spec["command"]
    assert 1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd)
    for arg in cmd[1:]:
        if os.path.exists(os.path.join(ROOT, arg)):
            assert any(arg == p or arg.startswith(p + "/") for p in spec["paths"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks(workload, trace):
    spec = _spec()
    res = _result(_run(ROOT, "--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", str(trace), "--tiny"))
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".perfbench-out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    for p in _spec()["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, "--workload", "train", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
