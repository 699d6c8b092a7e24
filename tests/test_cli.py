"""Command-line front end: config resolution, artifacts, exit codes."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import boolcube
from boolcube.cli import _resolve_config, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# transform

def test_transform_golden(tmp_path, capsys):
    code, out = run(capsys, "transform", "--function", "maj(3)",
                    "--p", "0.5", "--out", str(tmp_path))
    assert code == 0
    text = read(tmp_path / "transform.txt")
    assert text.splitlines()[0].startswith("# cmd=transform")
    assert "function=maj(3)" in text.splitlines()[0]
    assert "0\t0.5" in text
    assert "0,1,2\t-0.5" in text
    assert text in out  # artifact body is echoed


def test_transform_rerun_byte_identical(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run(capsys, "transform", "--function", "parity(0,1)", "--p", "0.7",
        "--out", str(a_dir))
    run(capsys, "transform", "--function", "parity(0,1)", "--p", "0.7",
        "--out", str(b_dir))
    assert read(a_dir / "transform.txt") == read(b_dir / "transform.txt")


def test_transform_table_past_64_bits(tmp_path, capsys):
    code, _ = run(capsys, "transform", "--function", "table(f123456789abcdef)",
                  "--out", str(tmp_path))
    assert code == 0
    assert read(tmp_path / "transform.txt").startswith("# cmd=transform")


def test_transform_bad_function_exits_2(tmp_path, capsys):
    code, out = run(capsys, "transform", "--function", "maj(4)",
                    "--out", str(tmp_path))
    assert code == 2
    assert "odd" in out


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_passes_and_writes_csv(tmp_path, capsys):
    code, out = run(capsys, "gradcheck", "--trials", "3", "--out", str(tmp_path))
    assert code == 0
    assert "max |exact - numeric|" in out
    lines = read(tmp_path / "gradcheck.csv").splitlines()
    assert lines[0].startswith("# cmd=gradcheck")
    assert lines[1] == "instance,function,coord,exact,numeric,abs_diff"
    assert len(lines) == 2 + 3 * 6  # three instances on six coordinates
    worst = max(float(row.split(",")[-1]) for row in lines[2:])
    assert worst < 1e-6


def test_gradcheck_single_function_fixed_p(tmp_path, capsys):
    code, _ = run(capsys, "gradcheck", "--function", "maj(3)",
                  "--p", "0.5", "--out", str(tmp_path))
    assert code == 0
    rows = read(tmp_path / "gradcheck.csv").splitlines()[2:]
    assert len(rows) == 3
    # exact gradient of majority at p = 1/2 is 1 per coordinate
    for row in rows:
        assert float(row.split(",")[3]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", ["0.99999", "0.999995", "0.9999895",
                               "1e-5", "1e-6", "0.0000105"])
def test_gradcheck_within_a_step_of_the_probability_floor(p, tmp_path, capsys):
    # the finite difference clips its step into the distribution's range
    # instead of raising or reading a clamped probability
    code, out = run(capsys, "gradcheck", "--function", "maj(3)",
                    "--p", p, "--out", str(tmp_path))
    assert code == 0, out
    rows = read(tmp_path / "gradcheck.csv").splitlines()[2:]
    assert max(float(row.split(",")[-1]) for row in rows) < 1e-9


# ---------------------------------------------------------------------------
# bench

def test_bench_measured_variances(tmp_path, capsys):
    code, out = run(capsys, "bench", "--function", "maj(3)",
                    "--out", str(tmp_path))
    assert code == 0
    for kind, want in (("reinforce", 3.0), ("fourier_cv", 15.0)):
        lines = read(tmp_path / ("bench_%s.csv" % kind)).splitlines()
        assert lines[0].startswith("# cmd=bench")
        assert lines[2] == "coord,mean,variance,ema_variance,trials,seed,estimator"
        rows = [row.split(",") for row in lines[3:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=0.05)
            assert float(row[2]) == pytest.approx(want, rel=0.05)


def test_bench_exact_inner_direction(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"function": "maj(3)", "exact_inner": True,
                                "estimators": ["fourier_cv"]}))
    code, _ = run(capsys, "bench", "--config", str(cfgp), "--out", str(tmp_path))
    assert code == 0
    rows = read(tmp_path / "bench_fourier_cv.csv").splitlines()[3:]
    for row in rows:
        # exact smoothing puts the variance below reinforce's 3.0
        assert float(row.split(",")[2]) == pytest.approx(2.0625, rel=0.05)


def test_bench_rerun_byte_identical(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        code, _ = run(capsys, "bench", "--function", "parity(0,1,2)",
                      "--trials", "5000", "--out", str(d))
        assert code == 0
    for name in ("bench_reinforce.csv", "bench_fourier_cv.csv"):
        assert read(a_dir / name) == read(b_dir / name)


def test_bench_estimator_flag_narrows_list(tmp_path, capsys):
    code, _ = run(capsys, "bench", "--function", "maj(3)", "--estimator",
                  "muprop", "--trials", "1000", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "bench_muprop.csv").exists()
    assert not (tmp_path / "bench_reinforce.csv").exists()


def test_bench_unknown_estimator_exits_2(tmp_path, capsys):
    code, out = run(capsys, "bench", "--estimator", "nvil",
                    "--out", str(tmp_path))
    assert code == 2
    assert "estimator" in out


# ---------------------------------------------------------------------------
# hyper

def test_hyper_all_tables_satisfy_bound(tmp_path, capsys):
    code, out = run(capsys, "hyper", "--trials", "50", "--out", str(tmp_path))
    assert code == 0
    assert "min slack" in out
    lines = read(tmp_path / "hyper.csv").splitlines()
    assert lines[1] == "index,rho,norm_q,norm_2,slack"
    assert len(lines) == 52
    # rho for q=4, lambda=1/2
    assert float(lines[2].split(",")[1]) == pytest.approx(0.4854917717073234,
                                                          abs=1e-12)
    for row in lines[2:]:
        assert float(row.split(",")[4]) > -1e-10


# ---------------------------------------------------------------------------
# train

def train_config(tmp_path, **over):
    cfg = {"widths": [3], "steps": 40, "minibatch": 8, "dataset_count": 16,
           "baseline_hidden": 4, "g_hidden": 4, "learning_rate": 0.02}
    cfg.update(over)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_writes_all_artifacts(tmp_path, capsys):
    code, out = run(capsys, "train", "--config", train_config(tmp_path),
                    "--out", str(tmp_path))
    assert code == 0
    assert "mean ELBO" in out
    metrics = read(tmp_path / "train_metrics.csv").splitlines()
    assert metrics[0].startswith("# cmd=train")
    assert metrics[2] == "step,elbo,log_var_layer1"
    assert len(metrics) == 43
    data = read(tmp_path / "train_dataset.txt").splitlines()
    assert len(data) == 16 and len(data[0]) == 36
    ckpt = read(tmp_path / "train_checkpoint.txt")
    assert "q.link0.W\t" in ckpt and "model.prior\t" in ckpt


def test_train_rerun_byte_identical(tmp_path, capsys):
    cfgp = train_config(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        code, _ = run(capsys, "train", "--config", cfgp, "--out", str(d))
        assert code == 0
    for name in ("train_metrics.csv", "train_dataset.txt",
                 "train_checkpoint.txt"):
        assert read(a_dir / name) == read(b_dir / name)


def test_train_flag_overrides_config(tmp_path, capsys):
    cfgp = train_config(tmp_path, estimator="reinforce")
    code, _ = run(capsys, "train", "--config", cfgp, "--estimator", "muprop",
                  "--trials", "25", "--out", str(tmp_path))
    assert code == 0
    header = read(tmp_path / "train_metrics.csv").splitlines()[0]
    assert "estimator=muprop" in header
    assert "steps=25" in header


def test_train_divergence_exits_3(tmp_path, capsys):
    cfgp = train_config(tmp_path, learning_rate=1e8, steps=50,
                        write_checkpoint=False, write_dataset=False)
    with np.errstate(all="ignore"):
        code, out = run(capsys, "train", "--config", cfgp,
                        "--out", str(tmp_path))
    assert code == 3
    assert "non-finite" in out


def test_train_header_with_dataset_file_omits_generator_keys(tmp_path, capsys):
    # a 6-row, 4-column file: the run takes its width and rows, so the
    # header must not record the generator's settings
    data = tmp_path / "data.txt"
    data.write_text("0110\n1001\n1100\n0011\n1010\n0101\n")
    cfgp = train_config(tmp_path, widths=[2], minibatch=3, dataset=str(data))
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "train", "--config", cfgp, "--out", str(out_dir))
    assert code == 0
    header = read(out_dir / "train_metrics.csv").splitlines()[0]
    assert "dataset=%s" % data in header
    for key in ("obs_width", "dataset_count", "dataset_seed", "write_dataset"):
        assert " %s=" % key not in header, key
    assert "model.link0.W\t4x2\t" in read(out_dir / "train_checkpoint.txt")
    assert not (out_dir / "train_dataset.txt").exists()


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    cfgp = train_config(tmp_path, dataset=str(tmp_path / "nope.txt"))
    code, out = run(capsys, "train", "--config", cfgp, "--out", str(tmp_path))
    assert code == 2
    assert "dataset" in out


# ---------------------------------------------------------------------------
# selftest and shared config machinery

def test_selftest_green(tmp_path, capsys):
    code, out = run(capsys, "selftest", "--out", str(tmp_path))
    assert code == 0
    lines = read(tmp_path / "selftest.csv").splitlines()
    assert lines[1] == "check,status,detail"
    rows = [row.split(",") for row in lines[2:]]
    assert len(rows) == 14
    assert all(row[1] == "PASS" for row in rows)
    assert out.count("PASS") == 14 and "FAIL" not in out


def test_selftest_rerun_byte_identical(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        run(capsys, "selftest", "--out", str(d))
    assert read(a_dir / "selftest.csv") == read(b_dir / "selftest.csv")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # transform draws nothing and train takes its width from the data,
    # so neither has a seed or obs_width setting
    for cmd, key, value in (("bench", "steps", 10), ("transform", "seed", 0),
                            ("train", "obs_width", 36)):
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps({key: value}))
        code, out = run(capsys, cmd, "--config", str(cfgp),
                        "--out", str(tmp_path))
        assert code == 2, (cmd, key)
        assert "unknown config key %r for %s" % (key, cmd) in out


# The key each generic flag sets, per command; a flag missing here does
# not apply to that command.
_FLAG_KEYS = {
    "transform": {"function": "function", "p": "p"},
    "gradcheck": {"seed": "seed", "trials": "count", "function": "function",
                  "p": "p"},
    "bench": {"seed": "seed", "trials": "trials", "rho": "rho",
              "estimator": "estimators", "function": "function", "p": "p"},
    "hyper": {"seed": "seed", "trials": "count", "p": "p"},
    "train": {"seed": "seed", "trials": "steps", "rho": "rho",
              "estimator": "estimator"},
    "selftest": {"seed": "seed"},
}
_FLAG_VALUES = {"seed": 5, "trials": 7, "rho": 0.25, "estimator": "muprop",
                "function": "maj(5)", "p": "0.25"}


def test_inapplicable_flag_exits_2(tmp_path, capsys):
    for cmd, keys in _FLAG_KEYS.items():
        for flag, value in _FLAG_VALUES.items():
            if flag not in keys:
                code, out = run(capsys, cmd, "--" + flag, str(value),
                                "--out", str(tmp_path))
                assert code == 2, (cmd, flag)
                assert out == "config error: --%s does not apply to %s\n" % (
                    flag, cmd)
                continue
            args = argparse.Namespace(config=None, out=None,
                                      **dict.fromkeys(_FLAG_VALUES))
            setattr(args, flag, value)
            want = [value] if keys[flag] == "estimators" else value
            assert _resolve_config(cmd, args)[keys[flag]] == want, (cmd, flag)


def test_malformed_json_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text("{not json")
    code, out = run(capsys, "transform", "--config", str(cfgp),
                    "--out", str(tmp_path))
    assert code == 2
    assert "JSON" in out


def test_probability_dimension_mismatch_exits_2(tmp_path, capsys):
    code, out = run(capsys, "transform", "--function", "maj(3)",
                    "--p", "0.3,0.4", "--out", str(tmp_path))
    assert code == 2
    assert "probabilities" in out


@pytest.mark.parametrize("cmd,function", [
    ("transform", "randpoly(16,4,0.5,1)"), ("bench", "maj(3)"),
    ("gradcheck", "maj(3)")])
def test_probability_dimension_mismatch_exits_before_building(
        cmd, function, monkeypatch, tmp_path, capsys):
    from boolcube.funcspec import FunctionSpec

    calls = []
    build = FunctionSpec.build
    monkeypatch.setattr(FunctionSpec, "build",
                        lambda spec: calls.append(spec) or build(spec))
    code, out = run(capsys, cmd, "--function", function, "--p", "0.3,0.4",
                    "--out", str(tmp_path))
    n = 16 if function.startswith("randpoly") else 3
    assert code == 2
    assert out == "config error: p: 2 probabilities for dimension %d\n" % n
    assert calls == []


@pytest.mark.parametrize("cmd", ["transform", "bench", "hyper"])
def test_random_probabilities_outside_gradcheck_exit_2(cmd, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run(capsys, cmd, "--p", "random", "--out", str(out_dir))
    assert code == 2
    assert "gradcheck only" in out
    assert not out_dir.exists()


def test_train_minibatch_larger_than_dataset_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfgp = train_config(tmp_path, dataset_count=10, minibatch=24)
    code, out = run(capsys, "train", "--config", cfgp, "--out", str(out_dir))
    assert code == 2
    assert "minibatch 24 exceeds" in out
    assert not out_dir.exists()


def test_flag_beats_config_value(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"rho": 0.25, "function": "maj(3)",
                                "trials": 1000}))
    code, _ = run(capsys, "bench", "--config", str(cfgp), "--rho", "0.5",
                  "--out", str(tmp_path))
    assert code == 0
    header = read(tmp_path / "bench_reinforce.csv").splitlines()[0]
    assert "rho=0.5" in header


# ---------------------------------------------------------------------------
# One owner per setting: the library's config objects judge every
# estimator and trainer setting, before any work and before any file.

_BENCH = {"function": "maj(3)", "trials": 1000}
_LIBRARY_OWNED = [
    ("gradcheck", {"n": 3, "degree": 5}, "degree must lie in [1, dimension]"),
    ("bench", {"decay": 1.0}, "baseline_decay must lie in [0, 1)"),
    ("bench", {"taylor_at_sample": True,
               "estimators": ["combined", "reinforce"]},
     "taylor_at_sample applies only to kind 'combined'"),
    ("bench", {"rho": 1.5}, "rho must lie in [0, 1]"),
    ("bench", {"rho": 0, "estimators": ["fourier_cv"]}, "divides by rho"),
    ("bench", {"trials": 1}, "trials must be at least 2"),
    ("train", {"variance_decay": 1.0}, "baseline_decay must lie in [0, 1)"),
    ("train", {"momentum": 1.0}, "momentum must lie in [0, 1)"),
    ("train", {"learning_rate": 0}, "learning rates must be positive"),
    ("train", {"steps": 0}, "steps and minibatch must be positive"),
    ("train", {"minibatch": 0}, "steps and minibatch must be positive"),
    ("train", {"widths": [0]}, "widths out of the supported toy range"),
    ("train", {"widths": [1, 2, 3, 4]}, "layer count must be 1, 2, or 3"),
    ("train", {"widths": [2.5]}, "widths: expected an integer"),
    ("train", {"estimator": "nvil"}, "unknown estimator kind 'nvil'"),
    ("train", {"g_act": "sigmoid"}, "unknown activation 'sigmoid'"),
    ("train", {"rho": 0, "estimator": "combined"}, "divides by rho"),
]


@pytest.mark.parametrize("cmd,settings,message", _LIBRARY_OWNED, ids=[
    "%s-%s" % (cmd, json.dumps(settings, separators=(",", ":")))
    for cmd, settings, _ in _LIBRARY_OWNED])
def test_library_owned_setting_exits_2_before_any_file(
        cmd, settings, message, tmp_path, capsys):
    if cmd == "train":
        cfgp = train_config(tmp_path, **settings)
    else:
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(
            dict(_BENCH, **settings) if cmd == "bench" else settings))
    out_dir = tmp_path / "out"
    code, out = run(capsys, cmd, "--config", str(cfgp), "--out", str(out_dir))
    assert code == 2
    assert out.startswith("config error: ") and out.count("\n") == 1
    assert message in out
    assert not out_dir.exists()


def test_bench_rho_zero_runs_where_no_kind_divides_by_it(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(dict(_BENCH, rho=0,
                                    estimators=["reinforce", "fourier_cv_alt"])))
    code, _ = run(capsys, "bench", "--config", str(cfgp),
                  "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "bench_reinforce.csv").exists()
    assert (tmp_path / "bench_fourier_cv_alt.csv").exists()


def test_module_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(boolcube.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "boolcube.cli", *argv],
                              env=env, capture_output=True, text=True)

    done = cli("selftest", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert (tmp_path / "selftest.csv").exists()
    done = cli("bench", "--rho", "1.5", "--out", str(tmp_path / "bad"))
    assert done.returncode == 2
    assert done.stdout.startswith("config error: ")
    assert not (tmp_path / "bad").exists()
