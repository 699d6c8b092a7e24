"""Command-line front end: config resolution, artifacts, exit codes."""

import argparse
import dataclasses
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


def test_gradcheck_function_null_in_config_is_the_default(tmp_path, capsys):
    # "function": null asks for the generated instances, as no key does
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"function": None, "count": 2}))
    code, _ = run(capsys, "gradcheck", "--config", str(cfgp),
                  "--out", str(tmp_path / "a"))
    assert code == 0
    run(capsys, "gradcheck", "--trials", "2", "--out", str(tmp_path / "b"))
    assert (read(tmp_path / "a" / "gradcheck.csv")
            == read(tmp_path / "b" / "gradcheck.csv"))


# ---------------------------------------------------------------------------
# bench

def test_bench_measured_variances(tmp_path, capsys):
    code, out = run(capsys, "bench", "--function", "maj(3)",
                    "--out", str(tmp_path))
    assert code == 0
    for kind, want in (("reinforce", 3.0), ("fourier_cv", 15.0)):
        lines = read(tmp_path / ("bench_%s.csv" % kind)).splitlines()
        assert lines[0].startswith("# cmd=bench")
        assert lines[2] == "coord,mean,variance,trials,seed,estimator"
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
    # combined fits b, whose regression diverges at this rate; muprop, the
    # default, reads no b and stays finite, if far from any optimum
    cfgp = train_config(tmp_path, learning_rate=1e8, steps=50,
                        estimator="combined", write_checkpoint=False,
                        write_dataset=False)
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


def test_variance_decay_is_the_trainers_alone(tmp_path, capsys):
    # TrainConfig owns the decay of the reported variance track: it moves
    # the log_var_layer columns and nothing on the parameters' path, and
    # bench, which tracks no EMA, writes no decay
    runs = {}
    for name, over in (("default", {}), ("half", {"variance_decay": 0.5})):
        cfgp = train_config(tmp_path, widths=[3, 2], **over)
        code, _ = run(capsys, "train", "--config", cfgp,
                      "--out", str(tmp_path / name))
        assert code == 0
        runs[name] = [read(tmp_path / name / f) for f in (
            "train_metrics.csv", "train_checkpoint.txt", "train_dataset.txt")]
    (metrics, ckpt, data), (half, half_ckpt, half_data) = runs.values()
    assert (ckpt, data) == (half_ckpt, half_data)
    metrics, half = metrics.splitlines(), half.splitlines()
    assert "variance_decay=0.99" in metrics[0]
    assert "variance_decay=0.5" in half[0]
    assert metrics[1].endswith(" baseline_lr_scale=0.1 variance_decay=0.99")
    assert half[1].endswith(" baseline_lr_scale=0.1 variance_decay=0.5")
    assert metrics[2] == half[2] == "step,elbo,log_var_layer1,log_var_layer2"
    rows = [row.split(",") for row in metrics[3:]]
    half_rows = [row.split(",") for row in half[3:]]
    assert [r[:2] for r in rows] == [r[:2] for r in half_rows]
    # step 0 reports the floor under any decay; every later entry moves
    assert rows[0][2:] == half_rows[0][2:]
    assert all(a != b for r, h in zip(rows[1:], half_rows[1:])
               for a, b in zip(r[2:], h[2:]))
    code, _ = run(capsys, "bench", "--function", "maj(3)", "--trials", "1000",
                  "--out", str(tmp_path / "bench"))
    assert code == 0
    for kind in ("reinforce", "fourier_cv"):
        assert "decay" not in read(tmp_path / "bench" / ("bench_%s.csv" % kind))


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    cfgp = train_config(tmp_path, dataset=str(tmp_path / "nope.txt"))
    code, out = run(capsys, "train", "--config", cfgp, "--out", str(tmp_path))
    assert code == 2
    assert "dataset" in out


# ---------------------------------------------------------------------------
# exit 3: a runner refuses a bad result of the library call it makes,
# after writing what it had finished

def _nan_for_fourier_cv(cfg, f, dist, trials, seed, **parts):
    report = boolcube.benchmark_variance(cfg, f, dist, trials, seed, **parts)
    if cfg.kind != "fourier_cv":
        return report
    return dataclasses.replace(report, mean=np.full(f.n, np.nan))


def _violated(f, dist, q, rho):
    report = boolcube.hypercontractivity_check(f, dist, q=q, rho=rho)
    return dataclasses.replace(report, norm_q=report.norm_2 + 1.0)


@pytest.mark.parametrize("argv, name, patch, line, written", [
    (["gradcheck", "--function", "maj(3)"], "exact_gradient",
     lambda f, dist: np.full(f.n, np.nan),
     "non-finite gradient on instance 0", []),
    (["gradcheck", "--function", "maj(3)"], "numeric_gradient",
     lambda f, dist: np.zeros(f.n),
     "gradient identity check FAILED (tolerance 1e-06)", ["gradcheck.csv"]),
    (["bench", "--trials", "100"], "benchmark_variance", _nan_for_fourier_cv,
     "non-finite benchmark results for fourier_cv", ["bench_reinforce.csv"]),
    (["hyper", "--trials", "3"], "hypercontractivity_check", _violated,
     "norm contraction violated", ["hyper.csv"]),
    (["selftest"], "_selftest_checks",
     lambda seed: [("kept", True, 0.0), ("broken", False, 1.5)],
     "1 check(s) failed", ["selftest.csv"]),
], ids=["gradcheck-non-finite", "gradcheck-tolerance", "bench", "hyper",
        "selftest"])
def test_refused_library_result_exits_3(argv, name, patch, line, written,
                                        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("boolcube.cli." + name, patch)
    code, out = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 3
    assert out.splitlines()[-1] == line
    assert sorted(os.listdir(tmp_path)) == written


# ---------------------------------------------------------------------------
# selftest and shared config machinery

def test_selftest_green(tmp_path, capsys):
    code, out = run(capsys, "selftest", "--out", str(tmp_path))
    assert code == 0
    lines = read(tmp_path / "selftest.csv").splitlines()
    assert lines[1] == "check,status,detail"
    rows = [row.split(",") for row in lines[2:]]
    assert len(rows) == 13
    assert all(row[1] == "PASS" for row in rows)
    assert out.count("PASS") == 13 and "FAIL" not in out


def test_selftest_rerun_byte_identical(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        run(capsys, "selftest", "--out", str(d))
    assert read(a_dir / "selftest.csv") == read(b_dir / "selftest.csv")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # transform draws nothing and train takes its width from the data,
    # so neither has a seed or obs_width setting; the estimator's kind,
    # not a key, decides whether train fits the g nets
    for cmd, key, value in (("bench", "steps", 10), ("transform", "seed", 0),
                            ("train", "obs_width", 36),
                            ("train", "freeze_g", True)):
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
    missing = tmp_path / "missing.json"
    cfgp.write_text("[1, 2]")
    for path, message in (
            (missing, "cannot read config: [Errno 2] No such file or "
                      "directory: %r" % str(missing)),
            (cfgp, "config must be a JSON object")):
        code, out = run(capsys, "transform", "--config", str(path),
                        "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "config error: %s\n" % message)
    assert not (tmp_path / "out").exists()


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


def test_bench_per_coordinate_p_as_list_or_text_writes_the_same_csv(
        tmp_path, capsys):
    for name, p in (("list", [0.2, 0.3, 0.4]), ("text", "0.2,0.3,0.4")):
        cfgp = tmp_path / ("%s.json" % name)
        cfgp.write_text(json.dumps({"function": "maj(3)", "p": p,
                                    "trials": 2000,
                                    "estimators": ["reinforce", "combined"]}))
        code, _ = run(capsys, "bench", "--config", str(cfgp),
                      "--out", str(tmp_path / name))
        assert code == 0
    for kind in ("reinforce", "combined"):
        csv = "bench_%s.csv" % kind
        assert read(tmp_path / "list" / csv) == read(tmp_path / "text" / csv)


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
    # bench reports no EMA, so it has no decay to pass on
    ("bench", {"decay": 1.0}, "unknown config key 'decay' for bench"),
    ("bench", {"taylor_at_sample": True,
               "estimators": ["combined", "reinforce"]},
     "taylor_at_sample applies only to kind 'combined'"),
    ("bench", {"rho": 1.5}, "rho must lie in [0, 1]"),
    ("bench", {"rho": 0, "estimators": ["fourier_cv"]}, "divides by rho"),
    ("bench", {"trials": 1}, "trials must be at least 2"),
    ("train", {"variance_decay": 1.0}, "variance_decay must lie in [0, 1)"),
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


# The CLI's own checks: the type and range of each config value, with
# the exact message.
_CLI_OWNED = [
    ("gradcheck", {"count": 0}, "count: must be >= 1"),
    ("hyper", {"n": 11}, "n: must be <= 10"),
    ("bench", {"k": 1001}, "k: must be <= 1000"),
    ("bench", {"alpha": "x"}, "alpha: expected a number, got 'x'"),
    ("bench", {"beta": float("nan")}, "beta: must be finite"),
    ("gradcheck", {"density": 1.5}, "density: out of range"),
    ("hyper", {"q": 2.0}, "q: out of range"),
    ("bench", {"exact_inner": 1}, "exact_inner: expected true/false, got 1"),
    ("bench", {"function": 3}, "function: expected a string, got 3"),
    ("bench", {"p": 0.5}, "p: expected a string or list"),
    ("bench", {"p": [0.5, "x"]}, "p: expected numbers"),
    ("bench", {"p": "random"}, 'p: "random" applies to gradcheck only'),
    ("bench", {"p": "0.5,x"}, "p: bad probability 'x'"),
    ("bench", {"p": "1.5"}, "p: probabilities must lie in (0, 1)"),
    ("bench", {"estimators": []}, "estimators: expected a non-empty list"),
]


def _config_error(cmd, settings, tmp_path, capsys):
    """Run cmd on settings; check it exits 2 with one line and writes
    nothing, and return that line."""
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
    assert not out_dir.exists()
    return out


def _ids(table):
    return ["%s-%s" % (cmd, json.dumps(settings, separators=(",", ":")))
            for cmd, settings, _ in table]


@pytest.mark.parametrize("cmd,settings,message", _LIBRARY_OWNED,
                         ids=_ids(_LIBRARY_OWNED))
def test_library_owned_setting_exits_2_before_any_file(
        cmd, settings, message, tmp_path, capsys):
    assert message in _config_error(cmd, settings, tmp_path, capsys)


@pytest.mark.parametrize("cmd,settings,message", _CLI_OWNED,
                         ids=_ids(_CLI_OWNED))
def test_config_value_of_wrong_type_or_range_exits_2_before_any_file(
        cmd, settings, message, tmp_path, capsys):
    out = _config_error(cmd, settings, tmp_path, capsys)
    assert out == "config error: %s\n" % message


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
