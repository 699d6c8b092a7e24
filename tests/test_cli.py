"""Command-line front end: config resolution, artifacts, exit codes."""

import json
import os

import numpy as np
import pytest

from boolcube.cli import main


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
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps({"steps": 10}))
    code, out = run(capsys, "bench", "--config", str(cfgp),
                    "--out", str(tmp_path))
    assert code == 2
    assert "unknown config key" in out


def test_inapplicable_flag_exits_2(tmp_path, capsys):
    code, out = run(capsys, "selftest", "--p", "0.5", "--out", str(tmp_path))
    assert code == 2
    assert "does not apply" in out
    code, out = run(capsys, "train", "--function", "maj(3)",
                    "--out", str(tmp_path))
    assert code == 2


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


def test_flag_beats_config_value(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"rho": 0.25, "function": "maj(3)",
                                "trials": 1000}))
    code, _ = run(capsys, "bench", "--config", str(cfgp), "--rho", "0.5",
                  "--out", str(tmp_path))
    assert code == 0
    header = read(tmp_path / "bench_reinforce.csv").splitlines()[0]
    assert "rho=0.5" in header
