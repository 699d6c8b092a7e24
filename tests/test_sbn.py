"""Toy belief net: ELBO oracles, estimator plumbing, training artifacts."""

import tracemalloc

import numpy as np
import pytest

from boolcube import (
    EstimatorConfig,
    ProductDistribution,
    TrainConfig,
    Trainer,
    TrainingDiverged,
    bars_dataset,
    build_toy,
    elbo_sample,
    enumerate_elbo,
    exact_log_likelihood,
    expected_q_logit_gradient,
    load_checkpoint,
    load_dataset,
    named_parameters,
    restore_checkpoint,
    sample_q_logit_gradients,
    save_checkpoint,
    save_dataset,
    stream,
    train,
    variance_ema_track,
)
from boolcube.estimators import (
    KINDS,
    MeanTaylor,
    ema_mean_and_variance,
    expected_value_by_enumeration,
)
from boolcube.fourier import BooleanFunction
from boolcube.nets import sigmoid
from boolcube.operators import _smoothed_mc
from boolcube.sbn import (
    LOG_VAR_FLOOR,
    _clamp,
    _Draw,
    _enumerated_draw,
    _integrand,
    _sample_latents,
)

PROBE_KINDS = ("reinforce", "reinforce_const_baseline", "muprop",
               "fourier_cv", "fourier_cv_alt", "combined")


def toy_probe(seed=17):
    return build_toy((4,), 6, seed=seed, baseline_hidden=8, g_hidden=8)


def probe_observation():
    return np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])


# ---------------------------------------------------------------------------
# ELBO sample and integrand.

def test_elbo_sample_deterministic_and_consistent():
    model, qnet, _ = toy_probe()
    y = probe_observation()
    a = elbo_sample(model, qnet, y, stream(50))
    b = elbo_sample(model, qnet, y, stream(50))
    assert a["elbo"] == b["elbo"]
    assert all(np.array_equal(u, v) for u, v in zip(a["latents"], b["latents"]))
    t = a["terms"]
    assert a["elbo"] == pytest.approx(
        t["log_lik"] + t["log_prior"] - t["log_q"], abs=1e-12)
    assert set(np.unique(a["latents"][0])) <= {-1.0, 1.0}


def test_matched_one_unit_model_elbo_equals_evidence():
    # decoder ignores the latent and q matches the prior exactly, so the
    # single-sample bound is tight for every draw
    model, qnet, _ = build_toy((1,), 2, seed=3)
    model.links[0].W[...] = 0.0
    model.links[0].b[...] = np.array([0.3, -0.7])
    model.prior[...] = 0.4
    qnet.links[0].W[...] = 0.0
    qnet.links[0].b[...] = 0.4
    y = np.array([1.0, -1.0])
    want = exact_log_likelihood(model, y)
    for seed in range(5):
        got = elbo_sample(model, qnet, y, stream(seed))["elbo"]
        assert got == pytest.approx(want, abs=1e-12)


def test_jensen_gap_by_enumeration():
    model, qnet, _ = toy_probe()
    y = probe_observation()
    loglik = exact_log_likelihood(model, y)
    elbo, _ = enumerate_elbo(model, qnet, y)
    assert elbo < loglik
    # a mismatched recognition net leaves a visible gap
    assert loglik - elbo > 1e-4


def test_sampled_elbo_matches_enumerated():
    model, qnet, _ = toy_probe()
    y = probe_observation()
    want, _ = enumerate_elbo(model, qnet, y)
    rng = stream(51)
    draws = np.array([elbo_sample(model, qnet, y, rng)["elbo"]
                      for _ in range(4000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - want) < 4.0 * se


def test_enumerated_elbo_gradient_vs_finite_differences():
    model, qnet, _ = toy_probe()
    y = probe_observation()
    _, grad = enumerate_elbo(model, qnet, y)
    h = 1e-6
    for i in range(4):
        keep = qnet.links[0].b[i]
        qnet.links[0].b[i] = keep + h
        hi, _ = enumerate_elbo(model, qnet, y)
        qnet.links[0].b[i] = keep - h
        lo, _ = enumerate_elbo(model, qnet, y)
        qnet.links[0].b[i] = keep
        assert grad[i] == pytest.approx((hi - lo) / (2.0 * h), abs=1e-6)


def test_local_value_grad_matches_integrand_differences():
    # flipping one unit of a middle layer changes R by exactly the local
    # value difference; constants not involving the layer cancel
    model, qnet, baselines = build_toy((3, 2), 5, seed=9)
    y = np.array([[1.0, 1.0, -1.0, 1.0, -1.0]])
    draw = _Draw(model, qnet, baselines, y,
                 _sample_latents(model, qnet, y, stream(52)))
    xs, probs = draw.xs, draw.probs
    for li in range(2):
        for i in range(model.widths[li]):
            s_hi = xs[li].copy()
            s_lo = xs[li].copy()
            s_hi[0, i] = 1.0
            s_lo[0, i] = -1.0
            v_hi, _ = draw.local_at(li, s_hi)
            v_lo, _ = draw.local_at(li, s_lo)

            def full(sample):
                # a new layer-li sample moves the layer above's q
                # probabilities too; away from the clamp the smooth
                # logit form and the clamped density coincide
                alt = [x.copy() for x in xs]
                alt[li] = sample
                new_probs = [p.copy() for p in probs]
                if li + 1 < len(xs):
                    t_up = qnet.links[li + 1].forward(sample)
                    new_probs[li + 1] = _clamp(sigmoid(t_up))
                return _integrand(model, alt, new_probs, y)[0][0]

            assert (v_hi[0] - v_lo[0]) == pytest.approx(
                full(s_hi) - full(s_lo), abs=1e-10)


def test_local_grad_matches_finite_differences():
    model, qnet, baselines = build_toy((3, 2), 5, seed=9)
    y = np.array([[1.0, 1.0, -1.0, 1.0, -1.0]])
    draw = _Draw(model, qnet, baselines, y,
                 _sample_latents(model, qnet, y, stream(53)))
    h = 1e-6
    for li in range(2):
        s = draw.xs[li].astype(np.float64) * 0.5  # interior point
        _, grad = draw.local_at(li, s)
        for i in range(model.widths[li]):
            hi = s.copy()
            lo = s.copy()
            hi[0, i] += h
            lo[0, i] -= h
            v_hi, _ = draw.local_at(li, hi)
            v_lo, _ = draw.local_at(li, lo)
            assert grad[0, i] == pytest.approx(
                (v_hi[0] - v_lo[0]) / (2.0 * h), abs=1e-6)


@pytest.mark.parametrize("widths", [(4,), (4, 3), (4, 3, 2)])
def test_shared_pieces_match_standalone_local_oracle(widths):
    # a step builds the local oracle at the sample from the integrand's
    # pieces; it must be bit for bit the oracle's value at the sample,
    # which computes its own link products
    model, qnet, baselines = build_toy(widths, 6, seed=21,
                                       baseline_hidden=8, g_hidden=8)
    y = np.where(stream(22).random((5, 6)) < 0.5, 1.0, -1.0)
    draw = _Draw(model, qnet, baselines, y,
                 _sample_latents(model, qnet, y, stream(23)))
    for li in range(len(widths)):
        got = draw.local_at_sample(li)
        want = draw.local_at(li, draw.xs[li])
        assert np.array_equal(got[0], want[0]), (widths, li)
        assert np.array_equal(got[1], want[1]), (widths, li)


def test_smoothed_g_keeps_everything_at_rho_one():
    model, qnet, baselines = toy_probe()
    x = np.where(stream(54).random((6, 4)) < 0.5, 1.0, -1.0)
    p = np.full((6, 4), 0.3)
    got = _smoothed_mc(baselines.g[0].value, x, p, rho=1.0, k=1, rng=stream(55))
    assert np.array_equal(got, baselines.g[0].value(x))


# ---------------------------------------------------------------------------
# Estimator plug-in equivalence on the probe model.

def test_expected_gradient_matches_enumerated_elbo_gradient():
    model, qnet, baselines = toy_probe()
    y = probe_observation()
    _, want = enumerate_elbo(model, qnet, y)
    gaps = {}
    for kind in PROBE_KINDS + ("straight_through",):
        est = EstimatorConfig(kind, rho=0.5)
        got = expected_q_logit_gradient(model, qnet, baselines, y, est)
        gaps[kind] = float(np.max(np.abs(got - want)))
    for kind in PROBE_KINDS:
        assert gaps[kind] < 1e-8, (kind, gaps[kind])
    # the relaxed derivative makes straight_through genuinely biased here
    assert gaps["straight_through"] > 1e-4


def test_oracles_refuse_multi_layer_models():
    model, qnet, baselines = build_toy((4, 3), 6, seed=17,
                                       baseline_hidden=8, g_hidden=8)
    y = probe_observation()
    est = EstimatorConfig("reinforce")
    for call in (lambda: enumerate_elbo(model, qnet, y),
                 lambda: exact_log_likelihood(model, y),
                 lambda: expected_q_logit_gradient(model, qnet, baselines,
                                                   y, est),
                 lambda: sample_q_logit_gradients(model, qnet, baselines, y,
                                                  est, 8, seed=1)):
        with pytest.raises(ValueError, match="single-layer"):
            call()


def test_oracles_refuse_width_past_max_n_before_allocating():
    # 2^17 configurations of 17 units would take 17.8 MB as floats
    model, qnet, baselines = build_toy((17,), 6, seed=17,
                                       baseline_hidden=8, g_hidden=8)
    y = probe_observation()
    est = EstimatorConfig("reinforce")
    for call in (lambda: enumerate_elbo(model, qnet, y),
                 lambda: exact_log_likelihood(model, y),
                 lambda: expected_q_logit_gradient(model, qnet, baselines,
                                                   y, est)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large to enumerate"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def test_expected_gradient_at_the_trainers_default_width():
    # the trainer's default width 12 lies within the oracles' range
    model, qnet, baselines = build_toy((12,), 6, seed=17,
                                       baseline_hidden=8, g_hidden=8)
    y = probe_observation()
    _, want = enumerate_elbo(model, qnet, y)
    for kind in PROBE_KINDS:
        got = expected_q_logit_gradient(model, qnet, baselines, y,
                                        EstimatorConfig(kind, rho=0.5))
        assert np.max(np.abs(got - want)) < 1e-8, kind


def test_sampled_gradients_concentrate_on_expectation():
    model, qnet, baselines = toy_probe()
    y = probe_observation()
    for kind in ("reinforce", "muprop", "combined"):
        est = EstimatorConfig(kind, rho=0.5)
        want = expected_q_logit_gradient(model, qnet, baselines, y, est)
        draws = sample_q_logit_gradients(model, qnet, baselines, y, est,
                                         samples=20000, seed=56)
        assert draws.shape == (20000, 4)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        dev = np.abs(draws.mean(axis=0) - want)
        assert np.all(dev < 4.0 * se + 1e-12), kind


@pytest.mark.parametrize("kind", KINDS + ("taylor_at_sample",))
def test_expected_gradient_matches_library_oracle(kind):
    # the kernel over the enumerated configurations, tabulating only what
    # the kind uses, equals the library oracle fed every table
    est = (EstimatorConfig("combined", taylor_at_sample=True)
           if kind == "taylor_at_sample" else EstimatorConfig(kind))
    model, qnet, baselines = toy_probe()
    y = probe_observation()
    draw = _enumerated_draw(model, qnet, baselines, y)
    p, raw = draw.probs[0][0], draw.raw[0][0]
    v, grads = draw.local_at_sample(0)
    if est.kind in ("muprop", "combined"):
        # the step expands v(x) - v(mu) with value 0 and the gradient at
        # mu shared by every row
        v_mu, g_mu = draw.local_at(0, (2.0 * p - 1.0)[None, :])
        f = v - v_mu
        taylor = MeanTaylor(value=0.0, gradient=np.broadcast_to(g_mu, (16, 4)))
    else:
        f, taylor = draw.R, None
    want = expected_value_by_enumeration(
        est, BooleanFunction(4, table=f), ProductDistribution(p),
        g=BooleanFunction(4, table=baselines.g[0].value(draw.xs[0])),
        baseline=float(baselines.b.value(y[None, :])[0]),
        taylor=taylor, derivs=grads.T) * raw * (1.0 - raw)
    got = expected_q_logit_gradient(model, qnet, baselines, y, est)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["reinforce", "muprop", "combined"])
def test_sampled_gradients_are_the_training_step_rows(kind):
    # the probe runs the step's own path: a step on the observation
    # tiled `samples` times, with the probe's streams, averages exactly
    # the probe's rows into its q-logit parameter gradient
    samples = 24
    y = probe_observation()
    model, qnet, baselines = toy_probe()
    est = EstimatorConfig(kind, rho=0.5)
    rows = sample_q_logit_gradients(model, qnet, baselines, y, est, samples,
                                    seed=59)
    y_tiled = np.tile(y, (samples, 1))
    seen = []

    class Recording(Trainer):
        def _track(self, li, flat):
            seen.append(flat.copy())
            return super()._track(li, flat)

    trainer = Recording(model, qnet, baselines,
                        TrainConfig(estimator=est, steps=1, seed=0))
    trainer.step(y_tiled, stream(59, 1, 0), stream(59, 2, 0))
    want = np.concatenate([(rows.T @ y_tiled / samples).ravel(),
                           rows.sum(axis=0) / samples])
    assert np.array_equal(seen[0], want)


def test_sampled_gradients_deterministic():
    model, qnet, baselines = toy_probe()
    y = probe_observation()
    est = EstimatorConfig("fourier_cv", rho=0.5)
    a = sample_q_logit_gradients(model, qnet, baselines, y, est, 64, seed=57)
    b = sample_q_logit_gradients(model, qnet, baselines, y, est, 64, seed=57)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Variance track.

def test_variance_ema_track_examples():
    # step 0 reports the floor; constants stay at the floor
    z = np.array([5.0, 5.0, 5.0])
    assert np.array_equal(variance_ema_track(z, 0.9),
                          np.full(3, LOG_VAR_FLOOR))
    # decay 0: log of squared innovations
    z = np.array([1.0, 3.0, 2.0])
    got = variance_ema_track(z, 0.0)
    assert got[0] == LOG_VAR_FLOOR
    assert got[1] == pytest.approx(np.log(4.0), abs=1e-12)
    assert got[2] == pytest.approx(np.log(1.0), abs=1e-12)
    # multi-column input averages the per-column EMA before the log
    z2 = stream(58).normal(size=(40, 3))
    _, v = ema_mean_and_variance(z2, 0.9)
    want = np.log(v[1:].mean(axis=1))
    got = variance_ema_track(z2, 0.9)
    assert np.max(np.abs(got[1:] - want)) < 1e-12


def test_online_track_equals_batch_track(monkeypatch):
    # the step's online EMA reads, per layer, what variance_ema_track
    # reads off the whole recorded series of q gradients
    seen: dict[int, list] = {}

    class Recording(Trainer):
        def _track(self, li, flat):
            seen.setdefault(li, []).append(flat.copy())
            return super()._track(li, flat)

    monkeypatch.setattr("boolcube.sbn.Trainer", Recording)
    model, qnet, baselines = build_toy((4, 3), 36, seed=66,
                                       baseline_hidden=8, g_hidden=8)
    cfg = TrainConfig(estimator=EstimatorConfig("combined", rho=0.5,
                                                baseline_decay=0.9),
                      steps=60, seed=67, learning_rate=0.02, minibatch=4)
    res = train(model, qnet, baselines, bars_dataset(16, seed=7), cfg)
    assert sorted(seen) == [0, 1]
    for li, series in seen.items():
        want = variance_ema_track(np.array(series),
                                  cfg.estimator.baseline_decay)
        assert np.max(np.abs(res.log_variance[:, li] - want)) < 1e-12, li


# ---------------------------------------------------------------------------
# Training loop.

def tiny_cfg(kind, steps=40, seed=60, freeze_g=False, lr=0.02):
    return TrainConfig(estimator=EstimatorConfig(kind, rho=0.5),
                       steps=steps, seed=seed, learning_rate=lr,
                       minibatch=4, freeze_g=freeze_g)


def test_train_deterministic():
    data = bars_dataset(16, seed=7)
    runs = []
    for _ in range(2):
        model, qnet, baselines = build_toy((5,), 36, seed=61,
                                           baseline_hidden=8, g_hidden=8)
        res = train(model, qnet, baselines, data,
                    tiny_cfg("fourier_cv", steps=30))
        runs.append(res.to_csv())
    assert runs[0] == runs[1]


def test_train_result_shapes_and_csv():
    data = bars_dataset(12, seed=7)
    model, qnet, baselines = build_toy((4, 3), 36, seed=62,
                                       baseline_hidden=8, g_hidden=8)
    res = train(model, qnet, baselines, data, tiny_cfg("muprop", steps=25))
    assert res.elbo.shape == (25,)
    assert res.log_variance.shape == (25, 2)
    lines = res.to_csv(extra_header="cmd=train").splitlines()
    assert lines[0] == "# cmd=train"
    assert lines[1].startswith("# estimator=muprop[")
    assert lines[2] == "step,elbo,log_var_layer1,log_var_layer2"
    assert len(lines) == 28


def test_frozen_zero_g_reproduces_reinforce():
    # with g identically zero and frozen, the smoothing variate vanishes
    # and the fourier_cv trajectory must match plain reinforce exactly
    data = bars_dataset(16, seed=7)
    traces = {}
    for kind in ("reinforce", "fourier_cv"):
        model, qnet, baselines = build_toy((5,), 36, seed=63,
                                           baseline_hidden=8, g_hidden=8)
        for g in baselines.g:
            g.zero_()
        res = train(model, qnet, baselines, data,
                    tiny_cfg(kind, steps=30, freeze_g=True))
        traces[kind] = res.elbo
    assert np.array_equal(traces["reinforce"], traces["fourier_cv"])


def test_training_diverged_carries_step():
    data = bars_dataset(8, seed=7)
    model, qnet, baselines = build_toy((3,), 36, seed=64,
                                       baseline_hidden=8, g_hidden=8)
    model.prior[...] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(model, qnet, baselines, data, tiny_cfg("reinforce", steps=5))
    assert err.value.step == 0


@pytest.mark.parametrize("kind", ["reinforce", "combined"])
@pytest.mark.parametrize("net", ["b", "g"])
def test_non_finite_gradient_stops_before_any_update(net, kind):
    data = bars_dataset(8, seed=7)
    model, qnet, baselines = build_toy((3,), 36, seed=64,
                                       baseline_hidden=8, g_hidden=8)
    mlp = baselines.b if net == "b" else baselines.g[0]
    mlp.layers[0].W[0, 0] = np.nan
    named = named_parameters(model, qnet, baselines)
    before = {k: v.copy() for k, v in named.items()}
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDiverged,
                           match="non-finite gradient at step 0") as err:
            train(model, qnet, baselines, data, tiny_cfg(kind, steps=5))
    assert err.value.step == 0
    for k, v in named.items():
        assert np.array_equal(v, before[k], equal_nan=True), k


def test_train_rejects_minibatch_larger_than_data():
    data = bars_dataset(3, seed=7)
    model, qnet, baselines = build_toy((3,), 36, seed=65,
                                       baseline_hidden=8, g_hidden=8)
    with pytest.raises(ValueError, match="minibatch"):
        train(model, qnet, baselines, data, tiny_cfg("reinforce"))


def test_train_config_validation():
    est = EstimatorConfig("reinforce")
    with pytest.raises(ValueError):
        TrainConfig(estimator=est, steps=0, seed=1)
    with pytest.raises(ValueError):
        TrainConfig(estimator=est, steps=10, seed=1, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(estimator=est, steps=10, seed=1, momentum=1.0)
    with pytest.raises(ValueError, match="exact_inner"):
        TrainConfig(estimator=EstimatorConfig("fourier_cv", exact_inner=True),
                    steps=10, seed=1)
    # the summary line is stable and comma-free before the CSV columns
    cfg = TrainConfig(estimator=est, steps=10, seed=1)
    assert cfg.summary().startswith("estimator=reinforce[")
    assert "steps=10" in cfg.summary()
    # one decay, the estimator's, printed in its label
    assert "variance_decay" not in cfg.summary()
    assert "decay=0.99" in cfg.estimator.label()


# ---------------------------------------------------------------------------
# Data and checkpoints.

def test_bars_dataset_properties():
    data = bars_dataset(144, seed=7)
    assert data.shape == (144, 36)
    assert set(np.unique(data)) <= {-1.0, 1.0}
    assert np.array_equal(data, bars_dataset(144, seed=7))
    assert not np.array_equal(data, bars_dataset(144, seed=8))
    # a bar pattern is closed under row/column structure: every all-on
    # row or column is plausible, and the blank image appears with
    # probability (1 - p_bar)^12, so some rows should be blank
    blanks = np.sum(np.all(data < 0, axis=1))
    assert blanks > 0


def test_dataset_round_trip(tmp_path):
    path = str(tmp_path / "data.txt")
    data = bars_dataset(20, seed=9)
    save_dataset(path, data)
    again = load_dataset(path)
    assert np.array_equal(data, again)
    first = open(path).readline().strip()
    assert set(first) <= {"0", "1"} and len(first) == 36


def test_dataset_load_validation(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("0101\n011\n")
    with pytest.raises(ValueError, match="width"):
        load_dataset(path)
    with open(path, "w") as fh:
        fh.write("01x1\n")
    with pytest.raises(ValueError, match="0/1"):
        load_dataset(path)
    with open(path, "w") as fh:
        fh.write("\n")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(path)


def test_named_parameters_are_live_views():
    model, qnet, baselines = toy_probe()
    named = named_parameters(model, qnet, baselines)
    named["model.prior"][0] = 123.0
    assert model.prior[0] == 123.0
    assert "q.link0.W" in named and "baseline.g0.L0.W" in named


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "ckpt.txt")
    model, qnet, baselines = toy_probe()
    named = named_parameters(model, qnet, baselines)
    want = {k: v.copy() for k, v in named.items()}
    save_checkpoint(path, named)
    # scramble, then restore
    for v in named.values():
        v[...] = 0.0
    restore_checkpoint(model, qnet, baselines, load_checkpoint(path))
    for k, v in named_parameters(model, qnet, baselines).items():
        assert np.array_equal(v, want[k]), k


def test_checkpoint_validation(tmp_path):
    path = str(tmp_path / "ckpt.txt")
    model, qnet, baselines = toy_probe()
    named = named_parameters(model, qnet, baselines)
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    del loaded["model.prior"]
    with pytest.raises(ValueError, match="missing"):
        restore_checkpoint(model, qnet, baselines, loaded)
    loaded = load_checkpoint(path)
    loaded["model.prior"] = np.zeros(9)
    with pytest.raises(ValueError, match="shape"):
        restore_checkpoint(model, qnet, baselines, loaded)
    # a deeper net's checkpoint does not fit a one-layer net
    deeper = build_toy((4, 4), 6, seed=17, baseline_hidden=8, g_hidden=8)
    save_checkpoint(path, named_parameters(*deeper))
    with pytest.raises(ValueError, match="unexpected tensors: .*link1"):
        restore_checkpoint(model, qnet, baselines, load_checkpoint(path))
    with open(path, "w") as fh:
        fh.write("name_only\n")
    with pytest.raises(ValueError, match="TAB"):
        load_checkpoint(path)


def test_checkpoint_refuses_a_repeated_tensor(tmp_path):
    # a second line with a saved name must not silently replace the first
    path = str(tmp_path / "ckpt.txt")
    model, qnet, baselines = toy_probe()
    named = named_parameters(model, qnet, baselines)
    save_checkpoint(path, named)  # one line per tensor
    shape = "x".join(str(d) for d in model.prior.shape)
    with open(path, "a") as fh:
        fh.write("model.prior\t%s\t%s\n"
                 % (shape, " ".join(["9.0"] * model.prior.size)))
    with pytest.raises(ValueError, match="line %d: duplicate tensor "
                       "model.prior" % (len(named) + 1)):
        load_checkpoint(path)


def test_build_toy_deterministic_and_decoupled():
    a = build_toy((4,), 6, seed=17)
    b = build_toy((4,), 6, seed=17)
    for pa, pb in zip(named_parameters(*a).values(),
                      named_parameters(*b).values()):
        assert np.array_equal(pa, pb)
    c = build_toy((4,), 6, seed=18)
    assert not np.array_equal(a[0].links[0].W, c[0].links[0].W)
    # model and inference draws come from different substreams
    assert a[0].links[0].W.shape != a[1].links[0].W.shape or \
        not np.array_equal(a[0].links[0].W, a[1].links[0].W)
