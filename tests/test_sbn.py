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
)
from boolcube.estimators import (
    KINDS,
    MeanTaylor,
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

def sampled_draw(model, qnet, y, rng, rows=1):
    """A training step's draw for `rows` copies of the observation y."""
    y = np.tile(y, (rows, 1))
    return _Draw(model, qnet, None, y, _sample_latents(model, qnet, y, rng))


def test_elbo_sample_deterministic_and_consistent():
    model, qnet, _ = toy_probe()
    y = probe_observation()
    a = sampled_draw(model, qnet, y, stream(50))
    b = sampled_draw(model, qnet, y, stream(50))
    assert np.array_equal(a.R, b.R)
    assert all(np.array_equal(u, v) for u, v in zip(a.xs, b.xs))
    # R = log-lik + log-prior - log q for the one layer of the probe model
    pc = a.pieces
    assert a.R[0] == pytest.approx(
        pc.ll[0][0] + pc.prior_ll[0] - a.logq[0], abs=1e-12)
    assert set(np.unique(a.xs[0])) <= {-1.0, 1.0}


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
        got = sampled_draw(model, qnet, y, stream(seed)).R[0]
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
    draws = sampled_draw(model, qnet, y, stream(51), rows=4000).R
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
    g = baselines.g[0].value
    # the resampler hands g sign bits; sbn turns them into -1/+1 rows
    got = _smoothed_mc(lambda bits: g(np.where(bits, 1.0, -1.0)), x, p,
                       rho=1.0, k=1, rng=stream(55))
    assert np.array_equal(got, g(x))


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
                                                   y, est)):
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


@pytest.mark.parametrize("kind", ["reinforce", "muprop", "combined",
                                  "fourier_cv_alt"])
def test_sampled_gradients_are_the_training_step_rows(kind):
    # the probe runs the step's own path: a step on the observation
    # tiled `samples` times, with the probe's streams, averages exactly
    # the probe's rows into its layer-0 q-logit parameter gradient, the
    # first one the step tracks, at any depth
    samples = 24
    y = probe_observation()
    est = EstimatorConfig(kind, rho=0.5)
    y_tiled = np.tile(y, (samples, 1))
    seen = []

    class Recording(Trainer):
        def _track(self, li, flat):
            seen.append(flat.copy())
            return super()._track(li, flat)

    for widths in ((4,), (4, 3)):
        model, qnet, baselines = build_toy(widths, 6, seed=17,
                                           baseline_hidden=8, g_hidden=8)
        rows = sample_q_logit_gradients(model, qnet, baselines, y, est,
                                        samples, seed=59)
        assert rows.shape == (samples, 4)
        seen.clear()
        trainer = Recording(model, qnet, baselines,
                            TrainConfig(estimator=est, steps=1, seed=0))
        trainer.step(y_tiled, stream(59, 1, 0), stream(59, 2, 0))
        want = np.concatenate([(rows.T @ y_tiled / samples).ravel(),
                               rows.sum(axis=0) / samples])
        assert len(seen) == len(widths)
        assert np.array_equal(seen[0], want), widths


def test_sampled_gradients_deterministic():
    model, qnet, baselines = toy_probe()
    y = probe_observation()
    est = EstimatorConfig("fourier_cv", rho=0.5)
    a = sample_q_logit_gradients(model, qnet, baselines, y, est, 64, seed=57)
    b = sample_q_logit_gradients(model, qnet, baselines, y, est, 64, seed=57)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Variance track.

def ema_loop(z, decay):
    m = np.array(z[0], dtype=np.float64)
    v = np.zeros_like(m)
    ms, vs = [m.copy()], [v.copy()]
    for t in range(1, len(z)):
        e = z[t] - m
        v = decay * v + (1.0 - decay) * e * e
        m = decay * m + (1.0 - decay) * z[t]
        ms.append(m.copy())
        vs.append(v.copy())
    return np.array(ms), np.array(vs)


def tracked(series, decay):
    """What Trainer._track reports for layer 0 at each row of series."""
    model, qnet, baselines = build_toy((4,), 36, seed=65,
                                       baseline_hidden=8, g_hidden=8)
    cfg = TrainConfig(estimator=EstimatorConfig("reinforce"), steps=1,
                      seed=65, variance_decay=decay)
    trainer = Trainer(model, qnet, baselines, cfg)
    return np.array([trainer._track(0, np.array(row, dtype=np.float64))
                     for row in series])


def test_variance_ema_track_examples():
    # step 0 reports the floor; constants stay at the floor
    assert np.array_equal(tracked(np.full((3, 2), 5.0), 0.9),
                          np.full(3, LOG_VAR_FLOOR))
    # decay 0: log of the squared innovation, averaged over the elements
    got = tracked([[1.0, 0.0], [3.0, 4.0], [2.0, 4.0]], 0.0)
    assert got[0] == LOG_VAR_FLOOR
    assert got[1] == pytest.approx(np.log(10.0), abs=1e-12)
    assert got[2] == pytest.approx(np.log(0.5), abs=1e-12)


def test_online_track_equals_batch_track(monkeypatch):
    # the step's online EMA reads, per layer, what a plain per-step loop
    # over the whole recorded series of q gradients reads: the per-element
    # EMA variance, averaged, logged and floored
    seen: dict[int, list] = {}

    class Recording(Trainer):
        def _track(self, li, flat):
            seen.setdefault(li, []).append(flat.copy())
            return super()._track(li, flat)

    monkeypatch.setattr("boolcube.sbn.Trainer", Recording)
    model, qnet, baselines = build_toy((4, 3), 36, seed=66,
                                       baseline_hidden=8, g_hidden=8)
    cfg = TrainConfig(estimator=EstimatorConfig("combined", rho=0.5),
                      steps=60, seed=67, learning_rate=0.02, minibatch=4,
                      variance_decay=0.9)
    res = train(model, qnet, baselines, bars_dataset(16, seed=7), cfg)
    assert sorted(seen) == [0, 1]
    for li, series in seen.items():
        _, v = ema_loop(np.array(series), cfg.variance_decay)
        with np.errstate(divide="ignore"):
            want = np.maximum(np.log(v.mean(axis=1)), LOG_VAR_FLOOR)
        assert np.max(np.abs(res.log_variance[:, li] - want)) < 1e-12, li


# ---------------------------------------------------------------------------
# Training loop.

def tiny_cfg(kind, steps=40, seed=60, lr=0.02, beta=1.0):
    return TrainConfig(estimator=EstimatorConfig(kind, rho=0.5, beta=beta),
                       steps=steps, seed=seed, learning_rate=lr,
                       minibatch=4)


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


def reference_train(model, qnet, baselines, data, cfg,
                    before_step=lambda: None):
    """The training loop with a fresh stream(seed, a, t) per step and
    stream(seed, 3, epoch) per epoch, calling before_step() ahead of
    each step: (ELBO, log-variance) per step."""
    N, B = data.shape[0], cfg.minibatch
    per_epoch = N // B
    trainer = Trainer(model, qnet, baselines, cfg)
    elbo, logvar = [], []
    for t in range(cfg.steps):
        before_step()
        k = t % per_epoch
        if k == 0:
            perm = stream(cfg.seed, 3, t // per_epoch).permutation(N)
        e, lv = trainer.step(data[perm[k * B:(k + 1) * B]],
                             stream(cfg.seed, 1, t), stream(cfg.seed, 2, t),
                             step_index=t)
        elbo.append(e)
        logvar.append(lv)
    return np.array(elbo), np.array(logvar)


@pytest.mark.parametrize("widths", [(12,), (8, 4)])
@pytest.mark.parametrize("kind", ["reinforce", "combined", "fourier_cv"])
def test_train_equals_fresh_streams_per_step(kind, widths):
    # 5 minibatches per epoch, so 23 steps cross four epoch boundaries
    data = bars_dataset(20, seed=7)
    cfg = tiny_cfg(kind, steps=23)
    nets, ref_nets = (build_toy(widths, 36, seed=64, baseline_hidden=8,
                                g_hidden=8) for _ in range(2))
    res = train(*nets, data, cfg)
    elbo, logvar = reference_train(*ref_nets, data, cfg)
    assert np.array_equal(res.elbo, elbo)
    assert np.array_equal(res.log_variance, logvar)
    for (name, got), want in zip(named_parameters(*nets).items(),
                                 named_parameters(*ref_nets).values()):
        assert np.array_equal(got, want), name


def test_train_calls_stream_a_fixed_number_of_times(monkeypatch):
    # per-step streams come from re-keyed generators, so the number of
    # stream calls does not grow with the step count
    calls = []

    def counting(*path):
        calls.append(path)
        return stream(*path)

    monkeypatch.setattr("boolcube.sbn.stream", counting)
    data = bars_dataset(16, seed=7)
    counts = []
    for steps in (5, 60):
        nets = build_toy((4,), 36, seed=65, baseline_hidden=8, g_hidden=8)
        calls.clear()
        train(*nets, data, tiny_cfg("combined", steps=steps))
        counts.append(len(calls))
    assert counts[0] == counts[1]


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


def test_train_refuses_a_minibatch_larger_than_the_data():
    # the one check, with the text the CLI reports before writing a file
    data = bars_dataset(10, seed=7)
    cfg = TrainConfig(estimator=EstimatorConfig("reinforce"), steps=5,
                      seed=0)
    with pytest.raises(ValueError) as err:
        train(*build_toy((4,), 36, seed=62), data, cfg)
    assert str(err.value) == "minibatch 24 exceeds the dataset's 10 rows"


def test_frozen_zero_g_reproduces_reinforce():
    # with g set to zero before every step, the smoothing variate vanishes
    # and the fourier_cv trajectory must match plain reinforce exactly
    data = bars_dataset(16, seed=7)
    traces = {}
    for kind in ("reinforce", "fourier_cv"):
        model, qnet, baselines = build_toy((5,), 36, seed=63,
                                           baseline_hidden=8, g_hidden=8)
        traces[kind], _ = reference_train(
            model, qnet, baselines, data, tiny_cfg(kind, steps=30),
            before_step=lambda: [g.zero_() for g in baselines.g])
    assert np.array_equal(traces["reinforce"], traces["fourier_cv"])


SMOOTHING_KINDS = ("fourier_cv", "fourier_cv_alt", "combined")


# The baseline nets each kind fits, written out by hand: g where the
# kind smooths g, which combined does only at beta != 0; b where the kind
# subtracts b or fits g, whose target R - b reads b.
FITTED = [
    pytest.param("reinforce", 1.0, "", id="reinforce"),
    pytest.param("reinforce_const_baseline", 1.0, "b",
                 id="reinforce_const_baseline"),
    pytest.param("straight_through", 1.0, "", id="straight_through"),
    pytest.param("muprop", 1.0, "", id="muprop"),
    pytest.param("fourier_cv", 1.0, "bg", id="fourier_cv"),
    pytest.param("fourier_cv_alt", 1.0, "bg", id="fourier_cv_alt"),
    pytest.param("combined", 1.0, "bg", id="combined"),
    pytest.param("combined", 0.0, "b", id="combined-beta0"),
]


@pytest.mark.parametrize("kind, beta, fitted", FITTED)
def test_only_the_smoothing_kinds_fit_the_g_nets(kind, beta, fitted):
    # training leaves the baseline nets a kind never reads at build_toy's
    # values; every other parameter moves
    nets = build_toy((3, 2), 36, seed=64, baseline_hidden=8, g_hidden=8)
    before = {k: v.copy() for k, v in named_parameters(*nets).items()}
    train(*nets, bars_dataset(8, seed=7), tiny_cfg(kind, steps=5, beta=beta))
    for k, v in named_parameters(*nets).items():
        kept = (k.startswith("baseline.")
                and k[len("baseline.")] not in fitted)
        assert np.array_equal(v, before[k]) == kept, k


def test_training_diverged_carries_step():
    data = bars_dataset(8, seed=7)
    model, qnet, baselines = build_toy((3,), 36, seed=64,
                                       baseline_hidden=8, g_hidden=8)
    model.prior[...] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(model, qnet, baselines, data, tiny_cfg("reinforce", steps=5))
    assert err.value.step == 0


@pytest.mark.parametrize("net, kind", [("b", "reinforce_const_baseline"),
                                       ("b", "combined"),
                                       ("g", "fourier_cv"), ("g", "combined")])
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


# (net, kind, beta) where the kind reads neither the net nor anything
# fitted from it; the g cases of the four kinds that do not smooth keep
# the kind as their id.
UNREAD = ([pytest.param("g", kind, 1.0, id=kind)
           for kind in KINDS if kind not in SMOOTHING_KINDS]
          + [pytest.param("b", kind, 1.0, id="b-" + kind)
             for kind in ("reinforce", "straight_through", "muprop")]
          + [pytest.param("g", "combined", 0.0, id="g-combined-beta0")])


@pytest.mark.parametrize("net, kind, beta", UNREAD)
def test_nan_in_an_unread_g_net_neither_stops_training_nor_is_touched(
        net, kind, beta):
    # the trainer neither evaluates nor fits a net its kind never reads,
    # so a NaN there is never read: the run matches a clean one, and the
    # poisoned net keeps its values
    data = bars_dataset(8, seed=7)
    runs = []
    for poison in (False, True):
        nets = build_toy((3,), 36, seed=64, baseline_hidden=8, g_hidden=8)
        if poison:
            mlp = nets[2].b if net == "b" else nets[2].g[0]
            mlp.layers[0].W[0, 0] = np.nan
        named = named_parameters(*nets)
        before = {k: v.copy() for k, v in named.items()}
        res = train(*nets, data, tiny_cfg(kind, steps=5, beta=beta))
        runs.append((res.to_csv(), named))
    (clean_csv, clean), (csv, named) = runs
    assert csv == clean_csv
    for k, v in named.items():
        if k.startswith("baseline." + net):
            assert np.array_equal(v, before[k], equal_nan=True), k
        else:
            assert np.array_equal(v, clean[k]), k


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
    with pytest.raises(ValueError, match=r"variance_decay must lie in \[0, 1\)"):
        TrainConfig(estimator=est, steps=10, seed=1, variance_decay=1.0)
    with pytest.raises(ValueError, match="exact_inner"):
        TrainConfig(estimator=EstimatorConfig("fourier_cv", exact_inner=True),
                    steps=10, seed=1)
    # the summary line is stable and comma-free before the CSV columns
    cfg = TrainConfig(estimator=est, steps=10, seed=1)
    assert cfg.summary().startswith("estimator=reinforce[")
    assert "steps=10" in cfg.summary()
    # one decay, the trainer's, printed last in its summary
    assert cfg.summary().endswith(" variance_decay=0.99")
    assert "decay" not in cfg.estimator.label()


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


@pytest.mark.parametrize("line, message", [
    ("model.prior\t-1\t1.0", "line 2: bad shape '-1'"),
    ("model.prior\t-1x2\t1.0 2.0 3.0 4.0", "line 2: bad shape '-1x2'"),
    ("model.prior\t2xa\t1.0 2.0", "line 2: bad shape '2xa'"),
    ("model.prior\t2\t1.0 x", "line 2: bad value in tensor model.prior"),
    ("model.prior\t2\tnan 1.0",
     "line 2: non-finite value in tensor model.prior"),
    ("model.prior\t2\t1.0 inf",
     "line 2: non-finite value in tensor model.prior"),
    ("model.prior\t2\t-inf 1.0",
     "line 2: non-finite value in tensor model.prior"),
    ("model.prior\t2x2\t1.0 2.0 3.0", "line 2: 3 values for shape '2x2'"),
    ("model.prior\t\t", "line 2: 0 values for shape ''"),
    ("\nmodel.prior\t2\t1.0 x", "line 3: bad value in tensor model.prior"),
], ids=["shape-negative", "shape-negative-2d", "shape-token", "value",
        "value-nan", "value-inf", "value-minus-inf", "count", "count-scalar",
        "after-blank-line"])
def test_checkpoint_refuses_a_malformed_line_by_number(tmp_path, line,
                                                       message):
    path = str(tmp_path / "ckpt.txt")
    with open(path, "w") as fh:
        fh.write("model.link0.b\t3\t0.5 -1.0 2.0\n%s\n" % line)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == message


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
