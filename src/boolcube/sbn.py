"""Toy sigmoid belief network trained with score-function estimators.

Architecture, bottom-up: observation y, stochastic layers x_1 .. x_L.
Generative side: p(x_L) from free prior logits, p(x_l | x_{l+1}) and
p(y | x_1) from single affine links.  Inference side mirrors it:
q(x_1 | y), q(x_{l+1} | x_l).  All units are Bernoulli over {-1,+1}.

The inference net is trained layer by layer by the estimator kernel of
.estimators, which holds every kind's algebra; this module computes the
parts a kind asks for.  The objective f for layer l is the full ELBO
integrand R = log p(y|x) + log p(x) - log q(x|y) viewed as a function
of layer l's sample with everything else held fixed: outcome terms are
linear in that sample, terms where it feeds another conditional's
logits are network-nonlinear.  First-order kinds expand the terms that
involve layer l at the conditional mean; smoothing kinds resample the
layer's g net.  Contributions (units d/dp) convert to logit gradients
via sigma'(t), then to parameter gradients.  Decoder and prior are
updated pathwise; baseline nets by regression.

Inference probabilities are clamped to [1e-6, 1-1e-6].  The local
value/gradient oracles use the smooth logit form for terms where a
sample feeds another layer, so at a binding clamp they deviate from
the clamped density; away from saturation the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import MAX_N, PROB_FLOOR, ProductDistribution, enumerate_points
from .estimators import (
    EstimatorConfig,
    MeanTaylor,
    _contributions,
    ema_mean_and_variance,
    expected_value_by_enumeration,
)
from .fourier import BooleanFunction
from .nets import (
    MLP,
    Affine,
    Momentum,
    bern_ll,
    bern_ll_grad_s,
    bern_ll_grad_t,
    sigmoid,
)
from .operators import _smoothed_mc
from .rng import stream

__all__ = [
    "LOG_VAR_FLOOR",
    "SbnModel",
    "InferenceNet",
    "SbnBaselines",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "build_toy",
    "elbo_sample",
    "Trainer",
    "train",
    "variance_ema_track",
    "exact_log_likelihood",
    "enumerate_elbo",
    "expected_q_logit_gradient",
    "sample_q_logit_gradients",
    "bars_dataset",
    "save_dataset",
    "load_dataset",
    "named_parameters",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
]

LOG_VAR_FLOOR = -50.0


class TrainingDiverged(RuntimeError):
    """Raised when a step produces non-finite values; carries the step."""

    def __init__(self, step: int, what: str):
        super().__init__("non-finite %s at step %d" % (what, step))
        self.step = step


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


class SbnModel:
    """Generative side: prior logits plus affine links downward.

    links[0] maps x_1 to observation logits; links[j] (j >= 1) maps
    x_{j+1} to the logits of x_j.
    """

    def __init__(self, widths: tuple[int, ...], obs_width: int,
                 rng: np.random.Generator):
        widths = tuple(int(w) for w in widths)
        if not 1 <= len(widths) <= 3:
            raise ValueError("layer count must be 1, 2, or 3")
        if any(w < 1 or w > 32 for w in widths) or not 1 <= obs_width <= 4096:
            raise ValueError("widths out of the supported toy range")
        self.widths = widths
        self.obs_width = int(obs_width)
        self.prior = np.zeros(widths[-1])
        self.links = [Affine(rng, widths[0], obs_width)]
        for j in range(1, len(widths)):
            self.links.append(Affine(rng, widths[j], widths[j - 1]))

    def params(self) -> list[np.ndarray]:
        out = [self.prior]
        for link in self.links:
            out.extend(link.params())
        return out


class InferenceNet:
    """Recognition side: links[0] maps y to x_1 logits, links[l] maps
    x_l to x_{l+1} logits."""

    def __init__(self, widths: tuple[int, ...], obs_width: int,
                 rng: np.random.Generator):
        self.widths = tuple(int(w) for w in widths)
        self.obs_width = int(obs_width)
        self.links = [Affine(rng, obs_width, widths[0])]
        for l in range(1, len(widths)):
            self.links.append(Affine(rng, widths[l - 1], widths[l]))

    def logits(self, li: int, inp: np.ndarray) -> np.ndarray:
        return self.links[li].forward(inp)

    def params(self) -> list[np.ndarray]:
        out = []
        for link in self.links:
            out.extend(link.params())
        return out


@dataclass
class SbnBaselines:
    """Observation-conditioned scalar baseline b(y) and one
    sample-conditioned surrogate g per stochastic layer."""

    b: MLP
    g: list[MLP]


@dataclass(frozen=True)
class TrainConfig:
    estimator: EstimatorConfig
    steps: int
    seed: int
    learning_rate: float = 0.05
    momentum: float = 0.9
    minibatch: int = 24
    baseline_lr_scale: float = 0.1
    variance_decay: float = 0.99
    freeze_g: bool = False

    def __post_init__(self):
        if self.steps < 1 or self.minibatch < 1:
            raise ValueError("steps and minibatch must be positive")
        if self.learning_rate <= 0 or self.baseline_lr_scale <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.variance_decay < 1.0:
            raise ValueError("variance_decay must lie in [0, 1)")
        if self.estimator.exact_inner:
            raise ValueError("exact_inner estimators are for enumeration "
                             "oracles, not training")

    def summary(self) -> str:
        return ("estimator=%s steps=%d seed=%d lr=%s momentum=%s minibatch=%d "
                "baseline_lr_scale=%s variance_decay=%s freeze_g=%s"
                % (self.estimator.label(), self.steps, self.seed,
                   repr(float(self.learning_rate)), repr(float(self.momentum)),
                   self.minibatch, repr(float(self.baseline_lr_scale)),
                   repr(float(self.variance_decay)), self.freeze_g))


def build_toy(widths: tuple[int, ...], obs_width: int, seed: int,
              baseline_hidden: int = 32, g_hidden: int = 32,
              g_act: str = "tanh"):
    """Model, inference net, and baseline nets from one seed's substreams."""
    model = SbnModel(widths, obs_width, stream(seed, 0, 0))
    qnet = InferenceNet(widths, obs_width, stream(seed, 0, 1))
    b = MLP(stream(seed, 0, 2), (obs_width, baseline_hidden, 1), "tanh")
    g = [MLP(stream(seed, 0, 3 + li), (w, g_hidden, g_hidden, 1), g_act)
         for li, w in enumerate(widths)]
    return model, qnet, SbnBaselines(b=b, g=g)


# ---------------------------------------------------------------------------
# Forward pass pieces.

def _sample_latents(model: SbnModel, qnet: InferenceNet, y: np.ndarray,
                    rng: np.random.Generator):
    """Layerwise samples, clamped probabilities, and raw logits."""
    xs, probs, logits = [], [], []
    inp = y
    for li in range(len(model.widths)):
        t = qnet.logits(li, inp)
        p = _clamp(sigmoid(t))
        u = rng.random(p.shape)
        x = np.where(u < p, 1.0, -1.0)
        xs.append(x)
        probs.append(p)
        logits.append(t)
        inp = x
    return xs, probs, logits


def _integrand(model: SbnModel, xs: list[np.ndarray], probs: list[np.ndarray],
               y: np.ndarray):
    """R = log p(y|x) + log p(x) - log q(x|y) per batch row, plus the
    decoder logits for reuse in pathwise gradients."""
    t_list = [model.links[0].forward(xs[0])]
    loglik = bern_ll(y, t_list[0]).sum(axis=1)
    logp = bern_ll(xs[-1], model.prior).sum(axis=1)
    for j in range(1, len(xs)):
        tj = model.links[j].forward(xs[j])
        t_list.append(tj)
        logp += bern_ll(xs[j - 1], tj).sum(axis=1)
    logq = np.zeros(y.shape[0])
    for x, p in zip(xs, probs):
        logq += np.where(x > 0, np.log(p), np.log1p(-p)).sum(axis=1)
    return loglik + logp - logq, loglik, logp, logq, t_list


def _local_value_grad(model: SbnModel, qnet: InferenceNet,
                      xs: list[np.ndarray], probs: list[np.ndarray],
                      y: np.ndarray, li: int, s: np.ndarray):
    """Value and gradient in s of the ELBO integrand's layer-li-dependent
    part, other layers held at their samples.  Constants (terms not
    involving layer li) are omitted; callers only use differences and
    gradients, so they never need them.
    """
    L = len(model.widths)
    p = probs[li]
    # outcome terms: + log p(s | above) - log q(s | below), both linear in s
    tp = model.prior if li == L - 1 else model.links[li + 1].forward(xs[li + 1])
    lp, l1p = np.log(p), np.log1p(-p)
    val = bern_ll(s, tp).sum(axis=1)
    val -= (0.5 * (1.0 + s) * lp + 0.5 * (1.0 - s) * l1p).sum(axis=1)
    grad = bern_ll_grad_s(tp) - 0.5 * (lp - l1p)
    grad = np.broadcast_to(grad, s.shape).copy()
    # input terms: s feeds the logits of the layer below (or the observation)
    below = y if li == 0 else xs[li - 1]
    link = model.links[li]
    t_b = s @ link.W.T + link.b
    val += bern_ll(below, t_b).sum(axis=1)
    grad += bern_ll_grad_t(below, t_b) @ link.W
    # and, when not the top layer, the logits of the layer above's q
    if li < L - 1:
        vl = qnet.links[li + 1]
        t_u = s @ vl.W.T + vl.b
        val -= bern_ll(xs[li + 1], t_u).sum(axis=1)
        grad -= bern_ll_grad_t(xs[li + 1], t_u) @ vl.W
    return val, grad


def _layer_contributions(est: EstimatorConfig, model: SbnModel,
                         qnet: InferenceNet, baselines: SbnBaselines,
                         xs: list[np.ndarray], probs: list[np.ndarray],
                         y: np.ndarray, li: int, R: np.ndarray,
                         b_val: np.ndarray,
                         rng_inner: np.random.Generator) -> np.ndarray:
    """Per-unit estimator contributions (units d/dp) for layer li."""
    x, p = xs[li], probs[li]
    mu = 2.0 * p - 1.0
    gnet = baselines.g[li]
    at_x = []

    def local_at_x():
        if not at_x:
            at_x.append(_local_value_grad(model, qnet, xs, probs, y, li, x))
        return at_x[0]

    def first_order():
        # The local integrand omits terms free of layer li; measured from
        # its value at mu, its Taylor value there is 0.
        v_mu, g_mu = _local_value_grad(model, qnet, xs, probs, y, li, mu)
        return local_at_x()[0] - v_mu, 0.0, g_mu

    return _contributions(
        est, x, p, mu, f=lambda: R, g=lambda: gnet.value(x),
        smoothed=lambda rho: _smoothed_mc(gnet.value, x, p, rho,
                                          est.t_rho_samples, rng_inner),
        taylor=first_order, deriv=lambda: local_at_x()[1], baseline=b_val)


def elbo_sample(model: SbnModel, qnet: InferenceNet, y: np.ndarray,
                rng: np.random.Generator) -> dict:
    """Single-sample lower bound for one observation y in {-1,+1}^obs."""
    y = np.asarray(y, dtype=np.float64)[None, :]
    xs, probs, _ = _sample_latents(model, qnet, y, rng)
    R, loglik, logp, logq, _ = _integrand(model, xs, probs, y)
    return {
        "elbo": float(R[0]),
        "latents": [x[0].copy() for x in xs],
        "terms": {"log_lik": float(loglik[0]), "log_prior": float(logp[0]),
                  "log_q": float(logq[0])},
    }


# ---------------------------------------------------------------------------
# Training.

class Trainer:
    """Holds momentum and variance-tracking state across steps.

    Per step: sample latents, compute R, apply the configured estimator
    layerwise to get inference-net gradients, pathwise gradients for
    the decoder and prior, regression gradients for b (toward R) and g
    (toward R - b), all from pre-update parameters; then update
    everything with momentum SGD (baselines at the scaled rate).
    """

    def __init__(self, model: SbnModel, qnet: InferenceNet,
                 baselines: SbnBaselines, cfg: TrainConfig):
        self.model, self.qnet, self.baselines, self.cfg = (
            model, qnet, baselines, cfg)
        m = cfg.momentum
        self.mom_model = Momentum(model.params(), m)
        self.mom_q = Momentum(qnet.params(), m)
        self.mom_b = Momentum(baselines.b.params(), m)
        self.mom_g = [Momentum(g.params(), m) for g in baselines.g]
        self._ema: dict[int, list[np.ndarray]] = {}

    def _track(self, li: int, flat: np.ndarray) -> float:
        st = self._ema.get(li)
        if st is None:
            self._ema[li] = [flat.copy(), np.zeros_like(flat)]
            return LOG_VAR_FLOOR
        m, v = st
        d = self.cfg.variance_decay
        innov = flat - m
        v *= d
        v += (1.0 - d) * innov * innov
        m *= d
        m += (1.0 - d) * flat
        avg = float(v.mean())
        if avg <= 0.0:
            return LOG_VAR_FLOOR
        return max(float(np.log(avg)), LOG_VAR_FLOOR)

    def step(self, y: np.ndarray, rng_latent: np.random.Generator,
             rng_inner: np.random.Generator, step_index: int = 0):
        """One update on minibatch y; returns (mean ELBO, per-layer
        log-variance of the q parameter gradient EMA)."""
        cfg, est = self.cfg, self.cfg.estimator
        model, qnet, baselines = self.model, self.qnet, self.baselines
        B = y.shape[0]
        L = len(model.widths)
        xs, probs, logits = _sample_latents(model, qnet, y, rng_latent)
        R, _, _, _, t_list = _integrand(model, xs, probs, y)
        if not np.all(np.isfinite(R)):
            raise TrainingDiverged(step_index, "ELBO")
        b_val, b_cache = baselines.b.forward(y)

        # inference-net gradients via the configured estimator
        q_grads: list[np.ndarray] = []
        logvars: list[float] = []
        for li in range(L):
            contrib = _layer_contributions(est, model, qnet, baselines, xs,
                                           probs, y, li, R, b_val, rng_inner)
            s = sigmoid(logits[li])
            grad_t = contrib * s * (1.0 - s)
            inp = y if li == 0 else xs[li - 1]
            gW = grad_t.T @ inp / B
            gb = grad_t.mean(axis=0)
            q_grads.extend([gW, gb])
            logvars.append(self._track(li, np.concatenate([gW.ravel(), gb])))

        # decoder and prior, pathwise
        p_grads: list[np.ndarray] = [bern_ll_grad_t(xs[-1], model.prior).mean(axis=0)]
        d0 = bern_ll_grad_t(y, t_list[0])
        p_grads.extend([d0.T @ xs[0] / B, d0.mean(axis=0)])
        for j in range(1, L):
            dj = bern_ll_grad_t(xs[j - 1], t_list[j])
            p_grads.extend([dj.T @ xs[j] / B, dj.mean(axis=0)])

        # baseline regressions (targets use pre-update values)
        b_grads, _ = baselines.b.backward(b_cache, (b_val - R) / B)
        g_grads = []
        if not cfg.freeze_g:
            target = R - b_val
            for li in range(L):
                g_val, g_cache = baselines.g[li].forward(xs[li])
                gg, _ = baselines.g[li].backward(g_cache, (g_val - target) / B)
                g_grads.append(gg)

        for grads in (q_grads, p_grads, b_grads, *g_grads):
            for g in grads:
                if not np.all(np.isfinite(g)):
                    raise TrainingDiverged(step_index, "gradient")

        lr = cfg.learning_rate
        self.mom_q.ascend(q_grads, lr)
        self.mom_model.ascend(p_grads, lr)
        self.mom_b.ascend([-g for g in b_grads], lr * cfg.baseline_lr_scale)
        if not cfg.freeze_g:
            for li in range(L):
                self.mom_g[li].ascend([-g for g in g_grads[li]],
                                      lr * cfg.baseline_lr_scale)
        return float(R.mean()), logvars


@dataclass
class TrainResult:
    elbo: np.ndarray
    log_variance: np.ndarray
    config: TrainConfig

    def to_csv(self, extra_header: str | None = None) -> str:
        """CSV `step,elbo,log_var_layer1[,...]` with a config header line."""
        L = self.log_variance.shape[1]
        lines = []
        if extra_header:
            lines.append("# " + extra_header)
        lines.append("# " + self.config.summary())
        lines.append("step,elbo," + ",".join(
            "log_var_layer%d" % (l + 1) for l in range(L)))
        for t in range(self.elbo.shape[0]):
            row = [str(t), repr(float(self.elbo[t]))]
            row.extend(repr(float(v)) for v in self.log_variance[t])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def train(model: SbnModel, qnet: InferenceNet, baselines: SbnBaselines,
          data: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Run cfg.steps minibatch updates over `data` ((N, obs) of -1/+1).

    Stream discipline: epoch shuffles, per-step latent draws, and
    per-step estimator inner noise come from disjoint substreams of
    cfg.seed, so estimators that consume no inner noise see identical
    latents to those that do.
    """
    data = np.asarray(data, dtype=np.float64)
    N, B = data.shape[0], cfg.minibatch
    if B > N:
        raise ValueError("minibatch exceeds dataset size")
    per_epoch = N // B
    L = len(model.widths)
    trainer = Trainer(model, qnet, baselines, cfg)
    elbo = np.empty(cfg.steps)
    logvar = np.empty((cfg.steps, L))
    perm = None
    for t in range(cfg.steps):
        k = t % per_epoch
        if k == 0:
            perm = stream(cfg.seed, 3, t // per_epoch).permutation(N)
        batch = data[perm[k * B:(k + 1) * B]]
        e, lv = trainer.step(batch, stream(cfg.seed, 1, t),
                             stream(cfg.seed, 2, t), step_index=t)
        elbo[t] = e
        logvar[t] = lv
    return TrainResult(elbo=elbo, log_variance=logvar, config=cfg)


def variance_ema_track(history: np.ndarray, decay: float) -> np.ndarray:
    """Per-step log of the EMA variance of a gradient sample series.

    history is (T,) or (T, d); elementwise EMA variance is averaged
    over d, logged, and floored at LOG_VAR_FLOOR.  Step 0 reports the
    floor (no innovation yet); decay 0 gives per-step log squared
    innovations.
    """
    z = np.asarray(history, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    _, v = ema_mean_and_variance(z, decay)
    avg = v.mean(axis=1)
    out = np.full(avg.shape, LOG_VAR_FLOOR)
    pos = avg > 0.0
    out[pos] = np.maximum(np.log(avg[pos]), LOG_VAR_FLOOR)
    return out


# ---------------------------------------------------------------------------
# Exact oracles for single-layer toy models.

def _single_layer_configs(model: SbnModel):
    if len(model.widths) != 1:
        raise ValueError("enumeration oracles support single-layer models")
    w = model.widths[0]
    if w > MAX_N:
        raise ValueError("latent width too large to enumerate")
    return enumerate_points(w).astype(np.float64)


def exact_log_likelihood(model: SbnModel, y: np.ndarray) -> float:
    """log p(y) by exhaustive summation over latent configurations."""
    configs = _single_layer_configs(model)
    y = np.asarray(y, dtype=np.float64)
    logprior = bern_ll(configs, model.prior).sum(axis=1)
    loglik = bern_ll(y, model.links[0].forward(configs)).sum(axis=1)
    m = logprior + loglik
    top = m.max()
    return float(top + np.log(np.exp(m - top).sum()))


def _posterior_context(model: SbnModel, qnet: InferenceNet, y: np.ndarray):
    configs = _single_layer_configs(model)
    y = np.asarray(y, dtype=np.float64)
    t_q = qnet.logits(0, y[None, :])[0]
    p = _clamp(sigmoid(t_q))
    logq = np.where(configs > 0, np.log(p), np.log1p(-p)).sum(axis=1)
    logprior = bern_ll(configs, model.prior).sum(axis=1)
    loglik = bern_ll(y, model.links[0].forward(configs)).sum(axis=1)
    R = loglik + logprior - logq
    return configs, p, t_q, logq, R


def enumerate_elbo(model: SbnModel, qnet: InferenceNet,
                   y: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact ELBO and its gradient in the q logits, by enumeration.

    d ELBO / d t_i = E_q[R * d log q / d t_i] (the direct R term has
    zero expectation); the chain through a clamped probability is zero
    where the clamp binds.
    """
    configs, p, t_q, logq, R = _posterior_context(model, qnet, y)
    q = np.exp(logq)
    elbo = float(q @ R)
    sc = np.where(configs > 0, 1.0 / p, -1.0 / (1.0 - p))
    raw = sigmoid(t_q)
    dp_dt = raw * (1.0 - raw) * ((raw > PROB_FLOOR) & (raw < 1.0 - PROB_FLOOR))
    grad_t = ((q * R) @ sc) * dp_dt
    return elbo, grad_t


def expected_q_logit_gradient(model: SbnModel, qnet: InferenceNet,
                              baselines: SbnBaselines, y: np.ndarray,
                              est: EstimatorConfig) -> np.ndarray:
    """Exact expected q-logit gradient of the configured estimator, by
    enumeration over latent configurations (inner smoothing exact).

    Reuses the library enumeration oracle: R becomes a truth table over
    the latent cube under the posterior product distribution, and the
    trainer's network oracles (surrogate g, baseline b, Taylor data at
    the conditional mean, relaxed derivatives) are tabulated the same
    way the training step computes them.
    """
    configs, p, t_q, logq, R = _posterior_context(model, qnet, y)
    w = model.widths[0]
    y_row = np.asarray(y, dtype=np.float64)[None, :]
    dist = ProductDistribution(p)
    f = BooleanFunction(w, table=R)
    g_table = baselines.g[0].value(configs)
    g_fun = BooleanFunction(w, table=g_table)
    b_val = float(baselines.b.value(y_row)[0])
    xs_dummy = [configs[:1]]
    probs = [p[None, :]]
    mu = (2.0 * p - 1.0)[None, :]
    v_mu, g_mu = _local_value_grad(model, qnet, xs_dummy, probs, y_row, 0, mu)
    taylor = MeanTaylor(value=float(v_mu[0]), gradient=g_mu[0])
    y_tiled = np.broadcast_to(y_row, (configs.shape[0], y_row.shape[1]))
    probs_full = [np.broadcast_to(p, configs.shape)]
    _, grads = _local_value_grad(model, qnet, [configs], probs_full, y_tiled,
                                 0, configs)
    ev = expected_value_by_enumeration(est, f, dist, g=g_fun, baseline=b_val,
                                       taylor=taylor, derivs=grads.T)
    raw = sigmoid(t_q)
    return ev * raw * (1.0 - raw)


def sample_q_logit_gradients(model: SbnModel, qnet: InferenceNet,
                             baselines: SbnBaselines, y: np.ndarray,
                             est: EstimatorConfig, samples: int,
                             seed: int) -> np.ndarray:
    """(samples, width) single-sample q-logit gradient estimates for one
    observation, exactly as a training step would compute them."""
    if len(model.widths) != 1:
        raise ValueError("probe sampling supports single-layer models")
    y_tiled = np.broadcast_to(np.asarray(y, dtype=np.float64),
                              (samples, model.obs_width)).copy()
    rng_latent = stream(seed, 1, 0)
    rng_inner = stream(seed, 2, 0)
    xs, probs, logits = _sample_latents(model, qnet, y_tiled, rng_latent)
    R, _, _, _, _ = _integrand(model, xs, probs, y_tiled)
    b_val = baselines.b.value(y_tiled)
    contrib = _layer_contributions(est, model, qnet, baselines, xs, probs,
                                   y_tiled, 0, R, b_val, rng_inner)
    s = sigmoid(logits[0])
    return contrib * s * (1.0 - s)


# ---------------------------------------------------------------------------
# Data, metrics, checkpoints.

def bars_dataset(count: int, seed: int, size: int = 6,
                 p_bar: float = 0.3) -> np.ndarray:
    """Synthetic bar patterns: each of `size` row bars and `size` column
    bars is present independently with probability p_bar; a cell is on
    if its row or column bar is.  Returns (count, size*size) of -1/+1."""
    rng = stream(seed)
    bars = rng.random((count, 2 * size)) < p_bar
    rows = bars[:, :size]
    cols = bars[:, size:]
    grid = rows[:, :, None] | cols[:, None, :]
    return (2.0 * grid.reshape(count, size * size) - 1.0).astype(np.float64)


def save_dataset(path: str, data: np.ndarray):
    """One observation per line, row-major 0/1 characters (+1 -> 1)."""
    data = np.asarray(data)
    with open(path, "w") as fh:
        for row in data:
            fh.write("".join("1" if v > 0 else "0" for v in row))
            fh.write("\n")


def load_dataset(path: str) -> np.ndarray:
    """Read the 0/1 line format back as -1/+1 floats."""
    rows = []
    width = None
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if width is None:
                width = len(line)
            elif len(line) != width:
                raise ValueError("line %d: width %d != %d"
                                 % (ln, len(line), width))
            if set(line) - {"0", "1"}:
                raise ValueError("line %d: characters other than 0/1" % ln)
            rows.append([1.0 if ch == "1" else -1.0 for ch in line])
    if not rows:
        raise ValueError("empty dataset file")
    return np.array(rows)


def named_parameters(model: SbnModel, qnet: InferenceNet,
                     baselines: SbnBaselines) -> dict[str, np.ndarray]:
    """Live views of every trainable tensor, stably named."""
    out: dict[str, np.ndarray] = {"model.prior": model.prior}
    for j, link in enumerate(model.links):
        out["model.link%d.W" % j] = link.W
        out["model.link%d.b" % j] = link.b
    for j, link in enumerate(qnet.links):
        out["q.link%d.W" % j] = link.W
        out["q.link%d.b" % j] = link.b

    def mlp(prefix: str, net: MLP):
        for k, layer in enumerate(net.layers):
            out["%s.L%d.W" % (prefix, k)] = layer.W
            out["%s.L%d.b" % (prefix, k)] = layer.b

    mlp("baseline.b", baselines.b)
    for li, g in enumerate(baselines.g):
        mlp("baseline.g%d" % li, g)
    return out


def save_checkpoint(path: str, named: dict[str, np.ndarray]):
    """Flat text: one `name<TAB>shape<TAB>values` line per tensor."""
    with open(path, "w") as fh:
        for name in sorted(named):
            arr = np.asarray(named[name], dtype=np.float64)
            shape = "x".join(str(d) for d in arr.shape)
            vals = " ".join(repr(float(v)) for v in arr.reshape(-1))
            fh.write("%s\t%s\t%s\n" % (name, shape, vals))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError("line %d: expected name<TAB>shape<TAB>values"
                                 % ln)
            name, shape_s, vals = parts
            shape = tuple(int(d) for d in shape_s.split("x")) if shape_s else ()
            arr = np.array([float(v) for v in vals.split()] if vals else [])
            out[name] = arr.reshape(shape)
    return out


def restore_checkpoint(model: SbnModel, qnet: InferenceNet,
                       baselines: SbnBaselines, loaded: dict[str, np.ndarray]):
    """Copy loaded tensors into live parameters, shape-checked."""
    live = named_parameters(model, qnet, baselines)
    missing = sorted(set(live) - set(loaded))
    if missing:
        raise ValueError("checkpoint missing tensors: %s" % ", ".join(missing))
    for name, arr in live.items():
        src = loaded[name]
        if src.shape != arr.shape:
            raise ValueError("tensor %s: shape %s != %s"
                             % (name, src.shape, arr.shape))
        arr[...] = src
