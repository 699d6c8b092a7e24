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

The exact oracles of a single-layer model (enumerate_elbo,
expected_q_logit_gradient) run the step's own code on one draw whose
rows are all 2^w latent configurations, for widths up to cube.MAX_N;
only the smoothed g is computed exactly there, from the g net's table,
where the step samples it.

Inference probabilities are clamped to [1e-6, 1-1e-6].  The local
value/gradient oracle uses the smooth logit form for terms where a
sample feeds another layer, so at a binding clamp it deviates from
the clamped density; away from saturation the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cube import (MAX_N, PROB_FLOOR, ProductDistribution, enumerate_points,
                   weights)
from .estimators import (EstimatorConfig, _contributions, _score,
                         ema_mean_and_variance)
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
from .operators import _smoothed_mc, noise_exact
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

    def __init__(self, widths: tuple[int, ...], obs_dim: int,
                 rng: np.random.Generator):
        widths = tuple(int(w) for w in widths)
        if not 1 <= len(widths) <= 3:
            raise ValueError("layer count must be 1, 2, or 3")
        if any(w < 1 or w > 32 for w in widths) or not 1 <= obs_dim <= 4096:
            raise ValueError("widths out of the supported toy range")
        self.widths = widths
        self.prior = np.zeros(widths[-1])
        self.links = [Affine(rng, widths[0], obs_dim)]
        for j in range(1, len(widths)):
            self.links.append(Affine(rng, widths[j], widths[j - 1]))


class InferenceNet:
    """Recognition side: links[0] maps y to x_1 logits, links[l] maps
    x_l to x_{l+1} logits."""

    def __init__(self, widths: tuple[int, ...], obs_dim: int,
                 rng: np.random.Generator):
        self.widths = tuple(int(w) for w in widths)
        self.links = [Affine(rng, obs_dim, widths[0])]
        for l in range(1, len(widths)):
            self.links.append(Affine(rng, widths[l - 1], widths[l]))

    def logits(self, li: int, inp: np.ndarray) -> np.ndarray:
        return self.links[li].forward(inp)


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
    freeze_g: bool = False

    def __post_init__(self):
        if self.steps < 1 or self.minibatch < 1:
            raise ValueError("steps and minibatch must be positive")
        if self.learning_rate <= 0 or self.baseline_lr_scale <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.estimator.exact_inner:
            raise ValueError("exact_inner estimators are for enumeration "
                             "oracles, not training")

    def summary(self) -> str:
        return ("estimator=%s steps=%d seed=%d lr=%s momentum=%s minibatch=%d "
                "baseline_lr_scale=%s freeze_g=%s"
                % (self.estimator.label(), self.steps, self.seed,
                   repr(float(self.learning_rate)), repr(float(self.momentum)),
                   self.minibatch, repr(float(self.baseline_lr_scale)),
                   self.freeze_g))


def build_toy(widths: tuple[int, ...], obs_dim: int, seed: int,
              baseline_hidden: int = 32, g_hidden: int = 32,
              g_act: str = "tanh"):
    """Model, inference net, and baseline nets from one seed's substreams."""
    model = SbnModel(widths, obs_dim, stream(seed, 0, 0))
    qnet = InferenceNet(widths, obs_dim, stream(seed, 0, 1))
    b = MLP(stream(seed, 0, 2), (obs_dim, baseline_hidden, 1), "tanh")
    g = [MLP(stream(seed, 0, 3 + li), (w, g_hidden, g_hidden, 1), g_act)
         for li, w in enumerate(widths)]
    return model, qnet, SbnBaselines(b=b, g=g)


# ---------------------------------------------------------------------------
# Forward pass pieces.

def _sample_latents(model: SbnModel, qnet: InferenceNet, y: np.ndarray,
                    rng: np.random.Generator):
    """Layerwise samples, clamped probabilities, and each layer's raw
    sigma(t) from before the clamp."""
    xs, probs, raw = [], [], []
    inp = y
    for li in range(len(model.widths)):
        s = sigmoid(qnet.logits(li, inp))
        p = _clamp(s)
        u = rng.random(p.shape)
        x = np.where(u < p, 1.0, -1.0)
        xs.append(x)
        probs.append(p)
        raw.append(s)
        inp = x
    return xs, probs, raw


class _Pieces(NamedTuple):
    """What the integrand computes on its way to R: each decoder link's
    logits t[j] and the per-row log-likelihood ll[j] of its target (y
    for link 0, x_j above), the prior's per-row log-likelihood, and
    log p, log(1 - p) of every q layer."""

    t: list
    ll: list
    prior_ll: np.ndarray
    log_p: list
    log_1mp: list


def _integrand(model: SbnModel, xs: list[np.ndarray], probs: list[np.ndarray],
               y: np.ndarray):
    """R = log p(y|x) + log p(x) - log q(x|y) per batch row, its three
    terms, and the pieces they were built from."""
    t = [link.forward(x) for link, x in zip(model.links, xs)]
    ll = [bern_ll(target, tj).sum(axis=1)
          for target, tj in zip([y] + xs[:-1], t)]
    prior_ll = bern_ll(xs[-1], model.prior).sum(axis=1)
    logp = prior_ll
    for lj in ll[1:]:
        logp = logp + lj
    log_p = [np.log(p) for p in probs]
    log_1mp = [np.log1p(-p) for p in probs]
    logq = sum(np.where(x > 0, lp, l1p).sum(axis=1)
               for x, lp, l1p in zip(xs, log_p, log_1mp))
    return (ll[0] + logp - logq, ll[0], logp, logq,
            _Pieces(t, ll, prior_ll, log_p, log_1mp))


class _Draw:
    """One latent draw (xs, probs, raw) for the batch y and the pieces of
    a step at it, each computed once: the integrand and its pieces at
    construction; the decoder logit gradients, the local oracle at the
    sample and the g nets' forward passes on first use.  y and the
    probabilities may be single rows that broadcast against the
    latents."""

    def __init__(self, model: SbnModel, qnet: InferenceNet,
                 baselines: SbnBaselines | None, y: np.ndarray, latents):
        self.model, self.qnet, self.baselines, self.y = (
            model, qnet, baselines, y)
        self.xs, self.probs, self.raw = latents
        self.R, _, _, self.logq, self.pieces = _integrand(
            model, self.xs, self.probs, y)
        self._memo: dict = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def decoder_grad(self, j: int) -> np.ndarray:
        """Gradient of ll[j] in link j's logits."""
        target = self.y if j == 0 else self.xs[j - 1]
        return self._once(("dt", j), lambda: bern_ll_grad_t(
            target, self.pieces.t[j]))

    def g_forward(self, li: int):
        """Layer li's g net at the sample: (values, backward cache)."""
        return self._once(("g", li), lambda: self.baselines.g[li].forward(
            self.xs[li]))

    def _above(self, li: int):
        """The logits of layer li's outcome terms, and the per-row
        log-likelihood of its sample under them: the prior's for the top
        layer, link li+1's otherwise."""
        pc = self.pieces
        if li == len(self.xs) - 1:
            return self.model.prior, pc.prior_ll
        return pc.t[li + 1], pc.ll[li + 1]

    def local_at_sample(self, li: int):
        """local_at(li, xs[li]), assembled from the pieces."""
        pc = self.pieces
        return self._once(("local", li), lambda: self._local(
            li, self.xs[li], self._above(li)[1], pc.ll[li],
            self.decoder_grad(li)))

    def local_at(self, li: int, s: np.ndarray):
        """Value and gradient in s of the ELBO integrand's
        layer-li-dependent part, the other layers held at their samples.
        Terms not involving layer li are omitted; callers only use
        differences and gradients.  Only s's own link products are new."""
        below = self.y if li == 0 else self.xs[li - 1]
        link = self.model.links[li]
        t_b = s @ link.W.T + link.b
        return self._local(li, s, bern_ll(s, self._above(li)[0]).sum(axis=1),
                           bern_ll(below, t_b).sum(axis=1),
                           bern_ll_grad_t(below, t_b))

    def _local(self, li: int, s: np.ndarray, above_ll: np.ndarray,
               below_ll: np.ndarray, below_dt: np.ndarray):
        """The local value and gradient from their terms.  Outcome terms,
        linear in s: + log p(s | above) (above_ll, under the logits of
        _above) and - log q(s | below) (from layer li's log p and
        log(1 - p)).  Input terms: s feeds the logits of the layer below
        or the observation (below_ll, with logit gradient below_dt) and,
        when not the top layer, those of the layer above's q."""
        pc = self.pieces
        tp, lp, l1p = self._above(li)[0], pc.log_p[li], pc.log_1mp[li]
        val = above_ll - (0.5 * (1.0 + s) * lp
                          + 0.5 * (1.0 - s) * l1p).sum(axis=1) + below_ll
        grad = (bern_ll_grad_s(tp) - 0.5 * (lp - l1p)
                + below_dt @ self.model.links[li].W)
        if li < len(self.xs) - 1:
            vl = self.qnet.links[li + 1]
            t_u = s @ vl.W.T + vl.b
            val = val - bern_ll(self.xs[li + 1], t_u).sum(axis=1)
            grad = grad - bern_ll_grad_t(self.xs[li + 1], t_u) @ vl.W
        return val, grad


def _layer_contributions(est: EstimatorConfig, draw: _Draw, li: int,
                         b_val: np.ndarray, smoothed) -> np.ndarray:
    """Per-unit estimator contributions (units d/dp) for layer li, with
    smoothed(rho) the smoothed g at each row."""
    x, p = draw.xs[li], draw.probs[li]
    mu = 2.0 * p - 1.0

    def first_order():
        # The local integrand omits terms free of layer li; measured from
        # its value at mu, its Taylor value there is 0.
        v_mu, g_mu = draw.local_at(li, mu)
        return draw.local_at_sample(li)[0] - v_mu, 0.0, g_mu

    return _contributions(
        est, x, p, mu, f=lambda: draw.R, g=lambda: draw.g_forward(li)[0],
        smoothed=smoothed, taylor=first_order,
        deriv=lambda: draw.local_at_sample(li)[1], baseline=b_val)


def _q_logit_rows(est: EstimatorConfig, draw: _Draw, li: int,
                  b_val: np.ndarray, rng_inner: np.random.Generator):
    """A training step's per-row gradients in layer li's q logits: the
    layer's contributions, with the smoothed g from k resampled draws
    per row, times sigma'(t)."""
    contrib = _layer_contributions(
        est, draw, li, b_val,
        lambda rho: _smoothed_mc(draw.baselines.g[li].value, draw.xs[li],
                                 draw.probs[li], rho, est.t_rho_samples,
                                 rng_inner))
    s = draw.raw[li]
    return contrib * s * (1.0 - s)


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
        # One accumulator over named_parameters, in its order, with a rate
        # per element: the generative model and the inference net ascend;
        # the baseline nets descend their losses at the scaled rate, that
        # is ascend at its negative (momentum is odd in the gradient, so
        # this matches negated gradients bit for bit).
        named = {name: p for name, p in named_parameters(
                     model, qnet, baselines).items()
                 if not (cfg.freeze_g and name.startswith("baseline.g"))}
        self.mom = Momentum(list(named.values()), cfg.momentum)
        self._rates = np.concatenate([
            np.full(p.size, -cfg.learning_rate * cfg.baseline_lr_scale
                    if name.startswith("baseline.") else cfg.learning_rate)
            for name, p in named.items()])
        self._ema: dict[int, list[np.ndarray]] = {}

    def _track(self, li: int, flat: np.ndarray) -> float:
        st = self._ema.get(li)
        if st is None:
            self._ema[li] = [flat.copy(), np.zeros_like(flat)]
            return LOG_VAR_FLOOR
        m, v = st
        d = self.cfg.estimator.baseline_decay
        innov = flat - m
        v *= d
        v += (1.0 - d) * innov * innov
        m *= d
        m += (1.0 - d) * flat
        return float(_floored_log(v.mean()))

    def step(self, y: np.ndarray, rng_latent: np.random.Generator,
             rng_inner: np.random.Generator, step_index: int = 0):
        """One update on minibatch y; returns (mean ELBO, per-layer
        log-variance of the q parameter gradient EMA)."""
        cfg, est = self.cfg, self.cfg.estimator
        model, baselines = self.model, self.baselines
        B = y.shape[0]
        L = len(model.widths)
        draw = _Draw(model, self.qnet, baselines, y,
                     _sample_latents(model, self.qnet, y, rng_latent))
        xs, R = draw.xs, draw.R
        if not np.all(np.isfinite(R)):
            raise TrainingDiverged(step_index, "ELBO")
        b_val, b_cache = baselines.b.forward(y)

        # Gradients in named_parameters order.  Prior and decoder, pathwise.
        grads = [bern_ll_grad_t(xs[-1], model.prior).sum(axis=0) / B]
        for j in range(L):
            grads.extend(g / B for g in model.links[j].grads(
                xs[j], draw.decoder_grad(j)))

        # inference net, via the configured estimator
        logvars: list[float] = []
        for li in range(L):
            grad_t = _q_logit_rows(est, draw, li, b_val, rng_inner)
            inp = y if li == 0 else xs[li - 1]
            gW, gb = (g / B for g in self.qnet.links[li].grads(inp, grad_t))
            grads.extend([gW, gb])
            logvars.append(self._track(li, np.concatenate([gW.ravel(), gb])))

        # baseline regressions (targets use pre-update values)
        grads.extend(baselines.b.backward(b_cache, (b_val - R) / B))
        if not cfg.freeze_g:
            target = R - b_val
            for li in range(L):
                g_val, g_cache = draw.g_forward(li)
                grads.extend(baselines.g[li].backward(
                    g_cache, (g_val - target) / B))

        flat = np.concatenate([g.ravel() for g in grads])
        if not np.isfinite(flat).all():
            raise TrainingDiverged(step_index, "gradient")

        self.mom.ascend([flat], self._rates)
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
    return _floored_log(v.mean(axis=1))


@np.errstate(divide="ignore")
def _floored_log(avg):
    """log of an EMA variance, floored at LOG_VAR_FLOOR (a zero included)."""
    return np.maximum(np.log(avg), LOG_VAR_FLOOR)


# ---------------------------------------------------------------------------
# Exact oracles for single-layer toy models.

def _single_layer_configs(model: SbnModel):
    if len(model.widths) != 1:
        raise ValueError("enumeration oracles support single-layer models")
    w = model.widths[0]
    if w > MAX_N:
        raise ValueError("latent width %d too large to enumerate (at most %d)"
                         % (w, MAX_N))
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


def _enumerated_draw(model: SbnModel, qnet: InferenceNet,
                     baselines: SbnBaselines | None, y: np.ndarray) -> _Draw:
    """The draw whose rows are all 2^w latent configurations of a
    single-layer model; y and q's probabilities for it enter as single
    rows that broadcast against them."""
    configs = _single_layer_configs(model)
    y = np.asarray(y, dtype=np.float64)[None, :]
    raw = sigmoid(qnet.logits(0, y))
    return _Draw(model, qnet, baselines, y, ([configs], [_clamp(raw)], [raw]))


def enumerate_elbo(model: SbnModel, qnet: InferenceNet,
                   y: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact ELBO and its gradient in the q logits, by enumeration.

    d ELBO / d t_i = E_q[R * d log q / d t_i] (the direct R term has
    zero expectation); the chain through a clamped probability is zero
    where the clamp binds.
    """
    draw = _enumerated_draw(model, qnet, None, y)
    configs, p, raw = draw.xs[0], draw.probs[0][0], draw.raw[0][0]
    q = np.exp(draw.logq)
    elbo = float(q @ draw.R)
    sc = _score(configs, p)
    dp_dt = raw * (1.0 - raw) * ((raw > PROB_FLOOR) & (raw < 1.0 - PROB_FLOOR))
    grad_t = ((q * draw.R) @ sc) * dp_dt
    return elbo, grad_t


def expected_q_logit_gradient(model: SbnModel, qnet: InferenceNet,
                              baselines: SbnBaselines, y: np.ndarray,
                              est: EstimatorConfig) -> np.ndarray:
    """Exact expected q-logit gradient of the configured estimator, by
    enumeration over latent configurations.

    Runs the training step's own layer contributions on the draw of
    every latent configuration, weighted by its probability under the
    posterior product distribution.  Only the smoothed g differs from
    the step: it is computed exactly from the g net's table, where the
    step samples it.
    """
    draw = _enumerated_draw(model, qnet, baselines, y)
    dist = ProductDistribution(draw.probs[0][0])

    def smoothed(rho: float) -> np.ndarray:
        g = BooleanFunction(dist.n, table=draw.g_forward(0)[0])
        return noise_exact(g, rho, dist).values()

    m = _layer_contributions(est, draw, 0, baselines.b.value(draw.y),
                             smoothed)
    raw = draw.raw[0][0]
    return (weights(dist) @ m) * raw * (1.0 - raw)


def sample_q_logit_gradients(model: SbnModel, qnet: InferenceNet,
                             baselines: SbnBaselines, y: np.ndarray,
                             est: EstimatorConfig, samples: int,
                             seed: int) -> np.ndarray:
    """(samples, width) single-sample q-logit gradient estimates for one
    observation, exactly as a training step would compute them."""
    if len(model.widths) != 1:
        raise ValueError("probe sampling supports single-layer models")
    y_tiled = np.tile(np.asarray(y, dtype=np.float64), (samples, 1))
    draw = _Draw(model, qnet, baselines, y_tiled,
                 _sample_latents(model, qnet, y_tiled, stream(seed, 1, 0)))
    return _q_logit_rows(est, draw, 0, baselines.b.value(y_tiled),
                         stream(seed, 2, 0))


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
            if name in out:
                raise ValueError("line %d: duplicate tensor %s" % (ln, name))
            shape = tuple(int(d) for d in shape_s.split("x")) if shape_s else ()
            arr = np.array([float(v) for v in vals.split()] if vals else [])
            out[name] = arr.reshape(shape)
    return out


def restore_checkpoint(model: SbnModel, qnet: InferenceNet,
                       baselines: SbnBaselines, loaded: dict[str, np.ndarray]):
    """Copy loaded tensors into live parameters, checked by name and shape."""
    live = named_parameters(model, qnet, baselines)
    missing = sorted(set(live) - set(loaded))
    if missing:
        raise ValueError("checkpoint missing tensors: %s" % ", ".join(missing))
    unexpected = sorted(set(loaded) - set(live))
    if unexpected:
        raise ValueError("checkpoint has unexpected tensors: %s"
                         % ", ".join(unexpected))
    for name, arr in live.items():
        src = loaded[name]
        if src.shape != arr.shape:
            raise ValueError("tensor %s: shape %s != %s"
                             % (name, src.shape, arr.shape))
        arr[...] = src
