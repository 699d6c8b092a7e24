"""The benchmark's own numpy computations that boolcube's outputs are
checked against.

Nothing here imports boolcube: each function recomputes a quantity from
a truth table, a coefficient array or raw parameters by a route of its
own, so a check passes only when the library agrees with it.  Truth
tables use boolcube's documented index convention: bit i of the index
is set when coordinate i is +1.
"""

from __future__ import annotations

import numpy as np


def point_indices(xs: np.ndarray) -> np.ndarray:
    """Truth-table index of each row of a (m, n) matrix of -1/+1."""
    bits = (np.asarray(xs) > 0).astype(np.int64)
    return bits @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))


def point_weights(p: np.ndarray) -> np.ndarray:
    """Probability of every point under independent coordinates."""
    w = np.ones(1)
    for pi in p:
        w = np.concatenate([w * (1.0 - pi), w * pi])
    return w


def _axis_view(a: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The x_i = -1 and x_i = +1 halves of a table, as views."""
    shaped = a.reshape(-1, 2, 1 << i)
    return shaped[:, 0, :], shaped[:, 1, :]


def table_from_basis(coeffs: np.ndarray, phi_lo: np.ndarray,
                     phi_hi: np.ndarray) -> np.ndarray:
    """Truth table of sum_S c_S prod_{i in S} phi_i(x_i), where entry m
    of `coeffs` belongs to the subset with bitmask m and phi_i takes
    the values phi_lo[i] at x_i = -1 and phi_hi[i] at x_i = +1."""
    work = np.array(coeffs, dtype=np.float64)
    for i in range(len(phi_lo)):
        lo, hi = _axis_view(work, i)
        a, b = lo.copy(), hi.copy()
        lo[...] = a + phi_lo[i] * b
        hi[...] = a + phi_hi[i] * b
    return work


def poly_table(coeffs: np.ndarray) -> np.ndarray:
    """Truth table of a multilinear polynomial in the raw coordinates."""
    n = int(coeffs.shape[0]).bit_length() - 1
    return table_from_basis(coeffs, -np.ones(n), np.ones(n))


def biased_table(coeffs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Truth table of an expansion in the standardized basis
    (x_i - mu_i) / sigma_i under coordinate probabilities p."""
    mu = 2.0 * p - 1.0
    sigma = 2.0 * np.sqrt(p * (1.0 - p))
    return table_from_basis(coeffs, (-1.0 - mu) / sigma, (1.0 - mu) / sigma)


def conditional_gradient(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d E_p[f] / d p_i = E[f | x_i = +1] - E[f | x_i = -1]."""
    fw = table * point_weights(p)
    out = np.empty(len(p))
    for i in range(len(p)):
        lo, hi = _axis_view(fw, i)
        out[i] = hi.sum() / p[i] - lo.sum() / (1.0 - p[i])
    return out


def keep_or_redraw(table: np.ndarray, rho: float, p: np.ndarray) -> np.ndarray:
    """Apply, one axis at a time, the kernel that keeps x_i with
    probability rho and otherwise redraws it from p_i."""
    work = np.array(table, dtype=np.float64)
    for i in range(len(p)):
        lo, hi = _axis_view(work, i)
        redraw = p[i] * hi + (1.0 - p[i]) * lo
        lo[...] = rho * lo + (1.0 - rho) * redraw
        hi[...] = rho * hi + (1.0 - rho) * redraw
    return work


def multilinear_derivative(table: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(f(x with x_i=+1) - f(x with x_i=-1)) / 2 at each row of xs."""
    idx = point_indices(xs)
    out = np.empty(xs.shape, dtype=np.float64)
    for i in range(xs.shape[1]):
        bit = np.int64(1) << i
        out[:, i] = (table[idx | bit] - table[idx & ~bit]) / 2.0
    return out


def reinforce_moments(table: np.ndarray, p: np.ndarray):
    """Exact per-coordinate mean and variance of f(x) * score_i(x),
    where score_i is 1/p_i at x_i = +1 and -1/(1-p_i) at x_i = -1."""
    n = len(p)
    w = point_weights(p)
    idx = np.arange(1 << n)[:, None]
    plus = ((idx >> np.arange(n)) & 1).astype(bool)
    contrib = table[:, None] * np.where(plus, 1.0 / p, -1.0 / (1.0 - p))
    mean = w @ contrib
    return mean, w @ (contrib * contrib) - mean * mean


# ---------------------------------------------------------------------------
# The single-layer belief net, from raw parameter arrays.

def _log_sigmoid(t: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -t)


def _latent_configs(width: int) -> np.ndarray:
    idx = np.arange(1 << width)[:, None]
    return 2.0 * ((idx >> np.arange(width)) & 1) - 1.0


def q_probabilities(params: dict[str, np.ndarray], y: np.ndarray,
                    floor: float = 1e-6):
    """The inference net's unit probabilities for observation y, clamped
    to [floor, 1 - floor] as the model defines them, and the mask of
    units where the clamp does not bind."""
    raw = 1.0 / (1.0 + np.exp(-(params["q.link0.W"] @ y + params["q.link0.b"])))
    return np.clip(raw, floor, 1.0 - floor), (raw > floor) & (raw < 1.0 - floor)


def sbn_exact(params: dict[str, np.ndarray], data: np.ndarray):
    """Exact ELBO, log evidence and ELBO gradient in the q logits for
    every observation of a one-layer net, by summing over all latent
    configurations.

    params holds the arrays model.prior, model.link0.W, model.link0.b,
    q.link0.W and q.link0.b; rows of data are -1/+1 observations.  The
    gradient is zero where the probability clamp binds, since the
    clamped probability does not move with the logit there.
    Returns (elbo (N,), log_evidence (N,), logit_grad (N, width)).
    """
    prior = params["model.prior"]
    h = _latent_configs(prior.shape[0])
    log_prior = _log_sigmoid(h * prior).sum(axis=1)
    dec = h @ params["model.link0.W"].T + params["model.link0.b"]
    elbo = np.empty(data.shape[0])
    evidence = np.empty(data.shape[0])
    grad = np.empty((data.shape[0], prior.shape[0]))
    for k, y in enumerate(np.asarray(data, dtype=np.float64)):
        joint = log_prior + _log_sigmoid(y * dec).sum(axis=1)
        top = joint.max()
        evidence[k] = top + np.log(np.exp(joint - top).sum())
        q_plus, free = q_probabilities(params, y)
        log_q = np.where(h > 0, np.log(q_plus), np.log1p(-q_plus)).sum(axis=1)
        q = np.exp(log_q)
        r = joint - log_q
        elbo[k] = q @ r
        grad[k] = ((q * r) @ ((1.0 + h) / 2.0 - q_plus)) * free
    return elbo, evidence, grad


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Parse the `name<TAB>shape<TAB>values` checkpoint text."""
    out = {}
    with open(path) as fh:
        for line in fh:
            name, shape, values = line.rstrip("\n").split("\t")
            dims = tuple(int(d) for d in shape.split("x")) if shape else ()
            out[name] = np.array(values.split(), dtype=np.float64).reshape(dims)
    return out
