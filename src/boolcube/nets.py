"""Small dense networks with hand-written batched backprop.

Everything here is deliberately tiny and explicit: affine layers, three
activations, a scalar-output MLP used for baseline and surrogate nets,
and a momentum accumulator.  No autodiff; callers control exactly which
gradients flow.

Sign convention: Momentum.ascend moves parameters UP the supplied
gradient (we maximize objectives); pass negated gradients, or a
negative rate, to descend.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_sigmoid",
    "sigmoid",
    "bern_ll",
    "bern_ll_grad_t",
    "bern_ll_grad_s",
    "Affine",
    "MLP",
    "Momentum",
]


def log_sigmoid(t: np.ndarray) -> np.ndarray:
    """log sigma(t) = min(t, 0) - log1p(exp(-|t|)): one exp and one
    log1p, finite for every finite t."""
    t = np.asarray(t, dtype=np.float64)
    return np.minimum(t, 0.0) - np.log1p(np.exp(-np.abs(t)))


def sigmoid(t: np.ndarray) -> np.ndarray:
    """sigma(t) = exp(min(t, 0)) / (1 + exp(-|t|)), from one exp."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def bern_ll(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log probability of outcome s in {-1,+1} under logit t, extended
    linearly to fractional s: ((1+s)/2) log sigma(t) + ((1-s)/2) log sigma(-t).

    Since log sigma(-t) = log sigma(t) - t, this is
    min(t, 0) - ((1-s)/2) t - log1p(exp(-|t|)), one pass.  The first two
    terms are summed before the log1p term: at s = -1 and t << 0 they
    cancel exactly, where log_sigmoid(t) - t would lose the log1p term's
    relative precision.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    return (np.minimum(t, 0.0) - 0.5 * (1.0 - s) * t
            - np.log1p(np.exp(-np.abs(t))))


def bern_ll_grad_t(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d bern_ll / d t = (1+s)/2 - sigma(t)."""
    return 0.5 * (1.0 + np.asarray(s, dtype=np.float64)) - sigmoid(t)


def bern_ll_grad_s(t: np.ndarray) -> np.ndarray:
    """d bern_ll / d s = (log sigma(t) - log sigma(-t)) / 2 = t / 2."""
    return 0.5 * np.asarray(t, dtype=np.float64)


def _act(name: str):
    """The activation, applied in place, and its derivative, written in
    terms of the activation's output."""
    if name == "tanh":
        return (lambda z: np.tanh(z, out=z)), (lambda out: 1.0 - out * out)
    if name == "relu":
        return ((lambda z: np.maximum(z, 0.0, out=z)),
                (lambda out: (out > 0.0) * 1.0))
    if name == "identity":
        return (lambda z: z), (lambda out: np.ones_like(out))
    raise ValueError("unknown activation %r" % name)


class Affine:
    """y = x @ W.T + b with W shape (n_out, n_in)."""

    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int):
        self.W = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
        self.b = np.zeros(n_out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.W.T
        out += self.b
        return out

    def grads(self, x: np.ndarray, dout: np.ndarray):
        """Parameter grads (gW, gb) for a batch: dout is (B, n_out)."""
        return dout.T @ x, dout.sum(axis=0)

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]


class MLP:
    """Feedforward net with a scalar head: sizes like (n_in, h1, h2, 1).

    Hidden layers share one activation; the head is linear.  forward
    returns the (B,) outputs plus a cache for backward: each layer's
    input, the last hidden layer's activations being the head's input.
    """

    def __init__(self, rng: np.random.Generator, sizes: tuple[int, ...],
                 hidden_act: str = "tanh"):
        if len(sizes) < 2 or sizes[-1] != 1:
            raise ValueError("sizes must end in a scalar head")
        self.layers = [Affine(rng, sizes[i], sizes[i + 1])
                       for i in range(len(sizes) - 1)]
        self._act, self._dact = _act(hidden_act)

    def forward(self, x: np.ndarray):
        """Outputs and cache for a batch of -1/+1 rows; a bool batch of
        sign bits is refused rather than read as 0/1."""
        x = np.asarray(x)
        if x.dtype == np.bool_:
            raise ValueError("MLP inputs are -1/+1 rows, not sign bits; "
                             "convert with np.where(bits, 1.0, -1.0)")
        h = x.astype(np.float64, copy=False)
        inputs = []
        for k, layer in enumerate(self.layers):
            inputs.append(h)
            z = layer.forward(h)
            h = self._act(z) if k < len(self.layers) - 1 else z
        return h[:, 0], inputs

    def backward(self, cache, dout: np.ndarray) -> list[np.ndarray]:
        """dout is (B,) on the scalar output; returns the parameter
        gradients in params() order.  The input's gradient is not
        formed."""
        inputs = cache
        grads: list[np.ndarray] = []
        d = np.asarray(dout, dtype=np.float64)[:, None]
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            gW, gb = layer.grads(inputs[k], d)
            grads.append(gb)
            grads.append(gW)
            if k > 0:
                d = (d @ layer.W) * self._dact(inputs[k])
        grads.reverse()
        return grads

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def zero_(self):
        """Set every parameter to zero in place (diagnostic use)."""
        for p in self.params():
            p[...] = 0.0


class Momentum:
    """Classic momentum accumulator over a fixed parameter list.

    The velocity is one flat vector in parameter order, so a step is a
    few whole-vector operations plus one in-place add per parameter,
    made through a flat view of it; parameters must be C-contiguous.
    """

    def __init__(self, params: list[np.ndarray], momentum: float):
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("parameters must be C-contiguous")
        self.params = params
        self.momentum = momentum
        self._views, start = [], 0
        for p in params:
            self._views.append((p.reshape(-1), slice(start, start + p.size)))
            start += p.size
        self._vel = np.zeros(start)

    def ascend(self, grad: np.ndarray, lr: float | np.ndarray):
        """Move every parameter along its gradient: grad is one flat
        vector, the parameters' gradients concatenated in parameter
        order.  lr is one rate, or one rate per element of that order."""
        if grad.shape != self._vel.shape:
            raise ValueError("gradient size mismatch")
        v = self._vel
        v *= self.momentum
        v += grad
        step = lr * v
        for flat, sl in self._views:
            flat += step[sl]
