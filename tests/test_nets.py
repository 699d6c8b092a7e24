"""Dense layers, Bernoulli log-likelihood pieces, and the optimizer."""

import numpy as np
import pytest

from boolcube.nets import (
    MLP,
    Affine,
    Momentum,
    bern_ll,
    bern_ll_grad_s,
    bern_ll_grad_t,
    log_sigmoid,
    sigmoid,
)
from boolcube.rng import stream


def test_log_sigmoid_stable_at_extremes():
    assert log_sigmoid(0.0) == pytest.approx(np.log(0.5), abs=1e-15)
    # no overflow and the right asymptotics
    assert log_sigmoid(1000.0) == pytest.approx(0.0, abs=1e-12)
    assert log_sigmoid(-1000.0) == pytest.approx(-1000.0, abs=1e-9)
    assert np.isfinite(log_sigmoid(np.array([-1e6, 0.0, 1e6]))).all()


def _two_pass_log_sigmoid(t):
    return -np.logaddexp(0.0, -t)


@pytest.mark.parametrize("s", [-1.0, 0.3, 1.0])
def test_one_pass_forms_match_two_pass_reference(s):
    # log sigma and the Bernoulli log-likelihood against the two-pass
    # logaddexp forms: relative error at most 1e-15, and exactly 0 where
    # the reference is.  At s = -1 and t << 0 the log-likelihood is
    # -log1p(exp(t)), which log_sigmoid(t) - t would round away.
    t = np.concatenate([np.linspace(-800.0, 800.0, 64001),
                        [-1e6, 1e6, -745.2, -37.5, -1e-300, 0.0, 1e-300]])
    want_ls = _two_pass_log_sigmoid(t)
    want_ll = (0.5 * (1.0 + s) * _two_pass_log_sigmoid(t)
               + 0.5 * (1.0 - s) * _two_pass_log_sigmoid(-t))
    for got, want in ((log_sigmoid(t), want_ls), (bern_ll(s, t), want_ll)):
        nz = want != 0.0
        assert np.all(got[~nz] == 0.0)
        assert np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])) <= 1e-15


def test_sigmoid_matches_closed_form():
    t = np.linspace(-20.0, 20.0, 41)
    assert np.max(np.abs(sigmoid(t) - 1.0 / (1.0 + np.exp(-t)))) < 1e-12


def test_bern_ll_boundary_values():
    # s = +1 picks log sigma(t); s = -1 picks log sigma(-t)
    t = np.array([0.5, -2.0, 3.0])
    assert bern_ll(1.0, t) == pytest.approx(log_sigmoid(t), abs=1e-15)
    assert bern_ll(-1.0, t) == pytest.approx(log_sigmoid(-t), abs=1e-15)
    # probabilities of the two outcomes sum to one
    total = np.exp(bern_ll(1.0, t)) + np.exp(bern_ll(-1.0, t))
    assert total == pytest.approx(np.ones(3), abs=1e-12)


def test_bern_ll_linear_in_s():
    # the extension is affine in s by construction
    t = 0.7
    lo, hi = bern_ll(-1.0, t), bern_ll(1.0, t)
    mid = bern_ll(0.25, t)
    assert mid == pytest.approx(lo + (hi - lo) * 0.625, abs=1e-14)


def test_bern_ll_grads_match_finite_differences():
    rng = stream(40)
    s = rng.uniform(-1.0, 1.0, size=7)
    t = rng.normal(size=7) * 2.0
    h = 1e-6
    num_t = (bern_ll(s, t + h) - bern_ll(s, t - h)) / (2.0 * h)
    num_s = (bern_ll(s + h, t) - bern_ll(s - h, t)) / (2.0 * h)
    assert np.max(np.abs(bern_ll_grad_t(s, t) - num_t)) < 1e-8
    assert np.max(np.abs(bern_ll_grad_s(t) - num_s)) < 1e-8
    assert bern_ll_grad_s(t) == pytest.approx(t / 2.0, abs=1e-15)


def test_affine_forward_and_grads():
    layer = Affine(stream(41), n_in=3, n_out=2)
    layer.W = np.array([[1.0, 0.0, -1.0], [2.0, 1.0, 0.5]])
    layer.b = np.array([0.5, -0.5])
    x = np.array([[1.0, 2.0, 3.0]])
    y = layer.forward(x)
    assert np.max(np.abs(y - np.array([[-1.5, 5.0]]))) < 1e-14
    dout = np.array([[1.0, -1.0]])
    gW, gb = layer.grads(x, dout)
    assert np.max(np.abs(gW - dout.T @ x)) < 1e-14
    assert gb == pytest.approx([1.0, -1.0], abs=1e-14)


def finite_diff_params(net, x, eps=1e-6):
    """Central differences of sum(net(x)) against every parameter entry."""
    grads = []
    for p in net.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + eps
            hi = float(net.value(x).sum())
            p[idx] = keep - eps
            lo = float(net.value(x).sum())
            p[idx] = keep
            g[idx] = (hi - lo) / (2.0 * eps)
            it.iternext()
        grads.append(g)
    return grads


@pytest.mark.parametrize("act", ["tanh", "relu", "identity"])
def test_mlp_backward_matches_finite_differences(act):
    net = MLP(stream(42), sizes=(4, 5, 3, 1), hidden_act=act)
    x = stream(43).normal(size=(6, 4))
    out, cache = net.forward(x)
    assert out.shape == (6,)
    grads = net.backward(cache, np.ones(6))
    numeric = finite_diff_params(net, x)
    assert len(grads) == len(numeric) == 6
    for g, ng in zip(grads, numeric):
        assert np.max(np.abs(g - ng)) < 1e-6


def test_mlp_backward_weighted_dout():
    # dout scales each batch row independently
    net = MLP(stream(44), sizes=(3, 4, 1))
    x = stream(45).normal(size=(5, 3))
    w = np.array([1.0, -2.0, 0.0, 0.5, 3.0])
    _, cache = net.forward(x)
    grads = net.backward(cache, w)
    # reference: accumulate single-row backward passes by hand
    want = [np.zeros_like(p) for p in net.params()]
    for b in range(5):
        _, c1 = net.forward(x[b : b + 1])
        g1 = net.backward(c1, w[b : b + 1])
        for acc, g in zip(want, g1):
            acc += g
    for g, ng in zip(grads, want):
        assert np.max(np.abs(g - ng)) < 1e-10


def test_mlp_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MLP(stream(46), sizes=(4,))
    with pytest.raises(ValueError):
        MLP(stream(46), sizes=(4, 3, 2))
    with pytest.raises(ValueError):
        MLP(stream(46), sizes=(4, 3, 1), hidden_act="gelu")


def test_mlp_zero_makes_output_zero():
    net = MLP(stream(47), sizes=(3, 8, 1))
    x = stream(48).normal(size=(4, 3))
    assert np.max(np.abs(net.value(x))) > 0.0
    net.zero_()
    assert np.array_equal(net.value(x), np.zeros(4))


def test_mlp_refuses_sign_bits_and_reads_float_rows_in_place():
    net = MLP(stream(49), sizes=(3, 4, 1))
    bits = stream(50).random((5, 3)) < 0.5
    with pytest.raises(ValueError, match=r"-1/\+1 rows"):
        net.forward(bits)
    rows = np.where(bits, 1.0, -1.0)
    _, cache = net.forward(rows)
    assert cache[0] is rows
    ints = np.where(bits, 1, -1)
    assert np.array_equal(net.value(ints), net.value(rows))


def test_momentum_hand_sequence():
    p = np.array([1.0, -1.0])
    opt = Momentum([p], momentum=0.5)
    opt.ascend(np.array([2.0, 0.0]), lr=0.1)
    # velocity 2.0 -> step 0.2
    assert p == pytest.approx([1.2, -1.0], abs=1e-15)
    opt.ascend(np.array([0.0, 1.0]), lr=0.1)
    # velocity halves to 1.0 and picks up the new gradient
    assert p == pytest.approx([1.3, -0.9], abs=1e-15)


def test_momentum_updates_in_place_and_validates():
    net = MLP(stream(49), sizes=(2, 3, 1))
    opt = Momentum(net.params(), momentum=0.9)
    before = [p.copy() for p in net.params()]
    opt.ascend(np.ones(sum(p.size for p in net.params())), lr=0.01)
    for b, p in zip(before, net.params()):
        assert np.max(np.abs(p - b - 0.01)) < 1e-15
    with pytest.raises(ValueError):
        Momentum(net.params(), momentum=1.0)
    with pytest.raises(ValueError) as err:
        Momentum([np.zeros((3, 4))[:, ::2]], momentum=0.9)
    assert str(err.value) == "parameters must be C-contiguous"
    with pytest.raises(ValueError):
        opt.ascend(np.ones(3), lr=0.1)
