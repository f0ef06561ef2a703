"""Unit tests for the autodiff engine.

Forward values are compared against independent numpy oracles (nested-loop
convolution, hand unrolled optimizer steps); gradients are compared against
central finite differences through `engine.grad_check`.  The strided-slice
max-pool, the im2col conv forward and the fused batch-norm forward must
match the kernels they replaced (kept here as oracles) byte for byte; in
4-D training the batch-norm oracle is the composite over the channel rows
[C, B*H*W], which batch norm reduces.  The pool backward, routed by the
choices its forward made, must match the corner-compare backward it
replaced in bytes and strides.  The im2col/col2im conv gradients
and the closed-form batch-norm backward must match theirs to 1e-10.  The
conv that streams its eval columns through cache-sized blocks must match
the whole-batch im2col conv byte for byte, forward and gradients, in eval
and through a whole model's evaluation.  Evaluation in byte-sized batches
must give the bytes of one forward over the whole domain, and first
adjoints the bits of a zero fill plus an add.  Hypothesis draws small
random shapes for the batch-norm, conv, pool-routing and
broadcasting-gradient checks.
"""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semloc import engine as E
from semloc.engine import SGD, NonFinite, ShapeMismatch, Tensor, grad_check

RNG = np.random.default_rng(1234)


def weighted(out, c):
    """Non-degenerate scalar readout: sum(c * out)."""
    return (out * E.constant(c)).sum()


# ----------------------------------------------------------------------
# forward oracles
# ----------------------------------------------------------------------

def conv2d_oracle(x, w):
    """Nested-loop stride-1 "same" cross-correlation."""
    B, C, H, W = x.shape
    F, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((B, F, H, W))
    for b in range(B):
        for f in range(F):
            for i in range(H):
                for j in range(W):
                    out[b, f, i, j] = np.sum(
                        xp[b, :, i:i + kh, j:j + kw] * w[f])
    return out


def test_conv2d_matches_nested_loop_oracle():
    x = RNG.normal(size=(2, 3, 6, 7))
    w = RNG.normal(size=(4, 3, 3, 3))
    got = E.conv2d(Tensor(x), Tensor(w)).data
    want = conv2d_oracle(x, w)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=1e-13, rtol=1e-13)


def test_conv2d_shape_validation():
    with pytest.raises(ShapeMismatch):
        E.conv2d(Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))))
    with pytest.raises(ShapeMismatch):
        E.conv2d(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ShapeMismatch):
        E.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 2, 3))))


def test_max_pool2d_hand_case():
    x = np.array([[[[1.0, 2.0, 5.0, 3.0],
                    [4.0, 0.0, 1.0, 1.0],
                    [0.0, 0.0, 2.0, 9.0],
                    [7.0, 1.0, 0.0, 8.0]]]])
    out = E.max_pool2d(Tensor(x)).data
    np.testing.assert_array_equal(out, [[[[4.0, 5.0], [7.0, 9.0]]]])


def test_max_pool2d_odd_dims_rejected():
    with pytest.raises(ShapeMismatch):
        E.max_pool2d(Tensor(np.zeros((1, 1, 3, 4))))


def test_softmax_rows_normalized_and_shift_invariant():
    z = RNG.normal(size=(5, 7))
    s = E.softmax(Tensor(z)).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-14)
    s_shift = E.softmax(Tensor(z + 123.0)).data
    np.testing.assert_allclose(s, s_shift, atol=1e-12)
    np.testing.assert_allclose(np.log(s), E.log_softmax(Tensor(z)).data,
                               atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    z = np.array([[1000.0, 0.0, -1000.0]])
    s = E.softmax(Tensor(z)).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s[0, 0], 1.0, atol=1e-12)


def test_batch_norm_train_standardizes_per_channel():
    x = RNG.normal(loc=3.0, scale=2.5, size=(8, 4, 5, 5))
    g = Tensor(np.ones(4), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    rm, rv = np.zeros(4), np.ones(4)
    out = E.batch_norm(Tensor(x), g, b, rm, rv, training=True).data
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-6)


def test_batch_norm_running_stats_update():
    x = RNG.normal(size=(6, 3, 4, 4))
    rm, rv = np.zeros(3), np.ones(3)
    g = Tensor(np.ones(3)), Tensor(np.zeros(3))
    E.batch_norm(Tensor(x), g[0], g[1], rm, rv, training=True)
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))  # biased
    np.testing.assert_allclose(rm, 0.1 * mu, atol=1e-12)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * var, atol=1e-12)


def test_batch_norm_eval_is_affine_map_of_running_stats():
    x = RNG.normal(size=(4, 2, 3, 3))
    rm = np.array([0.3, -0.2])
    rv = np.array([1.5, 0.7])
    gamma, beta = np.array([2.0, 0.5]), np.array([0.1, -1.0])
    out = E.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm.copy(),
                       rv.copy(), training=False).data
    want = gamma.reshape(1, -1, 1, 1) * (x - rm.reshape(1, -1, 1, 1)) \
        / np.sqrt(rv.reshape(1, -1, 1, 1) + E.BN_EPS) \
        + beta.reshape(1, -1, 1, 1)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_kron_matches_numpy():
    a, b = RNG.normal(size=5), RNG.normal(size=3)
    np.testing.assert_allclose(E.kron(Tensor(a), Tensor(b)).data,
                               np.kron(a, b), atol=1e-14)


# ----------------------------------------------------------------------
# gradients against central differences
# ----------------------------------------------------------------------

def test_gradients_of_every_primitive():
    rng = np.random.default_rng(7)
    x4 = Tensor(rng.normal(size=(2, 2, 4, 6)), requires_grad=True)
    w4 = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.4, requires_grad=True)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    v = Tensor(rng.random(6) + 0.5, requires_grad=True)
    u = Tensor(rng.random(4) + 0.5, requires_grad=True)

    c_conv = rng.normal(size=(2, 3, 4, 6))
    c_pool = rng.normal(size=(2, 3, 2, 3))
    c_mat = rng.normal(size=(4, 3))
    c_a = rng.normal(size=(4, 5))
    c_v = rng.normal(size=6)
    c_kron = rng.normal(size=24)

    cases = {
        "add": (lambda: weighted(a + a * 2.0 + 1.0, c_a), {"a": a}),
        "sub": (lambda: weighted(a - a * 0.3, c_a), {"a": a}),
        "div": (lambda: weighted(E.constant(np.ones((4, 5))) / (a + 10.0), c_a),
                {"a": a}),
        "power": (lambda: weighted(E.power(v, 1.7), c_v), {"v": v}),
        "exp": (lambda: weighted(E.exp(a * 0.3), c_a), {"a": a}),
        "log": (lambda: weighted(E.log(v), c_v), {"v": v}),
        "square": (lambda: weighted(E.square(a), c_a), {"a": a}),
        "abs": (lambda: weighted(E.tabs(a), c_a), {"a": a}),
        "clip": (lambda: weighted(E.clip(a, -0.6, 0.6), c_a), {"a": a}),
        "relu": (lambda: weighted(E.relu(a), c_a), {"a": a}),
        "sigmoid": (lambda: weighted(E.sigmoid(a), c_a), {"a": a}),
        "softmax": (lambda: weighted(E.softmax(a), c_a), {"a": a}),
        "log_softmax": (lambda: weighted(E.log_softmax(a), c_a), {"a": a}),
        "matmul": (lambda: weighted(a @ b, c_mat), {"a": a, "b": b}),
        "sum_axis": (lambda: weighted(a.sum(axis=0), c_a[0]), {"a": a}),
        "mean_keepdims": (lambda: weighted(a.mean(axis=1, keepdims=True),
                                           c_a[:, :1]), {"a": a}),
        "reshape": (lambda: weighted(a.reshape(2, 10), c_a.reshape(2, 10)),
                    {"a": a}),
        "concat": (lambda: weighted(E.concat([a, a * 2.0], axis=1),
                                    np.tile(c_a, (1, 2))), {"a": a}),
        "kron": (lambda: weighted(E.kron(v, u), c_kron), {"v": v, "u": u}),
        "conv_same": (lambda: weighted(E.conv2d(x4, w4), c_conv),
                      {"x": x4, "w": w4}),
        "pool": (lambda: weighted(E.max_pool2d(E.conv2d(x4, w4)), c_pool),
                 {"x": x4, "w": w4}),
    }
    for name, (f, params) in cases.items():
        err = grad_check(f, params)
        assert err < 1e-6, f"{name}: relative gradient error {err:.3e}"


def test_batch_norm_gradient():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(5, 3, 2, 2)), requires_grad=True)
    g = Tensor(rng.random(3) + 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    c = rng.normal(size=(5, 3, 2, 2))

    def f():
        rm, rv = np.zeros(3), np.ones(3)
        return weighted(E.batch_norm(x, g, b, rm, rv, training=True), c)

    assert grad_check(f, {"x": x, "g": g, "b": b}) < 1e-6


def test_broadcast_gradient_shapes():
    a = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
    b = Tensor(RNG.normal(size=(1, 4)), requires_grad=True)
    (a * b).sum().backward()
    assert a.grad.shape == (3, 1) and b.grad.shape == (1, 4)
    np.testing.assert_allclose(a.grad, np.broadcast_to(b.data.sum(), (3, 1)))


def test_backward_twice_is_idempotent():
    a = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    loss = (E.square(a) * E.exp(a * 0.1)).sum()
    loss.backward()
    g1 = a.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(g1, a.grad)


def test_shared_subexpression_gradient():
    # f(x) = sum(x) * sum(x) -> df/dx_i = 2 * sum(x)
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    s = a.sum()
    (s * s).backward()
    np.testing.assert_allclose(a.grad, np.full(3, 12.0), atol=1e-12)


def test_backward_rejects_non_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        (a * 2.0).backward()


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_input_rejected():
    with pytest.raises(NonFinite):
        Tensor(np.array([1.0, np.nan]))
    a = Tensor(np.array([1e308]), requires_grad=True)
    with pytest.raises(NonFinite):
        (E.exp(a)).sum().backward()


def test_graph_records_only_parents_that_need_a_gradient():
    # conv0 reads the C = 1 raw data: its input gradient is skipped
    x = Tensor(RNG.normal(size=(2, 1, 4, 4)))
    w = Tensor(RNG.normal(size=(3, 1, 3, 3)), requires_grad=True)
    out = E.conv2d(x, w)
    assert out._parents == (w,)
    (out * 2.0).sum().backward()
    assert x.grad is None
    assert_grad_close(w.grad, conv2d_tensordot_grads(
        x.data, w.data, np.full(out.shape, 2.0))[0])
    c = E.constant(np.ones(3))
    assert (c * 2.0).requires_grad is False and (c * 2.0)._parents == ()


def test_no_grad_builds_no_graph_and_restores_recording():
    w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    x = RNG.normal(size=(4, 3))
    with E.no_grad():
        out = E.softmax(E.matmul(Tensor(x), w))
    assert out.requires_grad is False and out._parents == ()
    assert out._backward is None
    with pytest.raises(RuntimeError):
        with E.no_grad():
            raise RuntimeError("inside no_grad")
    out = E.matmul(Tensor(x), w)
    assert out.requires_grad and out._parents == (w,)
    out.sum().backward()
    np.testing.assert_array_equal(w.grad, x.T @ np.ones((4, 2)))


# ----------------------------------------------------------------------
# fast kernels against the kernels they replaced, byte for byte
# ----------------------------------------------------------------------

def max_pool2d_argmax(x, ties_to_last=False):
    """The argmax pool over a transposed copy that the strided-slice pool
    replaced; each window's gradient goes to its first maximum, or, in the
    mutant `ties_to_last` that the byte test must catch, to its last."""
    B, C, H, W = x.shape
    xr = x.data.reshape(B, C, H // 2, 2, W // 2, 2)
    xr = xr.transpose(0, 1, 2, 4, 3, 5).reshape(B, C, H // 2, W // 2, 4)
    idx = 3 - xr[..., ::-1].argmax(axis=-1) if ties_to_last \
        else xr.argmax(axis=-1)
    out_data = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]

    def _bw(g):
        g4 = np.zeros((B, C, H // 2, W // 2, 4))
        np.put_along_axis(g4, idx[..., None], g[..., None], axis=-1)
        gx = g4.reshape(B, C, H // 2, W // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        x._accumulate(gx.reshape(B, C, H, W))

    return Tensor(out_data, _parents=(x,), _backward=_bw)


def conv2d_tensordot(x, w):
    """The sliding-window tensordot forward that the im2col forward
    replaced."""
    kh, kw = w.shape[2:]
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def conv2d_tensordot_grads(x, w, g):
    """The sliding-window tensordot backward that the im2col/col2im
    backward replaced: the weight and input gradients of conv2d(x, w) for
    the upstream gradient g."""
    kh, kw = w.shape[2:]
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    H, W = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    gw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
    # input gradient: full correlation of g with the rotated kernel
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    gwin = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(2, 3))
    gx = np.tensordot(gwin, w[:, :, ::-1, ::-1], axes=([1, 4, 5], [0, 2, 3]))
    gx = gx.transpose(0, 3, 1, 2)[:, :, ph:ph + H, pw:pw + W]
    return gw, gx


def batch_norm_composite(x, gamma, beta, running_mean, running_var, *,
                         training, axes=None):
    """The batch norm built from engine primitives that the fused primitive
    replaced; its adjoints come from about ten graph nodes.  `axes` are the
    reduced axes, by default every axis but the channel axis 1."""
    if axes is None:
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
    bshape = tuple(1 if i in axes else -1 for i in range(x.ndim))
    if training:
        mu = E.tmean(x, axis=axes, keepdims=True)
        xc = x - mu
        var = E.tmean(E.square(xc), axis=axes, keepdims=True)
        running_mean *= 1.0 - E.BN_MOMENTUM
        running_mean += E.BN_MOMENTUM * mu.data.reshape(-1)
        running_var *= 1.0 - E.BN_MOMENTUM
        running_var += E.BN_MOMENTUM * var.data.reshape(-1)
        xhat = xc * E.power(var + E.BN_EPS, -0.5)
    else:
        rm = running_mean.reshape(bshape)
        rs = 1.0 / np.sqrt(running_var + E.BN_EPS)
        xhat = (x - E.constant(rm)) * E.constant(rs.reshape(bshape))
    return E.reshape(gamma, bshape) * xhat + E.reshape(beta, bshape)


def assert_grad_close(got, want):
    """Within rtol 1e-10; entries that cancel to about zero may differ by
    1e-12 of the largest entry, as summation order decides their last
    bits."""
    np.testing.assert_allclose(got, want, rtol=1e-10,
                               atol=1e-12 * np.abs(want).max())


def _pool_bytes(pool, x, g):
    """Forward and input-gradient bytes and strides of `pool` at x through
    Tensor.backward, upstream gradient g."""
    t = Tensor(x, requires_grad=True)
    out = pool(t)
    (out * E.constant(g)).sum().backward()
    return [(a.tobytes(), a.strides) for a in (out.data, t.grad)]


def _pool_cases():
    # -0.0 is left out: a pool input is batch-norm output, never -0.0, and
    # np.maximum need not keep the first of a +0.0/-0.0 tie as argmax does
    rng = np.random.default_rng(11)
    shape = (3, 4, 8, 16)
    g = rng.normal(size=(3, 4, 4, 8))
    return {"normal": (rng.normal(size=shape), g),
            "integer ties": (rng.integers(-2, 3, size=shape).astype(float), g),
            "all zero": (np.zeros(shape), g)}


def _pool_mismatches(pool):
    return [name for name, (x, g) in _pool_cases().items()
            if _pool_bytes(pool, x, g) != _pool_bytes(max_pool2d_argmax, x, g)]


def test_max_pool2d_is_byte_equal_to_argmax_pool():
    assert _pool_mismatches(E.max_pool2d) == []


def test_pool_oracle_catches_ties_routed_to_last_maximum():
    mutant = functools.partial(max_pool2d_argmax, ties_to_last=True)
    assert _pool_mismatches(mutant) == ["integer ties", "all zero"]


def max_pool2d_argmax_backward(x, prefer_last=False):
    """The strided pool with the backward that routing by the forward's
    choices replaced: it compares each corner with the output and gives
    each window's gradient to its first maximum, or, in the mutant
    `prefer_last` that the routing test must catch, to its last."""
    d = x.data
    cmax = np.maximum(d[:, :, :, 0::2], d[:, :, :, 1::2])
    out_data = np.maximum(cmax[:, :, 0::2], cmax[:, :, 1::2])

    def _bw(g):
        corners = [d[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
        gx = np.empty_like(d)
        taken = np.zeros_like(out_data, dtype=bool)
        for k in (3, 2, 1, 0) if prefer_last else (0, 1, 2, 3):
            hit = (corners[k] == out_data) & ~taken
            gx[:, :, k // 2::2, k % 2::2] = np.where(hit, g, 0.0)
            taken |= hit
        x._accumulate(gx)

    return Tensor(out_data, _parents=(x,), _backward=_bw)


def _routing_cases():
    """The pool cases plus windows of one repeated value, each in batch-
    and channel-major memory (as conv2d returns it), under g and under a
    g of -0.0 and negative values."""
    cases = _pool_cases()
    x, g = cases["integer ties"]
    cases["constant windows"] = (
        np.repeat(np.repeat(x[:, :, ::2, ::2], 2, axis=2), 2, axis=3), g)
    rng = np.random.default_rng(13)
    out = {}
    for name, (x, g) in cases.items():
        cm = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        signed = np.where(rng.random(g.shape) < 0.3, -0.0, -np.abs(g))
        for layout, xl in (("batch-major", x), ("channel-major", cm)):
            for gname, gl in (("g", g), ("g -0.0 and negative", signed)):
                out[f"{name}, {layout}, {gname}"] = (xl, gl)
    return out


def _routing_mismatches(pool):
    return [name for name, (x, g) in _routing_cases().items()
            if _pool_bytes(pool, x, g)
            != _pool_bytes(max_pool2d_argmax_backward, x, g)]


def test_max_pool2d_routing_is_byte_equal_to_corner_compares():
    assert _routing_mismatches(E.max_pool2d) == []


def test_routing_oracle_catches_a_pool_that_prefers_the_last_maximum():
    mutant = functools.partial(max_pool2d_argmax_backward, prefer_last=True)
    got = _routing_mismatches(mutant)
    assert got == [n for n in _routing_cases() if not n.startswith("normal")]


def _accumulate_zero_filled(self, g):
    """The first-adjoint form the one-pass add replaced: a zero fill, then
    an add into it."""
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += E._unbroadcast(np.asarray(g, dtype=np.float64), self.data.shape)


def _adjoint_bytes(pool):
    """Gradient bytes and strides of a -0.0 first adjoint, of a broadcast
    one into a channel-major buffer, and of `pool`'s input gradient where g
    holds -0.0 entries."""
    rng = np.random.default_rng(12)
    signed_zero = Tensor(np.ones(4), requires_grad=True)
    signed_zero._accumulate(np.array([-0.0, 0.0, -1.0, 2.0]))
    cm = Tensor(rng.normal(size=(3, 2, 4, 4)).transpose(1, 0, 2, 3),
                requires_grad=True)
    cm._accumulate(-0.0 * rng.normal(size=(2, 2, 3, 4, 4)))
    x, g = _pool_cases()["integer ties"]
    g = np.where(rng.random(g.shape) < 0.5, -0.0, g)
    pooled = Tensor(x, requires_grad=True)
    (pool(pooled) * E.constant(g)).sum().backward()
    return [(t.grad.tobytes(), t.grad.strides)
            for t in (signed_zero, cm, pooled)]


def test_adjoints_are_byte_equal_to_zero_filled_accumulation(monkeypatch):
    got = _adjoint_bytes(E.max_pool2d)
    monkeypatch.setattr(Tensor, "_accumulate", _accumulate_zero_filled)
    assert got == _adjoint_bytes(max_pool2d_argmax)


def _conv_shapes(channels, input_shape, batch):
    c, h, w = input_shape
    for f in channels:
        yield (batch, c, h, w), (f, c, 3, 3)
        c, h, w = f, h // 2, w // 2


# every conv of the gate architecture [4, 8, 8, 16] and of the default
# architecture [16, 32, 32, 64] on 1x16x32 fingerprints, at the training
# batch (64, also the default architecture's eval batch) and the gate
# architecture's eval batch (256)
CONV_SHAPES = [s for batch in (64, 256)
               for channels in ([4, 8, 8, 16], [16, 32, 32, 64])
               for s in _conv_shapes(channels, (1, 16, 32), batch)]


@pytest.mark.parametrize("x_shape,w_shape", CONV_SHAPES)
def test_conv2d_forward_is_byte_equal_to_tensordot(x_shape, w_shape):
    rng = np.random.default_rng(5)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape) * 0.3
    got = E.conv2d(Tensor(x), Tensor(w)).data
    assert got.tobytes() == conv2d_tensordot(x, w).tobytes()


def _conv_grads(x, w, g):
    """Weight and input gradients of conv2d(x, w), upstream gradient g."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    (E.conv2d(xt, wt) * E.constant(g)).sum().backward()
    return wt.grad, xt.grad


@pytest.mark.parametrize("x_shape,w_shape",
                         [s for s in CONV_SHAPES if s[0][0] == 64])
def test_conv2d_gradients_match_tensordot(x_shape, w_shape):
    rng = np.random.default_rng(6)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape) * 0.3
    g = rng.normal(size=(x_shape[0], w_shape[0]) + x_shape[2:])
    gw, gx = _conv_grads(x, w, g)
    want_gw, want_gx = conv2d_tensordot_grads(x, w, g)
    assert_grad_close(gw, want_gw)
    assert_grad_close(gx, want_gx)


def _bn_run(bn, x, gamma, beta, rm, rv, g, training):
    """Output, running stats and the (x, gamma, beta) gradients of `bn`."""
    rm, rv = rm.copy(), rv.copy()
    xt = Tensor(x, requires_grad=True)
    gt, bt = (Tensor(gamma, requires_grad=True),
              Tensor(beta, requires_grad=True))
    out = bn(xt, gt, bt, rm, rv, training=training)
    (out * E.constant(g)).sum().backward()
    return out.data, rm, rv, (xt.grad, gt.grad, bt.grad)


def _bn_case(rng, shape):
    c = shape[1]
    return (rng.normal(loc=1.0, scale=2.0, size=shape), rng.random(c) + 0.5,
            rng.normal(size=c), rng.normal(size=c), rng.random(c) + 0.5,
            rng.normal(size=shape))


def _channel_rows(a):
    """[B, C, H, W] -> its C-contiguous channel rows [C, B*H*W]."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1))


def _check_bn_against_composite(case, training):
    got = _bn_run(E.batch_norm, *case, training)
    want = _bn_run(batch_norm_composite, *case, training)
    x, gamma, beta, rm, rv, g = case
    if training and x.ndim == 4:
        # 4-D training sums each channel's contiguous row, so its output
        # and running stats are those of the composite over [C, B*H*W]
        # rows; the gradients are still held to the [B, C, H, W] composite
        B, C, H, W = x.shape
        out, rm, rv, _ = _bn_run(
            functools.partial(batch_norm_composite, axes=(1,)),
            _channel_rows(x), gamma, beta, rm, rv, _channel_rows(g), training)
        want = (out.reshape(C, B, H, W).transpose(1, 0, 2, 3), rm, rv, want[3])
    for a, b in zip(got[:3], want[:3]):  # output and running stats
        assert a.tobytes() == b.tobytes()
    for a, b in zip(got[3], want[3]):
        assert_grad_close(a, b)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", [(64, 4, 16, 32), (5, 3, 2, 2), (64, 32),
                                   (7, 5)])
def test_batch_norm_matches_composite(shape, training):
    _check_bn_against_composite(_bn_case(np.random.default_rng(3), shape),
                                training)


def conv2d_whole_batch(x, w):
    """The im2col conv that the streamed eval forward replaced: one
    zero-filled whole-batch [C, kh, kw, B, H, W] cols buffer and one
    [F, K] @ [K, B*H*W] matmul, with the im2col/col2im backward that
    training still runs."""
    x, w = E._lift(x), E._lift(w)
    kh, kw = w.shape[2], w.shape[3]
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    B, C, H, W = x.shape
    F = w.shape[0]
    xt = x.data.transpose(1, 0, 2, 3)
    cols = np.zeros((C, kh, kw, B, H, W))
    for i in range(kh):
        for j in range(kw):
            h, v = H - abs(i - ph), W - abs(j - pw)
            if h <= 0 or v <= 0:
                continue
            y, z = max(ph - i, 0), max(pw - j, 0)
            sy, sz = max(i - ph, 0), max(j - pw, 0)
            cols[:, i, j, :, y:y + h, z:z + v] = xt[:, :, sy:sy + h, sz:sz + v]
    out_data = (w.data.reshape(F, -1) @ cols.reshape(C * kh * kw, -1)
                ).reshape(F, B, H, W).transpose(1, 0, 2, 3)

    def _bw(g):
        gt = g.transpose(1, 0, 2, 3).reshape(F, -1)
        w._accumulate((gt @ cols.reshape(C * kh * kw, -1).T).reshape(w.shape))
        if not x.requires_grad:
            return
        gcols = (w.data.reshape(F, -1).T @ gt).reshape(C, kh, kw, B, H, W)
        gxp = np.zeros((C, B, H + 2 * ph, W + 2 * pw))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + H, j:j + W] += gcols[:, i, j]
        x._accumulate(gxp[:, :, ph:ph + H, pw:pw + W].transpose(1, 0, 2, 3))

    return Tensor(out_data, _parents=(x, w), _backward=_bw)


def _block_samples(x_shape, w_shape):
    """Samples per eval im2col block, before clipping to [1, B]."""
    _, c, h, w = x_shape
    return E._BLOCK_BYTES // (c * w_shape[2] * w_shape[3] * h * w * 8)


# (x shape, w shape) at the edges of the streamed eval forward
_NB = _block_samples((1, 4, 8, 16), (5, 4, 3, 3))
STREAM_CASES = {
    "ragged last block": ((2 * _NB + 3, 4, 8, 16), (5, 4, 3, 3)),
    "one sample": ((1, 3, 6, 10), (4, 3, 3, 3)),
    "one sample over a block": ((3, 8, 48, 48), (2, 8, 3, 3)),
    "kernel past the whole input": ((7, 2, 2, 3), (3, 2, 5, 7)),
}


def test_stream_cases_reach_their_edges():
    b = STREAM_CASES["ragged last block"][0][0]
    assert b // _NB >= 2 and b % _NB
    # nb is clipped up to 1
    assert _block_samples(*STREAM_CASES["one sample over a block"]) == 0


def _conv_run(conv, x, w, g):
    """Forward bytes in eval, then forward, weight- and input-gradient
    bytes with grad."""
    with E.no_grad():
        evaluated = conv(Tensor(x), Tensor(w, requires_grad=True)).data
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv(xt, wt)
    (out * E.constant(g)).sum().backward()
    return {"eval": evaluated.tobytes(), "train": out.data.tobytes(),
            "w grad": wt.grad.tobytes(), "x grad": xt.grad.tobytes()}


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_conv2d_streamed_eval_is_byte_equal_to_whole_batch(case):
    x_shape, w_shape = STREAM_CASES[case]
    rng = np.random.default_rng(7)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    g = rng.normal(size=(x_shape[0], w_shape[0]) + x_shape[2:])
    got = _conv_run(E.conv2d, x, w, g)
    want = _conv_run(conv2d_whole_batch, x, w, g)
    assert [k for k in got if got[k] != want[k]] == []


def test_conv2d_eval_peak_memory_stays_near_its_output():
    # the default architecture's conv1 at a batch of 256, whose whole-batch
    # cols would take 144 x 256*8*16 doubles: 37.7 MB
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(256, 16, 8, 16)))
    w = Tensor(rng.normal(size=(32, 16, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        with E.no_grad():
            out = E.conv2d(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.data.nbytes + out.data.nbytes + 4 * E._BLOCK_BYTES, peak


def _perturbed_model(input_shape):
    """A default-architecture model whose batch-norm parameters and running
    statistics are moved off their initial values."""
    from semloc.models import ArchConfig, Model

    model = Model(ArchConfig(input_shape=input_shape), seed=3)
    rng = np.random.default_rng(9)
    for name, stat in model.running.items():
        stat[:] = (rng.uniform(0.5, 2.0, stat.shape) if name.endswith(".var")
                   else rng.normal(scale=0.3, size=stat.shape))
    for name, p in model.params.items():
        if ".bn." in name:
            p.data += rng.normal(scale=0.2, size=p.shape)
    return model


def _random_domain(n, input_shape):
    from semloc import training

    rng = np.random.default_rng(10)
    return training.DomainData(
        inputs=rng.normal(size=(n, *input_shape)),
        coords=rng.normal(size=(n, 3)), labels=rng.integers(0, 3, n),
        is_source=False)


def test_eval_through_the_streamed_conv_is_byte_equal_to_whole_batch(
        monkeypatch):
    from semloc import training

    model = _perturbed_model((1, 16, 32))
    # eval batches of 56, 56, 56, 56, 56 and 53 rows; conv0 streams each
    # in blocks of 28 rows, the last of 53 ragged
    domain = _random_domain(333, (1, 16, 32))
    got = training.evaluate_arrays(model, domain).errors
    monkeypatch.setattr(E, "conv2d", conv2d_whole_batch)
    want = training.evaluate_arrays(model, domain).errors
    assert got.tobytes() == want.tobytes()


def test_eval_bytes_do_not_depend_on_batching():
    # n = b + 1 and 2b + 1 leave a row after the last whole 8-row tile;
    # 257 once ended in a one-row batch of 256 + 1, whose matmuls round
    # differently from the same row in a larger batch
    from semloc import training

    model = _perturbed_model((1, 16, 32))
    b = training.EVAL_BATCH_BYTES // model.arch.peak_activation_bytes()
    assert b == 64
    for n in (b + 1, 2 * b + 1, 257):
        domain = _random_domain(n, (1, 16, 32))
        got = training.evaluate_arrays(model, domain).errors
        with E.no_grad():
            out = model.forward(domain.inputs, train=False)
        want = np.sort(np.linalg.norm(out.coords.data - domain.coords, axis=1))
        assert got.tobytes() == want.tobytes(), n


def test_eval_peak_memory_is_bounded_by_the_batch_budget():
    # 40 full-scale samples in one batch hold a 21 MB conv0 output and its
    # 10.5 MB column-pair max, the pool's first pass, at once; batches of 8
    # hold 4 MiB of conv output and 2 MiB of column-pair max
    from semloc import training

    model = _perturbed_model((1, 64, 64))
    domain = _random_domain(40, (1, 64, 64))
    tracemalloc.start()
    try:
        m = training.evaluate_arrays(model, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = m.errors.nbytes + domain.coords.nbytes + domain.labels.nbytes
    budget = training.EVAL_BATCH_BYTES
    assert peak <= domain.inputs.nbytes + outputs + 4 * budget, peak


# ----------------------------------------------------------------------
# property tests: random small shapes (derandomized, so tier-1 stays
# deterministic)
# ----------------------------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def bn_shapes(draw):
    """2-D [B, C] or 4-D [B, C, H, W], at least 4 values per channel so the
    batch statistics are not degenerate."""
    c = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return (draw(st.integers(4, 9)), c)
    shape = (draw(st.integers(1, 3)), c, draw(st.integers(1, 4)),
             draw(st.integers(1, 4)))
    return shape if shape[0] * shape[2] * shape[3] >= 4 else (4,) + shape[1:]


@PROPERTY
@given(shape=bn_shapes(), seed=SEEDS)
def test_property_batch_norm_matches_composite_and_finite_differences(
        shape, seed):
    case = _bn_case(np.random.default_rng(seed), shape)
    _check_bn_against_composite(case, training=True)
    x, gamma, beta, _, _, c = case
    params = {"x": Tensor(x, requires_grad=True),
              "gamma": Tensor(gamma, requires_grad=True),
              "beta": Tensor(beta, requires_grad=True)}

    def f():
        rm, rv = np.zeros(shape[1]), np.ones(shape[1])
        return weighted(E.batch_norm(*params.values(), rm, rv,
                                     training=True), c)

    assert grad_check(f, params) < 1e-6


@PROPERTY
@given(b=st.integers(1, 2), c=st.integers(1, 3), f=st.integers(1, 3),
       h=st.integers(1, 5), w=st.integers(1, 5),
       kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]),
       seed=SEEDS)
def test_property_conv2d_matches_tensordot_and_finite_differences(
        b, c, f, h, w, kh, kw, seed):
    rng = np.random.default_rng(seed)
    x, k = rng.normal(size=(b, c, h, w)), rng.normal(size=(f, c, kh, kw))
    g = rng.normal(size=(b, f, h, w))
    np.testing.assert_allclose(E.conv2d(Tensor(x), Tensor(k)).data,
                               conv2d_tensordot(x, k), rtol=1e-12,
                               atol=1e-12)
    gk, gx = _conv_grads(x, k, g)
    want_gk, want_gx = conv2d_tensordot_grads(x, k, g)
    assert_grad_close(gk, want_gk)
    assert_grad_close(gx, want_gx)
    params = {"x": Tensor(x, requires_grad=True),
              "w": Tensor(k, requires_grad=True)}
    assert grad_check(lambda: weighted(E.conv2d(*params.values()), g),
                      params) < 1e-6


@PROPERTY
@given(b=st.integers(1, 9), c=st.integers(1, 3), f=st.integers(1, 3),
       h=st.integers(1, 5), w=st.integers(1, 5),
       kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]),
       block=st.integers(1, 4), seed=SEEDS)
def test_property_conv2d_streamed_blocks_match_whole_batch(
        b, c, f, h, w, kh, kw, block, seed):
    # multiples of 1/8 in [-4, 4]: every product and partial sum is exact,
    # so any drawn example passes or fails the same way in any selection
    rng = np.random.default_rng(seed)
    x, k, g = (rng.integers(-32, 33, size=s) / 8.0
               for s in ((b, c, h, w), (f, c, kh, kw), (b, f, h, w)))
    # blocks of `block` samples, so small shapes stream through several
    with mock.patch.object(E, "_BLOCK_BYTES", block * c * kh * kw * h * w * 8):
        got = _conv_run(E.conv2d, x, k, g)
    assert got == _conv_run(conv2d_whole_batch, x, k, g)


@PROPERTY
@given(b=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 4),
       w=st.integers(1, 4), channel_major=st.booleans(), seed=SEEDS)
def test_property_max_pool2d_routing_matches_corner_compares(
        b, c, h, w, channel_major, seed):
    # a lattice of 5 values gives many ties, and halves of g with -0.0 in
    # it are exact, so any drawn example passes or fails the same way in
    # any selection
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(c, b, 2 * h, 2 * w)) / 2.0
    x = x.transpose(1, 0, 2, 3)
    if not channel_major:
        x = np.ascontiguousarray(x)
    g = rng.integers(-3, 4, size=(b, c, h, w)) / 2.0
    g[g == 0] = -0.0
    assert (_pool_bytes(E.max_pool2d, x, g)
            == _pool_bytes(max_pool2d_argmax_backward, x, g))


@st.composite
def broadcast_shapes(draw):
    """A full shape and one that broadcasts to it: some leading axes
    missing, some of the others of size 1."""
    full = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rest = full[draw(st.integers(0, len(full))):]
    return full, tuple(1 if draw(st.booleans()) else n for n in rest)


@PROPERTY
@given(op=st.sampled_from([E.add, E.mul, E.div]), shapes=broadcast_shapes(),
       small_first=st.booleans(), seed=SEEDS)
def test_property_broadcast_gradients_match_finite_differences(
        op, shapes, small_first, seed):
    rng = np.random.default_rng(seed)
    full, small = shapes
    a_shape, b_shape = (small, full) if small_first else (full, small)
    # the divisor stays in +-[0.5, 2], away from zero
    params = {"a": Tensor(rng.normal(size=a_shape), requires_grad=True),
              "b": Tensor(rng.choice([-1.0, 1.0], size=b_shape)
                          * rng.uniform(0.5, 2.0, size=b_shape),
                          requires_grad=True)}
    c = rng.normal(size=full)
    assert grad_check(lambda: weighted(op(*params.values()), c),
                      params) < 1e-6
    for p in params.values():
        assert p.grad.shape == p.data.shape


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------

def test_sgd_two_step_unroll():
    # v <- mu v + g ; p <- p - lr v, checked against hand algebra
    lr, mu = 0.1, 0.9
    p0 = np.array([1.0, -2.0])
    p = Tensor(p0.copy(), requires_grad=True)
    opt = SGD({"p": p}, lr=lr, momentum=mu)

    g1 = np.array([0.5, 0.25])
    p.grad = g1.copy()
    opt.step()
    v1 = g1
    p1 = p0 - lr * v1
    np.testing.assert_allclose(p.data, p1, atol=1e-15)

    g2 = np.array([-1.0, 2.0])
    p.grad = g2.copy()
    opt.step()
    v2 = mu * v1 + g2
    np.testing.assert_allclose(p.data, p1 - lr * v2, atol=1e-15)


def test_sgd_no_momentum_prefix():
    # 0-d parameters (the hda log-variances) take plain steps
    p = Tensor(0.0, requires_grad=True)
    q = Tensor(np.array([0.0]), requires_grad=True)
    opt = SGD({"s": p, "w": q}, lr=1.0, momentum=0.5)
    for _ in range(2):
        p.grad = np.array(1.0)
        q.grad = np.array([1.0])
        opt.step()
    # plain steps: -1 each; momentum: -1 then -(0.5 + 1)
    np.testing.assert_allclose(p.data, -2.0, atol=1e-15)
    np.testing.assert_allclose(q.data, [-2.5], atol=1e-15)


def test_sgd_aborts_on_non_finite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.0)
    p.grad = np.array([np.inf])
    with pytest.raises(NonFinite):
        opt.step()


def test_grad_check_flags_wrong_gradient():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def bad():
        out = E.square(a).sum()
        # sabotage: graft a wrong backward onto a fresh node
        t = Tensor(out.data, _parents=(a,),
                   _backward=lambda g: a._accumulate(3.0 * a.data * g))
        t.requires_grad = True
        return t

    assert grad_check(bad, {"a": a}) > 1e-2
