"""Unit tests for the autodiff engine.

Forward values are compared against independent numpy oracles (nested-loop
convolution, hand unrolled optimizer steps); gradients are compared against
central finite differences through `engine.grad_check`.  The strided-slice
max-pool and the im2col conv forward must match the kernels they replaced
(kept here as oracles) byte for byte.
"""

import functools

import numpy as np
import pytest

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
    x = Tensor(RNG.normal(size=(2, 1, 4, 4)))  # raw data
    w = Tensor(RNG.normal(size=(3, 1, 3, 3)), requires_grad=True)
    out = E.conv2d(x, w)
    assert out._parents == (w,)
    (out * 2.0).sum().backward()
    assert x.grad is None and w.grad is not None
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
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _pool_bytes(pool, x, g):
    """Forward and input-gradient bytes of `pool` at x, upstream gradient g."""
    t = Tensor(x, requires_grad=True)
    out = pool(t)
    (out * E.constant(g)).sum().backward()
    return out.data.tobytes(), t.grad.tobytes()


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


def _conv_shapes(channels, input_shape, batch):
    c, h, w = input_shape
    for f in channels:
        yield (batch, c, h, w), (f, c, 3, 3)
        c, h, w = f, h // 2, w // 2


# every conv of the gate architecture [4, 8, 8, 16] and of the default
# architecture [16, 32, 32, 64] on 1x16x32 fingerprints, at the training
# batch (64) and the eval batch (256)
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


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------

def test_sgd_two_step_unroll():
    # v <- mu v + g + wd p ; p <- p - lr v, checked against hand algebra
    lr, mu, wd = 0.1, 0.9, 0.01
    p0 = np.array([1.0, -2.0])
    p = Tensor(p0.copy(), requires_grad=True)
    opt = SGD({"p": p}, lr=lr, momentum=mu, weight_decay=wd)

    g1 = np.array([0.5, 0.25])
    p.grad = g1.copy()
    opt.step()
    v1 = g1 + wd * p0
    p1 = p0 - lr * v1
    np.testing.assert_allclose(p.data, p1, atol=1e-15)

    g2 = np.array([-1.0, 2.0])
    p.grad = g2.copy()
    opt.step()
    v2 = mu * v1 + g2 + wd * p1
    np.testing.assert_allclose(p.data, p1 - lr * v2, atol=1e-15)


def test_sgd_no_momentum_prefix():
    # 0-d parameters (the hda log-variances) take plain steps
    p = Tensor(0.0, requires_grad=True)
    q = Tensor(np.array([0.0]), requires_grad=True)
    opt = SGD({"s": p, "w": q}, lr=1.0, momentum=0.5, weight_decay=0.0)
    for _ in range(2):
        p.grad = np.array(1.0)
        q.grad = np.array([1.0])
        opt.step()
    # plain steps: -1 each; momentum: -1 then -(0.5 + 1)
    np.testing.assert_allclose(p.data, -2.0, atol=1e-15)
    np.testing.assert_allclose(q.data, [-2.5], atol=1e-15)


def test_sgd_aborts_on_non_finite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.0, weight_decay=0.0)
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
