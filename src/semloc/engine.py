"""Minimal dense-tensor reverse-mode automatic differentiation engine.

Everything runs on float64 numpy arrays.  The primitive set is exactly
what the localization networks and losses need: matmul, conv2d,
max_pool2d, batch_norm, relu, sigmoid, (log_)softmax, elementwise
arithmetic, reductions, concat and a vector Kronecker product.  Each
primitive registers a closure that propagates adjoints to the parents
that need a gradient; ``Tensor.backward`` walks the graph once in reverse
topological order.  Inside ``no_grad()`` no graph is built at all.

Finiteness is checked at the boundaries only: leaf tensors (user data,
parameters, lifted constants), the loss in ``backward``, and the
gradients and parameters in ``SGD.step``.  Intermediate values are not
checked; a non-finite one reaches the loss, or the caller's check of a
forward output.
"""

from __future__ import annotations

import contextlib

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class NonFinite(FloatingPointError):
    """A primitive produced (or received) NaN/Inf values."""


def _check_finite(a, what="tensor"):
    # a finite sum implies all-finite entries (inf - inf propagates as nan),
    # and summing is cheaper than materializing an isfinite mask
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.sum(a)):
            raise NonFinite(f"non-finite values in {what}")


_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: new tensors keep no parents and no
    backward closure.  The previous state returns on exit, also on error."""
    saved = _GRAD_ENABLED[0]
    _GRAD_ENABLED[0] = False
    try:
        yield
    finally:
        _GRAD_ENABLED[0] = saved


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, (gdim, sdim) in enumerate(zip(grad.shape, shape)):
        if sdim == 1 and gdim != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not _parents:
            _check_finite(self.data)
        self.grad = None
        # only parents that need a gradient are recorded, so backward never
        # visits (or accumulates into) data and constants
        _parents = (tuple(p for p in _parents if p.requires_grad)
                    if _GRAD_ENABLED[0] else ())
        self.requires_grad = bool(requires_grad) or bool(_parents)
        self._parents = _parents
        self._backward = _backward if _parents else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def _accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(np.asarray(g, dtype=np.float64), self.data.shape)

    def backward(self):
        """Populate .grad on every requires_grad leaf reachable from self.

        `self` must be a finite scalar.  Grads of the reachable graph are
        reset first, so calling backward twice gives identical results.
        """
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar loss")
        _check_finite(self.data, "loss")

        # Iterative post-order topological sort.
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return mul(self, _lift(-1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(x):
    """Wrap a numpy array / scalar as a non-differentiable Tensor."""
    return _lift(x)


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------

def add(a, b):
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data + b.data, _parents=(a, b),
                 _backward=lambda g: (a._accumulate(g), b._accumulate(g)))
    return out


def sub(a, b):
    a, b = _lift(a), _lift(b)
    return Tensor(a.data - b.data, _parents=(a, b),
                  _backward=lambda g: (a._accumulate(g), b._accumulate(-g)))


def mul(a, b):
    a, b = _lift(a), _lift(b)
    return Tensor(a.data * b.data, _parents=(a, b),
                  _backward=lambda g: (a._accumulate(g * b.data),
                                       b._accumulate(g * a.data)))


def div(a, b):
    a, b = _lift(a), _lift(b)
    return Tensor(a.data / b.data, _parents=(a, b),
                  _backward=lambda g: (a._accumulate(g / b.data),
                                       b._accumulate(-g * a.data / b.data ** 2)))


def power(a, exponent):
    a = _lift(a)
    c = float(exponent)
    out_data = a.data ** c

    def _bw(g):
        a._accumulate(g * c * a.data ** (c - 1.0))

    return Tensor(out_data, _parents=(a,), _backward=_bw)


def exp(a):
    a = _lift(a)
    out_data = np.exp(a.data)
    return Tensor(out_data, _parents=(a,),
                  _backward=lambda g: a._accumulate(g * out_data))


def log(a):
    a = _lift(a)
    return Tensor(np.log(a.data), _parents=(a,),
                  _backward=lambda g: a._accumulate(g / a.data))


def square(a):
    a = _lift(a)
    return Tensor(a.data ** 2, _parents=(a,),
                  _backward=lambda g: a._accumulate(2.0 * g * a.data))


def tabs(a):
    a = _lift(a)
    return Tensor(np.abs(a.data), _parents=(a,),
                  _backward=lambda g: a._accumulate(g * np.sign(a.data)))


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient passes through in the interior."""
    a = _lift(a)
    out_data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return Tensor(out_data, _parents=(a,),
                  _backward=lambda g: a._accumulate(g * mask))


def relu(a):
    a = _lift(a)
    mask = a.data > 0
    return Tensor(a.data * mask, _parents=(a,),
                  _backward=lambda g: a._accumulate(g * mask))


def sigmoid(a):
    a = _lift(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(s, _parents=(a,),
                  _backward=lambda g: a._accumulate(g * s * (1.0 - s)))


# ----------------------------------------------------------------------
# reductions / shape ops
# ----------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _lift(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def _bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, tuple(ax % a.data.ndim for ax in axes))
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor(out_data, _parents=(a,), _backward=_bw)


def tmean(a, axis=None, keepdims=False):
    a = _lift(a)
    if axis is None:
        n = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([a.data.shape[ax] for ax in axes]))
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def reshape(a, shape):
    a = _lift(a)
    shape = (shape,) if isinstance(shape, int) else tuple(int(s) for s in shape)
    return Tensor(a.data.reshape(shape), _parents=(a,),
                  _backward=lambda g: a._accumulate(g.reshape(a.data.shape)))


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return Tensor(out_data, _parents=tuple(tensors), _backward=_bw)


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------

def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    return Tensor(a.data @ b.data, _parents=(a, b),
                  _backward=lambda g: (a._accumulate(g @ b.data.T),
                                       b._accumulate(a.data.T @ g)))


def kron(a, b):
    """Kronecker product of two 1-D vectors."""
    a, b = _lift(a), _lift(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeMismatch("kron expects 1-D vectors")
    out_data = np.kron(a.data, b.data)

    def _bw(g):
        gm = g.reshape(a.data.size, b.data.size)
        a._accumulate(gm @ b.data)
        b._accumulate(a.data @ gm)

    return Tensor(out_data, _parents=(a, b), _backward=_bw)


# ----------------------------------------------------------------------
# softmax family (last axis, max-subtraction stabilized)
# ----------------------------------------------------------------------

def softmax(a):
    a = _lift(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        a._accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return Tensor(s, _parents=(a,), _backward=_bw)


def log_softmax(a):
    """Fused, numerically stable log(softmax(x)) along the last axis."""
    a = _lift(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out_data = z - lse
    s = np.exp(out_data)

    def _bw(g):
        a._accumulate(g - s * g.sum(axis=-1, keepdims=True))

    return Tensor(out_data, _parents=(a,), _backward=_bw)


# ----------------------------------------------------------------------
# convolution / pooling
# ----------------------------------------------------------------------

def conv2d(x, w):
    """2-D "same" convolution (cross-correlation), stride 1, no bias.

    x: [B, C, H, W]; w: [F, C, kh, kw] with odd kh and kw.
    """
    x, w = _lift(x), _lift(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch("conv2d expects 4-D input and kernel")
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatch("conv2d channel mismatch")
    kh, kw = w.shape[2], w.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatch("same padding requires odd kernels")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    B, C, H, W = x.shape
    F = w.shape[0]

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # K-major im2col (Chellapilla et al., 2006): cols[c, i, j] is the input
    # shifted by (i, j), so the forward is one [F, K] @ [K, B*H*W] matmul
    xt = xp.transpose(1, 0, 2, 3)
    cols = np.empty((C, kh, kw, B, H, W))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xt[:, :, i:i + H, j:j + W]
    out_data = w.data.reshape(F, -1) @ cols.reshape(C * kh * kw, -1)
    out_data = np.ascontiguousarray(
        out_data.reshape(F, B, H, W).transpose(1, 0, 2, 3))

    def _bw(g):
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        # win: [B, C, Ho, Wo, kh, kw]
        gw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))  # [F,C,kh,kw]
        w._accumulate(gw)
        if not x.requires_grad:  # raw input data: nobody reads its gradient
            return
        # input gradient: full correlation of g with the rotated kernel
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        gwin = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(2, 3))
        wrot = w.data[:, :, ::-1, ::-1]
        gx = np.tensordot(gwin, wrot, axes=([1, 4, 5], [0, 2, 3]))
        gx = gx.transpose(0, 3, 1, 2)
        if ph or pw:
            gx = gx[:, :, ph:ph + H, pw:pw + W]
        x._accumulate(gx)

    return Tensor(out_data, _parents=(x, w), _backward=_bw)


def max_pool2d(x):
    """2x2 max pooling, stride 2.  Spatial dims must be even."""
    x = _lift(x)
    if x.ndim != 4:
        raise ShapeMismatch("max_pool2d expects [B, C, H, W]")
    B, C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeMismatch("max_pool2d requires even spatial dims")
    d = x.data
    # the four window corners in row-major window order (00, 01, 10, 11)
    corners = [d[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    # np.maximum may not keep the first of a +0.0/-0.0 tie, but a pool input
    # is batch-norm output gamma*xhat + beta, which is never -0.0
    out_data = np.maximum(np.maximum(corners[0], corners[1]),
                          np.maximum(corners[2], corners[3]))

    def _bw(g):
        # each window's gradient goes to its first maximum, as argmax picks
        gx = np.zeros_like(d)
        taken = np.zeros(out_data.shape, dtype=bool)
        for k, c in enumerate(corners):
            hit = (c == out_data) & ~taken
            gx[:, :, k // 2::2, k % 2::2] = np.where(hit, g, 0.0)
            taken |= hit
        x._accumulate(gx)

    return Tensor(out_data, _parents=(x,), _backward=_bw)


# ----------------------------------------------------------------------
# batch normalization (composite; adjoints come from the primitives)
# ----------------------------------------------------------------------

BN_EPS = 1e-8
BN_MOMENTUM = 0.1  # weight of the batch statistics in the running estimate


def batch_norm(x, gamma, beta, running_mean, running_var, *, training):
    """Per-channel batch normalization.

    4-D input normalizes over (batch, H, W); 2-D input over the batch
    axis.  In training mode the batch statistics are used and the plain
    numpy arrays `running_mean` / `running_var` are updated in place; in
    eval mode the op is a deterministic affine map of the running stats.
    """
    x = _lift(x)
    if x.ndim == 4:
        axes, bshape = (0, 2, 3), (1, -1, 1, 1)
    elif x.ndim == 2:
        axes, bshape = (0,), (1, -1)
    else:
        raise ShapeMismatch("batch_norm expects 2-D or 4-D input")

    if training:
        mu = tmean(x, axis=axes, keepdims=True)
        xc = x - mu
        var = tmean(square(xc), axis=axes, keepdims=True)
        # biased batch variance, folded into the running estimate
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu.data.reshape(-1)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.data.reshape(-1)
        xhat = xc * power(var + BN_EPS, -0.5)
    else:
        rm = running_mean.reshape(bshape)
        rs = 1.0 / np.sqrt(running_var + BN_EPS)
        xhat = (x - constant(rm)) * constant(rs.reshape(bshape))
    return reshape(gamma, bshape) * xhat + reshape(beta, bshape)


# ----------------------------------------------------------------------
# optimizer and gradient checker
# ----------------------------------------------------------------------

class SGD:
    """SGD with classical momentum and L2 weight decay as a gradient term.

    v <- momentum * v + grad + weight_decay * p ;  p <- p - lr * v

    0-d parameters (the hda log-variances) take plain gradient steps:
    momentum would scale their effective step by ~1/(1-momentum) and
    overshoot badly.
    """

    def __init__(self, params, lr=1e-3, momentum=0.99, weight_decay=1e-4):
        # params: dict name -> Tensor
        self.params = dict(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            _check_finite(g, f"gradient of {name}")
            v = self.velocity[name]
            v *= self.momentum if p.data.ndim else 0.0
            v += g + self.weight_decay * p.data
            p.data -= self.lr * v
            _check_finite(p.data, f"parameter {name}")


def grad_check(f, params, h=1e-5):
    """Compare analytic gradients of scalar f() against central differences.

    `params` is a dict name -> Tensor; f rebuilds the graph on every call
    and must be deterministic.  Returns the max relative error with
    denominator max(|analytic|, |numeric|, 1e-8).
    """
    for p in params.values():
        p.grad = None
    loss = f()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            err = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
            worst = max(worst, err)
    return worst
