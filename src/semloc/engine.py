"""Minimal dense-tensor reverse-mode automatic differentiation engine.

Everything runs on float64 numpy arrays.  The primitive set is exactly
what the localization networks and losses need: matmul, conv2d,
max_pool2d, batch_norm, relu, sigmoid, (log_)softmax, elementwise
arithmetic, reductions, concat and a vector Kronecker product.  Each
primitive registers a closure that propagates adjoints to the parents
that need a gradient; ``Tensor.backward`` walks the graph once in reverse
topological order and frees it as it walks: each node drops its closure,
parents and gradient once its closure has run, so the forward buffers
and intermediate gradients go as soon as the last adjoint that reads them
has run, and only leaves (parameters, user tensors) keep ``.grad``.
Backward therefore runs once per forward; a second backward through a
freed graph raises.  Inside ``no_grad()`` no graph is built at all, so
no closure keeps a forward buffer alive.

The conv2d gradients are im2col matmuls plus a col2im scatter, and
batch_norm is one primitive with the closed-form backward of Ioffe &
Szegedy (2015) rather than a composite of the elementwise ones.  The
max-pool backward routes each window's gradient by the two bool arrays
of choices its forward's passes made, kept only when a graph is
recorded, without reading the input again.

When no backward will read the conv's im2col columns (eval, or no
operand that needs a gradient), the forward builds and multiplies them
one block of samples at a time, at most ``_BLOCK_BYTES`` of columns per
block, into one reused buffer, so no whole-batch column buffer exists.
In training the block is the whole batch, kept for the gradients:
blocking there measured neutral or slower.  Each output column is the
same dgemm column either way, so the blocks do not move a byte.

conv2d, batch_norm and max_pool2d take and return ``[B, C, H, W]``
arrays, but keep the memory behind them channel-major: the conv's
``[F, K] @ [K, B*H*W]`` result is returned as a ``[B, F, H, W]`` view of
its ``[F, B, H, W]`` buffer, batch norm reduces the contiguous channel
rows of that buffer, and the pool, relu and the gradient buffers
(``empty_like``) allocate in their input's order.  So the next conv reads
its input, and every backward its gradient, without a copy.  Input in
any other layout gives the same values.  Eval, and 2-D batch norm, are
byte-equal to the batch-major kernels they replaced; a 4-D batch norm
in training sums in row order, so training results differ from those
kernels' by rounding.

Finiteness is checked at the boundaries only: leaf tensors (user data,
parameters, lifted constants), the loss in ``backward``, and the
gradients and parameters in ``SGD.step``.  Intermediate values are not
checked; a non-finite one reaches the loss, or the caller's check of a
forward output.  A check sums its array once and confirms a non-finite
sum entry by entry, so finite values whose sum overflows pass.
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
    # and summing is cheaper than materializing an isfinite mask; only a
    # sum that is not finite, which finite entries can reach by overflow,
    # is confirmed by the mask
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.sum(a)) and not np.isfinite(a).all():
            raise NonFinite(f"non-finite values in {what}")


def _freed(g=None):
    """The adjoint closure left on a node that backward has freed."""
    raise RuntimeError("backward through a graph that an earlier backward "
                       "freed: run the forward again")


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


def grad_enabled():
    """Whether new tensors record a graph: False inside ``no_grad()``."""
    return _GRAD_ENABLED[0]


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
        g = _unbroadcast(np.asarray(g, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # one pass with the bits of zeros_like(data) + g: -0.0 becomes
            # +0.0 either way, and the buffer keeps data's memory order
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self):
        """Populate .grad on every requires_grad leaf reachable from self.

        `self` must be a finite scalar.  The leaves' grads are reset first,
        so the result never accumulates over an earlier backward.  The walk
        frees the graph as it goes: once a node's adjoint closure has run,
        the node drops its closure, its parents and its gradient, so a
        forward buffer or an intermediate gradient lives only until the
        last adjoint that reads it.  Only leaves (parameters and user
        tensors) keep .grad.  So backward runs once per forward: a second
        backward through a freed node raises RuntimeError.
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
            if node._backward is _freed:
                _freed()  # raises before any gradient is touched
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        # reverse topological order, popped so that the list holds no node
        # it has passed
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _freed, (), None

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

# im2col bytes per block of an eval conv: of 0.5, 1 and 2 MiB, 1 MiB was
# fastest, or tied, on the eval-batch convs of both architectures
_BLOCK_BYTES = 1 << 20


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
    F, K = w.shape[0], C * kh * kw

    # K-major im2col (Chellapilla et al., 2006): cols[c, i, j] is the input
    # shifted by (i - ph, j - pw) and zero outside it, so the forward is
    # [F, K] @ [K, B*H*W]; each shift copies only its valid window
    windows = []
    for i in range(kh):
        for j in range(kw):
            h, v = H - abs(i - ph), W - abs(j - pw)
            if h <= 0 or v <= 0:  # the kernel reaches past the whole input
                continue
            y, z = max(ph - i, 0), max(pw - j, 0)
            sy, sz = max(i - ph, 0), max(j - pw, 0)
            windows.append((i, j, slice(y, y + h), slice(z, z + v),
                            slice(sy, sy + h), slice(sz, sz + v)))
    # cols is built and multiplied one block of samples at a time (Goto &
    # van de Geijn, 2008): a cache-sized block when no backward reads it,
    # else the whole batch, kept for the gradients.  A block's padding
    # zeros sit at the same places in every block, so one zero fill serves
    # all of them, and each output column is the same dgemm column as in
    # one whole-batch matmul
    keep = _GRAD_ENABLED[0] and (x.requires_grad or w.requires_grad)
    nb = B if keep else max(1, min(B, _BLOCK_BYTES // (K * H * W * 8)))
    xt = x.data.transpose(1, 0, 2, 3)
    wk = w.data.reshape(F, K)
    cols = np.zeros((C, kh, kw, nb, H, W))
    out = np.empty((F, B * H * W))
    for b0 in range(0, B, nb):
        b1 = min(b0 + nb, B)
        blk = cols[:, :, :, :b1 - b0]  # a prefix for the ragged last block
        for i, j, oy, oz, sy, sz in windows:
            blk[:, i, j, :, oy, oz] = xt[:, b0:b1, sy, sz]
        np.matmul(wk, blk.reshape(K, -1), out=out[:, b0 * H * W:b1 * H * W])
    # the [F, B*H*W] result is the channel-major output, returned as its
    # [B, F, H, W] view without a copy
    out_data = out.reshape(F, B, H, W).transpose(1, 0, 2, 3)

    def _bw(g):
        # both gradients are matmuls against the forward's K-major layout:
        # the weight gradient reads `cols`, the input gradient is scattered
        # back by col2im (kh*kw shifted adds into a zero-padded buffer); a
        # channel-major g reads as [F, B*H*W] without a copy
        gt = g.transpose(1, 0, 2, 3).reshape(F, -1)
        w._accumulate((gt @ cols.reshape(K, -1).T).reshape(w.shape))
        if not x.requires_grad:  # raw input data: nobody reads its gradient
            return
        gcols = (wk.T @ gt).reshape(C, kh, kw, B, H, W)
        gxp = np.zeros((C, B, H + 2 * ph, W + 2 * pw))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + H, j:j + W] += gcols[:, i, j]
        x._accumulate(gxp[:, :, ph:ph + H, pw:pw + W].transpose(1, 0, 2, 3))

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
    # max over column pairs, then over row pairs: the same max(max(00, 01),
    # max(10, 11)) per window as over the four corners, in two passes.
    # np.maximum may not keep the first of a +0.0/-0.0 tie.  In training a
    # pool input is batch-norm output gamma*xhat + beta, never -0.0 unless
    # beta is; the eval forward pools raw conv output, which can hold -0.0,
    # and there batch norm's + beta, which follows, erases the sign of the
    # zero picked (Model.extract keeps batch norm first where beta is -0.0).
    # Both passes allocate in the input's memory order.
    col0, col1 = d[:, :, :, 0::2], d[:, :, :, 1::2]
    cmax = np.maximum(col0, col1)
    out_data = np.maximum(cmax[:, :, 0::2], cmax[:, :, 1::2])
    if not (_GRAD_ENABLED[0] and x.requires_grad):
        return Tensor(out_data, _parents=(x,))
    # the choices of the two passes, strict so that a tie keeps the first:
    # each window's gradient goes to its first maximum in (00, 01, 10, 11)
    # order, as argmax picks
    right = col1 > col0                            # [B, C, H, W/2]
    lower = cmax[:, :, 1::2] > cmax[:, :, 0::2]    # [B, C, H/2, W/2]

    def _bw(g):
        upper = ~lower
        r0 = right[:, :, 0::2] & upper
        r1 = right[:, :, 1::2] & lower
        gx = np.empty_like(d)  # the four corner stores cover every entry
        # g * False is -0.0 where g < 0, not the +0.0 of a zero-filled
        # gradient; the first adjoint's add of 0.0 in _accumulate makes it
        # +0.0, and a later add of -0.0 changes no value, so x.grad has the
        # bits of the zero-filled routing.  A non-finite g also reaches the
        # corners it did not pick; SGD.step refuses that gradient either way
        for (i, j), pick in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                (upper ^ r0, r0, lower ^ r1, r1)):
            np.multiply(g, pick, out=gx[:, :, i::2, j::2])
        x._accumulate(gx)

    return Tensor(out_data, _parents=(x,), _backward=_bw)


# ----------------------------------------------------------------------
# batch normalization (one primitive, closed-form backward)
# ----------------------------------------------------------------------

BN_EPS = 1e-8
BN_MOMENTUM = 0.1  # weight of the batch statistics in the running estimate


def batch_norm(x, gamma, beta, running_mean, running_var, *, training):
    """Per-channel batch normalization.

    4-D input normalizes over (batch, H, W); 2-D input over the batch
    axis.  In training mode the batch statistics are used and the plain
    numpy arrays `running_mean` / `running_var` are updated in place; in
    eval mode the op is a deterministic affine map of the running stats.

    4-D input is read as one contiguous row per channel, ``[C, B*H*W]``:
    a free view of channel-major memory (what conv2d returns), a copy of
    any other layout.  The output, and the input gradient, are the
    ``[B, C, H, W]`` views of channel-major buffers.

    The forward repeats, in place, the numpy operations of the composite
    batch norm it replaced (mean as sum * (1/n), ``** -0.5`` in training,
    ``1 / sqrt`` in eval).  Eval and 2-D training are byte-equal to that
    composite, so a checkpoint evaluates as before; 4-D training sums
    each channel's contiguous row, so it is byte-equal to the composite
    applied to the ``[C, B*H*W]`` rows and differs from the ``[B, C, H,
    W]`` composite by summation rounding.  The backward is the closed
    form of Ioffe & Szegedy (2015): with xhat the normalized input and n
    the count per channel, dgamma = sum(g * xhat), dbeta = sum(g) and,
    in training mode, dx = gamma * rstd * (g - dbeta/n - xhat * dgamma/n).
    """
    x = _lift(x)
    if x.ndim == 4:
        B, C, H, W = x.shape

        def rows(a):
            return a.transpose(1, 0, 2, 3).reshape(C, -1)

        def unrows(a):
            return a.reshape(C, B, H, W).transpose(1, 0, 2, 3)

        axis, bshape = 1, (-1, 1)
    elif x.ndim == 2:
        rows = unrows = lambda a: a
        axis, bshape = 0, (1, -1)
    else:
        raise ShapeMismatch("batch_norm expects 2-D or 4-D input")
    xd = rows(x.data)
    n = xd.shape[axis]
    g_b, b_b = gamma.data.reshape(bshape), beta.data.reshape(bshape)

    if training:
        mu = xd.sum(axis=axis, keepdims=True) * (1.0 / n)
        xhat = xd - mu
        out_data = np.multiply(xhat, xhat)
        # biased batch variance, folded into the running estimate
        var = out_data.sum(axis=axis, keepdims=True) * (1.0 / n)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu.reshape(-1)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.reshape(-1)
        rstd = (var + BN_EPS) ** -0.5
        xhat *= rstd
        np.multiply(g_b, xhat, out=out_data)
        out_data += b_b
    else:
        # one buffer and no xhat kept: the backward recomputes it
        rm = running_mean.reshape(bshape)
        rstd = (1.0 / np.sqrt(running_var + BN_EPS)).reshape(bshape)
        out_data = xd - rm
        out_data *= rstd
        out_data *= g_b
        out_data += b_b

    def _bw(g):
        g = rows(g)
        dbeta = g.sum(axis=axis)
        gx = g * (xhat if training else (xd - rm) * rstd)
        dgamma = gx.sum(axis=axis)
        gamma._accumulate(dgamma)
        beta._accumulate(dbeta)
        if not x.requires_grad:
            return
        if training:
            np.multiply(xhat, (dgamma * (1.0 / n)).reshape(bshape), out=gx)
            np.subtract(g, gx, out=gx)
            gx -= (dbeta * (1.0 / n)).reshape(bshape)
            gx *= g_b * rstd
        else:
            np.multiply(g, g_b * rstd, out=gx)
        x._accumulate(unrows(gx))

    return Tensor(unrows(out_data), _parents=(x, gamma, beta), _backward=_bw)


# ----------------------------------------------------------------------
# optimizer and gradient checker
# ----------------------------------------------------------------------

class SGD:
    """SGD with classical momentum (the L2 penalty is the objective's WR term).

    v <- momentum * v + grad ;  p <- p - lr * v

    0-d parameters (the hda log-variances) take plain gradient steps:
    momentum would scale their effective step by ~1/(1-momentum) and
    overshoot badly.
    """

    def __init__(self, params, lr, momentum):
        # params: dict name -> Tensor
        self.params = dict(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
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
            v += g
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
