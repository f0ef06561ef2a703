"""Network assembly: shared feature extractor plus regression and
classification heads.

The extractor is four conv blocks (3x3 same conv -> batch norm -> 2x2
max pool -> ReLU); its flattened output is the shared feature vector,
nonnegative because the block ends in ReLU.  An eval forward that
records no graph pools each conv output before batch norm, so batch norm
maps a quarter of the values.  The bytes stay the same: eval batch norm
is a fixed per-channel map, monotone under round-to-nearest, so it
commutes with the max where gamma > 0, and a channel with gamma < 0
negates its weight row, gamma and running mean, which negates its conv
output exactly.  Each head is an MLP whose hidden blocks are linear ->
1-D batch norm -> ReLU; the regressor's final layer is a bare linear
map, the classifier's final layer feeds a softmax.  For two classes the
softmax over a logit pair coincides with a sigmoid on the logit
difference, so softmax is used throughout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine
from .engine import ShapeMismatch, Tensor
from .scenario import LABEL_NAMES, _is_int


@dataclass
class ArchConfig:
    """Conv channels, the hidden MLP widths both heads share, and the input
    (C, H, W); `Model` appends each head's fixed output width."""

    conv_channels: list = field(default_factory=lambda: [16, 32, 32, 64])
    mlp_widths: list = field(default_factory=lambda: [256, 128])
    input_shape: tuple = (1, 64, 64)  # (channels, H, W)

    def __post_init__(self):
        if not (len(self.input_shape) == 3
                and all(_is_int(n) and n > 0 for n in self.input_shape)):
            raise ValueError(f"input shape must be 3 positive integers, not "
                             f"{list(self.input_shape)!r}")
        c, h, w = self.input_shape
        down = 2 ** len(self.conv_channels)
        if h % down or w % down:
            raise ShapeMismatch(
                f"input {h}x{w} must be divisible by {down} for "
                f"{len(self.conv_channels)} pooling stages")

    def feature_dim(self):
        _, h, w = self.input_shape
        down = 2 ** len(self.conv_channels)
        return self.conv_channels[-1] * (h // down) * (w // down)

    def peak_activation_bytes(self):
        """Float64 bytes per sample of the largest theta1 activation: block
        i's conv output holds c_i x (H x W / 4^i) values."""
        _, h, w = self.input_shape
        return max(c * (h * w // 4 ** i) * 8
                   for i, c in enumerate(self.conv_channels))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The arch `to_dict` wrote, or the older layout that stored each
        head's widths with the output width appended (`mlp_widths_reg`,
        `mlp_widths_cls`, plus `n_classes` and `input_kind`)."""
        mlp = (d["mlp_widths"] if "mlp_widths" in d
               else d["mlp_widths_reg"][:-1])
        return cls(conv_channels=list(d["conv_channels"]),
                   mlp_widths=list(mlp),
                   input_shape=tuple(d["input_shape"]))


@dataclass
class ModelOutputs:
    features: Tensor   # [B, F], post-ReLU (nonnegative)
    coords: Tensor     # [B, 3]
    logits: Tensor     # [B, n_classes]
    probs: Tensor      # [B, n_classes], rows sum to 1


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Model:
    """Parameter store plus forward pass; exclusively owned while training."""

    def __init__(self, arch, seed=0):
        self.arch = arch
        self.params = {}       # name -> Tensor (trainable)
        self.running = {}      # name -> numpy array (batch-norm stats)
        rng = np.random.default_rng(seed)

        c_in = arch.input_shape[0]
        for i, c_out in enumerate(arch.conv_channels):
            self._add_conv(rng, f"theta1.conv{i}", c_in, c_out)
            c_in = c_out

        # the regressor ends in x, y, z; the classifier in one logit per class
        self.heads = {"theta2": [*arch.mlp_widths, 3],
                      "theta3": [*arch.mlp_widths, len(LABEL_NAMES)]}
        for prefix, widths in self.heads.items():
            self._add_mlp(rng, prefix, arch.feature_dim(), widths)

    def _add_conv(self, rng, name, c_in, c_out):
        fan = 9 * c_in, 9 * c_out
        self.params[f"{name}.w"] = Tensor(
            _glorot(rng, (c_out, c_in, 3, 3), *fan), requires_grad=True)
        # no conv bias: batch norm's mean-centering would cancel it exactly
        self._add_bn(name, c_out)

    def _add_mlp(self, rng, prefix, in_dim, widths):
        for i, out_dim in enumerate(widths):
            name = f"{prefix}.lin{i}"
            self.params[f"{name}.w"] = Tensor(
                _glorot(rng, (in_dim, out_dim), in_dim, out_dim),
                requires_grad=True)
            if i < len(widths) - 1:  # hidden blocks: batch norm, no bias
                self._add_bn(name, out_dim)
            else:                    # output heads keep a plain bias
                self.params[f"{name}.b"] = Tensor(np.zeros(out_dim),
                                                  requires_grad=True)
            in_dim = out_dim

    def _add_bn(self, name, channels):
        self.params[f"{name}.bn.gamma"] = Tensor(np.ones(channels),
                                                 requires_grad=True)
        self.params[f"{name}.bn.beta"] = Tensor(np.zeros(channels),
                                                requires_grad=True)
        self.running[f"{name}.bn.mean"] = np.zeros(channels)
        self.running[f"{name}.bn.var"] = np.ones(channels)

    # -- forward ---------------------------------------------------------
    def _bn(self, x, name, train):
        return engine.batch_norm(
            x, self.params[f"{name}.bn.gamma"], self.params[f"{name}.bn.beta"],
            self.running[f"{name}.bn.mean"], self.running[f"{name}.bn.var"],
            training=train)

    def _mlp(self, x, prefix, train):
        n = len(self.heads[prefix])
        for i in range(n):
            name = f"{prefix}.lin{i}"
            x = engine.matmul(x, self.params[f"{name}.w"])
            if i < n - 1:
                x = engine.relu(self._bn(x, name, train))
            else:
                x = x + self.params[f"{name}.b"]
        return x

    def _pool_first(self, name):
        """The conv weight, gamma and running mean with which eval block
        `name` pools its conv output before batch norm, or None where it
        keeps batch norm first.

        Eval batch norm maps each channel by ((x - mean) * rstd) * gamma +
        beta, with rstd > 0.  Each op has a fixed second operand, so under
        round-to-nearest the map is non-decreasing in x where gamma > 0,
        and the max of the mapped window is the map of the window's max.
        Where gamma < 0 the channel's weight row, gamma and mean are
        negated: the conv then gives exactly -x, as rounding is
        sign-symmetric, and the map of -x gives the same bits.  The sign
        of a zero conv output can differ between the two orders; + beta
        erases it unless beta is -0.0.  A gamma of +-0 turns an infinite
        (x - mean) * rstd into NaN, which pooling first could drop.
        Either keeps batch norm first."""
        gamma = self.params[f"{name}.bn.gamma"]
        g, b = gamma.data, self.params[f"{name}.bn.beta"].data
        if not np.all(g != 0) or np.any(np.signbit(b) & (b == 0)):
            return None
        w, mean = self.params[f"{name}.w"], self.running[f"{name}.bn.mean"]
        if np.any(g < 0):
            sign = np.where(g < 0, -1.0, 1.0)
            w = Tensor(w.data * sign[:, None, None, None])
            gamma, mean = Tensor(g * sign), mean * sign
        return w, gamma, mean

    def extract(self, x, train=False):
        """Shared features from a fingerprint batch [B, C, H, W].

        An eval forward that records no graph runs each block as conv ->
        max pool -> batch norm -> ReLU, on a quarter of the batch-norm
        work, with the bytes of conv -> batch norm -> pool -> ReLU (see
        `_pool_first`); every other forward runs the latter."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4 or tuple(x.shape[1:]) != tuple(self.arch.input_shape):
            raise ShapeMismatch(
                f"batch shape {x.shape} does not match input {self.arch.input_shape}")
        eval_only = not (train or engine.grad_enabled())
        for i in range(len(self.arch.conv_channels)):
            name = f"theta1.conv{i}"
            reorder = eval_only and self._pool_first(name)
            if reorder:
                w, gamma, mean = reorder
                x = engine.max_pool2d(engine.conv2d(x, w))
                x = engine.batch_norm(
                    x, gamma, self.params[f"{name}.bn.beta"], mean,
                    self.running[f"{name}.bn.var"], training=False)
            else:
                x = engine.conv2d(x, self.params[f"{name}.w"])
                x = engine.max_pool2d(self._bn(x, name, train))
            x = engine.relu(x)
        return x.reshape(x.shape[0], -1)

    def forward(self, x, train=False):
        omega = self.extract(x, train)
        coords = self._mlp(omega, "theta2", train)
        logits = self._mlp(omega, "theta3", train)
        return ModelOutputs(features=omega, coords=coords, logits=logits,
                            probs=engine.softmax(logits))

    # -- bookkeeping -------------------------------------------------------
    def param_count(self):
        return sum(p.data.size for p in self.params.values())

    def state_dict(self):
        out = {k: p.data.copy() for k, p in self.params.items()}
        out.update({k: v.copy() for k, v in self.running.items()})
        return out

    def load_state_dict(self, state):
        for k, p in self.params.items():
            p.data = np.asarray(state[k], np.float64).reshape(p.data.shape).copy()
        for k in self.running:
            self.running[k] = np.asarray(state[k], np.float64).reshape(
                self.running[k].shape).copy()

    def describe(self):
        """Human-readable layer table."""
        lines, c_in = [], self.arch.input_shape[0]
        _, h, w = self.arch.input_shape
        for i, c_out in enumerate(self.arch.conv_channels):
            h, w = h // 2, w // 2
            lines.append(f"theta1.conv{i}: conv3x3 {c_in}->{c_out}, bn, "
                         f"pool -> [{c_out},{h},{w}], relu")
            c_in = c_out
        lines.append(f"flatten -> features [{self.arch.feature_dim()}]")
        for prefix, widths in self.heads.items():
            d = self.arch.feature_dim()
            for i, width in enumerate(widths):
                act = "" if i == len(widths) - 1 else ", bn, relu"
                lines.append(f"{prefix}.lin{i}: linear {d}->{width}{act}")
                d = width
        lines.append(f"total parameters: {self.param_count()}")
        return "\n".join(lines)
