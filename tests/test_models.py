"""Tests for network assembly: shapes, initialization determinism,
closed-form parameter counts, eval-mode invariances, and the channel-major
memory layout of the extractor's activations."""

import numpy as np
import pytest

from semloc import engine
from semloc.engine import ShapeMismatch
from semloc.models import ArchConfig, Model

ARCH = ArchConfig(conv_channels=[2, 3, 3, 4], mlp_widths=[8, 6],
                  input_shape=(1, 16, 32))


def param_count_oracle(arch):
    """Hand-derived count: conv blocks have w + bn(gamma, beta); hidden
    linear blocks have w + bn; output layers have w + bias.  Both heads
    end in width 3: x, y, z and LOS/DNLOS/SNLOS."""
    total = 0
    c_in = arch.input_shape[0]
    for c_out in arch.conv_channels:
        total += c_out * c_in * 9 + 2 * c_out
        c_in = c_out
    for widths in ([*arch.mlp_widths, 3], [*arch.mlp_widths, 3]):
        d = arch.feature_dim()
        for i, w in enumerate(widths):
            total += d * w
            total += 2 * w if i < len(widths) - 1 else w
            d = w
    return total


def test_forward_shapes():
    model = Model(ARCH, seed=0)
    x = np.random.default_rng(0).random((5, 1, 16, 32))
    out = model.forward(x, train=True)
    assert out.features.shape == (5, ARCH.feature_dim())
    assert out.coords.shape == (5, 3)
    assert out.logits.shape == (5, 3)
    assert out.probs.shape == (5, 3)
    np.testing.assert_allclose(out.probs.data.sum(axis=1), 1.0, atol=1e-12)


def test_features_are_nonnegative():
    model = Model(ARCH, seed=1)
    x = np.random.default_rng(1).normal(size=(6, 1, 16, 32))
    out = model.forward(x, train=True)
    assert out.features.data.min() >= 0.0


def test_seeded_init_is_deterministic():
    a, b = Model(ARCH, seed=3), Model(ARCH, seed=3)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k].data, b.params[k].data)
    c = Model(ARCH, seed=4)
    assert any(not np.array_equal(a.params[k].data, c.params[k].data)
               for k in a.params)


def test_param_count_closed_form():
    assert Model(ARCH, seed=0).param_count() == param_count_oracle(ARCH)
    default = ArchConfig()
    assert Model(default, seed=0).param_count() == param_count_oracle(default)


def test_glorot_ranges():
    model = Model(ARCH, seed=0)
    w = model.params["theta1.conv0.w"].data
    limit = np.sqrt(6.0 / (9 * 1 + 9 * 2))
    assert np.all(np.abs(w) <= limit)
    lin = model.params["theta2.lin0.w"].data
    limit = np.sqrt(6.0 / (ARCH.feature_dim() + 8))
    assert np.all(np.abs(lin) <= limit)
    # bn starts as identity, heads start at zero output offset
    np.testing.assert_array_equal(model.params["theta1.conv0.bn.gamma"].data, 1.0)
    np.testing.assert_array_equal(model.params["theta1.conv0.bn.beta"].data, 0.0)
    np.testing.assert_array_equal(model.params["theta2.lin2.b"].data, 0.0)


def test_eval_mode_is_per_sample():
    # eval-mode forward must not couple samples through batch statistics
    model = Model(ARCH, seed=5)
    rng = np.random.default_rng(5)
    # train once so running stats are non-trivial
    model.forward(rng.random((8, 1, 16, 32)), train=True)
    x = rng.random((4, 1, 16, 32))
    full = model.forward(x, train=False).coords.data
    perm = np.array([2, 0, 3, 1])
    permuted = model.forward(x[perm], train=False).coords.data
    np.testing.assert_allclose(permuted, full[perm], atol=1e-12)
    single = model.forward(x[1:2], train=False).coords.data
    np.testing.assert_allclose(single, full[1:2], atol=1e-12)


def test_train_mode_updates_running_stats():
    model = Model(ARCH, seed=6)
    before = {k: v.copy() for k, v in model.running.items()}
    model.forward(np.random.default_rng(6).random((8, 1, 16, 32)), train=True)
    assert any(not np.array_equal(before[k], model.running[k])
               for k in before)
    after = {k: v.copy() for k, v in model.running.items()}
    model.forward(np.random.default_rng(7).random((8, 1, 16, 32)), train=False)
    for k in after:  # eval mode must not touch them
        np.testing.assert_array_equal(after[k], model.running[k])


def test_state_dict_round_trip():
    a = Model(ARCH, seed=7)
    a.forward(np.random.default_rng(8).random((4, 1, 16, 32)), train=True)
    state = a.state_dict()
    b = Model(ARCH, seed=99)
    b.load_state_dict(state)
    x = np.random.default_rng(9).random((3, 1, 16, 32))
    np.testing.assert_array_equal(a.forward(x).coords.data,
                                  b.forward(x).coords.data)


def test_input_shape_validation():
    model = Model(ARCH, seed=0)
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((2, 1, 16, 16)))  # wrong W
    with pytest.raises(ShapeMismatch):
        ArchConfig(conv_channels=[4, 4, 4, 4], input_shape=(1, 20, 32))
    # (C, H, W) are positive integers; -16 would pass the divisibility test
    for bad in ((0, 16, 16), (1, -16, 16), (1, 16.0, 16), (True, 16, 16),
                (16, 16)):
        with pytest.raises(ValueError):
            ArchConfig(conv_channels=[2, 2], input_shape=bad)


def test_arch_round_trip_and_describe():
    d = ARCH.to_dict()
    assert d == {"conv_channels": [2, 3, 3, 4], "mlp_widths": [8, 6],
                 "input_shape": (1, 16, 32)}
    again = ArchConfig.from_dict(d)
    assert again.to_dict() == d
    # checkpoints once stored each head's widths with the output width
    # appended, plus n_classes and input_kind
    old = {"conv_channels": [2, 3, 3, 4], "mlp_widths_reg": [8, 6, 3],
           "mlp_widths_cls": [8, 6, 3], "n_classes": 3, "input_kind": "adp",
           "input_shape": [1, 16, 32]}
    assert ArchConfig.from_dict(old) == ARCH
    text = Model(ARCH, seed=0).describe()
    assert "theta1.conv0" in text and "total parameters" in text


GATE_ARCH = ArchConfig(conv_channels=[4, 8, 8, 16], mlp_widths=[32, 16],
                       input_shape=(1, 16, 32))


def _channel_major(a):
    """A [B, C, H, W] array over C-contiguous [C, B, H, W] memory."""
    return a.ndim == 4 and a.transpose(1, 0, 2, 3).flags.c_contiguous


@pytest.mark.parametrize("train", [True, False])
def test_theta1_activations_and_gradients_are_channel_major(monkeypatch,
                                                            train):
    # every theta1 output, and the gradient that reaches it, stays in
    # channel-major memory; a copy back to batch-major layout fails here
    seen = []
    for name in ("conv2d", "batch_norm", "max_pool2d", "relu"):
        def record(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            if out.ndim == 4:
                seen.append((_name, out))
            return out
        monkeypatch.setattr(engine, name, record)
    model = Model(GATE_ARCH, seed=0)
    rng = np.random.default_rng(0)
    if train:
        out = model.forward(rng.random((64, 1, 16, 32)), train=True)
        w = engine.constant(rng.random(out.probs.shape))
        ((out.coords * out.coords).sum() + (out.probs * w).sum()).backward()
    else:
        with engine.no_grad():
            model.forward(rng.random((256, 1, 16, 32)), train=False)
    assert [name for name, _ in seen] == \
        ["conv2d", "batch_norm", "max_pool2d", "relu"] * 4
    for i, (name, t) in enumerate(seen):
        assert _channel_major(t.data), (i, name)
        if train:
            assert _channel_major(t.grad), (i, name)
