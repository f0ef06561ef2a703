"""Tests for network assembly: shapes, initialization determinism,
closed-form parameter counts, eval-mode invariances, the channel-major
memory layout of the extractor's activations, and the pool-first eval
extractor against the batch-norm-first one it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semloc import engine, training
from semloc.engine import ShapeMismatch, Tensor
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
    default = training.arch_for(training.TrainConfig(), (1, 64, 64))
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
        ArchConfig(conv_channels=[4, 4, 4, 4], mlp_widths=[8],
                   input_shape=(1, 20, 32))
    # (C, H, W) are positive integers; -16 would pass the divisibility test
    for bad in ((0, 16, 16), (1, -16, 16), (1, 16.0, 16), (True, 16, 16),
                (16, 16)):
        with pytest.raises(ValueError):
            ArchConfig(conv_channels=[2, 2], mlp_widths=[8], input_shape=bad)


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
    # every theta1 output, and every adjoint buffer accumulated into it,
    # stays in channel-major memory; a copy back to batch-major layout
    # fails here.  Backward frees non-leaf gradients, so each buffer is
    # recorded as it is accumulated
    seen, grads = [], {}
    for name in ("conv2d", "batch_norm", "max_pool2d", "relu"):
        def record(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            if out.ndim == 4:
                seen.append((_name, out))
            return out
        monkeypatch.setattr(engine, name, record)
    accumulate = engine.Tensor._accumulate

    def record_grad(t, g):
        accumulate(t, g)
        grads.setdefault(id(t), []).append(t.grad)
    monkeypatch.setattr(engine.Tensor, "_accumulate", record_grad)
    model = Model(GATE_ARCH, seed=0)
    rng = np.random.default_rng(0)
    if train:
        out = model.forward(rng.random((64, 1, 16, 32)), train=True)
        w = engine.constant(rng.random(out.probs.shape))
        ((out.coords * out.coords).sum() + (out.probs * w).sum()).backward()
    else:
        with engine.no_grad():
            model.forward(rng.random((256, 1, 16, 32)), train=False)
    # an eval forward that records no graph pools before batch norm
    block = (["conv2d", "batch_norm", "max_pool2d", "relu"] if train
             else ["conv2d", "max_pool2d", "batch_norm", "relu"])
    assert [name for name, _ in seen] == block * 4
    for i, (name, t) in enumerate(seen):
        assert _channel_major(t.data), (i, name)
        if train:
            assert grads[id(t)], (i, name)
            assert all(_channel_major(g) for g in grads[id(t)]), (i, name)
    if not train:
        assert not grads


# ----------------------------------------------------------------------
# the pool-first eval extractor against the batch-norm-first oracle
# ----------------------------------------------------------------------

def extract_bn_first(model, x):
    """The eval extractor before pooling moved ahead of batch norm: conv ->
    batch norm -> max pool -> ReLU in every block, with no graph."""
    with engine.no_grad():
        x = Tensor(x)
        for i in range(len(model.arch.conv_channels)):
            name = f"theta1.conv{i}"
            x = engine.conv2d(x, model.params[f"{name}.w"])
            x = engine.batch_norm(
                x, model.params[f"{name}.bn.gamma"],
                model.params[f"{name}.bn.beta"],
                model.running[f"{name}.bn.mean"],
                model.running[f"{name}.bn.var"], training=False)
            x = engine.relu(engine.max_pool2d(x))
        return x.reshape(x.shape[0], -1)


def assert_extract_matches_oracle(model, x):
    with engine.no_grad():
        got = model.extract(x).data
    want = extract_bn_first(model, x).data
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides


def _set_blocks(model, blocks):
    """Each block's (conv weight, gamma, beta, running mean, running var)."""
    for i, (w, gamma, beta, mean, var) in enumerate(blocks):
        name = f"theta1.conv{i}"
        model.params[f"{name}.w"].data = w
        model.params[f"{name}.bn.gamma"].data = gamma
        model.params[f"{name}.bn.beta"].data = beta
        model.running[f"{name}.bn.mean"] = mean
        model.running[f"{name}.bn.var"] = var


# multiples of 1/2, so conv sums are often exactly 0 and windows often tie;
# gamma and beta hold both zeros, and scaled inputs underflow or overflow
HALVES = st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])
GAMMAS = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 1.0])
BETAS = st.sampled_from([-0.0, 0.0, 0.5])
MEANS = st.sampled_from([-0.0, 0.0, 0.5])
VARS = st.sampled_from([0.0, 1.0])
SCALES = st.sampled_from([1.0, 2.0 ** -1070, 2.0 ** 1012])


@st.composite
def lattice_extractors(draw):
    """A one- or two-block extractor on lattice values and its input."""
    channels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    down = 2 ** len(channels)
    h, w = down * draw(st.integers(1, 2)), down * draw(st.integers(1, 2))
    model = Model(ArchConfig(conv_channels=channels, mlp_widths=[4],
                             input_shape=(1, h, w)), seed=0)
    blocks, c_in = [], 1
    for c in channels:
        weight = draw(arrays(np.float64, (c, c_in, 3, 3), elements=HALVES))
        blocks.append((weight, *(draw(arrays(np.float64, c, elements=e))
                                 for e in (GAMMAS, BETAS, MEANS, VARS))))
        c_in = c
    _set_blocks(model, blocks)
    # each input value scaled to underflow in the conv, or to overflow in
    # batch norm; 2 ** 1012 keeps the input's sum finite, as a leaf needs.
    # Drawn a sample at a time, so no array here holds over 81 entries:
    # Hypothesis may swap an integer draw outside (-100, 100), such as an
    # entry index, for a literal of any loaded local module, so the
    # examples would depend on which test modules ran first
    n = draw(st.integers(1, 3))
    x, scale = (np.stack([draw(arrays(np.float64, (1, h, w), elements=e))
                          for _ in range(n)]) for e in (HALVES, SCALES))
    return model, x * scale


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=lattice_extractors())
def test_property_eval_extract_matches_batch_norm_first(case):
    with np.errstate(all="ignore"):
        assert_extract_matches_oracle(*case)


def _one_channel(w_center, gamma, beta):
    """A one-block, one-channel extractor on 2x2 input whose conv scales
    the input by `w_center`, with running mean 0 and variance 1."""
    model = Model(ArchConfig(conv_channels=[1], mlp_widths=[4],
                             input_shape=(1, 2, 2)), seed=0)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = w_center
    _set_blocks(model, [(w, np.array([gamma]), np.array([beta]),
                         np.zeros(1), np.ones(1))])
    return model


def test_eval_extract_edge_cases_match_batch_norm_first():
    x = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 2, 2)
    # gamma = 0 maps a conv sum that overflowed to -inf to NaN, which a max
    # over the raw sums would drop for the 4 beside it
    huge = np.array([-2.0 ** 1023, 1.0, 1.0, 1.0]).reshape(1, 1, 2, 2)
    for gamma in (0.0, -0.0):
        with np.errstate(all="ignore"):
            assert_extract_matches_oracle(_one_channel(4.0, gamma, 0.5), huge)
    # gamma < 0 and beta = -0.0: the exactly zero conv sum maps to -0.0
    # where batch norm runs first, to +0.0 on the negated weight
    assert_extract_matches_oracle(_one_channel(1.0, -1.0, -0.0), x)
    # gamma < 0 with rm = beta = 0 and an exactly zero conv sum
    assert_extract_matches_oracle(_one_channel(1.0, -1.0, 0.0), x)
    assert_extract_matches_oracle(_one_channel(1.0, -1.0, 0.0), -x)


def _mixed_sign_model(arch, seed):
    """A model whose gammas take both signs, with moved betas and running
    statistics."""
    model = Model(arch, seed=seed)
    rng = np.random.default_rng(seed)
    for name, stat in model.running.items():
        stat[:] = (rng.uniform(0.5, 2.0, stat.shape) if name.endswith(".var")
                   else rng.normal(scale=0.3, size=stat.shape))
    for name, p in model.params.items():
        if name.endswith(".bn.gamma"):
            p.data = rng.normal(size=p.shape)
        elif name.endswith(".bn.beta"):
            p.data = rng.normal(scale=0.2, size=p.shape)
    return model


@pytest.mark.parametrize("arch", [
    training.arch_for(training.TrainConfig(), (1, 16, 32)), GATE_ARCH],
    ids=["default", "gate"])
def test_evaluate_arrays_with_mixed_sign_gamma_matches_batch_norm_first(
        monkeypatch, arch):
    model = _mixed_sign_model(arch, seed=4)
    gammas = np.concatenate([model.params[f"theta1.conv{i}.bn.gamma"].data
                             for i in range(4)])
    assert (gammas < 0).any() and (gammas > 0).any()
    rng = np.random.default_rng(5)
    n = 150
    domain = training.DomainData(
        inputs=rng.normal(size=(n, 1, 16, 32)),
        coords=rng.normal(size=(n, 3)), labels=rng.integers(0, 3, n),
        is_source=False)
    assert_extract_matches_oracle(model, domain.inputs)
    got = training.evaluate_arrays(model, domain)
    monkeypatch.setattr(Model, "extract",
                        lambda self, x, train=False: extract_bn_first(self, x))
    want = training.evaluate_arrays(model, domain)
    assert got.errors.tobytes() == want.errors.tobytes()
    assert (got.rmse, got.accuracy) == (want.rmse, want.accuracy)
