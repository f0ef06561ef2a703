"""Tests for the training objectives, pinned to hand-derived values and
analytic identities."""

import numpy as np
import pytest

from semloc import engine, losses
from semloc.engine import Tensor, grad_check
from semloc.models import ModelOutputs
from semloc.training import TrainConfig


def outputs_from(coords, logits, features=None):
    logits_t = Tensor(logits, requires_grad=True)
    if features is None:
        features = np.abs(coords) + 0.1
    return ModelOutputs(features=Tensor(features, requires_grad=True),
                        coords=Tensor(coords, requires_grad=True),
                        logits=logits_t, probs=engine.softmax(logits_t))


# ----------------------------------------------------------------------
# supervised terms
# ----------------------------------------------------------------------

def test_cr_hand_value():
    pred = Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    true = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    # ((1+4+9) + (1+1+1)) / 2 = 8.5
    assert abs(losses.loss_cr(pred, true).item() - 8.5) < 1e-12


def test_cr_zero_at_perfect_prediction():
    y = np.random.default_rng(0).normal(size=(4, 3))
    assert losses.loss_cr(Tensor(y), y).item() == 0.0


def test_pcp_gamma_zero_is_cross_entropy():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, 6)
    got = losses.loss_pcp(Tensor(logits), labels, gamma=0.0).item()
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[np.arange(6), labels].mean()
    assert abs(got - want) < 1e-12


def test_pcp_focal_hand_value():
    # logits chosen so softmax is exactly [0.7, 0.2, 0.1]
    p = np.array([[0.7, 0.2, 0.1]])
    logits = np.log(p)
    got = losses.loss_pcp(Tensor(logits), [0], gamma=2.0).item()
    want = -((1 - 0.7) ** 2) * np.log(0.7)
    assert abs(got - want) < 1e-12


def test_pcp_focal_downweights_easy_samples():
    easy = np.log(np.array([[0.99, 0.005, 0.005]]))
    hard = np.log(np.array([[0.4, 0.3, 0.3]]))
    for logits in (easy, hard):
        ce = losses.loss_pcp(Tensor(logits), [0], gamma=0.0).item()
        focal = losses.loss_pcp(Tensor(logits), [0], gamma=2.0).item()
        assert focal < ce
    # the *relative* reduction is far stronger for the easy sample
    rel = lambda l: (losses.loss_pcp(Tensor(l), [0], 2.0).item()
                     / losses.loss_pcp(Tensor(l), [0], 0.0).item())
    assert rel(easy) < rel(hard) * 1e-2


# ----------------------------------------------------------------------
# alignment terms
# ----------------------------------------------------------------------

def test_skl_hand_value():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    want = np.sum((p - q) * np.log(p / q))  # symmetric KL
    assert abs(losses.skl(p, q).item() - want) < 1e-5


def test_skl_zero_iff_equal_and_symmetric():
    rng = np.random.default_rng(2)
    p = rng.random(8)
    q = rng.random(8)
    assert losses.skl(p, p).item() < 1e-12
    assert abs(losses.skl(p, q).item() - losses.skl(q, p).item()) < 1e-12
    assert losses.skl(p, q).item() > 0


def test_skl_scale_invariance_from_normalization():
    p = np.array([0.2, 0.3, 0.5])
    assert losses.skl(3.0 * p, p).item() < 1e-9


def test_local_align_zero_for_identical_features():
    f = Tensor(np.random.default_rng(3).random((5, 7)) + 0.1)
    assert losses.local_align(f, f).item() < 1e-12


def test_local_align_raises_on_zero_features():
    zero = Tensor(np.zeros((4, 6)))
    good = Tensor(np.ones((4, 6)))
    with pytest.raises(losses.DegenerateDistribution):
        losses.local_align(zero, good)


def test_multilinear_map_hand_case():
    probs = np.array([[0.5, 0.25, 0.25]])
    coords = np.array([[1.0, 2.0, 3.0]])
    got = losses.multilinear_map(Tensor(probs), Tensor(coords), gamma=2.0).data
    w = -((1 - probs) ** 2) * np.log(probs)
    want = np.kron(w[0], coords[0])[None, :]  # class-major ordering
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert got.shape == (1, 9)


def test_global_align_zero_for_identical_outputs():
    rng = np.random.default_rng(4)
    out = outputs_from(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    assert losses.global_align(out, out, gamma=2.0).item() < 1e-12


def test_loss_kt_is_local_plus_global():
    rng = np.random.default_rng(5)
    a = outputs_from(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)),
                     rng.random((4, 6)) + 0.1)
    b = outputs_from(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)),
                     rng.random((4, 6)) + 0.1)
    want = (losses.local_align(a.features, b.features).item()
            + losses.global_align(a, b, 2.0).item())
    assert abs(losses.loss_kt(a, b, 2.0).item() - want) < 1e-12


# ----------------------------------------------------------------------
# weight regularization
# ----------------------------------------------------------------------

def test_wr_scope_and_value():
    params = {
        "l.w": Tensor(np.array([1.0, 2.0]), requires_grad=True),
        "l.b": Tensor(np.array([10.0]), requires_grad=True),
        "l.bn.gamma": Tensor(np.array([10.0]), requires_grad=True),
        "hda.s1": Tensor(np.array(10.0), requires_grad=True),
    }
    assert abs(losses.loss_wr(params).item() - 2.5) < 1e-12


# ----------------------------------------------------------------------
# combined objectives
# ----------------------------------------------------------------------

def _toy_batch(seed=6, b=4):
    rng = np.random.default_rng(seed)
    out_s = outputs_from(rng.normal(size=(b, 3)), rng.normal(size=(b, 3)),
                         rng.random((b, 6)) + 0.1)
    out_t = outputs_from(rng.normal(size=(b, 3)), rng.normal(size=(b, 3)),
                         rng.random((b, 6)) + 0.1)
    y = rng.normal(size=(b, 3))
    d = rng.integers(0, 3, b)
    params = {"m.w": Tensor(rng.normal(size=(3, 3)), requires_grad=True)}
    return out_s, out_t, y, d, params


def test_mda_total_is_weighted_sum_of_reported_terms():
    out_s, out_t, y, d, params = _toy_batch()
    total, rep = losses.mda_total(out_s, y, d, out_t, params, lam1=0.7,
                                  lam2=0.3, lam3=0.8, lam4=0.05, gamma=2.0)
    want = (0.7 * rep.cr + 0.3 * rep.pcp + 0.8 * (rep.kt_local + rep.kt_global)
            + 0.05 * rep.wr)
    assert abs(total.item() - want) < 1e-12


def test_mda_lam3_zero_matches_supervised_only():
    out_s, out_t, y, d, params = _toy_batch()
    total, rep = losses.mda_total(out_s, y, d, None, params, lam1=1.0,
                                  lam2=0.0, lam3=0.0, lam4=0.05, gamma=2.0)
    assert rep.kt_local == 0.0 and rep.kt_global == 0.0
    assert abs(total.item() - (rep.cr + 0.05 * rep.wr)) < 1e-12


def test_hda_unit_sigmas_reduce_to_half_l1_plus_ce():
    out_s, _, y, d, _ = _toy_batch()
    u = losses.UncertaintyParams()  # s1 = s2 = 0 -> sigma^2 = 1
    got = losses.hda_nll(out_s, y, d, u, gamma=0.0).item()
    l1 = losses.loss_cr(out_s.coords, y).item()
    ce = losses.loss_pcp(out_s.logits, d, gamma=0.0).item()
    assert abs(got - (0.5 * l1 + ce)) < 1e-12


def test_hda_gamma_zero_closed_form():
    out_s, _, y, d, _ = _toy_batch(seed=7)
    u = losses.UncertaintyParams()
    u.s1.data[...] = 0.8
    u.s2.data[...] = -0.3
    got = losses.hda_nll(out_s, y, d, u, gamma=0.0).item()
    l1 = losses.loss_cr(out_s.coords, y).item()
    ce = losses.loss_pcp(out_s.logits, d, gamma=0.0).item()
    s1, s2 = 0.8, -0.3
    want = 0.5 * np.exp(-s1) * l1 + np.exp(-s2) * ce + 0.5 * s1 + s2
    assert abs(got - want) < 1e-12


def test_hda_sigma1_optimum_tracks_l1():
    # min over s1 of L1/(2 sigma1^2) + log sigma1 is at sigma1^2 = L1
    out_s, _, y, d, _ = _toy_batch(seed=8)
    l1 = losses.loss_cr(out_s.coords, y).item()
    u = losses.UncertaintyParams()
    grid = np.linspace(np.log(l1) - 2, np.log(l1) + 2, 401)
    vals = []
    for s in grid:
        u.s1.data[...] = s
        vals.append(losses.hda_nll(out_s, y, d, u, gamma=0.0).item())
    assert abs(grid[int(np.argmin(vals))] - np.log(l1)) < 0.02


def test_hda_gamma_positive_modulates_ce():
    out_s, _, y, d, _ = _toy_batch(seed=9)
    u = losses.UncertaintyParams()
    plain = losses.hda_nll(out_s, y, d, u, gamma=0.0).item()
    focal = losses.hda_nll(out_s, y, d, u, gamma=2.0).item()
    assert focal < plain  # modulating factor is in (0, 1]


def test_hda_total_composition():
    out_s, out_t, y, d, params = _toy_batch(seed=11)
    u = losses.UncertaintyParams()
    total, rep = losses.hda_total(out_s, y, d, out_t, params, u,
                                  lam3=0.5, lam4=0.05, gamma=2.0)
    nll = losses.hda_nll(out_s, y, d, u, gamma=2.0).item()
    want = nll + 0.5 * (rep.kt_local + rep.kt_global) + 0.05 * rep.wr
    assert abs(total.item() - want) < 1e-12


def test_hda_total_builds_cr_once(monkeypatch):
    out_s, out_t, y, d, params = _toy_batch(seed=11)
    calls = []
    cr = losses.loss_cr
    monkeypatch.setattr(losses, "loss_cr",
                        lambda *a: calls.append(a) or cr(*a))
    _, rep = losses.hda_total(out_s, y, d, out_t, params,
                              losses.UncertaintyParams(),
                              lam3=0.5, lam4=0.05, gamma=2.0)
    assert len(calls) == 1
    assert rep.cr == cr(out_s.coords, y).item()


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_hda_total_shares_one_log_softmax_with_its_report(monkeypatch,
                                                          gamma):
    # the reported L_PCP is the focal loss, bit for bit, derived from the
    # NLL's own true-class terms instead of a second loss_pcp graph
    out_s, out_t, y, d, params = _toy_batch(seed=10)
    u = losses.UncertaintyParams()
    u.s2.data[...] = 0.4
    want = losses.loss_pcp(out_s.logits, d, gamma).item()
    calls = []
    log_softmax = engine.log_softmax
    monkeypatch.setattr(engine, "log_softmax",
                        lambda *a: calls.append(a) or log_softmax(*a))
    _, rep = losses.hda_total(out_s, y, d, out_t, params, u,
                              lam3=0.5, lam4=0.05, gamma=gamma)
    assert len(calls) == 1
    assert rep.pcp == want


# ----------------------------------------------------------------------
# gradients
# ----------------------------------------------------------------------

def test_loss_gradients_against_finite_differences():
    rng = np.random.default_rng(12)
    coords = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    feats_s = Tensor(rng.random((4, 6)) + 0.1, requires_grad=True)
    feats_t = Tensor(rng.random((4, 6)) + 0.1, requires_grad=True)
    y = rng.normal(size=(4, 3))
    d = rng.integers(0, 3, 4)

    def mk_out():
        return ModelOutputs(features=feats_s, coords=coords, logits=logits,
                            probs=engine.softmax(logits))

    cases = {
        "cr": (lambda: losses.loss_cr(coords, y), {"c": coords}),
        "pcp": (lambda: losses.loss_pcp(logits, d, 2.0), {"l": logits}),
        "local": (lambda: losses.local_align(feats_s, feats_t),
                  {"s": feats_s, "t": feats_t}),
        "mlmap": (lambda r=engine.constant(rng.normal(size=(4, 9))):
                  (losses.multilinear_map(engine.softmax(logits), coords, 2.0)
                   * r).sum(),
                  {"l": logits, "c": coords}),
    }
    for name, (f, params) in cases.items():
        err = grad_check(f, params)
        assert err < 1e-6, f"{name}: {err:.3e}"


def test_hda_uncertainty_gradients():
    out_s, _, y, d, _ = _toy_batch(seed=13)
    u = losses.UncertaintyParams()
    u.s1.data[...] = 0.4
    u.s2.data[...] = -0.2
    for gamma in (0.0, 2.0):
        err = grad_check(lambda: losses.hda_nll(out_s, y, d, u, gamma=gamma),
                         u.as_params())
        assert err < 1e-6, f"gamma={gamma}: {err:.3e}"


def test_loss_weights_validation():
    # loss weights are validated in one place, TrainConfig
    with pytest.raises(ValueError):
        TrainConfig(lambda4=-0.1)
