"""Training objectives: supervised coordinate / propagation-condition
losses, the symmetric-KL knowledge-alignment terms, weight
regularization, and the uncertainty-weighted joint likelihood.

The alignment terms compare batch-level distributions between labeled
(source) and unlabeled (target) data.  The global term builds a
per-sample Kronecker map of class confidences and predicted coordinates;
since coordinates can be negative, the batch-mean map is passed through
abs -> epsilon-smooth -> sum-normalize before the SKL, which keeps the
divergence well defined while preserving the map's relative structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import ShapeMismatch, Tensor

_PROB_EPS = 1e-12   # probability clamp inside logs and focal bases
_SKL_EPS = 1e-8     # distribution smoothing before KL


class DegenerateDistribution(ValueError):
    """A pooled feature distribution was identically zero."""


@dataclass
class UncertaintyParams:
    """Learnable log-variances of the two supervised tasks (s = log sigma^2)."""

    s1: Tensor = field(default_factory=lambda: Tensor(0.0, requires_grad=True))
    s2: Tensor = field(default_factory=lambda: Tensor(0.0, requires_grad=True))

    def as_params(self):
        return {"hda.s1": self.s1, "hda.s2": self.s2}

    def sigma_sq(self):
        return float(np.exp(self.s1.data)), float(np.exp(self.s2.data))


@dataclass
class LossReport:
    cr: float = 0.0
    pcp: float = 0.0
    kt_local: float = 0.0
    kt_global: float = 0.0
    wr: float = 0.0
    total: float = 0.0
    # the two task weights: fixed (lambda1, lambda2), or learned
    # (sigma1^2, sigma2^2) under hda
    w1: float = 0.0
    w2: float = 0.0


# ----------------------------------------------------------------------
# supervised terms
# ----------------------------------------------------------------------

def loss_cr(pred_coords, true_coords):
    """Mean squared Euclidean coordinate error over the batch."""
    true = np.asarray(true_coords, float)
    if tuple(pred_coords.shape) != true.shape or true.shape[1] != 3:
        raise ShapeMismatch(f"coords {pred_coords.shape} vs {true.shape}")
    diff = pred_coords - engine.constant(true)
    return engine.square(diff).sum() * (1.0 / true.shape[0])


def _true_class(logits, labels, gamma):
    """log p and, when gamma > 0, the clamped p of each sample's true class
    under softmax(logits), [B] each."""
    labels = np.asarray(labels, int)
    if logits.shape[0] != labels.size:
        raise ShapeMismatch("batch size mismatch between logits and labels")
    oh = np.zeros((labels.size, logits.shape[1]))
    oh[np.arange(labels.size), labels] = 1.0
    logp_true = (engine.log_softmax(logits) * engine.constant(oh)).sum(axis=1)
    if gamma == 0.0:
        return logp_true, None
    return logp_true, engine.clip(engine.exp(logp_true), _PROB_EPS, 1.0)


def _focal(logp_true, p_true, gamma):
    """Batch-mean focal loss from _true_class's terms."""
    if gamma == 0.0:
        per_sample = -logp_true
    else:
        per_sample = -engine.power(engine.clip(1.0 - p_true, 0.0, 1.0),
                                   gamma) * logp_true
    return per_sample.mean()


def loss_pcp(logits, labels, gamma):
    """Focal (modulated cross-entropy) loss; vanilla CE when gamma == 0."""
    return _focal(*_true_class(logits, labels, gamma), gamma)


# ----------------------------------------------------------------------
# alignment terms
# ----------------------------------------------------------------------

def _smooth_normalize(p):
    p = p + _SKL_EPS
    return p * (1.0 / p.sum())


def skl(p, q):
    """Symmetric KL of two nonnegative vectors (smoothed, renormalized)."""
    p = engine.constant(p) if not isinstance(p, Tensor) else p
    q = engine.constant(q) if not isinstance(q, Tensor) else q
    if p.shape != q.shape:
        raise ShapeMismatch("skl operands differ in length")
    ps = _smooth_normalize(p)
    qs = _smooth_normalize(q)
    # both are full-support distributions after smoothing

    log_ratio = engine.log(ps) - engine.log(qs)
    return (ps * log_ratio).sum() + (qs * (-log_ratio)).sum()


def _pooled_distribution(features):
    pooled = features.mean(axis=0)
    if not np.any(pooled.data > 0):
        raise DegenerateDistribution("pooled features are identically zero")
    return pooled / pooled.sum()


def local_align(features_src, features_tgt):
    """SKL between the batch-pooled, sum-normalized feature distributions."""
    if features_src.shape[1] != features_tgt.shape[1]:
        raise ShapeMismatch("feature widths differ across domains")
    return skl(_pooled_distribution(features_src),
               _pooled_distribution(features_tgt))


def multilinear_map(probs, coords, gamma):
    """Per-sample Kronecker map of modulated class confidence and coords.

    Output [B, n_classes * 3]; sample rows are kron(w, coords) with
    w = -(1 - probs)^gamma * log(probs), class-major.
    """
    if probs.shape[0] != coords.shape[0]:
        raise ShapeMismatch("batch size mismatch in multilinear map")
    logp = engine.log(engine.clip(probs, _PROB_EPS, 1.0))
    w = -engine.power(engine.clip(1.0 - probs, 0.0, 1.0), gamma) * logp
    b, kc = w.shape
    # batched kron via broadcasting: [B, Kc, 1] * [B, 1, 3]
    left = w.reshape(b, kc, 1)
    right = coords.reshape(b, 1, 3)
    return (left * right).reshape(b, kc * 3)


def global_align(outputs_src, outputs_tgt, gamma):
    """SKL between the abs-normalized batch means of the multilinear maps."""
    phis, phit = (multilinear_map(o.probs, o.coords, gamma)
                  for o in (outputs_src, outputs_tgt))

    def to_dist(phi):
        mean_map = engine.tabs(phi.mean(axis=0))
        if mean_map.data.sum() <= 0:
            raise DegenerateDistribution("multilinear map collapsed to zero")
        return mean_map / mean_map.sum()

    return skl(to_dist(phis), to_dist(phit))


def loss_kt(outputs_src, outputs_tgt, gamma):
    """Alignment loss: local (features) + global (task outputs)."""
    return (local_align(outputs_src.features, outputs_tgt.features)
            + global_align(outputs_src, outputs_tgt, gamma))


# ----------------------------------------------------------------------
# regularization
# ----------------------------------------------------------------------

def loss_wr(params):
    """Half the summed squared weights; biases, batch-norm scale/shift and
    the hda log-variances are not regularized."""
    total = engine.constant(0.0)
    for name, p in params.items():
        if name.endswith(".b") or ".bn." in name or name.startswith("hda."):
            continue
        total = total + engine.square(p).sum()
    return total * 0.5


# ----------------------------------------------------------------------
# combined objectives
# ----------------------------------------------------------------------

def _objective(supervised, l_cr, l_pcp, w1, w2, outputs_src, outputs_tgt,
               params, lam3, lam4, gamma):
    """supervised + lam3 * KT + lam4 * WR, and the report of every term.

    Both objectives end here; they differ only in how they weight the two
    supervised tasks into `supervised` and in the task weights w1, w2 they
    report.  l_cr and l_pcp are the unweighted supervised terms, reported
    as they are.
    """
    if lam3 > 0.0 and outputs_tgt is not None:
        l_loc = local_align(outputs_src.features, outputs_tgt.features)
        l_glob = global_align(outputs_src, outputs_tgt, gamma)
    else:
        l_loc = engine.constant(0.0)
        l_glob = engine.constant(0.0)
    l_wr = loss_wr(params)
    total = supervised + lam3 * (l_loc + l_glob) + lam4 * l_wr
    report = LossReport(cr=l_cr.item(), pcp=l_pcp.item(),
                        kt_local=l_loc.item(), kt_global=l_glob.item(),
                        wr=l_wr.item(), total=total.item(), w1=w1, w2=w2)
    return total, report


def mda_total(outputs_src, coords_src, labels_src, outputs_tgt, params,
              lam1, lam2, lam3, lam4, gamma):
    """Fixed-weight objective: lam1 L_CR + lam2 L_PCP + lam3 KT + lam4 WR."""
    l_cr = loss_cr(outputs_src.coords, coords_src)
    l_pcp = loss_pcp(outputs_src.logits, labels_src, gamma)
    return _objective(lam1 * l_cr + lam2 * l_pcp, l_cr, l_pcp, lam1, lam2,
                      outputs_src, outputs_tgt, params, lam3, lam4, gamma)


def hda_nll(outputs_src, coords_src, labels_src, u, gamma):
    """Negative log-likelihood of the joint task, batch-averaged.

    gamma == 0 uses the compact form
        L1 / (2 sigma1^2) + L2 / sigma2^2 + log sigma1 + log sigma2^2
    with L1 the mean summed squared coordinate error and L2 the mean
    cross-entropy.  gamma > 0 modulates the CE term by
    (1 - softmax^{1/sigma2^2} / sigma2^2)^gamma, base clamped to [eps, 1]
    to keep the fractional power real.
    """
    return _hda_nll(loss_cr(outputs_src.coords, coords_src),
                    *_true_class(outputs_src.logits, labels_src, gamma),
                    u, gamma)


def _hda_nll(l1, logp_true, p_true, u, gamma):
    """hda_nll from the built coordinate loss L1 and _true_class's terms."""
    inv_s1 = engine.exp(-u.s1)   # 1 / sigma1^2
    inv_s2 = engine.exp(-u.s2)   # 1 / sigma2^2
    if gamma == 0.0:
        pcp_term = inv_s2 * (-logp_true.mean())
    else:
        # p ** (1/sigma2^2) with the exponent kept in the graph
        p_pow = engine.exp(inv_s2 * engine.log(p_true))
        base = engine.clip(1.0 - inv_s2 * p_pow, _PROB_EPS, 1.0)
        pcp_term = (engine.power(base, gamma) * (-logp_true)).mean()
    return (0.5 * inv_s1 * l1 + pcp_term + 0.5 * u.s1 + u.s2)


def hda_total(outputs_src, coords_src, labels_src, outputs_tgt, params, u,
              lam3, lam4, gamma):
    """Uncertainty-weighted objective: NLL + lam3 * KT + lam4 * WR.

    The reported L_PCP is the plain focal loss, which the NLL does not use
    as such; it comes from the NLL's own true-class terms.
    """
    l_cr = loss_cr(outputs_src.coords, coords_src)
    logp_true, p_true = _true_class(outputs_src.logits, labels_src, gamma)
    nll = _hda_nll(l_cr, logp_true, p_true, u, gamma)
    s1sq, s2sq = u.sigma_sq()
    return _objective(nll, l_cr, _focal(logp_true, p_true, gamma), s1sq, s2sq,
                      outputs_src, outputs_tgt, params, lam3, lam4, gamma)
