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
class LossWeights:
    cr: float = 0.7      # coordinate regression
    pcp: float = 0.3     # propagation-condition prediction
    kt: float = 1.0      # knowledge transfer (alignment)
    wr: float = 0.05     # weight regularization
    gamma: float = 2.0   # focal temperature

    def __post_init__(self):
        for v in (self.cr, self.pcp, self.kt, self.wr, self.gamma):
            if not np.isfinite(v) or v < 0:
                raise ValueError("loss weights must be finite and nonnegative")


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


def _one_hot(labels, n_classes):
    labels = np.asarray(labels, int)
    oh = np.zeros((labels.size, n_classes))
    oh[np.arange(labels.size), labels] = 1.0
    return oh


def loss_pcp(logits, labels, gamma):
    """Focal (modulated cross-entropy) loss; vanilla CE when gamma == 0."""
    labels = np.asarray(labels, int)
    if logits.shape[0] != labels.size:
        raise ShapeMismatch("batch size mismatch between logits and labels")
    oh = _one_hot(labels, logits.shape[1])
    logp = engine.log_softmax(logits)
    logp_true = (logp * engine.constant(oh)).sum(axis=1)       # [B]
    if gamma == 0.0:
        per_sample = -logp_true
    else:
        p_true = engine.clip(engine.exp(logp_true), _PROB_EPS, 1.0)
        per_sample = -engine.power(engine.clip(1.0 - p_true, 0.0, 1.0),
                                   gamma) * logp_true
    return per_sample.mean()


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

def loss_wr(params, include_all=False):
    """Half the summed squared weights.

    Biases and batch-norm scale/shift are excluded by default;
    include_all restores the literal everything-regularized reading.
    """
    total = engine.constant(0.0)
    for name, p in params.items():
        if not include_all and (name.endswith(".b") or ".bn." in name
                                or name.startswith("hda.")):
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
              weights, kt_weight=None):
    """Weighted multi-task objective; kt_weight overrides weights.kt
    (the trainer passes the scheduled value)."""
    lam3 = weights.kt if kt_weight is None else kt_weight
    l_cr = loss_cr(outputs_src.coords, coords_src)
    l_pcp = loss_pcp(outputs_src.logits, labels_src, weights.gamma)
    return _objective(weights.cr * l_cr + weights.pcp * l_pcp, l_cr, l_pcp,
                      weights.cr, weights.pcp, outputs_src, outputs_tgt,
                      params, lam3, weights.wr, weights.gamma)


def hda_nll(outputs_src, coords_src, labels_src, u, gamma,
            exact_tempered=False):
    """Negative log-likelihood of the joint task, batch-averaged.

    gamma == 0 uses the compact form
        L1 / (2 sigma1^2) + L2 / sigma2^2 + log sigma1 + log sigma2^2
    with L1 the mean summed squared coordinate error and L2 the mean
    cross-entropy.  gamma > 0 modulates the CE term by
    (1 - softmax^{1/sigma2^2} / sigma2^2)^gamma, base clamped to [eps, 1]
    to keep the fractional power real.  exact_tempered evaluates the
    tempered softmax itself instead of the compact approximation.
    """
    return _hda_nll(loss_cr(outputs_src.coords, coords_src),
                    outputs_src.logits, labels_src, u, gamma, exact_tempered)


def _hda_nll(l1, logits, labels_src, u, gamma, exact_tempered):
    """hda_nll given the coordinate loss L1 already built."""
    labels = np.asarray(labels_src, int)
    inv_s1 = engine.exp(-u.s1)   # 1 / sigma1^2
    inv_s2 = engine.exp(-u.s2)   # 1 / sigma2^2
    oh = engine.constant(_one_hot(labels, logits.shape[1]))

    if exact_tempered:
        tempered = engine.log_softmax(logits * inv_s2)
        logp_true = (tempered * oh).sum(axis=1)
        if gamma == 0.0:
            ce = -logp_true.mean()
        else:
            p_true = engine.clip(engine.exp(logp_true), _PROB_EPS, 1.0)
            ce = (-engine.power(engine.clip(1.0 - p_true, 0.0, 1.0), gamma)
                  * logp_true).mean()
        pcp_term = ce + u.s2
    else:
        logp = engine.log_softmax(logits)
        logp_true = (logp * oh).sum(axis=1)
        if gamma == 0.0:
            pcp_term = inv_s2 * (-logp_true.mean())
        else:
            p_true = engine.clip(engine.exp(logp_true), _PROB_EPS, 1.0)
            # p ** (1/sigma2^2) with the exponent kept in the graph
            p_pow = engine.exp(inv_s2 * engine.log(p_true))
            base = engine.clip(1.0 - inv_s2 * p_pow, _PROB_EPS, 1.0)
            pcp_term = (engine.power(base, gamma) * (-logp_true)).mean()

    return (0.5 * inv_s1 * l1 + pcp_term + 0.5 * u.s1 + u.s2)


def hda_total(outputs_src, coords_src, labels_src, outputs_tgt, params, u,
              lam3, lam4, gamma, exact_tempered=False):
    """Uncertainty-weighted objective: NLL + lam3 * KT + lam4 * WR.

    The reported L_PCP is the plain focal loss, which the NLL does not use
    as such; it is built for the report only.
    """
    l_cr = loss_cr(outputs_src.coords, coords_src)
    nll = _hda_nll(l_cr, outputs_src.logits, labels_src, u, gamma,
                   exact_tempered)
    l_pcp = loss_pcp(outputs_src.logits, labels_src, gamma)
    s1sq, s2sq = u.sigma_sq()
    return _objective(nll, l_cr, l_pcp, s1sq, s2sq, outputs_src, outputs_tgt,
                      params, lam3, lam4, gamma)
