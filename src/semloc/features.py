"""CFR-to-fingerprint transforms: ADP, SCM, RCSI and input normalization.

The angular-delay power map is
    G = (1 / sqrt(M*K)) * (V_my^H kron V_mz^H) @ H @ conj(F_K)
    X = |G|^2
with F the unitary DFT matrix and V the phase-shifted DFT matrix.  The
1/sqrt(MK) prefactor sits outside matrices that are already unitary, so
||G||_F = ||H||_F / sqrt(MK); normalization downstream absorbs the
scale.  Antenna flattening is iy-major, iz-minor, matching the steering
vector convention in scenario.py.
"""

from __future__ import annotations

import numpy as np

from .engine import ShapeMismatch

ADP, SCM, RCSI = "adp", "scm", "rcsi"
FINGERPRINT_KINDS = (ADP, SCM, RCSI)

AW, SW, MW, NA = "aw", "sw", "mw", "na"
NORM_SCHEMES = (AW, SW, MW, NA)

_NORM_EPS = 1e-12


def unitary_dft(n):
    """Unitary DFT matrix, entry (i, k) = exp(-2j pi i k / n) / sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    i = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(i, i) / n) / np.sqrt(n)


def shifted_dft(m):
    """Phase-shifted DFT, entry (i, k) = exp(-2j pi i (k - m/2) / m) / sqrt(m)."""
    if m < 1:
        raise ValueError("m must be positive")
    i = np.arange(m)[:, None]
    k = np.arange(m)[None, :]
    return np.exp(-2j * np.pi * i * (k - m / 2.0) / m) / np.sqrt(m)


def _angle_transform(array):
    return np.kron(shifted_dft(array.m_y).conj().T,
                   shifted_dft(array.m_z).conj().T)


def adp(h, array):
    """Angular-delay power fingerprint X = |G|^2, real [..., M, K]."""
    h = np.asarray(h)
    m, k = h.shape[-2:]
    if m != array.size:
        raise ShapeMismatch(f"CFR has {m} antennas, array has {array.size}")
    # order="C": the contraction path leaves the batch axis strided
    g = np.einsum("am,...mk,kb->...ab", _angle_transform(array), h,
                  unitary_dft(k).conj(), optimize=True, order="C")
    g /= np.sqrt(m * k)
    return np.abs(g) ** 2


def scm(h):
    """Sample covariance (1/K) H H^H as re/im planes [..., 2, M, M]."""
    h = np.asarray(h)
    c = h @ np.swapaxes(h.conj(), -1, -2) / h.shape[-1]
    return np.stack([c.real, c.imag], axis=-3)


def rcsi(h):
    """Real-valued CSI: stacked re/im planes of H, shape [..., 2, M, K]."""
    h = np.asarray(h)
    return np.stack([h.real, h.imag], axis=-3)


def extract(h, kind, array=None):
    """The `kind` fingerprint of CFRs [..., M, K] (leading axes: batch)."""
    if kind == ADP:
        return adp(h, array)
    if kind == SCM:
        return scm(h)
    if kind == RCSI:
        return rcsi(h)
    raise ValueError(f"unknown fingerprint kind {kind!r}")


def normalize(x, scheme):
    """Normalize a batch of fingerprints [n, ..., M, K], each sample on its
    own (antenna axis is axis -2).

    aw: each antenna's slice scaled so its max |.| is 1
    sw: likewise per subcarrier column
    mw: whole sample scaled by its global max |.|
    na: identity.  Divisors are floored at 1e-12.
    """
    x = np.asarray(x, float)
    if scheme == NA:
        return x.copy()
    keep = {AW: x.ndim - 2, SW: x.ndim - 1, MW: 0}.get(scheme)
    if keep is None:
        raise ValueError(f"unknown normalization scheme {scheme!r}")
    reduce_axes = tuple(ax for ax in range(1, x.ndim) if ax != keep)
    denom = np.maximum(np.abs(x).max(axis=reduce_axes, keepdims=True),
                       _NORM_EPS)
    return x / denom


def fingerprint_pipeline(cfr_batch, kind, scheme, array=None):
    """extract + normalize for a whole CFR batch; the trainer's input path."""
    return normalize(extract(cfr_batch, kind, array), scheme)
