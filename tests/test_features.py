"""Tests for fingerprint transforms and normalization.

DFT matrices are checked for unitarity and pinned entries; the ADP map
is checked against energy-conservation identities, bin concentration
for on-grid paths, and circular shift covariance in delay.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import semloc
from semloc import features as F
from semloc.scenario import ArrayGeometry, MpcSet, Scenario, synth_cfr


def make_scenario(m_y=4, m_z=4, K=16):
    return Scenario(bs_position=(0.0, 0.0, 5.0),
                    array=ArrayGeometry(m_y, m_z),
                    carrier_freq=3.5e9, bandwidth=100e6, n_subcarriers=K,
                    ue_grid=np.array([[10.0, 0.0, 1.5]]), grid_spacing=1.0)


def random_cfr(rng, m, k):
    return rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))


# ----------------------------------------------------------------------
# DFT building blocks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 64])
def test_unitary_dft_is_unitary(n):
    f = F.unitary_dft(n)
    np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 64])
def test_shifted_dft_is_unitary(m):
    v = F.shifted_dft(m)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(m), atol=1e-12)


def test_shifted_dft_pinned_entries():
    v = F.shifted_dft(2)
    s = 1.0 / np.sqrt(2.0)
    # row i, column k: exp(-2j pi i (k - 1) / 2) / sqrt(2)
    np.testing.assert_allclose(v[0], [s, s], atol=1e-15)
    np.testing.assert_allclose(v[1], [-s, s], atol=1e-15)


def test_unitary_dft_pinned_entries():
    f = F.unitary_dft(4)
    np.testing.assert_allclose(f[1, 1], -0.5j, atol=1e-15)
    np.testing.assert_allclose(f[1, 2], -0.5, atol=1e-15)


# ----------------------------------------------------------------------
# ADP
# ----------------------------------------------------------------------

def test_adp_energy_identity():
    # sum(X) = ||G||_F^2 = ||H||_F^2 / (M K) since the transforms are unitary
    rng = np.random.default_rng(0)
    arr = ArrayGeometry(4, 4)
    h = random_cfr(rng, 16, 8)
    x = F.adp(h, arr)
    np.testing.assert_allclose(x.sum(),
                               np.linalg.norm(h, "fro") ** 2 / (16 * 8),
                               rtol=1e-12)


def test_adp_batch_matches_single():
    rng = np.random.default_rng(1)
    arr = ArrayGeometry(2, 4)
    hb = np.stack([random_cfr(rng, 8, 16) for _ in range(5)])
    got = F.adp(hb, arr)
    want = np.stack([F.adp(h, arr) for h in hb])
    np.testing.assert_allclose(got, want, atol=1e-12)
    # any number of leading batch axes
    np.testing.assert_allclose(F.adp(hb.reshape(5, 1, 8, 16), arr)[:, 0],
                               want, atol=1e-12)


def test_adp_single_on_grid_path_concentrates():
    # azimuth pi/6, elevation pi/2 puts the angle response exactly on a
    # DFT bin of a 4x4 array; an on-grid delay does the same in delay
    sc = make_scenario(4, 4, K=16)
    df = sc.bandwidth / (sc.n_subcarriers - 1)
    tau = 3.0 / (sc.n_subcarriers * df)
    mpcs = MpcSet(gains=np.array([1.0 + 0.0j]),
                  azimuths=np.array([np.pi / 6]),
                  elevations=np.array([np.pi / 2]),
                  delays=np.array([tau]))
    x = F.adp(synth_cfr(mpcs, sc), sc.array)
    assert x.max() / x.sum() >= 0.99


def test_adp_delay_shift_covariance():
    # delaying every path by one delay-bin circularly shifts X in delay
    rng = np.random.default_rng(2)
    sc = make_scenario(2, 2, K=8)
    h = random_cfr(rng, 4, 8)
    df = sc.bandwidth / (sc.n_subcarriers - 1)
    shift = np.exp(-2j * np.pi * np.arange(8) / 8)  # tau0 = 1/(K df)
    x = F.adp(h, sc.array)
    x_shifted = F.adp(h * shift[None, :], sc.array)
    np.testing.assert_allclose(x_shifted, np.roll(x, 1, axis=1), atol=1e-12)


def test_adp_rejects_wrong_antenna_count():
    with pytest.raises(F.ShapeMismatch):
        F.adp(np.zeros((9, 8), complex), ArrayGeometry(4, 4))


# ----------------------------------------------------------------------
# SCM / RCSI
# ----------------------------------------------------------------------

def test_scm_matches_loop_oracle_and_is_psd():
    rng = np.random.default_rng(3)
    h = random_cfr(rng, 6, 10)
    planes = F.scm(h)
    c = planes[0] + 1j * planes[1]
    want = sum(np.outer(h[:, k], h[:, k].conj()) for k in range(10)) / 10.0
    np.testing.assert_allclose(c, want, atol=1e-12)
    np.testing.assert_allclose(c, c.conj().T, atol=1e-12)  # hermitian
    assert np.linalg.eigvalsh(c).min() > -1e-12             # PSD


def test_rcsi_planes_reassemble_cfr():
    rng = np.random.default_rng(4)
    h = random_cfr(rng, 4, 8)
    planes = F.rcsi(h)
    assert planes.shape == (2, 4, 8)
    np.testing.assert_array_equal(planes[0] + 1j * planes[1], h)


def test_extract_shapes_and_dispatch():
    rng = np.random.default_rng(5)
    arr = ArrayGeometry(2, 2)
    h = random_cfr(rng, 4, 8)
    assert F.extract(h, F.ADP, arr).shape == (4, 8)
    assert F.extract(h, F.SCM).shape == (2, 4, 4)
    assert F.extract(h, F.RCSI).shape == (2, 4, 8)
    with pytest.raises(ValueError):
        F.extract(h, "nope")


@pytest.mark.parametrize("kind", F.FINGERPRINT_KINDS)
def test_extract_on_a_batch_matches_single(kind):
    rng = np.random.default_rng(12)
    arr = ArrayGeometry(2, 2)
    hb = np.stack([random_cfr(rng, 4, 8) for _ in range(3)])
    want = np.stack([F.extract(h, kind, arr) for h in hb])
    np.testing.assert_allclose(F.extract(hb, kind, arr), want, atol=1e-12)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def test_normalize_aw_per_antenna_max_one():
    rng = np.random.default_rng(6)
    x = rng.random((4, 8)) + 0.1
    out = F.normalize(x[None], F.AW)[0]
    np.testing.assert_allclose(np.abs(out).max(axis=1), 1.0, atol=1e-12)


def test_normalize_sw_per_subcarrier_max_one():
    rng = np.random.default_rng(7)
    x = rng.random((4, 8)) + 0.1
    out = F.normalize(x[None], F.SW)[0]
    np.testing.assert_allclose(np.abs(out).max(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(out, x / x.max(axis=0), atol=1e-12)


def test_normalize_mw_global_max_one():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4, 8)) * 5.0
    out = F.normalize(x[None], F.MW)
    np.testing.assert_allclose(np.abs(out).max(), 1.0, atol=1e-12)


def test_normalize_na_is_identity():
    x = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(F.normalize(x[None], F.NA)[0], x)


def test_normalize_is_idempotent():
    rng = np.random.default_rng(9)
    x = rng.random((1, 4, 8))
    for scheme in (F.AW, F.SW, F.MW):
        once = F.normalize(x, scheme)
        np.testing.assert_allclose(F.normalize(once, scheme), once, atol=1e-12)


def test_normalize_zero_rows_survive():
    x = np.zeros((1, 4, 8))
    x[0, 0, 0] = 2.0
    for scheme in (F.AW, F.SW, F.MW):
        out = F.normalize(x, scheme)
        assert np.all(np.isfinite(out))
    # all-zero input maps to all zeros
    assert np.all(F.normalize(np.zeros((1, 4, 8)), F.AW) == 0.0)


def test_normalize_aw_respects_3d_antenna_axis():
    rng = np.random.default_rng(10)
    x = rng.random((2, 4, 8))  # channel, antenna, subcarrier
    out = F.normalize(x[None], F.AW)[0]
    np.testing.assert_allclose(np.abs(out).max(axis=(0, 2)), 1.0, atol=1e-12)


@pytest.mark.parametrize("scheme", (F.AW, F.SW, F.MW))
def test_normalize_scales_each_sample_on_its_own(scheme):
    # two samples 1000x apart: each must get its own denominators, so the
    # batch result equals the samples normalized one at a time
    rng = np.random.default_rng(13)
    x = rng.random((2, 4, 8)) + 0.1
    x[1] *= 1000.0
    out = F.normalize(x, scheme)
    for i in range(2):
        np.testing.assert_array_equal(out[i], F.normalize(x[i:i + 1],
                                                          scheme)[0])
        np.testing.assert_allclose(np.abs(out[i]).max(), 1.0, atol=1e-12)


def test_pipeline_shapes():
    rng = np.random.default_rng(11)
    arr = ArrayGeometry(2, 2)
    hb = np.stack([random_cfr(rng, 4, 8) for _ in range(3)])
    assert F.fingerprint_pipeline(hb, F.ADP, F.AW, arr).shape == (3, 4, 8)
    assert F.fingerprint_pipeline(hb, F.SCM, F.MW).shape == (3, 2, 4, 4)
    assert F.fingerprint_pipeline(hb, F.RCSI, F.NA).shape == (3, 2, 4, 8)
    # an empty batch, as from an empty domain, gives an empty array
    for scheme in F.NORM_SCHEMES:
        assert F.fingerprint_pipeline(hb[:0], F.ADP, scheme,
                                      arr).shape == (0, 4, 8)
        assert F.fingerprint_pipeline(hb[:0], F.SCM, scheme).shape == \
            (0, 2, 4, 4)
        assert F.fingerprint_pipeline(hb[:0], F.RCSI, scheme).shape == \
            (0, 2, 4, 8)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("kind", F.FINGERPRINT_KINDS)
def test_streamed_pipeline_matches_one_shot_oracle(kind, dtype):
    # row blocks are widened and fingerprinted one at a time; every row
    # count around the block size gives the bytes and shape of one pass
    # over the whole widened batch, since each row's extract has the bytes
    # of that row alone
    rng = np.random.default_rng(17)
    arr = ArrayGeometry(2, 2)
    b = F._BLOCK_ROWS
    for n in (0, 1, b - 1, b, b + 1, 2 * b + 3):
        h = (rng.normal(size=(n, 4, 8))
             + 1j * rng.normal(size=(n, 4, 8))).astype(dtype)
        whole = F.extract(h.astype(np.complex128), kind, arr)
        for i, row in enumerate(h.astype(np.complex128)):
            assert F.extract(row, kind, arr).tobytes() == \
                whole[i].tobytes(), (n, i)
        for scheme in F.NORM_SCHEMES:
            got = F.fingerprint_pipeline(h, kind, scheme, arr)
            want = F.normalize(whole, scheme)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (n, scheme)


def _has_avx2():
    try:
        with open("/proc/cpuinfo") as f:
            return re.search(r"\bavx2\b", f.read()) is not None
    except OSError:
        return False


@pytest.mark.skipif(not _has_avx2(), reason="Haswell kernels need AVX2")
def test_batch_independence_holds_under_the_haswell_kernel():
    # a row's bytes must not depend on the batch it is computed in, on any
    # BLAS kernel: the tests that check it run again in a fresh process
    # with OpenBLAS's Haswell kernels forced, the ones a CPU without
    # AVX-512 gets (the kernel is chosen when numpy loads)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(semloc.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    core = subprocess.run(
        [sys.executable, "-c",
         "from conftest import openblas_core; print(openblas_core())"],
        cwd=tests, env=env, capture_output=True, text=True, check=True)
    assert core.stdout.strip() == "Haswell", core.stdout + core.stderr
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_features.py::"
         "test_streamed_pipeline_matches_one_shot_oracle",
         "tests/test_trainer.py::"
         "test_prepare_domains_match_whole_dataset_oracle",
         "tests/test_engine.py::test_eval_bytes_do_not_depend_on_batching"],
        cwd=os.path.dirname(tests), env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
