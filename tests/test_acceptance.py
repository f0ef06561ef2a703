"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line at its pinned tolerance.

The heavyweight criterion (the directional ablation) trains twelve small
models and dominates the suite's runtime; its budget is 30 minutes of CPU.
"""

import os
import time

import numpy as np
import pytest

from semloc import cli, engine, features as F, losses, training
from semloc.engine import Tensor
from semloc.models import ModelOutputs
from semloc.scenario import (LOS, ArrayGeometry, Box, Lane, MpcSet, Scenario,
                             desk_scenario, generate_dataset,
                             segments_hit_boxes, synth_cfr, trace_paths,
                             Scene, SPEED_OF_LIGHT)
from semloc.training import SplitPlan, TrainConfig, lambda3_schedule


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. gradient fidelity
# ----------------------------------------------------------------------

def test_acceptance_1_gradient_fidelity(capsys):
    t0 = time.time()
    errs = {m: cli.gradcheck_error(m, seed=0) for m in ("mda", "hda")}
    elapsed = time.time() - t0
    ok = max(errs.values()) < 1e-4 and elapsed < 60.0
    report(capsys, "gradient-fidelity", ok,
           f"mda {errs['mda']:.3e}, hda {errs['hda']:.3e}, "
           f"tol 1e-4, {elapsed:.1f}s < 60s")


# ----------------------------------------------------------------------
# 2. loss identities
# ----------------------------------------------------------------------

def test_acceptance_2_loss_identities(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        b = 8
        logits = rng.normal(size=(b, 3))
        labels = rng.integers(0, 3, b)
        coords = rng.normal(size=(b, 3))
        y = rng.normal(size=(b, 3))
        feats = rng.random((b, 6)) + 0.1

        # focal(gamma=0) == cross-entropy
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        ce = -logp[np.arange(b), labels].mean()
        worst = max(worst, abs(losses.loss_pcp(Tensor(logits), labels,
                                               gamma=0.0).item() - ce))

        # HDA NLL at unit variances, gamma=0 == 0.5 L1 + L2
        lt = Tensor(logits)
        out = ModelOutputs(features=Tensor(feats), coords=Tensor(coords),
                           logits=lt, probs=engine.softmax(lt))
        u = losses.UncertaintyParams()
        l1 = losses.loss_cr(out.coords, y).item()
        worst = max(worst, abs(losses.hda_nll(out, y, labels, u,
                                              gamma=0.0).item()
                               - (0.5 * l1 + ce)))

        # SKL(p, p) == 0 and SKL symmetry
        p, q = rng.random(8), rng.random(8)
        worst = max(worst, abs(losses.skl(p, p).item()))
        worst = max(worst, abs(losses.skl(p, q).item()
                               - losses.skl(q, p).item()))

        # L_KT == 0 for identical source and target batches
        worst = max(worst, abs(losses.loss_kt(out, out, gamma=2.0).item()))

    report(capsys, "loss-identities", worst < 1e-12,
           f"max deviation {worst:.3e} over 100 batches, tol 1e-12")


# ----------------------------------------------------------------------
# 3. transform exactness
# ----------------------------------------------------------------------

def test_acceptance_3_transform_exactness(capsys):
    worst_unit = 0.0
    for n in range(1, 65):
        for mat in (F.unitary_dft(n), F.shifted_dft(n)):
            worst_unit = max(worst_unit, np.abs(
                mat.conj().T @ mat - np.eye(n)).max())

    rng = np.random.default_rng(9)
    arr = ArrayGeometry(4, 4)
    worst_energy = 0.0
    for _ in range(20):
        h = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
        g_norm = np.sqrt(F.adp(h, arr).sum())
        want = np.linalg.norm(h, "fro") / np.sqrt(16 * 8)
        worst_energy = max(worst_energy, abs(g_norm - want) / want)

    sc = Scenario(bs_position=(0.0, 0.0, 5.0), array=ArrayGeometry(4, 4),
                  carrier_freq=3.5e9, bandwidth=100e6, n_subcarriers=16,
                  ue_grid=np.array([[10.0, 0.0, 1.5]]), grid_spacing=1.0)
    df = sc.bandwidth / (sc.n_subcarriers - 1)
    mpcs = MpcSet(gains=np.array([1.0 + 0.0j]),
                  azimuths=np.array([np.pi / 6]),
                  elevations=np.array([np.pi / 2]),
                  delays=np.array([3.0 / (sc.n_subcarriers * df)]))
    x = F.adp(synth_cfr(mpcs, sc), sc.array)
    conc = x.max() / x.sum()

    ok = worst_unit < 1e-12 and worst_energy < 1e-12 and conc >= 0.99
    report(capsys, "transform-exactness", ok,
           f"unitarity {worst_unit:.3e} (tol 1e-12), "
           f"energy rel {worst_energy:.3e} (tol 1e-12), "
           f"on-grid bin {100 * conc:.2f}% >= 99%")


# ----------------------------------------------------------------------
# 4. simulator consistency
# ----------------------------------------------------------------------

def _toy_label_scenario(buildings):
    # a high ceiling mirror guarantees one unobstructed reflection, so
    # every link survives and carries a label
    mirror = Box((-30.0, -30.0, 50.0), (30.0, 30.0, 51.0))
    return Scenario(bs_position=(0.0, 0.0, 8.0), array=ArrayGeometry(2, 2),
                    carrier_freq=3.5e9, bandwidth=100e6, n_subcarriers=8,
                    ue_grid=np.array([[10.0, 5.0, 1.5]]), grid_spacing=1.0,
                    buildings=list(buildings) + [mirror], lanes=[])


def test_acceptance_4_simulator_consistency(capsys):
    rng = np.random.default_rng(13)
    worst_delay = 0.0
    mismatches = 0
    n_los = 0
    for _ in range(1000):
        def rand_boxes(n):
            out = []
            for _ in range(n):
                lo = np.array([rng.uniform(-8, 8), rng.uniform(0, 2.5),
                               0.0])
                hi = lo + [rng.uniform(0.5, 4), rng.uniform(0.5, 1.0),
                           rng.uniform(1, 6)]
                out.append(Box(tuple(lo), tuple(hi)))
            return out

        buildings = rand_boxes(rng.integers(0, 3))
        vehicles = rand_boxes(rng.integers(0, 3))
        sc = _toy_label_scenario(buildings)
        scene = Scene(scene_id=0, vehicles=vehicles)
        ue = np.array([rng.uniform(-10, 10), rng.uniform(4, 6), 1.5])

        mpcs, label = trace_paths(sc, scene, ue)

        # dense-sampling oracle on the direct segment
        bs = np.asarray(sc.bs_position)
        t = np.linspace(1e-4, 1 - 1e-4, 4001)[:, None]
        pts = bs[None, :] + t * (ue - bs)[None, :]

        def blocked(boxes):
            return any(np.all((pts >= b.lo) & (pts <= b.hi), axis=1).any()
                       for b in boxes)

        want = 2 if blocked(buildings) else 1 if blocked(vehicles) else 0
        if label != want:
            mismatches += 1
        if label == LOS:
            n_los += 1
            d = np.linalg.norm(ue - bs)
            worst_delay = max(worst_delay,
                              abs(mpcs.delays.min() * SPEED_OF_LIGHT - d) / d)

    ok = mismatches == 0 and worst_delay < 1e-9 and n_los > 100
    report(capsys, "simulator-consistency", ok,
           f"label mismatches {mismatches}/1000, LOS delay rel err "
           f"{worst_delay:.2e} (tol 1e-9) over {n_los} LOS links")


# ----------------------------------------------------------------------
# 5. directional ablation (the slow one)
# ----------------------------------------------------------------------

def test_acceptance_5_directional_ablation(capsys):
    t0 = time.time()
    c0 = time.process_time()  # budget is CPU time on one core
    # CPU minutes depend on the BLAS thread count, so the line names it
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    ds = generate_dataset(desk_scenario(), n_scenes=40, seed=0)
    split = SplitPlan.default(40)
    base = TrainConfig(epochs=10, batch_size=64,
                       conv_channels=[4, 8, 8, 16], mlp_widths=[32, 16])
    grid = (("cr-only", dict(method="dcnn", lambda3_max=0.0)),
            ("cr-only+kt", dict(method="dcnn")),
            ("mda", dict(method="mda")),
            ("hda", dict(method="hda")))
    rows = training.run_ablation(ds, split, base, grid=grid, seeds=(0, 1, 2))
    cpu_min = (time.process_time() - c0) / 60
    wall_min = (time.time() - t0) / 60
    rmse = {r["name"]: r["rmse_mean"] for r in rows}

    gain_mda = 100.0 * (rmse["cr-only"] - rmse["mda"]) / rmse["cr-only"]
    kt_helps = rmse["cr-only+kt"] < rmse["cr-only"]
    hda_gap = 100.0 * (rmse["hda"] - rmse["mda"]) / rmse["mda"]

    ok_a = gain_mda >= 5.0
    ok_b = kt_helps
    ok_c = hda_gap <= 5.0
    ok_t = cpu_min < 30.0
    detail = (f"(a) mda gain {gain_mda:.1f}% >= 5%: {ok_a}; "
              f"(b) kt {rmse['cr-only+kt']:.3f} < cr-only "
              f"{rmse['cr-only']:.3f}: {ok_b}; "
              f"(c) hda gap {hda_gap:+.1f}% <= 5%: {ok_c}; "
              f"cpu {cpu_min:.1f} min < 30 min: {ok_t} "
              f"[wall {wall_min:.1f} min on a shared core; "
              f"OPENBLAS_NUM_THREADS={blas_threads}]")
    report(capsys, "directional-ablation", ok_a and ok_b and ok_c and ok_t,
           detail)


# ----------------------------------------------------------------------
# 6. determinism
# ----------------------------------------------------------------------

def test_acceptance_6_determinism(capsys):
    sc = desk_scenario()
    runs = []
    for _ in range(2):
        ds = generate_dataset(sc, n_scenes=6, seed=5)
        cfg = TrainConfig(epochs=2, batch_size=8, conv_channels=[2, 4],
                          mlp_widths=[16], seed=0)
        split = SplitPlan.default(6)
        res = training.train(ds, split, cfg)
        res.model.load_state_dict(res.best_state)
        m = training.evaluate(res.model, ds, split, cfg, which="target")
        runs.append((ds.cfr.tobytes(), ds.coords.tobytes(),
                     ds.labels.tobytes(), res.log_csv, m.summary()))
    same_data = runs[0][:3] == runs[1][:3]
    same_log = runs[0][3] == runs[1][3]
    same_metrics = runs[0][4] == runs[1][4]
    report(capsys, "determinism", same_data and same_log and same_metrics,
           f"dataset bytes {same_data}, log bytes {same_log}, "
           f"metrics {same_metrics}")


# ----------------------------------------------------------------------
# 7. schedule
# ----------------------------------------------------------------------

def test_acceptance_7_schedule(capsys):
    v0 = lambda3_schedule(0.0)
    v01 = lambda3_schedule(0.1)
    vals = np.array([lambda3_schedule(k) for k in np.linspace(0, 1, 1000)])
    ok = (v0 == 0.0 and abs(v01 - 0.46212) < 1e-5
          and bool(np.all(np.diff(vals) > 0)))
    report(capsys, "schedule", ok,
           f"lambda3(0) = {v0}, lambda3(0.1) = {v01:.6f} "
           f"(0.46212 +/- 1e-5), monotone on 1000 points")
