"""The benchmark's workloads: what each sets up, runs and checks.

Each workload is one process and one caller running a closed loop: the
next iteration starts when the previous one has returned.  `setup`
builds the inputs from the workload seed; `ops` lists the timed calls of
one iteration in order, each with how many times it is repeated; `check`
verifies one iteration's outputs (a list per op, one entry per repeat)
against the set-up and against the first iteration (same seed, same
bytes).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

from semloc import cli, dataio, scenario, training
from semloc.models import Model
from semloc.training import SplitPlan, TrainConfig

# the acceptance gate's ablation rows and architecture
ABLATION_GRID = (("cr-only", dict(method="dcnn", lambda3_max=0.0)),
                 ("cr-only+kt", dict(method="dcnn")),
                 ("mda", dict(method="mda")),
                 ("hda", dict(method="hda")))
GATE_ARCH = dict(conv_channels=[4, 8, 8, 16], mlp_widths=[32, 16])
SMOKE_ARCH = dict(conv_channels=[2, 2, 2, 4], mlp_widths=[8, 4])
# an eval op takes under a second, far less than training; repeating it
# gives each run enough eval samples
ABLATION_EVAL_REPS = 6
FULLSCALE_EVAL_REPS = 3


class Checks:
    """Counts output checks; a failed check is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def dataset_digest(ds):
    h = hashlib.sha256()
    for a in (ds.cfr, ds.coords, ds.labels, ds.scene_ids):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def train_samples(n_source, cfg):
    """Source samples one `training.train` call feeds the optimizer."""
    steps = max(1, n_source // cfg.batch_size)
    return cfg.epochs * min(n_source, steps * cfg.batch_size)


def log_is_finite(log_csv):
    """Every logged loss, weight and validation figure is finite."""
    for line in log_csv.strip().splitlines()[1:]:
        fields = line.split(",")
        values = fields[1:] if fields[0] != "epoch" else fields[3::2]
        if not all(math.isfinite(float(v)) for v in values):
            return False
    return True


def metrics_key(m):
    return (m.rmse, m.accuracy, m.errors.tobytes())


def first_per_scene(ds, k):
    """The first `k` links of every scene (all of a scene with fewer).

    How many links a seed's traffic drops changes the number of training
    steps; a fixed count per scene keeps the work of one iteration the same
    for every seed.
    """
    keep = np.concatenate([np.flatnonzero(ds.scene_ids == s)[:k]
                           for s in range(ds.manifest["n_scenes"])])
    manifest = dict(ds.manifest, n_samples=len(keep),
                    scene_of_sample=ds.scene_ids[keep].tolist(),
                    grid_of_sample=ds.grid_ids[keep].tolist())
    manifest["cfr_shape"] = [len(keep), *ds.cfr.shape[1:]]
    return scenario.Dataset(cfr=ds.cfr[keep], coords=ds.coords[keep],
                            labels=ds.labels[keep], scene_ids=ds.scene_ids[keep],
                            grid_ids=ds.grid_ids[keep], manifest=manifest)


class AblationTrain:
    name = "ablation-train"

    def __init__(self, seed, smoke):
        self.seed, self.smoke = seed, smoke
        # a quarter of the gate's 40 scenes, so that one run holds several
        # iterations
        self.n_scenes = 6 if smoke else 10
        self.base = TrainConfig(epochs=1, batch_size=16 if smoke else 64,
                                seed=seed, **(SMOKE_ARCH if smoke else GATE_ARCH))
        self.split = SplitPlan.default(self.n_scenes)

    def setup(self):
        t0 = time.perf_counter()
        sc = scenario.desk_scenario(grid_points=40 if self.smoke else 200)
        full = scenario.generate_dataset(sc, self.n_scenes, self.seed)
        gen_s = time.perf_counter() - t0
        # 3 steps of 64 per row, so an iteration takes under 2 s; every
        # seed tried kept >= 106 links a scene
        ds = first_per_scene(full, 24 if self.smoke else 48)
        source, _, _ = training.prepare_domains(ds, self.split, self.base)
        # every scene as one domain, for the eval-mode throughput op
        everything = SplitPlan(range(0), range(0), range(self.n_scenes))
        _, _, all_scenes = training.prepare_domains(ds, everything, self.base)
        shape = source.inputs.shape[1:]
        model = Model(training.arch_for(self.base, shape), seed=self.seed)
        n_train = sum(train_samples(len(source.inputs), self.base)
                      for _ in ABLATION_GRID)
        return dict(ds=ds, all_scenes=all_scenes, model=model,
                    links=len(full.labels), gen_s=gen_s, train_samples=n_train,
                    eval_samples=len(all_scenes.inputs))

    def ops(self, st):
        # run_ablation's own evaluations are not visible from outside, so
        # eval-mode throughput is measured on every prepared sample with a
        # model of the gate's architecture
        return (("train", lambda: training.run_ablation(
                    st["ds"], self.split, self.base, grid=ABLATION_GRID,
                    seeds=(self.seed,)), 1),
                ("eval", lambda: training.evaluate_arrays(st["model"],
                                                          st["all_scenes"]),
                 ABLATION_EVAL_REPS))

    def check(self, st, res, first, checks):
        rows = res["train"][0]
        checks.expect("ablation rows finite",
                      all(math.isfinite(r[k]) for r in rows
                          for k in ("rmse_mean", "acc_mean")))
        checks.expect("ablation rows repeat", rows == first["train"][0])
        for m in res["eval"]:
            checks.expect("eval predictions repeat",
                          metrics_key(m) == metrics_key(first["eval"][0]))

    def quality(self, res):
        mda = next(r for r in res["train"][0] if r["name"] == "mda")
        return mda["rmse_mean"], mda["acc_mean"]


class FullscaleTrain:
    name = "fullscale-train"

    def __init__(self, seed, smoke):
        self.seed, self.smoke = seed, smoke
        self.n_scenes = 5
        arch = SMOKE_ARCH if smoke else {}
        self.cfg = TrainConfig(method="mda", epochs=1, batch_size=16,
                               seed=seed, **arch)
        # 2 source scenes, 1 validation scene, 2 target scenes
        self.split = SplitPlan.default(self.n_scenes)

    def setup(self):
        sc = scenario.full_scale_scenario()
        if self.smoke:
            sc = dataclasses.replace(sc, ue_grid=sc.ue_grid[::8])
        t0 = time.perf_counter()
        full = scenario.generate_dataset(sc, self.n_scenes, self.seed)
        gen_s = time.perf_counter() - t0
        # 2 steps of 16 per epoch, so an iteration takes under 2 s; every
        # seed tried kept >= 124 links a scene
        ds = first_per_scene(full, 12 if self.smoke else 16)
        n_src = int(np.isin(ds.scene_ids, list(self.split.source_scenes)).sum())
        n_tgt = int(np.isin(ds.scene_ids, list(self.split.target_scenes)).sum())
        return dict(ds=ds, links=len(full.labels), gen_s=gen_s,
                    train_samples=train_samples(n_src, self.cfg),
                    eval_samples=n_tgt)

    def ops(self, st):
        ds = st["ds"]

        def evaluate():
            result = st["result"]
            result.model.load_state_dict(result.best_state)
            return training.evaluate(result.model, ds, self.split, self.cfg,
                                     which="target")

        def train():
            st["result"] = training.train(ds, self.split, self.cfg)
            return st["result"]

        return (("train", train, 1), ("eval", evaluate, FULLSCALE_EVAL_REPS))

    def check(self, st, res, first, checks):
        log = res["train"][0].log_csv
        checks.expect("logged losses finite", log_is_finite(log))
        checks.expect("train log repeats", log == first["train"][0].log_csv)
        for m in res["eval"]:
            checks.expect("eval predictions repeat",
                          metrics_key(m) == metrics_key(first["eval"][0]))

    def quality(self, res):
        return res["eval"][0].rmse, res["eval"][0].accuracy


class GenEval:
    name = "gen-eval"

    def __init__(self, seed, smoke, work_dir):
        self.seed, self.smoke = seed, smoke
        self.n_scenes = 3 if smoke else 8
        self.work = work_dir
        self.cfg = TrainConfig(seed=seed, **(SMOKE_ARCH if smoke else {}))
        self.split = SplitPlan.default(self.n_scenes)
        self.gen_args = ["--scenes", str(self.n_scenes), "--seed", str(seed)]
        self._n = 0

    def setup(self):
        sc = scenario.desk_scenario(grid_points=40 if self.smoke else 200)
        ref = scenario.generate_dataset(sc, self.n_scenes, self.seed)
        ckpt = os.path.join(self.work, "ckpt")
        if os.path.isdir(ckpt):
            shutil.rmtree(ckpt)
        # an untrained default-architecture checkpoint: eval cost does not
        # depend on the weight values
        shape = (1, sc.array.size, sc.n_subcarriers)
        model = Model(training.arch_for(self.cfg, shape), seed=self.seed)
        dataio.save_checkpoint(ckpt, model.state_dict(), {
            "arch": model.arch.to_dict(), "train_config": self.cfg.to_dict(),
            "best_epoch": 0, "best_val_score": 0.0})
        scen_json = None
        if self.smoke:
            scen_json = os.path.join(self.work, "scenario.json")
            with open(scen_json, "w") as fh:
                json.dump(sc.to_dict(), fh)
        n_tgt = int(np.isin(ref.scene_ids, list(self.split.target_scenes)).sum())
        return dict(ds=ref, ckpt=ckpt, scenario_json=scen_json,
                    links=len(ref.labels), eval_samples=n_tgt, train_samples=0)

    def ops(self, st):
        self._n += 1
        out = os.path.join(self.work, f"gen{self._n}")
        st["out"] = out
        gen = ["gen", *self.gen_args, "--out", out]
        if st["scenario_json"]:
            gen += ["--scenario", st["scenario_json"]]
        ev = ["eval", "--ckpt", st["ckpt"], "--data", out]
        return (("gen", lambda: _run_cli(gen), 1),
                ("eval", lambda: _run_cli(ev), 1))

    def check(self, st, res, first, checks):
        out = st["out"]
        try:
            rc, _ = res["gen"][0]
            if checks.expect("gen exit code", rc == 0, str(rc)):
                ref, got = st["ds"], dataio.load_dataset(out)
                checks.expect("gen round trip: coords", np.array_equal(
                    got.coords, ref.coords.astype(np.float32)))
                checks.expect("gen round trip: labels",
                              np.array_equal(got.labels, ref.labels))
                checks.expect("gen round trip: cfr", np.array_equal(
                    got.cfr, ref.cfr.astype(np.complex64)))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rc, text = res["eval"][0]
        checks.expect("eval exit code", rc == 0, str(rc))
        checks.expect("eval predictions repeat", text == first["eval"][0][1])

    def quality(self, res):
        summary = json.loads(res["eval"][0][1])
        return summary["rmse"], summary["accuracy"]


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def make(name, seed, smoke, work_dir):
    if name == AblationTrain.name:
        return AblationTrain(seed, smoke)
    if name == FullscaleTrain.name:
        return FullscaleTrain(seed, smoke)
    if name == GenEval.name:
        return GenEval(seed, smoke, work_dir)
    raise ValueError(f"unknown workload {name!r}")
