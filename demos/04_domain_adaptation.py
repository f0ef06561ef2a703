"""Why alignment matters: regression-only vs the multi-task adapted loss.

Source scenes have light traffic, target scenes heavy traffic (the
generator ramps vehicle density across the scene axis), so a model fit
on labeled source links sees a shifted input distribution at test time.
This script trains the plain regression baseline and the multi-task
domain-adaptation objective on the same data and compares target-domain
RMSE.  Runs in a few minutes on one CPU core; use more epochs/scenes for
sharper margins (the acceptance suite runs the full 3-seed version).
"""

import numpy as np

from semloc import training
from semloc.scenario import desk_scenario, generate_dataset
from semloc.training import SplitPlan, TrainConfig

print("generating 16 scenes (traffic density drifts up across scenes)...")
ds = generate_dataset(desk_scenario(), n_scenes=16, seed=0)
split = SplitPlan.default(16)  # labeled 0-6, validation 7-9, unlabeled 10-15

counts = lambda r: np.bincount(
    ds.labels[np.isin(ds.scene_ids, list(r))], minlength=3)
for name, r in (("source", split.source_scenes),
                ("target", split.target_scenes)):
    c = counts(r)
    print(f"  {name}: LOS/DNLOS/SNLOS = "
          f"{(100 * c / c.sum()).round(0).astype(int)} %")

results = {}
for name, overrides in (("regression only", dict(method="dcnn",
                                                 lambda3_max=0.0)),
                        ("multi-task + alignment", dict(method="mda"))):
    cfg = TrainConfig(epochs=8, batch_size=64, conv_channels=[4, 8, 8, 16],
                      mlp_widths=[32, 16], seed=0, **overrides)
    res = training.train(ds, split, cfg)
    res.model.load_state_dict(res.best_state)
    m = training.evaluate_arrays(res.model, res.domains[2])  # the target
    results[name] = m
    print(f"\n{name}: best epoch {res.best_epoch}, "
          f"target RMSE {m.rmse:.3f} m, "
          f"median error {m.quantiles[0.5]:.3f} m, "
          f"condition accuracy {100 * m.accuracy:.1f}%")

base = results["regression only"].rmse
mda = results["multi-task + alignment"].rmse
print(f"\nlocalization gain from the joint objective: "
      f"{100 * (base - mda) / base:+.1f}% RMSE on unseen heavy-traffic "
      f"scenes")
