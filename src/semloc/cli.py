"""Command-line entry point: gen / train / eval / gradcheck / ablate /
describe / report.

All configs are JSON; flags override config fields and the effective
merged config is echoed into each output directory.  Exit codes: 0 on
success, 2 on usage errors (including a malformed --split-json), 3 when
a non-finite value aborts a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dataio, losses, training
from .engine import NonFinite, grad_check
from .models import ArchConfig, Model
from .scenario import Scenario, desk_scenario, generate_dataset
from .training import SplitPlan, TrainConfig

EXIT_OK, EXIT_USAGE, EXIT_NONFINITE = 0, 2, 3


class UsageError(Exception):
    """A flag value that parsed but is not usable; exits EXIT_USAGE."""


def _echo_config(out_dir, cfg_dict):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.json"), "w") as fh:
        json.dump(cfg_dict, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_gen(args):
    if args.scenario:
        scenario = Scenario.from_json(args.scenario)
    else:
        scenario = desk_scenario()
    with dataio.DirectoryLock(args.out):
        ds = generate_dataset(scenario, args.scenes, args.seed)
        dataio.save_dataset(ds, args.out)
        _echo_config(args.out, {"scenario": scenario.to_dict(),
                                "scenes": args.scenes, "seed": args.seed})
    counts = np.bincount(ds.labels, minlength=3)
    print(f"wrote {len(ds.labels)} samples to {args.out} "
          f"(LOS {counts[0]}, DNLOS {counts[1]}, SNLOS {counts[2]}, "
          f"dropped {len(ds.manifest['dropped'])})")
    return EXIT_OK


def _split_from(ds, args):
    """The inline --split-json ranges, validated against the dataset, or
    the default split."""
    n = ds.manifest["n_scenes"]
    if not args.split_json:
        return SplitPlan.default(n)
    try:
        d = json.loads(args.split_json)
        split = SplitPlan(*(range(*d[k]) for k in ("source", "val", "target")))
        split.validate(n)
    except (ValueError, KeyError, TypeError) as exc:
        msg = f"--split-json: {type(exc).__name__}: {exc}"
        raise UsageError(msg) from None
    return split


def cmd_train(args):
    ds = dataio.load_dataset(args.data)
    overrides = _load_json(args.config) if args.config else {}
    if args.method:
        overrides["method"] = args.method
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    cfg = TrainConfig(**overrides)
    split = _split_from(ds, args)
    with dataio.DirectoryLock(args.out):
        _echo_config(args.out, cfg.to_dict())
        result = training.train(ds, split, cfg)
        with open(os.path.join(args.out, "train_log.csv"), "w") as fh:
            fh.write(result.log_csv)
        manifest = {"arch": result.model.arch.to_dict(),
                    "train_config": cfg.to_dict(),
                    "best_epoch": result.best_epoch,
                    "best_val_score": result.best_val_score}
        dataio.save_checkpoint(args.out, result.best_state, manifest)
        result.model.load_state_dict(result.best_state)
        m = training.evaluate_arrays(result.model, result.domains[2])
        with open(os.path.join(args.out, "metrics.json"), "w") as fh:
            json.dump(m.summary(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"best epoch {result.best_epoch}; "
          f"target RMSE {m.rmse:.4f} m, accuracy {m.accuracy:.4f}")
    return EXIT_OK


def _load_model(run_dir):
    state, manifest = dataio.load_checkpoint(run_dir)
    arch = ArchConfig.from_dict(manifest["arch"])
    model = Model(arch, seed=0)
    model.load_state_dict(state)
    cfg = TrainConfig(**manifest["train_config"])
    return model, cfg, manifest


def cmd_eval(args):
    ds = dataio.load_dataset(args.data)
    model, cfg, _ = _load_model(args.ckpt)
    split = _split_from(ds, args)
    which = {"test": "target", "target": "target", "val": "val",
             "source": "source"}[args.split]
    m = training.evaluate(model, ds, split, cfg, which=which)
    print(json.dumps(m.summary(), indent=1, sort_keys=True))
    return EXIT_OK


def gradcheck_error(method, seed=0):
    """Max relative gradient error of the full objective on a tiny network
    and a 4-sample batch, against 64-bit central differences."""
    rng = np.random.default_rng(seed)
    arch = ArchConfig(conv_channels=[2, 2, 3, 3],
                      mlp_widths_reg=[8, 6, 3], mlp_widths_cls=[8, 6, 3],
                      input_shape=(1, 16, 16))
    model = Model(arch, seed=seed)
    x_s = rng.random((4, 1, 16, 16))
    y_s = rng.normal(size=(4, 3))
    d_s = rng.integers(0, 3, size=4)
    x_t = rng.random((4, 1, 16, 16))

    params = dict(model.params)
    u = losses.UncertaintyParams()
    u.s1.data[...] = 0.3
    u.s2.data[...] = -0.2
    if method == "hda":
        params.update(u.as_params())

    def objective():
        out_s = model.forward(x_s, train=True)
        out_t = model.forward(x_t, train=True)
        if method == "hda":
            total, _ = losses.hda_total(out_s, y_s, d_s, out_t, model.params,
                                        u, lam3=0.8, lam4=0.05, gamma=2.0)
        else:
            weights = losses.LossWeights(cr=0.7, pcp=0.3, kt=0.8, wr=0.05,
                                         gamma=2.0)
            total, _ = losses.mda_total(out_s, y_s, d_s, out_t, model.params,
                                        weights)
        return total

    return grad_check(objective, params, h=1e-5)


def cmd_gradcheck(args):
    err = gradcheck_error(args.method, args.seed)
    print(f"{args.method} max relative gradient error: {err:.3e}")
    return EXIT_OK if err < 1e-4 else 1


def cmd_ablate(args):
    ds = dataio.load_dataset(args.data)
    split = _split_from(ds, args)
    base = TrainConfig(**(_load_json(args.config) if args.config else {}))
    grid = training.DEFAULT_ABLATION
    if args.grid:
        grid = [(row["name"], row["overrides"]) for row in _load_json(args.grid)]
    rows = training.run_ablation(ds, split, base, grid=grid,
                                 seeds=tuple(args.seeds))
    csv = training.ablation_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    print(csv, end="")
    return EXIT_OK


def cmd_describe(args):
    overrides = _load_json(args.config) if args.config else {}
    cfg = TrainConfig(**overrides)
    shape = tuple(args.input_shape or (1, 64, 64))
    model = Model(training.arch_for(cfg, shape), seed=0)
    print(model.describe())
    return EXIT_OK


def cmd_report(args):
    model, cfg, manifest = _load_model(args.run)
    lines = ["metric,value",
             f"best_epoch,{manifest['best_epoch']}",
             f"best_val_score,{manifest['best_val_score']:.10g}"]
    if args.data:
        ds = dataio.load_dataset(args.data)
        split = _split_from(ds, args)
        m = training.evaluate(model, ds, split, cfg, which="target")
        for k, v in sorted(m.summary().items()):
            lines.append(f"{k},{v:.10g}")
        lines.append("cdf_error_m,cdf_fraction")
        n = len(m.errors)
        for i, e in enumerate(m.errors):
            lines.append(f"{e:.6g},{(i + 1) / n:.6g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="semloc",
                                description="street-canyon semantic "
                                            "localization workbench")
    sub = p.add_subparsers(dest="command", required=True)
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--split-json", metavar="JSON",
                       help='inline scene ranges, {"source": [lo, hi], '
                            '"val": [lo, hi], "target": [lo, hi]}')

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--scenario", help="scenario config JSON (default layout "
                                      "if omitted)")
    g.add_argument("--scenes", type=int, default=40)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", parents=[split],
                       help="train a localization model")
    t.add_argument("--data", required=True)
    t.add_argument("--method", choices=training.METHODS)
    t.add_argument("--config", help="TrainConfig JSON")
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", parents=[split], help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", default="test",
                   choices=("test", "target", "val", "source"))
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference gradient check "
                                         "of a full objective")
    c.add_argument("--method", choices=("mda", "hda"), default="mda")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_gradcheck)

    a = sub.add_parser("ablate", parents=[split],
                       help="run the loss-term ablation grid")
    a.add_argument("--data", required=True)
    a.add_argument("--grid", help="JSON list of {name, overrides}")
    a.add_argument("--config", help="base TrainConfig JSON")
    a.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    a.add_argument("--out")
    a.set_defaults(fn=cmd_ablate)

    d = sub.add_parser("describe", help="print the layer table")
    d.add_argument("--config")
    d.add_argument("--input-shape", type=int, nargs=3)
    d.set_defaults(fn=cmd_describe)

    r = sub.add_parser("report", parents=[split],
                       help="emit metric and CDF tables as CSV")
    r.add_argument("--run", required=True)
    r.add_argument("--data")
    r.add_argument("--out")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"semloc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFinite as exc:
        print(f"aborted on non-finite value: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
