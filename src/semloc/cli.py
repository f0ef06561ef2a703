"""Command-line entry point: gen / train / eval / gradcheck / ablate /
describe / report.

All configs are JSON; flags override config fields and the effective
merged config is echoed into each output directory.  Exit codes: 0 on
success, 2 on usage errors (including a malformed --split-json, a bad
--config, --grid or --scenario, an --out that cannot be made where it
points, such as a path under a file, or a split that leaves a domain
empty), 3 when a non-finite value aborts a run, 4 when a dataset or
checkpoint file is missing or disagrees with its manifest, a checkpoint
holds a non-finite value or a negative running variance, or an output
directory is locked by a live process.
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

EXIT_OK, EXIT_USAGE, EXIT_NONFINITE, EXIT_INPUT = 0, 2, 3, 4


class UsageError(Exception):
    """A flag value that parsed but is not usable; exits EXIT_USAGE."""


def _echo_config(out_dir, cfg_dict):
    dataio.write_json(os.path.join(out_dir, "effective_config.json"), cfg_dict)


def _load_json(path, flag):
    """The JSON value in the file `flag` names; {} if the flag is unset."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _out_dir(path):
    """`path`, created as a directory; one that cannot be is a usage
    error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from None
    return path


def _check_out_file(path):
    """A usage error unless `path` names a file in an existing directory."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"--out: {parent}: not an existing directory")
    if os.path.isdir(path):
        raise UsageError(f"--out: {path}: is a directory")


def _train_config(flag, *layers):
    """TrainConfig from override dicts merged left to right; an unknown key
    or an invalid value is a usage error naming `flag`."""
    merged = {}
    try:
        for layer in layers:
            merged.update(layer)
        return TrainConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{flag}: {exc}") from None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_gen(args):
    if args.scenes < 1:
        raise UsageError("--scenes: need at least one scene")
    if args.seed < 0:
        raise UsageError("--seed: must be nonnegative")
    try:
        scenario = (Scenario.from_json(args.scenario) if args.scenario
                    else desk_scenario())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"--scenario: {type(exc).__name__}: {exc}") from None
    with dataio.DirectoryLock(_out_dir(args.out)):
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
        raise UsageError(f"--split-json: {type(exc).__name__}: {exc}") from None
    return split


def cmd_train(args):
    ds = dataio.load_dataset(args.data)
    flags = {"method": args.method, "seed": args.seed, "epochs": args.epochs}
    cfg = _train_config("--config", _load_json(args.config, "--config"),
                        {k: v for k, v in flags.items() if v is not None})
    split = _split_from(ds, args)
    training.require_links(ds, split)
    with dataio.DirectoryLock(_out_dir(args.out)):
        result = training.train(ds, split, cfg)
        _echo_config(args.out, cfg.to_dict())
        dataio.write_file(os.path.join(args.out, "train_log.csv"),
                          result.log_csv)
        manifest = {"arch": result.model.arch.to_dict(),
                    "train_config": cfg.to_dict(),
                    "best_epoch": result.best_epoch,
                    "best_val_score": result.best_val_score}
        dataio.save_checkpoint(args.out, result.best_state, manifest)
        result.model.load_state_dict(result.best_state)
        m = training.evaluate_arrays(result.model, result.domains[2])
        dataio.write_json(os.path.join(args.out, "metrics.json"), m.summary())
    print(f"best epoch {result.best_epoch}; "
          f"target RMSE {m.rmse:.4f} m, accuracy {m.accuracy:.4f}")
    return EXIT_OK


def _load_and_score(run_dir, args, which):
    """The manifest of the run checkpoint and, when --data is given, its
    metrics on one domain of that dataset (None without --data).  Of the
    run's train_config only the fingerprint and normalization are read."""
    if args.split_json and not args.data:
        raise UsageError("--split-json: needs --data")
    state, manifest = dataio.load_checkpoint(run_dir)
    path = os.path.join(run_dir, "manifest.json")
    dataio.require_keys(manifest, path, ("arch", "train_config",
                                         "best_epoch", "best_val_score"))
    if not args.data:
        return manifest, None
    try:
        tc = manifest["train_config"]
        cfg = TrainConfig(fingerprint=tc["fingerprint"],
                          normalization=tc["normalization"])
        model = Model(ArchConfig.from_dict(manifest["arch"]), seed=0)
        model.load_state_dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise dataio.InputError(f"{path}: {type(exc).__name__}: {exc}") \
            from None
    ds = dataio.load_dataset(args.data)
    return manifest, training.evaluate(model, ds, _split_from(ds, args), cfg,
                                       which=which)


def cmd_eval(args):
    which = "target" if args.split == "test" else args.split
    _, m = _load_and_score(args.ckpt, args, which)
    print(json.dumps(m.summary(), indent=1, sort_keys=True))
    return EXIT_OK


def gradcheck_error(method, seed=0):
    """Max relative gradient error of the full objective on a tiny network
    and a 4-sample batch, against 64-bit central differences."""
    rng = np.random.default_rng(seed)
    arch = ArchConfig(conv_channels=[2, 2, 3, 3], mlp_widths=[8, 6],
                      input_shape=(1, 16, 16))
    model = Model(arch, seed=seed)
    cfg = TrainConfig(method=method)
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
        return training.objective(cfg, out_s, y_s, d_s, out_t, model.params,
                                  u, lam3=0.8)[0]

    return grad_check(objective, params, h=1e-5)


def cmd_gradcheck(args):
    if args.seed < 0:
        raise UsageError("--seed: must be nonnegative")
    err = gradcheck_error(args.method, args.seed)
    print(f"{args.method} max relative gradient error: {err:.3e}")
    return EXIT_OK if err < 1e-4 else 1


def cmd_ablate(args):
    ds = dataio.load_dataset(args.data)
    split = _split_from(ds, args)
    base = _train_config("--config", _load_json(args.config, "--config"))
    grid = training.DEFAULT_ABLATION
    if args.grid:
        try:
            grid = [(row["name"], row["overrides"])
                    for row in _load_json(args.grid, "--grid")]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"--grid: rows need a name and overrides "
                             f"({type(exc).__name__}: {exc})") from None
    # every row and seed, and --out, is checked before the first run trains
    for name, overrides in grid:
        _train_config(f"--grid row {name!r}", base.to_dict(), overrides)
    for seed in args.seeds:
        _train_config("--seeds", base.to_dict(), {"seed": seed})
    if args.out:
        _check_out_file(args.out)
    rows = training.run_ablation(ds, split, base, grid=grid,
                                 seeds=tuple(args.seeds))
    csv = training.ablation_csv(rows)
    if args.out:
        dataio.write_file(args.out, csv)
    print(csv, end="")
    return EXIT_OK


def cmd_describe(args):
    cfg = _train_config("--config", _load_json(args.config, "--config"))
    shape = args.input_shape or ArchConfig.input_shape
    try:
        arch = training.arch_for(cfg, shape)
    except ValueError as exc:
        raise UsageError(f"--input-shape: {exc}") from None
    model = Model(arch, seed=0)
    print(model.describe())
    return EXIT_OK


def cmd_report(args):
    if args.out:
        _check_out_file(args.out)
    manifest, m = _load_and_score(args.run, args, "target")
    lines = ["metric,value",
             f"best_epoch,{manifest['best_epoch']}",
             f"best_val_score,{manifest['best_val_score']:.10g}"]
    if m is not None:
        for k, v in sorted(m.summary().items()):
            lines.append(f"{k},{v:.10g}")
        lines.append("cdf_error_m,cdf_fraction")
        n = len(m.errors)
        for i, e in enumerate(m.errors):
            lines.append(f"{e:.6g},{(i + 1) / n:.6g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        dataio.write_file(args.out, text)
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
        # numpy's floating-point warnings are off: a non-finite value that
        # matters reaches a finiteness check and aborts with one line
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (UsageError, training.EmptySplit, dataio.InputError) as exc:
        print(f"semloc: {exc}", file=sys.stderr)
        return (EXIT_INPUT if isinstance(exc, dataio.InputError)
                else EXIT_USAGE)
    except NonFinite as exc:
        print(f"semloc: aborted on non-finite value: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
