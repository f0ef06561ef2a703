"""Training loop for the domain-adaptation localizer, plus evaluation
metrics and the ablation driver.

Scenes are split into labeled source scenes, validation scenes and
unlabeled target scenes.  Every step draws one source and one target
mini-batch; target labels are never shown to the optimizer (an
instrumented assertion enforces it) and are only read at final
reporting time.  The alignment weight follows the sigmoid ramp
lambda3(kappa) = 2 / (1 + exp(-10 kappa)) - 1 over training progress.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field

import numpy as np

from . import features as feat
from . import losses
from .dataio import scenario_from_manifest
from .engine import SGD, NonFinite, _check_finite, no_grad
from .models import ArchConfig, Model
from .scenario import _is_finite_number, _is_int

# each method's fixed task weights (lambda1 on the coordinate loss, lambda2
# on the class loss); hda learns its own
TASK_WEIGHTS = {"dcnn": (1.0, 0.0), "pcp-only": (0.0, 1.0),
                "mda-unweighted": (0.5, 0.5), "mda": (0.7, 0.3), "hda": None}
METHODS = tuple(TASK_WEIGHTS)


@dataclass
class SplitPlan:
    """Disjoint scene index ranges: [0, src) labeled, [src, val) validation,
    [val, end) unlabeled target."""

    source_scenes: range
    val_scenes: range
    target_scenes: range

    @classmethod
    def default(cls, n_scenes):
        """50/20/50-style proportional split (5:2:5 of the scene axis)."""
        a = round(n_scenes * 5 / 12)
        b = round(n_scenes * 7 / 12)
        return cls(range(0, a), range(a, b), range(b, n_scenes))

    def validate(self, n_scenes):
        sets = [set(self.source_scenes), set(self.val_scenes),
                set(self.target_scenes)]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise ValueError("split ranges overlap")
        if any(s < 0 or s >= n_scenes for ss in sets for s in ss):
            raise ValueError("split exceeds scene range")


class EmptySplit(ValueError):
    """A split domain that must hold links holds none."""


@dataclass
class TrainConfig:
    method: str = "mda"
    batch_size: int = 64
    epochs: int = 40
    lambda3_max: float = 1.0       # scale on the sigmoid ramp; 0 disables KT
    lambda4: float = 0.05
    gamma: float = 2.0
    lr: float = 1e-3
    momentum: float = 0.99
    seed: int = 0
    fingerprint: str = feat.ADP
    normalization: str = feat.AW
    conv_channels: list = field(default_factory=lambda: [16, 32, 32, 64])
    mlp_widths: list = field(default_factory=lambda: [256, 128])

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        # batch norm needs at least two samples a batch
        for name, least in (("batch_size", 2), ("epochs", 1), ("seed", 0)):
            v = getattr(self, name)
            if not (_is_int(v) and v >= least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"not {v!r}")
        if not (_is_finite_number(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, not {self.lr!r}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), not "
                             f"{self.momentum!r}")
        if self.fingerprint not in feat.FINGERPRINT_KINDS:
            raise ValueError(f"unknown fingerprint {self.fingerprint!r}")
        if self.normalization not in feat.NORM_SCHEMES:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        for name in ("conv_channels", "mlp_widths"):
            v = getattr(self, name)
            if not (isinstance(v, (list, tuple)) and v
                    and all(_is_int(n) and n > 0 for n in v)):
                raise ValueError(f"{name} must be a non-empty list of positive "
                                 f"integers, not {v!r}")
        for name in ("lambda3_max", "lambda4", "gamma"):
            v = getattr(self, name)
            if not (_is_finite_number(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"not {v!r}")

    def to_dict(self):
        return asdict(self)


@dataclass
class Metrics:
    rmse: float
    accuracy: float
    errors: np.ndarray  # sorted per-sample Euclidean errors
    quantiles: dict

    def summary(self):
        return {"rmse": self.rmse, "accuracy": self.accuracy,
                **{f"q{int(q * 100)}": v for q, v in self.quantiles.items()}}


def lambda3_schedule(kappa):
    """Monotone ramp in [0, 1): 0 at kappa=0, ~0.9999 at kappa=1."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    return 2.0 / (1.0 + np.exp(-10.0 * kappa)) - 1.0


# ----------------------------------------------------------------------
# data plumbing
# ----------------------------------------------------------------------

@dataclass
class DomainData:
    inputs: np.ndarray   # [n, C, H, W] float64
    coords: np.ndarray   # [n, 3]
    labels: np.ndarray   # [n]
    is_source: bool


def prepare_domain(ds, scenes, cfg, is_source=False):
    """Fingerprints, coordinates and labels of the links in `scenes`; only
    those links' CFRs are fingerprinted."""
    mask = np.isin(ds.scene_ids, list(scenes))
    fps = feat.fingerprint_pipeline(ds.cfr[mask], cfg.fingerprint,
                                    cfg.normalization,
                                    scenario_from_manifest(ds.manifest).array)
    if fps.ndim == 3:  # single-plane fingerprints get a channel axis
        fps = fps[:, None, :, :]
    return DomainData(inputs=fps, coords=ds.coords[mask],
                      labels=ds.labels[mask], is_source=is_source)


def prepare_domains(ds, split, cfg):
    """The source, val and target DomainData of a split."""
    split.validate(ds.manifest["n_scenes"])
    return (prepare_domain(ds, split.source_scenes, cfg, is_source=True),
            prepare_domain(ds, split.val_scenes, cfg),
            prepare_domain(ds, split.target_scenes, cfg))


def require_links(ds, split):
    """Raise EmptySplit unless the source, val and target scenes of a valid
    split each hold a link of `ds`."""
    split.validate(ds.manifest["n_scenes"])
    for which in ("source", "val", "target"):
        scenes = getattr(split, f"{which}_scenes")
        if not np.isin(ds.scene_ids, list(scenes)).any():
            raise EmptySplit(f"empty {which} split: no links in scenes {scenes}")


def arch_for(cfg, input_shape):
    """The network `cfg` trains on inputs of `input_shape`."""
    return ArchConfig(list(cfg.conv_channels), list(cfg.mlp_widths),
                      tuple(input_shape))


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

@dataclass
class TrainResult:
    model: Model
    best_state: dict
    best_epoch: int
    best_val_score: float
    log_csv: str
    uncertainty: losses.UncertaintyParams | None
    domains: tuple  # the (source, val, target) DomainData it trained on


def _supervised_batch(domain, idx):
    """The only gateway to labels used in gradients; source-only by design."""
    assert domain.is_source, "labels of non-source data must never reach a loss"
    return domain.inputs[idx], domain.coords[idx], domain.labels[idx]


def objective(cfg, out_s, y, d, out_t, params, u, lam3):
    """The objective `cfg` trains, and its LossReport, on one source batch
    (outputs out_s, coordinates y, labels d) and one target batch out_t;
    u holds the hda log-variances and is unused by the other methods."""
    weights = TASK_WEIGHTS[cfg.method]
    if weights is None:
        return losses.hda_total(out_s, y, d, out_t, params, u, lam3=lam3,
                                lam4=cfg.lambda4, gamma=cfg.gamma)
    return losses.mda_total(out_s, y, d, out_t, params, *weights, lam3,
                            cfg.lambda4, cfg.gamma)


def train(dataset, split, cfg, domains=None):
    """Train per the configured method; returns the best-val-RMSE checkpoint
    and the prepared domains, so callers score it without preparing them
    again.  `domains`, if given, is the (source, val, target) triple that
    prepare_domains(dataset, split, cfg) returns."""
    require_links(dataset, split)
    if domains is None:
        domains = prepare_domains(dataset, split, cfg)
    source, val, target = domains

    model = Model(arch_for(cfg, source.inputs.shape[1:]), seed=cfg.seed)
    # hda also learns the log-variances that weight its two tasks
    u = losses.UncertaintyParams() if cfg.method == "hda" else None
    opt = SGD({**model.params, **(u.as_params() if u else {})},
              lr=cfg.lr, momentum=cfg.momentum)
    rng = np.random.default_rng([cfg.seed, 101])

    n_src = len(source.inputs)
    steps_per_epoch = max(1, n_src // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch

    log = io.StringIO()
    log.write("step,L_CR,L_PCP,L_loc,L_global,L_WR,w1,w2,lambda3,lambda4,total\n")
    best_state, best_epoch, best_val = None, -1, np.inf
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n_src)
        for s in range(steps_per_epoch):
            src_idx = perm[s * cfg.batch_size:(s + 1) * cfg.batch_size]
            tgt_idx = rng.integers(0, len(target.inputs), size=len(src_idx))
            lam3 = cfg.lambda3_max * lambda3_schedule(step / total_steps)

            x_s, y_s, d_s = _supervised_batch(source, src_idx)
            out_s = model.forward(x_s, train=True)
            out_t = None
            if lam3 > 0.0:
                out_t = model.forward(target.inputs[tgt_idx], train=True)

            total, report = objective(cfg, out_s, y_s, d_s, out_t,
                                      model.params, u, lam3)
            opt.zero_grad()
            total.backward()
            opt.step()
            log.write(f"{step},{report.cr:.10g},{report.pcp:.10g},"
                      f"{report.kt_local:.10g},{report.kt_global:.10g},"
                      f"{report.wr:.10g},{report.w1:.10g},{report.w2:.10g},"
                      f"{lam3:.10g},{cfg.lambda4:.10g},{report.total:.10g}\n")
            step += 1

        m = evaluate_arrays(model, val)
        log.write(f"epoch,{epoch},val_rmse,{m.rmse:.10g},"
                  f"val_acc,{m.accuracy:.10g}\n")
        # pcp-only trains no useful regressor; select on accuracy instead
        score = -m.accuracy if cfg.method == "pcp-only" else m.rmse
        if score < best_val:
            best_val, best_epoch = score, epoch
            best_state = model.state_dict()

    # pcp-only's score is negated accuracy; everything else is val RMSE
    return TrainResult(model=model, best_state=best_state,
                       best_epoch=best_epoch, best_val_score=best_val,
                       log_csv=log.getvalue(), uncertainty=u,
                       domains=domains)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

# bytes of the largest theta1 activation of one eval batch.  Eval streams
# every activation of a batch through the forward several times (the batch
# norm alone reads and writes its buffer four times), so a batch whose
# activations fit the cache runs faster; of the batch sizes tried at each
# shipped shape, 4 MiB was the fastest or within noise of it
EVAL_BATCH_BYTES = 4 << 20
# eval batches hold whole tiles of this many rows, the last one plus the
# domain's remainder.  dgemm rounds a partial row tile's rows, and those of
# a product of under 4 rows, unlike a full tile's (OpenBLAS's SkylakeX
# kernels tile 4 rows; 8 covers 8-row tiles), so every row meets the kernels
# as in one whole-domain forward: its test passes under Haswell kernels too
EVAL_ROW_TILE = 8


def evaluate_arrays(model, domain):
    """Eval-mode metrics on one prepared domain.  The forward builds no
    graph; its coordinates and class probabilities must be finite, and so
    must the RMSE, which finite coordinates can overflow.

    The domain is cut into the fewest near-equal batches of whole
    EVAL_ROW_TILE-row tiles whose largest activation fits
    EVAL_BATCH_BYTES, at least one tile each.  The last batch, the
    smallest, also takes the rows after the last whole tile; it can
    outgrow the budget only when that is one tile.  The results are
    byte-equal to one forward over the whole domain."""
    n = len(domain.inputs)
    tile = EVAL_ROW_TILE
    b = max(tile, EVAL_BATCH_BYTES // model.arch.peak_activation_bytes()
            // tile * tile)
    tiles = n // tile
    k = max(1, min(-(-n // b), tiles))
    cuts = [tile * -(-tiles * i // k) for i in range(1, k)]
    preds, classes = [], []
    for x in np.split(domain.inputs, cuts):
        with no_grad():
            out = model.forward(x, train=False)
        _check_finite(out.coords.data, "predicted coordinates")
        _check_finite(out.probs.data, "class probabilities")
        preds.append(out.coords.data)
        classes.append(out.probs.data.argmax(axis=1))
    pred = np.concatenate(preds)
    cls = np.concatenate(classes)
    with np.errstate(over="ignore"):
        errors = np.linalg.norm(pred - domain.coords, axis=1)
        rmse = float(np.sqrt(np.mean(errors ** 2)))
    # a finite RMSE implies finite errors and quantiles
    if not np.isfinite(rmse):
        raise NonFinite("non-finite localization error")
    acc = float(np.mean(cls == domain.labels))
    quantiles = {q: float(np.quantile(errors, q)) for q in (0.5, 0.67, 0.9, 0.95)}
    return Metrics(rmse=rmse, accuracy=acc, errors=np.sort(errors),
                   quantiles=quantiles)


def evaluate(model, dataset, split, cfg, which="target"):
    """Metrics on one domain ("source", "val" or "target") of the split;
    only that domain's links are fingerprinted."""
    split.validate(dataset.manifest["n_scenes"])
    domain = prepare_domain(dataset, getattr(split, f"{which}_scenes"), cfg)
    if len(domain.inputs) == 0:
        raise EmptySplit(f"the {which} split holds no links")
    return evaluate_arrays(model, domain)


# ----------------------------------------------------------------------
# ablation
# ----------------------------------------------------------------------

DEFAULT_ABLATION = (
    ("cr-only", dict(method="dcnn", lambda3_max=0.0)),
    ("cr-only+kt", dict(method="dcnn")),
    ("pcp-only", dict(method="pcp-only", lambda3_max=0.0)),
    ("pcp-only+kt", dict(method="pcp-only")),
    ("unweighted", dict(method="mda-unweighted")),
    ("mda", dict(method="mda")),
    ("hda", dict(method="hda")),
)


def run_ablation(dataset, split, base_cfg, grid=DEFAULT_ABLATION, seeds=(0, 1, 2)):
    """Train each grid row over several seeds; report mean +/- std and the
    relative gain of each row against the matching single-task baseline.
    The split is prepared once per fingerprint and normalization, the only
    fields prepare_domain reads, and shared by the runs that use them."""
    rows, prepared = [], {}
    for name, overrides in grid:
        rmses, accs = [], []
        for seed in seeds:
            cfg = TrainConfig(**{**base_cfg.to_dict(), **overrides,
                                 "seed": seed})
            key = (cfg.fingerprint, cfg.normalization)
            if key not in prepared:
                prepared[key] = prepare_domains(dataset, split, cfg)
            result = train(dataset, split, cfg, prepared[key])
            result.model.load_state_dict(result.best_state)
            m = evaluate_arrays(result.model, result.domains[2])
            rmses.append(m.rmse)
            accs.append(m.accuracy)
        rows.append({"name": name,
                     "rmse_mean": float(np.mean(rmses)),
                     "rmse_std": float(np.std(rmses)),
                     "acc_mean": float(np.mean(accs)),
                     "acc_std": float(np.std(accs))})

    base_rmse = next((r["rmse_mean"] for r in rows if r["name"] == "cr-only"), None)
    base_acc = next((r["acc_mean"] for r in rows if r["name"] == "pcp-only"), None)
    for r in rows:
        loc_gain = ""
        acc_gain = ""
        if base_rmse and r["name"] != "cr-only" and r["rmse_mean"] > 0 \
                and not r["name"].startswith("pcp-only"):
            loc_gain = f"{100.0 * (base_rmse - r['rmse_mean']) / base_rmse:.3f}"
        if base_acc and r["name"] != "pcp-only" and r["acc_mean"] > 0 \
                and not r["name"].startswith("cr-only"):
            acc_gain = f"{100.0 * (r['acc_mean'] - base_acc) / base_acc:.3f}"
        r["loc_gain_pct"] = loc_gain
        r["acc_gain_pct"] = acc_gain
    return rows


def ablation_csv(rows):
    cols = ["name", "rmse_mean", "rmse_std", "acc_mean", "acc_std",
            "loc_gain_pct", "acc_gain_pct"]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(
            f"{r[c]:.6g}" if isinstance(r[c], float) else str(r[c])
            for c in cols))
    return "\n".join(lines) + "\n"
