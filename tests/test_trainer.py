"""Tests for the training loop, split handling, schedules and metrics."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import semloc.training as training
from semloc import cli
from semloc import features as F
from semloc.dataio import scenario_from_manifest
from semloc.models import ArchConfig, Model
from semloc.scenario import desk_scenario, generate_dataset
from semloc.training import Metrics, SplitPlan, TrainConfig, lambda3_schedule


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(desk_scenario(), n_scenes=12, seed=3)


def small_cfg(**kw):
    base = dict(epochs=2, batch_size=8, conv_channels=[2, 4],
                mlp_widths=[16], seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

def test_lambda3_schedule_pinned_values():
    assert lambda3_schedule(0.0) == 0.0
    # [DERIVED] 2/(1+e^-1) - 1 at kappa = 0.1
    assert abs(lambda3_schedule(0.1) - 0.46211715726000974) < 1e-12
    assert abs(lambda3_schedule(1.0) - (2.0 / (1.0 + np.exp(-10.0)) - 1.0)) < 1e-15


def test_lambda3_schedule_monotone_and_bounded():
    ks = np.linspace(0, 1, 101)
    vals = np.array([lambda3_schedule(k) for k in ks])
    assert np.all(np.diff(vals) > 0)
    assert vals[0] == 0.0 and vals[-1] < 1.0
    with pytest.raises(ValueError):
        lambda3_schedule(1.5)


# ----------------------------------------------------------------------
# splits
# ----------------------------------------------------------------------

def test_default_split_is_5_2_5():
    s = SplitPlan.default(12)
    assert (s.source_scenes, s.val_scenes, s.target_scenes) == \
        (range(0, 5), range(5, 7), range(7, 12))
    s40 = SplitPlan.default(40)
    assert (len(s40.source_scenes), len(s40.val_scenes),
            len(s40.target_scenes)) == (17, 6, 17)


def test_split_validation_rejects_overlap_and_overflow():
    with pytest.raises(ValueError):
        SplitPlan(range(0, 5), range(4, 7), range(7, 12)).validate(12)
    with pytest.raises(ValueError):
        SplitPlan(range(0, 5), range(5, 7), range(7, 13)).validate(12)
    SplitPlan(range(0, 5), range(5, 7), range(7, 12)).validate(12)


def test_empty_target_split_fails_before_first_step(small_dataset):
    split = SplitPlan(range(0, 5), range(5, 7), range(7, 7))
    with pytest.raises(training.EmptySplit, match="empty .*target"):
        training.train(small_dataset, split, small_cfg(lambda3_max=0.0))


# ----------------------------------------------------------------------
# fingerprints per domain
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", F.FINGERPRINT_KINDS)
def test_prepare_domains_match_whole_dataset_oracle(small_dataset, kind):
    # fingerprinting each domain's links equals fingerprinting every link
    # and then masking, byte for byte
    ds = small_dataset
    split = SplitPlan.default(12)
    array = scenario_from_manifest(ds.manifest).array
    for scheme in F.NORM_SCHEMES:
        cfg = small_cfg(fingerprint=kind, normalization=scheme)
        whole = F.fingerprint_pipeline(ds.cfr, kind, scheme, array)
        if whole.ndim == 3:
            whole = whole[:, None]
        domains = training.prepare_domains(ds, split, cfg)
        scenes = (split.source_scenes, split.val_scenes, split.target_scenes)
        for domain, rng in zip(domains, scenes):
            mask = np.isin(ds.scene_ids, list(rng))
            assert domain.inputs.tobytes() == whole[mask].tobytes()
            assert domain.inputs.shape == whole[mask].shape
            np.testing.assert_array_equal(domain.labels, ds.labels[mask])
        assert [d.is_source for d in domains] == [True, False, False]


def test_evaluate_fingerprints_only_the_scored_domain(small_dataset,
                                                      monkeypatch):
    ds = small_dataset
    split = SplitPlan.default(12)
    cfg = small_cfg()
    shape = (1, *ds.cfr.shape[1:])
    model = Model(training.arch_for(cfg, shape), seed=0)
    seen = []
    pipeline = F.fingerprint_pipeline
    monkeypatch.setattr(F, "fingerprint_pipeline",
                        lambda cfr, *a: seen.append(len(cfr)) or
                        pipeline(cfr, *a))
    for which in ("target", "val", "source"):
        seen.clear()
        m = training.evaluate(model, ds, split, cfg, which=which)
        scenes = getattr(split, f"{which}_scenes")
        n = int(np.isin(ds.scene_ids, list(scenes)).sum())
        assert seen == [n] and len(m.errors) == n


def test_evaluate_on_an_empty_domain_raises(small_dataset):
    split = SplitPlan(range(0, 5), range(5, 5), range(5, 12))
    cfg = small_cfg()
    model = Model(training.arch_for(cfg, (1, *small_dataset.cfr.shape[1:])),
                  seed=0)
    with pytest.raises(training.EmptySplit, match="val"):
        training.evaluate(model, small_dataset, split, cfg, which="val")


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(method="nope")
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(fingerprint="nope")
    with pytest.raises(ValueError):
        TrainConfig(normalization="nope")
    # loss weights are finite and nonnegative
    for bad in (dict(gamma=-1.0), dict(lambda3_max=-1.0),
                dict(lambda4=-0.1), dict(lambda4=float("nan")),
                dict(gamma=float("inf")), dict(lambda3_max=None)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # the method alone sets the task weights
    for bad in (dict(lambda1=0.7), dict(lambda2=0.3)):
        with pytest.raises(TypeError):
            TrainConfig(**bad)
    # optimizer settings and integer fields
    for bad in (dict(lr=float("nan")), dict(lr=0.0), dict(lr=-1e-3),
                dict(momentum=1.0), dict(momentum=-0.1),
                dict(momentum=False), dict(momentum="0.5"),
                dict(momentum=None),
                dict(batch_size=8.5), dict(epochs=True), dict(seed=1.0),
                dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # architecture lists: non-empty, positive integers
    for bad in (dict(conv_channels=[-1]), dict(conv_channels="ab"),
                dict(conv_channels=[]), dict(mlp_widths=[0]),
                dict(mlp_widths=[16, True]), dict(conv_channels=[2.0]),
                dict(mlp_widths=16), dict(conv_channels=None),
                dict(mlp_widths=None),
                # numpy integers, which a run's JSON manifest cannot hold:
                # this checkpoint's manifest once held "conv_channels":
                # ["2", 4], and eval of it failed with a TypeError
                dict(conv_channels=[np.int64(2), 4]),
                dict(batch_size=np.int64(8)), dict(seed=np.int64(3))):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(conv_channels=[2, 4], mlp_widths=(16,))
    TrainConfig(momentum=0.0, batch_size=8, seed=3, lr=np.float64(1e-3))
    TrainConfig(method="hda", lambda3_max=0.0, lambda4=0.0, gamma=0.0)


def test_method_default_weights():
    assert training.TASK_WEIGHTS == {
        "dcnn": (1.0, 0.0), "pcp-only": (0.0, 1.0),
        "mda-unweighted": (0.5, 0.5), "mda": (0.7, 0.3), "hda": None}
    assert training.METHODS == tuple(training.TASK_WEIGHTS)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def test_metrics_rmse_oracle():
    from semloc.engine import Tensor

    class M:  # minimal model stub: constant offset, always predicts class 0
        arch = ArchConfig(conv_channels=[1], mlp_widths=[4],
                          input_shape=(1, 2, 2))

        def forward(self, x, train):
            n = len(x)
            coords = np.tile([3.0, 4.0, 0.0], (n, 1))
            probs = np.tile([0.8, 0.1, 0.1], (n, 1))
            return type("O", (), {"coords": Tensor(coords),
                                  "probs": Tensor(probs)})()

    dom = training.DomainData(
        inputs=np.zeros((5, 1, 2, 2)),
        coords=np.zeros((5, 3)),
        labels=np.zeros(5, dtype=np.uint8),
        is_source=False)
    m = training.evaluate_arrays(M(), dom)
    # every error is the 3-4-5 hypotenuse
    assert abs(m.rmse - 5.0) < 1e-12
    assert m.accuracy == 1.0
    assert m.quantiles[0.5] == 5.0
    np.testing.assert_allclose(m.errors, 5.0)


def _eval_setup(small_dataset):
    cfg = small_cfg()
    split = SplitPlan.default(12)
    domain = training.prepare_domain(small_dataset, split.target_scenes, cfg)
    model = Model(training.arch_for(cfg, domain.inputs.shape[1:]), seed=0)
    return model, domain


def test_evaluate_arrays_builds_no_graph(small_dataset, monkeypatch):
    model, domain = _eval_setup(small_dataset)
    outputs, forward = [], Model.forward
    monkeypatch.setattr(Model, "forward",
                        lambda *a, **k: outputs.append(forward(*a, **k))
                        or outputs[-1])
    # a budget of 16 rows: the fewest near-equal batches of whole 8-row
    # tiles, the last one with the rows after the last whole tile
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES",
                        16 * model.arch.peak_activation_bytes())
    n = len(domain.inputs)
    training.evaluate_arrays(model, domain)
    rows = [len(out.coords.data) for out in outputs]
    assert len(rows) == -(-n // 16) >= 3 and sum(rows) == n
    assert all(r in (8, 16) for r in rows[:-1])
    assert rows[-1] - n % 8 in (8, 16)
    for out in outputs:
        for t in (out.features, out.coords, out.logits, out.probs):
            assert t.requires_grad is False and t._parents == ()
            assert t._backward is None
    # recording is back on after eval: a training forward builds a graph
    out = model.forward(domain.inputs[:4], train=True)
    assert out.coords.requires_grad and out.coords._parents


def test_evaluate_arrays_rejects_non_finite_outputs(small_dataset):
    from semloc.engine import NonFinite

    model, domain = _eval_setup(small_dataset)
    for name in ("theta2.lin1.w", "theta3.lin1.b"):
        saved = model.params[name].data.copy()
        model.params[name].data[0] = np.nan
        with pytest.raises(NonFinite, match="coordinates|probabilities"):
            training.evaluate_arrays(model, domain)
        model.params[name].data = saved
    training.evaluate_arrays(model, domain)


# ----------------------------------------------------------------------
# training behavior (small real runs)
# ----------------------------------------------------------------------

def test_train_is_deterministic(small_dataset):
    split = SplitPlan.default(12)
    logs = []
    for _ in range(2):
        res = training.train(small_dataset, split, small_cfg())
        logs.append(res.log_csv)
    assert logs[0] == logs[1]


def test_log_csv_header_and_rows(small_dataset):
    split = SplitPlan.default(12)
    res = training.train(small_dataset, split, small_cfg())
    lines = res.log_csv.strip().split("\n")
    assert lines[0] == ("step,L_CR,L_PCP,L_loc,L_global,L_WR,"
                        "w1,w2,lambda3,lambda4,total")
    step_rows = [l for l in lines[1:] if not l.startswith("epoch")]
    epoch_rows = [l for l in lines[1:] if l.startswith("epoch")]
    assert len(epoch_rows) == 2
    assert all(len(r.split(",")) == 11 for r in step_rows)
    # first step has kappa=0, so lambda3 must be exactly 0
    assert float(step_rows[0].split(",")[8]) == 0.0


def test_train_and_gradcheck_share_one_objective(small_dataset, monkeypatch):
    calls = []
    objective = training.objective
    monkeypatch.setattr(training, "objective",
                        lambda cfg, *a, **k: calls.append(cfg.method)
                        or objective(cfg, *a, **k))
    # one objective evaluation stands in for the full finite-difference sweep
    monkeypatch.setattr(cli, "grad_check", lambda f, params, h: f().item())
    for method in ("mda", "hda"):
        cli.gradcheck_error(method)
    assert calls == ["mda", "hda"]
    calls.clear()
    res = training.train(small_dataset, SplitPlan.default(12),
                         small_cfg(method="hda", epochs=1))
    steps = [l for l in res.log_csv.split("\n")[1:-1]
             if not l.startswith("epoch")]
    assert calls == ["hda"] * len(steps) and steps


def test_target_labels_never_reach_losses(small_dataset):
    dom = training.DomainData(inputs=np.zeros((4, 1, 2, 2)),
                              coords=np.zeros((4, 3)),
                              labels=np.zeros(4, dtype=np.uint8),
                              is_source=False)
    with pytest.raises(AssertionError):
        training._supervised_batch(dom, np.array([0, 1]))


def test_hda_returns_uncertainty_and_moves_it(small_dataset):
    split = SplitPlan.default(12)
    res = training.train(small_dataset, split, small_cfg(method="hda"))
    assert res.uncertainty is not None
    s1 = float(res.uncertainty.s1.data)
    s2 = float(res.uncertainty.s2.data)
    assert s1 != 0.0 and s2 != 0.0  # both log-variances were trained


def test_best_state_tracks_val(small_dataset):
    split = SplitPlan.default(12)
    res = training.train(small_dataset, split, small_cfg(epochs=3))
    assert 0 <= res.best_epoch <= 2
    iso = [l for l in res.log_csv.strip().split("\n") if l.startswith("epoch")]
    rmses = [float(l.split(",")[3]) for l in iso]
    assert abs(res.best_val_score - min(rmses)) < 1e-9


def _count_preparations(monkeypatch):
    calls = []
    prepare = training.prepare_domains
    monkeypatch.setattr(training, "prepare_domains",
                        lambda *a: calls.append(a) or prepare(*a))
    return calls


def test_ablation_rows_and_csv(small_dataset, monkeypatch):
    calls = _count_preparations(monkeypatch)
    split = SplitPlan.default(12)
    grid = (("cr-only", dict(method="dcnn", lambda3_max=0.0)),
            ("mda", dict(method="mda")))
    rows = training.run_ablation(small_dataset, split, small_cfg(epochs=1),
                                 grid=grid, seeds=(0,))
    # both rows read adp/aw: one preparation serves both runs, and scoring
    # reuses the train domains
    assert len(calls) == 1
    assert [r["name"] for r in rows] == ["cr-only", "mda"]
    assert rows[0]["loc_gain_pct"] == ""   # the baseline has no gain column
    assert rows[1]["loc_gain_pct"] != ""
    csv = training.ablation_csv(rows)
    assert csv.startswith("name,rmse_mean,rmse_std,acc_mean,acc_std,"
                          "loc_gain_pct,acc_gain_pct\n")
    assert len(csv.strip().split("\n")) == 3


def test_ablation_prepares_each_fingerprint_once(small_dataset, monkeypatch):
    calls = _count_preparations(monkeypatch)
    grid = (("cr-only", dict(method="dcnn", lambda3_max=0.0)),
            ("mda", dict(method="mda")),
            ("mda-scm", dict(method="mda", fingerprint=F.SCM,
                             normalization=F.MW)))
    training.run_ablation(small_dataset, SplitPlan.default(12),
                          small_cfg(epochs=1), grid=grid, seeds=(0, 1))
    assert [(c[2].fingerprint, c[2].normalization) for c in calls] == [
        (F.ADP, F.AW), (F.SCM, F.MW)]


# ----------------------------------------------------------------------
# golden training digests
# ----------------------------------------------------------------------

GATE_ARCH = dict(conv_channels=[4, 8, 8, 16], mlp_widths=[32, 16])


@pytest.fixture(scope="module")
def golden_dataset():
    return generate_dataset(desk_scenario(), n_scenes=8, seed=5)


def _sha(b):
    return hashlib.sha256(b).hexdigest()


# sha256 of the training log and of the best state's bytes (keys in sorted
# order) of a 2-epoch run at the acceptance gate's architecture, recorded
# before the max-pool backward routed by its forward's choices: a change
# that moves any byte of training fails here.  Training runs through dgemm,
# so each OpenBLAS core has its own digests
GOLDEN_TRAIN = {
    "SkylakeX": {
        "mda": ("b5c43c31bd317ecbf5946c327e25f0e44e64afc5b1480ddc9db708e0318482ad",
                "9d31ecb09508c2df40608e5d9644c8ae0b2f9876e25dfc050a3579eb9bad585d"),
        "hda": ("31469c53ac72bf821ea37e6bb1d309e30ab143ec6e06970852ff5d81d87cb6ef",
                "b96da882c26cdcdda8557348cc3bf982a89e34c536070ee5833c4d542265a93d"),
    },
    "Haswell": {
        "mda": ("b5c43c31bd317ecbf5946c327e25f0e44e64afc5b1480ddc9db708e0318482ad",
                "f6b8ac124117decdef3caa6934a9fec6019cf692456afbcf52edd0dc2ea890fa"),
        "hda": ("7c2d678434dea8af39016c5aadb03f4e6ff3b4188b4a1632ec7a2979e49c3d1a",
                "9e7b8a72531aea1c5f1f86ec9884e4e8ba886366e43cb8fa9f123d17999a2210"),
    },
}


@pytest.mark.parametrize("method", ["hda", "mda"])
def test_train_golden_digests(golden_dataset, method, per_core):
    cfg = TrainConfig(method=method, epochs=2, batch_size=32, **GATE_ARCH)
    res = training.train(golden_dataset, SplitPlan.default(8), cfg)
    state = b"".join(res.best_state[k].tobytes() for k in sorted(res.best_state))
    assert (_sha(res.log_csv.encode()), _sha(state)) == \
        per_core(GOLDEN_TRAIN)[method]


def _ablation_rows(cr_rmse, mda_rmse):
    return [
        {"name": "cr-only", "rmse_mean": cr_rmse, "rmse_std": 0.0,
         "acc_mean": 0.37945492662473795, "acc_std": 0.0,
         "loc_gain_pct": "", "acc_gain_pct": ""},
        {"name": "mda", "rmse_mean": mda_rmse, "rmse_std": 0.0,
         "acc_mean": 0.3060796645702306, "acc_std": 0.0,
         "loc_gain_pct": "-227.493", "acc_gain_pct": ""}]


# the rows of a 1-epoch, 1-seed run_ablation, per OpenBLAS core
GOLDEN_ABLATION = {
    "SkylakeX": _ablation_rows(6.708917214802664, 21.971243278162895),
    "Haswell": _ablation_rows(6.7089172148029075, 21.97124327816905),
}


def test_run_ablation_golden_rows(golden_dataset, per_core):
    grid = (("cr-only", dict(method="dcnn", lambda3_max=0.0)),
            ("mda", dict(method="mda", fingerprint=F.SCM,
                         normalization=F.MW)))
    rows = training.run_ablation(
        golden_dataset, SplitPlan.default(8),
        TrainConfig(epochs=1, batch_size=32, **GATE_ARCH), grid=grid,
        seeds=(0,))
    assert rows == per_core(GOLDEN_ABLATION)


# ----------------------------------------------------------------------
# memory: backward frees each step's graph
# ----------------------------------------------------------------------

def _gate_step(cfg, domains):
    """The model and the two forward graphs and objective of one step of
    `cfg` on the first source and target batch of the prepared `domains`."""
    source, _, target = domains
    bs = cfg.batch_size
    model = Model(training.arch_for(cfg, source.inputs.shape[1:]), seed=0)
    out_s = model.forward(source.inputs[:bs], train=True)
    out_t = model.forward(target.inputs[:bs], train=True)
    total, _ = training.objective(cfg, out_s, source.coords[:bs],
                                  source.labels[:bs], out_t, model.params,
                                  None, 0.5)
    return model, total


def _graph(loss):
    """Every node of the graph behind `loss`."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def test_backward_frees_the_step_graph(golden_dataset):
    from semloc import engine

    cfg = TrainConfig(method="mda", batch_size=32, **GATE_ARCH)
    model, total = _gate_step(cfg, training.prepare_domains(
        golden_dataset, SplitPlan.default(8), cfg))
    nodes = _graph(total)
    inner = [t for t in nodes if t._backward is not None]
    leaves = [t for t in nodes if t._backward is None]
    assert len(inner) > 100
    assert {id(t) for t in leaves} == {id(p) for p in model.params.values()}
    total.backward()
    for t in inner:
        assert t._backward is engine._freed and t._parents == ()
        assert t.grad is None
    for p in model.params.values():
        assert p.grad is not None and p.grad.shape == p.data.shape
    with pytest.raises(RuntimeError, match="freed"):
        total.backward()


def test_train_peak_memory_is_bounded_by_one_step_graph(golden_dataset):
    # a step's forwards hold about 13 MB of graph at batch 32; backward
    # frees it as it walks, so the next step's forwards never meet it, and
    # its gradients live only while the walk reads them (1.07x measured).
    # A backward that left the graph and its gradients to the next step
    # measured 2.41x
    cfg = TrainConfig(method="mda", epochs=1, batch_size=32, **GATE_ARCH)
    split = SplitPlan.default(8)
    domains = training.prepare_domains(golden_dataset, split, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph = _gate_step(cfg, domains)
        step_bytes = tracemalloc.get_traced_memory()[0] - base
        del graph
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = training.train(golden_dataset, split, cfg, domains)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.log_csv.count("\n") > 10  # several steps
    assert peak <= 1.5 * step_bytes, (peak, step_bytes)
