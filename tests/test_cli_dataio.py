"""Tests for the binary file formats, directory locking, and the CLI."""

import json
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semloc import cli, dataio, features, training
from semloc.models import ArchConfig, Model
from semloc.scenario import (ArrayGeometry, Dataset, Scenario, desk_scenario,
                             generate_dataset)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(desk_scenario(), n_scenes=4, seed=2)


# ----------------------------------------------------------------------
# binary formats
# ----------------------------------------------------------------------

def test_dataset_round_trip(dataset, tmp_path):
    out = tmp_path / "ds"
    dataio.save_dataset(dataset, out)
    back = dataio.load_dataset(out)
    assert back.cfr.dtype == np.complex64
    assert np.array_equal(back.cfr, dataset.cfr.astype(np.complex64))
    np.testing.assert_allclose(back.coords, dataset.coords, rtol=1e-6)
    np.testing.assert_array_equal(back.labels, dataset.labels)
    np.testing.assert_array_equal(back.scene_ids, dataset.scene_ids)
    np.testing.assert_array_equal(back.grid_ids, dataset.grid_ids)
    assert back.manifest["n_scenes"] == dataset.manifest["n_scenes"]


@pytest.mark.parametrize("kind", features.FINGERPRINT_KINDS)
def test_prepare_domain_peak_memory_is_bounded_by_the_row_block(
        dataset, kind, tmp_path):
    # a loaded dataset stays complex64 and the pipeline widens one row
    # block at a time: beyond its output and the masked complex64 rows,
    # prepare_domain holds a few blocks of complex128 intermediates
    dataio.save_dataset(dataset, tmp_path)
    ds = dataio.load_dataset(tmp_path)
    scenes = range(ds.manifest["n_scenes"])
    cfg = training.TrainConfig(fingerprint=kind)
    tracemalloc.start()
    try:
        domain = training.prepare_domain(ds, scenes, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, m, k = ds.cfr.shape
    assert len(domain.inputs) == n > 4 * features._BLOCK_ROWS
    block = features._BLOCK_ROWS * m * k * np.dtype(np.complex128).itemsize
    assert peak <= domain.inputs.nbytes + ds.cfr.nbytes + 6 * block, peak


@settings(derandomize=True, deadline=None, max_examples=25)
@given(n=st.integers(0, 5), m_y=st.integers(1, 2), m_z=st.integers(1, 2),
       k=st.integers(2, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=0, m_y=1, m_z=1, k=2, scale=1.0, seed=0)
def test_property_dataset_round_trip(n, m_y, m_z, k, scale, seed):
    rng = np.random.default_rng(seed)
    sc = Scenario(bs_position=(0.0, 0.0, 5.0), array=ArrayGeometry(m_y, m_z),
                  carrier_freq=3.5e9, bandwidth=100e6, n_subcarriers=k,
                  ue_grid=np.zeros((200, 3)))
    m = sc.array.size
    scene_ids = rng.integers(0, 40, n)
    grid_ids = rng.integers(0, 200, n)
    ds = Dataset(
        cfr=scale * (rng.normal(size=(n, m, k))
                     + 1j * rng.normal(size=(n, m, k))),
        coords=scale * rng.normal(size=(n, 3)),
        labels=rng.integers(0, 3, n).astype(np.uint8),
        scene_ids=scene_ids, grid_ids=grid_ids,
        manifest={"scenario": sc.to_dict(), "n_scenes": 40,
                  "cfr_shape": [n, m, k],
                  "scene_of_sample": scene_ids.tolist(),
                  "grid_of_sample": grid_ids.tolist()})
    with tempfile.TemporaryDirectory() as out:
        dataio.save_dataset(ds, out)
        back = dataio.load_dataset(out)
    assert back.cfr.shape == (n, m, k) and back.coords.shape == (n, 3)
    assert np.array_equal(back.cfr, ds.cfr.astype(np.complex64))
    assert np.array_equal(back.coords, ds.coords.astype(np.float32))
    for name in ("labels", "scene_ids", "grid_ids"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name


def test_cfr_bin_is_interleaved_little_endian_float32(dataset, tmp_path):
    out = tmp_path / "ds"
    dataio.save_dataset(dataset, out)
    n, m, k = dataset.manifest["cfr_shape"]
    raw = (out / "cfr.bin").read_bytes()
    assert len(raw) == n * m * k * 8  # two float32 per complex sample
    re0, im0 = struct.unpack("<2f", raw[:8])
    assert abs(re0 - dataset.cfr[0, 0, 0].real) < 1e-6
    assert abs(im0 - dataset.cfr[0, 0, 0].imag) < 1e-6
    # last element, [sample][antenna][subcarrier] layout
    re_l, im_l = struct.unpack("<2f", raw[-8:])
    assert abs(re_l - dataset.cfr[-1, -1, -1].real) < 1e-6


def test_coords_and_labels_bin_layout(dataset, tmp_path):
    out = tmp_path / "ds"
    dataio.save_dataset(dataset, out)
    coords = (out / "coords.bin").read_bytes()
    assert len(coords) == len(dataset.labels) * 3 * 4
    assert abs(struct.unpack("<f", coords[:4])[0]
               - dataset.coords[0, 0]) < 1e-5
    labels = (out / "labels.bin").read_bytes()
    assert list(labels) == list(dataset.labels)


def test_checkpoint_round_trip_and_sorted_order(tmp_path):
    rng = np.random.default_rng(1)
    params = {"b.w": rng.normal(size=(3, 2)), "a.w": rng.normal(size=4),
              "c.s": np.array(1.5)}
    dataio.save_checkpoint(tmp_path / "ck", params, {"note": "x"})
    back, manifest = dataio.load_checkpoint(tmp_path / "ck")
    assert manifest["param_order"] == ["a.w", "b.w", "c.s"]
    for name in params:
        np.testing.assert_array_equal(back[name], params[name])
    # params.bin is the float64 concatenation in sorted-name order
    blob = np.fromfile(tmp_path / "ck" / "params.bin", dtype="<f8")
    np.testing.assert_array_equal(blob[:4], params["a.w"])


@settings(derandomize=True, deadline=None, max_examples=10)
@given(channels=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       widths=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       scale=st.sampled_from([1e-300, 1.0, 1e300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_checkpoint_round_trip(channels, widths, scale, seed):
    arch = ArchConfig(conv_channels=channels, mlp_widths=widths,
                      input_shape=(1, 4, 8))
    model = Model(arch, seed=0)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = scale * rng.normal(size=p.data.shape)
    for name, stat in model.running.items():
        model.running[name] = scale * rng.random(stat.shape)
    with tempfile.TemporaryDirectory() as out:
        dataio.save_checkpoint(out, model.state_dict(),
                               {"arch": arch.to_dict()})
        state, manifest = dataio.load_checkpoint(out)
    back = Model(ArchConfig.from_dict(manifest["arch"]), seed=1)
    back.load_state_dict(state)
    assert back.params.keys() == model.params.keys()
    assert back.running.keys() == model.running.keys()
    for name, p in model.params.items():
        assert back.params[name].data.dtype == np.float64
        assert back.params[name].data.shape == p.data.shape
        assert back.params[name].data.tobytes() == p.data.tobytes(), name
    for name, stat in model.running.items():
        assert back.running[name].shape == stat.shape
        assert back.running[name].tobytes() == stat.tobytes(), name


def test_directory_lock_blocks_second_writer(tmp_path):
    d = tmp_path / "out"
    with dataio.DirectoryLock(d):
        assert (d / ".lock").exists()
        with pytest.raises(dataio.InputError):
            with dataio.DirectoryLock(d):
                pass
    assert not (d / ".lock").exists()
    with dataio.DirectoryLock(d):  # reusable after release
        pass


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["not-a-command"]) == 2
    assert cli.main(["gen"]) == 2  # missing --out
    capsys.readouterr()
    # values that parse but are not usable: one stderr line, and no output
    # directory is created
    out = tmp_path / "out"
    desk = desk_scenario().to_dict()
    scenario = json.dumps(desk)
    for name, text in (("bad.json", "{bad"), ("list.json", "[1, 2]"),
                       ("nokey.json", scenario.replace('"lanes"', '"lane"')),
                       ("minp.json", json.dumps({**desk, "min_paths": 9,
                                                 "max_paths": 4})),
                       ("maxp.json", json.dumps({**desk, "max_paths": 0})),
                       ("grid.json", json.dumps({**desk, "ue_grid": [[0, 1]]})),
                       ("bs.json", json.dumps({**desk, "bs_position": [0, 0]})),
                       ("density.json", json.dumps(
                           {**desk, "lanes": [{**desk["lanes"][0],
                                               "density": -1}]})),
                       ("refl.json", json.dumps({**desk,
                                                 "reflection_coeff": np.nan})),
                       ("snr.json", json.dumps({**desk, "noise_snr_db": "x"})),
                       ("nsub.json", json.dumps({**desk, "n_subcarriers": 8.5})),
                       ("xrange.json", json.dumps(
                           {**desk, "lanes": [{**desk["lanes"][0],
                                               "x_min": 5.0, "x_max": -5.0}]})),
                       ("my.json", json.dumps({**desk, "array": {
                           **desk["array"], "m_y": 2.5}})),
                       ("mz.json", json.dumps({**desk, "array": {
                           **desk["array"], "m_z": 0}})),
                       ("spacing.json", json.dumps({**desk, "array": {
                           **desk["array"], "spacing": 0.0}})),
                       ("unknown.json", json.dumps({**desk, "max_path": 4}))):
        (tmp_path / name).write_text(text)
    for argv in (["gen", "--scenes", "0", "--out", str(out)],
                 ["gen", "--scenario", str(tmp_path / "nope.json"),
                  "--out", str(out)],
                 ["gen", "--scenario", str(tmp_path / "bad.json"),
                  "--out", str(out)],
                 ["gen", "--scenario", str(tmp_path / "list.json"),
                  "--out", str(out)],
                 ["gen", "--scenario", str(tmp_path / "nokey.json"),
                  "--out", str(out)],
                 ["gen", "--scenario", str(tmp_path / "minp.json"),
                  "--out", str(out)],
                 ["gen", "--scenario", str(tmp_path / "maxp.json"),
                  "--out", str(out)],
                 *(["gen", "--scenario", str(tmp_path / name), "--out", str(out)]
                   for name in ("grid.json", "bs.json", "density.json",
                                "refl.json", "snr.json", "nsub.json",
                                "xrange.json", "my.json", "mz.json",
                                "spacing.json", "unknown.json")),
                 ["gen", "--seed", "-1", "--out", str(out)],
                 ["gradcheck", "--seed", "-1"],
                 ["describe", "--input-shape", "1", "16", "24"],
                 ["describe", "--input-shape", "1", "8", "16"],
                 ["describe", "--input-shape", "0", "16", "16"],
                 ["describe", "--input-shape", "1", "-16", "16"]):
        assert cli.main(argv) == 2, argv
        assert_one_error_line(capsys)
        assert not out.exists()


def _bad_geometry(desk):
    """Scenario dicts whose geometry or traffic values gen must refuse."""
    building, lane = desk["buildings"][0], desk["lanes"][0]
    lo, hi = building["lo"], building["hi"]
    return {
        "lo-2-coords": {"buildings": [{**building, "lo": lo[:2]}]},
        "lo-string": {"buildings": [{**building, "lo": ["a", *lo[1:]]}]},
        "lo-above-hi": {"buildings": [{**building, "lo": hi, "hi": lo}]},
        "truck-string": {"lanes": [{**lane, "truck_fraction": "x"}]},
        "truck-2": {"lanes": [{**lane, "truck_fraction": 2}]},
        "y-center-string": {"lanes": [{**lane, "y_center": "x"}]},
        "drift-minus-5": {"traffic_drift": -5},
        "grid-nan": {"ue_grid": [[np.nan, 5.5, 1.5], *desk["ue_grid"][1:]]},
        "ue-at-bs": {"ue_grid": [desk["bs_position"], *desk["ue_grid"][1:]]},
        "carrier-inf": {"carrier_freq": np.inf},
        "bandwidth-true": {"bandwidth": True},
    }


_DESK_10 = desk_scenario(grid_points=10).to_dict()


@pytest.mark.parametrize("case", list(_bad_geometry(_DESK_10)))
def test_cli_gen_refuses_malformed_geometry(case, tmp_path, capsys):
    # each once crashed with a traceback or wrote a dataset
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_DESK_10, **_bad_geometry(_DESK_10)[case]}))
    out = tmp_path / "out"
    assert cli.main(["gen", "--scenario", str(path), "--out", str(out)]) == 2
    assert_one_error_line(capsys, "semloc: --scenario: ")
    assert not out.exists()


def test_cli_dataset_with_malformed_geometry_exits_4(dataset, tmp_path,
                                                      capsys):
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    scenario = manifest["scenario"]
    for edit in ({"traffic_drift": -5}, {"carrier_freq": np.inf},
                 {"ue_grid": [scenario["bs_position"],
                              *scenario["ue_grid"][1:]]}):
        path.write_text(json.dumps({**manifest, "scenario": {
            **manifest["scenario"], **edit}}))
        assert cli.main(["eval", "--ckpt", ckpt, "--data", ds_dir]) == 4
        assert_one_error_line(capsys, f"semloc: {path}: scenario")


def test_cli_gen_train_eval_report_pipeline(tmp_path, capsys, monkeypatch):
    ds_dir = str(tmp_path / "ds")
    assert cli.main(["gen", "--scenes", "6", "--seed", "2",
                     "--out", ds_dir]) == 0
    assert (tmp_path / "ds" / "cfr.bin").exists()
    assert (tmp_path / "ds" / "effective_config.json").exists()

    # train scores its best checkpoint on the target domain it prepared
    calls = []
    prepare = training.prepare_domains
    monkeypatch.setattr(training, "prepare_domains",
                        lambda *a: calls.append(a) or prepare(*a))
    run_dir = str(tmp_path / "run")
    cfg = {"epochs": 1, "batch_size": 8, "conv_channels": [2, 4],
           "mlp_widths": [16]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--data", ds_dir, "--method", "mda",
                     "--config", str(cfg_path), "--out", run_dir]) == 0
    assert (tmp_path / "run" / "params.bin").exists()
    assert (tmp_path / "run" / "train_log.csv").exists()
    assert (tmp_path / "run" / "metrics.json").exists()
    assert len(calls) == 1

    assert cli.main(["eval", "--ckpt", run_dir, "--data", ds_dir]) == 0
    out = capsys.readouterr().out
    assert '"rmse"' in out

    report_path = tmp_path / "report.csv"
    assert cli.main(["report", "--run", run_dir, "--data", ds_dir,
                     "--out", str(report_path)]) == 0
    lines = report_path.read_text().strip().split("\n")
    assert lines[0] == "metric,value"
    assert any(l.startswith("cdf_error_m") for l in lines)


def save_untrained_run(dataset, tmp_path):
    """A saved dataset and an untrained small checkpoint for it."""
    ds_dir, ckpt = str(tmp_path / "ds"), str(tmp_path / "ckpt")
    dataio.save_dataset(dataset, ds_dir)
    cfg = training.TrainConfig(conv_channels=[2, 4], mlp_widths=[16])
    n, m, k = dataset.manifest["cfr_shape"]
    model = Model(training.arch_for(cfg, (1, m, k)), seed=0)
    dataio.save_checkpoint(ckpt, model.state_dict(), {
        "arch": model.arch.to_dict(), "train_config": cfg.to_dict(),
        "best_epoch": 0, "best_val_score": 0.0})
    return ds_dir, ckpt


SPLIT_4 = '{"source": [0, 2], "val": [2, 3], "target": [3, 4]}'


def assert_one_error_line(capsys, prefix="semloc: "):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_cli_unusable_out_exits_2(dataset, tmp_path, capsys, monkeypatch):
    # each once raised FileExistsError, NotADirectoryError or
    # FileNotFoundError; ablate only after every run had trained
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    f = tmp_path / "file"
    f.write_text("x")

    def run_ablation(*args, **kwargs):
        raise AssertionError("ablate trained before checking --out")
    monkeypatch.setattr(training, "run_ablation", run_ablation)
    train = ["train", "--data", ds_dir, "--split-json", SPLIT_4,
             "--epochs", "1", "--out"]
    ablate = ["ablate", "--data", ds_dir, "--split-json", SPLIT_4,
              "--seeds", "0", "--out"]
    report = ["report", "--run", ckpt, "--out"]
    for argv in (["gen", "--scenes", "1", "--out", str(f)],
                 ["gen", "--scenes", "1", "--out", str(f / "sub")],
                 [*train, str(f)], [*train, str(f / "sub")],
                 [*ablate, str(f / "x.csv")], [*ablate, str(tmp_path)],
                 [*report, str(f / "x.csv")],
                 [*report, str(tmp_path / "nope" / "x.csv")]):
        assert cli.main(argv) == 2, argv
        assert_one_error_line(capsys, "semloc: --out: ")
    assert f.read_text() == "x"
    assert not (tmp_path / "nope").exists()


def test_cli_ablate_writes_the_ablation_csv(dataset, tmp_path, capsys):
    ds_dir, _ = save_untrained_run(dataset, tmp_path)
    base = {"epochs": 1, "batch_size": 8, "conv_channels": [2, 4],
            "mlp_widths": [16]}
    grid = [("cr-only", {"method": "dcnn", "lambda3_max": 0.0}),
            ("pcp-only", {"method": "pcp-only"}), ("mda", {"method": "mda"})]
    (tmp_path / "cfg.json").write_text(json.dumps(base))
    (tmp_path / "grid.json").write_text(json.dumps(
        [{"name": n, "overrides": o} for n, o in grid]))
    out = tmp_path / "ablation.csv"
    assert cli.main(["ablate", "--data", ds_dir, "--split-json", SPLIT_4,
                     "--config", str(tmp_path / "cfg.json"),
                     "--grid", str(tmp_path / "grid.json"),
                     "--seeds", "0", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    rows = training.run_ablation(
        dataio.load_dataset(ds_dir),
        training.SplitPlan(range(0, 2), range(2, 3), range(3, 4)),
        training.TrainConfig(**base), grid=grid, seeds=(0,))
    assert out.read_text() == stdout == training.ablation_csv(rows)
    gains = {r["name"]: (r["loc_gain_pct"], r["acc_gain_pct"]) for r in rows}
    # each single-task baseline leaves both gain columns empty
    assert all(gains["mda"]) and gains["cr-only"] == gains["pcp-only"] == (
        "", "")


def test_cli_split_json_is_inline_and_validated(dataset, tmp_path, capsys):
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    ev = ["eval", "--ckpt", ckpt, "--data", ds_dir, "--split-json"]

    assert cli.main(ev + ['{"source": [0, 2], "val": [2, 3], '
                          '"target": [3, 4]}']) == 0
    assert '"rmse"' in capsys.readouterr().out
    # not JSON, a missing key, overlapping ranges, a range past the last
    # scene, a range that is not a list of ints
    for bad in ('{"source": [0, 2]',
                '{"source": [0, 2], "val": [2, 3]}',
                '{"source": [0, 2], "val": [1, 3], "target": [3, 4]}',
                '{"source": [0, 2], "val": [2, 3], "target": [3, 9]}',
                '{"source": "ab", "val": [2, 3], "target": [3, 4]}'):
        assert cli.main(ev + [bad]) == 2
        assert_one_error_line(capsys, "semloc: --split-json")


def test_cli_report_split_json_needs_data(dataset, tmp_path, capsys):
    _, ckpt = save_untrained_run(dataset, tmp_path)
    assert cli.main(["report", "--run", ckpt, "--split-json", "{bad"]) == 2
    assert_one_error_line(capsys, "semloc: --split-json")
    assert cli.main(["report", "--run", ckpt]) == 0
    assert capsys.readouterr().out.startswith("metric,value\nbest_epoch,0\n")


def test_cli_bad_input_files_exit_4(dataset, tmp_path, capsys):
    # truncated or missing dataset and checkpoint files exit 4 with one
    # stderr line, before any work is done
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    ev = ["eval", "--ckpt", ckpt, "--data", ds_dir]
    assert cli.main(ev) == 0
    capsys.readouterr()

    def truncated(path, size):
        data = (tmp_path / path).read_bytes()
        (tmp_path / path).write_bytes(data[:size])
        return data

    for path, size in (("ds/cfr.bin", 1000), ("ds/coords.bin", 12),
                       ("ds/labels.bin", 10), ("ckpt/params.bin", 64)):
        data = truncated(path, size)
        assert cli.main(ev) == 4, path
        assert_one_error_line(capsys, "semloc: " + str(tmp_path / path))
        (tmp_path / path).write_bytes(data)
    # a manifest that is not JSON, or whose per-sample lists disagree
    # with cfr_shape
    manifest = (tmp_path / "ds" / "manifest.json").read_text()
    for text in ("{", manifest.replace('"scene_of_sample": [',
                                       '"scene_of_sample": [0, ', 1)):
        (tmp_path / "ds" / "manifest.json").write_text(text)
        assert cli.main(ev) == 4
        assert_one_error_line(capsys, "semloc: " + str(tmp_path / "ds"))
    # a manifest that parses but lacks a key, or holds an unusable value
    ck_manifest = (tmp_path / "ckpt" / "manifest.json").read_text()
    bad_fp = json.loads(ck_manifest)
    bad_fp["train_config"]["fingerprint"] = "nope"
    for name, text, keys in (
            ("ds", manifest, ("cfr_shape", "scene_of_sample",
                              "grid_of_sample", "n_scenes", "scenario")),
            ("ckpt", ck_manifest, ("param_order", "param_shapes", "arch",
                                   "train_config"))):
        for key in keys:
            d = json.loads(text)
            del d[key]
            (tmp_path / name / "manifest.json").write_text(json.dumps(d))
            assert cli.main(ev) == 4, key
            assert_one_error_line(capsys, "semloc: " + str(tmp_path / name))
        (tmp_path / name / "manifest.json").write_text(text)
    # a dataset scenario that lacks a key, does not fit cfr_shape (3x4
    # antennas against 16), or is not an object; train stops before --out
    ds_manifest = json.loads(manifest)
    scen = ds_manifest["scenario"]
    run = tmp_path / "run"
    for bad in ({k: v for k, v in scen.items() if k != "lanes"},
                {**scen, "array": {**scen["array"], "m_y": 3}}, "desk"):
        (tmp_path / "ds" / "manifest.json").write_text(
            json.dumps({**ds_manifest, "scenario": bad}))
        for argv in (ev, ["train", "--data", ds_dir, "--out", str(run)]):
            assert cli.main(argv) == 4, (bad, argv)
            assert_one_error_line(capsys, "semloc: " + str(tmp_path / "ds"))
            assert not run.exists()
    (tmp_path / "ds" / "manifest.json").write_text(manifest)
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(bad_fp))
    assert cli.main(ev) == 4
    assert_one_error_line(capsys, "semloc: " + str(tmp_path / "ckpt"))
    (tmp_path / "ckpt" / "manifest.json").write_text(ck_manifest)
    assert cli.main(ev) == 0
    capsys.readouterr()
    (tmp_path / "ds" / "labels.bin").rename(tmp_path / "labels.bin")
    assert cli.main(ev) == 4
    assert_one_error_line(capsys)
    for argv in (["eval", "--ckpt", str(tmp_path / "nope"), "--data", ds_dir],
                 ["report", "--run", str(tmp_path / "nope")],
                 ["report", "--run", str(tmp_path / "ds")],
                 ["train", "--data", str(tmp_path / "nope"),
                  "--out", str(tmp_path / "run")]):
        assert cli.main(argv) == 4
        assert_one_error_line(capsys)


def test_cli_dataset_with_bad_labels_or_coords_exits_4(dataset, tmp_path,
                                                       capsys):
    # a label that names no class once crashed train and ablate with a
    # traceback from the class loss's one-hot, and train left an empty --out
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    run = tmp_path / "run"
    n = len(dataset.labels)
    labels = dataset.labels.astype(np.uint8)
    coords = dataset.coords.astype("<f4")
    bad = []
    for value in (3, 7, 255):
        bad.append(("labels.bin", labels.copy()))
        bad[-1][1][n // 2] = value
    for value in (np.nan, np.inf, -np.inf):
        bad.append(("coords.bin", coords.copy()))
        bad[-1][1][n // 2, 1] = value
    for name, data in bad:
        path = tmp_path / "ds" / name
        clean = path.read_bytes()
        path.write_bytes(data.tobytes())
        for argv in (["train", "--data", ds_dir, "--split-json", SPLIT_4,
                      "--epochs", "1", "--out", str(run)],
                     ["ablate", "--data", ds_dir, "--split-json", SPLIT_4,
                      "--seeds", "0"],
                     ["eval", "--ckpt", ckpt, "--data", ds_dir]):
            assert cli.main(argv) == 4, (name, argv)
            assert_one_error_line(capsys, f"semloc: {path}: holds ")
            assert not run.exists()
        path.write_bytes(clean)
    assert cli.main(["eval", "--ckpt", ckpt, "--data", ds_dir]) == 0


def test_cli_checkpoint_that_does_not_fit_the_dataset_exits_4(
        dataset, tmp_path, capsys, monkeypatch):
    # a checkpoint for the desk's 4x4 array, scored on a 2x2 array's
    # dataset, once exited 1 with a ShapeMismatch traceback
    _, ckpt = save_untrained_run(dataset, tmp_path)
    desk = desk_scenario(grid_points=10).to_dict()
    small = Scenario.from_dict({**desk, "array": {**desk["array"], "m_y": 2,
                                                  "m_z": 2}})
    ds_dir = str(tmp_path / "small")
    dataio.save_dataset(generate_dataset(small, 4, 0), ds_dir)
    fingerprinted, extract = [], features.extract
    monkeypatch.setattr(features, "extract",
                        lambda h, *a: fingerprinted.append(len(h))
                        or extract(h, *a))
    for argv in (["eval", "--ckpt", ckpt, "--data", ds_dir],
                 ["report", "--run", ckpt, "--data", ds_dir]):
        assert cli.main(argv) == 4, argv
        assert capsys.readouterr().err == (
            f"semloc: {os.path.join(ckpt, 'manifest.json')}: arch "
            f"input_shape [1, 16, 32] does not fit the dataset's adp "
            f"fingerprints of shape [1, 4, 32]\n")
    assert set(fingerprinted) == {0}


def test_cli_malformed_dataset_manifest_exits_4(dataset, tmp_path, capsys):
    # a cfr_shape that is not three non-negative ints, an n_scenes that is
    # not an int >= 1, or per-sample ids that are not a list of ints inside
    # [0, n_scenes) and [0, len(ue_grid)), exit 4 with one stderr line, not
    # a traceback; train stops before --out
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    n, m, k = manifest["cfr_shape"]
    scenes = manifest["scene_of_sample"]
    grids = manifest["grid_of_sample"]
    n_grid = len(manifest["scenario"]["ue_grid"])
    run = tmp_path / "run"
    for key, bad in (("cfr_shape", [m, k]), ("cfr_shape", [n, m, -k]),
                     ("cfr_shape", [n, m, float(k)]),
                     ("n_scenes", "x"), ("n_scenes", 2.5), ("n_scenes", -1),
                     ("n_scenes", 0), ("n_scenes", True),
                     ("scene_of_sample", 5),
                     ("scene_of_sample", [2 ** 70] + scenes[1:]),
                     ("scene_of_sample", [-3] + scenes[1:]),
                     ("scene_of_sample", scenes[:-1] + [99]),
                     ("scene_of_sample", [True] + scenes[1:]),
                     ("grid_of_sample", ["0"] * n),
                     ("grid_of_sample", grids[:-1] + [n_grid]),
                     ("grid_of_sample", [-1] + grids[1:])):
        path.write_text(json.dumps({**manifest, key: bad}))
        for argv in (["eval", "--ckpt", ckpt, "--data", ds_dir],
                     ["train", "--data", ds_dir, "--out", str(run)]):
            assert cli.main(argv) == 4, (key, bad, argv)
            assert_one_error_line(capsys, f"semloc: {path}: {key}")
            assert not run.exists()


def _first_shape(value):
    """An edit of a checkpoint manifest that sets the first parameter's
    shape to `value`."""
    def edit(m):
        m["param_shapes"][m["param_order"][0]] = value
    return edit


BAD_PARAM_LAYOUTS = {
    "order-names-an-absent-shape":
        lambda m: m["param_shapes"].pop(m["param_order"][0]),
    "order-not-a-list": lambda m: m.update(param_order=5),
    "order-holds-a-non-string": lambda m: m["param_order"].append(3),
    "order-repeats-a-name":
        lambda m: m["param_order"].append(m["param_order"][0]),
    "shapes-a-list": lambda m: m.update(param_shapes=[[2, 2]]),
    "shape-string": _first_shape("ab"),
    "shape-negative": _first_shape([-2, -2]),
    "shape-floats": _first_shape([2.0, 2.0]),
    "shape-bool": _first_shape([True, 4]),
}


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("edit", list(BAD_PARAM_LAYOUTS.values()),
                         ids=list(BAD_PARAM_LAYOUTS))
def test_cli_malformed_param_layout_exits_4(dataset, tmp_path, capsys,
                                            command, edit):
    # param_order must be a list of distinct strings, and param_shapes an
    # object holding a list of non-negative ints for each of them; anything
    # else exits 4 with one stderr line, not a traceback
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    argv = (["eval", "--ckpt", ckpt, "--data", ds_dir] if command == "eval"
            else ["report", "--run", ckpt])
    assert cli.main(argv) == 4
    assert_one_error_line(capsys, f"semloc: {path}: param_")


def test_cli_scores_checkpoints_with_stale_train_config_keys(dataset, tmp_path,
                                                           capsys):
    # eval reads only the fingerprint and normalization of train_config,
    # so a checkpoint written with a since-removed option still scores
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    ev = ["eval", "--ckpt", ckpt, "--data", ds_dir]
    assert cli.main(ev) == 0
    want = capsys.readouterr().out
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["train_config"]["exact_tempered"] = False
    path.write_text(json.dumps(manifest))
    assert cli.main(ev) == 0
    assert capsys.readouterr().out == want


def test_cli_scores_checkpoints_with_the_older_arch_layout(dataset, tmp_path,
                                                          capsys):
    # checkpoints once stored each head's widths with its output width
    # appended, plus n_classes and input_kind, and an optimizer_weight_decay
    # in train_config; they still score, with the same output
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    runs = (["eval", "--ckpt", ckpt, "--data", ds_dir],
            ["report", "--run", ckpt, "--data", ds_dir])
    want = []
    for argv in runs:
        assert cli.main(argv) == 0
        want.append(capsys.readouterr().out)
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    arch = manifest["arch"]
    manifest["arch"] = {"conv_channels": arch["conv_channels"],
                        "mlp_widths_reg": [16, 3], "mlp_widths_cls": [16, 3],
                        "n_classes": 3, "input_kind": "adp",
                        "input_shape": arch["input_shape"]}
    manifest["train_config"]["optimizer_weight_decay"] = 0.0
    path.write_text(json.dumps(manifest))
    for argv, out in zip(runs, want):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


def test_cli_bad_config_exits_2(dataset, tmp_path, capsys, monkeypatch):
    ds_dir, _ = save_untrained_run(dataset, tmp_path)
    trained = []
    monkeypatch.setattr(training, "train",
                        lambda *a: trained.append(a) or 1 / 0)
    bad = tmp_path / "bad.json"
    run = tmp_path / "run"
    for text in ('{"epochz": 1}', '{"fingerprint": "nope"}', '[1, 2]',
                 '{"epochs": 0}', '{bad', '{"lambda1": -1}', '{"gamma": -1}',
                 '{"lambda3_max": -1}', '{"lambda4": NaN}', '{"lr": NaN}',
                 '{"lr": 0}', '{"momentum": 1}', '{"batch_size": 8.5}',
                 '{"epochs": true}', '{"seed": -1}', '{"conv_channels": [-1]}',
                 '{"conv_channels": "ab"}', '{"conv_channels": []}',
                 '{"mlp_widths": [0]}', '{"conv_channels": null}',
                 # the method alone sets the task weights
                 '{"lambda1": 0.7}', '{"lambda2": 0.3}'):
        bad.write_text(text)
        for argv in (["train", "--data", ds_dir, "--out", str(run)],
                     ["describe"], ["ablate", "--data", ds_dir]):
            assert cli.main(argv + ["--config", str(bad)]) == 2, (text, argv)
            assert_one_error_line(capsys, "semloc: --config")
            assert not run.exists()
    assert cli.main(["train", "--data", ds_dir, "--seed", "-1",
                     "--out", str(run)]) == 2
    assert_one_error_line(capsys, "semloc: --config")
    assert not run.exists()
    assert cli.main(["ablate", "--data", ds_dir, "--seeds", "0", "-1"]) == 2
    assert_one_error_line(capsys, "semloc: --seeds")
    # every grid row is checked before the first one trains
    grid = tmp_path / "grid.json"
    for rows in ([{"name": "ok", "overrides": {"method": "dcnn"}},
                  {"name": "typo", "overrides": {"lamda4": 0.1}}],
                 [{"name": "ok", "overrides": {"method": "dcnn"}},
                  {"name": "neg", "overrides": {"lambda4": -0.5}}],
                 [{"name": "ok", "overrides": {"method": "dcnn"}},
                  {"name": "weights", "overrides": {"lambda2": 0.3}}],
                 [{"name": "ok", "overrides": {"method": "dcnn"}},
                  {"overrides": {}}]):
        grid.write_text(json.dumps(rows))
        assert cli.main(["ablate", "--data", ds_dir, "--grid",
                         str(grid)]) == 2
        assert_one_error_line(capsys, "semloc: --grid")
    assert trained == []


def test_cli_train_on_an_empty_split_exits_2(dataset, tmp_path, capsys):
    # 4 scenes split 5:2:5 leave the validation range empty
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    assert training.SplitPlan.default(4).val_scenes == range(2, 2)
    assert cli.main(["train", "--data", ds_dir, "--epochs", "1",
                     "--out", str(tmp_path / "run")]) == 2
    assert_one_error_line(capsys, "semloc: empty val split")
    assert not (tmp_path / "run").exists()
    assert cli.main(["eval", "--ckpt", ckpt, "--data", ds_dir,
                     "--split", "val"]) == 2
    assert_one_error_line(capsys)


BAD_CHECKPOINT_VALUES = {
    # an infinite variance once scored with exit 0 (its channel constant),
    # the others aborted with exit 3 as if the run had diverged
    "theta1.conv0.bn.var": (np.inf, "holds a non-finite value"),
    "theta1.conv1.bn.var": (-1.0, "holds a negative variance"),
    "theta1.conv0.bn.gamma": (np.nan, "holds a non-finite value"),
    "theta2.lin1.w": (np.nan, "holds a non-finite value"),
}


def test_cli_checkpoint_with_bad_values_exits_4(dataset, tmp_path, capsys):
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    good, manifest = dataio.load_checkpoint(ckpt)
    for name, (value, why) in BAD_CHECKPOINT_VALUES.items():
        state = {k: v.copy() for k, v in good.items()}
        state[name].flat[0] = value
        dataio.save_checkpoint(ckpt, state, manifest)
        for argv in (["eval", "--ckpt", ckpt, "--data", ds_dir,
                      "--split-json", SPLIT_4],
                     ["report", "--run", ckpt, "--data", ds_dir,
                      "--split-json", SPLIT_4],
                     ["report", "--run", ckpt]):
            assert cli.main(argv) == 4, (name, argv)
            assert_one_error_line(
                capsys, f"semloc: {os.path.join(ckpt, 'params.bin')}: "
                        f"{name} {why}")


def test_cli_eval_that_overflows_exits_3(dataset, tmp_path, capsys):
    # finite parameters whose forward overflows still abort the eval
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    state, manifest = dataio.load_checkpoint(ckpt)
    state = {k: v.copy() for k, v in state.items()}
    state["theta2.lin1.w"][:] = 1e308
    dataio.save_checkpoint(ckpt, state, manifest)
    assert cli.main(["eval", "--ckpt", ckpt, "--data", ds_dir,
                     "--split-json", SPLIT_4]) == 3
    assert_one_error_line(capsys, "semloc: aborted on non-finite value: ")


def test_cli_diverging_train_exits_3(dataset, tmp_path, capsys, recwarn):
    # numpy's overflow warnings on the way to the abort are not shown, and
    # the aborted run leaves nothing in --out
    ds_dir, _ = save_untrained_run(dataset, tmp_path)
    cfg = tmp_path / "cfg.json"
    for lr in (1e10, 1e3):
        cfg.write_text(json.dumps({"lr": lr, "epochs": 2, "batch_size": 8,
                                   "conv_channels": [2, 4],
                                   "mlp_widths": [16]}))
        assert cli.main(["train", "--data", ds_dir, "--config", str(cfg),
                         "--split-json", SPLIT_4,
                         "--out", str(tmp_path / "run")]) == 3
        assert_one_error_line(capsys,
                              "semloc: aborted on non-finite value: ")
        assert list((tmp_path / "run").iterdir()) == []
        assert len(recwarn) == 0


def test_writes_leave_no_truncated_file(dataset, tmp_path, monkeypatch):
    # a write that fails partway (here: a disk that fills after 100 bytes)
    # leaves neither a truncated target nor its temporary file
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:100])
            raise OSError(28, "No space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    new, kept = tmp_path / "new", tmp_path / "kept"
    dataio.save_dataset(dataset, kept)  # complete files a failed write keeps
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    monkeypatch.setattr(dataio, "open", failing_open, raising=False)
    writes = (lambda: dataio.save_dataset(dataset, new),
              lambda: dataio.save_dataset(dataset, kept),
              lambda: dataio.save_checkpoint(new, {"w": np.ones(40)}, {}),
              lambda: dataio.write_json(new / "m.json", {"k": "v" * 200}))
    for write in writes:
        with pytest.raises(OSError):
            write()
    assert list(new.iterdir()) == []
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_json_refuses_values_it_cannot_hold(tmp_path):
    # a numpy integer used to be written as a string: a checkpoint's
    # "conv_channels": ["2", 4], which eval then failed on with a TypeError
    path = tmp_path / "m.json"
    with pytest.raises(TypeError):
        dataio.write_json(path, {"conv_channels": [np.int64(2), 4]})
    assert list(tmp_path.iterdir()) == []
    # np.float64 is a float
    dataio.write_json(path, {"lr": np.float64(0.5)})
    assert json.loads(path.read_text()) == {"lr": 0.5}


def test_cli_gen_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (a, b):
        assert cli.main(["gen", "--scenes", "3", "--seed", "7",
                         "--out", d]) == 0
    for name in ("cfr.bin", "coords.bin", "labels.bin"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_describe(capsys):
    assert cli.main(["describe", "--input-shape", "1", "16", "16"]) == 0
    out = capsys.readouterr().out
    assert "theta1" in out or "conv" in out.lower()


def test_cli_gradcheck_exits_zero():
    assert cli.main(["gradcheck", "--method", "mda"]) == 0


def test_cli_gradcheck_exits_1_at_an_error_of_1e_4(monkeypatch, capsys):
    for err, code in ((9.99e-5, 0), (1e-4, 1), (0.5, 1)):
        monkeypatch.setattr(cli, "gradcheck_error", lambda m, s: err)
        assert cli.main(["gradcheck", "--method", "hda"]) == code, err
        assert capsys.readouterr().out == \
            f"hda max relative gradient error: {err:.3e}\n"


def test_cli_locked_directory_fails(tmp_path, capsys):
    # a lock held by a live process exits 4 and leaves the lock alone
    d = tmp_path / "busy"
    d.mkdir()
    (d / ".lock").write_text(str(os.getpid()))
    assert cli.main(["gen", "--scenes", "2", "--out", str(d)]) == 4
    assert capsys.readouterr().err == \
        f"semloc: {d / '.lock'}: locked by pid {os.getpid()}\n"
    assert (d / ".lock").read_text() == str(os.getpid())
    assert not (d / "cfr.bin").exists()
    # a lock whose pid names no process is stale and is taken over
    with open("/proc/sys/kernel/pid_max") as fh:
        dead = int(fh.read()) + 1
    (d / ".lock").write_text(str(dead))
    assert cli.main(["gen", "--scenes", "2", "--out", str(d)]) == 0
    assert (d / "cfr.bin").exists() and not (d / ".lock").exists()
