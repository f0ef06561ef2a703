"""Tests for the binary file formats, directory locking, and the CLI."""

import json
import os
import struct

import numpy as np
import pytest

from semloc import cli, dataio, training
from semloc.models import Model
from semloc.scenario import desk_scenario, generate_dataset


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
    np.testing.assert_allclose(back.cfr, dataset.cfr, rtol=1e-6)
    np.testing.assert_allclose(back.coords, dataset.coords, rtol=1e-6)
    np.testing.assert_array_equal(back.labels, dataset.labels)
    np.testing.assert_array_equal(back.scene_ids, dataset.scene_ids)
    np.testing.assert_array_equal(back.grid_ids, dataset.grid_ids)
    assert back.manifest["n_scenes"] == dataset.manifest["n_scenes"]


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
                       ("nsub.json", json.dumps({**desk, "n_subcarriers": 8.5}))):
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
                                "refl.json", "snr.json", "nsub.json")),
                 ["gen", "--seed", "-1", "--out", str(out)],
                 ["describe", "--input-shape", "1", "16", "24"],
                 ["describe", "--input-shape", "1", "8", "16"]):
        assert cli.main(argv) == 2, argv
        assert_one_error_line(capsys)
        assert not out.exists()


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
                 '{"lr": 0}', '{"momentum": 1}',
                 '{"optimizer_weight_decay": -1}', '{"batch_size": 8.5}',
                 '{"epochs": true}', '{"seed": -1}', '{"conv_channels": [-1]}',
                 '{"conv_channels": "ab"}', '{"conv_channels": []}',
                 '{"mlp_widths": [0]}'):
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
    # every grid row is checked before the first one trains
    grid = tmp_path / "grid.json"
    for rows in ([{"name": "ok", "overrides": {"method": "dcnn"}},
                  {"name": "typo", "overrides": {"lamda4": 0.1}}],
                 [{"name": "ok", "overrides": {"method": "dcnn"}},
                  {"name": "neg", "overrides": {"lambda2": -0.5}}],
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


def test_cli_eval_of_a_non_finite_checkpoint_exits_3(dataset, tmp_path,
                                                     capsys):
    ds_dir, ckpt = save_untrained_run(dataset, tmp_path)
    state, manifest = dataio.load_checkpoint(ckpt)
    state = {k: v.copy() for k, v in state.items()}
    state["theta2.lin1.w"][0, 0] = np.nan
    dataio.save_checkpoint(ckpt, state, manifest)
    assert cli.main(["eval", "--ckpt", ckpt, "--data", ds_dir,
                     "--split-json", SPLIT_4]) == 3
    assert_one_error_line(capsys, "aborted on non-finite value: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverging_train_exits_3(dataset, tmp_path, capsys):
    ds_dir, _ = save_untrained_run(dataset, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 1e10, "epochs": 2, "batch_size": 8,
                               "conv_channels": [2, 4], "mlp_widths": [16]}))
    assert cli.main(["train", "--data", ds_dir, "--config", str(cfg),
                     "--split-json", SPLIT_4,
                     "--out", str(tmp_path / "run")]) == 3
    assert "aborted on non-finite value: " in capsys.readouterr().err


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
