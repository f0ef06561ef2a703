"""Raw binary dataset / checkpoint formats.

A dataset directory holds manifest.json plus cfr.bin (complex64 stored
as interleaved little-endian float32 re/im, layout
[sample][antenna][subcarrier]), coords.bin (float32 [sample][3], meters)
and labels.bin (uint8 [sample]).  Checkpoints are manifest.json plus
params.bin: raw little-endian float64, concatenated in stable
parameter-name sort order.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .scenario import Dataset, Scenario


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_dataset(ds, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    cfr32 = np.ascontiguousarray(ds.cfr.astype("<c8"))
    with open(os.path.join(out_dir, "cfr.bin"), "wb") as fh:
        fh.write(cfr32.view("<f4").tobytes())
    with open(os.path.join(out_dir, "coords.bin"), "wb") as fh:
        fh.write(ds.coords.astype("<f4").tobytes())
    with open(os.path.join(out_dir, "labels.bin"), "wb") as fh:
        fh.write(ds.labels.astype(np.uint8).tobytes())
    _write_json(os.path.join(out_dir, "manifest.json"), ds.manifest)


def load_dataset(in_dir):
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    n, m, k = manifest["cfr_shape"]
    raw = np.fromfile(os.path.join(in_dir, "cfr.bin"), dtype="<f4")
    cfr = raw.view("<c8").reshape(n, m, k).astype(np.complex128)
    coords = np.fromfile(os.path.join(in_dir, "coords.bin"),
                         dtype="<f4").reshape(n, 3).astype(np.float64)
    labels = np.fromfile(os.path.join(in_dir, "labels.bin"), dtype=np.uint8)
    return Dataset(
        cfr=cfr, coords=coords, labels=labels,
        scene_ids=np.asarray(manifest["scene_of_sample"], np.int64),
        grid_ids=np.asarray(manifest["grid_of_sample"], np.int64),
        manifest=manifest)


def save_checkpoint(out_dir, param_data, manifest):
    """param_data: dict name -> float64 ndarray (trainable + running stats)."""
    os.makedirs(out_dir, exist_ok=True)
    names = sorted(param_data)
    blob = np.concatenate([np.asarray(param_data[n], np.float64).reshape(-1)
                           for n in names])
    with open(os.path.join(out_dir, "params.bin"), "wb") as fh:
        fh.write(blob.astype("<f8").tobytes())
    manifest = dict(manifest)
    manifest["param_order"] = names
    manifest["param_shapes"] = {n: list(np.asarray(param_data[n]).shape)
                                for n in names}
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_checkpoint(in_dir):
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    blob = np.fromfile(os.path.join(in_dir, "params.bin"), dtype="<f8")
    params, ofs = {}, 0
    for name in manifest["param_order"]:
        shape = tuple(manifest["param_shapes"][name])
        size = int(np.prod(shape)) if shape else 1
        params[name] = blob[ofs:ofs + size].reshape(shape)
        ofs += size
    return params, manifest


class DirectoryLock:
    """Best-effort single-writer lock on an output directory."""

    def __init__(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, ".lock")
        self._fd = None

    def __enter__(self):
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(f"output directory is locked: {self.path}")
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            os.unlink(self.path)
        return False


def scenario_from_manifest(manifest):
    return Scenario.from_dict(manifest["scenario"])
