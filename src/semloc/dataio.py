"""Raw binary dataset / checkpoint formats.

A dataset directory holds manifest.json plus cfr.bin (complex64 stored
as interleaved little-endian float32 re/im, layout
[sample][antenna][subcarrier]), coords.bin (float32 [sample][3], meters)
and labels.bin (uint8 [sample]); loading refuses a non-finite coordinate
and a label that names no class, and keeps the CFRs complex64.
Checkpoints are manifest.json plus params.bin: raw little-endian
float64, concatenated in stable parameter-name sort order; loading
refuses a non-finite value and a negative batch-norm running variance.
Every file is written to a temporary name in its directory and then
renamed over the target, so a crash never leaves a half-written file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .scenario import LABEL_NAMES, Dataset, Scenario, _is_int


def write_file(path, data):
    """Write `data` (str, or bytes or a C-contiguous array, whose buffer
    is written as is) to `path` atomically: into a temporary file in the
    same directory, then `os.replace` onto `path`."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    # a value JSON cannot hold (a numpy integer, say) raises here, before
    # the file is written
    write_file(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def save_dataset(ds, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_file(os.path.join(out_dir, "cfr.bin"),
               np.ascontiguousarray(ds.cfr, "<c8"))
    write_file(os.path.join(out_dir, "coords.bin"),
               ds.coords.astype("<f4").tobytes())
    write_file(os.path.join(out_dir, "labels.bin"),
               ds.labels.astype(np.uint8).tobytes())
    write_json(os.path.join(out_dir, "manifest.json"), ds.manifest)


class InputError(Exception):
    """A dataset or checkpoint file is missing, unreadable, or its size
    disagrees with its manifest."""


def _read_manifest(in_dir, keys):
    """The JSON object in `in_dir`/manifest.json, which must hold `keys`."""
    path = os.path.join(in_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise InputError(f"{path}: not a JSON object")
    require_keys(manifest, path, keys)
    return manifest


def require_keys(manifest, path, keys):
    """Raise InputError unless the manifest read from `path` holds `keys`."""
    missing = [k for k in keys if k not in manifest]
    if missing:
        raise InputError(f"{path}: missing {', '.join(missing)}")


def _read_array(in_dir, name, dtype, count):
    """The `count` items of `dtype` stored in one file, which must hold
    exactly that many bytes."""
    path = os.path.join(in_dir, name)
    want = count * np.dtype(dtype).itemsize
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    if size != want:
        raise InputError(f"{path}: {size} bytes, the manifest implies {want}")
    return np.fromfile(path, dtype=dtype)


def load_dataset(in_dir):
    manifest = _read_manifest(in_dir, ("cfr_shape", "scene_of_sample",
                                       "grid_of_sample", "n_scenes",
                                       "scenario"))
    path = os.path.join(in_dir, "manifest.json")
    try:
        scenario = scenario_from_manifest(manifest)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: scenario: {type(exc).__name__}: {exc}") \
            from None
    shape = manifest["cfr_shape"]
    if not (isinstance(shape, list) and len(shape) == 3
            and all(_is_int(v) and v >= 0 for v in shape)):
        raise InputError(f"{path}: cfr_shape {shape!r} is not a list of "
                         f"three non-negative ints")
    n, m, k = shape
    if [m, k] != [scenario.array.size, scenario.n_subcarriers]:
        raise InputError(f"{path}: cfr_shape {[n, m, k]} does not fit the "
                         f"scenario's {scenario.array} and "
                         f"{scenario.n_subcarriers} subcarriers")
    n_scenes = manifest["n_scenes"]
    if not (_is_int(n_scenes) and n_scenes >= 1):
        raise InputError(f"{path}: n_scenes {n_scenes!r} is not an int >= 1")
    for key, bound in (("scene_of_sample", n_scenes),
                       ("grid_of_sample", len(scenario.ue_grid))):
        ids = manifest[key]
        # json reads a whole number as int (or bool, which this rejects)
        if not (isinstance(ids, list) and all(type(v) is int for v in ids)):
            raise InputError(f"{path}: {key} is not a list of ints")
        if len(ids) != n:
            raise InputError(f"{path}: {key} has {len(ids)} entries, "
                             f"cfr_shape implies {n}")
        if ids and not (0 <= min(ids) and max(ids) < bound):
            raise InputError(f"{path}: {key} holds ids outside "
                             f"[0, {bound}): {min(ids)} to {max(ids)}")
    cfr = _read_array(in_dir, "cfr.bin", "<f4", 2 * n * m * k)
    cfr = cfr.view("<c8").reshape(n, m, k)
    coords = _read_array(in_dir, "coords.bin", "<f4", 3 * n)
    if not np.isfinite(coords).all():
        raise InputError(f"{os.path.join(in_dir, 'coords.bin')}: holds a "
                         f"non-finite coordinate")
    labels = _read_array(in_dir, "labels.bin", np.uint8, n)
    if (labels >= len(LABEL_NAMES)).any():
        raise InputError(f"{os.path.join(in_dir, 'labels.bin')}: holds "
                         f"label {labels.max()}, which names no class")
    return Dataset(
        cfr=cfr, coords=coords.reshape(n, 3).astype(np.float64),
        labels=labels,
        scene_ids=np.asarray(manifest["scene_of_sample"], np.int64),
        grid_ids=np.asarray(manifest["grid_of_sample"], np.int64),
        manifest=manifest)


def save_checkpoint(out_dir, param_data, manifest):
    """param_data: dict name -> float64 ndarray (trainable + running stats)."""
    os.makedirs(out_dir, exist_ok=True)
    names = sorted(param_data)
    blob = np.concatenate([np.asarray(param_data[n], np.float64).reshape(-1)
                           for n in names])
    write_file(os.path.join(out_dir, "params.bin"),
               blob.astype("<f8").tobytes())
    manifest = dict(manifest)
    manifest["param_order"] = names
    manifest["param_shapes"] = {n: list(np.asarray(param_data[n]).shape)
                                for n in names}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_checkpoint(in_dir):
    manifest = _read_manifest(in_dir, ("param_order", "param_shapes"))
    path = os.path.join(in_dir, "manifest.json")
    order, by_name = manifest["param_order"], manifest["param_shapes"]
    if not (isinstance(order, list) and all(type(n) is str for n in order)
            and len(set(order)) == len(order)):
        raise InputError(f"{path}: param_order is not a list of distinct "
                         f"strings")
    if not isinstance(by_name, dict):
        raise InputError(f"{path}: param_shapes is not an object")
    for name in order:
        shape = by_name.get(name)
        # json reads a whole number as int (or bool, which this rejects)
        if not (isinstance(shape, list)
                and all(type(v) is int and v >= 0 for v in shape)):
            raise InputError(f"{path}: param_shapes[{name!r}] {shape!r} is "
                             f"not a list of non-negative ints")
    shapes = [tuple(by_name[name]) for name in order]
    sizes = [math.prod(shape) for shape in shapes]  # exact, unlike int64
    blob = _read_array(in_dir, "params.bin", "<f8", sum(sizes))
    params, ofs = {}, 0
    for name, shape, size in zip(order, shapes, sizes):
        params[name] = blob[ofs:ofs + size].reshape(shape)
        ofs += size
    # a non-finite value or a variance below 0 would evaluate to a score
    # (an infinite variance makes its channel constant) or abort as if a
    # run had diverged; either is a broken file
    path = os.path.join(in_dir, "params.bin")
    for name, a in params.items():
        if not np.isfinite(a).all():
            raise InputError(f"{path}: {name} holds a non-finite value")
        if name.endswith(".bn.var") and (a < 0).any():
            raise InputError(f"{path}: {name} holds a negative variance")
    return params, manifest


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except PermissionError:  # alive, owned by another user
        return True
    except (ProcessLookupError, OverflowError):
        return False
    return True


class DirectoryLock:
    """Best-effort single-writer lock on an output directory: a `.lock`
    file holding the writer's pid.  A lock whose pid names no process is
    stale and is taken over."""

    def __init__(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, ".lock")
        self._fd = None

    def _holder(self):
        """The pid in the lock file; None if it holds no positive int."""
        try:
            with open(self.path) as fh:
                pid = int(fh.read())
        except (OSError, ValueError):
            return None
        return pid if pid > 0 else None

    def __enter__(self):
        for retry in (False, True):
            try:
                self._fd = os.open(self.path,
                                   os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                pid = self._holder()
                if retry or pid is None or _pid_alive(pid):
                    raise InputError(f"{self.path}: locked by pid "
                                     f"{pid or 'unknown'}") from None
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self.path)
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            os.unlink(self.path)
        return False


def scenario_from_manifest(manifest):
    return Scenario.from_dict(manifest["scenario"])
