"""Street-canyon scene synthesis: geometry, first-order ray paths, CFR.

A scenario is a static street layout (BS, UE grid, buildings, traffic
lanes); a scene is one snapshot of vehicle positions.  Links get a
direct path plus one single-bounce specular reflection (image method)
per building or vehicle face that both ends see from outside, each kept
only if unobstructed; the strongest `max_paths` survive.  Every face of
every box is handled at once as an array, and one segment/box hit test
per link covers the direct path and both legs of every reflection.  The
propagation-condition label distinguishes a clear direct path (LOS),
a direct path blocked only by vehicles (DNLOS) and one blocked by any
building (SNLOS).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0

LOS, DNLOS, SNLOS = 0, 1, 2
LABEL_NAMES = {LOS: "LOS", DNLOS: "DNLOS", SNLOS: "SNLOS"}

_SEG_EPS = 1e-9  # open-interval margin: endpoint touches do not count as hits


class EmptyLink(Exception):
    """No propagation path survives between BS and UE (full blockage)."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array; elements indexed (iy, iz), flattened iy-major."""

    m_y: int
    m_z: int
    spacing: float = 0.5  # in wavelengths

    def __post_init__(self):
        if self.m_y < 1 or self.m_z < 1:
            raise ValueError("array needs at least one element per axis")

    @property
    def size(self):
        return self.m_y * self.m_z


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, corners in meters."""

    lo: tuple
    hi: tuple

    def as_arrays(self):
        return np.asarray(self.lo, float), np.asarray(self.hi, float)


@dataclass(frozen=True)
class Lane:
    """A straight traffic lane along the x axis."""

    y_center: float
    x_min: float
    x_max: float
    density: float = 0.08        # expected vehicles per meter of lane
    truck_fraction: float = 0.35


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite_number(v):
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and bool(np.isfinite(v)))


# vehicle types: (length, width, height) in meters
_VEHICLE_SIZES = {"sedan": (4.5, 1.8, 1.5), "truck": (8.0, 2.5, 2.9)}


@dataclass
class Scenario:
    bs_position: tuple
    array: ArrayGeometry
    carrier_freq: float
    bandwidth: float
    n_subcarriers: int
    ue_grid: np.ndarray              # [L, 3] meters
    grid_spacing: float
    buildings: list = field(default_factory=list)   # list[Box]
    lanes: list = field(default_factory=list)       # list[Lane]
    max_paths: int = 25
    min_paths: int | None = None     # if set, P ~ Uniform{min_paths..max_paths}
    reflection_coeff: float = 0.6
    traffic_drift: float = 0.0       # relative density increase over the scene axis
    noise_snr_db: float | None = None

    def __post_init__(self):
        self.ue_grid = np.asarray(self.ue_grid, float)
        if self.ue_grid.ndim != 2 or self.ue_grid.shape[1:] != (3,) \
                or len(self.ue_grid) < 1:
            raise ValueError(f"ue_grid must be [L, 3] with L >= 1, not "
                             f"{list(self.ue_grid.shape)}")
        if not (_is_int(self.max_paths) and self.max_paths >= 1):
            raise ValueError(f"max_paths must be an integer >= 1, not "
                             f"{self.max_paths!r}")
        if self.min_paths is not None and not (
                _is_int(self.min_paths) and 1 <= self.min_paths <= self.max_paths):
            raise ValueError(f"min_paths must be an integer in [1, max_paths], "
                             f"not {self.min_paths!r}")
        if not (_is_int(self.n_subcarriers) and self.n_subcarriers >= 2):
            raise ValueError(f"n_subcarriers must be an integer >= 2, not "
                             f"{self.n_subcarriers!r}")
        if not (len(self.bs_position) == 3
                and all(map(_is_finite_number, self.bs_position))):
            raise ValueError(f"bs_position must be 3 finite numbers, not "
                             f"{list(self.bs_position)!r}")
        for lane in self.lanes:
            if not (_is_finite_number(lane.density) and lane.density >= 0):
                raise ValueError(f"lane density must be finite and "
                                 f"nonnegative, not {lane.density!r}")
        if not (_is_finite_number(self.reflection_coeff)
                and self.reflection_coeff >= 0):
            raise ValueError(f"reflection_coeff must be finite and "
                             f"nonnegative, not {self.reflection_coeff!r}")
        if not (self.noise_snr_db is None
                or _is_finite_number(self.noise_snr_db)):
            raise ValueError(f"noise_snr_db must be a finite number or null, "
                             f"not {self.noise_snr_db!r}")
        if not self.carrier_freq > self.bandwidth > 0:
            raise ValueError("require carrier_freq > bandwidth > 0")

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_freq

    def subcarrier_freqs(self):
        fc, b = self.carrier_freq, self.bandwidth
        return np.linspace(fc - b / 2.0, fc + b / 2.0, self.n_subcarriers)

    # -- JSON round trip -------------------------------------------------
    def to_dict(self):
        return {
            "bs_position": list(self.bs_position),
            "array": {"m_y": self.array.m_y, "m_z": self.array.m_z,
                      "spacing": self.array.spacing},
            "carrier_freq": self.carrier_freq,
            "bandwidth": self.bandwidth,
            "n_subcarriers": self.n_subcarriers,
            "ue_grid": self.ue_grid.tolist(),
            "grid_spacing": self.grid_spacing,
            "buildings": [{"lo": list(b.lo), "hi": list(b.hi)} for b in self.buildings],
            "lanes": [{"y_center": l.y_center, "x_min": l.x_min, "x_max": l.x_max,
                       "density": l.density, "truck_fraction": l.truck_fraction}
                      for l in self.lanes],
            "max_paths": self.max_paths,
            "min_paths": self.min_paths,
            "reflection_coeff": self.reflection_coeff,
            "traffic_drift": self.traffic_drift,
            "noise_snr_db": self.noise_snr_db,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            bs_position=tuple(d["bs_position"]),
            array=ArrayGeometry(**d["array"]),
            carrier_freq=d["carrier_freq"],
            bandwidth=d["bandwidth"],
            n_subcarriers=d["n_subcarriers"],
            ue_grid=np.asarray(d["ue_grid"], float),
            grid_spacing=d["grid_spacing"],
            buildings=[Box(tuple(b["lo"]), tuple(b["hi"])) for b in d["buildings"]],
            lanes=[Lane(**l) for l in d["lanes"]],
            max_paths=d["max_paths"],
            min_paths=d.get("min_paths"),
            reflection_coeff=d.get("reflection_coeff", 0.6),
            traffic_drift=d.get("traffic_drift", 0.0),
            noise_snr_db=d.get("noise_snr_db"),
        )

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class Scene:
    scene_id: int
    vehicles: list  # list[Box]


@dataclass
class MpcSet:
    """Multipath components of one BS-UE link."""

    gains: np.ndarray       # complex [P]
    azimuths: np.ndarray    # radians [P]
    elevations: np.ndarray  # radians [P]
    delays: np.ndarray      # seconds [P]

    def __len__(self):
        return self.gains.size


# ----------------------------------------------------------------------
# steering vector and CFR synthesis
# ----------------------------------------------------------------------

def steering_vector(azimuth, elevation, array):
    """Half-wavelength UPA steering vector, flattened iy-major, iz-minor.

    Element (iy, iz), zero-based, has phase
    pi * (iy * sin(elevation) * sin(azimuth) + iz * cos(elevation)),
    so boresight (elevation pi/2, azimuth 0) gives the all-ones vector.
    Scalar angles give [M]; angle arrays [P] give [M, P], one column per path.
    """
    azimuth, elevation = np.asarray(azimuth, float), np.asarray(elevation, float)
    extra = (1,) * azimuth.ndim
    iy = np.arange(array.m_y).reshape((-1, 1) + extra)
    iz = np.arange(array.m_z).reshape((1, -1) + extra)
    phase = np.pi * 2.0 * array.spacing * (
        iy * np.sin(elevation) * np.sin(azimuth) + iz * np.cos(elevation))
    return np.exp(1j * phase).reshape((array.size,) + azimuth.shape)


def synth_cfr(mpcs, scenario, array=None):
    """Channel matrix H [M, K]: column k = sum_p gain_p a_p exp(-2j pi f_k tau_p)."""
    if len(mpcs) == 0:
        raise EmptyLink("cannot synthesize CFR from an empty path set")
    array = array if array is not None else scenario.array
    a_mat = steering_vector(mpcs.azimuths, mpcs.elevations, array)  # [M, P]
    freqs = scenario.subcarrier_freqs()
    phases = np.exp(-2j * np.pi * np.outer(mpcs.delays, freqs))  # [P, K]
    return (a_mat * mpcs.gains[None, :]) @ phases


# ----------------------------------------------------------------------
# segment / box intersection (slab method, vectorized)
# ----------------------------------------------------------------------

def segments_hit_boxes(p0, p1, boxes_lo, boxes_hi):
    """Boolean [S, B]: does the open segment interior enter each box?

    p0, p1: [S, 3] endpoints.  Endpoint touches and face grazes are not
    counted as hits (open parameter interval with a small margin).
    """
    p0 = np.atleast_2d(np.asarray(p0, float))
    p1 = np.atleast_2d(np.asarray(p1, float))
    if boxes_lo.size == 0:
        return np.zeros((p0.shape[0], 0), bool)
    d = (p1 - p0)[:, None, :]                      # [S, 1, 3]
    o = p0[:, None, :]
    lo = boxes_lo[None, :, :]                      # [1, B, 3]
    hi = boxes_hi[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - o) / d
        t1 = (hi - o) / d
    tnear = np.where(np.isnan(t0), -np.inf, np.minimum(t0, t1))
    tfar = np.where(np.isnan(t1), np.inf, np.maximum(t0, t1))
    # axes with zero direction: inside the slab iff o within [lo, hi]
    zero = np.broadcast_to(d == 0.0, tnear.shape)
    inside = (o >= lo) & (o <= hi)
    tnear = np.where(zero, np.where(inside, -np.inf, np.inf), tnear)
    tfar = np.where(zero, np.where(inside, np.inf, -np.inf), tfar)
    tmin = tnear.max(axis=2)
    tmax = tfar.min(axis=2)
    enter = np.maximum(tmin, _SEG_EPS)
    leave = np.minimum(tmax, 1.0 - _SEG_EPS)
    return leave - enter > 1e-12


def _boxes_to_arrays(boxes):
    if not boxes:
        return np.zeros((0, 3)), np.zeros((0, 3))
    lo = np.array([b.lo for b in boxes], float)
    hi = np.array([b.hi for b in boxes], float)
    return lo, hi


def _norms(v):
    """Row norms of [N, 3]; rounds exactly like np.linalg.norm of each row."""
    return np.sqrt(np.vecdot(v, v))


# ----------------------------------------------------------------------
# first-order ray tracing
# ----------------------------------------------------------------------

def _specular_points(bs, ue, boxes_lo, boxes_hi):
    """Image-method reflection points [R, 3], one per valid box face.

    A face is valid when BS and UE both lie strictly on its outer side
    and the specular point falls inside the face.  Rows come in (box,
    axis, lo face then hi face) order.
    """
    plane = np.stack([boxes_lo, boxes_hi], axis=-1)     # [B, axis, face]
    sign = np.array([-1.0, 1.0])
    facing = ((sign * (bs[:, None] - plane) > 1e-9)
              & (sign * (ue[:, None] - plane) > 1e-9))
    # the BS mirrored in each face plane, [B, axis, face, coord]
    mirrored = 2.0 * plane - bs[:, None]
    on_axis = np.eye(3, dtype=bool)[:, None, :]          # [axis, 1, coord]
    img = np.where(on_axis, mirrored[..., None], bs)
    d = ue - img
    d_axis = ue[:, None] - mirrored
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (plane - mirrored) / d_axis
        q = img + t[..., None] * d
    in_face = ((boxes_lo[:, None, None, :] - 1e-9 <= q)
               & (q <= boxes_hi[:, None, None, :] + 1e-9)) | on_axis
    valid = (facing & (np.abs(d_axis) >= 1e-12) & (0.0 < t) & (t < 1.0)
             & in_face.all(axis=-1))
    return q[valid]


def trace_paths(scenario, scene, ue, n_keep=None):
    """Direct path + single-bounce reflections for one BS-UE link.

    Returns (MpcSet, label).  Raises EmptyLink when nothing survives.
    `n_keep` truncates to the strongest n paths (default scenario.max_paths),
    kept in emission order: the direct path, then reflections by face.
    """
    bs = np.asarray(scenario.bs_position, float)
    ue = np.asarray(ue, float)
    lam = scenario.wavelength
    n_bld = len(scenario.buildings)
    lo, hi = _boxes_to_arrays(list(scenario.buildings) + list(scene.vehicles))

    # one hit test: the direct path, then the BS -> q and q -> UE legs
    q = _specular_points(bs, ue, lo, hi)
    r = len(q)
    hits = segments_hit_boxes(
        np.concatenate([bs[None], np.broadcast_to(bs, q.shape), q]),
        np.concatenate([ue[None], q, np.broadcast_to(ue, q.shape)]), lo, hi)
    if hits[0, :n_bld].any():
        label = SNLOS
    elif hits[0, n_bld:].any():
        label = DNLOS
    else:
        label = LOS
    points = q[~(hits[1:r + 1].any(axis=1) | hits[r + 1:].any(axis=1))]
    n_direct = int(label == LOS)
    if n_direct:  # the direct path is a "reflection" at the UE itself
        points = np.concatenate([ue[None], points])
    if len(points) == 0:
        raise EmptyLink(f"no surviving path to UE at {ue.tolist()}")

    dirs = points - bs
    first_leg = _norms(dirs)
    lengths = first_leg + _norms(ue - points)
    gains = lam / (4.0 * np.pi * lengths) * np.exp(-2j * np.pi * lengths / lam)
    gains[n_direct:] *= scenario.reflection_coeff
    unit = dirs / first_leg[:, None]
    elevations = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
    azimuths = np.arctan2(unit[:, 1], unit[:, 0])
    delays = lengths / SPEED_OF_LIGHT

    # keep the strongest paths (stable order for determinism)
    n_keep = n_keep if n_keep is not None else scenario.max_paths
    order = np.argsort(-np.abs(gains), kind="stable")[:n_keep]
    order = np.sort(order)  # preserve emission order among the survivors
    return MpcSet(gains[order], azimuths[order], elevations[order],
                  delays[order]), label


# ----------------------------------------------------------------------
# scene and dataset generation
# ----------------------------------------------------------------------

def make_scene(scenario, seed, scene_id, n_scenes):
    """Vehicle placement for one scene, a pure function of (scenario, seed, id).

    Traffic density ramps up along the scene axis by `traffic_drift`,
    so early and late scenes see systematically different blockage.
    """
    rng = np.random.default_rng([int(seed), int(scene_id)])
    frac = scene_id / max(n_scenes - 1, 1)
    vehicles = []
    for lane in scenario.lanes:
        density = lane.density * (1.0 + scenario.traffic_drift * frac)
        n = rng.poisson(density * (lane.x_max - lane.x_min))
        for _ in range(n):
            kind = "truck" if rng.random() < lane.truck_fraction else "sedan"
            length, width, height = _VEHICLE_SIZES[kind]
            cx = rng.uniform(lane.x_min + length / 2, lane.x_max - length / 2)
            cy = lane.y_center + rng.uniform(-0.2, 0.2)
            vehicles.append(Box(
                (cx - length / 2, cy - width / 2, 0.0),
                (cx + length / 2, cy + width / 2, height)))
    return Scene(scene_id=scene_id, vehicles=vehicles)


@dataclass
class Dataset:
    cfr: np.ndarray        # complex128 [n, M, K]
    coords: np.ndarray     # float64 [n, 3]
    labels: np.ndarray     # uint8 [n]
    scene_ids: np.ndarray  # int64 [n]
    grid_ids: np.ndarray   # int64 [n]
    manifest: dict


def generate_dataset(scenario, n_scenes, seed):
    """All links of all scenes, emitted in (scene_id, grid index) order.

    Links with zero surviving paths are dropped and recorded in the
    manifest.  Output is a pure function of (scenario, n_scenes, seed).
    """
    if n_scenes < 1:
        raise ValueError("need at least one scene")
    cfrs, coords, labels, scene_ids, grid_ids, dropped = [], [], [], [], [], []
    for t in range(n_scenes):
        scene = make_scene(scenario, seed, t, n_scenes)
        for l, ue in enumerate(scenario.ue_grid):
            n_keep = scenario.max_paths
            if scenario.min_paths is not None:
                link_rng = np.random.default_rng([int(seed), t, l])
                n_keep = int(link_rng.integers(scenario.min_paths,
                                               scenario.max_paths + 1))
            try:
                mpcs, label = trace_paths(scenario, scene, ue, n_keep=n_keep)
            except EmptyLink:
                dropped.append([t, l])
                continue
            h = synth_cfr(mpcs, scenario)
            if scenario.noise_snr_db is not None:
                noise_rng = np.random.default_rng([int(seed), t, l, 7])
                h = _add_noise(h, scenario.noise_snr_db, noise_rng)
            cfrs.append(h)
            coords.append(ue)
            labels.append(label)
            scene_ids.append(t)
            grid_ids.append(l)

    cfr = np.stack(cfrs) if cfrs else np.zeros((0, scenario.array.size,
                                                scenario.n_subcarriers), complex)
    manifest = {
        "scenario": scenario.to_dict(),
        "n_scenes": int(n_scenes),
        "seed": int(seed),
        "n_samples": len(coords),
        "dropped": dropped,
        "scene_of_sample": [int(s) for s in scene_ids],
        "grid_of_sample": [int(g) for g in grid_ids],
        "cfr_shape": [len(coords), scenario.array.size, scenario.n_subcarriers],
        "cfr_dtype": "complex64 (interleaved re/im float32)",
        "byte_order": "little-endian",
        "layout": "[sample][antenna][subcarrier]; antennas iy-major, iz-minor",
    }
    return Dataset(cfr=cfr,
                   coords=np.asarray(coords, float).reshape(-1, 3),
                   labels=np.asarray(labels, np.uint8),
                   scene_ids=np.asarray(scene_ids, np.int64),
                   grid_ids=np.asarray(grid_ids, np.int64),
                   manifest=manifest)


def _add_noise(h, snr_db, rng):
    sig_power = np.mean(np.abs(h) ** 2)
    noise_power = sig_power * 10.0 ** (-snr_db / 10.0)
    scale = np.sqrt(noise_power / 2.0)
    return h + scale * (rng.standard_normal(h.shape)
                        + 1j * rng.standard_normal(h.shape))


# ----------------------------------------------------------------------
# ready-made street-canyon layouts
# ----------------------------------------------------------------------

def rectangular_grid(x_min, x_max, n_x, y_values, z=1.5):
    """UE grid: n_x points per row at each y in y_values, row-major."""
    xs = np.linspace(x_min, x_max, n_x)
    pts = [(x, y, z) for y in y_values for x in xs]
    return np.asarray(pts, float)


def desk_scenario(array=None, n_subcarriers=32, grid_points=200,
                  traffic_drift=3.0, min_paths=None, max_paths=12):
    """Small street canyon sized to train on a single CPU core in minutes.

    200 sidewalk grid points, two building rows forming the canyon, a
    mid-street kiosk casting static shadows, four traffic lanes whose
    density drifts upward across scenes (a real source-to-target shift).
    """
    array = array or ArrayGeometry(4, 4)
    n_x = grid_points // 2
    grid = rectangular_grid(-19.8, 19.8, n_x, y_values=(5.5, 6.5), z=1.5)
    spacing = (19.8 * 2) / (n_x - 1)
    buildings = [
        Box((-25.0, -20.0, 0.0), (25.0, -8.0, 18.0)),   # near-side row
        Box((-25.0, 8.0, 0.0), (25.0, 20.0, 18.0)),     # far-side row
        Box((2.0, -1.0, 0.0), (8.0, 2.5, 6.0)),          # mid-street kiosk
        Box((-25.0, -20.0, -0.5), (25.0, 20.0, 0.0)),    # ground slab
    ]
    lanes = [Lane(y_center=yc, x_min=-22.0, x_max=22.0, density=0.05,
                  truck_fraction=0.45) for yc in (-3.0, -1.0, 1.0, 3.0)]
    return Scenario(
        bs_position=(-15.0, -7.5, 6.0),
        array=array,
        carrier_freq=3.5e9,
        bandwidth=100e6,
        n_subcarriers=n_subcarriers,
        ue_grid=grid,
        grid_spacing=spacing,
        buildings=buildings,
        lanes=lanes,
        max_paths=max_paths,
        min_paths=min_paths,
        traffic_drift=traffic_drift,
    )


def full_scale_scenario():
    """Full-size configuration: 8x8 array, 64 subcarriers, 0.8 m grid."""
    array = ArrayGeometry(8, 8)
    grid = rectangular_grid(-40.0, 40.0, 101, y_values=(5.4, 6.2), z=1.5)
    sc = desk_scenario(array=array, n_subcarriers=64, max_paths=25)
    return Scenario(
        bs_position=sc.bs_position, array=array, carrier_freq=3.5e9,
        bandwidth=100e6, n_subcarriers=64, ue_grid=grid, grid_spacing=0.8,
        buildings=[Box((-45, -20, 0), (45, -8, 18)),
                   Box((-45, 8, 0), (45, 20, 18)),
                   Box((2.0, -1.0, 0.0), (8.0, 2.5, 6.0)),
                   Box((-45, -20, -0.5), (45, 20, 0.0))],
        lanes=[Lane(y_center=yc, x_min=-42.0, x_max=42.0, density=0.05,
                    truck_fraction=0.45) for yc in (-3.0, -1.0, 1.0, 3.0)],
        max_paths=25, traffic_drift=1.5)
