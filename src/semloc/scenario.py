"""Street-canyon scene synthesis: geometry, first-order ray paths, CFR.

A scenario is a static street layout (BS, UE grid, buildings, traffic
lanes); a scene is one snapshot of vehicles, the list of boxes
`make_scene` returns.  The tracer reads only a scenario, a UE grid and
one scene's vehicles; a scenario has no `grid_spacing`, and files that
carry one still load.  Links get a
direct path plus one single-bounce specular reflection (image method)
per building or vehicle face that both ends see from outside, each kept
only if unobstructed; the strongest `max_paths` survive.  The buildings'
part of a trace is static: their faces' specular points for every grid
point, and which direct paths and reflection legs they block, are found
once per dataset in array passes over all grid points.  Each scene then
adds only its vehicles: their faces' specular points, their hits on the
static segments near them, and every box's hits on the legs of their
reflections.  The propagation-condition label distinguishes
a clear direct path (LOS), a direct path blocked only by vehicles (DNLOS)
and one blocked by any building (SNLOS).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299792458.0

LOS, DNLOS, SNLOS = 0, 1, 2
LABEL_NAMES = {LOS: "LOS", DNLOS: "DNLOS", SNLOS: "SNLOS"}

_SEG_EPS = 1e-9  # open-interval margin: endpoint touches do not count as hits
# widening (meters) of the vehicles' union box in the tracer's cull; the cull
# is exact without it (see segments_hit_boxes), so it only adds slack
_CULL_MARGIN = 1e-6


class EmptyLink(Exception):
    """A link with no surviving path (full blockage) reached `synth_cfr`."""


# Python numbers only, as JSON holds them (np.float64 is a float)
def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and bool(np.isfinite(v)))


def _fields_of(cls, d, what, optional=None):
    """The JSON object `d` as keyword arguments of dataclass `cls`: it holds
    every field but those in `optional` (default: the fields with a
    default) and no other key."""
    if not isinstance(d, dict):
        raise TypeError(f"{what} must be a JSON object, not "
                        f"{type(d).__name__}")
    if optional is None:
        optional = [f.name for f in fields(cls) if f.default is not MISSING
                    or f.default_factory is not MISSING]
    names = [f.name for f in fields(cls)]
    problems = [f"unknown key {k!r}" for k in sorted(set(d) - set(names))]
    problems += [f"missing key {n!r}" for n in names
                 if n not in d and n not in optional]
    if problems:
        raise ValueError(f"{what}: {', '.join(problems)}")
    return dict(d)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array; elements indexed (iy, iz), flattened iy-major."""

    m_y: int
    m_z: int
    spacing: float = 0.5  # in wavelengths

    def __post_init__(self):
        if not (all(_is_int(n) and n >= 1 for n in (self.m_y, self.m_z))
                and _is_finite_number(self.spacing) and self.spacing > 0):
            raise ValueError(f"an array needs integer m_y, m_z >= 1 and a "
                             f"finite spacing > 0, not {self}")

    @property
    def size(self):
        return self.m_y * self.m_z


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, corners in meters."""

    lo: tuple
    hi: tuple


@dataclass(frozen=True)
class Lane:
    """A straight traffic lane along the x axis."""

    y_center: float
    x_min: float
    x_max: float
    density: float = 0.08        # expected vehicles per meter of lane
    truck_fraction: float = 0.35


# the Scenario keys a file may lack; every other field is required
_OPTIONAL_KEYS = ("min_paths", "reflection_coeff", "traffic_drift",
                  "noise_snr_db")

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
        if not np.isfinite(self.ue_grid).all():
            raise ValueError("ue_grid must hold finite coordinates")
        for box in self.buildings:
            if not (all(len(c) == 3 and all(map(_is_finite_number, c))
                        for c in (box.lo, box.hi))
                    and all(l <= h for l, h in zip(box.lo, box.hi))):
                raise ValueError(f"a building needs 3 finite numbers in each "
                                 f"of lo and hi, with lo <= hi, not {box}")
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
        if (self.ue_grid == np.asarray(self.bs_position, float)).all(1).any():
            raise ValueError("a ue_grid point lies at bs_position, where its "
                             "direct path would have length 0")
        for lane in self.lanes:
            if not (_is_finite_number(lane.density) and lane.density >= 0
                    and all(map(_is_finite_number, (lane.y_center, lane.x_min,
                                                    lane.x_max)))
                    and lane.x_min <= lane.x_max
                    and _is_finite_number(lane.truck_fraction)
                    and 0 <= lane.truck_fraction <= 1):
                raise ValueError(f"a lane needs a finite density >= 0, finite "
                                 f"y_center and x_min <= x_max, and a "
                                 f"truck_fraction in [0, 1], not {lane}")
        # density scales by 1 + drift * frac, frac in [0, 1]
        if not (_is_finite_number(self.traffic_drift)
                and self.traffic_drift >= -1):
            raise ValueError(f"traffic_drift must be finite and >= -1, not "
                             f"{self.traffic_drift!r}")
        if not (_is_finite_number(self.reflection_coeff)
                and self.reflection_coeff >= 0):
            raise ValueError(f"reflection_coeff must be finite and "
                             f"nonnegative, not {self.reflection_coeff!r}")
        if not (self.noise_snr_db is None
                or _is_finite_number(self.noise_snr_db)):
            raise ValueError(f"noise_snr_db must be a finite number or null, "
                             f"not {self.noise_snr_db!r}")
        if not (all(map(_is_finite_number, (self.carrier_freq,
                                             self.bandwidth)))
                and self.carrier_freq > self.bandwidth > 0):
            raise ValueError(f"require finite carrier_freq > bandwidth > 0, "
                             f"not {self.carrier_freq!r}, {self.bandwidth!r}")

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_freq

    def subcarrier_freqs(self):
        fc, b = self.carrier_freq, self.bandwidth
        return np.linspace(fc - b / 2.0, fc + b / 2.0, self.n_subcarriers)

    # -- JSON round trip -------------------------------------------------
    def to_dict(self):
        return {**asdict(self), "ue_grid": self.ue_grid.tolist()}

    @classmethod
    def from_dict(cls, d):
        """The scenario `to_dict` wrote.  An unknown key is an error; only
        the keys older files may lack (`_OPTIONAL_KEYS`) take the field's
        default, and the `grid_spacing` older files carry, which nothing
        read, is dropped."""
        if isinstance(d, dict):
            d = {k: v for k, v in d.items() if k != "grid_spacing"}
        kw = _fields_of(cls, d, "scenario", _OPTIONAL_KEYS)
        kw["bs_position"] = tuple(kw["bs_position"])
        kw["array"] = ArrayGeometry(**_fields_of(ArrayGeometry, kw["array"],
                                                 "array"))
        kw["buildings"] = [
            Box(**{k: tuple(v) for k, v in _fields_of(Box, b, "building")
                   .items()}) for b in kw["buildings"]]
        kw["lanes"] = [Lane(**_fields_of(Lane, l, "lane"))
                       for l in kw["lanes"]]
        return cls(**kw)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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


def synth_cfr(paths, scenario, counts, out=None):
    """Channel matrices H [n, M, K], one per link: column k of link i is
    sum_p gain_p a_p exp(-2j pi f_k tau_p) over that link's paths.

    `paths` holds n links' paths link-major, as the tracer returns them,
    and `counts` (int [n]) the paths of each link; a count of 0 raises
    EmptyLink.  Every steering vector and phase is computed in one pass,
    then one [M, P] @ [P, K] matmul runs per link, so each link's bytes
    equal those of a call on that link alone.  Each matmul writes straight
    into its link's row of `out` ([n, M, K] complex, e.g. a dataset's
    rows), which is allocated when not given.
    """
    sizes = np.asarray(counts)
    if not sizes.all():
        raise EmptyLink("cannot synthesize CFR from an empty path set")
    if sizes.sum() != len(paths):
        raise ValueError(f"counts sum to {sizes.sum()}, not {len(paths)}")
    a_mat = steering_vector(paths.azimuths, paths.elevations,
                            scenario.array)                    # [M, P]
    a_mat *= paths.gains[None, :]
    freqs = scenario.subcarrier_freqs()
    phases = np.exp(-2j * np.pi * np.outer(paths.delays, freqs))  # [P, K]
    if out is None:
        out = np.empty((len(sizes), scenario.array.size,
                        scenario.n_subcarriers), complex)
    ends = np.cumsum(sizes)
    for h, a, b in zip(out, ends - sizes, ends):
        np.matmul(a_mat[:, a:b], phases[a:b], out=h)
    return out


# ----------------------------------------------------------------------
# segment / box intersection (slab method, vectorized)
# ----------------------------------------------------------------------

def segments_hit_boxes(p0, p1, boxes_lo, boxes_hi):
    """Boolean [S, B]: does the open segment interior enter each box?

    p0, p1: [S, 3] endpoints.  Endpoint touches and face grazes are not
    counted as hits (open parameter interval with a small margin).  Each
    (segment, box) entry is computed on its own, so a subset of rows or
    boxes gives the same entries.  A segment whose bounding box misses a
    box on some axis is never a hit, even after rounding: rounding is
    monotone, so that axis's slab parameters both come out >= 1 or both
    < 0.
    """
    p0 = np.atleast_2d(np.asarray(p0, float))
    p1 = np.atleast_2d(np.asarray(p1, float))
    d = p1 - p0
    enter = np.full((len(p0), len(boxes_lo)), _SEG_EPS)
    leave = np.full_like(enter, 1.0 - _SEG_EPS)
    # one slab at a time, in three [S, B] buffers reused across axes: the
    # lo-plane parameter goes in `near`, which its min with the hi-plane
    # parameter `t1` then overwrites
    near, far, t1 = (np.empty_like(enter) for _ in range(3))
    for a in range(3):
        o, da = p0[:, a, None], d[:, a, None]
        lo, hi = boxes_lo[:, a], boxes_hi[:, a]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.subtract(lo, o, out=near), da, out=near)
            np.divide(np.subtract(hi, o, out=t1), da, out=t1)
        np.maximum(near, t1, out=far)
        np.minimum(near, t1, out=near)
        # a segment with no extent on this axis (rare): inside the slab
        # iff its origin lies within [lo, hi]
        zero = np.flatnonzero(da[:, 0] == 0.0)
        if len(zero):
            inside = (o[zero] >= lo) & (o[zero] <= hi)
            near[zero] = np.where(inside, -np.inf, np.inf)
            far[zero] = np.where(inside, np.inf, -np.inf)
        np.maximum(enter, near, out=enter)
        np.minimum(leave, far, out=leave)
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
    """Image-method reflection points for UE positions `ue` [L, 3].

    Returns the points [R, 3], one per valid box face and UE, and the UE
    index [R] of each.  A face is valid when BS and UE both lie strictly
    on its outer side and the specular point falls inside the face.  Rows
    come in (UE, box, axis, lo face then hi face) order.  Each row is
    computed from its own face alone, so the tracer calls this once for
    the buildings and once per scene for the vehicles, and a stable sort
    by UE interleaves the two into the order of one call on both.
    """
    plane = np.stack([boxes_lo, boxes_hi], axis=-1)     # [B, axis, face]
    sign = np.array([-1.0, 1.0])
    # the faces facing the BS, in C order of [B, axis, face]; then only
    # candidates facing both ends, in C order of [L, B, axis, face]
    box, axis, face = np.nonzero(sign * (bs[:, None] - plane) > 1e-9)
    plane = plane[box, axis, face]
    link, k = np.nonzero(sign[face] * (ue[:, axis] - plane) > 1e-9)
    box, axis, plane = box[k], axis[k], plane[k]
    # the BS mirrored in each face plane
    mirrored = 2.0 * plane - bs[axis]
    on_axis = axis[:, None] == np.arange(3)              # [R, coord]
    img = np.where(on_axis, mirrored[:, None], bs)
    d = ue[link] - img
    d_axis = d[np.arange(len(axis)), axis]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (plane - mirrored) / d_axis
        q = img + t[:, None] * d
    in_face = ((boxes_lo[box] - 1e-9 <= q) & (q <= boxes_hi[box] + 1e-9)) \
        | on_axis
    valid = ((np.abs(d_axis) >= 1e-12) & (0.0 < t) & (t < 1.0)
             & in_face.all(axis=-1))
    return q[valid], link[valid]


class _StaticTrace(NamedTuple):
    """The vehicle-free part of a grid trace, shared by every scene.

    Segments are the direct paths [L], then the BS -> q legs [R], then the
    q -> UE legs [R] of the buildings' R specular points `q`.
    """

    lo: np.ndarray          # buildings' corners [B, 3]
    hi: np.ndarray
    q: np.ndarray           # buildings' specular points [R, 3]
    q_link: np.ndarray      # UE index of each [R]
    p0: np.ndarray          # segment ends [L + 2R, 3]
    p1: np.ndarray
    seg_lo: np.ndarray      # segment bounding boxes [L + 2R, 3]
    seg_hi: np.ndarray
    blocked: np.ndarray     # does a building block each segment? [L + 2R]


def _static_trace(scenario, grid):
    """What `trace_paths` needs of the buildings for the UE grid [L, 3]:
    their specular points and which direct paths and bounce legs they
    block (one `segments_hit_boxes` call, reduced to "any hit")."""
    bs = np.asarray(scenario.bs_position, float)
    lo, hi = _boxes_to_arrays(scenario.buildings)
    q, q_link = _specular_points(bs, grid, lo, hi)
    p0 = np.concatenate([np.broadcast_to(bs, grid.shape),
                         np.broadcast_to(bs, q.shape), q])
    p1 = np.concatenate([grid, q, grid[q_link]])
    return _StaticTrace(lo, hi, q, q_link, p0, p1, np.minimum(p0, p1),
                        np.maximum(p0, p1),
                        segments_hit_boxes(p0, p1, lo, hi).any(axis=1))


def trace_paths(scenario, vehicles, grid, n_keep=None, static=None):
    """Direct path + single-bounce reflections from the BS to each point of
    the UE grid [L, 3], with the scene's `vehicles` (a list of Box).

    `n_keep` (default scenario.max_paths) is an int or one int per grid
    point, and truncates each link to its strongest n paths, kept in
    emission order: the direct path, then reflections by box (buildings,
    then vehicles), axis and face.  Returns (paths, counts, labels): one
    MpcSet of every kept path, link-major, the int [L] paths kept per link
    (0 where no path survives) and the [L] labels.

    The buildings' part of the trace does not depend on the scene:
    `static` is `_static_trace(scenario, grid)`, computed here when not
    given, so that `generate_dataset` computes it once for all its scenes.
    The scene adds its vehicles: their specular points, their hits on the
    static segments no building blocks, and every box's hits on their
    bounce legs.  The result does not depend on whether `static` was
    passed.
    """
    bs = np.asarray(scenario.bs_position, float)
    grid = np.asarray(grid, float)
    if grid.ndim != 2 or grid.shape[1] != 3:
        raise ValueError(f"grid must be [L, 3], not {list(grid.shape)}")
    n_links = len(grid)
    n_keep = scenario.max_paths if n_keep is None else n_keep
    if not (np.ndim(n_keep) == 0 or np.shape(n_keep) == (n_links,)):
        raise ValueError(f"n_keep must be an int or {n_links} ints, not "
                         f"shape {list(np.shape(n_keep))}")
    n_keep = np.broadcast_to(n_keep, n_links)
    if not (np.issubdtype(n_keep.dtype, np.integer) and (n_keep >= 1).all()):
        raise ValueError(f"n_keep must hold integers >= 1, not {n_keep}")
    lam = scenario.wavelength
    if static is None:
        static = _static_trace(scenario, grid)
    r = len(static.q)

    # the vehicles' hits on the static segments no building blocks (a
    # building's block already sets their label or drops their bounce),
    # tested only where a segment's bounding box meets the vehicles' union
    # box, widened by _CULL_MARGIN: a segment whose bounding box misses the
    # union box misses each vehicle's box on some axis, so it cannot hit it
    # (see `segments_hit_boxes`) and the cull drops no hit
    veh_lo, veh_hi = _boxes_to_arrays(vehicles)
    blocked_by_veh = np.zeros_like(static.blocked)
    if len(vehicles):
        near = np.flatnonzero(
            ((static.seg_lo <= veh_hi.max(axis=0) + _CULL_MARGIN)
             & (static.seg_hi >= veh_lo.min(axis=0) - _CULL_MARGIN))
            .all(axis=1) & ~static.blocked)
        blocked_by_veh[near] = segments_hit_boxes(
            static.p0[near], static.p1[near], veh_lo, veh_hi).any(axis=1)
    # the vehicles' own bounces, both legs against every box
    q_veh, link_veh = _specular_points(bs, grid, veh_lo, veh_hi)
    rv = len(q_veh)
    hits = segments_hit_boxes(
        np.concatenate([np.broadcast_to(bs, q_veh.shape), q_veh]),
        np.concatenate([q_veh, grid[link_veh]]),
        np.concatenate([static.lo, veh_lo]),
        np.concatenate([static.hi, veh_hi])).any(axis=1)
    clear_veh = ~(hits[:rv] | hits[rv:])
    labels = np.where(static.blocked[:n_links], SNLOS,
                      np.where(blocked_by_veh[:n_links], DNLOS, LOS))
    blocked = static.blocked | blocked_by_veh
    clear = ~(blocked[n_links:n_links + r] | blocked[n_links + r:])

    # the direct path is a "reflection" at the UE itself, emitted first;
    # within a link, the stable sort keeps the building bounces before the
    # vehicle bounces, each in (box, axis, face) order
    los = np.flatnonzero(labels == LOS)
    link = np.concatenate([los, static.q_link[clear], link_veh[clear_veh]])
    emit = np.argsort(link, kind="stable")
    link = link[emit]
    points = np.concatenate([grid[los], static.q[clear],
                             q_veh[clear_veh]])[emit]
    bounced = emit >= len(los)

    dirs = points - bs
    first_leg = _norms(dirs)
    lengths = first_leg + _norms(grid[link] - points)
    gains = lam / (4.0 * np.pi * lengths) * np.exp(-2j * np.pi * lengths / lam)
    gains[bounced] *= scenario.reflection_coeff
    unit = dirs / first_leg[:, None]
    elevations = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
    azimuths = np.arctan2(unit[:, 1], unit[:, 0])
    delays = lengths / SPEED_OF_LIGHT

    # keep each link's strongest paths (stable order for determinism), then
    # restore emission order among the survivors; `link` is sorted, so the
    # i-th entry of `strongest` is the rank[i]-th strongest of link[i]
    counts = np.bincount(link, minlength=n_links)
    rank = np.arange(len(link)) - (np.cumsum(counts) - counts)[link]
    strongest = np.lexsort((-np.abs(gains), link))
    keep = np.sort(strongest[rank < n_keep[link]])
    kept = np.bincount(link[keep], minlength=n_links)
    paths = MpcSet(gains[keep], azimuths[keep], elevations[keep], delays[keep])
    return paths, kept, labels


# ----------------------------------------------------------------------
# scene and dataset generation
# ----------------------------------------------------------------------

def make_scene(scenario, seed, scene_id, n_scenes):
    """The vehicles (a list of Box) of one scene, a pure function of
    (scenario, seed, id).

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
    return vehicles


@dataclass
class Dataset:
    # [n, M, K]: complex128 when generated, complex64 when loaded from
    # cfr.bin; the fingerprint pipeline widens one row block at a time
    cfr: np.ndarray
    coords: np.ndarray     # float64 [n, 3]
    labels: np.ndarray     # uint8 [n]
    scene_ids: np.ndarray  # int64 [n]
    grid_ids: np.ndarray   # int64 [n]
    manifest: dict


def generate_dataset(scenario, n_scenes, seed):
    """All links of all scenes, emitted in (scene_id, grid index) order.

    The buildings' part of the grid trace (`_static_trace`) is computed
    once; then each scene is traced once with it, so a scene pays only
    for its vehicles.  Links with a zero path count are dropped and
    recorded in the manifest, and the kept links' ids and labels are read
    from the stacked [n_scenes, L] counts.  Output is a pure function of
    (scenario, n_scenes, seed).
    """
    if n_scenes < 1:
        raise ValueError("need at least one scene")
    # trace every scene first (one MpcSet each), then write each scene's
    # CFRs straight into the one preallocated array
    grid = scenario.ue_grid
    static = _static_trace(scenario, grid)
    traced = []
    for t in range(n_scenes):
        vehicles = make_scene(scenario, seed, t, n_scenes)
        n_keep = scenario.max_paths
        if scenario.min_paths is not None:
            n_keep = [int(np.random.default_rng([int(seed), t, l]).integers(
                scenario.min_paths, scenario.max_paths + 1))
                for l in range(len(grid))]
        traced.append(trace_paths(scenario, vehicles, grid, n_keep, static))
    paths, counts, labels = zip(*traced)
    kept = np.stack(counts) > 0                          # [n_scenes, L]
    scene_ids, grid_ids = np.nonzero(kept)
    dropped = np.argwhere(~kept).tolist()
    labels = np.stack(labels)[kept].astype(np.uint8)

    cfr = np.empty((len(labels), scenario.array.size, scenario.n_subcarriers),
                   complex)
    i = 0
    for scene_paths, c in zip(paths, counts):
        c = c[c > 0]
        if len(c):
            synth_cfr(scene_paths, scenario, c, out=cfr[i:i + len(c)])
            i += len(c)
    if scenario.noise_snr_db is not None:
        for h, t, l in zip(cfr, scene_ids.tolist(), grid_ids.tolist()):
            noise_rng = np.random.default_rng([int(seed), t, l, 7])
            _add_noise(h, scenario.noise_snr_db, noise_rng)
    manifest = {
        "scenario": scenario.to_dict(),
        "n_scenes": int(n_scenes),
        "seed": int(seed),
        "n_samples": len(labels),
        "dropped": dropped,
        "scene_of_sample": scene_ids.tolist(),
        "grid_of_sample": grid_ids.tolist(),
        "cfr_shape": list(cfr.shape),
        "cfr_dtype": "complex64 (interleaved re/im float32)",
        "byte_order": "little-endian",
        "layout": "[sample][antenna][subcarrier]; antennas iy-major, iz-minor",
    }
    return Dataset(cfr=cfr,
                   coords=grid[grid_ids],
                   labels=labels, scene_ids=scene_ids, grid_ids=grid_ids,
                   manifest=manifest)


def _add_noise(h, snr_db, rng):
    """Add complex white Gaussian noise `snr_db` below h's mean power, in
    place."""
    sig_power = np.mean(np.abs(h) ** 2)
    noise_power = sig_power * 10.0 ** (-snr_db / 10.0)
    scale = np.sqrt(noise_power / 2.0)
    h += scale * (rng.standard_normal(h.shape)
                  + 1j * rng.standard_normal(h.shape))


# ----------------------------------------------------------------------
# ready-made street-canyon layouts
# ----------------------------------------------------------------------

def rectangular_grid(x_min, x_max, n_x, y_values, z=1.5):
    """UE grid: n_x points per row at each y in y_values, row-major."""
    xs = np.linspace(x_min, x_max, n_x)
    pts = [(x, y, z) for y in y_values for x in xs]
    return np.asarray(pts, float)


_BS_POSITION = (-15.0, -7.5, 6.0)  # shared by the desk and full-scale layouts


def desk_scenario(grid_points=200, min_paths=None, max_paths=12):
    """Small street canyon sized to train on a single CPU core in minutes.

    200 sidewalk grid points, two building rows forming the canyon, a
    mid-street kiosk casting static shadows, four traffic lanes whose
    density drifts upward across scenes (a real source-to-target shift).
    """
    n_x = grid_points // 2
    grid = rectangular_grid(-19.8, 19.8, n_x, y_values=(5.5, 6.5), z=1.5)
    buildings = [
        Box((-25.0, -20.0, 0.0), (25.0, -8.0, 18.0)),   # near-side row
        Box((-25.0, 8.0, 0.0), (25.0, 20.0, 18.0)),     # far-side row
        Box((2.0, -1.0, 0.0), (8.0, 2.5, 6.0)),          # mid-street kiosk
        Box((-25.0, -20.0, -0.5), (25.0, 20.0, 0.0)),    # ground slab
    ]
    lanes = [Lane(y_center=yc, x_min=-22.0, x_max=22.0, density=0.05,
                  truck_fraction=0.45) for yc in (-3.0, -1.0, 1.0, 3.0)]
    return Scenario(
        bs_position=_BS_POSITION,
        array=ArrayGeometry(4, 4),
        carrier_freq=3.5e9,
        bandwidth=100e6,
        n_subcarriers=32,
        ue_grid=grid,
        buildings=buildings,
        lanes=lanes,
        max_paths=max_paths,
        min_paths=min_paths,
        traffic_drift=3.0,
    )


def full_scale_scenario():
    """Full-size configuration: 8x8 array, 64 subcarriers, 0.8 m grid."""
    grid = rectangular_grid(-40.0, 40.0, 101, y_values=(5.4, 6.2), z=1.5)
    return Scenario(
        bs_position=_BS_POSITION, array=ArrayGeometry(8, 8),
        carrier_freq=3.5e9, bandwidth=100e6, n_subcarriers=64,
        ue_grid=grid,
        buildings=[Box((-45, -20, 0), (45, -8, 18)),
                   Box((-45, 8, 0), (45, 20, 18)),
                   Box((2.0, -1.0, 0.0), (8.0, 2.5, 6.0)),
                   Box((-45, -20, -0.5), (45, 20, 0.0))],
        lanes=[Lane(y_center=yc, x_min=-42.0, x_max=42.0, density=0.05,
                    truck_fraction=0.45) for yc in (-3.0, -1.0, 1.0, 3.0)],
        max_paths=25, traffic_drift=1.5)
