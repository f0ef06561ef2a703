"""Tests for the street-canyon channel simulator.

Geometry predicates are checked against a dense-sampling oracle, CFR
synthesis against an explicit per-element loop, and dataset generation
for determinism and semantic-label correctness.
"""

import contextlib
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semloc import scenario as S
from semloc.scenario import (DNLOS, LOS, SNLOS, SPEED_OF_LIGHT, ArrayGeometry,
                             Box, EmptyLink, Lane, MpcSet, Scenario, Scene,
                             desk_scenario, generate_dataset, make_scene,
                             segments_hit_boxes, steering_vector, synth_cfr,
                             trace_paths)

# the array tracer divides by zero-length axes on purpose; those divisions
# must stay inside np.errstate
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# ----------------------------------------------------------------------
# steering vectors and CFR synthesis
# ----------------------------------------------------------------------

def test_steering_boresight_is_all_ones():
    a = steering_vector(0.0, np.pi / 2, ArrayGeometry(4, 4))
    np.testing.assert_allclose(a, np.ones(16), atol=1e-15)


def test_steering_two_element_endfire():
    # m_y=2: phase difference pi*sin(el)*sin(az); at el=pi/2, az=pi/2 -> pi
    a = steering_vector(np.pi / 2, np.pi / 2, ArrayGeometry(2, 1))
    np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)


def test_steering_flattening_is_iy_major():
    # elevation 0 puts all phase on the iz axis: elements alternate with iz
    a = steering_vector(0.3, 0.0, ArrayGeometry(2, 2))
    np.testing.assert_allclose(a, [1.0, -1.0, 1.0, -1.0], atol=1e-12)


def test_steering_unit_modulus():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = steering_vector(rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi),
                            ArrayGeometry(3, 5))
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)


def test_steering_angle_arrays_stack_scalar_columns():
    rng = np.random.default_rng(1)
    arr = ArrayGeometry(3, 5)
    az, el = rng.uniform(-np.pi, np.pi, 7), rng.uniform(0, np.pi, 7)
    a = steering_vector(az, el, arr)
    assert a.shape == (15, 7)
    want = np.stack([steering_vector(p, q, arr) for p, q in zip(az, el)],
                    axis=1)
    assert np.array_equal(a, want)


def _tiny_scenario(**kw):
    defaults = dict(
        bs_position=(0.0, 0.0, 5.0), array=ArrayGeometry(2, 2),
        carrier_freq=3.5e9, bandwidth=100e6, n_subcarriers=8,
        ue_grid=np.array([[10.0, 0.0, 1.5]]), grid_spacing=1.0)
    defaults.update(kw)
    return Scenario(**defaults)


def test_synth_cfr_matches_elementwise_oracle():
    sc = _tiny_scenario()
    rng = np.random.default_rng(3)
    P = 3
    mpcs = MpcSet(gains=rng.normal(size=P) + 1j * rng.normal(size=P),
                  azimuths=rng.uniform(-np.pi, np.pi, P),
                  elevations=rng.uniform(0, np.pi, P),
                  delays=rng.uniform(1e-8, 1e-7, P))
    H = synth_cfr(mpcs, sc)
    freqs = sc.subcarrier_freqs()
    M = sc.array.size
    want = np.zeros((M, sc.n_subcarriers), complex)
    for p in range(P):
        a = steering_vector(mpcs.azimuths[p], mpcs.elevations[p], sc.array)
        for k in range(sc.n_subcarriers):
            want[:, k] += (mpcs.gains[p] * a
                           * np.exp(-2j * np.pi * freqs[p * 0 + k]
                                    * mpcs.delays[p]))
    np.testing.assert_allclose(H, want, atol=1e-12)


def test_subcarrier_grid_spans_bandwidth():
    sc = _tiny_scenario()
    f = sc.subcarrier_freqs()
    assert f[0] == sc.carrier_freq - sc.bandwidth / 2
    assert f[-1] == sc.carrier_freq + sc.bandwidth / 2
    np.testing.assert_allclose(np.diff(f), f[1] - f[0], atol=1e-6)


def test_synth_cfr_empty_path_set_raises():
    sc = _tiny_scenario()
    empty = MpcSet(np.zeros(0, complex), np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(EmptyLink):
        synth_cfr(empty, sc)


def _split_links(paths, counts):
    """One MpcSet per link of the grid tracer's link-major `paths`."""
    ends = np.cumsum(counts)
    return [MpcSet(paths.gains[a:b], paths.azimuths[a:b],
                   paths.elevations[a:b], paths.delays[a:b])
            for a, b in zip(ends - counts, ends)]


@pytest.mark.parametrize("make", [desk_scenario, S.full_scale_scenario])
def test_synth_cfr_scene_form_equals_one_link_calls(make):
    sc = make()
    paths, counts, _ = trace_paths(sc, make_scene(sc, 1, 3, 8), sc.ue_grid)
    assert counts.sum() == len(paths)
    counts = counts[counts > 0]
    assert len(counts) > 100 and len(set(counts.tolist())) > 1
    got = synth_cfr(paths, sc, counts)
    want = np.stack([synth_cfr(m, sc) for m in _split_links(paths, counts)])
    assert got.shape == (len(counts), sc.array.size, sc.n_subcarriers)
    assert got.tobytes() == want.tobytes()


def test_synth_cfr_scene_form_with_an_empty_link_raises():
    sc = _tiny_scenario()
    link, (n,), _ = trace_paths(sc, Scene(0, []), sc.ue_grid)
    assert n == len(link) > 0
    twice = MpcSet(*(np.tile(getattr(link, name), 2) for name in
                     ("gains", "azimuths", "elevations", "delays")))
    with pytest.raises(EmptyLink):
        synth_cfr(twice, sc, [n, 0, n])
    with pytest.raises(ValueError):  # counts must cover every path
        synth_cfr(twice, sc, [n])


# ----------------------------------------------------------------------
# segment / box intersection
# ----------------------------------------------------------------------

def _hit_oracle(p0, p1, lo, hi, n=4001):
    """Dense sampling of the open segment interior."""
    t = np.linspace(1e-4, 1.0 - 1e-4, n)[:, None]
    pts = p0[None, :] + t * (p1 - p0)[None, :]
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    return bool(inside.any())


def test_segment_box_hits_match_dense_sampling():
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(300):
        p0 = rng.uniform(-5, 5, 3)
        p1 = rng.uniform(-5, 5, 3)
        lo = rng.uniform(-4, 2, 3)
        hi = lo + rng.uniform(0.5, 4, 3)
        got = bool(segments_hit_boxes(p0, p1, lo[None], hi[None])[0, 0])
        want = _hit_oracle(p0, p1, lo, hi)
        if got != want:
            mismatches += 1
    assert mismatches == 0


def test_segment_endpoint_on_face_is_not_a_hit():
    lo, hi = np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 1.0, 1.0]])
    p0 = np.array([-1.0, 0.5, 0.5])
    q = np.array([0.0, 0.5, 0.5])     # exactly on the x=0 face
    assert not segments_hit_boxes(p0, q, lo, hi)[0, 0]
    assert segments_hit_boxes(p0, np.array([0.5, 0.5, 0.5]), lo, hi)[0, 0]


def test_segment_parallel_to_slab_axis():
    lo, hi = np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 1.0, 1.0]])
    # runs parallel to x inside the box slab in y but outside in z
    p0, p1 = np.array([-2.0, 0.5, 2.0]), np.array([2.0, 0.5, 2.0])
    assert not segments_hit_boxes(p0, p1, lo, hi)[0, 0]
    p0, p1 = np.array([-2.0, 0.5, 0.5]), np.array([2.0, 0.5, 0.5])
    assert segments_hit_boxes(p0, p1, lo, hi)[0, 0]


# ----------------------------------------------------------------------
# the geometry kernels against their earlier forms
# ----------------------------------------------------------------------

def _where_hits_oracle(p0, p1, boxes_lo, boxes_hi):
    """segments_hit_boxes as first vectorized: every slab bound goes
    through nested np.where on the zero-direction mask."""
    p0 = np.atleast_2d(np.asarray(p0, float))
    p1 = np.atleast_2d(np.asarray(p1, float))
    d = p1 - p0
    enter = np.full((len(p0), len(boxes_lo)), S._SEG_EPS)
    leave = np.full_like(enter, 1.0 - S._SEG_EPS)
    for a in range(3):
        o, da = p0[:, a, None], d[:, a, None]
        lo, hi = boxes_lo[:, a], boxes_hi[:, a]
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (lo - o) / da
            t1 = (hi - o) / da
        inside = (o >= lo) & (o <= hi)
        zero = da == 0.0
        np.maximum(enter, np.where(zero, np.where(inside, -np.inf, np.inf),
                                   np.minimum(t0, t1)), out=enter)
        np.minimum(leave, np.where(zero, np.where(inside, np.inf, -np.inf),
                                   np.maximum(t0, t1)), out=leave)
    return leave - enter > 1e-12


def _dense_specular_oracle(bs, ue, boxes_lo, boxes_hi):
    """_specular_points as first vectorized: the whole [L, B, axis, face]
    candidate array, masked at the end."""
    plane = np.stack([boxes_lo, boxes_hi], axis=-1)
    sign = np.array([-1.0, 1.0])
    ue_axis = ue[:, None, :, None]
    facing = ((sign * (bs[:, None] - plane) > 1e-9)
              & (sign * (ue_axis - plane) > 1e-9))
    mirrored = 2.0 * plane - bs[:, None]
    on_axis = np.eye(3, dtype=bool)[:, None, :]
    img = np.where(on_axis, mirrored[..., None], bs)
    d = ue[:, None, None, None, :] - img
    d_axis = ue_axis - mirrored
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (plane - mirrored) / d_axis
        q = img + t[..., None] * d
    in_face = ((boxes_lo[:, None, None, :] - 1e-9 <= q)
               & (q <= boxes_hi[:, None, None, :] + 1e-9)) | on_axis
    valid = (facing & (np.abs(d_axis) >= 1e-12) & (0.0 < t) & (t < 1.0)
             & in_face.all(axis=-1))
    return q[valid], np.nonzero(valid)[0]


# half-meter lattice points make axis-parallel segments, endpoints on box
# faces and boxes sharing faces common; decimetre points make specular
# points land on face edges up to rounding; multiples of 2**-20 cover the
# generic, off-face rest, and no segment extent between them is subnormal
# (which would overflow the slab division).  Every draw is an integer in
# (-100, 100): Hypothesis sometimes swaps a draw for a number written in
# an imported test or source module, so a float draw, or an integer range
# holding such numbers, would make the examples depend on which test
# modules ran first
_COORD = st.one_of(
    st.integers(-4, 4).map(lambda v: v / 2.0),
    st.integers(-20, 20).map(lambda v: v / 10.0),
    st.tuples(st.integers(-8, 7), *[st.integers(0, 63)] * 3).map(
        lambda t: (((t[0] * 64 + t[1]) * 64 + t[2]) * 64 + t[3]) / 2.0 ** 20))
_POINT = st.tuples(_COORD, _COORD, _COORD)
_SIZE = st.one_of(st.integers(0, 4).map(lambda v: v / 2.0),
                  st.integers(0, 20).map(lambda v: v / 10.0))
_BOX = st.tuples(_POINT, st.tuples(_SIZE, _SIZE, _SIZE))
# a segment's end, or None for a zero-length segment
_SEGMENT = st.tuples(_POINT, st.one_of(st.none(), _POINT))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(boxes=st.lists(_BOX, max_size=4),
       segments=st.lists(_SEGMENT, min_size=1, max_size=8),
       bs=_POINT, ues=st.lists(_POINT, min_size=1, max_size=6))
# boxes sharing the x = 1 face; axis-parallel, on-face and zero-length
# segments
@example(boxes=[((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                ((1.0, 0.0, 0.0), (1.0, 1.0, 1.0))],
         segments=[((-1.0, 0.5, 0.5), (3.0, 0.5, 0.5)),
                   ((1.0, 0.5, 0.5), (1.0, 0.5, 2.0)),
                   ((1.0, 1.0, 1.0), None), ((0.5, 0.5, 0.5), None)],
         bs=(-1.0, 0.5, 2.0), ues=[(3.0, 0.5, 2.0), (1.0, -1.0, 0.5)])
# two UEs that both see two faces: (UE, box) and (box, UE) orders differ
@example(boxes=[((-2.0, -2.0, -1.0), (8.0, 4.0, 1.0)),
                ((6.0, -2.0, 0.0), (1.0, 4.0, 4.0))],
         segments=[((0.0, 0.0, 2.0), (6.0, 0.0, 2.0))],
         bs=(0.0, 0.0, 2.0), ues=[(4.0, 0.0, 1.0), (4.0, 0.0, 1.5)])
# specular points that leave a face's hi and lo edge by rounding only
@example(boxes=[((-0.1, -0.6, -1.4), (0.6, 0.5, 0.8)),
                ((1.6, -1.0, -2.0), (0.5, 0.7, 1.1))],
         segments=[((-2.6, -2.6, -1.5), (-0.1, -0.1, -1.2))],
         bs=(-2.6, -2.6, -1.5), ues=[(-0.4, 0.2, -1.2), (-2.8, 2.3, -1.3)])
@example(boxes=[((1.6, 0.3, 1.1), (1.9, 0.5, 1.3)),
                ((0.4, -1.6, -0.1), (0.4, 0.1, 1.6))],
         segments=[((2.1, -2.9, -0.5), (2.3, 0.5, 1.0))],
         bs=(2.1, -2.9, -0.5), ues=[(-1.9, 0.8, -2.0), (2.3, 0.5, 1.0)])
def test_property_geometry_kernels_match_their_earlier_forms(boxes, segments,
                                                             bs, ues):
    lo = np.array([b[0] for b in boxes], float).reshape(-1, 3)
    hi = lo + np.array([b[1] for b in boxes], float).reshape(-1, 3)
    p0 = np.array([p for p, _ in segments])
    p1 = np.array([p if e is None else e for p, e in segments])
    assert np.array_equal(segments_hit_boxes(p0, p1, lo, hi),
                          _where_hits_oracle(p0, p1, lo, hi))
    bs, ues = np.array(bs), np.array(ues)
    q, link = S._specular_points(bs, ues, lo, hi)
    want_q, want_link = _dense_specular_oracle(bs, ues, lo, hi)
    assert q.tobytes() == want_q.tobytes() and q.shape == want_q.shape
    assert np.array_equal(link, want_link)


# ----------------------------------------------------------------------
# ray tracing
# ----------------------------------------------------------------------

def test_los_delay_matches_geometry():
    sc = _tiny_scenario()
    scene = Scene(scene_id=0, vehicles=[])
    mpcs, label = trace_paths(sc, scene, sc.ue_grid[0])
    assert label == LOS
    d = np.linalg.norm(np.asarray(sc.bs_position) - sc.ue_grid[0])
    assert abs(mpcs.delays[0] - d / SPEED_OF_LIGHT) < 1e-9 * d / SPEED_OF_LIGHT
    # free-space gain magnitude lambda / (4 pi d)
    lam = sc.wavelength
    assert abs(abs(mpcs.gains[0]) - lam / (4 * np.pi * d)) < 1e-15


def test_reflection_image_method_hand_case():
    # single wall at y in [5, 6]; reflected path length equals the
    # distance from the mirror image of the BS to the UE
    sc = _tiny_scenario(buildings=[Box((-50.0, 5.0, 0.0), (50.0, 6.0, 20.0))])
    scene = Scene(scene_id=0, vehicles=[])
    mpcs, label = trace_paths(sc, scene, sc.ue_grid[0])
    assert label == LOS and len(mpcs) == 2
    bs = np.asarray(sc.bs_position)
    img = bs.copy()
    img[1] = 2 * 5.0 - bs[1]
    want = np.linalg.norm(img - sc.ue_grid[0]) / SPEED_OF_LIGHT
    np.testing.assert_allclose(sorted(mpcs.delays)[1], want, rtol=1e-12)
    # reflection is scaled by the reflection coefficient
    d_refl = want * SPEED_OF_LIGHT
    lam = sc.wavelength
    np.testing.assert_allclose(sorted(np.abs(mpcs.gains))[0],
                               sc.reflection_coeff * lam / (4 * np.pi * d_refl),
                               rtol=1e-12)


def test_direct_gain_decreases_with_distance():
    sc = _tiny_scenario(ue_grid=np.array([[x, 0.0, 1.5]
                                          for x in (5.0, 10.0, 20.0, 40.0)]))
    scene = Scene(scene_id=0, vehicles=[])
    mags = []
    for ue in sc.ue_grid:
        mpcs, _ = trace_paths(sc, scene, ue)
        mags.append(abs(mpcs.gains[0]))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_labels_follow_blockage_semantics():
    blocker = Box((4.0, -1.0, 0.0), (5.0, 1.0, 10.0))
    # side wall provides a surviving reflected path around the blocker
    side = Box((-50.0, 5.0, 0.0), (50.0, 6.0, 20.0))
    sc_clear = _tiny_scenario(buildings=[side])
    assert trace_paths(sc_clear, Scene(0, []), sc_clear.ue_grid[0])[1] == LOS
    # vehicle blocks direct -> DNLOS
    assert trace_paths(sc_clear, Scene(0, [blocker]),
                       sc_clear.ue_grid[0])[1] == DNLOS
    # building blocks direct -> SNLOS even if a vehicle also blocks
    sc_wall = _tiny_scenario(buildings=[side, blocker])
    assert trace_paths(sc_wall, Scene(0, [blocker]),
                       sc_wall.ue_grid[0])[1] == SNLOS


def test_empty_link_raised_when_fully_enclosed():
    shell = [Box((8.0, -2.0, 0.0), (9.0, 2.0, 30.0)),
             Box((11.0, -2.0, 0.0), (12.0, 2.0, 30.0)),
             Box((9.0, -2.0, 0.0), (11.0, 2.0, 30.0))]
    sc = _tiny_scenario(buildings=shell)
    with pytest.raises(EmptyLink):
        trace_paths(sc, Scene(0, []), sc.ue_grid[0])


def test_max_paths_keeps_strongest():
    sc = _tiny_scenario(buildings=[
        Box((-50.0, 5.0, 0.0), (50.0, 6.0, 20.0)),
        Box((-50.0, -6.0, 0.0), (50.0, -5.0, 20.0)),
        Box((-50.0, -50.0, -0.5), (50.0, 50.0, 0.0))])
    scene = Scene(0, [])
    all_paths, _ = trace_paths(sc, scene, sc.ue_grid[0], n_keep=10)
    pruned, _ = trace_paths(sc, scene, sc.ue_grid[0], n_keep=2)
    assert len(pruned) == 2
    kept = sorted(np.abs(all_paths.gains))[-2:]
    np.testing.assert_allclose(sorted(np.abs(pruned.gains)), kept, rtol=1e-12)


# ----------------------------------------------------------------------
# array tracer against the per-candidate loop tracer
# ----------------------------------------------------------------------

def _loop_reflection_points(bs, ue, boxes_lo, boxes_hi):
    """Specular points, one candidate face at a time."""
    out = []
    for bi in range(boxes_lo.shape[0]):
        lo, hi = boxes_lo[bi], boxes_hi[bi]
        for axis in range(3):
            for plane, sign in ((lo[axis], -1.0), (hi[axis], 1.0)):
                if sign * (bs[axis] - plane) <= 1e-9:
                    continue
                if sign * (ue[axis] - plane) <= 1e-9:
                    continue
                img = bs.copy()
                img[axis] = 2.0 * plane - bs[axis]
                d = ue - img
                if abs(d[axis]) < 1e-12:
                    continue
                t = (plane - img[axis]) / d[axis]
                if not 0.0 < t < 1.0:
                    continue
                q = img + t * d
                if all(lo[a] - 1e-9 <= q[a] <= hi[a] + 1e-9
                       for a in range(3) if a != axis):
                    out.append(q)
    return out


def _loop_departure_angles(direction):
    d = direction / np.linalg.norm(direction)
    return np.arctan2(d[1], d[0]), np.arccos(np.clip(d[2], -1.0, 1.0))


def _loop_trace_paths(scenario, scene, ue, n_keep=None):
    """Reference tracer: separate hit tests and per-path norms and angles."""
    bs = np.asarray(scenario.bs_position, float)
    ue = np.asarray(ue, float)
    lam = scenario.wavelength
    bld_lo, bld_hi = S._boxes_to_arrays(scenario.buildings)
    veh_lo, veh_hi = S._boxes_to_arrays(scene.vehicles)
    all_lo = np.concatenate([bld_lo, veh_lo])
    all_hi = np.concatenate([bld_hi, veh_hi])
    if segments_hit_boxes(bs, ue, bld_lo, bld_hi)[0].any():
        label = SNLOS
    elif segments_hit_boxes(bs, ue, veh_lo, veh_hi)[0].any():
        label = DNLOS
    else:
        label = LOS
    lengths, dirs = [], []
    if label == LOS:
        lengths.append(np.linalg.norm(ue - bs))
        dirs.append(ue - bs)
    n_direct = len(lengths)
    for q in _loop_reflection_points(bs, ue, all_lo, all_hi):
        if (segments_hit_boxes(bs, q, all_lo, all_hi).any()
                or segments_hit_boxes(q, ue, all_lo, all_hi).any()):
            continue
        lengths.append(np.linalg.norm(q - bs) + np.linalg.norm(ue - q))
        dirs.append(q - bs)
    if not lengths:
        raise EmptyLink("no surviving path")
    lengths = np.asarray(lengths)
    gains = lam / (4.0 * np.pi * lengths) * np.exp(-2j * np.pi * lengths / lam)
    gains[n_direct:] *= scenario.reflection_coeff
    angles = np.array([_loop_departure_angles(d) for d in dirs])
    delays = lengths / SPEED_OF_LIGHT
    n_keep = n_keep if n_keep is not None else scenario.max_paths
    order = np.sort(np.argsort(-np.abs(gains), kind="stable")[:n_keep])
    return MpcSet(gains[order], angles[order, 0], angles[order, 1],
                  delays[order]), label


def _assert_traces_equal(sc, scene, ue, n_keep):
    try:
        want = _loop_trace_paths(sc, scene, ue, n_keep)
    except EmptyLink:
        with pytest.raises(EmptyLink):
            trace_paths(sc, scene, ue, n_keep)
        return None
    _assert_links_equal(trace_paths(sc, scene, ue, n_keep), want)
    return want[1]


def _assert_links_equal(got, want):
    """(MpcSet, label) pairs are equal bit for bit."""
    assert got[1] == want[1]
    for name in ("gains", "azimuths", "elevations", "delays"):
        assert np.array_equal(getattr(got[0], name), getattr(want[0], name)), name


def _toy_links():
    """(scenario, scene, ue, n_keep) of 1000 toy links: the box generator
    of acceptance test 4; every other scene drops its ceiling mirror, so
    some links lose every path."""
    rng = np.random.default_rng(13)
    mirror = Box((-30.0, -30.0, 50.0), (30.0, 30.0, 51.0))

    def rand_boxes(n):
        out = []
        for _ in range(n):
            lo = np.array([rng.uniform(-8, 8), rng.uniform(0, 2.5), 0.0])
            hi = lo + [rng.uniform(0.5, 4), rng.uniform(0.5, 1.0),
                       rng.uniform(1, 6)]
            out.append(Box(tuple(lo), tuple(hi)))
        return out

    for i in range(1000):
        buildings = rand_boxes(rng.integers(0, 3))
        vehicles = rand_boxes(rng.integers(0, 3))
        sc = Scenario(bs_position=(0.0, 0.0, 8.0), array=ArrayGeometry(2, 2),
                      carrier_freq=3.5e9, bandwidth=100e6, n_subcarriers=8,
                      ue_grid=np.array([[10.0, 5.0, 1.5]]), grid_spacing=1.0,
                      buildings=buildings + [mirror] * (i % 2), max_paths=4)
        ue = np.array([rng.uniform(-10, 10), rng.uniform(4, 6), 1.5])
        n_keep = None if i % 3 else int(rng.integers(1, 4))
        yield sc, Scene(0, vehicles), ue, n_keep


def test_array_tracer_matches_loop_tracer_on_toy_scenes():
    labels, empty = set(), 0
    for sc, scene, ue, n_keep in _toy_links():
        label = _assert_traces_equal(sc, scene, ue, n_keep)
        if label is None:
            empty += 1
        labels.add(label)
    assert labels == {LOS, DNLOS, SNLOS, None} and empty > 0


@pytest.mark.parametrize("n_keep", [None, 3])
def test_array_tracer_matches_loop_tracer_on_a_desk_scene(n_keep):
    sc = desk_scenario()
    scene = make_scene(sc, 0, 30, 40)
    labels = [_assert_traces_equal(sc, scene, ue, n_keep) for ue in sc.ue_grid]
    assert {LOS, DNLOS, SNLOS} <= set(labels)


# ----------------------------------------------------------------------
# the grid form of the tracer against its one-point form
# ----------------------------------------------------------------------

def test_grid_tracer_matches_one_point_tracer_on_a_desk_scene():
    sc = desk_scenario(min_paths=1)
    seed, t = 0, 30
    scene = make_scene(sc, seed, t, 40)
    # per-link path budgets, drawn as generate_dataset draws them
    n_keep = [int(np.random.default_rng([seed, t, l]).integers(
        sc.min_paths, sc.max_paths + 1)) for l in range(len(sc.ue_grid))]
    assert len(set(n_keep)) > 1
    paths, counts, labels = trace_paths(sc, scene, sc.ue_grid, n_keep)
    assert counts.shape == labels.shape == (len(sc.ue_grid),)
    assert counts.sum() == len(paths)
    dropped = 0
    for ue, k, n, got in zip(sc.ue_grid, n_keep, counts,
                             zip(_split_links(paths, counts), labels)):
        try:
            want = trace_paths(sc, scene, ue, k)
        except EmptyLink:
            assert n == 0
            dropped += 1
            continue
        assert n > 0
        _assert_links_equal(got, want)
    assert 0 < dropped < len(counts)


def test_grid_tracer_gives_a_zero_count_where_one_point_raises_empty_link():
    empty = 0
    for sc, scene, ue, n_keep in _toy_links():
        per_link = None if n_keep is None else [n_keep]
        paths, (n,), (label,) = trace_paths(sc, scene, ue[None], per_link)
        assert n == len(paths)
        try:
            want = trace_paths(sc, scene, ue, n_keep)
        except EmptyLink:
            assert n == 0
            empty += 1
            continue
        assert n > 0
        _assert_links_equal((paths, label), want)
    assert empty > 0


def test_grid_tracer_shapes():
    shell = [Box((8.0, -2.0, 0.0), (9.0, 2.0, 30.0)),
             Box((11.0, -2.0, 0.0), (12.0, 2.0, 30.0)),
             Box((9.0, -2.0, 0.0), (11.0, 2.0, 30.0))]
    sc = _tiny_scenario(buildings=shell)
    inside, outside = sc.ue_grid[0], np.array([-10.0, 0.0, 1.5])
    with pytest.raises(EmptyLink):
        trace_paths(sc, Scene(0, []), inside)
    paths, counts, labels = trace_paths(sc, Scene(0, []),
                                        np.stack([inside, outside]), [1, 2])
    assert counts[0] == 0 and counts.sum() == len(paths)
    _assert_links_equal((paths, labels[1]),
                        trace_paths(sc, Scene(0, []), outside, 2))
    paths, counts, labels = trace_paths(sc, Scene(0, []), np.zeros((0, 3)))
    assert len(paths) == 0 and counts.shape == labels.shape == (0,)
    grid = np.stack([outside, outside])
    for ue, n_keep in ((np.zeros((2, 2)), None), (np.zeros((2, 3, 1)), None),
                       (grid, [3]), (grid, [3, 3, 3]), (grid, [[3, 3]]),
                       (grid, 0), (grid, [2, 1.5])):
        with pytest.raises(ValueError):
            trace_paths(sc, Scene(0, []), ue, n_keep)


# ----------------------------------------------------------------------
# the split trace (buildings once, vehicles per scene) against one pass
# ----------------------------------------------------------------------

def _trace_paths_one_pass(scenario, scene, grid, n_keep):
    """The grid tracer before its buildings' part was split off: every box
    in one `_specular_points` call and one `segments_hit_boxes` call."""
    bs = np.asarray(scenario.bs_position, float)
    n_links = len(grid)
    n_keep = np.broadcast_to(scenario.max_paths if n_keep is None else n_keep,
                             n_links)
    lam = scenario.wavelength
    n_bld = len(scenario.buildings)
    lo, hi = S._boxes_to_arrays(list(scenario.buildings)
                                + list(scene.vehicles))
    q, q_link = S._specular_points(bs, grid, lo, hi)
    r = len(q)
    hits = segments_hit_boxes(
        np.concatenate([np.broadcast_to(bs, grid.shape),
                        np.broadcast_to(bs, q.shape), q]),
        np.concatenate([grid, q, grid[q_link]]), lo, hi)
    direct = hits[:n_links]
    labels = np.where(direct[:, :n_bld].any(axis=1), SNLOS,
                      np.where(direct[:, n_bld:].any(axis=1), DNLOS, LOS))
    clear = ~(hits[n_links:n_links + r].any(axis=1)
              | hits[n_links + r:].any(axis=1))
    los = np.flatnonzero(labels == LOS)
    link = np.concatenate([los, q_link[clear]])
    emit = np.argsort(link, kind="stable")
    link = link[emit]
    points = np.concatenate([grid[los], q[clear]])[emit]
    bounced = emit >= len(los)
    dirs = points - bs
    first_leg = S._norms(dirs)
    lengths = first_leg + S._norms(grid[link] - points)
    gains = lam / (4.0 * np.pi * lengths) * np.exp(-2j * np.pi * lengths / lam)
    gains[bounced] *= scenario.reflection_coeff
    unit = dirs / first_leg[:, None]
    elevations = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
    azimuths = np.arctan2(unit[:, 1], unit[:, 0])
    delays = lengths / SPEED_OF_LIGHT
    counts = np.bincount(link, minlength=n_links)
    rank = np.arange(len(link)) - (np.cumsum(counts) - counts)[link]
    strongest = np.lexsort((-np.abs(gains), link))
    keep = np.sort(strongest[rank < n_keep[link]])
    kept = np.bincount(link[keep], minlength=n_links)
    return (MpcSet(gains[keep], azimuths[keep], elevations[keep],
                   delays[keep]), kept, labels)


def _assert_grid_traces_equal(got, want):
    """(paths, counts, labels) triples are equal byte for byte."""
    for name in ("gains", "azimuths", "elevations", "delays"):
        a, b = getattr(got[0], name), getattr(want[0], name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _corners(box):
    lo, size = box
    return np.array(lo), np.array(lo) + np.array(size)


@st.composite
def _street(draw):
    """(buildings, vehicles, bs, ues, n_keep) of a small scene.

    A vehicle corner coordinate may repeat a building's on its axis, so
    vehicles overlap or abut buildings.  A UE may sit at a vehicle face,
    a few 2**-20 lattice steps off it (on either side of the union box's
    widened edge), or mid-vehicle on any axis, so UEs fall inside
    vehicles and segments just enter them.  All draws are integers.
    """
    buildings = draw(st.lists(_BOX, max_size=3))
    planes = [sorted({c[a] for b in buildings for c in _corners(b)})
              for a in range(3)]
    coord = [st.one_of(_COORD, st.sampled_from(p)) if p else _COORD
             for p in planes]
    vehicles = draw(st.lists(st.tuples(st.tuples(*coord),
                                       st.tuples(_SIZE, _SIZE, _SIZE)),
                             max_size=3))
    ue = _POINT
    if vehicles:
        near = st.tuples(st.sampled_from(vehicles), st.tuples(*[st.tuples(
            st.sampled_from(["lo", "mid", "hi"]), st.integers(-2, 2))] * 3))
        ue = st.one_of(_POINT, near.map(_near_vehicle))
    ues = draw(st.lists(ue, min_size=1, max_size=6))
    n_keep = draw(st.one_of(st.none(), st.integers(1, 4),
                            st.lists(st.integers(1, 4), min_size=len(ues),
                                     max_size=len(ues))))
    return buildings, vehicles, draw(_POINT), ues, n_keep


def _near_vehicle(drawn):
    """A point at, or k 2**-20 steps off, a vehicle's lo/hi face or midpoint
    on each axis."""
    box, where = drawn
    lo, hi = _corners(box)
    at = {"lo": lo, "mid": (lo + hi) / 2.0, "hi": hi}
    return tuple(float(at[w][a] + k / 2.0 ** 20)
                 for a, (w, k) in enumerate(where))


# a unit vehicle; the examples put a UE 2**-20 below its top face (less
# than the union-box margin) and one exactly the margin above it
_CAR = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(street=_street())
# a UE inside the vehicle, 2**-20 below its top face: only the vehicle
# blocks its direct path, and only a union box at least that wide sees it
@example(street=([], [_CAR], (0.5, 0.5, 3.0),
                 [(0.5, 0.5, 1.0 - 2.0 ** -20), (0.5, 0.5, 0.5)], None))
@example(street=([], [_CAR], (0.5, 0.5, 3.0),
                 [(0.5, 0.5, 1.0 + S._CULL_MARGIN), (3.0, 0.5, 0.5)], [1, 2]))
# a vehicle abutting a building's face and one inside it; no vehicles
@example(street=([((0.0, -1.0, 0.0), (2.0, 0.5, 2.0))],
                 [((2.0, -1.0, 0.0), (1.0, 0.5, 1.0)),
                  ((0.5, -1.0, 0.0), (0.5, 0.5, 0.5))],
                 (1.0, 2.0, 3.0), [(3.0, -2.0, 0.5), (1.0, -3.0, 1.0)], 2))
@example(street=([((0.0, -1.0, 0.0), (2.0, 0.5, 2.0))], [],
                 (1.0, 2.0, 3.0), [(3.0, -2.0, 0.5)], None))
def test_property_split_trace_matches_one_pass(street):
    buildings, vehicles, bs, ues, n_keep = street
    box = lambda b: Box(*map(tuple, _corners(b)))
    sc = _tiny_scenario(bs_position=bs, buildings=[box(b) for b in buildings],
                        max_paths=3)
    scene = Scene(0, [box(v) for v in vehicles])
    grid = np.array(ues, float)
    # a UE at the BS has a zero-length direct path, to which both tracers
    # give an infinite gain and NaN angles, with a division warning
    at_bs = (grid == np.array(bs)).all(axis=1).any()
    with (np.errstate(divide="ignore", invalid="ignore") if at_bs
          else contextlib.nullcontext()):
        got = trace_paths(sc, scene, grid, n_keep)
        _assert_grid_traces_equal(got, _trace_paths_one_pass(sc, scene, grid,
                                                             n_keep))
        _assert_grid_traces_equal(trace_paths(sc, scene, grid, n_keep,
                                              S._static_trace(sc, grid)), got)


# ----------------------------------------------------------------------
# golden dataset digests
# ----------------------------------------------------------------------

def _noisy_40_point_desk():
    sc = desk_scenario(grid_points=40)
    sc.noise_snr_db = 15
    return sc


# sha256 of each generate_dataset output, recorded before the tracer was
# batched per scene: a change that moves any byte of a dataset fails here.
# The CFRs pass through zgemm, so their digest is recorded per OpenBLAS core
GOLDEN = [
    (desk_scenario, 8, 1, {
        "cfr": {
            "SkylakeX": "82b60214f0ffd1d49a4223df15a7bdf55e9bd321cc9ed3c756a1fa949361204a",
            "Haswell": "0b03d6273dc025f5462c6da3f9ba2c452e41b710bb3590342d1985db15522205"},
        "coords": "a8e395c0802d100b8419cb7a877443914cb929d171216bbb32afe340993c342a",
        "labels": "e663b53e49c87a43cdd1a9a4f178148b2e3b4f0230f57eeaea79a6f8acf9b23a",
        "scene_ids": "04e73447290c89f09c538b4cc8f72a4aed72bc7ba5c84665b1299f97c6918f2f",
        "grid_ids": "2101af2ba8f2e95e4f74b2ef862dd5bc52199705a33dec1d21e13f38298c5d84",
        "dropped": "d54fc9340c6d8008d4a7b2d3fb39dd2c26bbbba48d6802bc5326f06e842fda29"}),
    (desk_scenario, 40, 0, {
        "cfr": {
            "SkylakeX": "886c4835c652e3c1f0c6a6c997c6ec618dfcd1399853e7b0177f76d94b510ab3",
            "Haswell": "af2a420b893101df11c8f387326349ccea08111d945768941e46363d2ec38668"},
        "coords": "d6681ffb12c0f9a590726412c9d0199636768301fe4b4ae0c3c780a68444950b",
        "labels": "fa75293454ba6f27ddae2040a4b4dd46740b0055016a9cdfb086e1aa34d4ae64",
        "scene_ids": "80517869b4588c8e6dbba8605d5fad9c8fa9820fb8688dfe1cb382d95364efdc",
        "grid_ids": "05efcf0af06d99614f957fcfd5268e26a43cfc22c0d55189775d9079c1704bc9",
        "dropped": "0b71108fb87a18aa5307ce1fe2af31a3047b7f49377b0fdf64aaf21e5f38b703"}),
    (lambda: desk_scenario(min_paths=2, max_paths=6), 6, 3, {
        "cfr": {
            "SkylakeX": "edf06c0362e98433fa7196ea44909b90777d99f07ca62e496af73f440558ed62",
            "Haswell": "cbba310f47ef316bc973e090f920b626448c069c14557c15c8764a34b0d6849a"},
        "coords": "30791ef394b4342f7bf0d86038a1bf85f0597818717b18518d94d1f7da475f22",
        "labels": "e0533f8087c7f847a43c17e112cb05a005a7aef5e86c4ed7eb25bb6fdd67ab01",
        "scene_ids": "1b70a577295da6a77da2d1f52612bd292d607b4b79f8bbb5e02b9a76d296fc0e",
        "grid_ids": "c60f303047c7adb960d5a5619c92e91eac498aefdcea5b4c444c9da33e165418",
        "dropped": "1a0c96b932b3a91f4d96274c442ba97932402a2f05d5a25f015fc83645f8c2d0"}),
    (_noisy_40_point_desk, 5, 2, {
        "cfr": {
            "SkylakeX": "23b5b5b777d10183fb490ae4181b2ed27cf13eb5332b4ce43a2d6f1df33bd52c",
            "Haswell": "39e42c309ea4b1c182e4174102b99f9a18b5bb3f5cf83b3aadf77186c555b771"},
        "coords": "acb4909bacdc85a089814aa0753b5a171db125cf8372f5579a3ffbcde7089b5b",
        "labels": "58d9739028592061fb95bb5fdf1fdb79105787397c28f73d2d0dedfa5c5b7162",
        "scene_ids": "b48b0e1e224dccf839efc7b9f37af5537863c716bc8a0b231c3fe00238123e0c",
        "grid_ids": "9b51e0c1b0c1640fe8853a3069469ffdcdddcb7b28c2a9761f9eb921cbaf17c7",
        "dropped": "842202f9a7dd8b950e18fd9dec36ba8ef9e6b91339f2ae48e0346d5e69b5b571"}),
    (S.full_scale_scenario, 3, 0, {
        "cfr": {
            "SkylakeX": "0e6270f09b8cce98cbaeb3297ec6b1cddcdcb02fd318a46ef0cf832b0367f98c",
            "Haswell": "d5904745d6738a41e84aa7f043e209d3a20ba112943c52abcbdf74aec5761767"},
        "coords": "ad6db7cbfce053d242fe89ba32ba64e17e06aa5af4da5c9fbadb3c3251bd8402",
        "labels": "0b01822061f7572f73b92fba8ad38b758a4e3fad532fa03258937b82674f3909",
        "scene_ids": "db1b83c7f8c70f2f31e1a303355b0556bb121997b4bb823e4e7bf02afc322791",
        "grid_ids": "8517bc22000cbe10ff93b0c0265144e1ad90a939aa01a11fed2969f3de6d350a",
        "dropped": "4d67df85c45c4a95d145c98076ebd26f56987c7732385ad576b8f5590d4c5314"}),
]


@pytest.mark.parametrize("make, n_scenes, seed, want", GOLDEN,
                         ids=["desk-8-s1", "desk-40-s0", "desk-paths2to6-6-s3",
                              "desk-40pt-snr15-5-s2", "full-scale-3-s0"])
def test_generate_dataset_golden_digests(make, n_scenes, seed, want,
                                        per_core):
    want = {**want, "cfr": per_core(want["cfr"])}
    ds = generate_dataset(make(), n_scenes, seed)
    got = {k: hashlib.sha256(getattr(ds, k).tobytes()).hexdigest()
           for k in ("cfr", "coords", "labels", "scene_ids", "grid_ids")}
    got["dropped"] = hashlib.sha256(
        json.dumps(ds.manifest["dropped"]).encode()).hexdigest()
    assert got == want


# ----------------------------------------------------------------------
# scenes and datasets
# ----------------------------------------------------------------------

def test_make_scene_is_deterministic_in_seed_and_id():
    sc = desk_scenario()
    a = make_scene(sc, 7, 3, 10)
    b = make_scene(sc, 7, 3, 10)
    assert len(a.vehicles) == len(b.vehicles)
    for va, vb in zip(a.vehicles, b.vehicles):
        assert va.lo == vb.lo and va.hi == vb.hi
    c = make_scene(sc, 8, 3, 10)
    different = len(a.vehicles) != len(c.vehicles) or any(
        va.lo != vc.lo for va, vc in zip(a.vehicles, c.vehicles))
    assert different


def test_traffic_drift_increases_density():
    sc = desk_scenario()
    early = [len(make_scene(sc, s, 0, 40).vehicles) for s in range(8)]
    late = [len(make_scene(sc, s, 39, 40).vehicles) for s in range(8)]
    assert np.mean(late) > np.mean(early)


def test_generate_dataset_deterministic_bytes():
    sc = desk_scenario(grid_points=20)
    d1 = generate_dataset(sc, n_scenes=3, seed=5)
    d2 = generate_dataset(sc, n_scenes=3, seed=5)
    assert d1.cfr.tobytes() == d2.cfr.tobytes()
    assert d1.coords.tobytes() == d2.coords.tobytes()
    assert d1.labels.tobytes() == d2.labels.tobytes()
    assert d1.manifest["dropped"] == d2.manifest["dropped"]
    d3 = generate_dataset(sc, n_scenes=3, seed=6)
    assert d1.cfr.tobytes() != d3.cfr.tobytes()


def test_generate_dataset_accounts_for_every_link():
    sc = desk_scenario(grid_points=20)
    ds = generate_dataset(sc, n_scenes=3, seed=0)
    kept = {(int(s), int(g)) for s, g in zip(ds.scene_ids, ds.grid_ids)}
    dropped = {tuple(p) for p in ds.manifest["dropped"]}
    assert kept.isdisjoint(dropped)
    assert len(kept) + len(dropped) == 3 * len(sc.ue_grid)
    assert len(ds.labels) == len(kept) == ds.manifest["n_samples"]


def test_generate_dataset_with_a_fully_dropped_scene():
    # two grid points on a 4.5 m lane that fits one sedan exactly: every
    # vehicle encloses both, so scene 0 drops every link; the drift takes
    # the density to zero in scene 1, which keeps both
    lane = Lane(y_center=5.0, x_min=0.0, x_max=4.5, density=1.0,
                truck_fraction=0.0)
    sc = _tiny_scenario(ue_grid=[[1.0, 5.0, 1.0], [3.0, 5.0, 1.0]],
                        lanes=[lane], traffic_drift=-1.0)
    assert make_scene(sc, 0, 0, 2).vehicles and not make_scene(
        sc, 0, 1, 2).vehicles
    ds = generate_dataset(sc, n_scenes=2, seed=0)
    assert ds.scene_ids.tolist() == ds.manifest["scene_of_sample"] == [1, 1]
    assert ds.grid_ids.tolist() == ds.manifest["grid_of_sample"] == [0, 1]
    assert ds.manifest["dropped"] == [[0, 0], [0, 1]]
    paths, counts, _ = trace_paths(sc, Scene(1, []), sc.ue_grid)
    assert counts.sum() == len(paths)
    assert ds.cfr.tobytes() == synth_cfr(paths, sc, counts).tobytes()


def test_generate_dataset_peak_memory_is_close_to_one_cfr():
    tracemalloc.start()
    try:
        ds = generate_dataset(desk_scenario(), 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.cfr.nbytes, (peak, ds.cfr.nbytes)


def test_dataset_coords_match_grid():
    sc = desk_scenario(grid_points=20)
    ds = generate_dataset(sc, n_scenes=2, seed=0)
    np.testing.assert_array_equal(ds.coords, sc.ue_grid[ds.grid_ids])


def test_min_paths_draws_per_link_path_budget():
    sc = desk_scenario(grid_points=20, min_paths=1, max_paths=3)
    ds = generate_dataset(sc, n_scenes=2, seed=0)
    assert len(ds.labels) > 0
    # per-link rng: regeneration reproduces the same draws
    ds2 = generate_dataset(sc, n_scenes=2, seed=0)
    assert ds.cfr.tobytes() == ds2.cfr.tobytes()


def test_noise_is_seeded_and_scaled():
    sc_clean = desk_scenario(grid_points=10)
    sc_noisy = desk_scenario(grid_points=10)
    sc_noisy.noise_snr_db = 20.0
    clean = generate_dataset(sc_clean, n_scenes=1, seed=0)
    noisy = generate_dataset(sc_noisy, n_scenes=1, seed=0)
    noisy2 = generate_dataset(sc_noisy, n_scenes=1, seed=0)
    assert noisy.cfr.tobytes() == noisy2.cfr.tobytes()
    err = noisy.cfr - clean.cfr
    snr = np.mean(np.abs(clean.cfr) ** 2) / np.mean(np.abs(err) ** 2)
    assert 50.0 < snr < 200.0  # nominal 100 (20 dB)


def test_desk_label_histogram_has_all_classes():
    ds = generate_dataset(desk_scenario(), n_scenes=6, seed=0)
    hist = np.bincount(ds.labels, minlength=3) / len(ds.labels)
    assert np.all(hist >= 0.05)


def test_scenario_validation():
    for bad in (dict(max_paths=0), dict(max_paths=2.5),
                dict(min_paths=0), dict(min_paths=9, max_paths=4),
                dict(ue_grid=np.zeros((3, 2))), dict(ue_grid=np.zeros((0, 3))),
                dict(ue_grid=np.zeros(3)), dict(bs_position=(0.0, 0.0)),
                # a UE at the BS, which has a zero-length direct path
                dict(ue_grid=[[10.0, 0.0, 1.5], [0.0, 0.0, 5.0]]),
                dict(bs_position=(10, 0, 1.5)),
                dict(bs_position=(0.0, np.inf, 5.0)),
                dict(bs_position=(0.0, True, 5.0)),
                dict(lanes=[Lane(0.0, -10.0, 10.0, density=-1.0)]),
                dict(lanes=[Lane(0.0, -10.0, 10.0, density=np.nan)]),
                dict(reflection_coeff=np.nan), dict(reflection_coeff=-0.5),
                dict(noise_snr_db="x"), dict(noise_snr_db=np.inf),
                dict(n_subcarriers=8.5), dict(n_subcarriers=1),
                dict(lanes=[Lane(0.0, 10.0, -10.0)]),
                dict(lanes=[Lane(0.0, -np.inf, 10.0)]),
                dict(traffic_drift=-1.5), dict(grid_spacing=0.0),
                dict(buildings=[Box((0.0, 0.0, 1.0), (1.0, 1.0, 0.5))])):
        with pytest.raises(ValueError):
            _tiny_scenario(**bad)
    for bad in (dict(m_y=2.5, m_z=2), dict(m_y=2, m_z=0),
                dict(m_y=True, m_z=2), dict(m_y=2, m_z=2, spacing=0.0),
                dict(m_y=2, m_z=2, spacing=np.nan)):
        with pytest.raises(ValueError):
            ArrayGeometry(**bad)
    _tiny_scenario(min_paths=4, max_paths=4)
    # the edges of the geometry and traffic ranges are allowed
    _tiny_scenario(buildings=[Box((0, 0, 0), (0, 1.0, 2.0))], traffic_drift=-1,
                   lanes=[Lane(0.0, -1.0, 1.0, truck_fraction=0),
                          Lane(2.0, -1.0, 1.0, truck_fraction=1.0)])
    _tiny_scenario(bs_position=(np.float64(1.0), 0, 5.0), noise_snr_db=10,
                   lanes=[Lane(0.0, -10.0, 10.0, density=0.0)],
                   reflection_coeff=0.0, n_subcarriers=np.int64(8))


def test_scenario_json_round_trip(tmp_path):
    sc = desk_scenario(grid_points=10)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    sc2 = Scenario.from_json(path)
    assert sc2.to_dict() == sc.to_dict()
    d1 = generate_dataset(sc, n_scenes=1, seed=0)
    d2 = generate_dataset(sc2, n_scenes=1, seed=0)
    assert d1.cfr.tobytes() == d2.cfr.tobytes()


def test_scenario_from_dict_checks_its_keys():
    d = desk_scenario(grid_points=10).to_dict()
    # the keys older files may lack take the field's default
    old = {k: v for k, v in d.items()
           if k not in ("min_paths", "reflection_coeff", "traffic_drift",
                        "noise_snr_db")}
    sc = Scenario.from_dict(old)
    assert (sc.min_paths, sc.reflection_coeff, sc.traffic_drift,
            sc.noise_snr_db) == (None, 0.6, 0.0, None)
    lane, building = d["lanes"][0], d["buildings"][0]
    for bad in ({**d, "lane": []}, {**d, "array": {**d["array"], "m_x": 4}},
                {**d, "lanes": [{**lane, "speed": 1.0}]},
                {**d, "buildings": [{**building, "mid": [0, 0, 0]}]},
                {k: v for k, v in d.items() if k != "lanes"},
                {k: v for k, v in d.items() if k != "max_paths"},
                {**d, "array": {"m_y": 4}},
                {**d, "buildings": [{"lo": [0.0] * 3}]}):
        with pytest.raises(ValueError):
            Scenario.from_dict(bad)
    for bad in ("desk", {**d, "array": [4, 4]}, {**d, "lanes": [1.0]}):
        with pytest.raises(TypeError):
            Scenario.from_dict(bad)
