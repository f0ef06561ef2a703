"""Tests for the street-canyon channel simulator.

Geometry predicates are checked against a dense-sampling oracle, CFR
synthesis against an explicit per-element loop, and dataset generation
for determinism and semantic-label correctness.
"""

import numpy as np
import pytest

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
    got = trace_paths(sc, scene, ue, n_keep)
    assert got[1] == want[1]
    for name in ("gains", "azimuths", "elevations", "delays"):
        assert np.array_equal(getattr(got[0], name), getattr(want[0], name)), name
    return want[1]


def test_array_tracer_matches_loop_tracer_on_toy_scenes():
    # the box generator of acceptance test 4; every other scene drops its
    # ceiling mirror, so some links lose every path
    rng = np.random.default_rng(13)
    mirror = Box((-30.0, -30.0, 50.0), (30.0, 30.0, 51.0))
    labels, empty = set(), 0

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
        label = _assert_traces_equal(sc, Scene(0, vehicles), ue, n_keep)
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
                dict(bs_position=(0.0, np.inf, 5.0)),
                dict(bs_position=(0.0, True, 5.0)),
                dict(lanes=[Lane(0.0, -10.0, 10.0, density=-1.0)]),
                dict(lanes=[Lane(0.0, -10.0, 10.0, density=np.nan)]),
                dict(reflection_coeff=np.nan), dict(reflection_coeff=-0.5),
                dict(noise_snr_db="x"), dict(noise_snr_db=np.inf),
                dict(n_subcarriers=8.5), dict(n_subcarriers=1)):
        with pytest.raises(ValueError):
            _tiny_scenario(**bad)
    _tiny_scenario(min_paths=4, max_paths=4)
    _tiny_scenario(bs_position=(np.float64(1.0), 0, 5.0), noise_snr_db=10,
                   lanes=[Lane(0.0, -10.0, 10.0, density=0.0)],
                   reflection_coeff=0.0, n_subcarriers=np.int64(8))


def test_scenario_json_round_trip(tmp_path):
    import json
    sc = desk_scenario(grid_points=10)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    sc2 = Scenario.from_json(path)
    assert sc2.to_dict() == sc.to_dict()
    d1 = generate_dataset(sc, n_scenes=1, seed=0)
    d2 = generate_dataset(sc2, n_scenes=1, seed=0)
    assert d1.cfr.tobytes() == d2.cfr.tobytes()
