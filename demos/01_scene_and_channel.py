"""Walk through the street-canyon simulator: one scene, three link types.

Builds the small desk-scale canyon (two building rows, a mid-street
kiosk, four traffic lanes), samples one snapshot of vehicles, and traces
rays to every grid point in one call.  Prints the propagation-condition
label and the strongest multipath components of the first link of each
label.
"""

import numpy as np

from semloc.scenario import (LABEL_NAMES, SPEED_OF_LIGHT, desk_scenario,
                             make_scene, trace_paths)

sc = desk_scenario()
print(f"canyon: {len(sc.buildings)} static boxes, {len(sc.lanes)} lanes, "
      f"{len(sc.ue_grid)} grid points")
print(f"BS at {sc.bs_position}, {sc.array.m_y}x{sc.array.m_z} planar array, "
      f"{sc.n_subcarriers} subcarriers over {sc.bandwidth / 1e6:.0f} MHz\n")

# a mid-traffic snapshot: scene 20 of 40 (density drifts upward with id)
scene = make_scene(sc, seed=0, scene_id=20, n_scenes=40)
print(f"scene 20: {len(scene.vehicles)} vehicles on the road\n")

# one tracer call for the whole grid: every kept path in one MpcSet,
# link-major, with the paths kept per link; a zero count marks a fully
# shadowed link, which the generator records as dropped
paths, counts, labels = trace_paths(sc, scene, sc.ue_grid)
ends = np.cumsum(counts)
shown = set()
for ue, a, b, label in zip(sc.ue_grid, ends - counts, ends, labels):
    if a == b or label in shown:
        continue
    shown.add(label)
    d = np.linalg.norm(np.asarray(sc.bs_position) - ue)
    print(f"UE at ({ue[0]:6.1f}, {ue[1]:4.1f}, {ue[2]:3.1f})  "
          f"label={LABEL_NAMES[label]}  geometric distance {d:.2f} m")
    order = a + np.argsort(-np.abs(paths.gains[a:b]))
    for i in order[:4]:
        print(f"   path: delay {paths.delays[i] * 1e9:7.2f} ns "
              f"({paths.delays[i] * SPEED_OF_LIGHT:6.2f} m), "
              f"|gain| {np.abs(paths.gains[i]):.2e}, "
              f"azimuth {np.degrees(paths.azimuths[i]):7.1f} deg")
    if len(shown) == 3:
        break

print("\nLOS: clear direct ray.  DNLOS: direct ray blocked by vehicles "
      "only.\nSNLOS: direct ray blocked by a building (here, the kiosk).")
