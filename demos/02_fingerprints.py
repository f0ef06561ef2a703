"""From raw channel matrices to network-ready fingerprints.

Shows the three fingerprint kinds (angular-delay profile, spatial
covariance, re/im channel planes) and how sparse the ADP is: a single
on-grid path lands in exactly one angle/delay bin, and real links stay
concentrated in a handful of bins.
"""

import numpy as np

from semloc import features as F
from semloc.scenario import MpcSet, desk_scenario, generate_dataset, synth_cfr

sc = desk_scenario()

# --- single synthetic path, aligned with the DFT grids ------------------
df = sc.bandwidth / (sc.n_subcarriers - 1)
one_path = MpcSet(gains=np.array([1.0 + 0j]),
                  azimuths=np.array([np.pi / 6]),      # on an angle bin
                  elevations=np.array([np.pi / 2]),
                  delays=np.array([3.0 / (sc.n_subcarriers * df)]))  # bin 3
h = synth_cfr(one_path, sc, [len(one_path)])[0]  # one link's [M, K]
x = F.adp(h, sc.array)
print(f"one on-grid path: ADP shape {x.shape}, "
      f"{100 * x.max() / x.sum():.2f}% of the energy in one bin, "
      f"peak at (angle, delay) bin {np.unravel_index(x.argmax(), x.shape)}")

# --- real simulated links ------------------------------------------------
ds = generate_dataset(sc, n_scenes=2, seed=0)
print(f"\ndataset: {len(ds.labels)} links, CFR shape {ds.cfr.shape[1:]}")
for kind in (F.ADP, F.SCM, F.RCSI):
    fp = F.extract(ds.cfr[0], kind, sc.array)
    print(f"  {kind:5s} fingerprint shape {fp.shape}")

adp_all = F.adp(ds.cfr, sc.array)  # leading axes are batch axes
frac = np.sort(adp_all.reshape(len(adp_all), -1), axis=1)
top8 = frac[:, -8:].sum(axis=1) / frac.sum(axis=1)
print(f"\nreal links: top-8 of {adp_all[0].size} ADP bins hold "
      f"{100 * top8.mean():.1f}% of the energy on average (sparse input "
      f"-> small convnets suffice)")

# --- normalization -------------------------------------------------------
for scheme in (F.AW, F.SW, F.MW, F.NA):
    z = F.normalize(adp_all[:4], scheme)  # each sample on its own
    print(f"  norm {scheme:2s}: value range [{z.min():.3g}, {z.max():.3g}]")
