"""Why more image levels can hurt: the non-monotonic error landscape.

At gamma = 1 with thin padding, truncating the image series early leaves a
decaying truncation error, but every extra level amplifies the inter-replica
coupling the padding was supposed to suppress.  The measured force error
therefore has an interior minimum in M, tracked well by the sum of the two
closed-form estimates.
"""

import numpy as np

from slabwald.errors import elc_energy_estimate, image_truncation_force
from slabwald.harness import SweepConfig, run_sweep

GEOM = (10.0, 10.0, 0.5)
GAMMA = 1.0
P = 1.0  # padding ratio (L_z - H)/L_x
LZ = GEOM[2] + P * GEOM[0]

cfg = SweepConfig(scenario="landscape", geometry=GEOM, gamma_u=GAMMA,
                  gamma_d=GAMMA, sweep="M", grid=tuple(range(0, 23, 2)),
                  mode="ewald3d", quantity="force", P=P, seed=1)
rows = run_sweep(cfg)

print(f"gamma = {GAMMA}, H = {GEOM[2]}, L_z = {LZ} (P = {P})")
print(f"{'M':>3} {'measured':>12} {'truncation':>12} {'replica':>12}")
for r in rows:
    m = int(r.value)
    trunc = image_truncation_force(m, GAMMA, GAMMA, GEOM[2], *GEOM[:2])
    elc = elc_energy_estimate(m, GAMMA, GAMMA, GEOM[2], *GEOM[:2], LZ)
    print(f"{m:3d} {r.rel_err:12.3e} {trunc:12.3e} {elc:12.3e}")

errs = np.array([r.rel_err for r in rows])
best = rows[int(np.argmin(errs))]
print(f"\nbest truncation level: M = {int(best.value)} "
      f"(error {best.rel_err:.2e}) -- more levels only amplify the coupling")
