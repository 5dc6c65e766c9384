"""Compare the two solvers on a random slab system.

The doubly periodic image-charge solver is the exact (O(N^2)) reference; the
padded-box solver reformulates its Fourier part as a triply periodic sum plus
the k=0-mode and inter-replica corrections.  With both corrections switched on
the two agree to machine precision -- switch either off to see what it pays for.
"""

from dataclasses import replace

import numpy as np

from slabwald import DielectricSpec, EwaldParams, energy_icm, solve
from slabwald.harness import gen_system

system = gen_system(seed=42, geometry=(10.0, 10.0, 1.0))
spec = DielectricSpec(gamma_u=0.6, gamma_d=0.6)

ref = energy_icm(system, spec, EwaldParams(alpha=0.6, s=6.0, L_z=2.0, M=30))
print(f"reference energy (doubly periodic, M=30): {ref.energy:.12f}")

params = EwaldParams(alpha=0.5, s=6.0, L_z=44.0, M=30)
for yb, elc in [(True, True), (True, False), (False, True)]:
    res = solve(system, spec, replace(params, include_yb=yb, include_elc=elc))
    de = abs(res.energy - ref.energy) / abs(ref.energy)
    df = np.abs(res.forces - ref.forces).max() / np.abs(ref.forces).max()
    label = f"yb={'on ' if yb else 'off'} elc={'on ' if elc else 'off'}"
    print(f"padded box {label}: dE = {de:.2e}   dF = {df:.2e}")

res = solve(system, spec, params)
print("\nenergy breakdown of the padded-box solve:")
for name, val in res.breakdown.items():
    print(f"  {name:10s} {val: .10f}")
