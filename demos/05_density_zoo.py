"""Tour of the ground-truth densities and the sampling machinery.

Run:  python demos/05_density_zoo.py
"""

import json

import numpy as np

from privdens import fit, rejection_sample
from privdens.densities import (
    ClippedDensity,
    density_from_json_dict,
    make_packing_density,
    make_trig_density,
    midpoint_lattice,
    quadrature_mass,
)

rng = np.random.default_rng(42)
lattice = midpoint_lattice(1)

# ------------------------------------------------------- trig fixture
trig = make_trig_density(1.5, 2.0, M_truth=8, d=1, rng=rng)
print("random trigonometric density")
print(f"  cutoff {trig.cutoff}, Sobolev budget {trig.sobolev_budget():.3f} "
      f"<= L^2 = {trig.L**2}")
print(f"  certified min {trig.min_value:.3f}, sup bound {trig.sup_bound:.3f}")
print(f"  quadrature mass {quadrature_mass(trig):.12f}\n")

# --------------------------------------------------- packing densities
theta = rng.integers(0, 2, size=4)
pack = make_packing_density(theta, 4, 1.0, d=1)
print(f"bump packing density, bits {theta.tolist()}")
print(f"  bump half-width 2h = {2 * pack.h}, amplitude {pack.amplitude:.3f}")
print(f"  mass {quadrature_mass(pack):.9f}, "
      f"lattice min {pack.evaluate(lattice).min():.4f}")
print(f"  per-bit squared distance {pack.bit_distance_sq():.3e}\n")

# --------------------------------------------- sampling and round trip
data = rejection_sample(trig, 50_000, np.random.default_rng(1))
est = fit(data, trig.cutoff)
err = np.abs(est.coefficients.values - trig.coefficients.values).max()
print("rejection sampling round trip")
print(f"  50k samples, worst coefficient error {err:.4f} "
      f"(concentration scale 4/sqrt(n) = {4 / np.sqrt(50_000):.4f})\n")

# -------------------------------------------- serialization round trip
blob = json.dumps(trig.to_json_dict())
back = density_from_json_dict(json.loads(blob))
same = np.array_equal(back.coefficients.values, trig.coefficients.values)
print(f"JSON round trip exact: {same}")

# ------------------------------- sampling from a noisy private release
private = fit(data, 8, 0.5, np.random.default_rng(2))
clipped = ClippedDensity(private)
fresh = rejection_sample(clipped, 5, np.random.default_rng(3))
print(f"5 fresh points from the clipped private estimate:\n{fresh.ravel()}")
