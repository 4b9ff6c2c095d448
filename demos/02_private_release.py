"""Release a density estimate under rho-zCDP and see what privacy costs.

The Gaussian mechanism perturbs every Fourier coefficient with noise
calibrated to the l2 sensitivity of the coefficient vector; smaller rho
(stronger privacy) means more noise and a coarser optimal cut-off.

Run:  python demos/02_private_release.py
"""

import numpy as np

from privdens import fit, mise, optimal_cutoff_adaptive_form, rejection_sample
from privdens.densities import make_trig_density
from privdens.privacy import sigma_for_cutoff

truth = make_trig_density(2.0, 2.0, M_truth=20, d=1, rng=7)
n = 8192
data = rejection_sample(truth, n, np.random.default_rng(1))

print(f"n = {n}, beta = 2 truth\n")
print(f"{'rho':>8} {'M*':>4} {'sigma_M':>11} {'MISE':>11}")
for rho in (1e-5, 1e-4, 1e-2, 1.0, float('inf')):
    if np.isinf(rho):
        M = optimal_cutoff_adaptive_form(n, 1e12, 2.0, 1)  # effectively non-private
        est = fit(data, M)
        print(f"{'none':>8} {M:>4} {0.0:>11.3e} {mise(est, truth):>11.3e}")
        continue
    M = optimal_cutoff_adaptive_form(n, rho, 2.0, 1)
    sigma = sigma_for_cutoff(n, rho, M, 1)
    est = fit(data, M, rho, np.random.default_rng(2))
    print(f"{rho:>8g} {M:>4} {sigma:>11.3e} {mise(est, truth):>11.3e}")

print("\nThe tuned cut-off shrinks as rho drops: with more noise per")
print("coefficient it pays to release fewer of them. est.rho_spent and the")
print("sigma recorded in the estimate JSON document the exact spend.")
