"""Reproduce the two minimax rate exponents with a small Monte-Carlo sweep.

Theory: MISE ~ max( n^(-2 beta/(2 beta + d)),  (n sqrt(rho))^(-2 beta/(beta + d)) ).
With beta = 1, d = 1 the exponents are -2/3 (sampling regime) and -1
(privacy regime). The acceptance suite runs this at R = 50 replicates;
here R = 10 keeps the demo under a minute.

Run:  python demos/03_rate_exponents.py
"""

from privdens import ExperimentConfig, run_rate_experiment
from privdens.densities import make_trig_density

truth = make_trig_density(1.0, 2.0, M_truth=32, d=1, rng=11)

print("sampling regime: rho = 10 fixed, n doubling")
cfg = ExperimentConfig(
    density=truth.to_json_dict(), ns=[2**k for k in range(8, 15)], rhos=[10.0],
    mode="oracle", replicates=10, seed=3, d=1, beta=1.0,
)
res = run_rate_experiment(cfg)
for cell in res.cells:
    print(f"  n = {cell['n']:>6}  mean MISE = {cell['mean_mise']:.4e}")
print(f"  fitted slope vs log n: {res.slope.slope:.3f} "
      f"+- {res.slope.stderr:.3f}   (theory -2/3)\n")

print("privacy regime: n = 2^14 fixed, rho doubling")
cfg = ExperimentConfig(
    density=truth.to_json_dict(), ns=[2**14], rhos=[2.0**-k for k in range(10, -1, -1)],
    mode="oracle", replicates=10, seed=4, d=1, beta=1.0,
)
res = run_rate_experiment(cfg)
for cell in res.cells:
    print(f"  rho = {cell['rho']:>12.6g}  mean MISE = {cell['mean_mise']:.4e}")
print(f"  fitted slope vs log(n sqrt(rho)): {res.slope.slope:.3f} "
      f"+- {res.slope.stderr:.3f}   (theory -1; flattens once sampling error")
print("  takes over at large rho, which pulls the small-R fit upward)")
