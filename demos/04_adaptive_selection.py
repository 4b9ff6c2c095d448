"""Data-driven cut-off selection when beta is unknown, under a privacy budget.

Two rules ship:

* penalized-bias: splits rho over a dyadic grid of cut-offs, estimates
  the bias of each against all larger models, and minimizes estimated
  bias plus a variance penalty. Works well at desk scale.
* Lepskii: walks a grid of candidate smoothness levels from smoothest to
  roughest and keeps the smoothest candidate that is statistically
  indistinguishable from all rougher ones. Each pairwise distance is
  compared after subtracting the two candidates' expected noise energy,
  which is public; without that offset the injected noise alone would
  reject every candidate but the roughest at desk-scale n (see the
  README's notes on acceptance criterion 9a).

Run:  python demos/04_adaptive_selection.py
"""

import numpy as np

from privdens import (
    fit,
    mise,
    optimal_cutoff_adaptive_form,
    penalized_bias_select,
    lepskii_select,
    rejection_sample,
)
from privdens.adaptive import PenaltyConfig
from privdens.densities import make_trig_density

truth = make_trig_density(2.0, 2.0, M_truth=20, d=1, rng=7)
n, rho = 2**14, 1.0
data = rejection_sample(truth, n, np.random.default_rng(5))

# ---------------------------------------------------------------- penalized
est, trace = penalized_bias_select(data, rho, rng=np.random.default_rng(6))
print("penalized-bias selection")
print(f"  grid of cut-offs: {trace.cutoffs}")
print(f"  estimated bias^2: {[f'{b:.2e}' for b in trace.evidence['bias_sq']]}")
print(f"  penalties Lambda^2: {[f'{l:.2e}' for l in trace.evidence['lambda2']]}")
print(f"  selected M = {trace.selected_cutoff}, rho spent = {trace.rho_spent}")
print(f"  MISE = {mise(est, truth):.3e}")

# oracle comparison: the tuned cut-off if beta were known
M_star = optimal_cutoff_adaptive_form(n, rho, truth.beta, 1)
oracle = fit(data, M_star, rho, np.random.default_rng(7))
print(f"  oracle (beta known): M = {M_star}, MISE = {mise(oracle, truth):.3e}\n")

# ------------------------------------------------------------------ lepskii
cfg = PenaltyConfig(mode="practical")
est2, trace2 = lepskii_select(data, rho, cfg, np.random.default_rng(8))
print("Lepskii selection (C = 1)")
print(f"  beta grid size k_n = {len(trace2.evidence['betas'])}, "
      f"rho per candidate = {trace2.rho_per_candidate:.2e}")
print(f"  selected index {trace2.selected_index} "
      f"-> M = {trace2.selected_cutoff}, MISE = {mise(est2, truth):.3e}")
print("  (the full comparison table lives in trace2.evidence['distances'] and")
print("   trace2.evidence['thresholds']; trace2.replay() re-verifies the decision)")
