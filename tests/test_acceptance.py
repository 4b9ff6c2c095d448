"""Acceptance suite: twelve numbered criteria covering calibration,
error decomposition, rate-exponent reproduction, adaptive selection,
fixture soundness, and the concentration diagnostics.

Each test prints one pass/fail line into the terminal summary (see
conftest.acceptance_report). Monte-Carlo criteria use frozen seeds; the
slope windows and tolerances are part of the criterion statements.

Criterion 9 has two halves. The theory-constants half checks that the
vacuous theory threshold accepts the smoothest candidate. The practical
half (threshold constant C = 1) checks that the selected cut-off lands
within factor 4 of the best fixed cut-off of the candidate family, the
one with the smallest median MISE across the replicates (criterion 8
measures against the same reference). The Lepskii comparison subtracts
both candidates' expected noise energy from their squared distance;
without that offset the noise alone is about 32x the rate threshold at
n = 2^14 and the rule falls back to the roughest candidate. See README.
"""

import math

import numpy as np
import pytest

from privdens import fourier
from privdens.adaptive import PenaltyConfig, lepskii_select
from privdens.densities import (
    TrigDensity,
    make_packing_density,
    make_trig_density,
    midpoint_lattice,
    quadrature_mass,
    rejection_sample,
)
from privdens.estimator import fit
from privdens.experiments import (
    ExperimentConfig,
    mise,
    run_adaptivity_experiment,
    run_rate_experiment,
)
from privdens.fourier import CoefficientGrid
from privdens.privacy import (
    add_noise,
    coefficient_sensitivity,
    derived_rng,
    gaussian_sigma,
    sigma_for_cutoff,
)
from theory_checks import chi2_tail_check, risk_series_bound, risk_series_sum


def _beta1_fixture():
    return make_trig_density(1.0, 2.0, M_truth=32, d=1, rng=np.random.default_rng(11))


def _beta2_fixture():
    return make_trig_density(2.0, 2.0, M_truth=20, d=1, rng=np.random.default_rng(7))


# ---------------------------------------------------------------------------
# 1. noise calibration identity
# ---------------------------------------------------------------------------


def test_criterion_01_calibration_identity(acceptance_report):
    worst = 0.0
    for n in (1, 10, 100, 1000):
        for M in range(9):
            for d in (1, 2, 3):
                for rho in (0.01, 0.1, 1.0, 10.0):
                    direct = sigma_for_cutoff(n, rho, M, d)
                    composed = gaussian_sigma(coefficient_sensitivity(n, M, d), rho)
                    gap = abs(float(direct) - float(composed))
                    allowed = 2.0 * math.ulp(float(composed))
                    worst = max(worst, gap / allowed if allowed else 0.0)
    ok = worst <= 1.0
    acceptance_report(
        f"criterion 01 calibration identity: {'PASS' if ok else 'FAIL'} "
        f"(worst deviation {worst:.3f} of the 2-ulp allowance, 432 grid points)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. Parseval cross-check
# ---------------------------------------------------------------------------


def test_criterion_02_parseval_crosscheck(acceptance_report):
    rng = np.random.default_rng(2)
    pts = ((np.arange(4096) + 0.5) / 4096.0).reshape(-1, 1)
    grids = []
    for _ in range(20):
        M = int(rng.integers(0, 5))
        size = 2 * M + 1
        vals = 0.3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        grids.append(CoefficientGrid(1, M, vals))
    worst = 0.0
    for g in grids:
        quad = float(np.mean(np.abs(fourier.evaluate_complex(g, pts)) ** 2))
        worst = max(worst, abs(quad - float(np.sum(g.values.real**2 + g.values.imag**2))))
    for g1, g2 in zip(grids[0::2], grids[1::2]):
        f1 = fourier.evaluate_complex(g1, pts)
        f2 = fourier.evaluate_complex(g2, pts)
        quad = float(np.mean(np.abs(f1 - f2) ** 2))
        worst = max(worst, abs(quad - fourier.l2_distance_sq(g1, g2)))
    ok = worst <= 1e-6
    acceptance_report(
        f"criterion 02 Parseval vs quadrature: {'PASS' if ok else 'FAIL'} "
        f"(worst gap {worst:.3g}, allowance 1e-06, 20 grids + 10 pairs)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. bias bound on the beta=2 fixture
# ---------------------------------------------------------------------------


def test_criterion_03_bias_bound(acceptance_report):
    truth = _beta2_fixture()
    from privdens.densities import exact_bias

    worst = 0.0
    for M in range(17):
        bound = truth.L**2 / (2.0 * math.pi) ** 4 / (M + 1) ** 4
        worst = max(worst, exact_bias(truth, M) / bound)
    ok = worst <= 1.0
    acceptance_report(
        f"criterion 03 bias bound: {'PASS' if ok else 'FAIL'} "
        f"(worst bias/bound ratio {worst:.3f} over M=0..16)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. sampling variance bound
# ---------------------------------------------------------------------------


def test_criterion_04_variance_bound(acceptance_report):
    truth = TrigDensity.uniform(1)
    R = 500
    slack = 1.0 + 5.0 / math.sqrt(R)
    worst = 0.0
    lines = []
    for cell, (n, M) in enumerate(
        [(1000, 3), (1000, 7), (10_000, 3), (10_000, 7)]
    ):
        total = 0.0
        for rep in range(R):
            data = derived_rng(40, cell, rep).random((n, 1))
            total += mise(fit(data, M), truth)
        mean_err = total / R
        bound = (2 * M + 1) / n * slack
        worst = max(worst, mean_err / bound)
        lines.append(f"n={n} M={M}: {mean_err:.3g} vs {bound:.3g}")
    ok = worst <= 1.0
    acceptance_report(
        f"criterion 04 variance bound: {'PASS' if ok else 'FAIL'} "
        f"(worst mean/bound ratio {worst:.3f}; " + "; ".join(lines) + ")"
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. privacy noise variance
# ---------------------------------------------------------------------------


def test_criterion_05_noise_variance(acceptance_report):
    n, M, d, rho = 100, 2, 1, 0.5
    sigma = float(sigma_for_cutoff(n, rho, M, d))
    base = CoefficientGrid(d, M, np.zeros(2 * M + 1, dtype=complex))
    rng = derived_rng(50)
    sq = 0.0
    R = 10_000
    for _ in range(R):
        noisy = add_noise(base, sigma, rng)
        sq += float(np.mean(np.abs(noisy.values) ** 2))
    var = sq / R
    target = 2.0 * sigma * sigma
    rel = abs(var - target) / target
    ok = rel <= 0.05
    acceptance_report(
        f"criterion 05 noise variance: {'PASS' if ok else 'FAIL'} "
        f"(empirical {var:.6g} vs 2 sigma^2 = {target:.6g}, rel err {rel:.4f})"
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. sampling-regime rate slope
# ---------------------------------------------------------------------------


def test_criterion_06_sampling_regime_slope(acceptance_report):
    cfg = ExperimentConfig(
        density=_beta1_fixture().to_json_dict(),
        ns=[2**k for k in range(8, 16)],
        rhos=[10.0],
        mode="oracle",
        replicates=50,
        seed=60,
        d=1,
        beta=1.0,
    )
    res = run_rate_experiment(cfg)
    slope = res.slope.slope
    ok = -0.77 <= slope <= -0.57
    acceptance_report(
        f"criterion 06 sampling-regime slope: {'PASS' if ok else 'FAIL'} "
        f"(slope {slope:.4f} +- {res.slope.stderr:.4f} vs log n, window "
        f"[-0.77, -0.57], theory -2/3)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. privacy-regime rate slope
# ---------------------------------------------------------------------------


def test_criterion_07_privacy_regime_slope(acceptance_report):
    cfg = ExperimentConfig(
        density=_beta1_fixture().to_json_dict(),
        ns=[2**14],
        rhos=[2.0**-k for k in range(10, -1, -1)],
        mode="oracle",
        replicates=50,
        seed=70,
        d=1,
        beta=1.0,
    )
    res = run_rate_experiment(cfg)
    slope = res.slope.slope
    ok = -1.2 <= slope <= -0.8
    acceptance_report(
        f"criterion 07 privacy-regime slope: {'PASS' if ok else 'FAIL'} "
        f"(slope {slope:.4f} +- {res.slope.stderr:.4f} vs log(n sqrt(rho)), "
        f"window [-1.2, -0.8], theory -1)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. penalized-bias oracle inequality at desk scale
# ---------------------------------------------------------------------------


def test_criterion_08_penalized_bias_oracle_ratio(acceptance_report):
    cfg = ExperimentConfig(
        density=_beta2_fixture().to_json_dict(),
        ns=[2**14],
        rhos=[1.0],
        mode="penalized-bias",
        replicates=20,
        seed=80,
        d=1,
        beta=2.0,
    )
    res = run_adaptivity_experiment(cfg)
    cell = res.cells[0]
    ratio = cell["adaptive_median_mise"] / cell["best_fixed_median_mise"]
    ok = ratio <= 10.0
    acceptance_report(
        f"criterion 08 penalized-bias vs best fixed M: {'PASS' if ok else 'FAIL'} "
        f"(median ratio {ratio:.3f} <= 10, best fixed M = {cell['best_fixed_M']}, "
        f"selected {sorted(set(cell['selected_cutoffs']))})"
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Lepskii rule: practical constants and theory constants
# ---------------------------------------------------------------------------


def test_criterion_09a_lepskii_practical_window(acceptance_report):
    cfg = ExperimentConfig(
        density=_beta2_fixture().to_json_dict(),
        ns=[2**14],
        rhos=[1.0],
        mode="lepskii",
        replicates=50,
        seed=90,
        d=1,
        beta=2.0,
        constants={"mode": "practical", "C": 1.0, "a": 1.0, "eps": 0.5},
    )
    res = run_adaptivity_experiment(cfg)
    cell = res.cells[0]
    frac = cell["within_factor4_fraction"]
    ok = frac >= 0.6
    acceptance_report(
        f"criterion 09a Lepskii practical window: {'PASS' if ok else 'FAIL'} "
        f"(within-factor-4 fraction {frac:.2f} vs required 0.60; best fixed "
        f"M = {cell['best_fixed_M']}, nominal-beta split cut-off "
        f"{cell['oracle_split_cutoff']}, selected "
        f"{sorted(set(cell['selected_cutoffs']))})"
    )
    assert ok, (
        f"within-factor-4 fraction {frac:.2f} < 0.60 around best fixed "
        f"M = {cell['best_fixed_M']}; selected {sorted(set(cell['selected_cutoffs']))}"
    )


def test_criterion_09b_lepskii_theory_constants(acceptance_report):
    truth = _beta2_fixture()
    rng = np.random.default_rng(901)
    data = rejection_sample(truth, 2**14, rng)
    cfg = PenaltyConfig(mode="theory", eps=0.5, L=2.0)
    _est, trace = lepskii_select(data, 1.0, cfg, rng)
    ok = trace.selected_index == 0
    acceptance_report(
        f"criterion 09b Lepskii theory constants: {'PASS' if ok else 'FAIL'} "
        f"(selected index {trace.selected_index}, C = {trace.constants['C']:.0f}: "
        f"threshold exceeds any achievable distance at n = 2^14)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. packing fixture soundness
# ---------------------------------------------------------------------------


def test_criterion_10_packing_density(acceptance_report):
    rng = np.random.default_rng(100)
    lattice = midpoint_lattice(1)
    worst_mass = 0.0
    worst_min = math.inf
    for _ in range(5):
        theta = rng.integers(0, 2, size=4)
        f = make_packing_density(theta, 4, 1.0, d=1)
        worst_mass = max(worst_mass, abs(quadrature_mass(f) - 1.0))
        worst_min = min(worst_min, float(f.evaluate(lattice).min()))
    fh = make_packing_density(np.ones(4, dtype=int), 4, 1.0, d=1, floor_half=True)
    floor_min = float(fh.evaluate(lattice).min())
    ok = worst_mass <= 1e-6 and worst_min >= 0.0 and floor_min >= 0.5 - 1e-6
    acceptance_report(
        f"criterion 10 packing fixture: {'PASS' if ok else 'FAIL'} "
        f"(mass error {worst_mass:.2g}, lattice min {worst_min:.4f}, "
        f"halved-h min {floor_min:.4f} >= 0.5)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 11. candidate-grid risk series bound
# ---------------------------------------------------------------------------


def test_criterion_11_risk_series_bound(acceptance_report):
    worst = 0.0
    for d in (1, 2, 3):
        for n in (100, 10_000):
            for rho in (0.01, 1.0):
                s = risk_series_sum(n, rho, 0.5, d)
                b = risk_series_bound(n, rho, 0.5, d)
                worst = max(worst, s / b)
    ok = worst <= 1.0
    acceptance_report(
        f"criterion 11 risk series bound: {'PASS' if ok else 'FAIL'} "
        f"(worst sum/bound ratio {worst:.3f} over 12 settings)"
    )
    assert ok


# ---------------------------------------------------------------------------
# 12. chi-squared tail bound
# ---------------------------------------------------------------------------


def test_criterion_12_chi2_tail(acceptance_report):
    out1 = chi2_tail_check(10, 1.0, 10**5, rng=np.random.default_rng(120))
    out2 = chi2_tail_check(2, 4.0, 10**5, rng=np.random.default_rng(121))
    out3 = chi2_tail_check(5, 50.0, 10**5, rng=np.random.default_rng(122))
    ok = out1["ok"] and out2["ok"] and out3["ok"] and out3["empirical"] == 0.0
    acceptance_report(
        f"criterion 12 chi^2 tail bound: {'PASS' if ok else 'FAIL'} "
        f"(D=10 delta=1: {out1['empirical']:.4f} <= {out1['allowed']:.4f}; "
        f"D=2 delta=4: {out2['empirical']:.4f} <= {out2['allowed']:.4f}; "
        f"D=5 delta=50: empirical {out3['empirical']:.4f})"
    )
    assert ok
