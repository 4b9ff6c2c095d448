"""Tests for the non-adaptive private projection estimator: both cut-off
conventions, the fit path, rate evaluation, and a Monte-Carlo check of the
bias-variance decomposition against the uniform truth (whose bias is zero,
so the bound reduces to pure variance arithmetic).
"""

import json
import math

import numpy as np
import pytest

from privdens import privacy
from privdens.estimator import (
    ProjectionEstimate,
    fit,
    optimal_cutoff_adaptive_form,
    rate_regime,
    theoretical_rate,
)
from privdens.fourier import empirical_coefficients, l2_distance_sq
from privdens.privacy import add_noise, sigma_for_cutoff
from theory_checks import optimal_cutoff_thm


# ---------------------------------------------------------------------------
# cut-off formulas
# ---------------------------------------------------------------------------


def test_cutoff_thm_examples():
    # min{floor(512^(1/3)), floor(512^(1/2))} = min{8, 22} = 8, minus 1
    assert optimal_cutoff_thm(1024, 1.0, 1.0, 1) == 7
    assert optimal_cutoff_thm(2, 1e-6, 2.0, 1) == 0
    # privacy branch: floor(sqrt(1e6 * 1e-2 / 2)) = floor(sqrt(5000)) = 70
    assert optimal_cutoff_thm(10**6, 1e-4, 1.0, 1) == 69


def test_cutoff_adaptive_form_examples():
    assert optimal_cutoff_adaptive_form(1024, 1.0, 1.0, 1) == 10
    # n = e^2: n^(1/(2 beta + 1)) -> 1+ for large beta, floor stays 1
    for beta in (10.0, 50.0, 500.0):
        assert optimal_cutoff_adaptive_form(math.e**2, 1.0, beta, 1) == 1


def test_cutoff_adaptive_form_without_privacy_is_the_sampling_branch():
    # rho=None keeps floor(n^(1/(2 beta + d))) alone: floor(1024^(1/3)) = 10
    assert optimal_cutoff_adaptive_form(1024, None, 1.0, 1) == 10
    assert optimal_cutoff_adaptive_form(1024, 1e-6, 1.0, 1) < 10
    for beta in (0.0, -0.5, -3.0):
        with pytest.raises(ValueError, match="beta must be > 0"):
            optimal_cutoff_adaptive_form(1024, None, beta, 1)
    # every other user of the cut-off checks still refuses a missing budget
    for call in (optimal_cutoff_thm, theoretical_rate, rate_regime):
        with pytest.raises(ValueError, match="rho must be a finite number, got None"):
            call(1024, None, 1.0, 1)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, True,
                                  pytest.param(10**400, id="huge-int")])
def test_cutoff_and_rate_beta_must_be_finite(beta):
    for call in (optimal_cutoff_adaptive_form, optimal_cutoff_thm, theoretical_rate):
        with pytest.raises(ValueError, match="beta must be a finite number"):
            call(1024, 1.0, beta, 1)


def test_cutoff_conventions_differ():
    # same inputs, different conventions: 10 vs 7 (documented, unreconciled)
    n, rho, beta, d = 1024, 1.0, 1.0, 1
    assert optimal_cutoff_adaptive_form(n, rho, beta, d) == 10
    assert optimal_cutoff_thm(n, rho, beta, d) == 7
    assert optimal_cutoff_adaptive_form(n, rho, beta, d) != optimal_cutoff_thm(n, rho, beta, d)


def test_cutoff_thm_monotone_in_n_and_rho():
    cuts_n = [optimal_cutoff_thm(n, 1.0, 1.0, 1) for n in (2, 8, 64, 512, 4096, 32768)]
    assert all(a <= b for a, b in zip(cuts_n, cuts_n[1:]))
    cuts_r = [optimal_cutoff_thm(10**5, r, 1.0, 1) for r in (1e-8, 1e-6, 1e-4, 1e-2, 1.0)]
    assert all(a <= b for a, b in zip(cuts_r, cuts_r[1:]))


def test_cutoff_exact_power_floor():
    # 512^(1/3) must floor to 8, not 7, despite binary rounding
    assert optimal_cutoff_adaptive_form(512, 1.0, 1.0, 1) == 8


def test_cutoff_validation():
    with pytest.raises(ValueError):
        optimal_cutoff_thm(0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        optimal_cutoff_thm(10, -1.0, 1.0, 1)
    with pytest.raises(ValueError):
        optimal_cutoff_thm(10, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        optimal_cutoff_adaptive_form(10, 1.0, 1.0, 0)


# ---------------------------------------------------------------------------
# rate formula
# ---------------------------------------------------------------------------


def test_rate_example_sampling_regime():
    assert theoretical_rate(100, 1.0, 1.0, 1) == pytest.approx(0.046416, rel=1e-4)
    assert rate_regime(100, 1.0, 1.0, 1) == "sampling"


def test_rate_large_rho_is_sampling_term():
    for n in (10, 1000, 10**6):
        r = theoretical_rate(n, 1e12, 1.0, 1)
        assert r == pytest.approx(n ** (-2.0 / 3.0), rel=1e-12)
        assert rate_regime(n, 1e12, 1.0, 1) == "sampling"


def test_rate_for_beta_near_float_max_is_its_limit():
    # beta -> inf gives max(1/n, 1/(n^2 rho)); forming 2 beta overflowed into NaN
    for beta in (1e308, 1.7976931348623157e308):
        assert theoretical_rate(100, 1.0, beta, 1) == pytest.approx(0.01, rel=1e-12)
        assert theoretical_rate(100, 1e-3, beta, 1) == pytest.approx(0.1, rel=1e-12)
        assert rate_regime(100, 1e-3, beta, 1) == "privacy"


def test_rate_regime_boundary():
    # both terms coincide at rho = n^(-2 beta / (2 beta + d))
    for n in (100, 10**4, 10**6):
        for beta in (0.5, 1.0, 2.0):
            for d in (1, 2):
                rho_star = float(n) ** (-2.0 * beta / (2.0 * beta + d))
                samp = float(n) ** (-2.0 * beta / (2.0 * beta + d))
                priv = (n * math.sqrt(rho_star)) ** (-2.0 * beta / (beta + d))
                assert samp == pytest.approx(priv, rel=1e-12)
                # below the boundary the privacy term dominates
                assert rate_regime(n, rho_star * 1e-2, beta, d) == "privacy"


def test_rate_monotonicity():
    rs_n = [theoretical_rate(n, 0.1, 1.0, 1) for n in (10, 100, 1000, 10**4)]
    assert all(a > b for a, b in zip(rs_n, rs_n[1:]))
    rs_rho = [theoretical_rate(1000, r, 1.0, 1) for r in (1e-6, 1e-4, 1e-2, 1.0)]
    assert all(a >= b for a, b in zip(rs_rho, rs_rho[1:]))
    # strictly decreasing in beta for n >= 3, rho <= 1
    rs_b = [theoretical_rate(1000, 0.5, b, 1) for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(rs_b, rs_b[1:]))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_non_private_is_exact_empirical():
    rng = np.random.default_rng(1)
    data = rng.random((128, 1))
    est = fit(data, 4)
    grid = empirical_coefficients(data, 4)
    assert np.array_equal(est.coefficients.values, grid.values)
    assert est.sigma == 0.0
    assert est.rho_spent is None
    assert est.cutoff == 4
    assert est.n == 128


def test_fit_private_records_sigma_formula():
    rng = np.random.default_rng(2)
    data = rng.random((500, 2))
    est = fit(data, 2, budget=0.8, rng=np.random.default_rng(3))
    assert est.rho_spent == pytest.approx(0.8)
    assert est.sigma == pytest.approx(float(sigma_for_cutoff(500, 0.8, 2, 2)), rel=1e-15)


def test_fit_private_requires_rng():
    data = np.random.default_rng(4).random((10, 1))
    with pytest.raises(ValueError):
        fit(data, 1, budget=1.0)


def test_fit_empty_data_rejected():
    with pytest.raises(ValueError):
        fit(np.empty((0, 1)), 1)
    # a bool cut-off would be written as "M": true, which no loader reads
    with pytest.raises(ValueError, match="cutoff must be an integer"):
        fit(np.full((4, 1), 0.5), True, 1.0, np.random.default_rng(0))


def test_fit_zero_noise_path_equals_non_private():
    # budget=None plus a zero-sigma mechanism pass must reproduce the
    # non-private coefficients bit for bit
    rng = np.random.default_rng(6)
    data = rng.random((64, 1))
    plain = fit(data, 3)
    noised = add_noise(plain.coefficients, 0.0, np.random.default_rng(7))
    assert np.array_equal(noised.values, plain.coefficients.values)


def test_fit_deterministic():
    data = np.random.default_rng(8).random((100, 1))
    e1 = fit(data, 3, budget=1.0, rng=np.random.default_rng(9))
    e2 = fit(data, 3, budget=1.0, rng=np.random.default_rng(9))
    assert np.array_equal(e1.coefficients.values, e2.coefficients.values)


def test_estimate_json_roundtrip():
    data = np.random.default_rng(10).random((32, 1))
    est = fit(data, 2, budget=0.5, rng=np.random.default_rng(11))
    doc = est.to_json_dict()
    back = ProjectionEstimate.from_json_dict(doc)
    assert np.array_equal(back.coefficients.values, est.coefficients.values)
    assert back.n == est.n
    assert back.sigma == est.sigma
    assert back.rho_spent == est.rho_spent
    # non-private round-trip keeps rho_spent=None
    plain = fit(data, 2)
    back2 = ProjectionEstimate.from_json_dict(plain.to_json_dict())
    assert back2.rho_spent is None
    # a NumPy integer cut-off is stored as a Python int, so the document dumps
    doc = json.loads(json.dumps(fit(data, np.int64(2)).to_json_dict()))
    assert doc == plain.to_json_dict()


def test_bias_variance_bound_uniform_truth():
    # Lemma-style decomposition, Monte-Carlo side: for uniform truth the
    # bias vanishes and E||f_hat - f||^2 <= (2M+1)/n + 2(2M+1) sigma^2.
    # The Monte-Carlo mean may exceed it only by sampling error (5/sqrt(R)).
    n, M, rho, R = 10_000, 3, 1.0, 500
    sigma = float(sigma_for_cutoff(n, rho, M, 1))
    bound = (2 * M + 1) / n + 2 * (2 * M + 1) * sigma**2
    rng = np.random.default_rng(1234)
    truth_vals = np.zeros(2 * M + 1, dtype=complex)
    truth_vals[M] = 1.0
    errs = np.empty(R)
    for r in range(R):
        data = rng.random((n, 1))
        est = fit(data, M, budget=rho, rng=rng)
        diff = est.coefficients.values - truth_vals
        errs[r] = float(np.sum(diff.real**2 + diff.imag**2))
    assert errs.mean() <= bound * (1.0 + 5.0 / math.sqrt(R))


def test_fit_carries_its_ledger():
    data = np.random.default_rng(5).random((200, 1))
    est = fit(data, 4, 0.5, np.random.default_rng(6))
    assert est.ledger.entries == [("fit (M=4, d=1)", 0.5)]
    assert est.ledger.spent == est.rho_spent
    assert len(fit(data, 4).ledger) == 0  # no budget, no charge
    doc = est.to_json_dict()
    assert "ledger" not in doc  # in memory only; the JSON is unchanged
    assert ProjectionEstimate.from_json_dict(doc).ledger is None


def test_selected_estimate_carries_the_selectors_ledger():
    from privdens.adaptive import lepskii_select, penalized_bias_select

    data = np.random.default_rng(7).random((300, 1))
    for select in (lepskii_select, penalized_bias_select):
        est, trace = select(data, 1.0, rng=np.random.default_rng(8))
        assert est.ledger is trace.ledger
        assert est.ledger.spent == pytest.approx(est.rho_spent, rel=1e-12)
        assert all(c.ledger is trace.ledger for c in trace.candidates)
