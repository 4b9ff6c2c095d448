"""Numerical checks of two bounds behind the Lepskii rule's analysis.

Neither is part of the estimator: acceptance criteria 11 and 12 and their
unit tests import them from here.

* risk_series_sum and risk_series_bound: the sum of the rate over the
  Lepskii candidate grid and its proven cap (criterion 11).
* chi2_tail_check: a Monte-Carlo check of the chi-squared tail bound
  (criterion 12).
"""

import math

import numpy as np

from privdens.adaptive import build_beta_grid
from privdens.estimator import theoretical_rate
from privdens.privacy import as_rho


def risk_series_sum(n, rho, eps: float, d: int) -> float:
    """sum_{l=0}^{k_n} r_{n,rho'_n}(beta_l) over the grid plus its beta = 0
    endpoint (where the rate is 1)."""
    rho_v = as_rho(rho)
    ln = math.log(n)
    rho_prime = rho_v * eps / (ln * ln)
    return sum(theoretical_rate(n, rho_prime, beta, d) for beta in build_beta_grid(n, eps)) + 1.0


def risk_series_bound(n: int, rho, eps: float, d: int) -> float:
    """4 (2+d) eps^{-1} (log n)^2 (rho'_n^{-1/(1+d)} + 2), the proven cap on
    risk_series_sum for eps <= 1/2."""
    rho_v = as_rho(rho)
    ln = math.log(n)
    rho_prime = rho_v * eps / (ln * ln)
    return 4.0 * (2.0 + d) / eps * ln * ln * (rho_prime ** (-1.0 / (1.0 + d)) + 2.0)


def chi2_tail_check(D: int, delta: float, R: int, rng=None, sigma: float = 1.0) -> dict:
    """Empirical check of the chi-squared tail bound.

    Simulates Z = sigma^2 chi^2_D and compares the frequency of
    Z >= (1+delta) D sigma^2 against max(exp(-D delta^2/4), exp(-D delta/2))
    plus a Monte-Carlo margin of 4 sqrt(bound/R) + 4/R. Raises
    AssertionError when the frequency exceeds the allowance.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if R < 10**4:
        raise ValueError("R must be >= 10^4 for a meaningful tail estimate")
    rng = np.random.default_rng(rng)
    z = sigma * sigma * rng.chisquare(D, size=R)
    threshold = (1.0 + delta) * D * sigma * sigma
    empirical = float(np.mean(z >= threshold))
    bound = max(math.exp(-D * delta * delta / 4.0), math.exp(-D * delta / 2.0))
    allowed = bound + 4.0 * math.sqrt(bound / R) + 4.0 / R
    result = {
        "empirical": empirical,
        "bound": bound,
        "allowed": allowed,
        "ok": empirical <= allowed,
    }
    if not result["ok"]:
        raise AssertionError(
            f"chi^2 tail frequency {empirical} exceeds allowance {allowed} "
            f"(bound {bound}, D={D}, delta={delta}, R={R})"
        )
    return result
