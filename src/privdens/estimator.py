"""Non-adaptive private projection estimation.

fit() computes empirical Fourier coefficients up to a cut-off M and, when a
privacy budget is supplied, releases them through privacy._release, the
Gaussian mechanism at sigma_for_cutoff's scale. Expected squared error
decomposes as

    E ||f - f_hat_M||^2 <= ||f - f_M||^2 + (2M+1)^d / n + 2 (2M+1)^d sigma_M^2

(approximation bias, sampling variance, privacy noise).

Two tuned-cut-off conventions coexist in the literature behind this method
and they do not agree: one carries a 2^d factor inside the floors and
subtracts one, the other does not. The package tunes with the second,
optimal_cutoff_adaptive_form, in fixed fits, oracle sweeps and the adaptive
rules alike; the first lives in tests/theory_checks.py, where the tests pin
where the two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import privacy
from .fourier import (
    CoefficientGrid,
    _field,
    _integer,
    _is_finite,
    _is_int,
    _real,
    as_points,
    empirical_coefficients,
)

__all__ = [
    "ProjectionEstimate",
    "optimal_cutoff_adaptive_form",
    "fit",
    "theoretical_rate",
    "rate_regime",
]


def _floor_pow(base: float, exponent: float) -> int:
    """floor(base**exponent) robust to float rounding at integer boundaries.

    Values within a relative 1e-12 of an integer resolve upward; those are
    exactly the cases (like 512**(1/3)) where pow lands a few ulp under a
    mathematically exact integer.
    """
    if base <= 0.0:
        return 0
    x = base**exponent
    return int(math.floor(x * (1.0 + 1e-12)))


def _cutoff_args(n, beta, d) -> tuple[float, float, int]:
    # n is a real: the rate formulas are arithmetic in n
    return _real("n", n, 1), _real("beta", beta, 0, strict=True), _integer("d", d, 1)


def optimal_cutoff_adaptive_form(n: int, rho, beta: float, d: int) -> int:
    """Tuned cut-off, plain convention (no 2^d factor, no -1).

    M = min{ floor(n^(1/(2 beta+d))), floor((n sqrt(rho))^(1/(beta+d))) },
    clamped to 0. This is the form the adaptive selection rules use. With
    rho=None (not private) it is the sampling branch floor(n^(1/(2 beta+d))).
    """
    n, beta, d = _cutoff_args(n, beta, d)
    return _cutoff(n, None if rho is None else privacy.as_rho(rho), beta, d)


def _cutoff(n: float, rho: float | None, beta: float, d: int) -> int:
    """optimal_cutoff_adaptive_form on checked arguments, n a float."""
    samp = _floor_pow(n, 1.0 / (2.0 * beta + d))
    if rho is None:
        return samp
    priv = _floor_pow(n * math.sqrt(rho), 1.0 / (beta + d))
    return max(0, min(samp, priv))


@dataclass
class ProjectionEstimate:
    """A (possibly privately released) projection estimate.

    Fields
    ------
    coefficients : CoefficientGrid
        The released theta_hat values.
    n : int
        Sample size the estimate was fit on.
    sigma : float
        Per-coordinate noise scale actually applied (0 for non-private).
    rho_spent : float or None
        Total zCDP budget consumed producing this object; None means the
        release is not private. For a plain fit() this satisfies
        sigma == sigma_for_cutoff(n, rho_spent, M, d). Adaptive procedures
        spend their total across many candidates, so there rho_spent is the
        composed total while sigma reflects the per-candidate split recorded
        in the selection trace.
    ledger : BudgetLedger or None
        The ledger charged for this release, in memory only (None once loaded):
        a fit's own (empty without budget), else its selector's.
    """

    coefficients: CoefficientGrid
    n: int
    sigma: float = 0.0
    rho_spent: float | None = None
    ledger: privacy.BudgetLedger | None = field(default=None, repr=False, compare=False)

    @property
    def cutoff(self) -> int:
        return self.coefficients.cutoff

    @property
    def dim(self) -> int:
        return self.coefficients.dim

    def to_json_dict(self) -> dict:
        obj = self.coefficients.to_json_dict()
        obj.update(n=self.n, sigma=self.sigma, rho_spent=self.rho_spent)
        return obj

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ProjectionEstimate":
        grid = CoefficientGrid.from_json_dict(obj)
        try:
            n = _field(obj, "n", lambda v: _is_int(v) and v >= 1, "an integer >= 1")
        except KeyError as exc:
            raise ValueError(f"malformed estimate object: missing {exc}") from exc
        sigma = _field(
            obj, "sigma", lambda v: _is_finite(v) and v >= 0, "a finite number >= 0", 0.0
        )
        rho = _field(
            obj, "rho_spent", lambda v: v is None or (_is_finite(v) and v > 0),
            "null or a finite number > 0", None,
        )
        return cls(grid, n, float(sigma), None if rho is None else float(rho))


def _rate_branches(n: float, rho: float, beta: float, d: int) -> tuple[float, float]:
    """The sampling rate n^(-2b/(2b+d)) and the privacy rate
    (n sqrt(rho))^(-2b/(b+d)) that make up r_{n,rho}(beta), on checked arguments."""
    # -2b/(2b+d) and -2b/(b+d) to the bit, arranged so that no intermediate
    # overflows when b is near the float maximum
    sampling = n ** (-beta / (beta + d / 2.0))
    private = (n * math.sqrt(rho)) ** (-2.0 * (beta / (beta + d)))
    return sampling, private


def theoretical_rate(n: int, rho, beta: float, d: int) -> float:
    """r_{n,rho}(beta) = max{ n^(-2b/(2b+d)), (n sqrt(rho))^(-2b/(b+d)) }.

    The first branch is the classical sampling rate, the second the privacy
    rate; whichever is larger limits the achievable squared error.
    """
    n, beta, d = _cutoff_args(n, beta, d)
    return max(_rate_branches(n, privacy.as_rho(rho), beta, d))


def rate_regime(n: int, rho, beta: float, d: int) -> str:
    """Which branch of the rate is active: "sampling" or "privacy".
    Ties (within float equality) report "sampling"."""
    n, beta, d = _cutoff_args(n, beta, d)
    sampling, private = _rate_branches(n, privacy.as_rho(rho), beta, d)
    return "privacy" if private > sampling else "sampling"


def fit(
    data, cutoff: int, budget=None, rng: np.random.Generator | None = None
) -> ProjectionEstimate:
    """Fit the projection estimator at cut-off M, optionally privately.

    With budget=None the raw empirical coefficients are returned (sigma 0,
    rho_spent None, an empty ledger). With a budget, the checked rho goes to
    one privacy._release: the Gaussian mechanism at scale
    sigma_for_cutoff(n, rho, M, d), the full budget charged to the
    estimate's ledger as "fit (M=..., d=...)". rng is required exactly when
    a budget is given.
    """
    pts = as_points(data)
    n, d = pts.shape
    grid = empirical_coefficients(pts, cutoff)
    ledger = privacy.BudgetLedger()
    if budget is None:
        return ProjectionEstimate(grid, n, ledger=ledger)
    rho = privacy.as_rho(budget)
    if rng is None:
        raise ValueError("a seeded rng is required for a private fit")
    noisy, sigma = privacy._release(grid, n, rho, rng, ledger, f"fit (M={cutoff}, d={d})")
    return ProjectionEstimate(noisy, n, sigma=sigma, rho_spent=rho, ledger=ledger)
