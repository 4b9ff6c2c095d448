"""Non-adaptive private projection estimation.

fit() computes empirical Fourier coefficients up to a cut-off M and, when a
privacy budget is supplied, releases them through the Gaussian mechanism
calibrated by privacy.sigma_for_cutoff. Expected squared error decomposes
as

    E ||f - f_hat_M||^2 <= ||f - f_M||^2 + (2M+1)^d / n + 2 (2M+1)^d sigma_M^2

(approximation bias, sampling variance, privacy noise).

Two tuned-cut-off conventions coexist in the literature behind this method
and they do not agree: one carries a 2^d factor inside the floors and
subtracts one, the other does not. Both are implemented, named, and left
unreconciled; callers state which they use. The adaptive machinery is built
on the second form.
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
    "optimal_cutoff_thm",
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


def optimal_cutoff_thm(n: int, rho, beta: float, d: int) -> int:
    """Tuned cut-off, 2^d-factor convention.

    M + 1 = min{ floor((n/2^d)^(1/(2 beta+d))),
                 floor((n sqrt(rho)/2^d)^(1/(beta+d))) },
    returned as M, clamped to 0 when the floor drops below 1.
    """
    n, beta, d = _cutoff_args(n, beta, d)
    rho_v = privacy.as_rho(rho)
    scale = float(2**d)
    samp = _floor_pow(n / scale, 1.0 / (2.0 * beta + d))
    priv = _floor_pow(n * math.sqrt(rho_v) / scale, 1.0 / (beta + d))
    return max(0, min(samp, priv) - 1)


def optimal_cutoff_adaptive_form(n: int, rho, beta: float, d: int) -> int:
    """Tuned cut-off, plain convention (no 2^d factor, no -1).

    M = min{ floor(n^(1/(2 beta+d))), floor((n sqrt(rho))^(1/(beta+d))) },
    clamped to 0. This is the form the adaptive selection rules use. With
    rho=None (not private) it is the sampling branch floor(n^(1/(2 beta+d))).
    """
    n, beta, d = _cutoff_args(n, beta, d)
    samp = _floor_pow(n, 1.0 / (2.0 * beta + d))
    if rho is None:
        return samp
    priv = _floor_pow(n * math.sqrt(privacy.as_rho(rho)), 1.0 / (beta + d))
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


def _rate_branches(n: int, rho, beta: float, d: int) -> tuple[float, float]:
    """The sampling rate n^(-2b/(2b+d)) and the privacy rate
    (n sqrt(rho))^(-2b/(b+d)) that make up r_{n,rho}(beta)."""
    n, beta, d = _cutoff_args(n, beta, d)
    rho_v = privacy.as_rho(rho)
    # -2b/(2b+d) and -2b/(b+d) to the bit, arranged so that no intermediate
    # overflows when b is near the float maximum
    sampling = n ** (-beta / (beta + d / 2.0))
    private = (n * math.sqrt(rho_v)) ** (-2.0 * (beta / (beta + d)))
    return sampling, private


def theoretical_rate(n: int, rho, beta: float, d: int) -> float:
    """r_{n,rho}(beta) = max{ n^(-2b/(2b+d)), (n sqrt(rho))^(-2b/(b+d)) }.

    The first branch is the classical sampling rate, the second the privacy
    rate; whichever is larger limits the achievable squared error.
    """
    return max(_rate_branches(n, rho, beta, d))


def rate_regime(n: int, rho, beta: float, d: int) -> str:
    """Which branch of the rate is active: "sampling" or "privacy".
    Ties (within float equality) report "sampling"."""
    sampling, private = _rate_branches(n, rho, beta, d)
    return "privacy" if private > sampling else "sampling"


def _release(grid, n, rho, rng, ledger, label) -> ProjectionEstimate:
    """The Gaussian release of grid: noise at sigma_for_cutoff(n, rho, M, d),
    drawn through privacy.add_noise and charged rho to ledger as label."""
    sigma = privacy.sigma_for_cutoff(n, rho, grid.cutoff, grid.dim)
    noisy = privacy.add_noise(grid, sigma, rng)
    ledger.charge(label, rho)
    return ProjectionEstimate(noisy, n, sigma=sigma, rho_spent=rho, ledger=ledger)


def fit(
    data, cutoff: int, budget=None, rng: np.random.Generator | None = None
) -> ProjectionEstimate:
    """Fit the projection estimator at cut-off M, optionally privately.

    With budget=None the raw empirical coefficients are returned (sigma 0,
    rho_spent None, an empty ledger). With a budget, the Gaussian mechanism
    is applied at scale sigma_for_cutoff(n, rho, M, d) and the full budget
    is charged to the estimate's ledger as "fit (M=..., d=...)". rng is
    required exactly when a budget is given.
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
    return _release(grid, n, rho, rng, ledger, f"fit (M={cutoff}, d={d})")
