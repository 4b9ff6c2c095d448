"""zCDP budget arithmetic and the Gaussian mechanism for coefficient release.

Sensitivity calculus
--------------------
One data point changes each empirical coefficient theta_k by at most 2/n in
modulus (each summand has modulus 1/n and one summand changes). Stacking the
real and imaginary parts of all (2M+1)^d coefficients into one vector, the
l2 sensitivity of the release is

    Delta_2 = (2/n) * sqrt(2 (2M+1)^d).

The Gaussian mechanism with per-coordinate scale sigma = Delta_2 / sqrt(2 rho)
is rho-zCDP, which gives the closed form

    sigma_M = 2 sqrt((2M+1)^d) / (n sqrt(rho)).

Both routes are implemented separately (coefficient_sensitivity passed to
gaussian_sigma, and sigma_for_cutoff) and the test suite checks they agree to
a couple of ulp; do not collapse one into the other. _release, the one
function that calibrates, draws and charges, uses the closed form.

Arguments follow fourier._integer and _real: budgets and scales are finite
Python or NumPy reals, a budget > 0 and a scale >= 0; n, M, d and the seeds of
derived_rng are integers. A bool or a string is refused, never coerced. zCDP
parameters add under composition, so a BudgetLedger's total is their sum.

RNG contract
------------
All randomness flows through numpy Generators. Noise draws are consumed in
lexicographic multi-index order, real part before imaginary part, so a fixed
seed reproduces a release bit for bit. Replicated experiments derive one
generator per replicate via `derived_rng(seed, *indices)`, which feeds the
integer tuple through numpy's SeedSequence entropy mixing; generators are
never shared across replicates.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import CoefficientGrid, _cube, _integer, _real

__all__ = [
    "BudgetLedger",
    "coefficient_sensitivity",
    "gaussian_sigma",
    "sigma_for_cutoff",
    "add_noise",
    "derived_rng",
    "as_rho",
]


def as_rho(budget) -> float:
    """A zCDP budget as a float, rejected unless a finite real > 0."""
    return _real("rho", budget, 0, strict=True)


def coefficient_sensitivity(n: int, cutoff: int, dim: int) -> float:
    """l2 sensitivity of the stacked real/imaginary coefficient vector.

    (2/n) * sqrt(2 (2M+1)^d): swapping one of n points moves each complex
    coefficient by at most 2/n, across (2M+1)^d coefficients with two real
    coordinates each.
    """
    n = _integer("n", n, 1)
    _, _, size = _cube(cutoff, dim)  # refuses a cube no grid holds, which overflows a float
    return (2.0 / n) * math.sqrt(2.0 * size)


def gaussian_sigma(sensitivity, budget) -> float:
    """Gaussian-mechanism scale Delta_2 / sqrt(2 rho) for a rho-zCDP release."""
    sens = _real("sensitivity", sensitivity, 0)
    rho = as_rho(budget)
    return sens / math.sqrt(2.0 * rho)


def sigma_for_cutoff(n: int, budget, cutoff: int, dim: int) -> float:
    """Closed-form noise scale 2 sqrt((2M+1)^d) / (n sqrt(rho)).

    Algebraically identical to
    gaussian_sigma(coefficient_sensitivity(n, cutoff, dim), rho); kept as an
    independent computation so the two can be cross-checked.
    """
    n = _integer("n", n, 1)
    _, _, size = _cube(cutoff, dim)
    return _sigma(n, size, as_rho(budget))


def _sigma(n: int, size: int, rho: float) -> float:
    """sigma_for_cutoff's formula on checked arguments, size = (2M+1)^d."""
    return 2.0 * math.sqrt(size) / (n * math.sqrt(rho))


def _release(grid: CoefficientGrid, n: int, rho: float, rng: np.random.Generator,
             ledger: BudgetLedger, label: str) -> tuple[CoefficientGrid, float]:
    """Every release, on arguments its caller checked: one add_noise draw at
    _sigma(n, grid.size, rho), charged once to ledger as (label, rho).
    Returns the noisy grid and its sigma."""
    sigma = _sigma(n, grid.size, rho)
    noisy = add_noise(grid, sigma, rng)  # the global name: a patched add_noise sees the draw
    ledger.charge(label, rho)
    return noisy, sigma


def add_noise(grid: CoefficientGrid, sigma, rng: np.random.Generator) -> CoefficientGrid:
    """Release theta_k + sigma (N(0,1) + i N(0,1)) for every coefficient.

    Draws are consumed in lexicographic coefficient order, real part first.
    They are consumed even when sigma == 0 so that the generator state after
    the call does not depend on the scale; with sigma == 0 the output values
    equal the input exactly.
    """
    s = _real("sigma", sigma, 0)
    draws = rng.standard_normal((grid.size, 2))
    noisy = grid.values + s * (draws[:, 0] + 1j * draws[:, 1])
    return CoefficientGrid(grid.dim, grid.cutoff, noisy)


def derived_rng(seed: int, *indices: int) -> np.random.Generator:
    """One generator per (seed, index...) tuple.

    Mixing function: numpy SeedSequence entropy hashing of the integer tuple.
    Distinct tuples give statistically independent streams; the same tuple
    always gives the same stream. Seed and indices are integers >= 0.
    """
    entropy = [_integer("seed", seed, 0), *(_integer("indices", i, 0) for i in indices)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class BudgetLedger:
    """Append-only record of budget charges for one released artifact.

    The library's rule is that nothing leaves with unrecorded budget: every
    mechanism invocation appends an entry, and the total must match the
    caller's declared spend.
    """

    def __init__(self):
        self.entries: list[tuple[str, float]] = []

    def charge(self, label: str, budget) -> None:
        self.entries.append((str(label), as_rho(budget)))

    @property
    def spent(self) -> float:
        return float(sum(rho for _, rho in self.entries))

    def to_json_dict(self) -> dict:
        return {"entries": [[label, rho] for label, rho in self.entries], "spent": self.spent}

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"BudgetLedger(spent={self.spent!r}, entries={len(self.entries)})"
