"""Privacy-aware data-driven cut-off selection.

Two rules are implemented.

Lepskii risk penalization
    A grid of candidate smoothness values beta_0 > ... > beta_{k_n-1} is
    built from the sample size alone. One private estimator is fit per
    candidate, each at the tuned cut-off for its beta and each charged an
    equal budget share rho'_n = min(rho eps / (log n)^2, rho / k_n), so the
    composed spend k_n rho'_n never exceeds rho. The selected index is the
    smallest m whose estimator is within the penalized risk threshold

        C (log n)^a r_{n,rho'_n}(beta_l)

    of every rougher candidate l >= m. The distance compared is the squared
    L2 distance (Parseval) minus the expected energy of the two candidates'
    injected noise, 2 sigma_m^2 K_m + 2 sigma_l^2 K_l with K = (2M+1)^d.
    That offset is public and data-independent, so subtracting it costs no
    budget; without it the noise alone exceeds the threshold at any
    practical n and every candidate but the roughest is rejected.

Penalized estimated bias
    Over an explicit cut-off grid (dyadic by default), each candidate M gets
    an equal share rho' = rho / |grid|. The squared bias of f_hat_M is
    estimated by comparing its projections against every other candidate,
    each comparison discounted by a variance penalty Lambda^(1); selection
    minimizes estimated bias plus Lambda^(2). Ties break to the smallest M.

Both rules run one driver, _select. It cuts each candidate's cube from the
master coefficients by one column map, fourier._within, releases every
candidate (so every call is private and needs a seeded generator) into one
candidate matrix and picks the winner with the rule's decision on what the
rule's score measured on it, the same code SelectionTrace.replay() runs.
Both return the chosen estimate and a SelectionTrace of the release and the
rule's evidence, so the choice can be replayed and audited offline. More than
_MAX_CANDIDATES Lepskii candidates, or more than fourier._MAX_COEFFICIENTS
coefficients over all candidates, are refused before any noise is drawn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import privacy
from .estimator import (
    ProjectionEstimate,
    _release,
    optimal_cutoff_adaptive_form,
    theoretical_rate,
)
from .fourier import (
    CoefficientGrid,
    _MAX_COEFFICIENTS,
    _capped,
    _cube,
    _integer,
    _is_int,
    _real,
    _require,
    _within,
    as_points,
    empirical_coefficients,
)

# Most Lepskii candidates released: their float Gram matrix and pairwise
# distances are 2^24 float64s (128 MiB) each.
_MAX_CANDIDATES = 2**12

__all__ = [
    "PenaltyConfig",
    "SelectionTrace",
    "build_beta_grid",
    "lepskii_select",
    "penalty_lambda1",
    "penalty_lambda2",
    "dyadic_cutoff_grid",
    "penalized_bias_select",
]


def build_beta_grid(n, eps: float) -> tuple[float, ...]:
    """Candidate smoothness grid: k_n = floor((log n)^2 / eps) values
    descending from k_n eps / log n in steps of eps / log n.

    n may be any real >= 3; sample sizes are integers in practice but the
    grid is pure arithmetic in log n. More than _MAX_CANDIDATES values are
    refused."""
    ln = math.log(_real("n", n, 3))
    eps = _real("eps", eps, 0, strict=True)
    # Tolerant floor: mathematically integer arguments (n = e^2 and friends)
    # land a few ulp low and must not lose a grid point.
    size = (ln * ln / eps) * (1.0 + 1e-12)
    if size >= _MAX_CANDIDATES + 1:
        raise ValueError(
            f"eps = {eps} at n = {n} gives more than the {_MAX_CANDIDATES} "
            "Lepskii candidates this package releases"
        )
    k_n = max(1, int(math.floor(size)))
    step = eps / ln
    return tuple((k_n - m) * step for m in range(k_n))


def _lepskii_budget(n, rho: float, eps: float) -> tuple[tuple[float, ...], float]:
    """The Lepskii beta grid and the budget rho'_n = min(rho eps / (log n)^2,
    rho / k_n) each of its k_n candidates is released at."""
    betas = build_beta_grid(n, eps)
    ln = math.log(n)
    # k_n is clamped up to 1 when eps > (log n)^2; rho / k_n caps the total at rho
    return betas, min(rho * eps / (ln * ln), rho / len(betas))


@dataclass(frozen=True)
class PenaltyConfig:
    """Constants of the Lepskii threshold C (log n)^a r_{n,rho'}(beta).

    mode="theory" uses C = max(8 L^2, 2^(2d+9)) unless C is supplied, and
    insists on a >= 1; those are the hypotheses under which the selection
    rule carries a guarantee, and resolved_C(d) checks them. The theory
    constants make the threshold vacuous at desk scale (every candidate is
    accepted, the rule returns index 0), so mode="practical" (default
    C = 1) exists for experiments; every trace records which mode produced
    it. Both modes compare the same noise-corrected distances; only C and
    the checks on a differ.
    C (when given), a, eps and L must be finite real numbers; a bool, a
    string, NaN or an infinity is rejected with a ValueError naming it.
    """

    MODES = ("practical", "theory")  # unannotated: a class constant, not a field

    mode: str = "practical"
    C: float | None = None
    a: float = 1.0
    eps: float = 0.5
    L: float = 2.0

    def __post_init__(self):
        _require(self.mode in self.MODES, "mode", " or ".join(map(repr, self.MODES)), self.mode)
        if self.C is not None:
            _real("C", self.C, 1)
        for name in ("a", "eps", "L"):
            _real(name, getattr(self, name), 0, strict=True)

    def theory_floor(self, d: int) -> float:
        return max(8.0 * self.L * self.L, float(2 ** (2 * d + 9)))

    def resolved_C(self, d: int) -> float:
        """C or the mode's default; theory mode refuses a < 1 and C below
        theory_floor(d), and warns lepskii_select's caller of eps > 1/2."""
        if self.mode != "theory":
            return 1.0 if self.C is None else float(self.C)
        floor = self.theory_floor(d)
        c_val = floor if self.C is None else float(self.C)
        if self.a < 1:
            raise ValueError("theory mode requires a >= 1")
        if c_val < floor:
            raise ValueError(f"theory mode requires C >= max(8 L^2, 2^(2d+9)) = {floor}")
        if self.eps > 0.5:
            warnings.warn("eps > 1/2: the grid-risk series bound is unproven there", stacklevel=3)
        return c_val


@dataclass
class SelectionTrace:
    """Everything a selection rule looked at, in decision order.

    The common fields describe the release: cut-offs, per-candidate budget
    and noise scales, the ledger and the choice. `evidence` holds what the
    rule scored the candidates by, under its JSON keys:

    * lepskii: betas, distances (raw pairwise squared L2 distances, rows
      0..selected_index: the rows the decision read), thresholds, accepted;
    * penalized-bias: proj_distances, lambda1, lambda2, bias_sq, criterion.

    accepted, bias_sq, criterion and the cut of distances to those rows are
    derived: the decision computes them once and the selector stores them.
    `replay()` runs that decision on the stored evidence, the code the
    selector itself decided by, so it reproduces `selected_index` exactly
    and follows any edit of what was measured.
    Candidate estimates are attached for in-process consumers but excluded
    from JSON.
    """

    method: str
    n: int
    d: int
    rho: float
    rho_per_candidate: float
    rho_spent: float
    constants: dict
    cutoffs: list[int]
    sigmas: list[float]
    evidence: dict
    selected_index: int
    selected_cutoff: int
    ledger: privacy.BudgetLedger
    candidates: list[ProjectionEstimate] | None = field(default=None, repr=False)

    def replay(self) -> int:
        if self.method not in _DECISIONS:
            raise ValueError(f"unknown method {self.method!r}")
        return _DECISIONS[self.method](self.evidence, self.sigmas, self.cutoffs, self.d)[0]

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "d": self.d,
            "rho": self.rho,
            "rho_per_candidate": self.rho_per_candidate,
            "rho_spent": self.rho_spent,
            "constants": dict(self.constants),
            "cutoffs": list(map(int, self.cutoffs)),
            "sigmas": list(map(float, self.sigmas)),
            **{key: np.asarray(value).tolist() for key, value in self.evidence.items()},
            "selected_index": int(self.selected_index),
            "selected_cutoff": int(self.selected_cutoff),
            "ledger": self.ledger.to_json_dict(),
        }


def _select(method, pts, cutoffs, rho, rho_prime, spent, constants, rng, label, score):
    """The release and decision of both rules.

    cols[M] = fourier._within(M, top, d) lists the columns of cube M in the
    master's cube. Candidate m, the master at cols[cutoffs[m]], is released
    (estimator._release) at rho_prime in candidate order, charged to one fresh
    ledger as label.format(m=m, cutoff=M), and written at those columns into
    row m of one zero (k, K_top) matrix. score(cands, cols) returns what the
    rule measures on it; the method's decision picks the winner and derives
    the rest of the evidence. The winner is returned with rho_spent = spent.
    """
    if rng is None:
        raise ValueError("a seeded rng is required for a private selection")
    n, d = pts.shape
    top = max(cutoffs)
    size = len(cutoffs) * _cube(top, d)[2]
    _capped(size, _MAX_COEFFICIENTS, lambda: (
        f"{len(cutoffs)} candidates up to M = {top} in d = {d} hold {size} coefficients"))
    master = empirical_coefficients(pts, top)
    cols = {M: _within(M, top, d) for M in set(cutoffs)}
    ledger = privacy.BudgetLedger()
    estimates = [_release(CoefficientGrid(d, M, master.values[cols[M]]), n, rho_prime, rng,
                          ledger, label.format(m=m, cutoff=M)) for m, M in enumerate(cutoffs)]
    sigmas = [e.sigma for e in estimates]
    cands = np.zeros((len(cutoffs), master.size), dtype=complex)
    for row, e in zip(cands, estimates):
        row[cols[e.cutoff]] = e.coefficients.values
    measured = score(cands, cols)
    selected, derived = _DECISIONS[method](measured, sigmas, cutoffs, d)
    trace = SelectionTrace(
        method=method, n=n, d=d, rho=rho, rho_per_candidate=rho_prime, rho_spent=spent,
        constants=constants, cutoffs=list(cutoffs), sigmas=sigmas,
        evidence={**measured, **derived},
        selected_index=selected, selected_cutoff=cutoffs[selected], ledger=ledger,
        candidates=estimates,
    )
    return replace(estimates[selected], rho_spent=spent), trace


def _pairwise_sq_distances(a: np.ndarray) -> np.ndarray:
    """||a_i - a_j||^2 over the rows of a, as one float (k, k) matrix.
    Re <a_i, a_j> is the real Gram of the rows' interleaved float views: no
    conj copy, a quarter of the complex product's flops. The diagonal is
    exactly zero, which _lepskii_decision relies on, and the matrix exactly
    symmetric: numpy computes v @ v.T as one triangle (syrk) and mirrors it."""
    v = a.view(np.float64)
    gram = v @ v.T
    sq = np.diag(gram)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)


def _shaped(evidence, key: str, shape: tuple) -> np.ndarray:
    """evidence[key] as an array, not copied; a ValueError naming key unless of that shape."""
    value = np.asarray(evidence[key])
    _require(value.shape == shape, key, f"an array of shape {shape}", value.shape)
    return value


def _lepskii_decision(evidence, sigmas, cutoffs, d: int) -> tuple[int, dict]:
    """The first accepted row m, scanning m = 0, 1, ...: for every l >= m,
    distances[m, l] minus the two candidates' expected noise energy
    2 sigma^2 (2M+1)^d is at most thresholds[l]. Derived: the verdicts of
    rows 0..m (accepted) and distances cut to those rows, all k columns."""
    k = len(cutoffs)
    dist, thresholds = np.asarray(evidence["distances"]), _shaped(evidence, "thresholds", (k,))
    _require(dist.ndim == 2 and 1 <= len(dist) <= k and dist.shape[1] == k, "distances",
             f"an array of 1 to {k} rows and {k} columns", dist.shape)
    noise = np.array([2.0 * s * s * (2 * c + 1) ** d for s, c in zip(sigmas, cutoffs)])
    excess = dist - noise[: len(dist), None] - noise[None, :]
    # only an edited trace runs out of rows: a full matrix's zero diagonal accepts the last
    for m in range(len(excess)):
        if np.all(excess[m, m:] <= thresholds[m:]):
            return m, {"accepted": [False] * m + [True], "distances": dist[: m + 1].copy()}
    raise ValueError("no stored Lepskii row is accepted")


def _penalized_decision(evidence, sigmas, cutoffs, d: int) -> tuple[int, dict]:
    """The index minimizing criterion = bias_sq + lambda2, the first (smallest
    M) on ties, and both: bias_sq[i] = max_j (proj_distances[i, j] - lambda1[j])."""
    g = len(cutoffs)
    proj_dist = _shaped(evidence, "proj_distances", (g, g))
    bias_sq = (proj_dist - _shaped(evidence, "lambda1", (g,))[None, :]).max(axis=1)
    criterion = bias_sq + _shaped(evidence, "lambda2", (g,))
    return int(np.argmin(criterion)), {"bias_sq": bias_sq, "criterion": criterion}


_DECISIONS = {"lepskii": _lepskii_decision, "penalized-bias": _penalized_decision}


def lepskii_select(
    data,
    rho,
    cfg: PenaltyConfig | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[ProjectionEstimate, SelectionTrace]:
    """Adaptive cut-off selection by the Lepskii rule.

    Fits one private estimator per grid smoothness (budget rho'_n =
    min(rho eps / (log n)^2, rho / k_n) each, noise draws consumed in
    candidate order m = 0, 1, ...), then picks the smallest index m whose
    estimator lies within the penalized risk threshold of every candidate
    l >= m, once the expected noise energy of both candidates is subtracted
    from their squared distance. The trace stores the raw distances of rows
    0..m, the rows the scan read; replay() derives the offsets from the
    stored sigmas and cut-offs. rng is required.
    """
    cfg = cfg or PenaltyConfig()
    pts = as_points(data)
    n, d = pts.shape
    _require(n >= 3, "n", ">= 3", n)
    rho_v = privacy.as_rho(rho)
    c_val = cfg.resolved_C(d)
    ln = math.log(n)
    betas, rho_prime = _lepskii_budget(n, rho_v, cfg.eps)
    cutoffs = [optimal_cutoff_adaptive_form(n, rho_prime, beta, d) for beta in betas]
    try:
        scale = c_val * ln**cfg.a
    except OverflowError:  # a large a: the threshold is infinite and accepts every candidate
        scale = math.inf
    thresholds = np.array([scale * theoretical_rate(n, rho_prime, beta, d) for beta in betas])

    def score(cands, _cols):
        return dict(betas=list(betas), distances=_pairwise_sq_distances(cands),
                    thresholds=thresholds)

    # Report the exact composition k_n * rho' rather than the float sum of the
    # ledger entries; the two agree to rounding and the former is the figure
    # the budget accounting promises.
    constants = {**asdict(cfg), "C": c_val}
    return _select(
        "lepskii", pts, cutoffs, rho_v, rho_prime, len(betas) * rho_prime, constants, rng,
        "lepskii candidate {m} (M={cutoff})", score,
    )


def penalty_lambda1(cutoff: int, n: int, rho_prime, d: int) -> float:
    """Variance penalty: 96 (2M+1)^d / n + 96 (2M+1)^(2d) / (n^2 rho')."""
    rho_p = privacy.as_rho(rho_prime)
    n = _integer("n", n, 1)
    size = float((2 * _integer("cutoff", cutoff, 0) + 1) ** _integer("d", d, 1))
    return 96.0 * size / n + 96.0 * size * size / (n * n * rho_p)


def penalty_lambda2(cutoff: int, n: int, rho_prime, d: int) -> float:
    """Selection penalty: Lambda^(1) plus 16 (2M+1)^(2d) / (n^2 rho')."""
    lambda1 = penalty_lambda1(cutoff, n, rho_prime, d)  # checks the arguments
    rho_p, n = privacy.as_rho(rho_prime), int(n)  # the int that _integer returned
    size = float((2 * int(cutoff) + 1) ** int(d))
    return lambda1 + 16.0 * size * size / (n * n * rho_p)


def dyadic_cutoff_grid(n: int, d: int) -> list[int]:
    """Model collection {1, 2, 4, ..., 2^floor(log2((n^(1/d)-1)/2))}.

    Guarantees (2 max + 1)^d <= n. Returns [1] when n is too small for the
    formula to produce anything.
    """
    n, d = _integer("n", n, 1), _integer("d", d, 1)
    x = (float(n) ** (1.0 / d) - 1.0) / 2.0
    if x < 1.0:
        return [1]
    j = int(math.floor(math.log2(x * (1.0 + 1e-12))))
    while (2 * 2**j + 1) ** d > n:  # tolerant floor can overshoot by one
        j -= 1
    return [2**i for i in range(j + 1)]


def penalized_bias_select(
    data,
    rho,
    grid: list[int] | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[ProjectionEstimate, SelectionTrace]:
    """Adaptive cut-off selection by penalized estimated bias.

    grid defaults to dyadic_cutoff_grid(n, d). Budget rho is split evenly:
    every candidate spends rho' = rho/|grid| and the total equals rho
    exactly. The estimated squared bias of candidate M is

        B^2(M) = max_{M'} ( ||proj_{M'}(f_hat_M) - f_hat_{M'}||^2 - Lambda^(1)(M') )

    and the winner minimizes B^2(M) + Lambda^(2)(M), ties to the smallest M.
    Noise draws are consumed in grid order; rng is required.
    """
    pts = as_points(data)
    n, d = pts.shape
    rho_v = privacy.as_rho(rho)
    grid = dyadic_cutoff_grid(n, d) if grid is None else list(grid)
    if not grid or not all(_is_int(m) and m >= 0 for m in grid):
        raise ValueError(f"the cut-off grid must be a nonempty list of integers >= 0, got {grid!r}")
    grid = sorted(set(int(m) for m in grid))
    g = len(grid)
    rho_prime = rho_v / g

    def score(cands, cols):
        """proj_distances[i, j] = ||proj_{M_j}(cands[i]) - cands[j]||^2 and
        both penalties. Row j is zero outside its own cube, so the distance
        is taken on that cube's columns cols[M_j] alone: about 2 g K_top
        work, not g^2 K_top, and an exactly zero diagonal."""
        proj_dist = np.empty((g, g))
        for j, m in enumerate(grid):
            diff = cands[:, cols[m]] - cands[j, cols[m]]
            proj_dist[:, j] = np.sum(diff.real**2 + diff.imag**2, axis=1)
        lam1 = np.array([penalty_lambda1(m, n, rho_prime, d) for m in grid])
        lam2 = np.array([penalty_lambda2(m, n, rho_prime, d) for m in grid])
        return dict(proj_distances=proj_dist, lambda1=lam1, lambda2=lam2)

    # g equal shares of rho/g add up to exactly rho; report that figure
    # (the ledger keeps the per-candidate entries for audit).
    return _select(
        "penalized-bias", pts, grid, rho_v, rho_prime, rho_v, {}, rng,
        "penalized-bias candidate M={cutoff}", score,
    )
