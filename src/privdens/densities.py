"""Ground-truth density fixtures on [0,1]^d and rejection sampling.

Two constructions are provided.

Trigonometric fixtures
    Finite Fourier series with Hermitian coefficients, theta_0 = 1, drawn
    with a power-law magnitude decay and random phases, then rescaled to fit
    a Sobolev budget and damped until a positive lower bound is certified on
    a dense lattice (lattice minimum minus a Lipschitz slack). These have
    exact coefficient access, so bias and MISE computations are exact via
    Parseval.

Bump packing fixtures
    The perturbed-uniform family f = 1 + h^beta sum_i theta_i psi((x-p_i)/h)
    - |theta|_1 gamma h^(beta+d) built from the C-infinity bump
    psi = a Psi(./2), Psi(x) = exp(-1/(1-|x|^2)) inside the unit ball. The
    bumps sit on a lattice of m^d centers with disjoint supports; mass is
    exactly 1 by construction. These serve as the fractional-smoothness
    fixture; no Hoelder seminorm is computed numerically.

Sampling is plain rejection from uniform proposals with a supplied sup
bound. A fixed generator gives identical samples; per round the proposals
are drawn first, then the acceptance uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fourier
from .fourier import (
    CoefficientGrid,
    _capped,
    _field,
    _int_power,
    _integer,
    _is_finite,
    _is_int,
    _real,
    _require,
    _within,
    as_points,
    multi_indices,
)

__all__ = [
    "midpoint_lattice",
    "TrigDensity",
    "make_trig_density",
    "exact_bias",
    "PackingDensity",
    "make_packing_density",
    "rejection_sample",
    "ClippedDensity",
    "quadrature_mass",
    "density_from_json_dict",
]

# Largest packing built, in bumps (m^d); its bits are allocated in full, 1
# byte per bump. The command line checks it before drawing.
_MAX_BUMPS = 2**20
# Largest packing dimension: 20 is the largest d whose m^d fits _MAX_BUMPS at
# m = 2, and the bump integrals are checked up to it. Only m = 1 reaches past
# it, where gamma(d/2) in the bump geometry overflows from d = 344 on.
_MAX_PACKING_DIM = 20
# Largest sample drawn, in coordinates (n d): 2^24 are 128 MiB of points,
# 256 times the largest sample the tests and benchmark draw. rejection_sample
# and ExperimentConfig refuse more before anything is drawn.
_MAX_SAMPLE_VALUES = 2**24
# Largest smoothness order floor(beta) of a trigonometric fixture: above it
# (2 pi)^(2 floor(beta)), the Sobolev weight of |k| = 1, overflows, and with
# it every weight but theta_0's.
_MAX_SOBOLEV_ORDER = 193
# Most proposal rounds rejection_sample runs before it gives up. A round
# proposes (points still needed) x (sup bound), at most 2^20, and keeps about
# (points still needed) x (mass) of them, so only a target of nearly zero
# mass runs out.
_MAX_ROUNDS = 1000
# Error of the lattice values of Re f (ClippedDensity's Bernstein bound), per
# unit of M d and of the coefficient sum: each term's phase 2 pi k.x carries
# about 2.4 ulp of relative error (two products and math.pi) on a phase of at
# most 2 pi M d, and every sum adds one ulp per term. Against a long-double
# direct sum with exact phases (d = 1 and 2, M from 1 to 41000, on random,
# decaying and all-ones grids) the worst error was 1.3 eps M d times the sum;
# the all-ones grid, whose terms all align, came within 2x of it at every M.
_LATTICE_ROUNDING = 16 * np.finfo(float).eps


def midpoint_lattice(d: int, per_axis: int | None = None) -> np.ndarray:
    """Midpoint lattice ((i+1/2)/N per axis) as an (N^d, d) array."""
    axis = fourier._lattice_axis(d, per_axis)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


# ---------------------------------------------------------------------------
# the bump and its integrals
# ---------------------------------------------------------------------------


def _profile(r):
    return np.exp(-1.0 / (1.0 - r * r))


def _profile_d1(r):
    # d/dr exp(-1/(1-r^2)) = Psi * (-2r/(1-r^2)^2)
    s = 1.0 - r * r
    return _profile(r) * (-2.0 * r / (s * s))


def _profile_d2(r):
    # second derivative: Psi * (g^2 + g'), g = -2r/(1-r^2)^2,
    # g' = -(2+6r^2)/(1-r^2)^3
    s = 1.0 - r * r
    g = -2.0 * r / (s * s)
    gp = -(2.0 + 6.0 * r * r) / (s * s * s)
    return _profile(r) * (g * g + gp)


@lru_cache(maxsize=None)
def _bump_integrals(d: int) -> dict:
    """Radial integrals of the unit bump: mass, squared mass, gradient
    energy, and (d=1) second-derivative energy. Cached. Each is a dot product
    with the 128-node Gauss-Legendre rule on (0, 1): the integrands are
    smooth and vanish with every derivative at r = 1, so for d <= 20 it
    agrees with the 256- and 1024-node rules to 1.1e-14 relative."""
    x, w = np.polynomial.legendre.leggauss(128)
    r = 0.5 * (x + 1.0)
    sphere_area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)  # of the unit sphere in R^d
    w = 0.5 * sphere_area * w * r ** (d - 1)
    psi = _profile(r)
    integrands = {"mass": psi, "sq": psi**2, "grad_sq": _profile_d1(r) ** 2}
    if d == 1:
        integrands["d2_sq"] = _profile_d2(r) ** 2
    return {key: float(w @ f) for key, f in integrands.items()}


def _seminorm_energy(d: int, b: int) -> float:
    """E_b(Psi) = sum over |alpha| = b of the squared derivative energy.
    Supported: b in {0, 1} for any d; b = 2 for d = 1 (higher orders need
    mixed partials that the radial reduction does not reach)."""
    moments = _bump_integrals(d)
    if b == 0:
        return moments["sq"]
    if b == 1:
        return moments["grad_sq"]
    if b == 2 and d == 1:
        return moments["d2_sq"]
    raise ValueError(
        f"smoothness order floor(beta) = {b} with d = {d} is not supported; "
        "use 0 or 1 (any d) or 2 (d = 1 only)"
    )


# ---------------------------------------------------------------------------
# trigonometric fixtures
# ---------------------------------------------------------------------------


def _sobolev_weights(ks: np.ndarray, beta: float) -> np.ndarray:
    # sum over multi-indices |alpha| = b = floor(beta) of prod_i (2 pi k_i)^(2 alpha_i),
    # i.e. the complete homogeneous symmetric polynomial h_b of the x_i = (2 pi k_i)^2,
    # built one coordinate at a time: h_o(x_1..x_j) = h_o(x_1..x_{j-1}) + x_j h_{o-1}(x_1..x_j);
    # a beta past _MAX_SOBOLEV_ORDER, or whose weights overflow, is refused
    b = int(math.floor(beta))
    _require(b <= _MAX_SOBOLEV_ORDER, "beta", f"below {_MAX_SOBOLEV_ORDER + 1}", beta)
    h = np.zeros((b + 1, len(ks)))
    h[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (2.0 * np.pi * ks.astype(float).T) ** 2:
            for order in range(1, b + 1):
                h[order] += x * h[order - 1]
    if not np.all(np.isfinite(h[b])):
        raise ValueError(f"beta = {beta!r} overflows the Sobolev weights up to |k| = {ks.max()}")
    return h[b]


@dataclass(frozen=True)
class TrigDensity:
    """Finite trigonometric density with exactly known coefficients.

    coefficients is Hermitian-symmetric with theta_0 = 1; min_value is the
    certified lattice lower bound (lattice minimum minus Lipschitz slack).
    """

    coefficients: CoefficientGrid
    beta: float
    L: float
    min_value: float

    def __post_init__(self):  # exactly: a real function of mass 1
        vals = self.coefficients.values
        if vals[vals.size // 2] != 1:
            raise ValueError(f"trig coefficients must have theta_0 = 1, got {vals[vals.size // 2]}")
        if not np.array_equal(vals, np.conj(vals[::-1])):
            raise ValueError("trig coefficients must be Hermitian: theta_-k = conj(theta_k)")

    @property
    def dim(self) -> int:
        return self.coefficients.dim

    @property
    def cutoff(self) -> int:
        return self.coefficients.cutoff

    @property
    def sup_bound(self) -> float:
        return float(np.sum(np.abs(self.coefficients.values)))

    def evaluate(self, x):
        return fourier.evaluate(self.coefficients, x)

    def sobolev_budget(self) -> float:
        """sum_k (sum_{|alpha| = floor(beta)} (2 pi k)^(2 alpha)) |theta_k|^2."""
        if self.cutoff == 0 and math.isinf(self.beta):
            return 0.0
        w = _sobolev_weights(self.coefficients.indices(), self.beta)
        return float(np.sum(w * np.abs(self.coefficients.values) ** 2))

    @classmethod
    def uniform(cls, dim: int) -> "TrigDensity":
        grid = CoefficientGrid(dim, 0, np.ones(1, dtype=complex))
        return cls(grid, beta=math.inf, L=1.0, min_value=1.0)

    def to_json_dict(self) -> dict:
        if math.isinf(self.beta):
            return {"kind": "uniform", "d": self.dim}
        return {
            "kind": "trig",
            "beta": self.beta,
            "L": self.L,
            "min_value": self.min_value,
            "coefficients": self.coefficients.to_json_dict(),
        }


def _lipschitz_bound(grid: CoefficientGrid) -> float:
    # |f(x) - f(y)| <= sum_k |theta_k| 2 pi |k|_1 |x - y|_inf
    k1 = np.sum(np.abs(grid.indices()), axis=1)
    return float(np.sum(np.abs(grid.values) * 2.0 * np.pi * k1))


def make_trig_density(beta, L, M_truth, d=1, rng=None) -> TrigDensity:
    """Draw a random trigonometric density of nominal smoothness beta.

    Magnitudes decay as (1 + |k|_inf)^(-(beta + d/2 + 0.51)) with
    Uniform(0.5, 1) factors and Uniform[0, 2 pi) phases, one draw per
    positive-half index in lexicographic order. Coefficients are rescaled so
    the Sobolev budget sits at 80% of L^2 (of L^2 - 1 when floor(beta) = 0,
    where theta_0 contributes 1), then damped by 0.8 until the lattice
    minimum minus Lipschitz slack certifies a lower bound >= 0.01. beta and
    L must be finite numbers, floor(beta) at most _MAX_SOBOLEV_ORDER, and
    the Sobolev weights of order floor(beta) finite.
    """
    beta, L = _real("beta", beta, 0, strict=True), _real("L", L, 1, strict=True)
    M_truth, d = _integer("M_truth", M_truth, 0), _integer("d", d, 1)
    if M_truth == 0:
        grid = CoefficientGrid(d, 0, np.ones(1, dtype=complex))
        return TrigDensity(grid, beta=beta, L=L, min_value=1.0)
    rng = np.random.default_rng(rng)

    ks = multi_indices(M_truth, d)
    center = (len(ks) - 1) // 2
    decay_exp = beta + d / 2.0 + 0.51
    # scalar powers on purpose: numpy's vectorised power can differ in the last bit
    decay = np.array([(1.0 + np.int64(j)) ** (-decay_exp) for j in range(M_truth + 1)])
    draws = rng.uniform([0.5, 0.0], [1.0, 2.0 * np.pi], size=(center, 2))
    half = draws[:, 0] * decay[np.abs(ks[center + 1:]).max(axis=1)] * np.exp(1j * draws[:, 1])
    values = np.concatenate([np.conj(half[::-1]), [1.0], half])

    b = int(math.floor(beta))
    w = _sobolev_weights(ks, beta)
    tail = np.sum(w * np.abs(values) ** 2) - (w[center] * 1.0)
    target = 0.8 * (L * L - 1.0) if b == 0 else 0.8 * L * L
    if tail > 0:
        scale = math.sqrt(target / tail)
        values *= scale
        values[center] = 1.0

    axis = fourier._lattice_axis(d)
    slack_step = float(axis[0])  # (0 + 1/2) / N, half the lattice spacing
    for _ in range(100):
        grid = CoefficientGrid(d, M_truth, values.copy())
        certified = float(np.min(fourier.evaluate_lattice(grid, len(axis))))
        certified -= _lipschitz_bound(grid) * slack_step
        if certified >= 0.01:
            return TrigDensity(grid, beta=beta, L=L, min_value=certified)
        values *= 0.8
        values[center] = 1.0
    raise ValueError(
        "could not certify positivity of the trigonometric fixture "
        "after 100 damping rounds"
    )


def exact_bias(truth: TrigDensity, cutoff: int) -> float:
    """Energy of truth outside {-M..M}^d, i.e. the exact squared bias of the
    cut-off-M projection (Parseval). Zero once M >= M_truth."""
    grid = truth.coefficients
    inner = _within(min(_integer("cutoff", cutoff, 0), grid.cutoff), grid.cutoff, grid.dim)
    return float(np.sum(np.abs(np.delete(grid.values, inner)) ** 2))


# ---------------------------------------------------------------------------
# bump packing fixtures
# ---------------------------------------------------------------------------


def _packing_size(m: int, d: int) -> int:
    """m^d, the bumps of a packing, after checking m, d, _MAX_BUMPS and _MAX_PACKING_DIM."""
    size = _int_power(_integer("m", m, 1), _integer("d", d, 1))
    _capped(size, _MAX_BUMPS, lambda: (
        f"a packing with m = {m} in d = {d} has m^d = {size} bumps"))
    if d > _MAX_PACKING_DIM:
        raise ValueError(f"packing dimension d = {d} is above {_MAX_PACKING_DIM}, "
                         "the largest this package builds")
    return size


@dataclass
class PackingDensity:
    """Perturbed-uniform bump density; mass is exactly 1 by construction.

    theta is a 0/1 vector over the m^d bump centers j/(m+1), j in {1..m}^d,
    in lexicographic order. The geometry follows from m, beta, d, L and
    floor_half. The amplitude is a = 0.99 L / sqrt(2^(d-2b) E_b(Psi)) with
    b = floor(beta), which puts the order-b derivative energy of
    psi = a Psi(./2) at (0.99 L)^2 < L^2. gamma and delta are the integrals
    of psi and psi^2. h = min(1/(gamma (m+1)), 1/(4(m+1))) keeps the bump
    supports disjoint and inside the cube; floor_half=True halves the first
    term, which forces the density >= 1/2 everywhere. beta and L must be
    finite numbers > 0, and L small enough that delta is finite.
    """

    theta: np.ndarray
    m: int
    beta: float
    d: int
    L: float
    floor_half: bool = False
    h: float = field(init=False)
    amplitude: float = field(init=False)
    gamma: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        size = _packing_size(self.m, self.d)
        self.m, self.d = int(self.m), int(self.d)  # a NumPy integer does not dump to JSON
        self.beta = _real("beta", self.beta, 0, strict=True)
        self.L = _real("L", self.L, 0, strict=True)
        b = int(math.floor(self.beta))
        energy = _seminorm_energy(self.d, b)
        self.amplitude = 0.99 * self.L / math.sqrt(2.0 ** (self.d - 2 * b) * energy)
        moments = _bump_integrals(self.d)
        self.gamma = self.amplitude * 2.0**self.d * moments["mass"]
        self.delta = self.amplitude * self.amplitude * 2.0**self.d * moments["sq"]
        if not math.isfinite(self.delta):  # an infinite amplitude makes delta infinite too
            raise ValueError(f"L = {self.L!r} overflows the bump amplitude or its square")
        gamma_term = 1.0 / ((2.0 if self.floor_half else 1.0) * self.gamma * (self.m + 1))
        self.h = min(gamma_term, 1.0 / (4.0 * (self.m + 1)))
        self.theta = np.asarray(self.theta, dtype=np.uint8).reshape(-1)
        if len(self.theta) != size:
            raise ValueError(f"theta must have length m^d = {size}")
        if not np.all((self.theta == 0) | (self.theta == 1)):
            raise ValueError("theta entries must be 0 or 1")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def active_count(self) -> int:
        return int(self.theta.sum())

    @property
    def offset(self) -> float:
        """The constant |theta|_1 gamma h^(beta+d) subtracted to keep mass 1."""
        return self.active_count * self.gamma * self.h ** (self.beta + self.d)

    @property
    def sup_bound(self) -> float:
        # peak of one bump is psi(0) = amplitude / e; bumps do not overlap
        return 1.0 + self.h**self.beta * self.amplitude / math.e

    def bit_distance_sq(self) -> float:
        """Squared L2 distance contributed by flipping one theta bit."""
        return self.h ** (2.0 * self.beta + self.d) * self.delta

    def evaluate(self, x):
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 0 or (arr.ndim == 1 and self.d > 1)
        if single:
            arr = arr.reshape(1, -1)
        pts = as_points(arr, self.d)
        out = np.full(len(pts), 1.0 - self.offset)
        hb = self.h**self.beta
        # A support has radius 2h <= 1/(2(m+1)), half the spacing of the
        # centers, so the only bump a point can lie in is the one whose
        # center j/(m+1) is nearest on every axis.
        j = np.rint(pts * (self.m + 1)).astype(np.int64)
        inside = np.all((j >= 1) & (j <= self.m), axis=1)
        j = np.clip(j, 1, self.m)
        nearest = np.ravel_multi_index(tuple(j.T - 1), (self.m,) * self.d)
        u = (pts - j / (self.m + 1)) / (2.0 * self.h)  # psi(z) = a Psi(z/2)
        r2 = np.sum(u * u, axis=1)
        mask = inside & (self.theta[nearest] == 1) & (r2 < 1.0)
        out[mask] += hb * self.amplitude * np.exp(-1.0 / (1.0 - r2[mask]))
        return float(out[0]) if single else out

    def to_json_dict(self) -> dict:
        return {
            "kind": "packing",
            "m": self.m,
            "beta": self.beta,
            "d": self.d,
            "L": self.L,
            "floor_half": self.floor_half,
            "theta": self.theta.astype(int).tolist(),
        }


def make_packing_density(theta, m, beta, d=1, L=2.0, *, floor_half=False) -> PackingDensity:
    """The bump packing density for a given bit vector (see PackingDensity)."""
    return PackingDensity(theta, m, beta, d, L, floor_half)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class ClippedDensity:
    """max(Re f, 0) of a coefficient grid, as a sampling target.

    Rejection sampling does not need the normalizing constant, so the
    clipped function is used as-is; this is pure post-processing of an
    already-released estimate and costs no privacy budget.

    The sampling bound is the smaller of two certified bounds on sup |Re f|:
    the sum of |(theta_k + conj(theta_-k)) / 2|, the coefficients of Re f,
    and a Bernstein bound. Re f is a real trig polynomial of degree M in
    each coordinate, so |d Re f / dx_j| <= 2 pi M sup |Re f|, and every point
    is within 1/(2N) of a midpoint of the N-per-axis lattice in each
    coordinate: sup |Re f| <= (max_lattice |Re f| + r) / (1 - pi M d / N).
    N is the smallest power of two with pi M d / N <= 1/8, and r =
    _LATTICE_ROUNDING M d times the coefficient sum covers the lattice's
    floating-point error. M = 0, and a lattice past _MAX_LATTICE_POINTS, keep
    the coefficient sum.
    Construction fails when the clipped function is degenerate: its lattice
    mass is below 1e-3, where rejection would almost never accept, or overflows.
    """

    def __init__(self, source):
        grid = getattr(source, "coefficients", source)
        if not isinstance(grid, CoefficientGrid):
            raise TypeError("expected a CoefficientGrid or an object carrying one")
        self.grid = grid
        with np.errstate(over="ignore", invalid="ignore"):
            self.sup_bound = _real_part_bound(grid)
            mass = quadrature_mass(self)
        if not 1e-3 <= mass < math.inf:
            raise ValueError(f"clipped estimate is degenerate: lattice mass {mass:.3g} is not "
                             "in [1e-3, inf)")

    @property
    def dim(self) -> int:
        return self.grid.dim

    def evaluate(self, x):
        return np.maximum(fourier.evaluate(self.grid, x), 0.0)


def _real_part_bound(grid: CoefficientGrid) -> float:
    """min(coefficient sum, Bernstein bound) of sup |Re f| (ClippedDensity)."""
    m, d = grid.cutoff, grid.dim
    coef_sum = float(np.sum(np.abs((grid.values + np.conj(grid.values[::-1])) / 2)))  # of Re f
    per_axis = 1
    while per_axis < 8 * math.pi * m * d:  # the smallest power of two with pi M d / N <= 1/8
        per_axis *= 2
    if not m or _int_power(per_axis, d) > fourier._MAX_LATTICE_POINTS:
        return coef_sum
    top = float(np.max(np.abs(fourier.evaluate_lattice(grid, per_axis))))
    slack = _LATTICE_ROUNDING * m * d * coef_sum
    bernstein = (top + slack) / (1 - math.pi * m * d / per_axis)
    return bernstein if bernstein < coef_sum else coef_sum  # a NaN lattice keeps the sum


def rejection_sample(density, n, rng, *, return_stats=False):
    """Draw n points from `density` by rejection from uniform proposals.

    density must expose dim, sup_bound (B >= sup f) and evaluate(points).
    Per round the proposals are drawn first, then the acceptance uniforms;
    a proposal x with uniform u is kept when u*B < f(x). When B <= 1 the
    round size is exactly the number still needed (for the uniform density
    every proposal is accepted, so the output is the raw proposal block).
    A bound that is not finite, and more than _MAX_SAMPLE_VALUES coordinates
    (n d), are refused before any draw; a RuntimeError is raised after
    _MAX_ROUNDS rounds.
    """
    d = int(density.dim)
    bound = float(density.sup_bound)
    _require(0 < bound < math.inf, "sup bound", "> 0 and finite", bound)
    size = _integer("n", n, 0) * d
    _capped(size, _MAX_SAMPLE_VALUES, lambda: f"{n} points in d = {d} are {size} coordinates",
            "samples")
    rng = np.random.default_rng(rng)

    blocks = []
    got = 0
    proposals_total = 0
    accepted_total = 0
    while got < n and len(blocks) < _MAX_ROUNDS:  # one block per round
        need = n - got
        chunk = need if bound <= 1.0 else int(math.ceil(min(need * bound, 1 << 20)))
        proposals = rng.random((chunk, d))
        fvals = np.asarray(density.evaluate(proposals), dtype=float)
        u = rng.random(chunk)
        accept = u * bound < fvals
        taken = proposals[accept][:need]
        blocks.append(taken)
        got += len(taken)
        proposals_total += chunk
        accepted_total += int(accept.sum())
    if got < n:
        raise RuntimeError(
            f"rejection sampling produced {got}/{n} points in {_MAX_ROUNDS} rounds; "
            "the target density is nearly degenerate"
        )
    points = np.vstack(blocks) if blocks else np.empty((0, d))
    if not return_stats:
        return points
    stats = {
        "proposals": proposals_total,
        "accepted": accepted_total,
        "rounds": len(blocks),
        "acceptance_rate": accepted_total / proposals_total if proposals_total else 0.0,
        "bound": bound,
    }
    return points, stats


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def quadrature_mass(density) -> float:
    """Midpoint-rule mass on midpoint_lattice(d), from the grid of a grid-backed density."""
    if isinstance(density, TrigDensity):
        return float(np.mean(fourier.evaluate_lattice(density.coefficients)))
    if isinstance(density, ClippedDensity):
        return float(np.mean(np.maximum(fourier.evaluate_lattice(density.grid), 0.0)))
    return float(np.mean(density.evaluate(midpoint_lattice(density.dim))))


def density_from_json_dict(doc: dict):
    """A density from its JSON document. Every field must have its JSON type
    (integers for d and m, finite numbers for beta, L and min_value, 0/1
    integers for theta, true or false for floor_half); nothing is coerced."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("density document must be a JSON object with a 'kind' field")
    kind = doc["kind"]

    def integer(key):
        return _field(doc, key, _is_int, "an integer")

    def number(key):
        return float(_field(doc, key, _is_finite, "a finite number"))

    try:
        if kind == "uniform":
            return TrigDensity.uniform(integer("d"))
        if kind == "trig":
            grid = CoefficientGrid.from_json_dict(doc["coefficients"])
            return TrigDensity(
                grid, beta=number("beta"), L=number("L"), min_value=number("min_value")
            )
        if kind == "packing":
            bits = _field(
                doc,
                "theta",
                lambda v: isinstance(v, list) and all(_is_int(b) and b in (0, 1) for b in v),
                "a list of 0/1 integers",
            )
            floor_half = _field(doc, "floor_half", lambda v: isinstance(v, bool), "a bool", False)
            return make_packing_density(
                bits, integer("m"), number("beta"), d=integer("d"), L=number("L"),
                floor_half=floor_half,
            )
    except KeyError as exc:
        raise ValueError(f"density document is missing field {exc}") from exc
    raise ValueError(f"unknown density kind {kind!r}")
