"""Computations made apart from privdens, used to check its outputs.

Nothing here imports privdens. Every formula is written out from the
package's documented contracts: the Fourier basis exp(2 pi i <k, x>) over the
frequency cube {-M..M}^d in lexicographic order, the Gaussian-mechanism
calibration, the two selection rules, the bump packing formula and the
SeedSequence generator derivation. The sums use cos/sin tables built one
axis at a time, so they share no code path with the package's complex-exp
kernel. Temporaries are kept to about 2^18 complex entries, so a check
never raises the peak memory the benchmark reports.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 1 << 18


def derived_rng(seed: int, *indices: int) -> np.random.Generator:
    """The documented per-replicate generator: SeedSequence([seed, *indices])."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def tolerant_floor(x: float) -> int:
    return int(math.floor(x * (1.0 + 1e-12)))


def cube_size(cutoff: int, d: int) -> int:
    return (2 * cutoff + 1) ** d


def tuned_cutoff(n: int, rho: float, beta: float, d: int) -> int:
    """M = min(floor(n^(1/(2b+d))), floor((n sqrt(rho))^(1/(b+d))))."""
    samp = tolerant_floor(float(n) ** (1.0 / (2.0 * beta + d)))
    priv = tolerant_floor((n * math.sqrt(rho)) ** (1.0 / (beta + d)))
    return max(0, min(samp, priv))


def rate(n: int, rho: float, beta: float, d: int) -> float:
    return max(
        float(n) ** (-2.0 * beta / (2.0 * beta + d)),
        (n * math.sqrt(rho)) ** (-2.0 * beta / (beta + d)),
    )


def sigma(n: int, rho: float, cutoff: int, d: int) -> float:
    """Per-coordinate Gaussian scale 2 sqrt(K) / (n sqrt(rho)), K = (2M+1)^d."""
    return 2.0 * math.sqrt(cube_size(cutoff, d)) / (n * math.sqrt(rho))


def dyadic_grid(n: int, d: int) -> list[int]:
    """{1, 2, 4, ..., 2^j}, the largest j with (2^(j+1)+1)^d <= n."""
    grid = [1]
    while cube_size(2 * grid[-1], d) <= n:
        grid.append(2 * grid[-1])
    return grid


def lepskii_grid(n: int, eps: float, rho: float, d: int):
    """(betas, rho', cut-offs) of the Lepskii candidate family."""
    ln = math.log(n)
    k_n = max(1, tolerant_floor(ln * ln / eps))
    betas = [(k_n - m) * eps / ln for m in range(k_n)]
    rho_prime = rho * eps / (ln * ln)
    return betas, rho_prime, [tuned_cutoff(n, rho_prime, b, d) for b in betas]


# ---------------------------------------------------------------------------
# Fourier sums
# ---------------------------------------------------------------------------


def _axis_tables(x: np.ndarray, cutoff: int, sign: float) -> np.ndarray:
    """(N, 2M+1) table cos(2 pi k x) + sign i sin(2 pi k x), k = -M..M."""
    ang = 2.0 * np.pi * np.outer(x, np.arange(-cutoff, cutoff + 1, dtype=float))
    return np.cos(ang) + sign * 1j * np.sin(ang)


def coefficients(points: np.ndarray, cutoff: int) -> np.ndarray:
    """theta_k = mean_j exp(-2 pi i <k, X_j>) for the whole cube, built as a
    sum of per-axis products (lexicographic order, first axis slowest)."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    width = 2 * cutoff + 1
    acc = np.zeros(width**d, dtype=complex)
    rows = max(1, _BLOCK // width**d)
    for start in range(0, n, rows):
        block = pts[start : start + rows]
        prod = _axis_tables(block[:, 0], cutoff, -1.0)
        for axis in range(1, d):
            tab = _axis_tables(block[:, axis], cutoff, -1.0)
            prod = (prod[:, :, None] * tab[:, None, :]).reshape(len(block), -1)
        acc += prod.sum(axis=0)
    return acc / n


def coefficients_at(points: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """theta_k for selected frequency rows ks, by a direct cos/sin sum."""
    pts = np.asarray(points, dtype=float)
    ks = np.asarray(ks, dtype=float)
    re = np.zeros(len(ks))
    im = np.zeros(len(ks))
    rows = max(1, _BLOCK // max(len(ks), 1))
    for start in range(0, len(pts), rows):
        ang = 2.0 * np.pi * (pts[start : start + rows] @ ks.T)
        re += np.cos(ang).sum(axis=0)
        im -= np.sin(ang).sum(axis=0)
    return (re + 1j * im) / len(pts)


def evaluate_at(values: np.ndarray, cutoff: int, d: int, x: np.ndarray) -> np.ndarray:
    """sum_k theta_k exp(2 pi i <k, x>) at arbitrary points, direct cos/sin."""
    ks = cube_indices(cutoff, d).astype(float)
    pts = np.asarray(x, dtype=float).reshape(-1, d)
    out = np.empty(len(pts), dtype=complex)
    rows = max(1, _BLOCK // len(ks))
    for start in range(0, len(pts), rows):
        ang = 2.0 * np.pi * (pts[start : start + rows] @ ks.T)
        out[start : start + rows] = np.cos(ang) @ values + 1j * (np.sin(ang) @ values)
    return out


def evaluate_lattice(values: np.ndarray, cutoff: int, d: int, per_axis: int) -> np.ndarray:
    """Complex values on the midpoint lattice ((i + 1/2)/N per axis), in
    row-major order with the first axis slowest, by contracting one axis at a
    time with the per-axis table."""
    width = 2 * cutoff + 1
    tab = _axis_tables((np.arange(per_axis) + 0.5) / per_axis, cutoff, 1.0)
    tensor = np.asarray(values, dtype=complex).reshape((width,) * d)
    for _ in range(d):
        # contract the leading frequency axis; the new lattice axis goes last
        tensor = np.tensordot(tensor, tab, axes=([0], [1]))
    return tensor.reshape(-1)


def cube_indices(cutoff: int, d: int) -> np.ndarray:
    axis = np.arange(-cutoff, cutoff + 1)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def padded_distance_sq(a: np.ndarray, ma: int, b: np.ndarray, mb: int, d: int) -> float:
    """Parseval distance of two coefficient cubes of different cut-offs."""
    m = max(ma, mb)

    def pad(v, mv):
        out = np.zeros((2 * m + 1,) * d, dtype=complex)
        sl = slice(m - mv, m + mv + 1)
        out[(sl,) * d] = np.asarray(v).reshape((2 * mv + 1,) * d)
        return out.reshape(-1)

    diff = pad(a, ma) - pad(b, mb)
    return float(np.sum(diff.real**2 + diff.imag**2))


def tail_energy(values: np.ndarray, cutoff_truth: int, cutoff: int, d: int) -> float:
    """Energy of a coefficient cube outside {-M..M}^d: the exact squared bias."""
    ks = cube_indices(cutoff_truth, d)
    outside = np.abs(ks).max(axis=1) > cutoff
    v = np.asarray(values)[outside]
    return float(np.sum(v.real**2 + v.imag**2))


def cosine_product_cube(a: float, cutoff: int, d: int) -> np.ndarray:
    """Coefficients over {-M..M}^d of prod_j (1 + 2a cos(2 pi x_j)): a to the
    number of axes with k_j = +-1, and 0 wherever some |k_j| > 1. For
    |a| <= 1/2 it is a density whose maximum (1 + 2|a|)^d equals sum |theta_k|."""
    ks = np.abs(cube_indices(cutoff, d))
    return np.where(ks.max(axis=1) <= 1, float(a) ** ks.sum(axis=1), 0.0).astype(complex)


def noise_draws(rng: np.random.Generator, size: int) -> np.ndarray:
    """One candidate's complex noise: N(0,1) pairs, real part first."""
    z = rng.standard_normal((size, 2))
    return z[:, 0] + 1j * z[:, 1]


# ---------------------------------------------------------------------------
# bump packing
# ---------------------------------------------------------------------------


def packing_values(x: np.ndarray, theta, m: int, h: float, beta: float, amplitude: float,
                   offset: float) -> np.ndarray:
    """1 - offset + h^beta a sum_i theta_i Psi((x - p_i)/(2h)), centers
    p_i = j/(m+1). Supports are disjoint, so each point can only lie in the
    bump of its nearest center, found by rounding."""
    pts = np.asarray(x, dtype=float)
    d = pts.shape[1]
    j = np.clip(np.rint(pts * (m + 1)), 1, m).astype(int)
    flat = np.zeros(len(pts), dtype=int)
    for axis in range(d):
        flat = flat * m + (j[:, axis] - 1)
    u = (pts - j / (m + 1)) / (2.0 * h)
    r2 = np.sum(u * u, axis=1)
    inside = (r2 < 1.0) & (np.asarray(theta)[flat] == 1)
    out = np.full(len(pts), 1.0 - offset)
    out[inside] += h**beta * amplitude * np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def midpoint_lattice(d: int, per_axis: int) -> np.ndarray:
    axis = (np.arange(per_axis) + 0.5) / per_axis
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------


def penalized_bias_index(proj_distances, cutoffs, n: int, rho_prime: float, d: int):
    """argmin_i max_j (D[i, j] - Lambda1_j) + Lambda2_i, first index on ties,
    with Lambda1 = 96 K/n + 96 K^2/(n^2 rho') and Lambda2 = Lambda1 + 16 K^2/(n^2 rho')."""
    sizes = np.array([float(cube_size(c, d)) for c in cutoffs])
    lam1 = 96.0 * sizes / n + 96.0 * sizes**2 / (n * n * rho_prime)
    lam2 = lam1 + 16.0 * sizes**2 / (n * n * rho_prime)
    dist = np.asarray(proj_distances, dtype=float)
    crit = (dist - lam1[None, :]).max(axis=1) + lam2
    best = 0
    for i in range(1, len(crit)):
        if crit[i] < crit[best]:
            best = i
    return best, lam1, lam2


def lepskii_index(distances, sigmas, cutoffs, betas, n: int, rho_prime: float, d: int,
                  c_val: float, a: float):
    """First m with D[m, l] - 2 s_m^2 K_m - 2 s_l^2 K_l <= C (ln n)^a r(beta_l)
    for every l >= m."""
    thresholds = np.array([c_val * math.log(n) ** a * rate(n, rho_prime, b, d) for b in betas])
    offsets = [2.0 * s * s * cube_size(c, d) for s, c in zip(sigmas, cutoffs)]
    dist = np.asarray(distances, dtype=float)
    k = len(cutoffs)
    for m in range(k):
        if all(dist[m, l] - offsets[m] - offsets[l] <= thresholds[l] for l in range(m, k)):
            return m, thresholds
    return None, thresholds
