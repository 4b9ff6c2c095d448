"""Fourier analysis on the unit cube [0,1]^d.

The basis is the complex exponential family

    phi_k(x) = exp(i 2 pi <k, x>),    k in Z^d,

restricted to the cube of frequencies {-M..M}^d for a spectral cut-off M.
Coefficient vectors are stored densely in lexicographic multi-index order
(k_1 varies slowest), which keeps every downstream consumer, in particular
the noise generator, byte-reproducible under a fixed seed. Cube M sits in
any larger cube M' at _within(M, M', d), the one map of nested cubes.

Empirical coefficients and evaluation at points share one separable kernel.
The basis factors over the coordinates, phi_k(x) = prod_j w_j^k_j with
w_j = exp(i 2 pi x_j). The kernel cuts the frequency cube into two factors
of about sqrt(K) frequencies each, K = (2M+1)^d: the first half of the
coordinates against the second, and in odd d the middle coordinate split as
k + M = qB + r with B = ceil(sqrt(2M+1)) (in d = 1 that split is the whole
cut). A block of points takes one exp per point and coordinate, w_j, and one
(frequencies, points) table of its powers per coordinate or part of one: the
row f = 0 is exactly 1, each further row on the longer side of 0 is the row
before times w, and the shorter side is the conjugate of the longer; the q
table steps by w^B, the r table's last row over its first (w^b / w^-a, with
a + b + 1 = B) times w. The Khatri-Rao products of each factor's tables are
(~sqrt(K), rows) matrices L and R, and both kernels take only the rows of L
whose leading frequency is >= 0, which hold every k >= 0. Coefficients
are L R^T per block on those, the rest mirrored, values[:K//2] =
conj(values[:K//2:-1]): exactly Hermitian, with theta_0 (n products 1 * 1,
divided by n) exactly 1. Evaluation gives Re f, the only part any caller
uses, from c_0 = theta_0 and c_k = theta_k + conj(theta_-k) for k > 0: per
block c^T L, then Re of a column-wise dot with R as two real dots. On the
midpoint lattice in d >= 2, evaluate_lattice contracts c one frequency axis
at a time with one (2M+1, N) table, the first over k_1 >= 0.

Accuracy: row f is w^|f/step|, so its phase error is w's, about 2 pi |f|
2^-53, plus one rounding per multiply: on 1024 points, 4.3e-14 at -64..64,
1.4e-12 at -2048..2048, and 6.2e-14 for w^B at B = 91 (8.4e-14 from its own
exp). On the grid of tests/test_fourier.py, up to M = 4096 on 1024 points,
the coefficients, and Re f and f of grids with sum |theta_k| = 1, Hermitian
or not, agree with a direct cos/sin sum to 1e-12 or better (9.4e-14 at
worst). Both kernels take their blocks from one loop, _blocks: blocks have a
fixed number of rows and are added in a fixed order, and a BLAS matrix
product does not split its inner dimension between threads, so the output
bits depend neither on memory nor on the thread count. Grids of more than
_MAX_COEFFICIENTS entries are refused before anything is allocated.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientGrid",
    "as_points",
    "multi_indices",
    "empirical_coefficients",
    "project",
    "l2_distance_sq",
    "evaluate",
    "evaluate_complex",
    "evaluate_lattice",
]

# Points per block in both kernels. Fixed, so the floating-point reduction
# order (and thus the output bits) never depends on memory or thread count.
# A block holds, as complex128, the two factors and theta^T L during
# evaluation, each 16 * 1024 * ~sqrt(K) bytes: 1.5 MB at d = 1, M = 4096;
# 2 MB at d = 2, M = 63; 67 MB at the _MAX_COEFFICIENTS cap (0.2 GB in all).
# The coefficients' left factor holds only its k >= 0 half.
_CHUNK = 1024
# Largest grid, (2M+1)^d entries, that any function here builds: 2^24 complex
# values are 256 MiB. Larger requests fail with ValueError before allocating.
_MAX_COEFFICIENTS = 2**24
# Midpoint lattices (positivity certification, mass checks, quadrature MISE):
# default points per axis, 2^10, 2^14 and 2^15 points in d = 1 to 3 and 32^d
# from d = 4, and the most points built, refused before anything is allocated.
_LATTICE_RESOLUTION = {1: 2**10, 2: 2**7, 3: 2**5}
_MAX_LATTICE_POINTS = 2**20


# One argument rule for parameters and JSON fields: a bool is neither an
# integer nor a number, a real is finite, NumPy scalars pass, nothing is
# coerced. Exact types are answered first: an ABC check costs about 1 us.
def _is_int(value) -> bool:
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    if type(value) is float:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # an exact rational (an integer) compares by abs, where math.isfinite would
    # overflow; abs(v) <= max on a NumPy float32 would cast max down and warn
    if type(value) is float or not isinstance(value, numbers.Rational):
        return _is_number(value) and math.isfinite(value)
    return _is_number(value) and abs(value) <= sys.float_info.max


def _require(ok, name: str, kind: str, value) -> None:
    """ValueError "{name} must be {kind}, got {value!r}" unless ok."""
    if not ok:
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _integer(name: str, value, low: int) -> int:
    """value as an int, refused unless an integer >= low."""
    if type(value) is int and value >= low:
        return value
    _require(_is_int(value) and value >= low, name, f"an integer >= {low}", value)
    return int(value)


def _real(name: str, value, low: float = -math.inf, strict: bool = False) -> float:
    """value as a float, refused unless a finite real >= low, or > low if strict."""
    _require(_is_finite(value), name, "a finite number", value)
    real, op = float(value), ">" if strict else ">="
    _require(real > low if strict else real >= low, name, f"{op} {low}", value)
    return real


def _field(doc: dict, key: str, ok, kind: str, *default):
    """doc[key] if ok(doc[key]), else ValueError naming the key; an absent key
    gives the default if one is passed, else KeyError."""
    if default and key not in doc:
        return default[0]
    value = doc[key]
    _require(ok(value), repr(key), kind, value)
    return value


def as_points(data, dim: int | None = None) -> np.ndarray:
    """Validate data as an (n, d) array of points in [0,1]^d.

    Accepts an (n,) array for d=1. Coordinates must lie in [0,1] inclusive;
    nothing is rescaled. Out-of-range or non-finite input raises ValueError,
    because silently moving points would change what "neighboring datasets"
    means for the privacy calculus downstream.
    """
    pts = np.asarray(data, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("data must be a nonempty (n, d) array of points")
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got {pts.shape[1]}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("data contains non-finite coordinates")
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError("coordinates must lie in [0,1]; rescale before calling")
    return pts


def _int_power(base: int, exponent: int):
    """base**exponent for the size caps, or inf when it is above 2^64: a
    dimension from a document can be large enough that the exact power would
    fill memory before any cap could refuse it."""
    if base > 1 and exponent > 64:
        return math.inf
    return base**exponent


def _capped(size, cap: int, what, verb: str = "builds"):
    """size, unless it is above cap: then ValueError "<what()>, more than the
    <cap> this package <verb>", the one message of every size cap. what is
    called only on refusal, so a cap checked on every grid formats nothing."""
    if size > cap:
        raise ValueError(f"{what()}, more than the {cap} this package {verb}")
    return size


def _cube(cutoff: int, dim: int) -> tuple[int, int, int]:
    """(M, d, (2M+1)^d) as ints, after checking that M >= 0 and d >= 1 are
    integers and that the size is within _MAX_COEFFICIENTS."""
    m, d = _integer("cutoff", cutoff, 0), _integer("dim", dim, 1)
    return m, d, _capped(_int_power(2 * m + 1, d), _MAX_COEFFICIENTS, lambda: (
        f"cut-off M = {cutoff} in d = {dim} needs (2M+1)^d = {_int_power(2 * m + 1, d)} "
        "coefficients"))


def _lattice_axis(d: int, per_axis: int | None = None) -> np.ndarray:
    """(i + 1/2)/N, N = per_axis or, if None, d's default, after the cap on N^d."""
    d = _integer("d", d, 1)
    n = _LATTICE_RESOLUTION.get(d, 2**5) if per_axis is None else _integer("per_axis", per_axis, 1)
    size = _int_power(n, d)
    _capped(size, _MAX_LATTICE_POINTS, lambda: (
        f"a midpoint lattice of {n} points per axis in d = {d} has {size} points"))
    return (np.arange(n) + 0.5) / n


def multi_indices(cutoff: int, dim: int) -> np.ndarray:
    """All frequency vectors k in {-cutoff..cutoff}^dim, lexicographic.

    Returns an integer array of shape ((2*cutoff+1)**dim, dim) whose rows are
    sorted lexicographically (first coordinate slowest). Row r of this array
    indexes entry r of every CoefficientGrid with the same cutoff and dim.
    """
    cutoff, dim, _ = _cube(cutoff, dim)
    axis = np.arange(-cutoff, cutoff + 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


@dataclass
class CoefficientGrid:
    """Dense complex coefficients over the frequency cube {-M..M}^d.

    Parameters
    ----------
    dim : int
        Ambient dimension d >= 1.
    cutoff : int
        Spectral cut-off M >= 0; the grid holds (2M+1)**d values.
    values : ndarray
        Complex array of shape ((2M+1)**d,), lexicographic multi-index order.

    Instances are treated as immutable; operations return new grids.
    """

    dim: int
    cutoff: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        # Python ints: a NumPy integer does not dump to JSON
        self.cutoff, self.dim, expected = _cube(self.cutoff, self.dim)
        if vals.shape != (expected,):
            raise ValueError(
                f"values must have shape ({expected},) for cutoff {self.cutoff}, "
                f"dim {self.dim}; got {vals.shape}"
            )
        self.values = vals

    @property
    def size(self) -> int:
        return self.values.size

    def indices(self) -> np.ndarray:
        return multi_indices(self.cutoff, self.dim)

    # -- serialization ----------------------------------------------------
    # JSON floats round-trip bit-exactly for finite doubles (repr shortest
    # form), which is what the on-disk contract requires.

    def to_json_dict(self) -> dict:
        return {
            "d": self.dim,
            "M": self.cutoff,
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CoefficientGrid":
        def numbers_only(v):
            return isinstance(v, list) and all(map(_is_number, v))

        try:
            dim = _field(obj, "d", _is_int, "an integer")
            cutoff = _field(obj, "M", _is_int, "an integer")
            re, im = (
                np.asarray(_field(obj, key, numbers_only, "a list of numbers"), dtype=float)
                for key in ("re", "im")
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed coefficient grid object: {exc}") from exc
        if re.shape != im.shape:
            raise ValueError("re and im arrays must have equal length")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.sum(np.hypot(re, im)) < math.inf:
                raise ValueError("coefficients must have a finite sum |theta_k|")
        return cls(dim, cutoff, re + 1j * im)


def _plan(cutoff: int, dim: int):
    """How the separable kernel factors the basis on {-M..M}^d.

    Returns (left, right, shape, width). left and right list the tables of
    the two factors as (coordinate, frequencies) pairs. The row-wise
    Khatri-Rao products of their exp tables, earlier tables slower, index the
    rows and the columns of one matrix; reshaped to shape = (a, w, c) that
    matrix holds the grid, in storage order, in its [:, :width, :] block;
    left keeps only the last rows, where its leading frequency is >= 0.

    Even d: the first d/2 coordinates against the others. Odd d: the middle
    coordinate is split as k + M = qB + r with B = ceil(sqrt(2M+1)),
    q < Q = ceil((2M+1)/B), r < B; q goes left with frequency (q - M // B) B
    and r right with frequency r - M % B. The two sum to k and are both 0 at
    k = 0, so that entry is exact, and the last Q B - (2M+1) cells of the
    split coordinate are padding. Either way each factor has about
    sqrt((2M+1)^d) columns.
    """
    width = 2 * cutoff + 1
    full = np.arange(-cutoff, cutoff + 1)
    half = dim // 2
    if dim % 2 == 0:
        left = [(0, full[cutoff:])] + [(j, full) for j in range(1, half)]
        return left, [(j, full) for j in range(half, dim)], (1, width**dim, 1), width**dim
    b = math.isqrt(width - 1) + 1
    q = (np.arange(-(-width // b)) - cutoff // b) * b
    left = [(j, full) for j in range(half)] + [(half, q)]
    left[0] = (left[0][0], left[0][1][left[0][1] >= 0])
    right = [(half, np.arange(b) - cutoff % b)] + [(j, full) for j in range(half + 1, dim)]
    return left, right, (width**half, len(q) * b, width**half), width


def _powers(unit: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """unit^(f / step), one row per f in freqs, an arithmetic progression of
    step `step` through 0, from one multiply per row (module docstring)."""
    table = np.empty((len(freqs), len(unit)), dtype=complex)
    step = int(freqs[1] - freqs[0]) if len(freqs) > 1 else 1
    zero = -int(freqs[0]) // step
    rows = table
    if 2 * zero >= len(freqs):  # more negative frequencies than positive: fill from the end
        rows, zero, unit = table[::-1], len(freqs) - 1 - zero, np.conj(unit)
    rows[zero] = 1.0
    if zero + 1 < len(rows):
        rows[zero + 1] = unit
    for r in range(zero + 2, len(rows)):
        np.multiply(rows[r - 1], rows[zero + 1], out=rows[r])
    np.conjugate(rows[2 * zero : zero : -1], out=rows[:zero])
    return table


def _khatri_rao(tables) -> np.ndarray:
    """Khatri-Rao product of tables along the frequency axis, earlier slower."""
    return functools.reduce(lambda a, b: (a[:, None] * b).reshape(-1, a.shape[1]), tables)


def _blocks(pts: np.ndarray, left, right, sign: float):
    """(start, left factor, right factor) of each _CHUNK-row block of pts, in
    order: the one loop that cuts points into blocks for both kernels."""
    for start in range(0, len(pts), _CHUNK):
        block = pts[start : start + _CHUNK]
        units = [np.exp(sign * 2j * np.pi * block[:, j]) for j in range(block.shape[1])]
        rf = [_powers(units[j], freqs) for j, freqs in right]
        if block.shape[1] % 2:  # the split coordinate's w becomes w^B for its q table
            units[right[0][0]] *= rf[0][-1] * np.conj(rf[0][0])
        lf = [_powers(units[j], freqs) for j, freqs in left]
        yield start, _khatri_rao(lf), _khatri_rao(rf)


def empirical_coefficients(data, cutoff: int) -> CoefficientGrid:
    """Empirical Fourier coefficients of a sample.

    theta_k = (1/n) sum_j conj(phi_k(X_j)) for every k in {-M..M}^d. The
    k = 0 entry is exactly 1 and the result is exactly Hermitian-symmetric;
    every entry has modulus <= 1 up to rounding.
    """
    pts = as_points(data)
    n = len(pts)
    cutoff, d, size = _cube(cutoff, pts.shape[1])
    left, right, shape, width = _plan(cutoff, d)
    acc = sum(lf @ rf.T for _, lf, rf in _blocks(pts, left, right, -1.0))
    full = np.zeros(math.prod(shape), dtype=complex)
    full[-acc.size :] = acc.reshape(-1)
    full.view(float)[:] /= n  # real division: numpy's complex one gives 161 / 161 < 1
    values = full.reshape(shape)[:, :width, :].reshape(-1)
    values[: size // 2] = np.conj(values[: size // 2 : -1])
    return CoefficientGrid(d, cutoff, values)


def _within(cutoff: int, outer: int, dim: int) -> np.ndarray:
    """Positions of cube M = cutoff <= outer in cube outer's storage order, in
    cube M's own order: one arange per axis, combined with stride 2 outer + 1."""
    positions = axis = np.arange(outer - cutoff, outer + cutoff + 1)
    for _ in range(dim - 1):
        positions = (positions[:, None] * (2 * outer + 1) + axis).reshape(-1)
    return positions


def project(grid: CoefficientGrid, cutoff: int) -> CoefficientGrid:
    """Restrict or zero-pad a grid to a new cut-off, in new memory.

    cutoff <= grid.cutoff restricts to the central block; cutoff > grid.cutoff
    embeds the grid in a larger one with zeros outside. Projection onto the
    span of the first (2M'+1)^d basis functions in coefficient space.
    """
    cutoff, d, size = _cube(cutoff, grid.dim)
    if cutoff <= grid.cutoff:
        return CoefficientGrid(d, cutoff, grid.values[_within(cutoff, grid.cutoff, d)])
    values = np.zeros(size, dtype=complex)
    values[_within(grid.cutoff, cutoff, d)] = grid.values
    return CoefficientGrid(d, cutoff, values)


def l2_distance_sq(a: CoefficientGrid, b: CoefficientGrid) -> float:
    """Squared L2([0,1]^d) distance of the associated trig polynomials.

    Parseval: sum_k |a_k - b_k|^2 over the larger cube, the smaller grid
    zero-padded and subtracted from the larger (the same bits in either order).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    big, small = (a, b) if a.cutoff >= b.cutoff else (b, a)
    diff = big.values - project(small, big.cutoff).values
    return float(np.sum(diff.real**2 + diff.imag**2))


def _folded(grid: CoefficientGrid) -> np.ndarray:
    """Re f's coefficients: theta_0, theta_k + conj(theta_-k) at k > 0, 0 at k < 0."""
    h = grid.size // 2
    values = np.concatenate([np.zeros(h, dtype=complex), grid.values[h:]])
    values[h + 1 :] += np.conj(grid.values[:h][::-1])
    return values


def evaluate(grid: CoefficientGrid, x):
    """Re f(x), f = sum_k theta_k phi_k: a float at a scalar (d = 1) or one point,
    an array on an (N, d) batch. A noisy grid's f is complex; its real part is
    the rendering convention (post-processing, so privacy is unaffected)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 0 or (arr.ndim == 1 and grid.dim > 1)
    pts = as_points(arr.reshape(1, -1) if single else arr, dim=grid.dim)
    left, right, shape, width = _plan(grid.cutoff, grid.dim)
    tensor = np.zeros(shape, dtype=complex)
    tensor[:, :width, :] = _folded(grid).reshape(shape[0], width, shape[2])
    tensor = tensor.reshape(-1)[-math.prod(len(f) for _, f in left + right) :]
    out = np.empty(pts.shape[0])
    for start, lf, rf in _blocks(pts, left, right, 1.0):
        # Re of the column-wise dot with R: the float views interleave Re and Im
        dots = np.einsum("ij,ij->j", (tensor.reshape(len(lf), -1).T @ lf).view(float),
                         rf.view(float))
        out[start : start + lf.shape[1]] = dots[0::2] - dots[1::2]
    return float(out[0]) if single else out


def evaluate_complex(grid: CoefficientGrid, x) -> np.ndarray | complex:
    """sum_k theta_k phi_k(x), the full complex value: evaluate of the grid
    plus i times evaluate of -i theta, whose real part is Im f."""
    turned = CoefficientGrid(grid.dim, grid.cutoff, -1j * grid.values)
    return evaluate(grid, x) + 1j * evaluate(turned, x)


def evaluate_lattice(grid: CoefficientGrid, per_axis: int | None = None) -> np.ndarray:
    """evaluate on midpoint_lattice(d, per_axis), in its order: in d = 1 the point
    kernel, cheaper than a table of 2M+1 rows; in d >= 2 one axis at a time."""
    axis = _lattice_axis(grid.dim, per_axis)
    if grid.dim == 1:
        return evaluate(grid, axis[:, None])
    m, d = grid.cutoff, grid.dim
    table = _powers(np.exp(2j * np.pi * axis), np.arange(-m, m + 1))
    tensor = _folded(grid).reshape((2 * m + 1,) * d)[m:]
    for _ in range(d - 1):  # k_1 >= 0 meets the last m + 1 rows of the table
        tensor = np.tensordot(tensor, table[-len(tensor) :], axes=([0], [0]))
    tensor = tensor.reshape(len(tensor), -1)  # the last axis gives Re alone, two real products
    return (tensor.real.T @ table.real - tensor.imag.T @ table.imag).reshape(-1)
