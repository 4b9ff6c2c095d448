"""Fourier analysis on the unit cube [0,1]^d.

The basis is the complex exponential family

    phi_k(x) = exp(i 2 pi <k, x>),    k in Z^d,

restricted to the cube of frequencies {-M..M}^d for a spectral cut-off M.
Coefficient vectors are stored densely in lexicographic multi-index order
(k_1 varies slowest), which keeps every downstream consumer, in particular
the noise generator, byte-reproducible under a fixed seed.

Empirical coefficients and evaluation at points share one separable kernel.
The basis factors over the coordinates, phi_k(x) = prod_j exp(i 2 pi k_j x_j).
The kernel cuts the frequency cube into two factors of about sqrt(K)
frequencies each, K = (2M+1)^d: the first half of the coordinates against
the second, and in odd d the middle coordinate split as k + M = qB + r with
B = ceil(sqrt(2M+1)) (in d = 1 that split is the whole cut). A block of
points gets one (frequencies, points) exp table per coordinate or part of
one; the Khatri-Rao product of each factor's tables along the frequency axis
is a (~sqrt(K), rows) matrix, and the coefficients are one matrix product per
block, L R^T. Evaluation is theta^T L, then a column-wise dot with R. A table
takes one exp: the row f = 0 is exactly 1, the row one step from 0 is
w = exp(sign 2 pi i step x), each further row on the longer side of 0 is the
row before times w, and the shorter side is the conjugate of the longer.
Coefficients are computed only in the rows whose leading left-factor
frequency is >= 0, which hold every k >= 0 in storage order, and the rest
mirrored, values[:K//2] = conj(values[:K//2:-1]): the output is exactly
Hermitian, and theta_0 (n products 1 * 1, divided by n) exactly 1.

The midpoint lattice is a product grid: in d >= 2, evaluate_lattice contracts
the coefficient tensor one frequency axis at a time with one (2M+1, N) table,
each new lattice axis last, through intermediates of (2M+1)^d to N^d entries.

Accuracy: row f is w^|f/step|, so its phase error is w's (rounded as in a
direct sum) times |f/step|, about 2 pi |f| 2^-53, plus one rounding per
multiply: on 1024 points, 4.4e-14 at -64..64 and 1.4e-12 at -2048..2048. A
term's phase differs from the direct sum's by at most about 2 pi (2M + 2B)
2^-53 (5.8e-12 at M = 4096), and the differences average out over the n
points. On the grid of tests/test_fourier.py, up to M = 4096 on 1024 points,
the coefficients and the values of grids with sum |theta_k| = 1 agree with a
direct cos/sin sum to 1e-12 or better (1.2e-13 at worst, 5.5e-16 on the
lattice). Both kernels take their blocks from one loop, _blocks: blocks have
a fixed number of rows and are added in a fixed order, and a BLAS matrix
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


# Type checks shared by every loader of JSON documents and user parameters:
# a bool is neither an integer nor a number, and nothing is coerced.
def _is_int(value) -> bool:
    if type(value) is int:  # the ABC check costs about 1 us; every grid's M and d come here
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # abs(v) <= max, not math.isfinite(v): an integer beyond the float range
    # is refused here instead of raising OverflowError
    return _is_number(value) and abs(value) <= sys.float_info.max


def _check_finite(name: str, value) -> None:
    """Raise ValueError naming `name` unless value is a finite real number."""
    if not _is_finite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _field(doc: dict, key: str, ok, kind: str, *default):
    """doc[key] if ok(doc[key]), else ValueError naming the key; an absent key
    gives the default if one is passed, else KeyError."""
    if default and key not in doc:
        return default[0]
    value = doc[key]
    if not ok(value):
        raise ValueError(f"{key!r} must be {kind}, got {value!r}")
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


def _cube_size(cutoff: int, dim: int) -> int:
    """(2M+1)^d, after checking that M >= 0 and d >= 1 are integers (a bool
    is not one) and that the size is within _MAX_COEFFICIENTS."""
    if not (_is_int(cutoff) and cutoff >= 0):
        raise ValueError(f"cutoff must be an integer >= 0, got {cutoff!r}")
    if not (_is_int(dim) and dim >= 1):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    size = _int_power(2 * int(cutoff) + 1, int(dim))
    return _capped(size, _MAX_COEFFICIENTS, lambda: (
        f"cut-off M = {cutoff} in d = {dim} needs (2M+1)^d = {size} coefficients"))


def _lattice_axis(d: int, per_axis: int | None = None) -> np.ndarray:
    """(i + 1/2)/N, N = per_axis or d's default, after the cap on N^d."""
    n = per_axis or _LATTICE_RESOLUTION.get(d, 2**5)
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
    _cube_size(cutoff, dim)
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
        expected = _cube_size(self.cutoff, self.dim)
        # Python ints: a NumPy integer does not dump to JSON
        self.dim, self.cutoff = int(self.dim), int(self.cutoff)
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

    def copy(self) -> "CoefficientGrid":
        return CoefficientGrid(self.dim, self.cutoff, self.values.copy())

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
    matrix holds the grid, in storage order, in its [:, :width, :] block.

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
        left = [(j, full) for j in range(half)]
        return left, [(j, full) for j in range(half, dim)], (1, width**dim, 1), width**dim
    b = math.isqrt(width - 1) + 1
    q = (np.arange(-(-width // b)) - cutoff // b) * b
    left = [(j, full) for j in range(half)] + [(half, q)]
    right = [(half, np.arange(b) - cutoff % b)] + [(j, full) for j in range(half + 1, dim)]
    return left, right, (width**half, len(q) * b, width**half), width


def _exp_table(x: np.ndarray, freqs: np.ndarray, sign: float) -> np.ndarray:
    """exp(sign 2 pi i f x), one row per f in freqs, an arithmetic progression
    through 0, from one exp and one multiply per further row (module docstring)."""
    table = np.empty((len(freqs), len(x)), dtype=complex)
    step = int(freqs[1] - freqs[0]) if len(freqs) > 1 else 1
    zero = -int(freqs[0]) // step
    rows = table
    if 2 * zero >= len(freqs):  # more negative frequencies than positive: fill from the end
        rows, zero, step = table[::-1], len(freqs) - 1 - zero, -step
    rows[zero] = 1.0
    if zero + 1 < len(rows):
        rows[zero + 1] = np.exp(sign * 2j * np.pi * step * x)
    for r in range(zero + 2, len(rows)):
        np.multiply(rows[r - 1], rows[zero + 1], out=rows[r])
    np.conjugate(rows[2 * zero : zero : -1], out=rows[:zero])
    return table


def _khatri_rao(block: np.ndarray, tables, sign: float) -> np.ndarray:
    """Khatri-Rao product, along the frequency axis, of the _exp_table of each
    (coordinate j, frequencies f) in tables, earlier tables slower:
    (prod len(f), rows)."""
    factors = (_exp_table(block[:, j], freqs, sign) for j, freqs in tables)
    return functools.reduce(lambda a, b: (a[:, None] * b).reshape(-1, len(block)), factors)


def _blocks(pts: np.ndarray, left, right, sign: float):
    """(start, left factor, right factor) of each _CHUNK-row block of pts, in
    order: the one loop that cuts points into blocks for both kernels."""
    for start in range(0, len(pts), _CHUNK):
        block = pts[start : start + _CHUNK]
        yield start, _khatri_rao(block, left, sign), _khatri_rao(block, right, sign)


def empirical_coefficients(data, cutoff: int) -> CoefficientGrid:
    """Empirical Fourier coefficients of a sample.

    theta_k = (1/n) sum_j conj(phi_k(X_j)) for every k in {-M..M}^d. The
    k = 0 entry is exactly 1 and the result is exactly Hermitian-symmetric;
    every entry has modulus <= 1 up to rounding.
    """
    pts = as_points(data)
    n, d = pts.shape
    size = _cube_size(cutoff, d)
    left, right, shape, width = _plan(cutoff, d)
    (j, lead), rest = left[0], left[1:]
    half = [(j, lead[lead >= 0])] + rest  # every k >= 0 in storage order
    acc = sum(lf @ rf.T for _, lf, rf in _blocks(pts, half, right, -1.0))
    full = np.zeros(math.prod(shape), dtype=complex)
    full[-acc.size :] = acc.reshape(-1)
    full.view(float)[:] /= n  # real division: numpy's complex one gives 161 / 161 < 1
    values = full.reshape(shape)[:, :width, :].reshape(-1)
    values[: size // 2] = np.conj(values[: size // 2 : -1])
    return CoefficientGrid(d, cutoff, values)


def project(grid: CoefficientGrid, cutoff: int) -> CoefficientGrid:
    """Restrict or zero-pad a grid to a new cut-off.

    cutoff <= grid.cutoff restricts to the central block; cutoff > grid.cutoff
    embeds the grid in a larger one with zeros outside. Projection onto the
    span of the first (2M'+1)^d basis functions in coefficient space.
    """
    _cube_size(cutoff, grid.dim)
    if cutoff == grid.cutoff:
        return grid.copy()
    d, old = grid.dim, grid.cutoff
    tensor = grid.values.reshape((2 * old + 1,) * d)
    if cutoff < old:
        sl = slice(old - cutoff, old + cutoff + 1)
        block = tensor[(sl,) * d]
    else:
        block = np.zeros((2 * cutoff + 1,) * d, dtype=complex)
        sl = slice(cutoff - old, cutoff + old + 1)
        block[(sl,) * d] = tensor
    return CoefficientGrid(d, cutoff, block.reshape(-1).copy())


def l2_distance_sq(a: CoefficientGrid, b: CoefficientGrid) -> float:
    """Squared L2([0,1]^d) distance of the associated trig polynomials.

    Parseval: sum_k |a_k - b_k|^2 over the union of supports, with the
    smaller grid treated as zero outside its cut-off.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.cutoff != b.cutoff:
        m = max(a.cutoff, b.cutoff)
        a, b = project(a, m), project(b, m)
    diff = a.values - b.values
    return float(np.sum(diff.real**2 + diff.imag**2))


def evaluate_complex(grid: CoefficientGrid, x) -> np.ndarray | complex:
    """sum_k theta_k phi_k(x), the full complex value.

    x may be a scalar (d=1), a single point of length d, or an (N, d) batch;
    a single point returns a complex scalar, a batch returns an array.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 0 or (arr.ndim == 1 and grid.dim > 1)
    pts = as_points(arr.reshape(1, -1) if single else arr, dim=grid.dim)
    left, right, shape, width = _plan(grid.cutoff, grid.dim)
    tensor = np.zeros(shape, dtype=complex)
    tensor[:, :width, :] = grid.values.reshape(shape[0], width, shape[2])
    tensor = tensor.reshape(math.prod(len(f) for _, f in left), -1)
    out = np.empty(pts.shape[0], dtype=complex)
    for start, lf, rf in _blocks(pts, left, right, 1.0):
        # the left factor's axes contract in the matrix product, the right's in a column-wise dot
        out[start : start + lf.shape[1]] = np.einsum("ij,ij->j", tensor.T @ lf, rf)
    return complex(out[0]) if single else out


def evaluate_lattice(grid: CoefficientGrid, per_axis: int | None = None) -> np.ndarray:
    """evaluate_complex on midpoint_lattice(d, per_axis), in its order. d = 1 runs the
    point kernel, whose two tables of ~sqrt(2M+1) rows cost less than one of 2M+1."""
    axis = _lattice_axis(grid.dim, per_axis)
    if grid.dim == 1:
        return evaluate_complex(grid, axis[:, None])
    table = _exp_table(axis, np.arange(-grid.cutoff, grid.cutoff + 1), 1.0)
    tensor = grid.values.reshape((2 * grid.cutoff + 1,) * grid.dim)
    for _ in range(grid.dim):
        tensor = np.tensordot(tensor, table, axes=([0], [0]))
    return tensor.reshape(-1)


def evaluate(grid: CoefficientGrid, x):
    """Real part of the trig polynomial at x.

    For a Hermitian-symmetric grid this is the exact (real) function value.
    Noisy grids are genuinely complex valued; taking the real part is the
    rendering convention here (post-processing, so privacy is unaffected),
    and the imaginary part of `evaluate_complex` is what it discards.
    """
    out = evaluate_complex(grid, x)
    return np.real(out) if isinstance(out, np.ndarray) else out.real
