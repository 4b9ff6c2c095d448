"""Fourier analysis on the unit cube [0,1]^d.

The basis is the complex exponential family

    phi_k(x) = exp(i 2 pi <k, x>),    k in Z^d,

restricted to the cube of frequencies {-M..M}^d for a spectral cut-off M.
Coefficient vectors are stored densely in lexicographic multi-index order
(k_1 varies slowest), which keeps every downstream consumer, in particular
the noise generator, byte-reproducible under a fixed seed.

Empirical coefficients are computed by direct summation over the data,
O(n (2M+1)^d). Data points are arbitrary, not gridded, so there is nothing
for an FFT to exploit here; direct evaluation is exact and simple. The sum
is accumulated over fixed-size chunks in a fixed order, so results are
deterministic on a given platform.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientGrid",
    "as_points",
    "multi_indices",
    "empirical_coefficients",
    "project",
    "l2_distance_sq",
    "norm_sq",
    "evaluate",
    "evaluate_complex",
    "hermitian_defect",
]

# Rows of data processed per block in coefficient/evaluation sums. Fixed so
# the floating-point reduction order (and thus the output bits) never depends
# on memory pressure or thread count.
_CHUNK = 8192
# Cap on chunk_rows * n_frequencies so the exp() temporary stays ~100 MB
# even at large cut-offs (K = 8193 shows up in the dyadic selection grid).
_CHUNK_BUDGET = 4_000_000


def _chunk_rows(n_freq: int) -> int:
    return max(1, min(_CHUNK, _CHUNK_BUDGET // max(n_freq, 1)))


# Type checks shared by every loader of JSON documents and user parameters:
# a bool is neither an integer nor a number, and nothing is coerced.
def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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


def multi_indices(cutoff: int, dim: int) -> np.ndarray:
    """All frequency vectors k in {-cutoff..cutoff}^dim, lexicographic.

    Returns an integer array of shape ((2*cutoff+1)**dim, dim) whose rows are
    sorted lexicographically (first coordinate slowest). Row r of this array
    indexes entry r of every CoefficientGrid with the same cutoff and dim.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")
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
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        vals = np.asarray(self.values, dtype=complex)
        expected = (2 * self.cutoff + 1) ** self.dim
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

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
        return cls(dim, cutoff, re + 1j * im)

    @classmethod
    def from_json(cls, text: str) -> "CoefficientGrid":
        return cls.from_json_dict(json.loads(text))


def empirical_coefficients(data, cutoff: int) -> CoefficientGrid:
    """Empirical Fourier coefficients of a sample.

    theta_k = (1/n) sum_j conj(phi_k(X_j)) for every k in {-M..M}^d. The
    k = 0 entry is exactly 1. The result is Hermitian-symmetric up to
    rounding and every entry has modulus <= 1.
    """
    pts = as_points(data)
    n, d = pts.shape
    ks = multi_indices(cutoff, d).astype(float)
    acc = np.zeros(ks.shape[0], dtype=complex)
    step = _chunk_rows(ks.shape[0])
    for start in range(0, n, step):
        block = pts[start : start + step]
        acc += np.exp(-2j * np.pi * (block @ ks.T)).sum(axis=0)
    return CoefficientGrid(d, cutoff, acc / n)


def project(grid: CoefficientGrid, cutoff: int) -> CoefficientGrid:
    """Restrict or zero-pad a grid to a new cut-off.

    cutoff <= grid.cutoff restricts to the central block; cutoff > grid.cutoff
    embeds the grid in a larger one with zeros outside. Projection onto the
    span of the first (2M'+1)^d basis functions in coefficient space.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
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


def norm_sq(grid: CoefficientGrid) -> float:
    """Squared L2 norm of the trig polynomial, sum_k |theta_k|^2."""
    v = grid.values
    return float(np.sum(v.real**2 + v.imag**2))


def evaluate_complex(grid: CoefficientGrid, x) -> np.ndarray | complex:
    """sum_k theta_k phi_k(x), the full complex value.

    x may be a scalar (d=1), a single point of length d, or an (N, d) batch;
    a single point returns a complex scalar, a batch returns an array.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 0 or (arr.ndim == 1 and grid.dim > 1)
    pts = as_points(arr.reshape(1, -1) if single else arr, dim=grid.dim)
    ks = grid.indices().astype(float)
    out = np.empty(pts.shape[0], dtype=complex)
    step = _chunk_rows(ks.shape[0])
    for start in range(0, pts.shape[0], step):
        block = pts[start : start + step]
        out[start : start + block.shape[0]] = (
            np.exp(2j * np.pi * (block @ ks.T)) @ grid.values
        )
    return complex(out[0]) if single else out


def evaluate(grid: CoefficientGrid, x):
    """Real part of the trig polynomial at x.

    For a Hermitian-symmetric grid this is the exact (real) function value.
    Noisy grids are genuinely complex valued; taking the real part is the
    rendering convention here (post-processing, so privacy is unaffected),
    and the imaginary part of `evaluate_complex` is what it discards.
    """
    out = evaluate_complex(grid, x)
    return np.real(out) if isinstance(out, np.ndarray) else out.real


def hermitian_defect(grid: CoefficientGrid) -> float:
    """max_k |theta_k - conj(theta_{-k})|; 0 for real-valued polynomials.

    Reversing the lexicographic storage order maps k to -k, so the check is
    a single array reversal.
    """
    v = grid.values
    return float(np.abs(v - np.conj(v[::-1])).max())
