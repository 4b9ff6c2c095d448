"""Tests for the Fourier-basis layer: multi-index sets, basis evaluation,
empirical coefficients, projections, Parseval distances, serialization.

The quadrature oracle used below is the composite rectangle rule on a
midpoint lattice, which integrates trigonometric polynomials of bounded
degree exactly (up to rounding), so it gives an independent route to the
Parseval identities.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privdens import densities, fourier
from privdens.fourier import (
    CoefficientGrid,
    empirical_coefficients,
    evaluate,
    evaluate_complex,
    evaluate_lattice,
    l2_distance_sq,
    multi_indices,
)
from theory_checks import project


# ---------------------------------------------------------------------------
# multi-index enumeration
# ---------------------------------------------------------------------------


def test_multi_indices_d1_order():
    ks = multi_indices(2, 1)
    assert ks.shape == (5, 1)
    assert ks[:, 0].tolist() == [-2, -1, 0, 1, 2]


def test_multi_indices_d2_is_lexicographic():
    ks = multi_indices(1, 2)
    expected = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                (1, -1), (1, 0), (1, 1)]
    assert [tuple(row) for row in ks] == expected


@pytest.mark.parametrize("M,d", [(0, 1), (3, 1), (2, 2), (1, 3)])
def test_multi_indices_count(M, d):
    ks = multi_indices(M, d)
    assert ks.shape == ((2 * M + 1) ** d, d)
    # strictly increasing in lexicographic order, hence no duplicates
    rows = [tuple(r) for r in ks]
    assert rows == sorted(rows)


def test_multi_indices_validation():
    # a size is an integer: a bool, a float or a string is refused, not coerced
    for cutoff, dim in ((-1, 1), (2, 0), (True, 1), (1, True), (np.bool_(True), 1), (2.0, 1),
                        (1, 1.0), ("2", 1)):
        with pytest.raises(ValueError):
            multi_indices(cutoff, dim)
        with pytest.raises(ValueError):
            CoefficientGrid(dim, cutoff, np.ones(3))


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------


def _basis_value(k, x) -> complex:
    """phi_k at the single point x, through evaluate_complex on the grid
    whose only nonzero coefficient is theta_k = 1."""
    k = np.asarray(k)
    cutoff = int(np.abs(k).max())
    values = (multi_indices(cutoff, k.size) == k).all(axis=1).astype(complex)
    return complex(np.ravel(evaluate_complex(CoefficientGrid(k.size, cutoff, values), x))[0])


def test_eval_basis_constant_index():
    val = _basis_value(np.array([0]), np.array([0.37]))
    assert val == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_eval_basis_quarter_turn():
    # k = (1, 0) at x = (0.25, 0.5): e^{i 2 pi 0.25} = i
    val = _basis_value(np.array([1, 0]), np.array([0.25, 0.5]))
    assert val.real == pytest.approx(0.0, abs=1e-15)
    assert val.imag == pytest.approx(1.0, abs=1e-15)


def test_eval_basis_full_turn():
    val = _basis_value(np.array([2]), np.array([0.5]))
    assert val.real == pytest.approx(1.0, abs=1e-14)
    assert val.imag == pytest.approx(0.0, abs=1e-14)


def test_eval_basis_unit_modulus():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        ks = rng.integers(-7, 8, size=(20, d))
        xs = rng.random((20, d))
        for k, x in zip(ks, xs):
            assert abs(_basis_value(k, x)) == pytest.approx(1.0, abs=1e-13)


def test_eval_basis_dim_mismatch():
    with pytest.raises(ValueError):
        _basis_value(np.array([1, 0]), np.array([0.5]))


# ---------------------------------------------------------------------------
# empirical coefficients
# ---------------------------------------------------------------------------


def test_empirical_single_point_at_origin():
    grid = empirical_coefficients(np.array([[0.0]]), 2)
    assert np.allclose(grid.values, np.ones(5), atol=1e-15)


def test_empirical_single_point_at_half():
    # conj(phi_k(0.5)) = e^{-i pi k} alternates sign with k
    grid = empirical_coefficients(np.array([[0.5]]), 1)
    assert np.allclose(grid.values, np.array([-1.0, 1.0, -1.0]), atol=1e-14)


def test_empirical_zeroth_coefficient_is_one():
    rng = np.random.default_rng(11)
    data = rng.random((257, 2))
    grid = empirical_coefficients(data, 2)
    k0 = grid.size // 2  # k = 0 sits at the centre of the lexicographic order
    assert grid.values[k0] == pytest.approx(1.0, abs=1e-14)


def test_empirical_uniform_concentration():
    # Hoeffding-type bound: for uniform data every nonzero coefficient has
    # mean 0 and modulus at most 1, so |theta_k| <= 4 / sqrt(n) is a
    # > 5-sigma event per part.
    rng = np.random.default_rng(101)
    n = 100_000
    data = rng.random((n, 1))
    grid = empirical_coefficients(data, 3)
    k0 = grid.size // 2
    mags = np.abs(grid.values)
    mags[k0] = 0.0
    assert mags.max() <= 4.0 / math.sqrt(n)


def test_empirical_modulus_bound_and_hermitian():
    rng = np.random.default_rng(23)
    for d, M in ((1, 5), (2, 2)):
        data = rng.random((64, d))
        grid = empirical_coefficients(data, M)
        assert np.abs(grid.values).max() <= 1.0 + 1e-12
        assert np.abs(grid.values - np.conj(grid.values[::-1])).max() <= 1e-12  # k vs -k


def test_empirical_validation():
    with pytest.raises(ValueError):
        empirical_coefficients(np.empty((0, 1)), 1)
    with pytest.raises(ValueError):
        empirical_coefficients(np.array([[1.5]]), 1)
    with pytest.raises(ValueError):
        empirical_coefficients(np.array([[0.5, np.nan]]), 1)


def test_empirical_variance_popoviciu():
    # Per-coordinate variance of a bounded complex average: Popoviciu gives
    # var <= 1/n for each real part; the Monte-Carlo estimate may exceed
    # the bound only by its own sampling error, budgeted at 5 / sqrt(R).
    rng = np.random.default_rng(2718)
    R, n, M = 2000, 50, 2
    reals = np.empty((R, 2 * M + 1))
    imags = np.empty((R, 2 * M + 1))
    for r in range(R):
        grid = empirical_coefficients(rng.random((n, 1)), M)
        reals[r] = grid.values.real
        imags[r] = grid.values.imag
    tol = (1.0 / n) * (1.0 + 5.0 / math.sqrt(R))
    assert reals.var(axis=0, ddof=1).max() <= tol
    assert imags.var(axis=0, ddof=1).max() <= tol


# ---------------------------------------------------------------------------
# the separable kernel against a direct sum
# ---------------------------------------------------------------------------


def _direct_coefficients(x, M):
    """theta_k = mean_j exp(-2 pi i <k, X_j>), one cos/sin term per (point, k)."""
    ks = multi_indices(M, x.shape[1]).T.astype(float)
    acc = 0
    for start in range(0, len(x), 256):
        ang = 2.0 * np.pi * (x[start : start + 256] @ ks)
        acc = acc + np.cos(ang).sum(axis=0) - 1j * np.sin(ang).sum(axis=0)
    return acc / len(x)


def _direct_values(values, M, x):
    """sum_k theta_k exp(2 pi i <k, x>), one cos/sin term per (point, k)."""
    ks = multi_indices(M, x.shape[1]).T.astype(float)
    out = []
    for start in range(0, len(x), 256):
        ang = 2.0 * np.pi * (x[start : start + 256] @ ks)
        out.append(np.cos(ang) @ values + 1j * (np.sin(ang) @ values))
    return np.concatenate(out)


def _reduced_exp(x, freqs, sign):
    """exp(sign 2 pi i (f x mod 1)) with f x mod 1 reduced exactly, up to one
    final rounding. x = hi + lo with hi a multiple of 2^-40: f hi, for
    |f| < 2^13, is an exact double and so is its fraction; f lo is below
    2^-28 and rounds by at most 2^-81."""
    assert np.abs(freqs).max() < 2**13
    hi = np.round(x * 2.0**40) / 2.0**40
    f = freqs[:, None].astype(float)
    return np.exp(sign * 2j * np.pi * (np.modf(f * hi)[0] + f * (x - hi)))


_SPLIT_LEFT, _SPLIT_RIGHT, _, _ = fourier._plan(4096, 1)
_Q_HALF, _R = _SPLIT_LEFT[0][1], _SPLIT_RIGHT[0][1]  # the kernel keeps q >= 0

# (frequencies, bound). Row f is w^|f/step| for w = exp(sign 2 pi i step x),
# so its phase error is w's, about 2 pi |step| 2^-53, times |f/step|, plus one
# rounding per multiply: the bound follows the largest |f|, not the row count.
EXP_TABLE_CASES = (
    pytest.param(np.arange(-4, 5), 1e-13, id="-4..4"),
    pytest.param(np.arange(-64, 65), 1e-13, id="-64..64"),
    # more negative frequencies than positive: built from the end
    pytest.param(np.arange(-9, 4), 1e-13, id="-9..3"),
    # the M = 4096 split: q has 91 rows of step 91 with |f| up to 4095, its
    # k >= 0 half has its zero in row 0, r is -1..89
    pytest.param(np.concatenate([-_Q_HALF[:0:-1], _Q_HALF]), 8e-12, id="split-q"),
    pytest.param(_Q_HALF, 8e-12, id="split-q-half"),
    pytest.param(_R, 1e-13, id="split-r"),
    pytest.param(np.array([0]), 0.0, id="one-row"),
    # the longest d >= 2 lattice table
    pytest.param(np.arange(-2048, 2049), 4e-12, id="-2048..2048"),
)


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("freqs,bound", EXP_TABLE_CASES)
def test_exp_table_matches_reduced_phase(freqs, bound, sign):
    # a table is the powers of one exp of step x
    x = np.random.default_rng(len(freqs)).random(1024)
    step = freqs[1] - freqs[0] if len(freqs) > 1 else 1
    table = fourier._powers(np.exp(sign * 2j * np.pi * step * x), freqs)
    assert np.abs(table - _reduced_exp(x, freqs, sign)).max() <= bound
    row = {f: i for i, f in enumerate(freqs.tolist())}
    assert np.all(table[row[0]] == 1.0)
    for f, i in row.items():  # the mirrored side is the bit-exact conjugate
        if -f in row:
            assert np.array_equal(table[row[-f]], np.conj(table[i]))


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("M,step", ((32, 9), (4096, 91)))
def test_split_unit_matches_reduced_phase(M, step, sign):
    # a block takes one exp per point and coordinate: the q table of the split
    # coordinate holds powers of w^B, made from its r table by two multiplies
    x = np.random.default_rng(M).random(1024)
    left, right, _, _ = fourier._plan(M, 1)
    (_, q), (_, r) = left[0], right[0]
    assert q[1] - q[0] == len(r) == step
    _, lf, rf = next(fourier._blocks(x[:, None], left, right, sign))
    unit = lf[q.tolist().index(step)]
    # the phase error of w^B is about 2 pi B 2^-53, as for exp(2 pi i B x)
    assert np.abs(unit - _reduced_exp(x, np.array([step]), sign)[0]).max() <= 2e-15 * step
    assert np.abs(lf - _reduced_exp(x, q, sign)).max() <= 8e-12
    assert np.abs(rf - _reduced_exp(x, r, sign)).max() <= 1e-13


# (d, M, n): every n = 1 case and n = 1537, which is not a multiple of the
# kernel's block of 1024 points; M = 4096 on one block of points
KERNEL_CASES = (
    [(1, M, 1) for M in (0, 1, 7, 128)]
    + [(1, M, 1537) for M in (0, 1, 7, 128, 843)]
    + [(1, 4096, 1024)]
    + [(d, M, n) for d, Ms in ((2, (0, 3, 17)), (3, (0, 2, 6))) for M in Ms for n in (1, 1537)]
)


@pytest.mark.parametrize("d,M,n", KERNEL_CASES)
def test_kernel_coefficients_match_direct_sum(d, M, n):
    x = np.random.default_rng(1000 * d + M).random((n, d))
    grid = empirical_coefficients(x, M)
    assert np.abs(grid.values - _direct_coefficients(x, M)).max() <= 1e-12
    assert grid.values[grid.size // 2] == 1.0


@pytest.mark.parametrize("d,M,n", KERNEL_CASES)
def test_kernel_real_evaluation_matches_direct_sum(d, M, n):
    # evaluate sums the folded coefficients of Re f over the half set: on a
    # noisy-release grid (not Hermitian) and on its Hermitian part, each with
    # sum |theta_k| = 1, it agrees with Re of the direct sum, and
    # evaluate_complex with the whole direct sum
    rng = np.random.default_rng(4000 * d + M)
    size = (2 * M + 1) ** d
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    x = rng.random((n, d))
    for v in (values, values + np.conj(values[::-1])):
        grid = CoefficientGrid(d, M, v / np.abs(v).sum())
        direct = _direct_values(grid.values, M, x)
        assert np.abs(evaluate(grid, x) - direct.real).max() <= 1e-12
        assert np.abs(evaluate_complex(grid, x) - direct).max() <= 1e-12


@pytest.mark.parametrize("d,M,n", KERNEL_CASES)
def test_kernel_coefficients_are_exactly_hermitian(d, M, n):
    # the kernel computes the half k >= 0 and mirrors it by conjugation
    v = empirical_coefficients(np.random.default_rng(1000 * d + M).random((n, d)), M).values
    assert np.array_equal(v, np.conj(v[::-1]))
    assert v[v.size // 2] == 1


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(d=st.integers(1, 3), M=st.integers(0, 6), n=st.integers(1, 2100),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_direct_sum_property(d, M, n, seed):
    # n up to 2100 crosses the kernel's 1024-point block boundary twice
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    v = empirical_coefficients(x, M).values
    assert np.abs(v - _direct_coefficients(x, M)).max() <= 1e-12
    assert np.array_equal(v, np.conj(v[::-1])) and v[v.size // 2] == 1
    values = rng.normal(size=v.size) + 1j * rng.normal(size=v.size)
    grid = CoefficientGrid(d, M, values / np.abs(values).sum())
    assert np.abs(evaluate_complex(grid, x) - _direct_values(grid.values, M, x)).max() <= 1e-12


@pytest.mark.parametrize("d,M", sorted({(d, M) for d, M, _ in KERNEL_CASES}))
def test_kernel_evaluation_matches_direct_sum(d, M):
    # one point, 1537 random points and a midpoint lattice of about 1000
    # points, for a grid with sum |theta_k| = 1
    rng = np.random.default_rng(2000 * d + M)
    size = (2 * M + 1) ** d
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    grid = CoefficientGrid(d, M, values / np.abs(values).sum())
    lattice = densities.midpoint_lattice(d, 2 ** (10 // d))
    for x in (rng.random((1, d)), rng.random((1537, d)), lattice):
        direct = _direct_values(grid.values, M, x)
        assert np.abs(evaluate_complex(grid, x) - direct).max() <= 1e-12
        assert np.abs(evaluate(grid, x) - direct.real).max() <= 1e-12


# (2, 64) adds a 129-row lattice table, longer than any that KERNEL_CASES reach
@pytest.mark.parametrize("d,M", sorted({(d, M) for d, M, _ in KERNEL_CASES if d >= 2} | {(2, 64)}))
def test_lattice_evaluation_matches_direct_sum(d, M):
    # axis by axis on a midpoint lattice of about 1000 points, for a grid
    # with sum |theta_k| = 1 that is not Hermitian and for its Hermitian part:
    # Re of the direct sum
    rng = np.random.default_rng(3000 * d + M)
    size = (2 * M + 1) ** d
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    per_axis = round(1000 ** (1 / d))
    for v in (values, values + np.conj(values[::-1])):
        grid = CoefficientGrid(d, M, v / np.abs(v).sum())
        direct = _direct_values(grid.values, M, densities.midpoint_lattice(d, per_axis))
        assert np.abs(evaluate_lattice(grid, per_axis) - direct.real).max() <= 1e-12


def test_lattice_evaluation_is_in_midpoint_lattice_order():
    # a grid with no symmetry between its axes or between k and -k, on a
    # lattice with an odd number of points per axis: any other order of the
    # output, such as the lattice axes reversed, gives other values
    rng = np.random.default_rng(31)
    values = rng.normal(size=5**3) + 1j * rng.normal(size=5**3)
    grid = CoefficientGrid(3, 2, values / np.abs(values).sum())
    got = evaluate_lattice(grid, 5)
    want = _direct_values(grid.values, 2, densities.midpoint_lattice(3, 5)).real
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(got.reshape(5, 5, 5).transpose(2, 1, 0).reshape(-1) - want).max() > 0.1
    # d = 1 is the point kernel, bit for bit
    grid = CoefficientGrid(1, 7, values[:15])
    for n in (9, 1024, 1537):
        assert np.array_equal(evaluate_lattice(grid, n),
                              evaluate(grid, densities.midpoint_lattice(1, n)))


def test_lattice_evaluation_cap_refuses_before_allocating():
    # 2^11 points per axis in d = 2 are 2^22 lattice points: the same refusal
    # as midpoint_lattice's, before the table or any tensor is built
    grid = CoefficientGrid(2, 1, np.ones(9, dtype=complex))
    with pytest.raises(ValueError) as lattice_error:
        densities.midpoint_lattice(2, 2**11)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as error:
            evaluate_lattice(grid, 2**11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(error.value) == str(lattice_error.value)
    assert "midpoint lattice of 2048 points per axis in d = 2" in str(error.value)
    assert peak < 2**20


def test_kernel_bits_do_not_depend_on_blas_threads():
    # The byte-reproducible outputs rest on BLAS matrix products; one thread,
    # two threads and the default must give the same bytes. The lattice
    # route's contractions are matrix products too, whose inner dimension is
    # the contracted frequency axis.
    script = (
        "import hashlib, numpy as np\n"
        "from privdens.fourier import (CoefficientGrid, empirical_coefficients,\n"
        "                              evaluate, evaluate_complex, evaluate_lattice)\n"
        "rng = np.random.default_rng(3)\n"
        "h = hashlib.sha256()\n"
        "for d, M in ((1, 843), (1, 4096), (2, 17), (3, 6)):\n"
        "    grid = empirical_coefficients(rng.random((3000, d)), M)\n"
        "    h.update(grid.values.tobytes())\n"
        "    x = rng.random((3000, d))\n"
        "    h.update(evaluate_complex(grid, x).tobytes())\n"
        "    h.update(evaluate(grid, x).tobytes())\n"
        "    h.update(evaluate_lattice(grid).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    src = str(Path(fourier.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = set()
    for threads in (None, "1", "2"):
        env = dict(base) if threads is None else dict(base, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def test_size_cap_refuses_before_allocating():
    with pytest.raises(ValueError, match="coefficients"):
        multi_indices(10**12, 1)
    with pytest.raises(ValueError, match="coefficients"):
        empirical_coefficients(np.array([[0.5]]), 10**12)
    with pytest.raises(ValueError, match="coefficients"):
        project(CoefficientGrid(5, 0, np.ones(1)), 300)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _grid_from_values(values, M, d):
    return CoefficientGrid(d, M, np.asarray(values, dtype=np.complex128))


def test_project_identity_and_restriction():
    vals = np.arange(1, 6, dtype=float) + 1j * np.arange(5, 0, -1)
    grid = _grid_from_values(vals, M=2, d=1)
    same = project(grid, 2)
    assert np.array_equal(same.values, grid.values)
    inner = project(grid, 1)
    assert inner.cutoff == 1
    assert np.array_equal(inner.values, grid.values[1:4])


def test_project_zero_pads_upward():
    grid = _grid_from_values([1j, 2.0, 3.0 - 1j], M=1, d=1)
    wide = project(grid, 3)
    assert wide.cutoff == 3
    center = wide.size // 2
    assert wide.values[center] == 2.0
    assert np.count_nonzero(wide.values) == 3
    # restriction after padding is the identity
    back = project(wide, 1)
    assert np.array_equal(back.values, grid.values)


def test_project_is_l2_contraction():
    rng = np.random.default_rng(77)
    for d in (1, 2):
        M = 3 if d == 1 else 2
        vals = rng.normal(size=(2 * M + 1) ** d) + 1j * rng.normal(size=(2 * M + 1) ** d)
        grid = _grid_from_values(vals, M=M, d=d)
        for target in range(M + 1):
            proj = project(grid, target)
            assert np.sum(np.abs(proj.values) ** 2) <= np.sum(np.abs(vals) ** 2) + 1e-12


def _tensor_project(grid, cutoff):
    """project as first written, kept as the reference: the values as a
    d-dimensional tensor, sliced to restrict or written into zeros to pad."""
    d, old = grid.dim, grid.cutoff
    tensor = grid.values.reshape((2 * old + 1,) * d)
    if cutoff <= old:
        sl = slice(old - cutoff, old + cutoff + 1)
        block = tensor[(sl,) * d]
    else:
        block = np.zeros((2 * cutoff + 1,) * d, dtype=complex)
        sl = slice(cutoff - old, cutoff + old + 1)
        block[(sl,) * d] = tensor
    return block.reshape(-1).copy()


def _random_grid(rng, M, d):
    size = (2 * M + 1) ** d
    return _grid_from_values(rng.normal(size=size) + 1j * rng.normal(size=size), M=M, d=d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_within_is_the_cube_of_the_multi_indices(d):
    # cube M inside cube M': the rows of multi_indices(M', d) with |k|_inf <= M
    for outer in range(4):
        normmax = np.abs(multi_indices(outer, d)).max(axis=1)
        for M in range(outer + 1):
            assert np.array_equal(fourier._within(M, outer, d), np.flatnonzero(normmax <= M))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_project_matches_the_tensor_slice_bit_for_bit(d):
    rng = np.random.default_rng(60 + d)
    for old in range(4):
        grid = _random_grid(rng, old, d)
        for M in range(6):
            proj = project(grid, M)
            assert (proj.dim, proj.cutoff) == (d, M)
            assert np.array_equal(proj.values, _tensor_project(grid, M))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_project_returns_new_memory(d):
    # CoefficientGrid's contract: operations return new grids
    grid = _random_grid(np.random.default_rng(64), 2, d)
    for M in (0, 1, 2, 3):
        proj = project(grid, M)
        assert not np.shares_memory(proj.values, grid.values)
    same = project(grid, 2)
    assert np.array_equal(same.values, grid.values)


# ---------------------------------------------------------------------------
# Parseval distance vs a quadrature oracle
# ---------------------------------------------------------------------------


def test_l2_distance_unit_coefficient():
    a = _grid_from_values([0.0, 1.0, 0.0], M=1, d=1)
    b = _grid_from_values([0.0, 0.0, 0.0], M=1, d=1)
    assert l2_distance_sq(a, b) == pytest.approx(1.0, abs=1e-15)


def test_l2_distance_self_is_zero():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=7) + 1j * rng.normal(size=7)
    a = _grid_from_values(vals, M=3, d=1)
    assert l2_distance_sq(a, a) == 0.0


def test_l2_distance_different_cutoffs():
    a = _grid_from_values([1.0, 2.0, 1.0], M=1, d=1)
    b = project(a, 3)
    assert l2_distance_sq(a, b) == pytest.approx(0.0, abs=1e-15)


def _both_padded_l2(a, b):
    """The distance with both grids padded to the larger cut-off."""
    m = max(a.cutoff, b.cutoff)
    diff = _tensor_project(a, m) - _tensor_project(b, m)
    return float(np.sum(diff.real**2 + diff.imag**2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_l2_distance_mixed_cutoffs_is_symmetric_and_the_padded_sum(d):
    rng = np.random.default_rng(70 + d)
    grids = [_random_grid(rng, M, d) for M in (0, 1, 2, 3)]
    for a in grids:
        for b in grids:
            dist = l2_distance_sq(a, b)
            assert dist == l2_distance_sq(b, a) == _both_padded_l2(a, b)


def test_l2_distance_matches_quadrature_d1():
    # Rectangle-rule quadrature on 4096 midpoints integrates trig
    # polynomials of degree < 4096 exactly, providing an independent oracle.
    rng = np.random.default_rng(41)
    N = 4096
    xs = (np.arange(N) + 0.5) / N
    pts = xs.reshape(-1, 1)
    for _ in range(5):
        va = rng.normal(size=7) + 1j * rng.normal(size=7)
        vb = rng.normal(size=7) + 1j * rng.normal(size=7)
        a = _grid_from_values(va, M=3, d=1)
        b = _grid_from_values(vb, M=3, d=1)
        fa = evaluate_complex(a, pts)
        fb = evaluate_complex(b, pts)
        quad = np.mean(np.abs(fa - fb) ** 2)
        assert l2_distance_sq(a, b) == pytest.approx(quad, abs=1e-8)


def test_l2_distance_matches_quadrature_d2():
    rng = np.random.default_rng(43)
    N = 64
    axis = (np.arange(N) + 0.5) / N
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    size = (2 * 2 + 1) ** 2
    va = rng.normal(size=size) + 1j * rng.normal(size=size)
    vb = rng.normal(size=size) + 1j * rng.normal(size=size)
    a = _grid_from_values(va, M=2, d=2)
    b = _grid_from_values(vb, M=2, d=2)
    quad = np.mean(np.abs(evaluate_complex(a, pts) - evaluate_complex(b, pts)) ** 2)
    assert l2_distance_sq(a, b) == pytest.approx(quad, rel=1e-6)


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def test_evaluate_constant_density():
    grid = _grid_from_values([0.0, 1.0, 0.0], M=1, d=1)
    xs = np.linspace(0.0, 1.0, 17).reshape(-1, 1)
    assert np.allclose(evaluate(grid, xs), np.ones(17), atol=1e-14)


def test_evaluate_cosine_peak():
    # theta_{+1} = theta_{-1} = 0.5 adds cos(2 pi x); at x = 0 the three
    # terms sum to 2 (with theta_0 = 1).
    grid = _grid_from_values([0.5, 1.0, 0.5], M=1, d=1)
    assert evaluate(grid, np.array([0.0])) == pytest.approx(2.0, abs=1e-14)


def test_evaluate_takes_real_part():
    rng = np.random.default_rng(59)
    vals = rng.normal(size=9) + 1j * rng.normal(size=9)
    grid = _grid_from_values(vals, M=4, d=1)
    pts = rng.random((33, 1))
    assert np.allclose(evaluate(grid, pts),
                       evaluate_complex(grid, pts).real, atol=1e-13)


def test_evaluate_scalar_point_d1():
    grid = _grid_from_values([0.0, 1.0, 0.0], M=1, d=1)
    out = evaluate(grid, np.array(0.25))
    assert np.asarray(out).shape in ((), (1,))
    assert float(np.asarray(out).reshape(-1)[0]) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_grid_json_roundtrip_bit_exact():
    rng = np.random.default_rng(97)
    vals = rng.normal(size=25) + 1j * rng.normal(size=25)
    grid = _grid_from_values(vals, M=2, d=2)
    doc = json.loads(json.dumps(grid.to_json_dict()))
    back = CoefficientGrid.from_json_dict(doc)
    assert back.cutoff == grid.cutoff and back.dim == grid.dim
    assert np.array_equal(back.values, grid.values)


def test_grid_from_json_malformed():
    with pytest.raises(ValueError):
        CoefficientGrid.from_json_dict({"d": 1, "M": 1, "re": [1.0, 2.0], "im": [0.0]})
    with pytest.raises(ValueError):
        CoefficientGrid.from_json_dict({"d": 1, "re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]})


# ---------------------------------------------------------------------------
# input validation helpers
# ---------------------------------------------------------------------------


def test_as_points_rejects_bad_input():
    with pytest.raises(ValueError):
        fourier.as_points(np.array([[0.2, 0.3]]), 1)
    with pytest.raises(ValueError):
        fourier.as_points(np.array([[-0.1]]), 1)
    with pytest.raises(ValueError):
        fourier.as_points(np.array([[np.inf]]), 1)
