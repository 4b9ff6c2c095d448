"""Tests for the ground-truth density fixtures: the smooth bump, random
trigonometric densities with certified positivity, bump-packing perturbations
of the uniform density, and rejection sampling.

Mass and distance checks use midpoint-lattice quadrature as the oracle;
for trigonometric polynomials that rule is exact up to rounding, and for
the C-infinity bumps it converges faster than any polynomial rate.
"""

import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from privdens import densities as dens
from privdens import fourier
from privdens.densities import (
    ClippedDensity,
    PackingDensity,
    TrigDensity,
    density_from_json_dict,
    exact_bias,
    make_packing_density,
    make_trig_density,
    midpoint_lattice,
    quadrature_mass,
    rejection_sample,
)
from privdens.estimator import ProjectionEstimate, fit
from privdens.fourier import (
    CoefficientGrid,
    empirical_coefficients,
    l2_distance_sq,
    multi_indices,
)
from theory_checks import project


# ---------------------------------------------------------------------------
# the bump, seen through PackingDensity.evaluate
# ---------------------------------------------------------------------------


def _one_bump(d):
    # m = 1: a single active bump at the center of the cube, so no other bump
    # is near any point these tests use; returns it with its floor 1 - offset
    # and its support radius 2h
    f = make_packing_density(np.ones(1), 1, 1.0, d=d)
    return f, 1.0 - f.offset, 2.0 * f.h


def test_bump_at_origin():
    for d in (1, 3):
        f, floor, _ = _one_bump(d)
        peak = floor + f.h**f.beta * f.amplitude * math.exp(-1.0)
        assert f.evaluate(np.full(d, 0.5)) == pytest.approx(peak, rel=1e-14)


def test_bump_support():
    for d, direction in ((1, [1.0]), (1, [-1.0]), (2, [0.6, 0.8])):  # a unit vector
        f, floor, radius = _one_bump(d)
        for r in (1.0, 1.5, 2.0):  # on and past the rim
            assert f.evaluate(0.5 + r * radius * np.array(direction)) == floor


def test_bump_boundary_decay():
    # the bump falls monotonically from its peak to the floor at the rim
    f, floor, radius = _one_bump(1)
    vals = [f.evaluate(np.array([0.5 + u * radius])) for u in (0.0, 0.5, 0.9, 0.999)]
    assert vals[0] > vals[1] > vals[2] > floor
    assert vals[3] == floor  # exp(-500) is below the floor's last bit


def test_bump_symmetries():
    f, _, radius = _one_bump(2)
    u = np.random.default_rng(3).uniform(-0.9, 0.9, size=(20, 2)) / math.sqrt(2.0)
    base = f.evaluate(0.5 + radius * u)
    assert np.allclose(f.evaluate(0.5 + radius * u * np.array([-1.0, 1.0])), base, rtol=1e-13)
    assert np.allclose(f.evaluate(0.5 + radius * u[:, ::-1]), base, rtol=1e-13)


def _tanh_sinh(f, h=2.0**-6, t_max=3.0):
    # the double-exponential rule on (0, 1): r = (1 + tanh(pi/2 sinh t)) / 2 and
    # the trapezoid rule in t; the nodes past |t| = 3 lie within 2e-14 of 0 or 1
    t = np.arange(-t_max, t_max + h / 2, h)
    u = 0.5 * np.pi * np.sinh(t)
    r = 0.5 * (1.0 + np.tanh(u))
    return h * np.sum(f(r) * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2)


def test_bump_integrals_match_an_independent_rule():
    # Psi, Psi' and Psi'' written out again, integrated by tanh-sinh
    def profile(r):
        s = (1.0 - r) * (1.0 + r)
        psi, g = np.exp(-1.0 / s), -2.0 * r / s**2
        return psi, psi * g, psi * (g * g - (2.0 + 6.0 * r * r) / s**3)

    for d in range(1, 21):
        area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
        got = dens._bump_integrals(d)
        for key, part, power in (("mass", 0, 1), ("sq", 0, 2), ("grad_sq", 1, 2), ("d2_sq", 2, 2)):
            if key in got:
                want = area * _tanh_sinh(lambda r: r ** (d - 1) * profile(r)[part] ** power)
                assert got[key] == pytest.approx(want, rel=1e-12), (d, key)
    assert "d2_sq" in dens._bump_integrals(1) and "d2_sq" not in dens._bump_integrals(2)


# ---------------------------------------------------------------------------
# trigonometric fixtures
# ---------------------------------------------------------------------------


def test_make_trig_zero_cutoff_is_uniform():
    truth = make_trig_density(2.0, 2.0, M_truth=0, d=1, rng=np.random.default_rng(1))
    assert truth.cutoff == 0
    assert truth.coefficients.values[0] == 1.0 + 0.0j
    assert truth.sobolev_budget() == pytest.approx(0.0, abs=1e-15)
    assert truth.min_value == pytest.approx(1.0)


def test_sobolev_budget_hand_computed():
    # theta_{+-1} = 0.2 at beta = 1: budget = 2 (2 pi)^2 0.04
    vals = np.array([0.2, 1.0, 0.2], dtype=complex)
    truth = TrigDensity(CoefficientGrid(1, 1, vals), beta=1.0, L=2.0, min_value=0.2)
    assert truth.sobolev_budget() == pytest.approx(2.0 * (2.0 * math.pi) ** 2 * 0.04, rel=1e-12)
    assert truth.sobolev_budget() == pytest.approx(3.158, rel=1e-3)


@pytest.mark.parametrize("beta,M_truth,seed", [(2.0, 20, 7), (1.0, 32, 11), (1.5, 8, 5)])
def test_trig_fixture_invariants(beta, M_truth, seed):
    truth = make_trig_density(beta, 2.0, M_truth=M_truth, d=1,
                              rng=np.random.default_rng(seed))
    vals = truth.coefficients.values
    # Hermitian symmetry and theta_0 = 1
    assert np.allclose(vals, np.conj(vals[::-1]), atol=1e-12)
    assert vals[M_truth] == pytest.approx(1.0 + 0.0j, abs=1e-15)
    # Sobolev budget within the ball
    assert truth.sobolev_budget() <= truth.L**2 + 1e-9
    # certified positivity
    assert truth.min_value >= 0.01
    lattice = midpoint_lattice(1)
    assert truth.evaluate(lattice).min() >= truth.min_value - 1e-9
    # unit mass by quadrature
    assert quadrature_mass(truth) == pytest.approx(1.0, abs=1e-10)


def _loop_trig_density(beta, L, M_truth, d, seed):
    """make_trig_density as first written, one scalar draw per coefficient
    in a Python loop: the reference that pins the fixture's bits."""
    ks = multi_indices(M_truth, d)
    rng, size = np.random.default_rng(seed), len(ks)
    center = (size - 1) // 2
    values = np.zeros(size, dtype=complex)
    values[center] = 1.0
    decay_exp = beta + d / 2.0 + 0.51
    for idx in range(center + 1, size):
        mag = rng.uniform(0.5, 1.0) * (1.0 + np.abs(ks[idx]).max()) ** (-decay_exp)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values[idx] = mag * np.exp(1j * phase)
        values[size - 1 - idx] = np.conj(values[idx])
    w = dens._sobolev_weights(ks, beta)
    tail = np.sum(w * np.abs(values) ** 2) - (w[center] * 1.0)
    target = 0.8 * (L * L - 1.0) if int(math.floor(beta)) == 0 else 0.8 * L * L
    if tail > 0:
        values *= math.sqrt(target / tail)
        values[center] = 1.0
    slack_step = float(fourier._lattice_axis(d)[0])
    for _ in range(100):
        grid = CoefficientGrid(d, M_truth, values.copy())
        certified = float(np.min(fourier.evaluate_lattice(grid, len(fourier._lattice_axis(d)))))
        certified -= dens._lipschitz_bound(grid) * slack_step
        if certified >= 0.01:
            return TrigDensity(grid, beta=beta, L=L, min_value=certified)
        values *= 0.8
        values[center] = 1.0
    raise AssertionError("the reference could not certify positivity")


@pytest.mark.parametrize("d, cutoffs", [(1, (1, 8, 20, 32)), (2, (1, 4, 8)), (3, (1, 3)),
                                        (4, (1, 2))], ids=["d1", "d2", "d3", "d4"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
def test_make_trig_matches_the_scalar_loop_bit_for_bit(beta, d, cutoffs):
    for M_truth, seed in itertools.product(cutoffs, (7, 11, 21)):
        got = make_trig_density(beta, 2.0, M_truth, d=d, rng=np.random.default_rng(seed))
        ref = _loop_trig_density(beta, 2.0, M_truth, d, seed)
        assert np.array_equal(got.coefficients.values.view(np.uint64),
                              ref.coefficients.values.view(np.uint64)), (M_truth, seed)
        assert got.min_value == ref.min_value


def test_trig_fixture_d2():
    truth = make_trig_density(1.0, 2.0, M_truth=3, d=2, rng=np.random.default_rng(9))
    assert truth.dim == 2
    assert quadrature_mass(truth) == pytest.approx(1.0, abs=1e-10)
    assert truth.min_value >= 0.01


def test_make_trig_validation():
    with pytest.raises(ValueError):
        make_trig_density(0.0, 2.0, 4, rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        make_trig_density(1.0, 1.0, 4, rng=np.random.default_rng(1))  # L must exceed 1
    with pytest.raises(ValueError):
        make_trig_density(1.0, 2.0, -1, rng=np.random.default_rng(1))


@pytest.mark.parametrize("beta, M_truth, d, fragment", [
    (1e308, 4, 1, "beta must be below 194, got 1e+308"),
    (3000.0, 2, 3, "beta must be below 194, got 3000.0"),
    (200.0, 2, 1, "beta must be below 194, got 200.0"),
    (150.0, 2, 1, "beta = 150.0 overflows the Sobolev weights up to |k| = 2"),
])
def test_make_trig_refuses_a_beta_whose_weights_overflow(beta, M_truth, d, fragment):
    # refused before the weight loop, or once a weight is found to overflow
    with pytest.raises(ValueError) as err:
        make_trig_density(beta, 2.0, M_truth, d=d, rng=0)
    assert fragment in str(err.value)


@pytest.mark.parametrize("d, b", [(1, 1), (1, 5), (2, 3), (3, 2), (3, 4), (4, 3)])
def test_sobolev_weights_match_brute_force(d, b):
    # sum over every alpha with |alpha| = b of prod_i x_i^alpha_i, x = (2 pi k)^2
    ks = multi_indices(2, d)
    x = (2.0 * np.pi * ks) ** 2
    brute = np.zeros(len(ks))
    for alpha in itertools.product(range(b + 1), repeat=d):
        if sum(alpha) == b:
            brute += np.prod(x ** np.array(alpha), axis=1)
    assert np.allclose(dens._sobolev_weights(ks, b + 0.5), brute, rtol=1e-13, atol=0)


def test_sobolev_weights_of_high_order_are_not_enumerated():
    # h_150 of four equal x is C(153, 3) x^150, a sum of 585,276 products
    w = dens._sobolev_weights(np.ones((1, 4), dtype=int), 150.0)
    assert w[0] == pytest.approx(math.comb(153, 3) * (2.0 * math.pi) ** 300, rel=1e-12)


def test_make_trig_damps_until_positivity_is_certified(monkeypatch):
    passes = []
    bound = dens._lipschitz_bound
    monkeypatch.setattr(dens, "_lipschitz_bound", lambda grid: passes.append(1) or bound(grid))
    truth = make_trig_density(0.5, 2.0, 20, d=1, rng=0)
    assert len(passes) == 7  # six damping rounds before the bound is certified
    assert truth.min_value >= 0.01
    assert truth.evaluate(midpoint_lattice(1)).min() >= truth.min_value


def test_uniform_classmethod():
    u = TrigDensity.uniform(2)
    assert u.dim == 2
    assert math.isinf(u.beta)
    pts = np.random.default_rng(2).random((10, 2))
    assert np.allclose(u.evaluate(pts), 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# exact bias
# ---------------------------------------------------------------------------


def test_exact_bias_examples():
    vals = np.zeros(5, dtype=complex)
    vals[2] = 1.0              # theta_0
    vals[0] = vals[4] = 0.1    # theta_{-2} = theta_{+2}
    truth = TrigDensity(CoefficientGrid(1, 2, vals), beta=1.0, L=2.0, min_value=0.5)
    assert exact_bias(truth, 1) == pytest.approx(0.02, rel=1e-12)
    assert exact_bias(truth, 2) == 0.0
    assert exact_bias(truth, 7) == 0.0


def test_exact_bias_nonincreasing():
    truth = make_trig_density(2.0, 2.0, M_truth=20, d=1, rng=np.random.default_rng(7))
    vals = [exact_bias(truth, M) for M in range(25)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[20] == 0.0
    assert vals[0] > 0.0


def test_exact_bias_sobolev_bound_beta2_fixture():
    # bias(M) <= L^2 / (2 pi)^(2 beta) (M+1)^(-2 beta) for the frozen fixture
    truth = make_trig_density(2.0, 2.0, M_truth=20, d=1, rng=np.random.default_rng(7))
    for M in range(17):
        bound = truth.L**2 / (2.0 * math.pi) ** 4 / (M + 1) ** 4
        assert exact_bias(truth, M) <= bound


@pytest.mark.parametrize("d,M_truth,seed", [(2, 8, 21), (3, 4, 5)])
def test_exact_bias_is_the_distance_to_the_projection(d, M_truth, seed):
    truth = make_trig_density(2.0, 2.0, M_truth=M_truth, d=d, rng=seed)
    for M in (0, 1, M_truth - 1, M_truth, M_truth + 2):
        ref = l2_distance_sq(project(truth.coefficients, M), truth.coefficients)
        assert exact_bias(truth, M) == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert (ref > 0) == (M < M_truth)


# ---------------------------------------------------------------------------
# packing densities
# ---------------------------------------------------------------------------


def test_packing_all_zeros_is_uniform():
    f = make_packing_density(np.zeros(4, dtype=int), 4, 1.0, d=1)
    pts = np.random.default_rng(5).random((50, 1))
    assert np.allclose(f.evaluate(pts), 1.0, atol=1e-15)
    assert f.offset == 0.0


def test_packing_numpy_sizes_dump_to_json():
    # m and d are stored as Python ints, as a grid's M and d are
    f = make_packing_density([1, 0, 0, 1], np.int64(2), 1.0, d=np.int32(2))
    assert type(f.m) is int and type(f.d) is int
    assert json.dumps(f.to_json_dict()) == json.dumps(
        make_packing_density([1, 0, 0, 1], 2, 1.0, d=2).to_json_dict())


def test_packing_mass_and_positivity():
    rng = np.random.default_rng(6)
    theta = rng.integers(0, 2, size=4)
    f = make_packing_density(theta, 4, 1.0, d=1)
    assert quadrature_mass(f) == pytest.approx(1.0, abs=1e-6)
    lattice = midpoint_lattice(1)
    assert f.evaluate(lattice).min() >= 0.0


def test_packing_mass_d2():
    theta = np.array([1, 0, 0, 1])
    f = make_packing_density(theta, 2, 1.5, d=2)
    assert quadrature_mass(f) == pytest.approx(1.0, abs=1e-6)


def test_packing_h_rule():
    f = make_packing_density(np.ones(4, dtype=int), 4, 1.0, d=1)
    assert f.h == pytest.approx(min(1.0 / (f.gamma * 5.0), 1.0 / 20.0), rel=1e-12)
    # bump supports (radius 2h around centers 1/(m+1) apart) are disjoint
    assert 4.0 * f.h <= 1.0 / (f.m + 1) + 1e-15


def test_packing_one_bit_distance():
    base = np.array([1, 0, 1, 0])
    flip = np.array([1, 0, 1, 1])
    f1 = make_packing_density(base, 4, 1.0, d=1)
    f2 = make_packing_density(flip, 4, 1.0, d=1)
    lattice = midpoint_lattice(1)
    diff = f1.evaluate(lattice) - f2.evaluate(lattice)
    quad = float(np.mean(diff * diff))
    assert quad > 0.0
    # mass rebalancing subtracts the flipped bump's mass gamma h^(beta+d)
    # as a constant, so the squared distance obeys the Pythagoras identity
    # ||bump - c||^2 = ||bump||^2 - c^2 with ||bump||^2 = h^(2 beta + d) delta
    mass_shift = f1.gamma * f1.h ** (f1.beta + f1.d)
    assert f2.offset - f1.offset == pytest.approx(mass_shift, rel=1e-12)
    assert quad == pytest.approx(f1.bit_distance_sq() - mass_shift**2, rel=1e-9)
    # away from the flipped bump (disjoint supports) only the constant
    # offset difference remains
    center = _centers(f1)[3]
    mask = np.abs(lattice[:, 0] - center[0]) > 2.0 * f1.h
    assert np.allclose(diff[mask], mass_shift, atol=1e-14)


def _centers(f):
    """The m^d bump centers j/(m+1), j in {1..m}^d, in lexicographic order."""
    axis = np.arange(1, f.m + 1) / (f.m + 1)
    return np.stack(np.meshgrid(*([axis] * f.d), indexing="ij"), axis=-1).reshape(-1, f.d)


def _packing_by_loop(f, pts):
    """The packing density summed over every center, the reference for the
    evaluation that visits only each point's nearest center."""
    out = np.full(len(pts), 1.0 - f.offset)
    hb = f.h**f.beta
    for bit, center in zip(f.theta, _centers(f)):
        if bit:
            u = (pts - center) / (2.0 * f.h)
            r2 = np.sum(u * u, axis=1)
            mask = r2 < 1.0
            out[mask] += hb * f.amplitude * np.exp(-1.0 / (1.0 - r2[mask]))
    return out


@pytest.mark.parametrize("d,m,beta,floor_half", [
    (1, 4, 1.0, False), (1, 7, 0.5, True), (1, 3, 2.5, False),
    (2, 4, 1.0, False), (2, 3, 0.7, True), (3, 3, 1.0, False), (3, 2, 0.5, True),
])
def test_packing_evaluate_matches_loop_over_centers(d, m, beta, floor_half):
    rng = np.random.default_rng(31 * d + m)
    f = make_packing_density(rng.integers(0, 2, size=m**d), m, beta, d=d, floor_half=floor_half)
    # points on the rim of each support: just inside, on it and just outside,
    # plus the points half way between centers and the faces of the cube
    centers = _centers(f)
    u = rng.normal(size=(len(centers), d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rim = [centers + 2.0 * f.h * s * u for s in (1 - 1e-3, 1 - 1e-12, 1.0, 1 + 1e-12)]
    halfway = (np.arange(m + 1) + 0.5) / (m + 1)
    axis = np.concatenate([halfway, [0.0, 1.0]])
    cross = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    for pts in (midpoint_lattice(d), rng.random((5000, d)), np.clip(np.vstack(rim), 0, 1), cross):
        assert np.array_equal(f.evaluate(pts), _packing_by_loop(f, pts))


def test_packing_at_the_bump_cap_holds_one_byte_per_bump():
    # 2^20 bumps in d = 20: the bits are the only table, 1 MiB
    tracemalloc.start()
    try:
        f = make_packing_density(np.ones(2**20, np.uint8), 2, 1.0, d=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.active_count == 2**20
    assert peak < 8 * 2**20


def test_size_caps_refuse_before_allocating():
    assert midpoint_lattice(4).shape == (2**20, 4)  # the largest default lattice built
    with pytest.raises(ValueError, match="midpoint lattice"):
        midpoint_lattice(8)  # 32^8 points
    with pytest.raises(ValueError, match="bumps"):
        make_packing_density(np.ones(1), 100_000, 1.0, d=3)


def test_sample_size_cap_refuses_before_drawing():
    huge = TrigDensity.uniform(2**40)
    with pytest.raises(ValueError, match="coordinates, more than the 16777216"):
        rejection_sample(huge, 10, np.random.default_rng(0))
    largest_used = rejection_sample(TrigDensity.uniform(1), 2**16, np.random.default_rng(0))
    assert largest_used.shape == (2**16, 1)


def test_size_caps_do_not_form_huge_powers():
    # a dimension from a document is refused without computing m^d exactly
    with pytest.raises(ValueError, match="inf bumps"):
        make_packing_density(np.ones(1), 2, 1.0, d=10**12)
    with pytest.raises(ValueError, match="inf points"):
        midpoint_lattice(10**12)
    with pytest.raises(ValueError, match="inf coefficients"):
        CoefficientGrid(10**12, 1, np.ones(1, dtype=complex))


def test_packing_refuses_a_dimension_past_the_bound():
    # m = 1 keeps m^d = 1 bump; gamma(d/2) in its geometry overflows from d = 344
    assert make_packing_density(np.ones(1), 1, 1.0, d=dens._MAX_PACKING_DIM).d == 20
    with pytest.raises(ValueError, match="packing dimension d = 400 is above 20"):
        make_packing_density(np.ones(1), 1, 1.0, d=400)


def test_packing_derives_its_geometry():
    # six arguments; h, amplitude, gamma and delta follow from them alone
    theta = np.array([1, 0, 1, 1])
    f = PackingDensity(theta, 4, 1.0, 1, 2.0, False)
    g = make_packing_density(theta, 4, 1.0, d=1, L=2.0)
    for name in ("h", "amplitude", "gamma", "delta"):
        assert getattr(f, name) == getattr(g, name) > 0
    with pytest.raises(TypeError):
        PackingDensity(theta, 4, 1.0, 1, 2.0, False, h=0.01)


@pytest.mark.parametrize("key", ["beta", "L"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_fixtures_refuse_non_finite_beta_and_L(key, value):
    args = {"beta": 1.0, "L": 2.0, key: value}
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        make_packing_density(np.ones(2), 2, args["beta"], d=1, L=args["L"])
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        make_trig_density(args["beta"], args["L"], 4, rng=1)
    # a document is refused by its loader, naming the key
    for doc in (make_packing_density(np.ones(2), 2, 1.0).to_json_dict(),
                make_trig_density(1.0, 2.0, 2, rng=1).to_json_dict()):
        with pytest.raises(ValueError, match=f"'{key}' must be a finite number"):
            density_from_json_dict({**doc, key: value})


@pytest.mark.parametrize("L", [1e308, 1e160])
def test_packing_refuses_L_whose_geometry_overflows(L):
    # amplitude is infinite at 1e308, and delta, the amplitude squared, at 1e160
    with pytest.raises(ValueError, match=re.escape(f"L = {L!r} overflows the bump amplitude")):
        make_packing_density(np.ones(4), 4, 1.0, d=1, L=L)
    f = make_packing_density(np.ones(4), 4, 1.0, d=1, L=1e150)
    assert math.isfinite(f.bit_distance_sq()) and math.isfinite(f.sup_bound)


def test_packing_floor_half():
    f = make_packing_density(np.ones(4, dtype=int), 4, 1.0, d=1, floor_half=True)
    lattice = midpoint_lattice(1)
    assert f.evaluate(lattice).min() >= 0.5 - 1e-6


def test_packing_seminorm_unsupported_order():
    with pytest.raises(ValueError):
        make_packing_density(np.ones(4, dtype=int), 4, 2.5, d=2)  # b=2 only in d=1
    f = make_packing_density(np.ones(4, dtype=int), 4, 2.5, d=1)
    assert math.isfinite(f.amplitude) and f.amplitude > 0


def test_packing_theta_validation():
    with pytest.raises(ValueError):
        make_packing_density(np.array([1, 0, 1]), 2, 1.0, d=1)  # wrong length
    with pytest.raises(ValueError):
        make_packing_density(np.array([1, 2]), 2, 1.0, d=1)  # not a bit vector


# ---------------------------------------------------------------------------
# rejection sampling
# ---------------------------------------------------------------------------


def test_rejection_uniform_passes_proposals_through():
    u = TrigDensity.uniform(1)
    pts = rejection_sample(u, 5, np.random.default_rng(77))
    raw = np.random.default_rng(77).random((5, 1))
    assert np.array_equal(pts, raw)


def test_rejection_deterministic():
    truth = make_trig_density(1.0, 2.0, M_truth=4, d=1, rng=np.random.default_rng(13))
    a = rejection_sample(truth, 200, np.random.default_rng(5))
    b = rejection_sample(truth, 200, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert a.shape == (200, 1)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_rejection_refuses_negative_n_and_nonpositive_bound():
    with pytest.raises(ValueError, match="n must be an integer >= 0, got -1"):
        rejection_sample(TrigDensity.uniform(1), -1, np.random.default_rng(0))
    for bound in (0.0, -1.0, math.inf, math.nan):
        flat = type("Flat", (), {"dim": 1, "sup_bound": bound, "evaluate": np.ones_like})
        with pytest.raises(ValueError, match="sup bound must be > 0 and finite"):
            rejection_sample(flat(), 1, np.random.default_rng(0))


def test_rejection_caps_the_round_of_a_huge_bound():
    # need x bound overflows to inf; the round is capped at 2^20 proposals before int()
    huge = type("Huge", (), {"dim": 1, "sup_bound": 1e308,
                             "evaluate": lambda self, x: np.full(len(x), 1e308)})
    pts, stats = rejection_sample(huge(), 3, np.random.default_rng(0), return_stats=True)
    assert pts.shape == (3, 1) and stats["proposals"] == 2**20


def test_rejection_gives_up_after_max_rounds():
    proposals = []

    class Zero:  # a target of zero mass: no proposal is ever accepted
        dim, sup_bound = 1, 1.0

        def evaluate(self, x):
            proposals.append(len(x))
            return np.zeros(len(x))

    with pytest.raises(RuntimeError, match="produced 0/1 points in 1000 rounds"):
        rejection_sample(Zero(), 1, np.random.default_rng(0))
    assert proposals == [1] * dens._MAX_ROUNDS


def test_rejection_acceptance_rate():
    truth = make_trig_density(1.0, 2.0, M_truth=4, d=1, rng=np.random.default_rng(13))
    pts, stats = rejection_sample(truth, 20_000, np.random.default_rng(6),
                                  return_stats=True)
    assert stats["acceptance_rate"] == pytest.approx(1.0 / truth.sup_bound, rel=0.05)


def test_rejection_coefficient_recovery():
    # Samples from the fixture must reproduce its Fourier coefficients to
    # within the concentration width 4/sqrt(n) per coefficient.
    truth = make_trig_density(2.0, 2.0, M_truth=20, d=1, rng=np.random.default_rng(7))
    n = 100_000
    pts = rejection_sample(truth, n, np.random.default_rng(8))
    emp = empirical_coefficients(pts, truth.cutoff)
    err = np.abs(emp.values - truth.coefficients.values)
    assert err.max() <= 4.0 / math.sqrt(n)


def _rejection_sample_reference(density, n, rng, *, return_stats=False, rounds=None):
    """rejection_sample before the squeeze: every proposal is evaluated.
    rounds, if a list, receives each round's proposals and u*B."""
    d = int(density.dim)
    bound = float(density.sup_bound)
    fourier._require(0 < bound < math.inf, "sup bound", "> 0 and finite", bound)
    size = fourier._integer("n", n, 0) * d
    fourier._capped(size, dens._MAX_SAMPLE_VALUES,
                    lambda: f"{n} points in d = {d} are {size} coordinates", "samples")
    rng = np.random.default_rng(rng)

    blocks = []
    got = 0
    proposals_total = 0
    accepted_total = 0
    while got < n and len(blocks) < dens._MAX_ROUNDS:  # one block per round
        need = n - got
        chunk = need if bound <= 1.0 else int(math.ceil(min(need * bound, 1 << 20)))
        proposals = rng.random((chunk, d))
        fvals = np.asarray(density.evaluate(proposals), dtype=float)
        u = rng.random(chunk)
        if rounds is not None:
            rounds.append((proposals, u * bound))
        accept = u * bound < fvals
        taken = proposals[accept][:need]
        blocks.append(taken)
        got += len(taken)
        proposals_total += chunk
        accepted_total += int(accept.sum())
    if got < n:
        raise RuntimeError(
            f"rejection sampling produced {got}/{n} points in {dens._MAX_ROUNDS} rounds; "
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


def _clipped(d, M, rho):
    truth = make_trig_density(2.0, 2.0, M_truth=M, d=d, rng=np.random.default_rng(40 + d))
    data = rejection_sample(truth, 4096, np.random.default_rng(d))
    return ClippedDensity(fit(data, M, budget=rho, rng=np.random.default_rng(d)))


def _packing(d, m, floor_half):
    bits = np.random.default_rng(m + d).integers(0, 2, size=m**d)
    return make_packing_density(bits, m, 1.5, d=d, floor_half=floor_half)


def _false_min_value():
    doc = make_trig_density(1.0, 2.0, M_truth=8, d=1, rng=np.random.default_rng(3)).to_json_dict()
    return density_from_json_dict({**doc, "min_value": 0.999})


class _Flat:  # the duck-typed targets of the tests above, as classes
    dim, sup_bound, evaluate = 1, math.nan, np.ones_like


class _Huge:
    dim, sup_bound = 1, 1e308

    def evaluate(self, x):
        return np.full(len(x), 1e308)


class _Zero:
    dim, sup_bound = 1, 1.0

    def evaluate(self, x):
        return np.zeros(len(x))


# every density kind with a floor > 0 ("+"), and the targets without one
SAMPLER_TARGETS = {
    "trig-d1+": lambda: make_trig_density(1.0, 2.0, M_truth=32, d=1, rng=np.random.default_rng(11)),
    "trig-d2+": lambda: make_trig_density(2.0, 2.0, M_truth=8, d=2, rng=np.random.default_rng(21)),
    "trig-d3+": lambda: make_trig_density(2.0, 2.0, M_truth=4, d=3, rng=np.random.default_rng(31)),
    "trig-d4+": lambda: make_trig_density(2.0, 2.0, M_truth=1, d=4, rng=np.random.default_rng(41)),
    "trig-false-min-value+": _false_min_value,
    "clipped-d1+": lambda: _clipped(1, 4, 1.0),
    "clipped-d1-zero-floor": lambda: _clipped(1, 4, 1e-7),
    "clipped-d2+": lambda: _clipped(2, 2, 1.0),
    "clipped-d2-zero-floor": lambda: _clipped(2, 2, 1e-3),
    "clipped-d3-no-lattice+": lambda: _clipped(3, 1, 1.0),  # 128^3 points: the coefficient floor
    **{f"packing-d{d}{'-half' if half else ''}+": (lambda d=d, m=m, half=half: _packing(d, m, half))
       for d, m in ((1, 4), (2, 3), (3, 2)) for half in (False, True)},
    **{f"uniform-d{d}+": (lambda d=d: TrigDensity.uniform(d)) for d in (1, 2, 3)},
    "duck-flat": _Flat,
    "duck-huge": _Huge,
    "duck-zero": _Zero,
}
DENSITY_KINDS = [key for key in SAMPLER_TARGETS if not key.startswith("duck")]


def _floor_of(density):
    floor = getattr(density, "inf_bound", 0.0)
    return floor if 0 < floor < math.inf else 0.0


def _cells_of(x, shape):
    # min(floor(x N), N - 1) per axis, in midpoint_lattice order
    n = shape[0]
    return np.ravel_multi_index(tuple(np.minimum(np.floor(x * n), n - 1).astype(int).T), shape)


def _undecided(density, proposals, scaled):
    """The proposals that neither the floor nor the cell bounds decide."""
    left = scaled >= _floor_of(density)
    bounds = getattr(density, "_cell_bounds", None)
    if bounds is not None:
        lattice, slack = bounds
        mid = lattice.flat[_cells_of(proposals, lattice.shape)]
        left &= (scaled >= mid - slack) & (scaled < mid + slack)
    return proposals[left]


def _sample_outcome(sampler, density, n, seed):
    rng = np.random.default_rng(seed)
    try:
        out = sampler(density, n, rng, return_stats=True)
    except (ValueError, RuntimeError) as exc:
        out = (type(exc), str(exc))
    return out, rng.bit_generator.state


@pytest.mark.parametrize("key", list(SAMPLER_TARGETS))
def test_squeeze_sampler_matches_the_full_evaluation_reference_bit_for_bit(key):
    # the same points, stats and generator state as evaluating every proposal,
    # and evaluate sees exactly the proposals that neither u*B < floor nor
    # the cell bounds of a trig target in d <= 3 decide, never none
    density = SAMPLER_TARGETS[key]()
    rounds = []
    want, want_state = _sample_outcome(
        lambda *a, **k: _rejection_sample_reference(*a, rounds=rounds, **k), density, 3000, 9)
    seen = []
    evaluate = density.evaluate
    object.__setattr__(density, "evaluate", lambda x: seen.append(np.copy(x)) or evaluate(x))
    got, got_state = _sample_outcome(rejection_sample, density, 3000, 9)
    assert got_state == want_state
    floor = _floor_of(density)
    assert (floor > 0) == key.endswith("+")
    cells = isinstance(density, TrigDensity) and density.dim <= 3  # trig and uniform
    assert (getattr(density, "_cell_bounds", None) is not None) == cells
    expected = [left for left in (_undecided(density, p, s) for p, s in rounds) if len(left)]
    if cells and not key.startswith("uniform"):  # the cells decide some the floor leaves
        assert sum(map(len, expected)) < sum(np.count_nonzero(s >= floor) for _, s in rounds)
    assert len(seen) == len(expected)
    assert all(len(a) and np.array_equal(a, b) for a, b in zip(seen, expected))
    if isinstance(want[0], type):  # refused, or out of rounds
        assert got == want
        return
    (pts, stats), (ref_pts, ref_stats) = got, want
    assert pts.shape == ref_pts.shape
    assert np.array_equal(pts.view(np.uint64), ref_pts.view(np.uint64))
    assert {k: stats[k] for k in ref_stats} == ref_stats
    assert stats["evaluated"] == sum(map(len, seen)) and stats["floor"] == floor
    if key.startswith("uniform"):
        assert seen == [] and stats["evaluated"] == 0


@pytest.mark.parametrize("key", DENSITY_KINDS)
def test_inf_bound_is_below_every_evaluated_value(key):
    # on 2^16 random points and on the lattices the floors are read from
    density = SAMPLER_TARGETS[key]()
    d = density.dim
    lattices = [midpoint_lattice(d, None if d < 4 else 16)]
    if isinstance(density, ClippedDensity):
        per_axis = _bernstein_per_axis(density.grid.cutoff, d)
        if per_axis**d <= fourier._MAX_LATTICE_POINTS:
            lattices.append(midpoint_lattice(d, per_axis))
    for x in (np.random.default_rng(d).random((2**16, d)), *lattices):
        assert density.inf_bound <= np.min(density.evaluate(x))


def test_trig_floor_ignores_the_documented_min_value():
    density = _false_min_value()
    fixture = make_trig_density(1.0, 2.0, M_truth=8, d=1, rng=np.random.default_rng(3))
    assert density.inf_bound == fixture.inf_bound < fixture.min_value < 0.999


def test_trig_floor_is_computed_at_first_use_not_at_set_up(monkeypatch):
    # making, loading and dumping a trig density evaluate the lattice only
    # while make_trig_density damps (here one round each); the floor is
    # evaluated once, on first use, and only in d <= 3
    calls = []
    lattice = fourier.evaluate_lattice
    monkeypatch.setattr(fourier, "evaluate_lattice",
                        lambda *a, **k: calls.append(a[0].dim) or lattice(*a, **k))
    for d, M, seed in ((1, 20, 7), (1, 32, 11), (2, 8, 21), (3, 4, 31), (4, 1, 41)):
        truth = make_trig_density(2.0, 2.0, M_truth=M, d=d, rng=np.random.default_rng(seed))
        assert calls == [d]
        copy = TrigDensity(truth.coefficients, truth.beta, truth.L, truth.min_value)
        loaded = density_from_json_dict(json.loads(json.dumps(truth.to_json_dict())))
        assert calls == [d] and copy.sup_bound == loaded.sup_bound
        assert loaded.inf_bound == loaded.inf_bound == truth.inf_bound
        assert calls == [d] + [d, d] * (d <= 3)
        calls.clear()


# the benchmark's truths (rate-sweep, adaptive-release, multidim d = 2 and 3)
# and the samplers' trig targets: the trig densities with cell bounds
CELL_TARGETS = {
    "rate-sweep": lambda: make_trig_density(1.0, 2.0, M_truth=32, d=1, rng=np.random.default_rng(11)),
    "adaptive-release": lambda: make_trig_density(2.0, 2.0, M_truth=20, d=1,
                                                  rng=np.random.default_rng(7)),
    "multidim-d2": SAMPLER_TARGETS["trig-d2+"],
    "multidim-d3": SAMPLER_TARGETS["trig-d3+"],
    "trig-d2-M16": lambda: make_trig_density(1.0, 2.0, M_truth=16, d=2, rng=np.random.default_rng(5)),
    "false-min-value": _false_min_value,
}


def _boundaries(per_axis):
    # every cell boundary k/N and one ulp either side, inside [0, 1]
    k = np.arange(per_axis + 1) / per_axis
    return np.unique(np.clip(np.concatenate(
        [k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf)]), 0.0, 1.0))


def _cell_bounds_hold(density, x):
    lattice, slack = density._cell_bounds
    cell = dens._cell_index(x, lattice.shape[0])
    assert np.array_equal(cell, _cells_of(x, lattice.shape))
    f, mid = density.evaluate(x), lattice.flat[cell]
    assert np.all(mid - slack <= f) and np.all(f <= mid + slack)


@pytest.mark.parametrize("key", list(CELL_TARGETS))
def test_cell_bounds_hold_at_random_points(key):
    density = CELL_TARGETS[key]()
    _cell_bounds_hold(density, np.random.default_rng(3).random((2**16, density.dim)))


@pytest.mark.parametrize("key", list(CELL_TARGETS))
def test_cell_bounds_hold_on_and_next_to_cell_boundaries(key):
    # in d >= 2 each coordinate is drawn from the boundaries, 2^16 points
    density = CELL_TARGETS[key]()
    d = density.dim
    edges = _boundaries(density._cell_bounds[0].shape[0])
    x = edges[:, None] if d == 1 else np.random.default_rng(4).choice(edges, size=(2**16, d))
    _cell_bounds_hold(density, x)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_index_and_midpoints_are_exact(d):
    # the default N is a power of two, so x N and (i + 1/2)/N are exact:
    # the float cell of every boundary point is its rational cell, and each
    # point is within 1/(2N) of its cell's midpoint in exact arithmetic
    per_axis = fourier._LATTICE_RESOLUTION[d]
    assert per_axis & (per_axis - 1) == 0
    axis = fourier._lattice_axis(d)
    assert [Fraction(v) for v in axis] == [Fraction(2 * i + 1, 2 * per_axis)
                                          for i in range(per_axis)]
    edges = _boundaries(per_axis)
    want = [min(math.floor(Fraction(v) * per_axis), per_axis - 1) for v in edges]
    assert dens._cell_index(edges[:, None], per_axis).tolist() == want
    assert all(abs(Fraction(v) - Fraction(axis[i])) <= Fraction(1, 2 * per_axis)
               for v, i in zip(edges, want))


def test_trig_cell_bounds_are_refused_where_they_are_not_finite():
    # d = 4 has no lattice; a Lipschitz bound that overflows leaves the floor
    assert SAMPLER_TARGETS["trig-d4+"]()._cell_bounds is None
    with np.errstate(all="raise"):
        assert density_from_json_dict(NEAR_OVERFLOW)._cell_bounds is None


def _write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _valid_d5_document():
    # M = 1 in d = 5: the default lattice would be 32^5 points, past the cap
    size = 3**5
    values = 0.002 * np.random.default_rng(5).standard_normal((size, 2)) @ [1, 1j]
    values[size // 2] = 1.0
    values[size // 2 + 1:] = np.conj(values[: size // 2][::-1])
    grid = CoefficientGrid(5, 1, values)
    return {"kind": "trig", "beta": 1.0, "L": 2.0, "min_value": 0.5,
            "coefficients": grid.to_json_dict()}


NEAR_OVERFLOW = {"kind": "trig", "beta": 1.0, "L": 2.0, "min_value": 0.5,
                 "coefficients": {"d": 1, "M": 2, "re": [1e307, 1e307, 1, 1e307, 1e307],
                                  "im": [0] * 5}}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc", [_valid_d5_document(), NEAR_OVERFLOW], ids=["d5", "near-overflow"])
def test_sample_of_documents_without_a_lattice_floor_keeps_its_bytes(tmp_path, capsys, doc):
    # a d = 5 trig document, whose lattice is over the cap, and one whose
    # Lipschitz bound overflows: privdens sample writes the points and line
    # of the full-evaluation loop, with no warning
    from privdens.cli import _write_points, main

    path = _write_doc(tmp_path / "dens.json", doc)
    out = tmp_path / "s.csv"
    assert main(["sample", path, "--n", "200", "--seed", "4", "--out", str(out)]) == 0
    pts, stats = _rejection_sample_reference(density_from_json_dict(doc), 200,
                                             np.random.default_rng(4), return_stats=True)
    _write_points(str(tmp_path / "want.csv"), pts)
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert capsys.readouterr().out == (
        f"wrote 200 points to {out} "
        f"(acceptance rate {stats['acceptance_rate']:.3f}, bound {stats['bound']:.6g})\n")


# ---------------------------------------------------------------------------
# clipped estimates as densities
# ---------------------------------------------------------------------------


def test_clipped_density_nonnegative_and_samplable():
    truth = make_trig_density(1.0, 2.0, M_truth=4, d=1, rng=np.random.default_rng(13))
    data = rejection_sample(truth, 2000, np.random.default_rng(14))
    est = fit(data, 4, budget=1.0, rng=np.random.default_rng(15))
    clipped = ClippedDensity(est)
    lattice = midpoint_lattice(1)
    assert clipped.evaluate(lattice).min() >= 0.0
    pts = rejection_sample(clipped, 100, np.random.default_rng(16))
    assert pts.shape == (100, 1)


def test_clipped_density_bound_is_on_the_real_part():
    # the bound is on Re f, whose coefficient sum |(theta_k + conj(theta_-k)) / 2|
    # is below sum |theta_k|; on a Hermitian grid it is at most that sum
    rng = np.random.default_rng(17)
    for d, M in ((1, 6), (2, 3), (3, 2)):
        size = (2 * M + 1) ** d
        values = 0.3 * (rng.normal(size=size) + 1j * rng.normal(size=size))
        values[size // 2] = 1.0
        clipped = ClippedDensity(CoefficientGrid(d, M, values))
        dense = midpoint_lattice(d, {1: 2**14, 2: 2**9, 3: 2**6}[d])
        assert clipped.evaluate(dense).max() <= clipped.sup_bound < np.abs(values).sum()
        hermitian = (values + np.conj(values[::-1])) / 2
        bound = ClippedDensity(CoefficientGrid(d, M, hermitian)).sup_bound
        assert bound <= np.abs(hermitian).sum()


def _bernstein_per_axis(M, d):
    # the smallest power of two N with pi M d / N <= 1/8
    return 1 << math.ceil(math.log2(8 * math.pi * M * d))


@pytest.mark.parametrize("d, M", [(1, 4), (1, 32), (1, 128), (2, 1), (2, 2), (2, 4), (3, 1),
                                  (3, 2)])
def test_clipped_density_bound_is_certified(d, M):
    # a noisy release: its |Re f| on a much denser lattice <= the bound <= the
    # coefficient sum of Re f; where the Bernstein lattice fits, the bound is
    # within 8/7 of the supremum that the dense lattice certifies (plus the
    # rounding allowance)
    data = np.random.default_rng(10 * d + M).random((4096, d))
    grid = fit(data, M, budget=1.0, rng=np.random.default_rng(d)).coefficients
    real_part = (grid.values + np.conj(grid.values[::-1])) / 2
    coef_sum = float(np.sum(np.abs(real_part)))
    dense = {1: 2**18, 2: 2**10, 3: 2**6}[d]
    top = float(np.max(np.abs(fourier.evaluate_lattice(grid, dense).real)))
    bound = ClippedDensity(grid).sup_bound
    assert top <= bound <= coef_sum
    if _bernstein_per_axis(M, d) ** d <= fourier._MAX_LATTICE_POINTS:
        sup = top / (1 - math.pi * M * d / dense)
        slack = dens._LATTICE_ROUNDING * M * d * coef_sum
        assert bound <= (sup + slack) * 8 / 7 * (1 + 1e-12)
    else:
        assert bound == coef_sum


@pytest.mark.parametrize("d, M, value", [(1, 0, 0.7 + 0.2j), (2, 0, 1.5 - 3j), (2, 21, None),
                                         (3, 1, None)])
def test_clipped_density_bound_falls_back_to_the_coefficient_sum(d, M, value):
    # M = 0 (a constant) and a Bernstein lattice past _MAX_LATTICE_POINTS
    # (2048^2 and 128^3 points) keep the coefficient sum of Re f, exactly
    size = (2 * M + 1) ** d
    values = 0.05 * np.random.default_rng(M).normal(size=size) + 0j
    values[size // 2] = 1.0 if value is None else value
    real_part = (values + np.conj(values[::-1])) / 2
    assert ClippedDensity(CoefficientGrid(d, M, values)).sup_bound == np.sum(np.abs(real_part))


@pytest.mark.parametrize("d, M", [(1, 1024), (2, 20)])
def test_lattice_rounding_allowance_covers_the_kernel(d, M):
    # the all-ones grid, whose terms all align, is the kernel's worst case; on
    # the bound's lattice its values stay within the rounding allowance of a
    # long-double direct sum with exactly reduced phases
    n = _bernstein_per_axis(M, d)
    grid = CoefficientGrid(d, M, np.ones((2 * M + 1) ** d, dtype=complex))
    got = fourier.evaluate_lattice(grid, n).real
    idx = np.unique(np.concatenate([np.arange(64), np.argsort(-got)[:64],
                                    np.random.default_rng(0).integers(0, n**d, 128)]))
    coords = np.stack(np.unravel_index(idx, (n,) * d), axis=-1)
    phase = (2 * coords + 1) @ multi_indices(M, d).T % (2 * n)  # x = (2i + 1) / (2N), exactly
    exact = np.cos(phase.astype(np.longdouble) * (np.longdouble(np.pi) / n)).sum(axis=1)
    err = float(np.max(np.abs(got[idx] - exact)))
    assert err <= dens._LATTICE_ROUNDING * M * d * grid.size


def test_clipped_density_degenerate_rejected():
    # an estimate that is negative everywhere clips to zero mass
    grid = CoefficientGrid(1, 0, np.array([-1.0 + 0.0j]))
    with pytest.raises(ValueError):
        ClippedDensity(grid)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_density_json_roundtrips():
    trig = make_trig_density(1.5, 2.0, M_truth=3, d=1, rng=np.random.default_rng(21))
    back = density_from_json_dict(json.loads(json.dumps(trig.to_json_dict())))
    assert isinstance(back, TrigDensity)
    assert np.array_equal(back.coefficients.values, trig.coefficients.values)
    assert back.beta == trig.beta

    pack = make_packing_density(np.array([1, 0, 0, 1]), 4, 1.0, d=1)
    back2 = density_from_json_dict(json.loads(json.dumps(pack.to_json_dict())))
    assert isinstance(back2, PackingDensity)
    assert np.array_equal(back2.theta, pack.theta)
    assert back2.h == pytest.approx(pack.h, rel=1e-15)

    uni = TrigDensity.uniform(2)
    back3 = density_from_json_dict(uni.to_json_dict())
    assert math.isinf(back3.beta) and back3.dim == 2


def test_density_json_errors():
    with pytest.raises(ValueError):
        density_from_json_dict({"kind": "spline", "d": 1})
    with pytest.raises(ValueError):
        density_from_json_dict({"kind": "packing", "m": 4})  # missing fields
    # wrong JSON types are rejected, never rounded or coerced
    with pytest.raises(ValueError, match="'d' must be an integer"):
        density_from_json_dict({"kind": "uniform", "d": 2.7})
    packing = make_packing_density(np.array([1, 0]), 2, 1.0, d=1).to_json_dict()
    assert density_from_json_dict(packing).m == 2
    for key, bad in (("m", 2.9), ("theta", [1.7, 0.4]), ("theta", [True, 0]),
                     ("floor_half", "no")):
        with pytest.raises(ValueError, match=repr(key)):
            density_from_json_dict({**packing, key: bad})
    grid = TrigDensity.uniform(1).coefficients.to_json_dict()
    for key, bad in (("M", 1.9), ("re", ["1.0"])):
        with pytest.raises(ValueError, match=repr(key)):
            CoefficientGrid.from_json_dict({**grid, key: bad})
    est = ProjectionEstimate(TrigDensity.uniform(1).coefficients, 100).to_json_dict()
    assert ProjectionEstimate.from_json_dict(est).n == 100
    for key, bad in (("n", 100.6), ("sigma", True), ("rho_spent", "0.5"),
                     ("n", 0), ("sigma", -1.0), ("sigma", math.inf), ("sigma", math.nan),
                     ("rho_spent", -2.0), ("rho_spent", 0.0), ("rho_spent", math.inf)):
        with pytest.raises(ValueError, match=repr(key)):
            ProjectionEstimate.from_json_dict({**est, key: bad})
