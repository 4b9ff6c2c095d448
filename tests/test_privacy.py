"""Tests for budget arithmetic, sensitivity calculus, and the Gaussian
mechanism. Privacy itself is not testable; the falsifiable surface is the
calibration identity (two independent routes to sigma must agree) and the
distribution of the injected noise.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from privdens import adaptive, experiments, privacy
from privdens.cli import main
from privdens.densities import TrigDensity
from privdens.estimator import ProjectionEstimate, fit
from privdens.experiments import ExperimentConfig
from privdens.fourier import CoefficientGrid, empirical_coefficients
from privdens.privacy import (
    BudgetLedger,
    add_noise,
    as_rho,
    coefficient_sensitivity,
    derived_rng,
    gaussian_sigma,
    sigma_for_cutoff,
)


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_examples():
    assert coefficient_sensitivity(100, 2, 2) == pytest.approx(0.02 * math.sqrt(50), rel=1e-14)
    assert coefficient_sensitivity(1, 0, 1) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    assert coefficient_sensitivity(1000, 7, 1) == pytest.approx(0.010954, rel=1e-4)


def test_sensitivity_validation():
    # n, M and d are integers: a bool, a float or a string is refused by both
    # routes to the noise scale, not coerced; so is a cube 3^1000 beyond the
    # float range
    for n, cutoff, dim in ((0, 1, 1), (10, -1, 1), (10, 1, 0), (2.5, 1, 1), (True, 1, 1),
                           ("10", 1, 1), (10, True, 1), (10, 1.0, 1), (10, 1, True),
                           (10, 1, 1.0), (10, 1, 1000)):
        with pytest.raises(ValueError):
            coefficient_sensitivity(n, cutoff, dim)
        with pytest.raises(ValueError):
            sigma_for_cutoff(n, 1.0, cutoff, dim)


# ---------------------------------------------------------------------------
# noise scale calibration
# ---------------------------------------------------------------------------


def test_gaussian_sigma_examples():
    assert float(gaussian_sigma(0.0, 1.0)) == 0.0
    assert float(gaussian_sigma(1.0, 0.5)) == pytest.approx(1.0, rel=1e-15)
    sens = (2.0 / 1000.0) * math.sqrt(30.0)
    assert float(gaussian_sigma(sens, 1.0)) == pytest.approx(2.0 * math.sqrt(15.0) / 1000.0, rel=1e-14)


def test_gaussian_sigma_validation():
    with pytest.raises(ValueError):
        gaussian_sigma(-1.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_sigma(1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_sigma(1.0, -2.0)
    for bad in (float("nan"), float("inf"), True, "0.5", None, 10**400):
        with pytest.raises(ValueError):
            gaussian_sigma(bad, 1.0)


def test_sigma_for_cutoff_examples():
    assert float(sigma_for_cutoff(1000, 1.0, 7, 1)) == pytest.approx(0.0077460, rel=1e-4)
    assert float(sigma_for_cutoff(100, 4.0, 0, 3)) == pytest.approx(0.01, rel=1e-15)


def test_calibration_identity_exhaustive():
    # The closed form and the sensitivity->mechanism route must agree within
    # 2 ulp on the full documented grid. This is the only testable face of
    # the zCDP guarantee, so the check is intentionally exhaustive.
    worst = 0.0
    for n in (1, 10, 100, 1000):
        for M in range(9):
            for d in (1, 2, 3):
                for rho in (0.01, 0.1, 1.0, 10.0):
                    direct = float(sigma_for_cutoff(n, rho, M, d))
                    routed = float(gaussian_sigma(coefficient_sensitivity(n, M, d), rho))
                    tol = 2.0 * math.ulp(max(abs(direct), abs(routed)))
                    assert abs(direct - routed) <= tol
                    worst = max(worst, abs(direct - routed) / math.ulp(max(direct, routed)))
    assert worst <= 2.0


def test_sigma_monotonicity():
    # nonincreasing in n and rho, nondecreasing in M and d
    ns = [1, 10, 100, 1000]
    rhos = [0.01, 0.1, 1.0, 10.0]
    for d in (1, 2):
        for M in (0, 3):
            sig_n = [float(sigma_for_cutoff(n, 1.0, M, d)) for n in ns]
            assert all(a >= b for a, b in zip(sig_n, sig_n[1:]))
            sig_r = [float(sigma_for_cutoff(100, r, M, d)) for r in rhos]
            assert all(a >= b for a, b in zip(sig_r, sig_r[1:]))
    sig_M = [float(sigma_for_cutoff(100, 1.0, M, 1)) for M in range(6)]
    assert all(a <= b for a, b in zip(sig_M, sig_M[1:]))
    sig_d = [float(sigma_for_cutoff(100, 1.0, 2, d)) for d in (1, 2, 3)]
    assert all(a <= b for a, b in zip(sig_d, sig_d[1:]))


# ---------------------------------------------------------------------------
# the mechanism
# ---------------------------------------------------------------------------


def _toy_grid():
    data = np.array([[0.2], [0.4], [0.8]])
    return empirical_coefficients(data, 2)


def test_add_noise_zero_sigma_is_identity():
    grid = _toy_grid()
    out = add_noise(grid, 0.0, np.random.default_rng(3))
    assert np.array_equal(out.values, grid.values)


def test_add_noise_zero_sigma_still_consumes_draws():
    # Documented contract: generator state after the call is independent of
    # sigma, so downstream draws stay aligned across private/non-private runs.
    grid = _toy_grid()
    rng_a = np.random.default_rng(17)
    add_noise(grid, 0.0, rng_a)
    rng_b = np.random.default_rng(17)
    rng_b.standard_normal((grid.size, 2))
    assert rng_a.standard_normal() == rng_b.standard_normal()


def test_add_noise_deterministic():
    grid = _toy_grid()
    out1 = add_noise(grid, 0.3, np.random.default_rng(99))
    out2 = add_noise(grid, 0.3, np.random.default_rng(99))
    assert np.array_equal(out1.values, out2.values)


def test_add_noise_complex_variance():
    # E|theta_hat - theta|^2 = 2 sigma^2; R = 1e4 replicates put the
    # Monte-Carlo error well inside the 5% budget.
    sigma = 0.1
    grid = CoefficientGrid(1, 0, np.array([1.0 + 0.0j]))
    rng = np.random.default_rng(314)
    R = 10_000
    devs = np.empty(R)
    for r in range(R):
        noisy = add_noise(grid, sigma, rng)
        devs[r] = abs(noisy.values[0] - grid.values[0]) ** 2
    assert devs.mean() == pytest.approx(2.0 * sigma**2, rel=0.05)


def test_add_noise_part_statistics():
    # Real and imaginary parts are each N(0, sigma^2): mean within
    # 4 sigma / sqrt(R), variance within 5 sigma^2 / sqrt(R), R = 1e5.
    sigma = 0.7
    R = 100_000
    rng = np.random.default_rng(2024)
    grid = CoefficientGrid(1, 2, np.zeros(5, dtype=complex))
    # draw through the mechanism in chunks of coefficients to keep the loop
    # count down: each call yields 5 complex = 10 real draws
    samples = []
    for _ in range(R // 5):
        noisy = add_noise(grid, sigma, rng)
        samples.append(noisy.values)
    vals = np.concatenate(samples)
    for part in (vals.real, vals.imag):
        assert abs(part.mean()) <= 4.0 * sigma / math.sqrt(len(part))
        assert abs(part.var() - sigma**2) <= 5.0 * sigma**2 / math.sqrt(len(part))


def test_add_noise_negative_sigma_rejected():
    with pytest.raises(ValueError):
        add_noise(_toy_grid(), -0.1, np.random.default_rng(0))


def test_noise_scale_validation():
    # the scale is checked where it is used: a scale that is negative or not
    # finite would release NaN or inf
    for bad in (-0.1, float("nan"), float("inf"), True, np.bool_(True), "0.5", None):
        with pytest.raises(ValueError):
            add_noise(_toy_grid(), bad, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# composition and budgets
# ---------------------------------------------------------------------------


def test_compose_examples():
    # zCDP parameters add: a ledger's total is the sum of its charges
    ledger = BudgetLedger()
    ledger.charge("only", 0.7)
    assert ledger.spent == pytest.approx(0.7)
    ledger = BudgetLedger()
    for rho in (0.1, 0.2):
        ledger.charge("part", rho)
    assert ledger.spent == pytest.approx(0.3, rel=1e-15)


def test_split_compose_roundtrip():
    # equal shares, as the selectors charge them, add back up to the budget
    for rho in (1.0, 0.3, 7.7):
        for parts in (1, 3, 13):
            ledger = BudgetLedger()
            for _ in range(parts):
                ledger.charge("share", rho / parts)
            assert len(ledger) == parts
            assert abs(ledger.spent - rho) <= 4 * math.ulp(rho)


def test_privacy_budget_validation():
    for bad in (0.0, -1.0, float("inf"), float("nan"), True, "0.5", None,
                np.float32("inf"), np.float16("nan"), np.float16(0.0), np.float32(-1.0)):
        with pytest.raises(ValueError):
            as_rho(bad)
        with pytest.raises(ValueError):
            BudgetLedger().charge("bad", bad)
    assert as_rho(np.float32(0.5)) == 0.5 and as_rho(np.int64(2)) == 2.0  # NumPy reals pass
    assert as_rho(np.float16(0.5)) == 0.5 and as_rho(np.float16(65504.0)) == 65504.0


def test_budget_ledger():
    ledger = BudgetLedger()
    ledger.charge("fit A", 0.25)
    ledger.charge("fit B", 0.5)
    assert len(ledger) == 2
    assert ledger.spent == pytest.approx(0.75, rel=1e-15)
    doc = ledger.to_json_dict()
    assert doc["spent"] == ledger.spent
    assert [e[0] for e in doc["entries"]] == ["fit A", "fit B"]


# ---------------------------------------------------------------------------
# derived generators
# ---------------------------------------------------------------------------


def test_derived_rng_deterministic_and_distinct():
    a1 = derived_rng(42, 0, 7).standard_normal(4)
    a2 = derived_rng(42, 0, 7).standard_normal(4)
    b = derived_rng(42, 0, 8).standard_normal(4)
    c = derived_rng(42, 1, 7).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


# ---------------------------------------------------------------------------
# the privacy claim: sensitivity and ledger
# ---------------------------------------------------------------------------


def test_coded_sensitivity_covers_worst_neighbouring_pair():
    # Swapping x' for x moves the stacked coefficient vector by
    # (1/n) sqrt(2K - 2 D(x - x')), D the product Dirichlet kernel. The swapped
    # pair is placed at the minimiser of D over a lattice of differences, and
    # the realized move, computed by empirical_coefficients, must not exceed
    # the coded sensitivity. The coded bound's slack (README) is pinned too.
    n = 5
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        for M in range(17):
            per_axis = (16 if d < 3 else 4) * (2 * M + 1)
            t = np.arange(per_axis) / per_axis
            kernel_1d = np.cos(2 * np.pi * np.multiply.outer(t, np.arange(-M, M + 1))).sum(axis=1)
            kernel = kernel_1d
            for _ in range(d - 1):
                kernel = np.multiply.outer(kernel, kernel_1d)
            x = t[list(np.unravel_index(np.argmin(kernel), kernel.shape))]
            rest = rng.random((n - 1, d))
            moved = (
                empirical_coefficients(np.vstack([rest, x]), M).values
                - empirical_coefficients(np.vstack([rest, np.zeros(d)]), M).values
            )
            realized = math.sqrt(np.sum(moved.real**2 + moved.imag**2))
            worst = math.sqrt(2 * (2 * M + 1) ** d - 2 * kernel.min()) / n
            assert realized == pytest.approx(worst, rel=1e-9, abs=1e-12), (d, M)
            coded = coefficient_sensitivity(n, M, d)
            assert realized <= coded, (d, M)
            if M >= 1:
                assert 1.73 <= coded / realized <= 1.82, (d, M)


def test_every_noise_draw_is_charged(monkeypatch, tmp_path, capsys):
    # Each add_noise call is one ledger entry, the ledger adds up to the
    # reported rho_spent, and no path spends more than it was given.
    calls = []
    add_noise_uncounted = privacy.add_noise

    def counted(grid, sigma, rng):
        calls.append(sigma)
        return add_noise_uncounted(grid, sigma, rng)

    monkeypatch.setattr(privacy, "add_noise", counted)
    rho = 0.5
    data = np.random.default_rng(31).random((500, 1))

    def check(rho_spent, ledger_spent, entries):
        assert len(calls) == entries
        assert ledger_spent == pytest.approx(rho_spent, rel=1e-12)
        assert rho_spent <= rho
        calls.clear()

    for select in (adaptive.lepskii_select, adaptive.penalized_bias_select):
        est, trace = select(data, rho, rng=np.random.default_rng(32))
        assert est.rho_spent == trace.rho_spent
        check(est.rho_spent, trace.ledger.spent, len(trace.ledger))

    est = fit(data, 4, rho, np.random.default_rng(33))
    check(est.rho_spent, est.ledger.spent, len(est.ledger))

    points = tmp_path / "pts.csv"
    points.write_text("".join(f"{x:.17g}\n" for x in data[:, 0]), encoding="utf-8")
    out = tmp_path / "est.json"
    assert main(["fit", str(points), "--rho", str(rho), "--M", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    entries = [line for line in printed if ": rho=" in line]
    total = float(next(line for line in printed if "total spent" in line).split()[2])
    released = ProjectionEstimate.from_json_dict(json.loads(out.read_text()))
    check(released.rho_spent, total, len(entries))

    traces = []
    select_untapped = adaptive.lepskii_select

    def tapped(*args, **kwargs):
        est, trace = select_untapped(*args, **kwargs)
        traces.append(trace)
        return est, trace

    monkeypatch.setattr(adaptive, "lepskii_select", tapped)
    cfg = ExperimentConfig(
        density={"kind": "uniform", "d": 1}, ns=[500], rhos=[rho], mode="lepskii",
        replicates=1, seed=34, d=1,
    )
    (record,), _ = experiments._sweep(cfg, TrigDensity.uniform(1))
    (trace,) = traces
    assert record.rho_spent == trace.rho_spent
    check(record.rho_spent, trace.ledger.spent, len(trace.ledger))


def _calls(tree: ast.AST, names: set) -> list[tuple[str | None, str]]:
    """(innermost enclosing def, callee) for each call of a name in names, by
    plain name or as an attribute."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in names:
                    found.append((owner, name))
            visit(child, owner)

    visit(tree, None)
    return found


def test_only_release_calibrates_draws_and_charges():
    # One function ties the charged rho to the drawn sigma: in the package,
    # add_noise and BudgetLedger.charge are each called once, in
    # privacy._release, and no module but privacy computes a noise scale.
    draws, scales = [], []
    for path in sorted(Path(privacy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        draws += [(path.stem, *call) for call in _calls(tree, {"add_noise", "charge"})]
        scales += [path.stem for _owner, _name in
                   _calls(tree, {"_sigma", "sigma_for_cutoff", "gaussian_sigma"})]
    assert sorted(draws) == [("privacy", "_release", "add_noise"),
                             ("privacy", "_release", "charge")]
    assert set(scales) == {"privacy"}
