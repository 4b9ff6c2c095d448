"""Tests for the Monte-Carlo harness: config validation, the two MISE
routes, slope regression, reproducibility of CSV output, budget columns,
the time-limit guard, and the chi-squared tail diagnostic.

Full-size rate sweeps live in test_acceptance; here the runs are kept
small so the file stays fast.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from privdens import densities, fourier
from privdens.densities import (
    TrigDensity,
    make_packing_density,
    make_trig_density,
    midpoint_lattice,
    rejection_sample,
)
from privdens.adaptive import lepskii_select
from privdens.estimator import ProjectionEstimate, fit, optimal_cutoff_adaptive_form
from privdens.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRecord,
    _FrozenDict,
    _FrozenList,
    _recast,
    fit_slope,
    mise,
    run_adaptivity_experiment,
    run_rate_experiment,
    write_csv,
)
from privdens.fourier import CoefficientGrid
from theory_checks import chi2_tail_check


_TRUTH = make_trig_density(1.0, 2.0, M_truth=4, d=1, rng=np.random.default_rng(13))


def _trig_cfg(**overrides):
    doc = {
        "density": _TRUTH.to_json_dict(),
        "n": [256],
        "rho": [1.0],
        "mode": "oracle",
        "beta": 1.0,
        "replicates": 2,
        "seed": 42,
        "d": 1,
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_roundtrip():
    cfg = ExperimentConfig.from_dict(_trig_cfg())
    assert cfg.ns == [256] and cfg.rhos == [1.0]
    assert cfg.mode == "oracle" and cfg.replicates == 2
    back = ExperimentConfig.from_dict(cfg.to_json_dict())
    assert back.ns == cfg.ns and back.seed == cfg.seed


def test_config_scalar_n_promoted_to_list():
    cfg = ExperimentConfig.from_dict(_trig_cfg(n=512, rho=0.5))
    assert cfg.ns == [512] and cfg.rhos == [0.5]


def test_config_collects_every_violation():
    doc = _trig_cfg(n=[2], rho=[-1.0], replicates=0, typo_key=1)
    doc.pop("mode")
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(doc)
    msg = str(err.value)
    for fragment in ("n must be >= 3", "rho must be > 0",
                     "replicates must be >= 1", "typo_key"):
        assert fragment in msg


def test_config_rejects_wrong_json_types():
    # nothing is rounded or coerced, and every violation is in one error
    doc = _trig_cfg(n=[300.7, "abc"], rho=True, replicates=2.9, seed=1.5, d=True,
                    beta=True, grid=[1, 2.5], time_limit_s="1")
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(doc)
    msg = str(err.value)
    for key in ("n", "rho", "replicates", "seed", "d", "beta", "grid", "time_limit_s"):
        assert f"every {key} must be" in msg or f"'{key}' must be" in msg, key


def test_config_oracle_requires_beta():
    doc = _trig_cfg()
    doc.pop("beta")
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig.from_dict(doc)


def test_config_unknown_mode_and_constants_key():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig.from_dict(_trig_cfg(mode="magic"))
    with pytest.raises(ValueError, match="constants"):
        ExperimentConfig.from_dict(_trig_cfg(constants={"zeta": 1}))


def _keyword_cfg(**overrides):
    kwargs = dict(density=_TRUTH.to_json_dict(), ns=[256], rhos=[1.0], mode="oracle",
                  replicates=2, seed=42, d=1, beta=1.0)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.mark.parametrize("override, fragment", [
    ({"mode": "bogus"}, "mode must be one of"),
    ({"d": 2}, "density dimension 1 does not match d = 2"),
    ({"replicates": 0}, "replicates must be >= 1"),
    ({"cutoff_form": "thm-typo"}, "cutoff_form must be one of"),
    ({"ns": 512}, "'n' must be a list"),
    ({"rhos": [1.0, True]}, "every rho must be a number"),
    ({"beta": math.inf}, "beta must be a finite number, got inf"),
    ({"beta": math.nan}, "beta must be a finite number, got nan"),
])
def test_keyword_config_checked_like_json(override, fragment):
    # construction by keyword runs the same checks as from_dict
    with pytest.raises(ValueError, match="invalid experiment config") as err:
        _keyword_cfg(**override)
    assert fragment in str(err.value)


def test_keyword_config_stores_floats_and_its_truth():
    cfg = _keyword_cfg(rhos=[1], beta=2, time_limit_s=5)
    assert cfg.rhos == [1.0] and isinstance(cfg.rhos[0], float)
    assert isinstance(cfg.beta, float) and isinstance(cfg.time_limit_s, float)
    assert np.array_equal(cfg._truth.coefficients.values, _TRUTH.coefficients.values)
    assert "_truth" not in cfg.to_json_dict()


def test_config_is_frozen_and_replace_checks_again():
    cfg = _keyword_cfg()
    for name, value in (("density", {"kind": "uniform", "d": 2}), ("mode", "bogus"),
                        ("replicates", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg.mode == "oracle" and cfg.replicates == 2 and cfg._truth.dim == 1
    with pytest.raises(ValueError, match="mode must be one of"):
        dataclasses.replace(cfg, mode="bogus")
    wider = dataclasses.replace(cfg, density={"kind": "uniform", "d": 2}, d=2)
    assert wider._truth.dim == 2 and cfg._truth.dim == 1


def _containers(value):
    """Every list and dict in value, value included, outermost first."""
    if isinstance(value, dict):
        return [value] + [c for v in value.values() for c in _containers(v)]
    if isinstance(value, list):
        return [value] + [c for v in value for c in _containers(v)]
    return []


def test_recast_reaches_every_depth_and_copies():
    # flat lists are copied whole, the others level by level; either way no
    # container of the input is shared and every one changes type
    doc = {"flat": [1.0, 2, "x", None, True], "nested": [[1, 2], {"a": [3]}, 4, []],
           "d": {"e": {}}, "n": 5}
    frozen = _recast(doc, _FrozenList, _FrozenDict)
    plain = _recast(frozen)
    assert frozen == plain == doc
    for out, seq, mapping in ((frozen, _FrozenList, _FrozenDict), (plain, list, dict)):
        got = _containers(out)
        assert [type(c) for c in got] == [seq if isinstance(c, list) else mapping for c in got]
    ids = lambda value: {id(c) for c in _containers(value)}  # noqa: E731
    assert not ids(frozen) & ids(doc) and not ids(plain) & (ids(doc) | ids(frozen))


def test_config_values_cannot_change():
    ns, density = [256], {"kind": "uniform", "d": 1}
    cfg = _keyword_cfg(ns=ns, density=density)
    with pytest.raises(TypeError, match="cannot change"):
        cfg.density["d"] = 2
    assert cfg._truth.dim == 1 and cfg.to_json_dict()["density"]["d"] == 1
    with pytest.raises(TypeError, match="cannot change"):
        cfg.rhos.append(-1.0)
    trig = _keyword_cfg()
    for change in (lambda: trig.density["coefficients"]["re"].pop(),
                   lambda: trig.constants.update(eps=-1), lambda: trig.ns.sort()):
        with pytest.raises(TypeError, match="cannot change"):
            change()
    # the caller's own lists and dicts stay theirs, and what the config reports is a copy
    ns.append(3)
    density["d"] = 2
    cfg.to_json_dict()["n"].append(3)
    assert cfg.ns == [256] and cfg.density["d"] == 1 and cfg.to_json_dict()["n"] == [256]
    assert [r.rho for r in run_rate_experiment(cfg).records] == [1.0, 1.0]
    assert copy.deepcopy(cfg) == cfg == dataclasses.replace(cfg)


def test_config_parses_its_density_once(monkeypatch):
    calls = []
    parse = densities.density_from_json_dict

    def counted(doc):
        calls.append(doc)
        return parse(doc)

    monkeypatch.setattr(densities, "density_from_json_dict", counted)
    run_rate_experiment(ExperimentConfig.from_dict(_trig_cfg(replicates=1)))
    run_adaptivity_experiment(_keyword_cfg(mode="penalized-bias", grid=[1, 2], replicates=1))
    assert len(calls) == 2


@pytest.mark.parametrize("override, fragment", [
    ({"constants": {"eps": -1}}, "bad constants: eps must be > 0"),
    ({"constants": {"C": "big"}}, "bad constants: C must be a finite number"),
    ({"constants": {"a": float("nan")}}, "bad constants: a must be a finite number"),
    ({"rho": [float("inf")]}, "every rho must be finite"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"n": [2**25]}, "n * d must be at most 16777216"),
    ({"rho": [10**400]}, "every rho must be finite"),
    ({"time_limit_s": 10**400}, "time_limit_s must be a finite number"),
])
def test_config_rejects_values_that_would_fail_mid_sweep(override, fragment):
    with pytest.raises(ValueError, match="invalid experiment config") as err:
        ExperimentConfig.from_dict(_trig_cfg(mode="lepskii", **override))
    assert fragment in str(err.value)


def test_config_missing_mode_reports_no_default_mode():
    doc = _trig_cfg()
    doc.pop("mode")
    doc.pop("beta")
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(doc)
    assert "missing required key 'mode'" in str(err.value)
    assert "oracle mode requires" not in str(err.value)


def test_penalty_config_from_constants():
    cfg = ExperimentConfig.from_dict(
        _trig_cfg(mode="lepskii", constants={"mode": "practical", "C": 2.0,
                                             "a": 1.5, "eps": 0.25})
    )
    pc = cfg.penalty_config()
    assert pc.mode == "practical"
    assert pc.resolved_C(1) == 2.0
    assert pc.a == 1.5 and pc.eps == 0.25


# ---------------------------------------------------------------------------
# MISE routes
# ---------------------------------------------------------------------------


def test_mise_zero_when_estimate_equals_truth():
    truth = make_trig_density(1.0, 2.0, M_truth=3, d=1, rng=np.random.default_rng(13))
    est = ProjectionEstimate(truth.coefficients, n=100)
    assert mise(est, truth) == 0.0


def test_mise_uniform_truth_identity():
    # noiseless estimate against the uniform density: the error is exactly
    # the empirical energy away from the zero frequency
    truth = TrigDensity.uniform(1)
    data = np.random.default_rng(3).random((500, 1))
    est = fit(data, 2)
    vals = est.coefficients.values
    expected = float(np.sum(np.abs(vals) ** 2) - np.abs(vals[2]) ** 2)
    assert mise(est, truth) == pytest.approx(expected, rel=1e-12)


def test_mise_parseval_matches_quadrature():
    # a Hermitian estimate evaluates to a real function, so the Parseval
    # route and the lattice quadrature measure the same error
    truth = make_trig_density(1.0, 2.0, M_truth=3, d=1, rng=np.random.default_rng(13))
    data = rejection_sample(truth, 400, np.random.default_rng(4))
    est = fit(data, 3, budget=1.0, rng=np.random.default_rng(5))
    v = est.coefficients.values
    est.coefficients = CoefficientGrid(1, 3, 0.5 * (v + np.conj(v[::-1])))  # Hermitian mirror
    parseval = mise(est, truth)
    lattice = midpoint_lattice(1)
    diff = fourier.evaluate(est.coefficients, lattice) - truth.evaluate(lattice)
    quad = float(np.mean(diff * diff))
    assert parseval == pytest.approx(quad, abs=1e-6)


def test_mise_packing_truth_quadrature_route():
    truth = make_packing_density(np.array([1, 0, 1, 0]), 4, 1.0, d=1)
    data = rejection_sample(truth, 400, np.random.default_rng(6))
    est = fit(data, 3)
    err = mise(est, truth)
    lattice = midpoint_lattice(1)
    diff = fourier.evaluate(est.coefficients, lattice) - truth.evaluate(lattice)
    assert err == pytest.approx(float(np.mean(diff * diff)), rel=1e-12)
    assert err >= 0.0


def test_mise_rejects_unknown_truth():
    est = fit(np.random.default_rng(1).random((10, 1)), 1)
    with pytest.raises(TypeError):
        mise(est, object())


# ---------------------------------------------------------------------------
# slope regression
# ---------------------------------------------------------------------------


def test_fit_slope_recovers_power_law():
    rng = np.random.default_rng(123)
    ns = np.array([2.0**k for k in range(8, 16)])
    mises = 3.0 * ns ** (-2.0 / 3.0) * (1.0 + 0.05 * rng.standard_normal(len(ns)))
    sf = fit_slope(np.log(ns).tolist(), np.log(mises).tolist())
    assert sf is not None and sf.n_cells == 8
    assert abs(sf.slope - (-2.0 / 3.0)) <= 3.0 * sf.stderr


def test_fit_slope_degenerate_sizes():
    assert fit_slope([1.0], [2.0]) is None
    two = fit_slope([1.0, 2.0], [2.0, 1.0])
    assert two.slope == pytest.approx(-1.0)
    assert math.isnan(two.stderr)


def test_rate_experiment_single_cell_has_no_slope():
    cfg = ExperimentConfig.from_dict(_trig_cfg(replicates=1))
    res = run_rate_experiment(cfg)
    assert len(res.records) == 1
    assert res.slope is None
    rec = res.records[0]
    assert rec.n == 256 and rec.replicate == 0 and rec.mise >= 0.0


def test_rate_experiment_slope_axis_names():
    cfg = ExperimentConfig.from_dict(_trig_cfg(n=[64, 128, 256], replicates=2))
    res = run_rate_experiment(cfg)
    assert res.slope.x_name == "log n"
    cfg2 = ExperimentConfig.from_dict(
        _trig_cfg(n=[256], rho=[0.25, 1.0], replicates=2)
    )
    res2 = run_rate_experiment(cfg2)
    assert res2.slope.x_name == "log(n sqrt(rho))"


def test_rate_experiment_summary_entry():
    cfg = ExperimentConfig.from_dict(_trig_cfg(n=[64, 128, 256], replicates=2))
    res = run_rate_experiment(cfg)
    means = [np.mean([r.mise for r in res.records if r.n == n]) for n in cfg.ns]
    assert res.summary == {
        "mode": "oracle",
        "cells": [{"n": n, "rho": 1.0, "mean_mise": m} for n, m in zip(cfg.ns, means)],
        "slope": {"value": res.slope.slope, "stderr": res.slope.stderr, "x": "log n"},
    }
    assert res.cells is res.summary["cells"]


def test_rate_experiment_time_limit_flags_row():
    # a practically-zero limit trips the guard before the first replicate
    cfg = ExperimentConfig.from_dict(_trig_cfg(replicates=5, time_limit_s=1e-12))
    res = run_rate_experiment(cfg)
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.replicate == -1 and math.isnan(rec.mise)
    assert res.slope is None


def test_adaptivity_time_limit_flags_row():
    # the shared loop's guard covers adaptive sweeps too; a cell with no
    # completed replicate gets no summary
    cfg = ExperimentConfig.from_dict(
        _trig_cfg(mode="penalized-bias", grid=[1, 2, 4], replicates=3, time_limit_s=1e-12)
    )
    res = run_adaptivity_experiment(cfg)
    (rec,) = res.records
    assert rec.mode == "penalized-bias" and rec.replicate == -1 and math.isnan(rec.mise)
    assert res.cells == []


# ---------------------------------------------------------------------------
# reproducibility and budget columns
# ---------------------------------------------------------------------------


def test_byte_identical_csv_on_rerun(tmp_path):
    doc = _trig_cfg(n=[64, 128], replicates=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_rate_experiment(ExperimentConfig.from_dict(doc)).records, p1)
    write_csv(run_rate_experiment(ExperimentConfig.from_dict(doc)).records, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == CSV_HEADER


def test_budget_columns_oracle_and_lepskii():
    res = run_rate_experiment(
        ExperimentConfig.from_dict(_trig_cfg(mode="lepskii", replicates=2))
    )
    for rec in res.records:
        assert rec.rho_spent <= rec.rho + 1e-12
    res2 = run_rate_experiment(ExperimentConfig.from_dict(_trig_cfg(replicates=2)))
    for rec in res2.records:
        assert rec.rho_spent == rec.rho


def test_budget_column_penalized_bias_exact():
    res = run_rate_experiment(
        ExperimentConfig.from_dict(
            _trig_cfg(mode="penalized-bias", grid=[1, 2, 4], replicates=2)
        )
    )
    for rec in res.records:
        assert rec.rho_spent == rec.rho


# ---------------------------------------------------------------------------
# adaptivity comparison
# ---------------------------------------------------------------------------


def test_adaptivity_experiment_structure():
    cfg = ExperimentConfig.from_dict(
        _trig_cfg(mode="penalized-bias", grid=[1, 2, 4], replicates=2)
    )
    res = run_adaptivity_experiment(cfg)
    # two records per replicate: the adaptive fit and the oracle comparator
    assert len(res.records) == 4
    modes = {r.mode for r in res.records}
    assert modes == {"penalized-bias", "oracle"}
    (cell,) = res.cells
    assert cell["n"] == 256 and cell["rho"] == 1.0
    assert cell["ratio"] == pytest.approx(
        cell["adaptive_median_mise"] / cell["oracle_median_mise"]
    )
    assert len(cell["selected_cutoffs"]) == 2
    assert all(m in {1, 2, 4} for m in cell["selected_cutoffs"])


def test_adaptivity_lepskii_reports_best_fixed_cutoff():
    cfg = ExperimentConfig.from_dict(_trig_cfg(mode="lepskii", replicates=2))
    res = run_adaptivity_experiment(cfg)
    (cell,) = res.cells
    med = cell["candidate_median_mise"]
    assert cell["best_fixed_M"] == min(med, key=med.get)
    assert cell["best_fixed_median_mise"] == med[cell["best_fixed_M"]]
    assert "oracle_split_cutoff" in cell
    best = max(cell["best_fixed_M"], 1)
    within = [s <= 4 * best and best <= 4 * max(s, 1) for s in cell["selected_cutoffs"]]
    assert cell["within_factor4_fraction"] == np.mean(within)


def test_oracle_split_cutoff_uses_the_candidates_budget():
    # eps = 12 > (log 20)^2 clamps k_n to 1, so every Lepskii candidate is
    # released at rho / k_n = 0.06, not at rho eps / (log n)^2 = 0.0802
    cfg = ExperimentConfig(density={"kind": "uniform", "d": 1}, ns=[20], rhos=[0.06],
                           mode="lepskii", replicates=2, seed=0, d=1, beta=0.5,
                           constants={"eps": 12.0})
    (cell,) = run_adaptivity_experiment(cfg).cells
    data = rejection_sample(cfg._truth, 20, np.random.default_rng(0))
    _, trace = lepskii_select(data, 0.06, cfg.penalty_config(), np.random.default_rng(1))
    assert trace.rho_per_candidate == 0.06
    assert cell["oracle_split_cutoff"] == optimal_cutoff_adaptive_form(20, 0.06, 0.5, 1) == 2


def test_adaptivity_requires_adaptive_mode():
    cfg = ExperimentConfig.from_dict(_trig_cfg())
    with pytest.raises(ValueError):
        run_adaptivity_experiment(cfg)


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------


def test_write_csv_format(tmp_path):
    rec = ExperimentRecord(100, 0.5, 1.0, 1, "oracle", 0, 3, 0.5, 1.0 / 3.0)
    path = tmp_path / "out.csv"
    write_csv([rec], path)
    header, row = path.read_text().splitlines()
    assert header == "n,rho,beta_nominal,d,mode,replicate,selected_M,rho_spent,mise"
    cols = row.split(",")
    assert len(cols) == 9
    assert cols[0] == "100" and cols[4] == "oracle" and cols[6] == "3"
    assert cols[8] == f"{1.0 / 3.0:.17g}"


# ---------------------------------------------------------------------------
# chi-squared tail diagnostic
# ---------------------------------------------------------------------------


def test_chi2_tail_examples():
    out = chi2_tail_check(10, 1.0, 10**5, rng=np.random.default_rng(17))
    assert out["bound"] == pytest.approx(math.exp(-2.5), rel=1e-12)
    assert out["ok"] and out["empirical"] <= out["allowed"]

    out2 = chi2_tail_check(2, 4.0, 10**5, rng=np.random.default_rng(18))
    assert out2["bound"] == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert out2["ok"]


def test_chi2_tail_far_threshold_is_empty():
    out = chi2_tail_check(5, 50.0, 10**4, rng=np.random.default_rng(19))
    assert out["empirical"] == 0.0


def test_chi2_tail_validation():
    with pytest.raises(ValueError):
        chi2_tail_check(0, 1.0, 10**4)
    with pytest.raises(ValueError):
        chi2_tail_check(5, 0.0, 10**4)
    with pytest.raises(ValueError):
        chi2_tail_check(5, 1.0, 100)
