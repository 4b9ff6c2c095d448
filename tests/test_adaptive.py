"""Tests for the two data-driven cut-off selection rules: the Lepskii scan
over a smoothness grid and the penalized-bias minimization over a dyadic
cut-off grid. Selection traces are replayed as an independent check that
the recorded decision data actually produces the recorded decision.
"""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from privdens import adaptive, privacy
from privdens.adaptive import (
    PenaltyConfig,
    SelectionTrace,
    _pairwise_sq_distances,
    build_beta_grid,
    dyadic_cutoff_grid,
    lepskii_select,
    penalized_bias_select,
    penalty_lambda1,
    penalty_lambda2,
)
from privdens.estimator import (
    ProjectionEstimate,
    fit,
    optimal_cutoff_adaptive_form,
    theoretical_rate,
)
from privdens.fourier import (
    CoefficientGrid,
    _within,
    empirical_coefficients,
    multi_indices,
)
from privdens.densities import TrigDensity, make_trig_density, rejection_sample
from privdens.privacy import sigma_for_cutoff
from theory_checks import project, risk_series_bound, risk_series_sum


# ---------------------------------------------------------------------------
# beta grid
# ---------------------------------------------------------------------------


def test_beta_grid_e_squared():
    # n = e^2 so log n = 2 exactly: k_n = 4, betas 2, 1.5, 1, 0.5
    betas = build_beta_grid(math.e**2, 1.0)
    assert len(betas) == 4
    assert betas == pytest.approx((2.0, 1.5, 1.0, 0.5), abs=1e-12)


def test_beta_grid_e_fourth():
    betas = build_beta_grid(math.e**4, 0.5)
    assert len(betas) == 32
    assert betas[0] == pytest.approx(4.0, abs=1e-12)
    steps = np.diff(betas)
    assert np.allclose(steps, -0.125, atol=1e-12)


def test_beta_grid_structure():
    for n, eps in ((100, 0.5), (10**4, 0.25), (77, 0.1)):
        betas = build_beta_grid(n, eps)
        assert isinstance(betas, tuple)
        gaps = np.diff(betas)
        assert np.allclose(gaps, gaps[0], atol=1e-12)  # constant spacing
        assert betas[-1] >= 0.0
        assert betas[0] == pytest.approx(len(betas) * eps / math.log(n), rel=1e-12)


def test_beta_grid_validation():
    with pytest.raises(ValueError):
        build_beta_grid(2, 0.5)
    with pytest.raises(ValueError):
        build_beta_grid(100, 0.0)


# ---------------------------------------------------------------------------
# penalty configuration
# ---------------------------------------------------------------------------


def test_penalty_config_defaults():
    cfg = PenaltyConfig()
    assert cfg.mode == "practical"
    assert cfg.resolved_C(1) == 1.0
    theory = PenaltyConfig(mode="theory")
    # max(8 L^2, 2^(2d+9)) with L=2: max(32, 2048) = 2048
    assert theory.theory_floor(1) == 2048.0
    assert theory.resolved_C(1) == 2048.0


def test_penalty_config_validation():
    with pytest.raises(ValueError):
        PenaltyConfig(mode="loose")
    with pytest.raises(ValueError):
        PenaltyConfig(a=0.0)
    with pytest.raises(ValueError):
        PenaltyConfig(eps=-0.5)
    with pytest.raises(ValueError):
        PenaltyConfig(C=0.5)  # C is a real >= 1 by contract


@pytest.mark.parametrize("eps", [1e-3, 1e-300, 1e-310])
def test_beta_grid_size_cap(eps):
    # (log 100)^2 / eps candidates: 21207 at 1e-3, and inf at 1e-310
    with pytest.raises(ValueError, match="more than the 4096 Lepskii candidates"):
        build_beta_grid(100, eps)
    assert len(build_beta_grid(100, (math.log(100) ** 2) / 4096)) == 4096


def test_selection_size_cap_refuses_before_any_release():
    data = np.random.default_rng(0).random((50, 1))
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    # 4200 candidates padded to M = 4199 would be 4200 x 8399 coefficients
    with pytest.raises(ValueError, match="4200 candidates up to M = 4199"):
        penalized_bias_select(data, 1.0, list(range(4200)), rng)
    assert rng.bit_generator.state == state  # no noise was drawn


@pytest.mark.parametrize("field, value", [
    ("C", math.nan), ("C", math.inf), ("C", "big"), ("C", True),
    ("a", math.nan), ("a", "1"), ("eps", math.nan), ("eps", True),
    ("eps", math.inf), ("L", -math.inf), ("L", math.nan),
])
def test_penalty_config_constants_must_be_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        PenaltyConfig(**{field: value})


def test_theory_mode_rejects_weak_constants():
    data = np.random.default_rng(0).random((100, 1))
    with pytest.raises(ValueError):
        lepskii_select(data, 1.0, PenaltyConfig(mode="theory", a=0.5),
                       np.random.default_rng(1))
    with pytest.raises(ValueError):
        lepskii_select(data, 1.0, PenaltyConfig(mode="theory", C=100.0),
                       np.random.default_rng(1))


def test_theory_mode_large_eps_warns():
    data = np.random.default_rng(0).random((100, 1))
    with pytest.warns(UserWarning):
        lepskii_select(data, 1.0, PenaltyConfig(mode="theory", eps=0.75),
                       np.random.default_rng(1))


def test_penalty_config_modes_are_a_class_constant_not_a_field():
    assert PenaltyConfig.MODES == ("practical", "theory")
    assert "MODES" not in {f.name for f in dataclasses.fields(PenaltyConfig)}
    assert set(dataclasses.asdict(PenaltyConfig())) == {"mode", "C", "a", "eps", "L"}


def test_resolved_c_checks_theory_mode_and_warns_the_caller_of_lepskii_select():
    # the checks live in resolved_C, one frame below lepskii_select; the
    # warning still names the line that called lepskii_select
    with pytest.raises(ValueError, match="theory mode requires a >= 1"):
        PenaltyConfig(mode="theory", a=0.5).resolved_C(1)
    with pytest.raises(ValueError, match=r"requires C >= max\(8 L\^2, 2\^\(2d\+9\)\) = 8192"):
        PenaltyConfig(mode="theory", C=4096.0).resolved_C(2)
    assert PenaltyConfig(a=0.5, C=3.0).resolved_C(1) == 3.0  # practical mode checks nothing
    data = np.random.default_rng(0).random((100, 1))
    with pytest.warns(UserWarning, match="eps > 1/2") as record:
        lepskii_select(data, 1.0, PenaltyConfig(mode="theory", eps=0.75),
                       np.random.default_rng(1))
    assert [w.filename for w in record] == [__file__]


def test_lepskii_trace_constants_round_trip_through_penalty_config():
    data = np.random.default_rng(0).random((200, 2))
    for cfg in (PenaltyConfig(), PenaltyConfig(mode="theory", L=20.0)):
        _est, trace = lepskii_select(data, 1.0, cfg, np.random.default_rng(1))
        assert PenaltyConfig(**trace.constants).resolved_C(2) == trace.constants["C"]
    assert trace.constants == {"mode": "theory", "C": 8192.0, "a": 1.0, "eps": 0.5, "L": 20.0}


def test_theory_floor_is_refused_once_its_power_of_two_is_no_float():
    cfg = PenaltyConfig(mode="theory")
    assert [cfg.theory_floor(d) for d in (1, 507)] == [2048.0, float(2**1023)]
    with pytest.raises(ValueError, match=r"^d must be at most 507 .*, got 508$"):
        cfg.theory_floor(508)
    with pytest.raises(ValueError, match="got 600"):
        cfg.resolved_C(600)


def test_penalized_trace_constants_rebuild_both_penalties_bit_for_bit():
    # the JSON trace alone gives Lambda^(1) and Lambda^(2): its constants hold
    # the two factors, and n, d, rho' and the cut-offs the rest
    data = np.random.default_rng(3).random((4096, 2))
    _est, trace = penalized_bias_select(data, 1.0, None, np.random.default_rng(4))
    doc = json.loads(json.dumps(trace.to_json_dict()))
    c, n, rho_p = doc["constants"], doc["n"], doc["rho_per_candidate"]
    assert c == {"lambda1_factor": 96.0, "lambda2_factor": 16.0}
    size = np.array([float((2 * m + 1) ** doc["d"]) for m in doc["cutoffs"]])
    lam1 = c["lambda1_factor"] * size / n + c["lambda1_factor"] * size * size / (n * n * rho_p)
    lam2 = lam1 + c["lambda2_factor"] * size * size / (n * n * rho_p)
    assert np.array_equal(lam1, doc["lambda1"]) and np.array_equal(lam2, doc["lambda2"])


# ---------------------------------------------------------------------------
# penalties
# ---------------------------------------------------------------------------


def test_penalty_lambda_examples():
    lam1 = penalty_lambda1(3, 1000, 0.1, 1)
    assert lam1 == pytest.approx(0.71904, rel=1e-12)
    lam2 = penalty_lambda2(3, 1000, 0.1, 1)
    assert lam2 == pytest.approx(0.72688, rel=1e-12)


def test_penalty_positivity_and_order():
    for M in range(0, 12):
        for n in (50, 1000):
            for rp in (0.01, 1.0):
                l1 = penalty_lambda1(M, n, rp, 1)
                l2 = penalty_lambda2(M, n, rp, 1)
                assert 0.0 < l1 < l2


# ---------------------------------------------------------------------------
# dyadic grid
# ---------------------------------------------------------------------------


def test_dyadic_grid_examples():
    assert dyadic_cutoff_grid(1024, 1) == [1, 2, 4, 8, 16, 32, 64, 128, 256]
    assert dyadic_cutoff_grid(1024, 2) == [1, 2, 4, 8]


def test_dyadic_grid_invariant():
    for n in (10, 31, 64, 100, 1000, 4096, 10**5):
        for d in (1, 2, 3):
            grid = dyadic_cutoff_grid(n, d)
            assert grid[0] >= 1
            if (n ** (1.0 / d) - 1.0) / 2.0 >= 1.0:
                assert (2 * max(grid) + 1) ** d <= n


def test_dyadic_grid_tiny_n():
    assert dyadic_cutoff_grid(3, 1) == [1]
    assert dyadic_cutoff_grid(4, 2) == [1]


# ---------------------------------------------------------------------------
# Lepskii selection
# ---------------------------------------------------------------------------


def test_lepskii_all_candidates_identical_selects_first():
    # All cut-offs clamp to the same M. Were the candidates identical, every
    # pairwise distance would be 0 and the rule, replayed on the trace,
    # must give m_hat = 0 (the largest beta).
    rng = np.random.default_rng(21)
    data = rng.random((10, 1))
    est, trace = lepskii_select(data, 1e-8, PenaltyConfig(), rng)
    assert len(set(trace.cutoffs)) == 1
    assert est.cutoff == trace.cutoffs[0]
    trace.evidence["distances"] = np.zeros_like(trace.evidence["distances"])
    assert trace.replay() == 0


def test_lepskii_singleton_grid():
    # eps large enough that floor((log n)^2 / eps) clamps to a single entry
    data = np.random.default_rng(22).random((3, 1))
    cfg = PenaltyConfig(eps=1.21)
    est, trace = lepskii_select(data, 1.0, cfg, np.random.default_rng(23))
    assert len(trace.cutoffs) == 1
    assert trace.selected_index == 0
    # the single candidate is charged rho / k_n = rho, not rho eps / (log n)^2 > rho
    assert trace.rho_spent <= 1.0 + 1e-12


def test_lepskii_budget_identity():
    n, rho, eps = 500, 0.8, 0.5
    data = np.random.default_rng(24).random((n, 1))
    cfg = PenaltyConfig(eps=eps)
    est, trace = lepskii_select(data, rho, cfg, np.random.default_rng(25))
    ln = math.log(n)
    k_n = len(trace.cutoffs)
    rho_prime = rho * eps / ln**2
    assert trace.rho_per_candidate == pytest.approx(rho_prime, rel=1e-12)
    assert trace.rho_spent == pytest.approx(k_n * rho_prime, rel=1e-12)
    assert trace.rho_spent <= rho + 1e-12
    assert est.rho_spent == trace.rho_spent
    # the ledger records one charge per candidate and sums to the total
    assert len(trace.ledger) == k_n
    assert trace.ledger.spent == pytest.approx(trace.rho_spent, rel=1e-9)


def test_lepskii_replay_matches():
    for seed in (1, 2, 3, 4):
        data = np.random.default_rng(seed).random((400, 1))
        cfg = PenaltyConfig(C=4.0)
        est, trace = lepskii_select(data, 1.0, cfg, np.random.default_rng(seed + 100))
        assert trace.replay() == trace.selected_index


def test_lepskii_deterministic():
    data = np.random.default_rng(30).random((300, 1))
    cfg = PenaltyConfig(C=2.0)
    e1, t1 = lepskii_select(data, 1.0, cfg, np.random.default_rng(31))
    e2, t2 = lepskii_select(data, 1.0, cfg, np.random.default_rng(31))
    assert t1.selected_index == t2.selected_index
    assert np.array_equal(e1.coefficients.values, e2.coefficients.values)


def test_lepskii_theory_mode_selects_index_zero():
    # The theory constants make every threshold larger than any achievable
    # distance at this scale, so the scan accepts m = 0 immediately.
    data = np.random.default_rng(32).random((200, 1))
    cfg = PenaltyConfig(mode="theory")
    est, trace = lepskii_select(data, 1.0, cfg, np.random.default_rng(33))
    assert trace.constants["mode"] == "theory"
    assert trace.selected_index == 0


def test_lepskii_discriminates_visible_bias():
    # A truth with substantial energy out to |k| = 6 forces the m = 0
    # candidate (cut-off 1) to be rejected: once the expected noise energy
    # is subtracted from each distance, the remaining bias still exceeds
    # the threshold at C = 4.
    vals = np.zeros(13, dtype=complex)
    center = 6
    vals[center] = 1.0
    for k, amp in ((1, 0.30), (2, 0.25), (3, 0.20), (4, 0.12), (5, 0.08), (6, 0.05)):
        vals[center + k] = amp
        vals[center - k] = amp
    truth = TrigDensity(CoefficientGrid(1, 6, vals), beta=1.0, L=2.0, min_value=0.01)
    rng = np.random.default_rng(40)
    data = rejection_sample(truth, 16384, rng)
    est, trace = lepskii_select(data, 1.0, PenaltyConfig(C=4.0), rng)
    assert trace.selected_index > 0
    assert est.cutoff >= 2


def test_lepskii_uniform_truth_clears_noise_floor():
    # The uniform density has no bias at any cut-off, so the smoothest
    # candidates must be accepted. Compared without subtracting the two
    # candidates' expected noise energy, every distance at n = 2^14 exceeds
    # the C = 1 threshold and the scan falls through to the roughest
    # candidate (M = 843, MISE about 16).
    truth = TrigDensity.uniform(1)
    for seed in (60, 61, 62):
        rng = np.random.default_rng(seed)
        data = rejection_sample(truth, 2**14, rng)
        est, trace = lepskii_select(data, 1.0, PenaltyConfig(), rng)
        assert est.cutoff <= 2
        assert trace.replay() == trace.selected_index
        assert trace.evidence["accepted"].index(True) == trace.selected_index


def test_lepskii_trace_json_serializable():
    data = np.random.default_rng(50).random((100, 1))
    est, trace = lepskii_select(data, 1.0, PenaltyConfig(), np.random.default_rng(51))
    text = json.dumps(trace.to_json_dict())
    doc = json.loads(text)
    assert doc["method"] == "lepskii"
    assert doc["selected_index"] == trace.selected_index
    assert len(doc["cutoffs"]) == len(trace.cutoffs)
    assert "candidates" not in doc


_COMMON_TRACE_KEYS = {
    "method", "n", "d", "rho", "rho_per_candidate", "rho_spent", "constants", "cutoffs",
    "sigmas", "selected_index", "selected_cutoff", "ledger",
}


@pytest.mark.parametrize(
    "select, evidence_keys",
    [
        (lambda data, rng: lepskii_select(data, 1.0, PenaltyConfig(), rng),
         {"betas", "distances", "thresholds", "accepted"}),
        (lambda data, rng: penalized_bias_select(data, 1.0, None, rng),
         {"proj_distances", "lambda1", "lambda2", "bias_sq", "criterion"}),
    ],
    ids=["lepskii", "penalized-bias"],
)
def test_trace_json_holds_only_its_own_evidence(select, evidence_keys):
    # Each method writes the common keys plus its own evidence, never the
    # other method's keys as null; the selection replays from the evidence.
    data = np.random.default_rng(52).random((300, 1))
    est, trace = select(data, np.random.default_rng(53))
    doc = json.loads(json.dumps(trace.to_json_dict()))
    assert set(doc) == _COMMON_TRACE_KEYS | evidence_keys
    assert set(trace.evidence) == evidence_keys
    assert all(value is not None for value in doc.values())
    assert trace.replay() == trace.selected_index == doc["selected_index"]
    assert est.cutoff == doc["cutoffs"][doc["selected_index"]]


def _candidate_matrix(trace):
    """The rows the selector scored: every candidate zero-padded to the top cut-off."""
    top = max(trace.cutoffs)
    return np.vstack([project(e.coefficients, top).values for e in trace.candidates])


def _complex_rows(k, size):
    rng = np.random.default_rng(k)
    return rng.standard_normal((k, size)) + 1j * rng.standard_normal((k, size))


def _lepskii_d2_candidates():
    data = np.random.default_rng(54).random((2000, 2))
    _est, trace = lepskii_select(data, 1.0, PenaltyConfig(), np.random.default_rng(55))
    return _candidate_matrix(trace)


@pytest.mark.parametrize("make", [
    lambda: _complex_rows(1, 9),
    lambda: _complex_rows(2, 33),
    lambda: _complex_rows(188, 1687),  # the n = 2^14 Lepskii release's shape
    _lepskii_d2_candidates,
    lambda: np.random.default_rng(56).standard_normal((40, 25)),  # real rows
], ids=["k1", "k2", "k188", "lepskii-d2", "real"])
def test_pairwise_sq_distances_exact_symmetry_and_zero_diagonal(make):
    # _lepskii_decision relies on the zero diagonal: the last candidate is
    # always accepted
    a = make()
    dist = _pairwise_sq_distances(a)
    assert dist.dtype == np.float64 and dist.shape == (len(a), len(a))
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    direct = np.array([np.sum(np.abs(a[i] - a) ** 2, axis=1) for i in range(len(a))])
    scale = np.max(np.sum(np.abs(a) ** 2, axis=1))
    assert np.max(np.abs(dist - direct)) <= 1e-12 * scale


_SELECTORS = {
    "lepskii": (lambda data, rng: lepskii_select(data, 1.0, PenaltyConfig(), rng),
                "lepskii candidate {m} (M={cutoff})"),
    "penalized-bias": (lambda data, rng: penalized_bias_select(data, 1.0, None, rng),
                       "penalized-bias candidate M={cutoff}"),
}


@pytest.mark.parametrize("method", sorted(_SELECTORS))
@pytest.mark.parametrize("d, n", [(1, 2000), (2, 2000), (3, 1500)])
def test_candidates_are_the_master_cube_plus_the_replayed_noise_bit_for_bit(method, d, n):
    # Candidate m is the master restricted to cube M_m plus sigma_m times its
    # own K_m complex draws, taken from the generator in candidate order, and
    # charged rho' to the ledger in that order; Lepskii's distances are rows
    # 0..selected of those of the candidates zero-padded to the top cut-off
    select, label = _SELECTORS[method]
    data = np.random.default_rng(80 + d).random((n, d))
    _est, trace = select(data, np.random.default_rng(81))
    master = empirical_coefficients(data, max(trace.cutoffs))
    rng, rho_p = np.random.default_rng(81), trace.rho_per_candidate
    assert len(trace.candidates) == len(trace.cutoffs) == len(trace.sigmas)
    for m, (cutoff, est) in enumerate(zip(trace.cutoffs, trace.candidates)):
        z = rng.standard_normal(((2 * cutoff + 1) ** d, 2))
        sigma = sigma_for_cutoff(n, rho_p, cutoff, d)
        assert trace.sigmas[m] == est.sigma == sigma
        assert est.coefficients.dim == d and est.cutoff == cutoff
        expected = project(master, cutoff).values + sigma * (z[:, 0] + 1j * z[:, 1])
        assert np.array_equal(est.coefficients.values, expected)
    assert trace.ledger.entries == [
        (label.format(m=m, cutoff=cutoff), rho_p) for m, cutoff in enumerate(trace.cutoffs)]
    if method == "lepskii":
        assert np.array_equal(trace.evidence["distances"],
                              _pairwise_sq_distances(_candidate_matrix(trace))
                              [: trace.selected_index + 1])


def _full_matrix_lepskii_index(dist, sigmas, cutoffs, thresholds, d):
    """The first m whose noise-corrected distance to every l >= m is within
    thresholds[l], scanned on the full k x k matrix entry by entry."""
    noise = [2.0 * s * s * (2 * c + 1) ** d for s, c in zip(sigmas, cutoffs)]
    k = len(cutoffs)
    for m in range(k):
        if all(dist[m, l] - noise[m] - noise[l] <= thresholds[l] for l in range(m, k)):
            return m
    return None


@pytest.fixture(scope="module", params=[(1, 2**14), (2, 4096)], ids=["d1-n16384", "d2-n4096"])
def lepskii_fixture_trace(request):
    """A practical-mode Lepskii trace on the beta = 2 fixture: index 0 in
    d = 1 at n = 2^14, a late index in d = 2 at n = 4096."""
    d, n = request.param
    truth = make_trig_density(2.0, 2.0, 20 if d == 1 else 6, d=d, rng=np.random.default_rng(7))
    data = rejection_sample(truth, n, np.random.default_rng(8))
    return lepskii_select(data, 1.0, PenaltyConfig(), np.random.default_rng(9))[1]


def test_lepskii_agrees_with_a_full_matrix_reference(lepskii_fixture_trace):
    trace = lepskii_fixture_trace
    full = _pairwise_sq_distances(_candidate_matrix(trace))
    ref = _full_matrix_lepskii_index(full, trace.sigmas, trace.cutoffs,
                                     trace.evidence["thresholds"], trace.d)
    assert trace.selected_index == ref
    assert (ref == 0) if trace.d == 1 else (ref > len(trace.cutoffs) // 2)
    assert np.array_equal(trace.evidence["distances"], full[: ref + 1])


def test_lepskii_accepted_holds_the_rows_read_and_only_the_last_is_true(lepskii_fixture_trace):
    trace = lepskii_fixture_trace
    accepted, selected = trace.evidence["accepted"], trace.selected_index
    assert len(accepted) == selected + 1
    assert accepted == [False] * selected + [True]


def test_lepskii_trace_json_round_trip_keeps_the_rows_read(lepskii_fixture_trace):
    trace = lepskii_fixture_trace
    doc = json.loads(json.dumps(trace.to_json_dict()))
    dist = np.array(doc["distances"])
    assert dist.shape == (trace.selected_index + 1, len(trace.cutoffs))
    assert np.array_equal(dist, trace.evidence["distances"])
    assert doc["accepted"] == trace.evidence["accepted"]


def test_lepskii_replay_refuses_a_trace_with_no_accepted_row():
    data = np.random.default_rng(90).random((500, 1))
    _est, trace = lepskii_select(data, 1.0, PenaltyConfig(), np.random.default_rng(91))
    trace.evidence["distances"] = trace.evidence["distances"] + 1e6
    with pytest.raises(ValueError, match="no stored Lepskii row"):
        trace.replay()


@pytest.fixture(scope="module")
def small_traces():
    data = np.random.default_rng(92).random((300, 1))
    return {"lepskii": lepskii_select(data, 1.0, PenaltyConfig(), np.random.default_rng(93))[1],
            "penalized-bias": penalized_bias_select(data, 1.0, None,
                                                    np.random.default_rng(94))[1]}


@pytest.mark.parametrize("method, key, shape", [
    ("lepskii", "distances", lambda k: (k + 1, k)),
    ("lepskii", "distances", lambda k: (1, k - 1)),
    ("lepskii", "distances", lambda k: (k,)),
    ("lepskii", "distances", lambda k: (0, k)),
    ("lepskii", "thresholds", lambda k: (k + 1,)),
    ("penalized-bias", "proj_distances", lambda g: (g, g + 1)),
    ("penalized-bias", "lambda1", lambda g: (g - 1,)),
    ("penalized-bias", "lambda2", lambda g: (g, 1)),
], ids=["distances-extra-row", "distances-short-row", "distances-1d", "distances-no-row",
        "thresholds-extra", "proj-distances-extra-column", "lambda1-short", "lambda2-2d"])
def test_replay_names_a_malformed_evidence_key(small_traces, method, key, shape):
    trace = dataclasses.replace(small_traces[method])
    trace.evidence = {**trace.evidence, key: np.zeros(shape(len(trace.cutoffs)))}
    with pytest.raises(ValueError, match=f"^{key} must be an array of "):
        trace.replay()


def test_lepskii_release_peak_memory_is_about_one_candidate_matrix():
    # n = 2^14 at rho = 1: 188 candidates up to M = 843, whose (k, K_top)
    # complex matrix is 4.8 MiB. Padded copies of every candidate stacked
    # into it would take the peak to twice that.
    data = np.random.default_rng(0).random((2**14, 1))
    tracemalloc.start()
    try:
        _est, trace = lepskii_select(data, 1.0, rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_bytes = len(trace.cutoffs) * (2 * max(trace.cutoffs) + 1) * 16
    assert (len(trace.cutoffs), max(trace.cutoffs)) == (188, 843)
    assert peak <= 1.5 * matrix_bytes


def _select_per_candidate(method, pts, cutoffs, rho, rho_prime, spent, constants, rng, label,
                          score):
    """adaptive._select as it was before the candidates were released in
    blocks, kept as the reference: per candidate one checked
    sigma_for_cutoff, add_noise, ledger charge and ProjectionEstimate, each
    written at its columns into one zero (k, K_top) matrix."""
    n, d = pts.shape
    top = max(cutoffs)
    master = empirical_coefficients(pts, top)
    cols = {M: _within(M, top, d) for M in set(cutoffs)}
    ledger = privacy.BudgetLedger()
    estimates = []
    for m, M in enumerate(cutoffs):
        sigma = sigma_for_cutoff(n, rho_prime, M, d)
        noisy = privacy.add_noise(CoefficientGrid(d, M, master.values[cols[M]]), sigma, rng)
        ledger.charge(label.format(m=m, cutoff=M), rho_prime)
        estimates.append(ProjectionEstimate(noisy, n, sigma, rho_prime, ledger))
    cands = np.zeros((len(cutoffs), master.size), dtype=complex)
    for row, e in zip(cands, estimates):
        row[cols[e.cutoff]] = e.coefficients.values
    measured = score(cands, cols)
    sigmas = [e.sigma for e in estimates]
    selected, derived = adaptive._DECISIONS[method](measured, sigmas, cutoffs, d)
    trace = SelectionTrace(
        method=method, n=n, d=d, rho=rho, rho_per_candidate=rho_prime, rho_spent=spent,
        constants=constants, cutoffs=list(cutoffs), sigmas=sigmas,
        evidence={**measured, **derived},
        selected_index=selected, selected_cutoff=cutoffs[selected], ledger=ledger,
        blocks=[(e.cutoff, e.coefficients.values[None]) for e in estimates],
    )
    return dataclasses.replace(estimates[selected], rho_spent=spent), trace


@pytest.mark.parametrize("select", [lepskii_select, penalized_bias_select],
                         ids=["lepskii", "penalized-bias"])
def test_a_budget_whose_scores_overflow_is_refused_without_a_warning(select):
    # rho = 1e-320 is a valid budget, but sigma is about 1e159 and the
    # candidates' squared distances are no floats: the selection is refused,
    # naming rho, instead of deciding on NaN scores
    data = np.random.default_rng(95).random((50, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^(proj_)?distances is not finite: rho is too"):
            select(data, 1e-320, None, np.random.default_rng(96))


@pytest.mark.parametrize("method, key", [
    ("lepskii", "distances"),
    ("penalized-bias", "proj_distances"),
    ("penalized-bias", "lambda1"),
    ("penalized-bias", "lambda2"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_replay_refuses_evidence_that_is_not_finite(small_traces, method, key, bad):
    trace = dataclasses.replace(small_traces[method])
    value = np.array(trace.evidence[key], dtype=float)
    value.flat[-1] = bad
    trace.evidence = {**trace.evidence, key: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{key} is not finite"):
            trace.replay()


def test_lepskii_replay_accepts_infinite_thresholds(small_traces):
    # a huge a makes every threshold +inf, which accepts the first candidate
    trace = dataclasses.replace(small_traces["lepskii"])
    trace.evidence = {**trace.evidence, "thresholds": np.full(len(trace.cutoffs), math.inf)}
    assert trace.replay() == 0


def _bits(values) -> np.ndarray:
    return np.asarray(values).view(np.uint64)


@pytest.mark.parametrize("method", sorted(_SELECTORS))
@pytest.mark.parametrize("d, n", [(1, 2000), (2, 2000), (3, 1500)])
def test_blocked_release_matches_the_per_candidate_reference_bit_for_bit(method, d, n,
                                                                         monkeypatch):
    select, _label = _SELECTORS[method]
    truth = make_trig_density(2.0, 2.0, 3, d=d, rng=np.random.default_rng(100 + d))
    data = rejection_sample(truth, n, np.random.default_rng(101))
    est, trace = select(data, np.random.default_rng(102))
    monkeypatch.setattr(adaptive, "_select", _select_per_candidate)
    ref_est, ref = select(data, np.random.default_rng(102))
    assert (est.cutoff, est.n, est.sigma, est.rho_spent) == (
        ref_est.cutoff, ref_est.n, ref_est.sigma, ref_est.rho_spent)
    assert np.array_equal(_bits(est.coefficients.values), _bits(ref_est.coefficients.values))
    assert est.ledger is trace.ledger
    assert _bits(trace.sigmas).tolist() == _bits(ref.sigmas).tolist()
    assert trace.ledger.entries == ref.ledger.entries
    assert json.dumps(trace.to_json_dict()) == json.dumps(ref.to_json_dict())
    assert len(trace.candidates) == len(ref.candidates) == len(trace.cutoffs)
    for cand, ref_cand in zip(trace.candidates, ref.candidates):
        assert (cand.cutoff, cand.dim, cand.n, cand.sigma, cand.rho_spent) == (
            ref_cand.cutoff, ref_cand.dim, ref_cand.n, ref_cand.sigma, ref_cand.rho_spent)
        assert np.array_equal(_bits(cand.coefficients.values),
                              _bits(ref_cand.coefficients.values))
        assert cand.ledger is trace.ledger
    # one C-ordered block per run of equal cut-offs
    runs = [M for i, M in enumerate(trace.cutoffs) if i == 0 or M != trace.cutoffs[i - 1]]
    assert [M for M, _block in trace.blocks] == runs
    assert all(block.flags.c_contiguous for _M, block in trace.blocks)


@pytest.mark.parametrize("d, n", [(1, 2**14), (2, 4096), (3, 4096)])
def test_lepskii_grid_cores_match_the_checked_formulas_bit_for_bit(d, n):
    # the unchecked cores of the grid give the public functions' bits
    data = np.random.default_rng(103).random((n, d))
    _est, trace = lepskii_select(data, 1.0, PenaltyConfig(a=1.5), np.random.default_rng(104))
    betas, rho_p, c = trace.evidence["betas"], trace.rho_per_candidate, trace.constants
    assert trace.cutoffs == [optimal_cutoff_adaptive_form(n, rho_p, b, d) for b in betas]
    thresholds = [c["C"] * math.log(n) ** c["a"] * theoretical_rate(n, rho_p, b, d)
                  for b in betas]
    assert np.array_equal(_bits(trace.evidence["thresholds"]), _bits(thresholds))


def test_lepskii_trace_retains_its_blocks_not_the_padded_matrix():
    # d = 3, n = 4096: 138 candidates with cut-offs 1..6 hold sum K_m complex
    # values, 0.58 MB; the zero-padded (k, K_top) matrix is 4.9 MB. The trace
    # keeps the blocks, the distance rows the scan read (here all 138, 0.15 MB)
    # and small lists.
    truth = make_trig_density(2.0, 2.0, M_truth=4, d=3, rng=np.random.default_rng(31))
    data = rejection_sample(truth, 4096, np.random.default_rng(8))
    tracemalloc.start()
    try:
        est, trace = lepskii_select(data, 1.0, rng=np.random.default_rng(9))
        del est
        cutoffs, read_bytes = trace.cutoffs, trace.evidence["distances"].nbytes
        held = tracemalloc.get_traced_memory()[0]
        del trace
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    block_bytes = 16 * sum((2 * c + 1) ** 3 for c in cutoffs)
    assert len(cutoffs) == 138 and max(cutoffs) == 6
    assert block_bytes <= retained <= 1.25 * block_bytes + read_bytes


# ---------------------------------------------------------------------------
# penalized-bias selection
# ---------------------------------------------------------------------------


def test_penalized_singleton_grid():
    data = np.random.default_rng(60).random((200, 1))
    est, trace = penalized_bias_select(data, 1.0, [5], np.random.default_rng(61))
    assert trace.cutoffs == [5]
    assert est.cutoff == 5
    assert est.rho_spent == 1.0


def test_penalized_tie_break_smallest():
    # Data on the lattice j/N has empirical coefficients exactly delta_{k0}
    # for all |k| < N, and at rho = 1e30 the noise (sigma ~ 1e-16) leaves
    # every candidate projecting to the same function; the criterion then
    # grows with Lambda2 and the smallest M wins.
    N = 64
    data = (np.arange(N) / N).reshape(-1, 1)
    est, trace = penalized_bias_select(data, 1e30, [1, 2, 4, 8], np.random.default_rng(0))
    bias_sq = trace.evidence["bias_sq"]
    assert np.allclose(bias_sq, bias_sq[0], atol=1e-12)
    assert trace.selected_index == 0
    assert est.cutoff == 1


def test_penalized_budget_is_exactly_rho():
    for rho in (1.0, 0.3, 2.5):
        data = np.random.default_rng(62).random((300, 1))
        est, trace = penalized_bias_select(data, rho, None, np.random.default_rng(63))
        assert est.rho_spent == rho  # exact composition of |grid| equal shares
        g = len(trace.cutoffs)
        assert trace.rho_per_candidate == pytest.approx(rho / g, rel=1e-15)
        assert len(trace.ledger) == g


def test_penalized_default_grid_is_dyadic():
    data = np.random.default_rng(64).random((1024, 1))
    est, trace = penalized_bias_select(data, 1.0, None, np.random.default_rng(65))
    assert trace.cutoffs == dyadic_cutoff_grid(1024, 1)


def test_penalized_bias_lower_bound_and_replay():
    for seed in (5, 6, 7):
        data = np.random.default_rng(seed).random((500, 1))
        est, trace = penalized_bias_select(data, 1.0, None, np.random.default_rng(seed))
        lam1, bias_sq = trace.evidence["lambda1"], trace.evidence["bias_sq"]
        assert np.all(bias_sq >= -lam1.min() - 1e-12)
        assert np.all(np.isfinite(bias_sq))
        assert trace.replay() == trace.selected_index


def test_penalized_replay_rederives_its_choice_from_what_was_measured():
    # bias_sq and criterion are derived from proj_distances and the penalties,
    # so an edit of the winner's measured distances must move the replay
    truth = make_trig_density(2.0, 2.0, 20, rng=np.random.default_rng(7))
    data = rejection_sample(truth, 4096, np.random.default_rng(7))
    _est, trace = penalized_bias_select(data, 1.0, None, np.random.default_rng(1))
    ev = trace.evidence
    lam1, lam2 = ev["lambda1"], ev["lambda2"]
    assert np.array_equal(ev["bias_sq"], (ev["proj_distances"] - lam1[None, :]).max(axis=1))
    assert np.array_equal(ev["criterion"], ev["bias_sq"] + lam2)
    won = trace.selected_index
    ev["proj_distances"][won] += 1e6
    bias_sq = (ev["proj_distances"] - lam1[None, :]).max(axis=1)
    assert trace.replay() == int(np.argmin(bias_sq + lam2)) != won


def _masked_proj_distances(cands, grid, d):
    """The penalized-bias score's distances as first written, kept as the
    reference: row i against every candidate at once, through g masked
    (g, K_top) copies of candidate i restricted to each cube."""
    normmax = np.abs(multi_indices(max(grid), d)).max(axis=1)
    masks = np.array([normmax <= m for m in grid])
    proj_dist = np.empty((len(grid), len(grid)))
    for i in range(len(grid)):
        diff = cands[i][None, :] * masks - cands
        proj_dist[i] = np.sum(diff.real**2 + diff.imag**2, axis=1)
    return proj_dist


@pytest.mark.parametrize("d, n, grid", [
    (1, 4096, None),
    (2, 4096, None),
    (1, 1000, [0, 3, 5, 6, 11]),
    (2, 1000, [0, 2, 3]),
], ids=["d1-dyadic", "d2-dyadic", "d1-custom", "d2-custom"])
def test_penalized_per_cube_distances_match_the_masked_reference(d, n, grid):
    data = np.random.default_rng(57 + d).random((n, d))
    _est, trace = penalized_bias_select(data, 1.0, grid, np.random.default_rng(58))
    ev = trace.evidence
    ref = _masked_proj_distances(_candidate_matrix(trace), trace.cutoffs, d)
    assert np.all(np.diag(ev["proj_distances"]) == 0.0)
    np.testing.assert_allclose(ev["proj_distances"], ref, rtol=1e-12, atol=0.0)
    ref_criterion = (ref - ev["lambda1"][None, :]).max(axis=1) + ev["lambda2"]
    assert trace.selected_index == int(np.argmin(ref_criterion))


def test_penalized_deterministic():
    data = np.random.default_rng(70).random((256, 1))
    e1, t1 = penalized_bias_select(data, 1.0, None, np.random.default_rng(71))
    e2, t2 = penalized_bias_select(data, 1.0, None, np.random.default_rng(71))
    assert t1.selected_index == t2.selected_index
    assert np.array_equal(e1.coefficients.values, e2.coefficients.values)


def test_penalized_validation():
    data = np.random.default_rng(72).random((50, 1))
    with pytest.raises(ValueError):
        penalized_bias_select(data, 1.0, [], np.random.default_rng(73))
    with pytest.raises(ValueError):
        penalized_bias_select(data, 1.0, [-1, 2], np.random.default_rng(73))
    for bad in ([1.5, 2.9], [True, 2], [1, "2"], [2.0]):  # never rounded to integers
        with pytest.raises(ValueError):
            penalized_bias_select(data, 1.0, bad, np.random.default_rng(73))
    with pytest.raises(ValueError):
        penalized_bias_select(data, 1.0, None)  # rng required when noised


# ---------------------------------------------------------------------------
# grid-risk series
# ---------------------------------------------------------------------------


def test_risk_series_includes_flat_endpoint():
    # the series ends at beta = 0 where the rate is 1, so the sum is >= 1
    assert risk_series_sum(100, 1.0, 0.5, 1) >= 1.0


def test_risk_series_bound_over_grid():
    for n in (100, 10**4):
        for rho in (0.01, 1.0):
            for d in (1, 2, 3):
                for eps in (0.1, 0.25, 0.5):
                    s = risk_series_sum(n, rho, eps, d)
                    b = risk_series_bound(n, rho, eps, d)
                    assert s <= b
                    assert s > 0


def test_risk_series_real_n():
    # the bound's derivation only needs log n, so real n >= 3 is accepted
    s = risk_series_sum(math.e**2, 1.0, 1.0, 1)
    assert s >= 1.0
