"""The package exports nothing that only its own tests use.

Every name in a layer module's `__all__` must be read somewhere in `src/`,
`demos/`, `bench/` or `tools/` (a name or an attribute, in any file but the
package's `__init__.py`, which only re-exports). A name read from `tests/`
alone is test-only API: move it into the tests or delete it. The package
depends on numpy alone: importing the command line loads no scipy module.

Every size and scale argument follows one rule: an integer is a Python or
NumPy integer and never a bool, a real is a finite Python or NumPy real, and
nothing is coerced. A refusal is a ValueError that starts with the
parameter's name, raised before any warning.
"""

import ast
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from privdens import adaptive, densities, estimator, fourier, privacy
from theory_checks import optimal_cutoff_thm, project

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("fourier", "privacy", "estimator", "adaptive", "densities", "experiments", "cli")
# The second route to the noise scale, gaussian_sigma(coefficient_sensitivity(...)),
# is kept apart from sigma_for_cutoff so that acceptance criterion 1 can
# cross-check the two; only tests call it, by design.
ALLOWED = {"coefficient_sensitivity", "gaussian_sigma"}


def _exports(module: Path) -> list[str]:
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_no_public_name_is_test_only():
    read = set()
    for top in ("src", "demos", "bench", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    test_only = {
        layer: [name for name in _exports(ROOT / "src" / "privdens" / f"{layer}.py")
                if name not in read and name not in ALLOWED]
        for layer in LAYERS
    }
    assert not any(test_only.values()), f"exported but read only by tests: {test_only}"


def test_the_theorem_cutoff_form_is_not_exported():
    # the package tunes with one form; the theorem's lives in tests/theory_checks.py
    import privdens

    assert not hasattr(privdens, "optimal_cutoff_thm")
    assert not hasattr(estimator, "optimal_cutoff_thm")


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    script = ("import sys, privdens.cli\n"
              "print([k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')])")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# -- the argument rule -------------------------------------------------------

_PTS = np.array([0.2, 0.7, 0.9])
_GRID = fourier.empirical_coefficients(_PTS, 2)
_UNIFORM = densities.TrigDensity.uniform(1)
_TRIG = densities.make_trig_density(2.0, 2.0, 3, rng=0)


def _charge(rho):
    ledger = privacy.BudgetLedger()
    ledger.charge("one", rho)
    return ledger.to_json_dict()


def _coefficients(d, cutoff):
    doc = {"d": d, "M": cutoff, "re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}
    return fourier.CoefficientGrid.from_json_dict(doc).to_json_dict()


def _rate_cases(name, call):
    # n is a real: the rate formulas are arithmetic in n
    return [(name, "n", "real", 1000.0, lambda v: call(v, 1.0, 1.5, 1)),
            (name, "rho", "real", 0.5, lambda v: call(1000, v, 1.5, 1)),
            (name, "beta", "real", 1.5, lambda v: call(1000, 1.0, v, 1)),
            (name, "d", "integer", 2, lambda v: call(1000, 1.0, 1.5, v))]


def _penalty_cases(name, call):
    return [(name, "cutoff", "integer", 3, lambda v: call(v, 1000, 0.125, 1)),
            (name, "n", "integer", 1000, lambda v: call(3, v, 0.125, 1)),
            (name, "rho", "real", 0.125, lambda v: call(3, 1000, v, 1)),
            (name, "d", "integer", 2, lambda v: call(3, 1000, 0.125, v))]


# (call, parameter, kind, a valid value, the call on that parameter's value)
# for every scalar size or scale argument of the five layers: each returns
# something that compares by ==
ARGUMENTS = [
    ("multi_indices", "cutoff", "integer", 2, lambda v: fourier.multi_indices(v, 1).tolist()),
    ("multi_indices", "dim", "integer", 2, lambda v: fourier.multi_indices(1, v).tolist()),
    ("CoefficientGrid", "cutoff", "integer", 1,
     lambda v: fourier.CoefficientGrid(1, v, np.ones(3)).to_json_dict()),
    ("CoefficientGrid", "dim", "integer", 2,
     lambda v: fourier.CoefficientGrid(v, 1, np.ones(9)).to_json_dict()),
    ("CoefficientGrid.from_json_dict", "'d'", "integer", 1, lambda v: _coefficients(v, 1)),
    ("CoefficientGrid.from_json_dict", "'M'", "integer", 1, lambda v: _coefficients(1, v)),
    ("empirical_coefficients", "cutoff", "integer", 2,
     lambda v: fourier.empirical_coefficients(_PTS, v).to_json_dict()),
    ("project", "cutoff", "integer", 1, lambda v: project(_GRID, v).to_json_dict()),
    ("evaluate_lattice", "per_axis", "integer", 4,
     lambda v: fourier.evaluate_lattice(_GRID, v).tolist()),
    ("midpoint_lattice", "d", "integer", 2, lambda v: densities.midpoint_lattice(v, 4).tolist()),
    ("midpoint_lattice", "per_axis", "integer", 4,
     lambda v: densities.midpoint_lattice(1, v).tolist()),
    ("as_rho", "rho", "real", 0.5, privacy.as_rho),
    ("BudgetLedger.charge", "rho", "real", 0.5, _charge),
    ("coefficient_sensitivity", "n", "integer", 100,
     lambda v: privacy.coefficient_sensitivity(v, 2, 1)),
    ("coefficient_sensitivity", "cutoff", "integer", 2,
     lambda v: privacy.coefficient_sensitivity(100, v, 1)),
    ("coefficient_sensitivity", "dim", "integer", 2,
     lambda v: privacy.coefficient_sensitivity(100, 2, v)),
    ("sigma_for_cutoff", "n", "integer", 100, lambda v: privacy.sigma_for_cutoff(v, 1.0, 2, 1)),
    ("sigma_for_cutoff", "rho", "real", 0.5, lambda v: privacy.sigma_for_cutoff(100, v, 2, 1)),
    ("sigma_for_cutoff", "cutoff", "integer", 2,
     lambda v: privacy.sigma_for_cutoff(100, 1.0, v, 1)),
    ("sigma_for_cutoff", "dim", "integer", 2, lambda v: privacy.sigma_for_cutoff(100, 1.0, 2, v)),
    ("gaussian_sigma", "sensitivity", "real", 0.5, lambda v: privacy.gaussian_sigma(v, 1.0)),
    ("gaussian_sigma", "rho", "real", 0.5, lambda v: privacy.gaussian_sigma(0.5, v)),
    ("add_noise", "sigma", "real", 0.5,
     lambda v: privacy.add_noise(_GRID, v, np.random.default_rng(0)).to_json_dict()),
    ("derived_rng", "seed", "integer", 3, lambda v: privacy.derived_rng(v, 1).random()),
    ("derived_rng", "indices", "integer", 3, lambda v: privacy.derived_rng(1, 2, v).random()),
    ("fit", "cutoff", "integer", 2, lambda v: estimator.fit(_PTS, v).to_json_dict()),
    ("fit", "rho", "real", 0.5,
     lambda v: estimator.fit(_PTS, 2, v, np.random.default_rng(0)).to_json_dict()),
    *_rate_cases("optimal_cutoff_thm", optimal_cutoff_thm),
    *_rate_cases("optimal_cutoff_adaptive_form", estimator.optimal_cutoff_adaptive_form),
    *_rate_cases("theoretical_rate", estimator.theoretical_rate),
    *_rate_cases("rate_regime", estimator.rate_regime),
    ("PenaltyConfig", "C", "real", 2.0, lambda v: adaptive.PenaltyConfig(C=v)),
    ("PenaltyConfig", "a", "real", 1.5, lambda v: adaptive.PenaltyConfig(a=v)),
    ("PenaltyConfig", "eps", "real", 0.5, lambda v: adaptive.PenaltyConfig(eps=v)),
    ("PenaltyConfig", "L", "real", 2.0, lambda v: adaptive.PenaltyConfig(L=v)),
    ("build_beta_grid", "n", "real", 100.0, lambda v: adaptive.build_beta_grid(v, 0.5)),
    ("build_beta_grid", "eps", "real", 0.5, lambda v: adaptive.build_beta_grid(100, v)),
    ("dyadic_cutoff_grid", "n", "integer", 1000, lambda v: adaptive.dyadic_cutoff_grid(v, 1)),
    ("dyadic_cutoff_grid", "d", "integer", 2, lambda v: adaptive.dyadic_cutoff_grid(1000, v)),
    *_penalty_cases("penalty_lambda1", adaptive.penalty_lambda1),
    *_penalty_cases("penalty_lambda2", adaptive.penalty_lambda2),
    ("make_trig_density", "beta", "real", 2.0,
     lambda v: densities.make_trig_density(v, 2.0, 3, rng=0).to_json_dict()),
    ("make_trig_density", "L", "real", 2.0,
     lambda v: densities.make_trig_density(2.0, v, 3, rng=0).to_json_dict()),
    ("make_trig_density", "M_truth", "integer", 3,
     lambda v: densities.make_trig_density(2.0, 2.0, v, rng=0).to_json_dict()),
    ("make_trig_density", "d", "integer", 2,
     lambda v: densities.make_trig_density(2.0, 2.0, 1, v, rng=0).to_json_dict()),
    ("exact_bias", "cutoff", "integer", 1, lambda v: densities.exact_bias(_TRIG, v)),
    ("make_packing_density", "m", "integer", 2,
     lambda v: densities.make_packing_density([1, 0], v, 1.0).to_json_dict()),
    ("make_packing_density", "d", "integer", 1,
     lambda v: densities.make_packing_density([1, 0], 2, 1.0, d=v).to_json_dict()),
    ("make_packing_density", "beta", "real", 1.5,
     lambda v: densities.make_packing_density([1, 0], 2, v).to_json_dict()),
    ("make_packing_density", "L", "real", 2.0,
     lambda v: densities.make_packing_density([1, 0], 2, 1.0, L=v).to_json_dict()),
    ("rejection_sample", "n", "integer", 5,
     lambda v: densities.rejection_sample(_UNIFORM, v, np.random.default_rng(0)).tolist()),
]
# a bool, a non-integral float, a string, NaN and the infinities; a
# non-integral float is a valid real
REFUSED = {"integer": [True, np.bool_(False), 2.5, "3", math.nan, math.inf, -math.inf],
           "real": [True, np.bool_(False), "3", math.nan, math.inf, -math.inf]}
ACCEPTED = {"integer": [np.int64, np.int32, np.uint16], "real": [np.float64, np.float32]}


def _case_id(case):
    return f"{case[0]}-{case[1].strip(chr(39))}"


@pytest.mark.parametrize("case", ARGUMENTS, ids=_case_id)
def test_argument_rule_refuses_bools_fractions_strings_and_non_finite(case):
    call, name, kind, _, run = case
    for bad in REFUSED[kind]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must be ") as err:
                run(bad)
        assert str(err.value).endswith(f", got {bad!r}"), (call, bad)


@pytest.mark.parametrize("case", ARGUMENTS, ids=_case_id)
def test_argument_rule_takes_numpy_scalars(case):
    # a NumPy integer, signed or not, or a float64 or float32 gives the
    # Python value's result: every call computes with the int or float that
    # the rule returns, so nothing wraps or rounds in the NumPy type
    _, _, kind, valid, run = case
    expected = run(valid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for numpy_type in ACCEPTED[kind]:
            assert run(numpy_type(valid)) == expected, numpy_type


def test_argument_rule_takes_float32_and_float16_reals():
    # abs(v) <= the float maximum would cast the maximum down and warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for half in (np.float32, np.float16):
            assert fourier._is_finite(half(0.5)) and not fourier._is_finite(half("inf"))
            assert adaptive.PenaltyConfig(eps=half(0.5)).eps == 0.5
        assert densities.make_trig_density(np.float32(2.0), 2.0, 3, rng=0).beta == 2.0


def test_unsigned_sizes_do_not_wrap_in_the_callers():
    # the table's values are too small to overflow a uint16: (2M+1)^d and n^2
    # at larger values wrap unless each call computes with the returned int
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u16 = np.uint16
        assert (privacy.coefficient_sensitivity(u16(100), u16(300), u16(2))
                == privacy.coefficient_sensitivity(100, 300, 2))
        assert (privacy.sigma_for_cutoff(u16(100), 1.0, u16(300), u16(2))
                == privacy.sigma_for_cutoff(100, 1.0, 300, 2))
        assert adaptive.penalty_lambda2(u16(300), u16(60000), 0.125, u16(2)) == \
            adaptive.penalty_lambda2(300, 60000, 0.125, 2)
        assert fourier.multi_indices(u16(300), u16(1)).min() == -300
        assert (adaptive.dyadic_cutoff_grid(np.uint32(10**6), u16(2))
                == adaptive.dyadic_cutoff_grid(10**6, 2))


def test_rate_formulas_take_a_real_n():
    rate = estimator.theoretical_rate(1000.5, 1.0, 1.5, 1)
    assert rate == max(1000.5 ** (-1.5 / 2.0), 1000.5 ** (-2.0 * (1.5 / 2.5)))
    assert estimator.rate_regime(1000.5, 1.0, 1.5, 1) == "sampling"
