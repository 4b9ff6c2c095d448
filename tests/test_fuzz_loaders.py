"""Property tests of the document and config loaders and of the command-line
flags that carry numbers.

Each loader either returns a value or raises ValueError, whatever JSON-like
value it is given; the command line returns 0, 1 or 2 and raises nothing but
argparse's SystemExit(2). The documents are valid ones with some keys
replaced by arbitrary JSON values, removed, or joined by unknown keys, so
most examples get past the first check; NaN and the infinities are also
drawn on purpose for the smoothness beta and the radius L. A density that
loads or is generated has a finite sup bound > 0. `privdens sample` also
runs on trig and estimate documents with extreme finite coefficients, with
every warning made an error. Runs are derandomized with small example
counts, so the suite stays deterministic and fast.
"""

import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from privdens.cli import main
from privdens.densities import density_from_json_dict
from privdens.estimator import ProjectionEstimate
from privdens.experiments import ExperimentConfig

FUZZ = settings(
    derandomize=True, database=None, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)

UNIFORM = {"kind": "uniform", "d": 1}
PACKING = {"kind": "packing", "d": 1, "m": 2, "beta": 1.0, "L": 2.0, "theta": [1, 0]}
TRIG = {"kind": "trig", "beta": 1.0, "L": 2.0, "min_value": 0.5,
        "coefficients": {"d": 1, "M": 1, "re": [0.1, 1.0, 0.1], "im": [0.05, 0.0, -0.05]}}
ESTIMATE = {"d": 1, "M": 1, "re": [0.1, 1.0, 0.1], "im": [0.05, 0.0, -0.05], "n": 5,
            "sigma": 0.0, "rho_spent": None}
CONFIG = {"density": UNIFORM, "n": [64], "rho": [1.0], "mode": "oracle", "replicates": 1,
          "seed": 0, "d": 1, "beta": 1.0}


def mutated(base: dict, extra_keys=("typo",)):
    """base with some keys given arbitrary JSON values, some removed, and
    possibly an unknown key added."""
    keys = st.sampled_from(sorted(base) + list(extra_keys))
    return st.tuples(
        st.dictionaries(keys, JSON, max_size=3), st.sets(st.sampled_from(sorted(base)), max_size=2)
    ).map(lambda t: {**{k: v for k, v in base.items() if k not in t[1]}, **t[0]})


def returns_or_value_error(load, doc):
    try:
        return load(doc)
    except ValueError:
        return None


def non_finite_beta_and_L(test):
    """Add, as explicit examples, every packing and trig document whose beta
    or L is NaN or an infinity."""
    for doc in (PACKING, TRIG):
        for key in ("beta", "L"):
            for value in (math.nan, math.inf, -math.inf):
                test = example({**doc, key: value})(test)
    return test


@FUZZ
@given(st.one_of(mutated(UNIFORM), mutated(PACKING), mutated(TRIG), JSON))
@non_finite_beta_and_L
def test_density_loader_returns_or_raises_value_error(doc):
    dens = returns_or_value_error(density_from_json_dict, doc)
    if dens is not None:
        assert dens.dim >= 1 and 0 < dens.sup_bound < math.inf


@FUZZ
@given(st.one_of(mutated(ESTIMATE), JSON))
def test_estimate_loader_returns_or_raises_value_error(doc):
    est = returns_or_value_error(ProjectionEstimate.from_json_dict, doc)
    if est is not None:
        assert est.n >= 1 and est.sigma >= 0 and est.ledger is None


def _check_built(cfg):
    # a config that constructs also gives its Lepskii constants and its truth,
    # and the same values build it again, by keyword and from its JSON form
    cfg.penalty_config()
    assert cfg._truth.dim == cfg.d
    again = ExperimentConfig(**{k: getattr(cfg, k) for k in cfg.__dataclass_fields__})
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_json_dict())))
    for other in (again, back):
        assert json.dumps(other.to_json_dict()) == json.dumps(cfg.to_json_dict())


@FUZZ
@given(st.one_of(
    mutated(CONFIG),
    mutated({**CONFIG, "mode": "lepskii", "constants": {"C": 1.0, "eps": 0.5}}),
    mutated({**CONFIG, "density": PACKING, "grid": [1, 2], "time_limit_s": 1.0}),
    JSON,
))
def test_config_from_dict_returns_or_raises_value_error(doc):
    cfg = returns_or_value_error(ExperimentConfig.from_dict, doc)
    if cfg is not None:
        _check_built(cfg)


KEYWORDS = {
    "density": st.one_of(st.just(UNIFORM), st.just(PACKING), JSON),
    "ns": st.one_of(st.just([64]), st.lists(st.integers(-5, 2**26), max_size=3), JSON),
    "rhos": st.one_of(st.just([1.0]), st.lists(st.floats(), max_size=3), JSON),
    "mode": st.one_of(st.sampled_from(["oracle", "lepskii", "penalized-bias"]), JSON),
    "replicates": st.one_of(st.just(1), JSON),
    "seed": st.one_of(st.just(0), JSON),
    "d": st.one_of(st.just(1), JSON),
    "beta": st.one_of(st.just(1.0), JSON),
    "cutoff_form": st.one_of(st.just("thm"), JSON),
    "constants": st.one_of(
        st.fixed_dictionaries({}, optional={"C": JSON, "a": JSON, "eps": JSON, "mode": JSON}),
        JSON,
    ),
    "grid": st.one_of(st.just([1, 2]), JSON),
    "deterministic_timings": st.one_of(st.booleans(), JSON),
    "time_limit_s": st.one_of(st.just(2.0), JSON),
}


@FUZZ
@given(st.fixed_dictionaries(
    {k: KEYWORDS[k] for k in ("density", "ns", "rhos", "mode", "replicates", "seed", "d")},
    optional={k: v for k, v in KEYWORDS.items()
              if k not in ("density", "ns", "rhos", "mode", "replicates", "seed", "d")},
))
def test_keyword_config_returns_or_raises_value_error(kwargs):
    cfg = returns_or_value_error(lambda kw: ExperimentConfig(**kw), kwargs)
    if cfg is not None:
        _check_built(cfg)


# Flag values as the shell passes them: printed floats, special values and junk.
SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-310", "1e308", "True", "abc", ""])
FLAG_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), SPECIAL)


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a flag value
        assert exc.code == 2
        return 2


def points_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    data = tmp / "pts.csv"
    data.write_text("".join(f"{x:.17g}\n" for x in np.random.default_rng(0).random(40)),
                    encoding="utf-8")
    return tmp, data


@settings(FUZZ, max_examples=30)
@given(st.dictionaries(st.sampled_from(["--C", "--a", "--eps", "--L"]), FLAG_VALUES, min_size=1),
       st.booleans())
def test_fit_lepskii_flags_exit_cleanly(tmp_path_factory, flags, theory):
    tmp, data = points_file(tmp_path_factory)
    argv = ["fit", str(data), "--rho", "1", "--adaptive", "lepskii", "--out", str(tmp / "e.json")]
    if theory:
        argv += ["--constants-mode", "theory"]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    code = exit_code(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert math.isfinite(json.loads((tmp / "e.json").read_text())["rho_spent"])


@settings(FUZZ, max_examples=40)
@given(st.dictionaries(st.sampled_from(["--beta", "--M"]),
                       st.one_of(FLAG_VALUES, st.integers(-3, 40).map(str)), min_size=1),
       st.booleans())
@example(flags={"--beta": "-0.5"}, private=False)  # 2 beta + d = 0
@example(flags={"--beta": "0"}, private=False)
def test_fit_cutoff_flags_exit_cleanly(tmp_path_factory, flags, private):
    tmp, data = points_file(tmp_path_factory)
    argv = ["fit", str(data), "--out", str(tmp / "e.json")] + (["--rho", "1"] if private else [])
    code = exit_code(argv + [f"{flag}={value}" for flag, value in flags.items()])
    assert code in (0, 1, 2)
    if code == 0:
        est = ProjectionEstimate.from_json_dict(json.loads((tmp / "e.json").read_text()))
        assert est.cutoff >= 0 and (est.rho_spent == 1.0) == private
        if "--M" not in flags:  # a tuned cut-off needs a smoothness in (0, inf)
            assert 0 < float(flags["--beta"]) < math.inf


# Small ranges for the sizes, so that no example allocates much; beta and L
# also take NaN, the infinities and junk. A huge finite beta or L is tried
# only as an example: below the order bound the trig fixture's Sobolev weights
# take time of order floor(beta)^(d-1).
def _small_real(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr),
                     st.sampled_from(["nan", "inf", "-inf", "0", "-1", "True", "abc", ""]))


GENERATE_FLAGS = {
    "--beta": _small_real(-1.0, 4.0),
    "--L": _small_real(-1.0, 6.0),
    "--M-truth": st.integers(-1, 6).map(str),
    "--m": st.integers(-1, 6).map(str),
    "--d": st.integers(-1, 3).map(str),
}


@settings(FUZZ, max_examples=60)
@given(st.sampled_from(["trig", "packing", "uniform"]),
       st.fixed_dictionaries({}, optional=GENERATE_FLAGS))
@example(kind="trig", flags={"--beta": "inf"})
@example(kind="packing", flags={"--beta": "inf"})
@example(kind="packing", flags={"--L": "nan"})
@example(kind="trig", flags={"--beta": "1e308"})
@example(kind="trig", flags={"--beta": "3000", "--d": "3", "--M-truth": "2"})
@example(kind="packing", flags={"--L": "1e308"})
@example(kind="packing", flags={"--L": "1e160"})
def test_generate_density_flags_exit_cleanly(tmp_path_factory, kind, flags):
    out = tmp_path_factory.mktemp("gen") / "dens.json"
    argv = ["generate-density", "--kind", kind, "--out", str(out)]
    code = exit_code(argv + [f"{flag}={value}" for flag, value in flags.items()])
    assert code in (0, 1, 2)
    if code == 0:
        dens = density_from_json_dict(json.loads(out.read_text()))
        assert 0 < dens.sup_bound < math.inf


@settings(FUZZ, max_examples=40)
@given(st.lists(FLAG_VALUES, min_size=1, max_size=3))
def test_rate_table_beta_flags_exit_cleanly(capsys, betas):
    capsys.readouterr()
    code = exit_code(["rate-table", "--n", "100", "4096", "--rho", "0.01", "1", "--beta",
                      *betas])
    assert code in (0, 1, 2)
    if code == 0:
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 4 * len(betas)
        assert all(0 < float(row.split(",")[4]) < math.inf for row in rows)


# Coefficients at the extremes of the finite floats, signed, and any finite float.
EXTREME = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-308, 1e-3, 0.5, 1.0, 2.0, 1e150, 1e300, 8.9e307, 1e308,
                     1.7976931348623157e308]).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def coefficient_grids(draw):
    """A coefficient grid document with extreme finite values; half of them
    made a valid trig grid, exactly Hermitian with theta_0 = 1."""
    d, cutoff = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    size = (2 * cutoff + 1) ** d
    re, im = (draw(st.lists(EXTREME, min_size=size, max_size=size)) for _ in range(2))
    if draw(st.booleans()):
        re[size // 2], im[size // 2] = 1.0, 0.0
        for k in range(size // 2):
            re[size - 1 - k], im[size - 1 - k] = re[k], -im[k]
    return {"d": d, "M": cutoff, "re": re, "im": im}


@settings(FUZZ, max_examples=30)
@given(coefficient_grids(), st.booleans())
def test_sample_of_extreme_documents_exits_cleanly(tmp_path_factory, grid, trig):
    # `privdens sample` of a trig density or an estimate document either
    # writes its points or refuses the document: it never raises and never
    # warns (every warning is turned into an error here)
    tmp = tmp_path_factory.mktemp("sample")
    doc = ({"kind": "trig", "beta": 1.0, "L": 2.0, "min_value": 0.5, "coefficients": grid}
           if trig else {**grid, "n": 5, "sigma": 0.0, "rho_spent": None})
    (tmp / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = exit_code(["sample", str(tmp / "doc.json"), "--n", "3", "--out", str(tmp / "s.csv")])
    assert code in (0, 1, 2)
    if code == 0:
        assert len((tmp / "s.csv").read_text().splitlines()) == 3
