"""Property tests of the document and config loaders and of the command-line
flags that carry numbers.

Each loader either returns a value or raises ValueError, whatever JSON-like
value it is given; the command line returns 0, 1 or 2 and raises nothing but
argparse's SystemExit(2). The documents are valid ones with some keys
replaced by arbitrary JSON values, removed, or joined by unknown keys, so
most examples get past the first check; NaN and the infinities are also
drawn on purpose for the smoothness beta and the radius L. A density that
loads or is generated has a finite sup bound > 0. `privdens sample` also
runs on trig and estimate documents with extreme finite coefficients, and
`privdens fit` on generated points files (blank lines, ragged rows, Python
float spellings, a BOM, line ends of every kind, bytes that are not UTF-8),
with every warning made an error, and on every private mode with any
`--rho`; on the same kind of text the points reader, np.loadtxt alone,
gives the points or the message of a small line parser kept here as a
reference. Runs are derandomized with small example
counts, so the suite stays deterministic and fast.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from privdens import cli
from privdens.cli import main
from privdens.densities import density_from_json_dict
from privdens.estimator import ProjectionEstimate
from privdens.experiments import ExperimentConfig
from privdens.fourier import as_points

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
    "constants": st.one_of(
        st.fixed_dictionaries({}, optional={"C": JSON, "a": JSON, "eps": JSON, "mode": JSON}),
        JSON,
    ),
    "grid": st.one_of(st.just([1, 2]), JSON),
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
    made a valid trig grid, exactly Hermitian with theta_0 = 1. d reaches 5,
    whose default midpoint lattice (32^5 points) is over the lattice cap."""
    d = draw(st.integers(1, 5))
    cutoff = draw(st.integers(0, 2 if d <= 2 else 1))
    size = (2 * cutoff + 1) ** d
    re, im = (draw(st.lists(EXTREME, min_size=size, max_size=size)) for _ in range(2))
    if draw(st.booleans()):
        re[size // 2], im[size // 2] = 1.0, 0.0
        for k in range(size // 2):
            re[size - 1 - k], im[size - 1 - k] = re[k], -im[k]
    return {"d": d, "M": cutoff, "re": re, "im": im}


@settings(FUZZ, max_examples=30)
@given(coefficient_grids(), st.booleans())
@example(grid={"d": 1, "M": 2, "re": [1e307, 1e307, 1, 1e307, 1e307], "im": [0] * 5}, trig=True)
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


# Points-file text, token by token: cells that parse, cells float() takes but
# a decimal CSV reader would not, and cells nothing takes.
CELLS = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "0.5", "1.5", "-0.1", "1_0", "0.2_5", " nan", "nan", "1e999",
                     "-inf", "\u0660.\u0665", "\u0660\u066b\u0665", "", " ", "abc"]),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\x0c"])
LINES = st.one_of(
    st.sampled_from(["", " ", "\t  "]),  # blank and whitespace-only
    st.tuples(st.lists(CELLS, min_size=1, max_size=3), st.booleans()).map(
        lambda row: ",".join(row[0]) + ("," if row[1] else "")),  # ragged, trailing comma
)


@st.composite
def points_files(draw):
    """The bytes of a points file: lines with mixed line ends, maybe a BOM,
    maybe a byte that is not UTF-8 put anywhere."""
    lines = draw(st.lists(st.tuples(LINES, LINE_ENDS), min_size=1, max_size=6))
    text = ("\ufeff" if draw(st.booleans()) else "") + "".join(a + b for a, b in lines)
    data = text.encode("utf-8")
    bad = draw(st.sampled_from([b"", b"", b"\xff", b"\x80", b"\xc3"]))
    at = draw(st.integers(0, len(data)))
    return data[:at] + bad + data[at:]


@settings(FUZZ, max_examples=60)
@given(points_files())
@example(data=b"0.5\xff\n")
@example(data=b"\xef\xbb\xbf0.5\r\n0.25\r0.75\x0c\n")
def test_fit_of_generated_points_files_exits_cleanly(tmp_path_factory, data):
    # `privdens fit` on any points file writes its estimate or refuses the
    # file: it never raises and never warns
    tmp = tmp_path_factory.mktemp("fit")
    (tmp / "pts.csv").write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = exit_code(["fit", str(tmp / "pts.csv"), "--M", "2", "--rho", "1",
                          "--out", str(tmp / "e.json")])
    assert code in (0, 1, 2)
    if code == 0:
        assert ProjectionEstimate.from_json_dict(json.loads((tmp / "e.json").read_text())).n >= 1


# Every kind of fit. On a wide points file each meets a size cap, and theory
# mode also its floor C >= 2^(2d+9), which is no float past d = 507.
FIT_MODES = {
    "fixed": ["--M", "1"],
    "fixed-private": ["--M", "1", "--rho", "1"],
    "tuned": ["--beta", "1"],
    "tuned-private": ["--beta", "1", "--rho", "1"],
    "penalized-bias": ["--adaptive", "penalized-bias", "--rho", "1"],
    "lepskii": ["--adaptive", "lepskii", "--rho", "1"],
    "lepskii-theory": ["--adaptive", "lepskii", "--rho", "1", "--constants-mode", "theory"],
}


@settings(FUZZ, max_examples=30)
@given(st.sampled_from(sorted(FIT_MODES)), st.integers(1, 4), st.integers(1, 2000),
       st.booleans())
@example(mode="lepskii-theory", n=3, d=600, trace=False)
def test_fit_of_wide_points_files_exits_cleanly(tmp_path_factory, mode, n, d, trace):
    # every mode ends in an estimate or a message, and a refusal leaves no file
    tmp = tmp_path_factory.mktemp("wide")
    data, out, trace_path = tmp / "pts.csv", tmp / "e.json", tmp / "t.json"
    data.write_text((",".join(["%.17g"] * d) + "\n") * n
                    % tuple(np.random.default_rng(d).random(n * d)), encoding="utf-8")
    argv = ["fit", str(data), "--out", str(out), *FIT_MODES[mode]]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = exit_code(argv + (["--trace", str(trace_path)] if trace else []))
    assert code in (0, 1, 2) and "Traceback" not in stderr.getvalue()
    if code != 0:
        assert not out.exists() and not trace_path.exists()


# Every kind of private release, with its selection trace where it has one.
RELEASE_MODES = {
    "fixed-private": ["--M", "1"],
    "tuned-private": ["--beta", "1"],
    "penalized-bias": ["--adaptive", "penalized-bias", "--trace", "t.json"],
    "lepskii": ["--adaptive", "lepskii", "--trace", "t.json"],
}


def _no_constant(name):
    raise ValueError(f"{name} in a written file")


@settings(FUZZ, max_examples=40)
@given(st.sampled_from(sorted(RELEASE_MODES)), FLAG_VALUES)
@example(mode="penalized-bias", rho="1e-320")  # sigma about 1e159: the scores overflow
@example(mode="lepskii", rho="1e-320")
def test_fit_budget_flag_exits_cleanly_on_every_release_mode(tmp_path_factory, mode, rho):
    # any --rho ends in a release within it or in a message, never in a
    # warning; a refusal leaves no file, and a written file holds no NaN or
    # infinity
    tmp, data = points_file(tmp_path_factory)
    out, trace = tmp / "e.json", tmp / "t.json"
    argv = ["fit", str(data), f"--rho={rho}", "--out", str(out),
            *(str(trace) if arg == trace.name else arg for arg in RELEASE_MODES[mode])]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = exit_code(argv)
    assert code in (0, 1, 2) and "Traceback" not in stderr.getvalue()
    if code != 0:
        assert not out.exists() and not trace.exists()
        return
    docs = [json.loads(path.read_text(), parse_constant=_no_constant)
            for path in (out, trace) if path.exists()]
    assert docs[0]["rho_spent"] <= float(rho)


# Cells whose surrounding whitespace float() and np.loadtxt might strip
# differently: non-ASCII spaces, and the ASCII separators that str.strip()
# takes for whitespace and float() does not; and a comment, which loadtxt's
# default comments="#" would strip.
SPACED = st.tuples(st.sampled_from(["", " ", "\xa0", "\u2003", "\x1c", "\x0b"]), CELLS,
                   st.sampled_from(["", " ", "\xa0", "\x85", "\x1f", " # x"])).map("".join)


def _mostly(common, rare, odds=8):
    """common, except one draw in `odds` from rare."""
    return st.integers(0, odds - 1).flatmap(lambda i: rare if i == 0 else common)


@st.composite
def points_texts(draw):
    """The text of a points file: rows of one width, mostly of clean cells, and
    now and then a spaced or odd cell, a ragged or blank line, a trailing
    comma, a line end that is not one, or a BOM."""
    width = draw(st.integers(1, 3))
    cell = _mostly(st.floats(0.0, 1.0).map(repr), st.one_of(CELLS, SPACED), odds=16)
    end = _mostly(st.sampled_from(["\n", "\r\n", "\r"]), LINE_ENDS, odds=16)
    text = draw(_mostly(st.just(""), st.just("\ufeff")))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            line = draw(st.sampled_from(["", " ", "\t  "]))
        else:
            cells = draw(st.lists(cell, min_size=width, max_size=width + (kind == 1)))
            line = ",".join(cells) + ("," if kind == 2 else "")
        text += line + draw(end)
    return text


def _by_line_rules(path: str):
    """The points, or the message, of the line rules a points file is held
    to: blank lines are skipped; each cell is stripped and read by float(),
    except that an underscore or a character that is not ASCII is malformed
    (float() reads "0.2_5" as 0.25 and Arabic-Indic digits as their values);
    every row has the first row's width."""
    rows, width = [], None
    for lineno, raw in enumerate(cli._read_file(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [tok.strip() for tok in line.split(",")]
        try:
            if "_" in line or not all(map(str.isascii, cells)):
                raise ValueError
            row = [float(cell) for cell in cells]
        except ValueError:
            return f"{path}:{lineno}: malformed row {line!r}"
        width = width or len(row)
        if len(row) != width:
            return f"{path}:{lineno}: expected {width} columns, got {len(row)}"
        rows.append(row)
    if not rows:
        return f"{path}: no data rows"
    try:
        return as_points(rows)
    except ValueError as exc:
        return f"{path}: {exc}"


@settings(FUZZ, max_examples=100)
@given(points_texts())
@example(text="0.25,0.5\n0.5\x1c,0.75\n")
@example(text="0.5 # x\n0.25\n")
@example(text="\ufeff0.5\r\n\n0.25\r0.75\xa0\n")
@example(text="0.1,0.2\n0.4,0.5\n \n0.9,0.3")
def test_points_reader_follows_the_line_rules(tmp_path_factory, text):
    # _read_points gives the reference's points, to the bit, or its message,
    # and never warns
    path = tmp_path_factory.mktemp("read") / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _by_line_rules(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = cli._read_points(str(path))
        except ValueError as exc:
            got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
