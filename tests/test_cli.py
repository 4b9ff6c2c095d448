"""End-to-end tests of the command-line interface, run in process through
main(argv). Success paths check output files and exit code 0; error paths
check exit codes 1 (runtime) and 2 (usage) and the message text.
"""

import json
import math
import time

import numpy as np
import pytest

from privdens import cli, densities
from privdens.adaptive import PenaltyConfig, lepskii_select, penalized_bias_select
from privdens.cli import main
from privdens.densities import density_from_json_dict
from privdens.estimator import ProjectionEstimate, fit, optimal_cutoff_adaptive_form
from privdens.experiments import ExperimentConfig, run_adaptivity_experiment, run_rate_experiment
from privdens.fourier import CoefficientGrid


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_single_point(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "0.5\n")
    out = tmp_path / "est.json"
    assert main(["fit", data, "--M", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    est = ProjectionEstimate.from_json_dict(doc)
    assert est.cutoff == 1 and est.n == 1 and est.sigma == 0.0
    # phi_k(0.5) = e^{i pi k}, so the conjugate empirical coefficients are
    # exactly (-1, 1, -1)
    assert np.allclose(est.coefficients.values, [-1.0, 1.0, -1.0], atol=1e-15)
    text = capsys.readouterr().out
    assert "budget ledger" in text and "no privacy mechanism" in text


def test_fit_deterministic_bytes(tmp_path):
    rows = "\n".join(f"{x:.6f}" for x in np.random.default_rng(0).random(50))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fit", data, "--M", "3", "--rho", "1.0", "--seed", "9",
                 "--out", str(out1)]) == 0
    assert main(["fit", data, "--M", "3", "--rho", "1.0", "--seed", "9",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fit_records_sigma(tmp_path):
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(1).random(1000))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    out = tmp_path / "est.json"
    assert main(["fit", data, "--rho", "1.0", "--M", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # sigma = 2 sqrt((2M+1)^d) / (n sqrt(rho)) = 2 sqrt(15) / 1000
    assert doc["sigma"] == pytest.approx(2.0 * math.sqrt(15.0) / 1000.0, rel=1e-12)
    assert doc["sigma"] == pytest.approx(0.0077460, rel=1e-4)
    assert doc["rho_spent"] == 1.0


def test_fit_beta_cutoff_without_privacy(tmp_path):
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(2).random(1024))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    out = tmp_path / "est.json"
    assert main(["fit", data, "--beta", "1.0", "--out", str(out)]) == 0
    est = ProjectionEstimate.from_json_dict(json.loads(out.read_text()))
    # floor(1024^(1/3)) = 10
    assert est.cutoff == 10 and est.sigma == 0.0


@pytest.mark.parametrize("beta, rho", [("-0.5", None), ("0", None), ("-3", None), ("0", "1")])
def test_fit_beta_must_be_positive_with_or_without_privacy(tmp_path, capsys, beta, rho):
    data = _write(tmp_path / "pts.csv", "0.1\n0.4\n0.6\n0.9\n")
    out = tmp_path / "est.json"
    argv = ["fit", data, f"--beta={beta}", "--out", str(out)] + (["--rho", rho] if rho else [])
    assert main(argv) == 1
    assert "error: beta must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name, value", [
    (["generate-density", "--kind", "trig", "--beta", "inf"], "beta", "inf"),
    (["generate-density", "--kind", "packing", "--beta", "inf"], "beta", "inf"),
    (["generate-density", "--kind", "trig", "--beta", "nan"], "beta", "nan"),
    (["generate-density", "--kind", "packing", "--beta", "nan"], "beta", "nan"),
    (["generate-density", "--kind", "trig", "--L", "nan"], "L", "nan"),
    (["generate-density", "--kind", "packing", "--L", "nan"], "L", "nan"),
    (["generate-density", "--kind", "packing", "--L", "inf"], "L", "inf"),
    (["fit", "pts.csv", "--rho", "1", "--beta", "nan"], "beta", "nan"),
    (["fit", "pts.csv", "--beta", "inf"], "beta", "inf"),
    (["rate-table", "--n", "100", "--rho", "1", "--beta", "nan"], "beta", "nan"),
    (["rate-table", "--n", "100", "--rho", "1", "--beta", "inf"], "beta", "inf"),
])
def test_non_finite_beta_and_L_flags_rejected(tmp_path, monkeypatch, capsys, argv, name, value):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "pts.csv", "0.1\n0.4\n0.6\n0.9\n")
    out = [] if argv[0] == "rate-table" else ["--out", "out.json"]
    assert main(argv + out) == 1
    assert f"error: {name} must be a finite number, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_fit_adaptive_writes_trace_and_ledger(tmp_path, capsys):
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(3).random(300))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    out, trace = tmp_path / "est.json", tmp_path / "trace.json"
    code = main(["fit", data, "--adaptive", "lepskii", "--rho", "2.0",
                 "--seed", "4", "--out", str(out), "--trace", str(trace)])
    assert code == 0
    tdoc = json.loads(trace.read_text())
    assert tdoc["method"] == "lepskii" and "candidates" not in tdoc
    edoc = json.loads(out.read_text())
    assert edoc["rho_spent"] <= 2.0 + 1e-12
    text = capsys.readouterr().out
    assert "selected M=" in text and "total spent" in text


def test_fit_lepskii_large_eps_stays_within_budget(tmp_path, capsys):
    # eps = 50 > (log 100)^2 clamps the grid to one candidate, charged rho itself
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(5).random(100))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    out = tmp_path / "est.json"
    assert main(["fit", data, "--rho", "1", "--adaptive", "lepskii", "--eps", "50",
                 "--seed", "6", "--out", str(out)]) == 0
    spent = float(capsys.readouterr().out.split("total spent: ")[1].split()[0])
    assert spent <= 1.0 + 1e-12
    assert json.loads(out.read_text())["rho_spent"] <= 1.0 + 1e-12


def test_fit_malformed_row_names_line(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "0.5\nnot-a-number\n0.25\n")
    code = main(["fit", data, "--M", "1", "--out", str(tmp_path / "e.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "malformed" in err


def test_fit_malformed_last_row_of_a_large_file_names_its_line(tmp_path, capsys):
    # a refused file is parsed again line by line, down to its last line
    rows = "".join(f"{x:.17g}\n" for x in np.random.default_rng(0).random(2**14 - 1))
    data = _write(tmp_path / "pts.csv", rows + "0.5,\n")
    assert main(["fit", data, "--M", "1", "--out", str(tmp_path / "e.json")]) == 1
    assert capsys.readouterr().err == f"error: {data}:16384: malformed row '0.5,'\n"
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("text", ["0.2_5\n0.3\n", "\u0660.\u0665\n0.3\n", "0.3,1_0\n"],
                         ids=["underscore", "arabic-indic-digits", "underscore-second-cell"])
def test_fit_refuses_what_float_alone_would_read(tmp_path, capsys, text):
    # float() reads "0.2_5" as 0.25 and Arabic-Indic digits as their values;
    # a points file holds ASCII decimal floats only
    data = _write(tmp_path / "pts.csv", text)
    assert main(["fit", data, "--M", "1", "--out", str(tmp_path / "e.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data}:1: malformed row")
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("name, content, argv, reason", [
    ("pts.csv", b"0.5\xff\n", ["fit", "{}", "--M", "1", "--out", "e.json"],
     "'utf-8' codec can't decode byte 0xff in position 3"),
    ("t.json", b'{"kind": ', ["sample", "{}", "--n", "3", "--out", "s.csv"],
     "Expecting value: line 1 column 10 (char 9)"),
    ("cfg.json", b'{"kind": ', ["experiment", "{}", "--out-dir", "runs"],
     "Expecting value: line 1 column 10 (char 9)"),
    ("deep.json", b"[" * 10**5 + b"]" * 10**5, ["sample", "{}", "--n", "3", "--out", "s.csv"],
     "maximum recursion depth exceeded"),
], ids=["fit-not-utf8", "sample-not-json", "experiment-not-json", "sample-json-too-deep"])
def test_unreadable_input_file_is_named(tmp_path, capsys, name, content, argv, reason):
    path = tmp_path / name
    path.write_bytes(content)
    assert main([str(path) if a == "{}" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {reason}") and "Traceback" not in err


def test_fit_line_ends_are_universal_newlines_only(tmp_path, capsys):
    # \r\n and a lone \r end a line as \n does; \x85 and a form feed do not
    out = [tmp_path / f"{i}.json" for i in range(3)]
    for text, est in (("0.1\n0.4\n", out[0]), ("0.1\r\n0.4\r\n", out[1]), ("0.1\r0.4", out[2])):
        assert main(["fit", _write(tmp_path / "p.csv", text), "--M", "2", "--out", str(est)]) == 0
    assert out[0].read_bytes() == out[1].read_bytes() == out[2].read_bytes()
    for sep in ("\x85", "\x0c"):
        data = _write(tmp_path / "p.csv", f"0.1{sep}0.4\n")
        assert main(["fit", data, "--M", "2", "--out", str(tmp_path / "e.json")]) == 1
        assert ":1: malformed row" in capsys.readouterr().err


def test_fit_out_of_range_coordinate(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "0.5\n1.5\n")
    assert main(["fit", data, "--M", "1", "--out", str(tmp_path / "e.json")]) == 1
    assert "[0,1]" in capsys.readouterr().err


def test_fit_ragged_columns_rejected(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "0.5,0.5\n0.25\n")
    assert main(["fit", data, "--M", "1", "--out", str(tmp_path / "e.json")]) == 1
    assert ":2:" in capsys.readouterr().err


def test_fit_empty_file_has_no_data_rows(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "\n  \n")
    assert main(["fit", data, "--M", "1", "--out", str(tmp_path / "e.json")]) == 1
    assert f"{data}: no data rows" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_fit_skips_blank_lines(tmp_path):
    # blank and whitespace-only lines change no estimate, in d = 1 and d = 2
    for plain, gappy in (("0.1\n0.4\n0.9\n", "\n0.1\n\n  \n0.4\n0.9\n\n"),
                         ("0.1,0.2\n0.4,0.5\n\n0.9,0.3\n", "0.1,0.2\n0.4,0.5\n \n0.9,0.3")):
        for name, text in (("a", plain), ("b", gappy)):
            data = _write(tmp_path / f"{name}.csv", text)
            out = str(tmp_path / f"{name}.json")
            assert main(["fit", data, "--M", "2", "--rho", "1", "--out", out]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_fit_reads_clean_files_without_the_line_parser(tmp_path, monkeypatch):
    # one np.loadtxt call reads a clean file, whitespace-only lines included;
    # only a refused file is read again line by line to name the bad line
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    for name, text in (("a", "0.1,0.2\n0.4,0.5\n\n0.9,0.3\n"),
                       ("b", "0.1,0.2\n0.4,0.5\n \n0.9,0.3")):
        data = _write(tmp_path / f"{name}.csv", text)
        assert main(["fit", data, "--M", "2", "--out", str(tmp_path / f"{name}.json")]) == 0
    assert calls == [1, 1]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    data = _write(tmp_path / "c.csv", "0.1,0.2\n0.4,x\n")
    assert main(["fit", data, "--M", "2", "--out", str(tmp_path / "c.json")]) == 1
    assert len(calls) == 2 + 1 + 2


def test_fit_oversized_cutoff_refused(tmp_path, capsys):
    # (2M+1)^d is checked against the size cap before anything is allocated
    data = _write(tmp_path / "pts.csv", "0.5\n")
    assert main(["fit", data, "--M", str(10**12), "--out", str(tmp_path / "e.json")]) == 1
    err = capsys.readouterr().err
    assert "2000000000001 coefficients" in err and "Traceback" not in err
    assert not (tmp_path / "e.json").exists()


def test_fit_usage_errors(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "0.5\n")
    # no cut-off choice at all
    assert main(["fit", data, "--out", str(tmp_path / "e.json")]) == 2
    assert "usage error" in capsys.readouterr().err
    # adaptive selection without a budget
    assert main(["fit", data, "--adaptive", "lepskii",
                 "--out", str(tmp_path / "e.json")]) == 2
    assert "--rho" in capsys.readouterr().err
    # a trace without an adaptive selection would be silently dropped
    assert main(["fit", data, "--M", "1", "--rho", "1", "--trace", str(tmp_path / "t.json"),
                 "--out", str(tmp_path / "e.json")]) == 2
    assert "usage error: --trace requires --adaptive" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "t.json").exists()
    # --M, --beta and --adaptive each choose the cut-off; only one may be given
    for flags in (["--M", "3", "--beta", "2"], ["--M", "3", "--adaptive", "penalized-bias"],
                  ["--beta", "2", "--adaptive", "lepskii"]):
        with pytest.raises(SystemExit) as exc:
            main(["fit", data, "--rho", "1", *flags, "--out", str(tmp_path / "e.json")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_fit_usage_errors_come_before_the_points_file_is_read(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "0.5\nnot-a-number\n")
    out = tmp_path / "e.json"
    for flags, message in (([], "choose a cut-off"),
                           (["--adaptive", "lepskii"], "--adaptive requires --rho"),
                           (["--M", "2", "--eps", "0.1"], "require --adaptive lepskii")):
        assert main(["fit", data, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err and "not-a-number" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv"]


_LEPSKII_FLAGS = "--constants-mode, --C, --a, --eps and --L require --adaptive lepskii"


@pytest.mark.parametrize("flags", [["--M", "3", "--C", "5"],
                                   ["--beta", "1.5", "--constants-mode", "practical"],
                                   ["--adaptive", "penalized-bias", "--eps", "0.1"]],
                         ids=["M", "beta", "penalized-bias"])
def test_fit_refuses_lepskii_constants_it_would_ignore(tmp_path, capsys, flags):
    data = _write(tmp_path / "pts.csv", "0.5\n0.25\n0.75\n")
    out = tmp_path / "e.json"
    assert main(["fit", data, "--rho", "1", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {_LEPSKII_FLAGS}\n"
    assert not out.exists()


def test_fit_parser_holds_no_lepskii_constant_unless_given():
    parser = cli.build_parser()
    args = parser.parse_args(["fit", "p.csv", "--adaptive", "lepskii", "--out", "e.json"])
    assert not {"mode", "C", "a", "eps", "L"} & set(vars(args))
    args = parser.parse_args(["fit", "p.csv", "--adaptive", "lepskii", "--out", "e.json",
                              "--constants-mode", "theory", "--a", "2"])
    assert {k: v for k, v in vars(args).items() if k in ("mode", "C", "a", "eps", "L")} == {
        "mode": "theory", "a": 2.0}


def test_fit_lepskii_without_constant_flags_records_the_defaults(tmp_path):
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(5).random(100))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    trace = tmp_path / "trace.json"
    assert main(["fit", data, "--rho", "1", "--adaptive", "lepskii", "--out",
                 str(tmp_path / "est.json"), "--trace", str(trace)]) == 0
    assert json.loads(trace.read_text())["constants"] == {
        "mode": "practical", "C": 1.0, "a": 1.0, "eps": 0.5, "L": 2.0}


def test_fit_lepskii_theory_mode_refuses_a_below_one(tmp_path, capsys):
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(5).random(100))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    out = tmp_path / "est.json"
    assert main(["fit", data, "--rho", "1", "--adaptive", "lepskii", "--constants-mode",
                 "theory", "--a", "0.5", "--out", str(out)]) == 1
    assert "error: theory mode requires a >= 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_uniform_deterministic(tmp_path):
    dens = tmp_path / "u.json"
    assert main(["generate-density", "--kind", "uniform", "--d", "1",
                 "--out", str(dens)]) == 0
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sample", str(dens), "--n", "3", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["sample", str(dens), "--n", "3", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().splitlines()
    assert len(rows) == 3
    raw = np.random.default_rng(7).random((3, 1))
    assert np.allclose([float(r) for r in rows], raw[:, 0], rtol=0, atol=1e-16)


def test_sample_from_noisy_estimate(tmp_path):
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(5).random(400))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    est = tmp_path / "est.json"
    assert main(["fit", data, "--M", "2", "--rho", "0.5", "--seed", "1",
                 "--out", str(est)]) == 0
    out = tmp_path / "resampled.csv"
    assert main(["sample", str(est), "--n", "50", "--seed", "2",
                 "--out", str(out)]) == 0
    pts = np.array([float(r) for r in out.read_text().strip().splitlines()])
    assert len(pts) == 50 and pts.min() >= 0.0 and pts.max() <= 1.0


def test_sample_degenerate_estimate_rejected(tmp_path, capsys):
    est = ProjectionEstimate(
        CoefficientGrid(1, 0, np.array([-1.0 + 0.0j])), n=10
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(est.to_json_dict()), encoding="utf-8")
    assert main(["sample", str(path), "--n", "5", "--out",
                 str(tmp_path / "s.csv")]) == 1
    assert "degenerate" in capsys.readouterr().err


def test_sample_non_integer_dimension_rejected(tmp_path, capsys):
    # a density file is type-checked, not coerced: d = 2.7 is not read as 2
    dens = _write(tmp_path / "u.json", json.dumps({"kind": "uniform", "d": 2.7}))
    assert main(["sample", dens, "--n", "5", "--out", str(tmp_path / "s.csv")]) == 1
    assert "'d' must be an integer, got 2.7" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("key,bad", [("n", 0), ("sigma", -1.0), ("sigma", math.inf),
                                     ("rho_spent", -2.0), ("rho_spent", 0.0)])
def test_sample_estimate_out_of_range_rejected(tmp_path, capsys, key, bad):
    # an estimate file cannot claim no data, a negative noise scale or a
    # negative privacy spend
    doc = {"d": 1, "M": 0, "re": [1.0], "im": [0.0], "n": 100, "sigma": 0.5, "rho_spent": 1.0}
    est = _write(tmp_path / "est.json", json.dumps({**doc, key: bad}))
    assert main(["sample", est, "--n", "5", "--out", str(tmp_path / "s.csv")]) == 1
    assert f"{key!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sample_estimate_whose_mass_overflows_refused(tmp_path, capsys):
    # sum |theta_k| is finite, but the clipped lattice mass overflows
    doc = {"d": 1, "M": 0, "re": [1e308], "im": [0], "n": 5, "sigma": 0, "rho_spent": None}
    est = _write(tmp_path / "est.json", json.dumps(doc))
    out = tmp_path / "s.csv"
    assert main(["sample", est, "--n", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "lattice mass inf is not in [1e-3, inf)" in err and "Traceback" not in err
    assert not out.exists()


def test_sample_estimate_whose_real_part_cancels(tmp_path, capsys):
    # theta_-1 = 1e300 and theta_1 = -1e300 cancel in Re f: the bound on the
    # real part is |theta_0| = 0.01, where sum |theta_k| would be 2e300 and
    # every round of 2^20 proposals would accept almost nothing
    doc = {"d": 1, "M": 1, "re": [1e300, 0.01, -1e300], "im": [0, 0, 0], "n": 5, "sigma": 0,
           "rho_spent": None}
    est = _write(tmp_path / "est.json", json.dumps(doc))
    out = tmp_path / "s.csv"
    start = time.perf_counter()
    assert main(["sample", est, "--n", "3", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    assert "bound 0.01)" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("re,im,fragment", [
    ([1e308], [0], "theta_0 = 1, got (1e+308+0j)"),
    ([0.5, 2, 0.5], [0, 0, 0], "theta_0 = 1, got (2+0j)"),
    ([0.3, 1, 0.9], [0.2, 0, 0], "must be Hermitian"),
    ([1e308, 1, 1e308], [0, 0, 0], "finite sum |theta_k|"),
])
def test_sample_trig_document_must_be_a_density(tmp_path, capsys, re, im, fragment):
    # a trig document is exactly Hermitian with theta_0 = 1 and a finite
    # sum |theta_k|, or it is refused with a message and no warning
    grid = {"d": 1, "M": (len(re) - 1) // 2, "re": re, "im": im}
    doc = {"kind": "trig", "beta": 1, "L": 2, "min_value": 0.5, "coefficients": grid}
    dens = _write(tmp_path / "t.json", json.dumps(doc))
    out = tmp_path / "s.csv"
    assert main(["sample", dens, "--n", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 2**14])
def test_write_points_keeps_the_bytes_of_one_format_per_float(tmp_path, d, n):
    pts = np.random.default_rng(n + d).random((n, d))
    pts.ravel()[:3] = [0.0, 1.0, 1e-300][: pts.size]
    cli._write_points(str(tmp_path / "p.csv"), pts)
    lines = [",".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(pts)]
    assert (tmp_path / "p.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_sample_oversized_request_refused(tmp_path, capsys):
    # 10 points in d = 2^40 would be 80 TiB of coordinates
    dens = _write(tmp_path / "u.json", json.dumps({"kind": "uniform", "d": 2**40}))
    out = tmp_path / "s.csv"
    assert main(["sample", dens, "--n", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "more than the 16777216 this package samples" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_huge_dimension_refused_without_huge_powers(tmp_path, capsys):
    # 3^(10^6) has 477k digits; the cap refuses it without computing it
    out = tmp_path / "t.json"
    assert main(["generate-density", "--kind", "trig", "--d", "1000000", "--M-truth", "1",
                 "--out", str(out)]) == 1
    assert "needs (2M+1)^d = inf coefficients" in capsys.readouterr().err


def test_generate_oversized_density_refused(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["generate-density", "--kind", "trig", "--d", "5", "--M-truth", "300",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "(2M+1)^d" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_oversized_packing_refused(tmp_path, capsys):
    # m^d is checked against the packing cap before any bit is drawn
    out = tmp_path / "d.json"
    assert main(["generate-density", "--kind", "packing", "--m", "100000", "--d", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "1000000000000000 bumps" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_oversized_lattice_refused(tmp_path, capsys):
    # a d = 8 trig fixture certifies positivity on 32^8 lattice points: refused
    out = tmp_path / "d.json"
    assert main(["generate-density", "--kind", "trig", "--d", "8", "--M-truth", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "midpoint lattice" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("d", ["0", "-1"])
def test_generate_packing_nonpositive_dimension_rejected(tmp_path, capsys, d):
    out = tmp_path / "d.json"
    assert main(["generate-density", "--kind", "packing", "--d", d, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "d must be an integer >= 1, got" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_packing_dimension_past_the_bound_refused(tmp_path, capsys):
    # m = 1 keeps m^d = 1 under the bump cap; gamma(d/2) would overflow at d = 400
    out = tmp_path / "p.json"
    assert main(["generate-density", "--kind", "packing", "--m", "1", "--d", "400", "--beta", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "packing dimension d = 400 is above 20" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_packing_theta_of_wrong_length_is_usage_error(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["generate-density", "--kind", "packing", "--m", "2", "--theta", "101",
                 "--out", str(out)]) == 2
    assert "usage error: --theta must be a string of 2 bits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, fragment", [
    (["--kind", "trig", "--beta", "1e308"], "beta must be below 194, got 1e+308"),
    (["--kind", "trig", "--d", "3", "--M-truth", "2", "--beta", "3000"],
     "beta must be below 194, got 3000.0"),
    (["--kind", "packing", "--L", "1e308"], "L = 1e+308 overflows the bump amplitude"),
])
def test_generate_overflowing_beta_or_L_refused_at_once(tmp_path, capsys, flags, fragment):
    out = tmp_path / "d.json"
    assert main(["generate-density", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not out.exists()


def test_generate_sample_fit_roundtrip(tmp_path):
    dens = tmp_path / "truth.json"
    assert main(["generate-density", "--kind", "trig", "--beta", "2.0",
                 "--M-truth", "6", "--seed", "21", "--out", str(dens)]) == 0
    truth = density_from_json_dict(json.loads(dens.read_text()))
    n = 100_000
    pts = tmp_path / "pts.csv"
    assert main(["sample", str(dens), "--n", str(n), "--seed", "22",
                 "--out", str(pts)]) == 0
    est_path = tmp_path / "est.json"
    assert main(["fit", str(pts), "--M", "6", "--out", str(est_path)]) == 0
    est = ProjectionEstimate.from_json_dict(json.loads(est_path.read_text()))
    err = np.abs(est.coefficients.values - truth.coefficients.values)
    assert err.max() <= 4.0 / math.sqrt(n)


def test_generate_packing_density(tmp_path):
    dens = tmp_path / "pack.json"
    assert main(["generate-density", "--kind", "packing", "--m", "4",
                 "--beta", "1.0", "--theta", "1010", "--out", str(dens)]) == 0
    doc = json.loads(dens.read_text())
    assert doc["kind"] == "packing"
    back = density_from_json_dict(doc)
    assert list(back.theta) == [1, 0, 1, 0]


@pytest.mark.parametrize("flag, field", [("--C", "C"), ("--a", "a"), ("--eps", "eps"),
                                         ("--L", "L")])
def test_fit_lepskii_non_finite_constant_rejected(tmp_path, capsys, flag, field):
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(5).random(100))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    out = tmp_path / "est.json"
    assert main(["fit", data, "--rho", "1", "--adaptive", "lepskii", flag, "nan",
                 "--out", str(out)]) == 1
    assert f"error: {field} must be a finite number, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_fit_lepskii_tiny_eps_refused(tmp_path, capsys):
    # (log 100)^2 / 1e-310 overflows to inf candidates
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(5).random(100))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    assert main(["fit", data, "--rho", "1", "--adaptive", "lepskii", "--eps", "1e-310",
                 "--out", str(tmp_path / "est.json")]) == 1
    assert "Lepskii candidates this package releases" in capsys.readouterr().err


def test_fit_lepskii_huge_exponent_accepts_first_candidate(tmp_path, capsys):
    # (log 100)^544 overflows a float: the threshold is infinite, so the rule
    # accepts candidate 0
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(5).random(100))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    trace = tmp_path / "trace.json"
    assert main(["fit", data, "--rho", "1", "--adaptive", "lepskii", "--a", "544",
                 "--out", str(tmp_path / "est.json"), "--trace", str(trace)]) == 0
    assert json.loads(trace.read_text())["selected_index"] == 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_minimal_config(tmp_path):
    dens = tmp_path / "truth.json"
    assert main(["generate-density", "--kind", "trig", "--beta", "1.0",
                 "--M-truth", "3", "--seed", "5", "--out", str(dens)]) == 0
    cfg = {
        "density": json.loads(dens.read_text()),
        "n": 128,
        "rho": 1.0,
        "mode": "oracle",
        "beta": 1.0,
        "replicates": 1,
        "seed": 0,
        "d": 1,
    }
    cfg_path = _write(tmp_path / "cfg.json", json.dumps(cfg))
    out_dir = tmp_path / "runs"
    assert main(["experiment", cfg_path, "--out-dir", str(out_dir)]) == 0
    csv_lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 2  # header + one data row
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["sweep"]["slope"] is None
    assert len(summary["sweep"]["cells"]) == 1


def test_experiment_unknown_key_rejected(tmp_path, capsys):
    cfg_path = _write(tmp_path / "cfg.json", json.dumps({"zap": 1}))
    assert main(["experiment", cfg_path, "--out-dir", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "zap" in err


def test_experiment_refuses_the_retired_timing_key(tmp_path, capsys):
    # sweep CSVs hold no timing, so the key that zeroed one is unknown
    cfg = {"density": {"kind": "uniform", "d": 1}, "n": 64, "rho": 1.0, "mode": "oracle",
           "beta": 1.0, "replicates": 1, "seed": 0, "d": 1, "deterministic_timings": True}
    cfg_path = _write(tmp_path / "cfg.json", json.dumps(cfg))
    out_dir = tmp_path / "runs"
    assert main(["experiment", cfg_path, "--out-dir", str(out_dir)]) == 1
    assert "unknown key 'deterministic_timings'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_experiment_sweeps_list_rejected(tmp_path, capsys):
    # 'sweeps' maps names to configs; a list is an error, not a traceback
    doc = {"sweeps": [{"density": {"kind": "uniform", "d": 1}}]}
    cfg_path = _write(tmp_path / "cfg.json", json.dumps(doc))
    assert main(["experiment", cfg_path, "--out-dir", str(tmp_path / "r")]) == 1
    assert "'sweeps' must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("second, fragment", [
    ({"mode": "lepskii"}, "sweep 'b': adaptivity experiments need 'beta'"),
    ({"mode": "oracle", "beta": 1.0, "constants": {"eps": -1}}, "eps must be > 0"),
])
def test_experiment_checks_every_sweep_before_running_any(tmp_path, capsys, second, fragment):
    common = {"density": {"kind": "uniform", "d": 1}, "n": 64, "rho": 1.0, "replicates": 1,
              "seed": 0, "d": 1}
    doc = {"sweeps": {"a": {**common, "mode": "oracle", "beta": 1.0}, "b": {**common, **second}}}
    cfg_path = _write(tmp_path / "cfg.json", json.dumps(doc))
    out_dir = tmp_path / "runs"
    assert main(["experiment", cfg_path, "--out-dir", str(out_dir)]) == 1
    assert fragment in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_experiment_packing_with_infinite_beta_rejected(tmp_path, capsys):
    density = {"kind": "packing", "d": 1, "m": 2, "beta": math.inf, "L": 2.0, "theta": [1, 0]}
    cfg = {"density": density, "n": 64, "rho": 1.0, "mode": "oracle", "beta": 1.0,
           "replicates": 1, "seed": 0, "d": 1}
    cfg_path = _write(tmp_path / "cfg.json", json.dumps(cfg))  # writes Infinity
    out_dir = tmp_path / "runs"
    assert main(["experiment", cfg_path, "--out-dir", str(out_dir)]) == 1
    assert "bad density spec: 'beta' must be a finite number, got inf" in capsys.readouterr().err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# rate-table and print-config
# ---------------------------------------------------------------------------


def test_rate_table_stdout(capsys):
    assert main(["rate-table", "--n", "1000", "--rho", "0.1", "--beta",
                 "1.0", "--d", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,rho,beta,d,rate,regime"
    cols = lines[1].split(",")
    expected = max(1000.0 ** (-2.0 / 3.0), (1000.0 * math.sqrt(0.1)) ** (-1.0))
    assert float(cols[4]) == pytest.approx(expected, rel=1e-12)
    assert cols[5] in ("sampling", "privacy")


def test_rate_table_grid_size(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rate-table", "--n", "100", "1000", "--rho", "0.1", "1.0",
                 "--beta", "1.0", "2.0", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 8


def test_print_config_is_valid(capsys):
    assert main(["print-config"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.mode == "oracle"
    # a template to edit by hand keeps its indented layout
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# JSON files: one line of compact JSON with sorted keys
# ---------------------------------------------------------------------------


def _bit_same(a, b) -> bool:
    """a == b, with every float compared bit for bit (-0.0, inf and NaN too)
    and integer keys as JSON writes them, as strings."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and float(a).hex() == float(b).hex()
    if isinstance(a, dict) and isinstance(b, dict):
        a, b = ({str(k) if isinstance(k, int) else k: v for k, v in x.items()} for x in (a, b))
        return a.keys() == b.keys() and all(_bit_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_bit_same, a, b))
    return type(a) is type(b) and a == b


def _check_json_file(path, obj, load=None):
    """path holds obj as one line of compact sorted-key JSON and a newline,
    it parses back to obj with floats bit for bit, and load(document) gives
    the document back."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    doc = json.loads(text)
    assert _bit_same(doc, obj)
    if load is not None:
        assert _bit_same(load(doc).to_json_dict(), doc)
    return text


_FIT_RUNS = {
    "fixed": (["--M", "3", "--rho", "1"], lambda x, rng: (fit(x, 3, 1.0, rng), None)),
    "tuned": (["--beta", "1.5", "--rho", "0.5"], lambda x, rng: (
        fit(x, optimal_cutoff_adaptive_form(len(x), 0.5, 1.5, 1), 0.5, rng), None)),
    "lepskii": (["--adaptive", "lepskii", "--rho", "2"],
                lambda x, rng: lepskii_select(x, 2.0, PenaltyConfig(), rng)),
    # (log 300)^544 overflows: every threshold is written as Infinity
    "lepskii-huge-a": (["--adaptive", "lepskii", "--rho", "1", "--a", "544"],
                       lambda x, rng: lepskii_select(x, 1.0, PenaltyConfig(a=544.0), rng)),
    "penalized-bias": (["--adaptive", "penalized-bias", "--rho", "1"],
                       lambda x, rng: penalized_bias_select(x, 1.0, None, rng)),
}


@pytest.mark.parametrize("name", list(_FIT_RUNS))
def test_fit_writes_compact_json(tmp_path, name):
    flags, run = _FIT_RUNS[name]
    rows = "\n".join(f"{x:.8f}" for x in np.random.default_rng(8).random(300))
    data = _write(tmp_path / "pts.csv", rows + "\n")
    est, trace = run(cli._read_points(data), np.random.default_rng(12))
    written = []
    for rerun in "ab":
        out, trace_out = tmp_path / f"est_{rerun}.json", tmp_path / f"trace_{rerun}.json"
        with_trace = ["--trace", str(trace_out)] if trace is not None else []
        assert main(["fit", data, *flags, "--seed", "12", "--out", str(out), *with_trace]) == 0
        texts = [_check_json_file(out, est.to_json_dict(), ProjectionEstimate.from_json_dict)]
        if trace is not None:
            texts.append(_check_json_file(trace_out, trace.to_json_dict()))
        written.append(texts)
    assert written[0] == written[1]  # a rerun writes the same bytes
    if name == "lepskii-huge-a":
        assert set(json.loads(written[0][1])["thresholds"]) == {math.inf}
        assert '"thresholds":[Infinity,' in written[0][1]


_DENSITIES = {
    "uniform-d2": (["--kind", "uniform", "--d", "2"], lambda: densities.TrigDensity.uniform(2)),
    "trig-d1": (["--kind", "trig", "--beta", "1.5", "--M-truth", "6", "--seed", "3"],
                lambda: densities.make_trig_density(1.5, 2.0, 6, d=1, rng=3)),
    "trig-d2": (["--kind", "trig", "--d", "2", "--beta", "2", "--M-truth", "3", "--seed", "4"],
                lambda: densities.make_trig_density(2.0, 2.0, 3, d=2, rng=4)),
    "packing-d2": (["--kind", "packing", "--d", "2", "--m", "2", "--beta", "1",
                    "--theta", "0110", "--floor-half"],
                   lambda: densities.make_packing_density([0, 1, 1, 0], 2, 1.0, d=2,
                                                          floor_half=True)),
}


@pytest.mark.parametrize("name", list(_DENSITIES))
def test_generate_density_writes_compact_json(tmp_path, name):
    flags, make = _DENSITIES[name]
    texts = []
    for rerun in "ab":
        out = tmp_path / f"{rerun}.json"
        assert main(["generate-density", *flags, "--out", str(out)]) == 0
        texts.append(_check_json_file(out, make().to_json_dict(), density_from_json_dict))
    assert texts[0] == texts[1]


def test_experiment_writes_compact_summary(tmp_path):
    truth = densities.make_trig_density(1.0, 2.0, 3, rng=5).to_json_dict()
    sweeps = {
        "oracle": {"density": truth, "n": [128, 256], "rho": 1.0, "mode": "oracle",
                   "beta": 1.0, "replicates": 2, "seed": 0, "d": 1},
        "lepskii": {"density": truth, "n": 256, "rho": 1.0, "mode": "lepskii",
                    "beta": 1.0, "replicates": 1, "seed": 1, "d": 1},
    }
    expected = {}
    for name, sweep in sweeps.items():
        cfg = ExperimentConfig.from_dict(sweep)
        run = run_rate_experiment if cfg.mode == "oracle" else run_adaptivity_experiment
        expected[name] = {**run(cfg).summary, "csv": f"{name}.csv"}
    cfg_path = _write(tmp_path / "cfg.json", json.dumps({"sweeps": sweeps}))
    texts = []
    for rerun in "ab":
        out_dir = tmp_path / rerun
        assert main(["experiment", cfg_path, "--out-dir", str(out_dir)]) == 0
        texts.append(_check_json_file(out_dir / "summary.json", expected))
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# parser-level usage errors
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
