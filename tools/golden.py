"""Write a fixed set of privdens outputs, and compare two such sets.

    python3 tools/golden.py OUTDIR
    python3 tools/golden.py --compare OLD NEW

Everything goes through the command line of the checkout this file sits in
(its `src/` is put first on PYTHONPATH), so the same script runs unchanged
on an older commit. Into OUTDIR it writes:

* `experiments/`: the CSVs and `summary.json` of the criterion 6, 7, 8 and
  9a sweeps, of d = 2 and d = 3 adaptivity sweeps in both modes (in d = 3
  the candidates' cut-offs lie below, at and above the truth's), of an
  oracle and a Lepskii sweep on a d = 2 packing (their MISEs are the
  lattice quadrature route) and of a Lepskii sweep with eps > (log n)^2
  (one candidate, at the capped budget rho / k_n), 2 replicates each
  (`privdens experiment`);
* a CLI round trip: four trig (one in d = 2, one in d = 3) and one packing
  `generate-density` fixtures, `sample`, `fit --M`, `fit --adaptive
  penalized-bias` and `fit --adaptive lepskii` with `--trace`, and `sample`
  from the released estimate; then `sample`, `fit --M` and `sample` on the
  d = 2 trig fixture, whose estimate's clipped mass is a d = 2 lattice sum,
  and on the d = 3 trig fixture, whose points go through the kernel's split
  middle coordinate;
* `rates.csv` from `rate-table`, and the default config of `print-config`;
* `stdout.txt`: what each command printed, run from inside OUTDIR with
  relative paths so that it does not depend on where OUTDIR is;
* `failures/NAME.txt`, one per malformed input file or flag set in FAILURES:
  the command, its exit code, the files it left behind and its stderr. Each
  case runs in a fresh temporary directory, and none aborts the script.

A behaviour-preserving change leaves `diff -r OLD NEW` empty when both
directories come from the same machine. It takes about 20-25 s on two cores.

A change of floating-point arithmetic, such as a new Fourier kernel, cannot
keep the bytes. `--compare OLD NEW` lists the byte-identical files and
passes each other file only if its text outside numbers is identical and
every pair of numbers satisfies |x - y| <= 1e-9 max(|x|, |y|) + 1e-12;
integers, such as a selected cut-off, must therefore match exactly. The
line of a failing JSON file also names the top-level keys whose parsed
values differ. A file under `failures/` that exists in NEW only is a
FAILURES case the newer checkout added: it is listed as "added" and does
not fail. It exits 1 if a file fails, exists in OLD only, or exists in NEW
only outside `failures/`.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REL_TOL, ABS_TOL = 1e-9, 1e-12
# a decimal number, as Python, json and the CSV writer print them
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf|NaN|Infinity)")

FIXTURES = {
    "beta1.json": ["--kind", "trig", "--beta", "1", "--L", "2", "--M-truth", "32", "--seed", "11"],
    "beta2.json": ["--kind", "trig", "--beta", "2", "--L", "2", "--M-truth", "20", "--seed", "7"],
    "trig_d2.json": ["--kind", "trig", "--d", "2", "--beta", "2", "--L", "2", "--M-truth", "8",
                     "--seed", "21"],
    "trig_d3.json": ["--kind", "trig", "--d", "3", "--beta", "2", "--L", "2", "--M-truth", "4",
                     "--seed", "31"],
    "packing_d2.json": ["--kind", "packing", "--d", "2", "--m", "4", "--beta", "1", "--seed", "41"],
}
# (sweep name, fixture, config); criteria 6 to 9a keep the seeds of tests/test_acceptance.py
SWEEPS = [
    ("criterion06", "beta1.json",
     {"n": [2**k for k in range(8, 16)], "rho": [10.0], "mode": "oracle", "seed": 60, "beta": 1.0}),
    ("criterion07", "beta1.json",
     {"n": [2**14], "rho": [2.0**-k for k in range(10, -1, -1)], "mode": "oracle", "seed": 70,
      "beta": 1.0}),
    ("criterion08", "beta2.json",
     {"n": [2**14], "rho": [1.0], "mode": "penalized-bias", "seed": 80, "beta": 2.0}),
    ("criterion09a", "beta2.json",
     {"n": [2**14], "rho": [1.0], "mode": "lepskii", "seed": 90, "beta": 2.0,
      "constants": {"mode": "practical", "C": 1.0, "a": 1.0, "eps": 0.5}}),
    ("d2_penalized", "trig_d2.json",
     {"n": [4096], "rho": [1.0], "mode": "penalized-bias", "seed": 21, "beta": 2.0}),
    ("d2_lepskii", "trig_d2.json",
     {"n": [4096], "rho": [1.0], "mode": "lepskii", "seed": 22, "beta": 2.0}),
    ("packing_d2", "packing_d2.json",
     {"n": [1024, 4096], "rho": [0.5, 4.0], "mode": "oracle", "seed": 42, "beta": 1.0}),
    ("lepskii_eps12", "beta1.json",
     {"n": [20], "rho": [0.06], "mode": "lepskii", "seed": 12, "beta": 0.5,
      "constants": {"eps": 12.0}}),
    # candidates below, at and above the truth's M_truth = 4 (grids 1..8 and 1..10)
    ("d3_penalized", "trig_d3.json",
     {"n": [16384], "rho": [1.0], "mode": "penalized-bias", "seed": 31, "beta": 2.0}),
    ("d3_lepskii", "trig_d3.json",
     {"n": [16384], "rho": [1.0], "mode": "lepskii", "seed": 32, "beta": 2.0}),
    # candidates scored by lattice quadrature, one at a time
    ("packing_d2_lepskii", "packing_d2.json",
     {"n": [4096], "rho": [1.0], "mode": "lepskii", "seed": 43, "beta": 1.0}),
]
ROUND_TRIP = [
    ["sample", "beta2.json", "--n", "16384", "--seed", "0", "--out", "points.csv"],
    ["fit", "points.csv", "--rho", "1", "--M", "6", "--out", "fixed.json"],
    ["fit", "points.csv", "--rho", "1", "--adaptive", "penalized-bias", "--seed", "1",
     "--out", "penalized.json", "--trace", "penalized_trace.json"],
    ["fit", "points.csv", "--rho", "1", "--adaptive", "lepskii", "--seed", "2",
     "--out", "lepskii.json", "--trace", "lepskii_trace.json"],
    ["sample", "fixed.json", "--n", "1000", "--seed", "3", "--out", "synthetic.csv"],
    ["sample", "trig_d2.json", "--n", "4096", "--seed", "4", "--out", "points_d2.csv"],
    ["fit", "points_d2.csv", "--rho", "1", "--M", "4", "--out", "fixed_d2.json"],
    ["sample", "fixed_d2.json", "--n", "1000", "--seed", "5", "--out", "synthetic_d2.csv"],
    ["sample", "trig_d3.json", "--n", "4096", "--seed", "6", "--out", "points_d3.csv"],
    ["fit", "points_d3.csv", "--rho", "1", "--M", "2", "--out", "fixed_d3.json"],
    ["sample", "fixed_d3.json", "--n", "1000", "--seed", "7", "--out", "synthetic_d3.csv"],
    ["rate-table", "--n", "100", "4096", "1000000", "--rho", "0.001", "1", "1000",
     "--beta", "0.5", "1", "2.5", "--d", "2", "--out", "rates.csv"],
    ["rate-table", "--n", "1000", "--rho", "0.01", "1", "--beta", "1", "2"],
    ["print-config"],
]


# A base sweep that is valid and fast (uniform truth, one small cell).
_OK = {"density": {"kind": "uniform", "d": 1}, "n": [64], "rho": [1.0], "mode": "oracle",
       "replicates": 1, "seed": 0, "d": 1, "beta": 1.0}
_POINTS = "".join(f"{(i * 0.6180339887498949) % 1:.17g}\n" for i in range(1, 101))
_WIDE = (",".join(["0.5"] * 600) + "\n") * 3  # 3 points in d = 600


def _config(**changes) -> str:
    return json.dumps({**_OK, **changes})


def _two_sweeps(**second) -> str:
    return json.dumps({"sweeps": {"a": _OK, "b": {**_OK, **second}}})


def _without(*keys) -> str:
    return json.dumps({k: v for k, v in _OK.items() if k not in keys})


def _trig(re: list, im: list) -> str:
    """A trig density document with the given coefficients, M = (len(re) - 1) / 2."""
    grid = {"d": 1, "M": (len(re) - 1) // 2, "re": re, "im": im}
    return json.dumps({"kind": "trig", "beta": 1, "L": 2, "min_value": 0.5, "coefficients": grid})


_LEPSKII = ["fit", "pts.csv", "--rho", "1", "--adaptive", "lepskii", "--out", "est.json"]
_SAMPLE_TRIG = ["sample", "t.json", "--n", "3", "--out", "s.csv"]
_EXPERIMENT = ["experiment", "cfg.json", "--out-dir", "runs"]
# (name, files written first, command): malformed files and flags, and inputs
# at the edge of a numeric bound, which may also succeed; the exit code is recorded.
FAILURES = [
    ("config_mode_bogus", {"cfg.json": _config(mode="bogus")}, _EXPERIMENT),
    ("config_dimension_mismatch", {"cfg.json": _config(density={"kind": "uniform", "d": 2})},
     _EXPERIMENT),
    ("config_replicates_zero", {"cfg.json": _config(replicates=0)}, _EXPERIMENT),
    ("config_cutoff_form_typo", {"cfg.json": _config(cutoff_form="thm-typo")}, _EXPERIMENT),
    ("config_missing_mode", {"cfg.json": _without("mode")}, _EXPERIMENT),
    ("config_missing_mode_and_beta", {"cfg.json": _without("mode", "beta")}, _EXPERIMENT),
    ("config_missing_everything", {"cfg.json": "{}"}, _EXPERIMENT),
    ("config_wrong_types", {"cfg.json": _config(
        n=[300.7, "abc"], rho=True, replicates=2.9, seed=1.5, d=True, beta=True, grid=[1, 2.5],
        time_limit_s="1", deterministic_timings=0, constants=[1])}, _EXPERIMENT),
    ("config_bad_scalars", {"cfg.json": _config(n="abc", rho=None, mode=["oracle"])},
     _EXPERIMENT),
    ("config_empty_lists", {"cfg.json": _config(n=[], rho=[], grid=[])}, _EXPERIMENT),
    ("config_out_of_range", {"cfg.json": _config(n=[2], rho=[-1.0], beta=0, grid=[-1],
                                                time_limit_s=0)}, _EXPERIMENT),
    ("config_unknown_keys", {"cfg.json": _config(typo=1, constants={"zeta": 1})}, _EXPERIMENT),
    ("config_bad_density", {"cfg.json": _config(density={"kind": "trig"})}, _EXPERIMENT),
    ("config_not_object", {"cfg.json": "[1, 2]"}, _EXPERIMENT),
    ("config_sweeps_list", {"cfg.json": json.dumps({"sweeps": [_OK]})}, _EXPERIMENT),
    ("config_constants_eps_negative", {"cfg.json": _two_sweeps(mode="lepskii",
                                                              constants={"eps": -1})},
     _EXPERIMENT),
    ("config_constants_C_string", {"cfg.json": _two_sweeps(mode="lepskii",
                                                          constants={"C": "big"})}, _EXPERIMENT),
    ("config_adaptive_without_beta", {"cfg.json": _two_sweeps(mode="lepskii", beta=None)},
     _EXPERIMENT),
    ("config_rho_infinite", {"cfg.json": _two_sweeps(rho=[float("inf")])}, _EXPERIMENT),
    ("config_seed_negative", {"cfg.json": _two_sweeps(seed=-1)}, _EXPERIMENT),
    ("config_theory_a_below_one", {"cfg.json": _two_sweeps(
        mode="lepskii", constants={"mode": "theory", "a": 0.5})}, _EXPERIMENT),
    ("fit_lepskii_C_nan", {"pts.csv": _POINTS}, [*_LEPSKII, "--C", "nan"]),
    ("fit_lepskii_a_nan", {"pts.csv": _POINTS}, [*_LEPSKII, "--a", "nan"]),
    ("fit_lepskii_eps_nan", {"pts.csv": _POINTS}, [*_LEPSKII, "--eps", "nan"]),
    ("fit_lepskii_eps_negative", {"pts.csv": _POINTS}, [*_LEPSKII, "--eps", "-1"]),
    ("fit_lepskii_eps_tiny", {"pts.csv": _POINTS}, [*_LEPSKII, "--eps", "1e-310"]),
    ("fit_lepskii_a_huge", {"pts.csv": _POINTS}, [*_LEPSKII, "--a", "544"]),
    ("fit_lepskii_theory_L_inf", {"pts.csv": _POINTS},
     [*_LEPSKII, "--constants-mode", "theory", "--L", "inf"]),
    ("fit_lepskii_constant_without_lepskii", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--rho", "1", "--M", "3", "--C", "5", "--out", "est.json"]),
    ("fit_no_cutoff", {"pts.csv": _POINTS}, ["fit", "pts.csv", "--out", "est.json"]),
    ("fit_adaptive_without_rho", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--adaptive", "penalized-bias", "--out", "est.json"]),
    ("fit_trace_without_adaptive", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--M", "3", "--rho", "1", "--trace", "tr.json", "--out", "est.json"]),
    ("fit_cutoff_flags_together", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--M", "3", "--beta", "2", "--adaptive", "penalized-bias", "--rho", "1",
      "--out", "est.json"]),
    ("fit_bad_flag_value", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--rho", "abc", "--M", "2", "--out", "est.json"]),
    ("fit_malformed_points", {"pts.csv": "0.5\n0.2,0.3\n"},
     ["fit", "pts.csv", "--M", "2", "--out", "est.json"]),
    ("sample_huge_dimension", {"u.json": json.dumps({"kind": "uniform", "d": 2**40})},
     ["sample", "u.json", "--n", "10", "--out", "s.csv"]),
    ("generate_huge_dimension", {},
     ["generate-density", "--kind", "trig", "--d", "1000000", "--M-truth", "1", "--out", "t.json"]),
    ("generate_packing_d0", {},
     ["generate-density", "--kind", "packing", "--d", "0", "--out", "p.json"]),
    ("fit_beta_negative_no_rho", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--beta=-0.5", "--out", "est.json"]),
    ("fit_beta_zero_no_rho", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--beta", "0", "--out", "est.json"]),
    ("rate_table_beta_nan", {}, ["rate-table", "--n", "100", "--rho", "1", "--beta", "nan"]),
    ("generate_trig_beta_inf", {},
     ["generate-density", "--kind", "trig", "--beta", "inf", "--out", "t.json"]),
    ("generate_packing_L_nan", {},
     ["generate-density", "--kind", "packing", "--L", "nan", "--out", "p.json"]),
    ("config_packing_beta_infinite", {"cfg.json": _config(density={
        "kind": "packing", "d": 1, "m": 2, "beta": float("inf"), "L": 2.0, "theta": [1, 0]})},
     _EXPERIMENT),
    ("generate_trig_beta_huge", {},
     ["generate-density", "--kind", "trig", "--beta", "1e308", "--out", "t.json"]),
    ("generate_trig_beta_3000_d3", {},
     ["generate-density", "--kind", "trig", "--d", "3", "--M-truth", "2", "--beta", "3000",
      "--out", "t.json"]),
    ("generate_packing_L_huge", {},
     ["generate-density", "--kind", "packing", "--L", "1e308", "--out", "p.json"]),
    ("generate_packing_m1_d400", {},
     ["generate-density", "--kind", "packing", "--m", "1", "--d", "400", "--beta", "1",
      "--out", "p.json"]),
    ("generate_trig_beta_150_d4", {},
     ["generate-density", "--kind", "trig", "--d", "4", "--M-truth", "1", "--beta", "150",
      "--out", "t.json"]),
    ("sample_estimate_mass_overflow", {"est.json": json.dumps(
        {"d": 1, "M": 0, "re": [1e308], "im": [0], "n": 5, "sigma": 0, "rho_spent": None})},
     ["sample", "est.json", "--n", "3", "--out", "s.csv"]),
    ("sample_trig_theta0_huge", {"t.json": _trig([1e308], [0])}, _SAMPLE_TRIG),
    ("sample_trig_theta0_two", {"t.json": _trig([0.5, 2, 0.5], [0, 0, 0])}, _SAMPLE_TRIG),
    ("sample_trig_not_hermitian", {"t.json": _trig([0.3, 1, 0.9], [0.2, 0, 0])}, _SAMPLE_TRIG),
    ("sample_trig_sum_overflow", {"t.json": _trig([1e308, 1, 1e308], [0, 0, 0])},
     _SAMPLE_TRIG),
    ("fit_points_not_utf8", {"pts.csv": b"0.5\xff\n"},
     ["fit", "pts.csv", "--M", "2", "--out", "est.json"]),
    ("fit_points_underscore", {"pts.csv": "0.2_5\n0.3\n"},
     ["fit", "pts.csv", "--M", "2", "--out", "est.json"]),
    ("fit_points_arabic_indic", {"pts.csv": "\u0660.\u0665\n0.3\n"},
     ["fit", "pts.csv", "--M", "2", "--out", "est.json"]),
    ("sample_density_not_json", {"t.json": '{"kind": '}, _SAMPLE_TRIG),
    ("config_not_json", {"cfg.json": '{"kind": '}, _EXPERIMENT),
    ("sample_density_repeated_key", {"t.json": '{"kind": "uniform", "d": 1, "d": 2}'},
     _SAMPLE_TRIG),
    ("sample_estimate_repeated_key", {"t.json": '{"d": 1, "M": 0, "re": [1], "im": [0], '
                                                '"n": 5, "n": 6, "sigma": 0, "rho_spent": null}'},
     _SAMPLE_TRIG),
    # sweep "b" names its seed twice
    ("config_repeated_key", {"cfg.json": _two_sweeps()[:-3] + ', "seed": 1}}}'}, _EXPERIMENT),
    ("fit_lepskii_theory_d600", {"pts.csv": _WIDE}, [*_LEPSKII, "--constants-mode", "theory"]),
    # a valid budget so small that the candidates' squared distances overflow
    ("fit_penalized_rho_tiny", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--rho", "1e-320", "--adaptive", "penalized-bias", "--trace", "tr.json",
      "--out", "est.json"]),
    ("fit_lepskii_rho_tiny", {"pts.csv": _POINTS},
     ["fit", "pts.csv", "--rho", "1e-320", "--adaptive", "lepskii", "--trace", "tr.json",
      "--out", "est.json"]),
]


def compare_text(old: str, new: str) -> tuple[str | None, int, float, float]:
    """(failure or None, numbers that differ, largest absolute and relative difference)."""
    if NUMBER.split(old) != NUMBER.split(new):
        return "text outside numbers differs", 0, 0.0, 0.0
    changed, max_abs, max_rel = 0, 0.0, 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if a == b:
            continue
        x, y = float(a), float(b)
        diff = abs(x - y)
        if not diff <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL:
            return f"{a} -> {b}", changed, max_abs, max_rel
        if diff == 0.0:  # -0.0 against 0.0, or another spelling of the same value
            continue
        changed += 1
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    return None, changed, max_abs, max_rel


def differing_keys(old: bytes, new: bytes) -> list[str]:
    """The top-level keys of two JSON objects whose parsed values differ,
    sorted; empty unless both parse to objects. NaN and the infinities parse
    to their names, so that a NaN equals a NaN."""
    try:
        a, b = (json.loads(text, parse_constant=str) for text in (old, new))
    except ValueError:
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
    return sorted(key for key in a.keys() | b.keys()
                  if key not in a or key not in b or a[key] != b[key])


def compare(old: Path, new: Path) -> int:
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    identical, failed = [], 0
    for rel in sorted(files):
        if not (old / rel).is_file():
            if rel.parts[0] == "failures":  # a new FAILURES case
                print(f"added {rel}")
            else:
                print(f"FAIL {rel}: present in NEW only")
                failed += 1
            continue
        if not (new / rel).is_file():
            print(f"FAIL {rel}: present in OLD only")
            failed += 1
            continue
        a, b = (old / rel).read_bytes(), (new / rel).read_bytes()
        if a == b:
            identical.append(rel)
            continue
        try:
            problem, changed, max_abs, max_rel = compare_text(a.decode(), b.decode())
        except UnicodeDecodeError:
            problem, changed, max_abs, max_rel = "not text", 0, 0.0, 0.0
        if problem:
            keys = differing_keys(a, b) if rel.suffix == ".json" else []
            named = f"; keys that differ: {', '.join(keys)}" if keys else ""
            print(f"FAIL {rel}: {problem}{named}")
            failed += 1
        else:
            print(f"close {rel}: {changed} numbers differ, at most {max_abs:.3g} absolute, "
                  f"{max_rel:.3g} relative")
    print(f"{len(identical)} byte-identical:")
    for rel in identical:
        print(f"  {rel}")
    print(f"{failed} failed of {len(files)} files")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 tools/golden.py OUTDIR | --compare OLD NEW", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    log = []

    def cli(*args: str) -> None:
        cmd = [sys.executable, "-m", "privdens.cli", *args]
        done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        log.append(f"$ privdens {' '.join(args)}\n{done.stdout}")
        if done.returncode != 0:
            raise SystemExit(f"privdens {' '.join(args)} exited {done.returncode}:\n{done.stderr}")

    for name, flags in FIXTURES.items():
        cli("generate-density", *flags, "--out", name)
    sweeps = {}
    for name, fixture, cfg in SWEEPS:
        density = json.loads((out / fixture).read_text(encoding="utf-8"))
        d = density["d"] if "d" in density else density["coefficients"]["d"]
        sweeps[name] = {"density": density, "d": d, "replicates": 2, **cfg}
    (out / "sweeps.json").write_text(json.dumps({"sweeps": sweeps}, indent=1) + "\n",
                                     encoding="utf-8")
    cli("experiment", "sweeps.json", "--out-dir", "experiments")
    for args in ROUND_TRIP:
        cli(*args)
    (out / "stdout.txt").write_text("".join(log), encoding="utf-8")
    (out / "failures").mkdir(exist_ok=True)
    for name, files, args in FAILURES:
        with tempfile.TemporaryDirectory() as tmp:
            for file, text in files.items():  # bytes for a file that is not UTF-8
                data = text if isinstance(text, bytes) else text.encode("utf-8")
                (Path(tmp) / file).write_bytes(data)
            cmd = [sys.executable, "-m", "privdens.cli", *args]
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
            left = sorted(str(p.relative_to(tmp)) for p in Path(tmp).rglob("*")
                          if p.is_file() and p.name not in files)
        (out / "failures" / f"{name}.txt").write_text(
            f"$ privdens {' '.join(args)}\nexit {done.returncode}\nleft: {left}\n{done.stderr}",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
