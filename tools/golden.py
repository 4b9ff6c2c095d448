"""Write a fixed set of privdens outputs, and compare two such sets.

    python3 tools/golden.py OUTDIR
    python3 tools/golden.py --compare OLD NEW

Everything goes through the command line of the checkout this file sits in
(its `src/` is put first on PYTHONPATH), so the same script runs unchanged
on an older commit. Into OUTDIR it writes:

* `experiments/`: the CSVs and `summary.json` of the criterion 6, 7, 8 and
  9a sweeps, of a d = 2 adaptivity sweep in both modes and of an oracle
  sweep on a d = 2 packing (its MISE is the lattice quadrature route),
  2 replicates each (`privdens experiment`);
* a CLI round trip: three trig and one packing `generate-density`
  fixtures, `sample`, `fit --M`, `fit --adaptive penalized-bias` and
  `fit --adaptive lepskii` with `--trace`, and `sample` from the released
  estimate;
* `rates.csv` from `rate-table`, and the default config of `print-config`;
* `stdout.txt`: what each command printed, run from inside OUTDIR with
  relative paths so that it does not depend on where OUTDIR is.

A behaviour-preserving change leaves `diff -r OLD NEW` empty when both
directories come from the same machine. It takes about 45 s on two cores.

A change of floating-point arithmetic, such as a new Fourier kernel, cannot
keep the bytes. `--compare OLD NEW` lists the byte-identical files and
passes each other file only if its text outside numbers is identical and
every pair of numbers satisfies |x - y| <= 1e-9 max(|x|, |y|) + 1e-12;
integers, such as a selected cut-off, must therefore match exactly. It
exits 1 if a file fails or exists on one side only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
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
]
ROUND_TRIP = [
    ["sample", "beta2.json", "--n", "16384", "--seed", "0", "--out", "points.csv"],
    ["fit", "points.csv", "--rho", "1", "--M", "6", "--out", "fixed.json"],
    ["fit", "points.csv", "--rho", "1", "--adaptive", "penalized-bias", "--seed", "1",
     "--out", "penalized.json", "--trace", "penalized_trace.json"],
    ["fit", "points.csv", "--rho", "1", "--adaptive", "lepskii", "--seed", "2",
     "--out", "lepskii.json", "--trace", "lepskii_trace.json"],
    ["sample", "fixed.json", "--n", "1000", "--seed", "3", "--out", "synthetic.csv"],
    ["rate-table", "--n", "100", "4096", "1000000", "--rho", "0.001", "1", "1000",
     "--beta", "0.5", "1", "2.5", "--d", "2", "--out", "rates.csv"],
    ["rate-table", "--n", "1000", "--rho", "0.01", "1", "--beta", "1", "2"],
    ["print-config"],
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


def compare(old: Path, new: Path) -> int:
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    identical, failed = [], 0
    for rel in sorted(files):
        if not (old / rel).is_file() or not (new / rel).is_file():
            print(f"FAIL {rel}: present on one side only")
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
            print(f"FAIL {rel}: {problem}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
