"""Command-line front door: fit, sample, density generation, experiments.

Every subcommand with a fixed seed is byte-deterministic in the files it
writes: CSV floats carry 17 significant digits, and every JSON file is one
line of compact JSON with sorted keys (compact, so that json encodes it in
C). print-config alone indents: it prints a template to edit by hand.
Exit codes: 0 success, 2 usage error, 1 runtime error.

Input points files are headerless CSV with d columns of decimal floats, one
point per row, all coordinates in [0,1]; np.loadtxt alone parses them.
Nothing is rescaled: silently moving points would change what "neighboring
datasets" means and thereby the privacy guarantee, so out-of-range input is
an error instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import adaptive, densities, estimator, experiments, privacy
from .adaptive import PenaltyConfig
from .densities import ClippedDensity, density_from_json_dict, rejection_sample
from .estimator import ProjectionEstimate, fit, rate_regime, theoretical_rate
from .experiments import (
    ExperimentConfig,
    run_adaptivity_experiment,
    run_rate_experiment,
    write_csv,
)
from .fourier import as_points

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flag combination detected after argparse; exits with code 2."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a ValueError names the first key it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in obj if keys.count(k) > 1)!r}")
    return obj


_parse_json = partial(json.loads, object_pairs_hook=_unique_keys)


def _read_file(path: str, parse=str):
    """parse(text) of an input file read as UTF-8 with universal newlines (a
    line ends at LF, CR LF or a lone CR only); an error decoding the file, or
    parsing it as JSON (_parse_json), too deep a nesting or a repeated key
    included, names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_points(path: str) -> np.ndarray:
    """The points of a CSV file of comma-separated ASCII decimal floats,
    whitespace around a cell allowed, every line parsed by np.loadtxt alone:
    it refuses an underscore, digits that are not ASCII and, with
    comments=None, a comment. Blank and whitespace-only lines are skipped.
    If it refuses the file, the same call on each line in turn names the
    first line it refuses, or the first whose width differs."""
    lines = _read_file(path).split("\n")
    rows = list(filter(str.strip, lines))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        points = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        width = None
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                got = np.loadtxt([line], delimiter=",", ndmin=2, comments=None).shape[1]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line.strip()!r}") from None
            width = width or got
            if got != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, got {got}")
        raise
    try:
        return as_points(points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_points(path: str, pts: np.ndarray) -> None:
    n, d = np.atleast_2d(pts).shape  # one % format over all rows; no rows give a lone "\n"
    text = (",".join(["%.17g"] * d) + "\n") * n % tuple(np.ravel(pts).tolist()) if n else "\n"
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, obj: dict) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _print_ledger(ledger: privacy.BudgetLedger, requested) -> None:
    print("budget ledger:")
    if len(ledger) == 0:
        print("  (empty: no privacy mechanism invoked)")
        return
    for label, rho in ledger.entries:
        print(f"  {label}: rho={rho:.17g}")
    print(f"  total spent: {ledger.spent:.17g} (requested {float(requested):.17g})")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    if args.trace is not None and args.adaptive is None:
        raise UsageError("--trace requires --adaptive")
    if args.adaptive is not None and args.rho is None:
        raise UsageError("--adaptive requires --rho")
    if args.M is None and args.beta is None and args.adaptive is None:
        raise UsageError("choose a cut-off: --M, --beta, or --adaptive")
    given = {f.name: getattr(args, f.name) for f in fields(PenaltyConfig) if f.name in args}
    if given and args.adaptive != "lepskii":
        raise UsageError("--constants-mode, --C, --a, --eps and --L require --adaptive lepskii")
    data = _read_points(args.data)
    n, d = data.shape
    rng = np.random.default_rng(args.seed)

    if args.adaptive is not None:
        if args.adaptive == "lepskii":
            est, trace = adaptive.lepskii_select(data, args.rho, PenaltyConfig(**given), rng)
        else:
            est, trace = adaptive.penalized_bias_select(data, args.rho, None, rng)
        if args.trace:
            _write_json(args.trace, trace.to_json_dict())
        line = f"selected M={trace.selected_cutoff} by {trace.method}"
    else:
        cutoff = args.M
        if cutoff is None:
            cutoff = estimator.optimal_cutoff_adaptive_form(n, args.rho, args.beta, d)
        est = fit(data, cutoff, args.rho, rng)
        line = f"fit M={cutoff} on n={n} points (d={d}), sigma={est.sigma:.17g}"
    _write_json(args.out, est.to_json_dict())
    print(line)
    _print_ledger(est.ledger, args.rho)
    return 0


def _cmd_sample(args) -> int:
    doc = _read_file(args.input, _parse_json)
    if isinstance(doc, dict) and "kind" in doc:
        target = density_from_json_dict(doc)
    else:
        target = ClippedDensity(ProjectionEstimate.from_json_dict(doc))
    rng = np.random.default_rng(args.seed)
    pts, stats = rejection_sample(target, args.n, rng, return_stats=True)
    _write_points(args.out, pts)
    print(
        f"wrote {args.n} points to {args.out} "
        f"(acceptance rate {stats['acceptance_rate']:.3f}, bound {stats['bound']:.6g})"
    )
    return 0


def _cmd_generate_density(args) -> int:
    if args.kind == "uniform":
        dens = densities.TrigDensity.uniform(args.d)
    elif args.kind == "trig":
        dens = densities.make_trig_density(
            args.beta, args.L, args.M_truth, d=args.d, rng=args.seed
        )
    else:
        m_total = densities._packing_size(args.m, args.d)
        if args.theta is not None:
            bits = [int(c) for c in args.theta if c in "01"]
            if len(bits) != m_total or len(args.theta) != m_total:
                raise UsageError(
                    f"--theta must be a string of {m_total} bits for m={args.m}, d={args.d}"
                )
        else:
            bits = np.random.default_rng(args.seed).integers(0, 2, size=m_total)
        dens = densities.make_packing_density(
            bits, args.m, args.beta, d=args.d, L=args.L, floor_half=args.floor_half
        )
    _write_json(args.out, dens.to_json_dict())
    print(f"wrote {args.kind} density (d={args.d}) to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    doc = _read_file(args.config, _parse_json)
    sweep_docs = doc["sweeps"] if isinstance(doc, dict) and "sweeps" in doc else {"sweep": doc}
    if not isinstance(sweep_docs, dict):
        raise ValueError("'sweeps' must be an object that maps sweep names to configs")
    configs = {}
    problems = []
    for name, sweep in sweep_docs.items():
        try:
            cfg = configs[name] = ExperimentConfig.from_dict(sweep)
            if cfg.mode != "oracle":
                experiments._check_adaptivity(cfg)
        except ValueError as exc:
            problems.append(f"sweep {name!r}: {exc}")
    if problems:
        raise ValueError("\n".join(problems))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, cfg in configs.items():
        res = (run_rate_experiment if cfg.mode == "oracle" else run_adaptivity_experiment)(cfg)
        csv_path = out_dir / f"{name}.csv"
        write_csv(res.records, csv_path)
        summary[name] = {**res.summary, "csv": csv_path.name}
        print(f"sweep {name}: {len(res.records)} records -> {csv_path}")
    _write_json(str(out_dir / "summary.json"), summary)
    print(f"summary -> {out_dir / 'summary.json'}")
    return 0


def _cmd_rate_table(args) -> int:
    lines = ["n,rho,beta,d,rate,regime"]
    for n in args.n:
        for rho in args.rho:
            for beta in args.beta:
                rate = theoretical_rate(n, rho, beta, args.d)
                regime = rate_regime(n, rho, beta, args.d)
                lines.append(f"{n},{rho:.17g},{beta:.17g},{args.d},{rate:.17g},{regime}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_print_config(args) -> int:
    cfg = ExperimentConfig(
        density={"kind": "uniform", "d": 1},
        ns=[256, 1024],
        rhos=[1.0],
        mode="oracle",
        replicates=5,
        seed=0,
        d=1,
        beta=1.0,
    )
    sys.stdout.write(json.dumps(cfg.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privdens",
        description="Differentially private density estimation on [0,1]^d.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a (private) projection estimator")
    p_fit.add_argument("data", help="points CSV: d columns, no header, values in [0,1]")
    p_fit.add_argument("--out", required=True, help="output estimate JSON path")
    p_fit.add_argument("--rho", type=float, default=None, help="zCDP budget (omit for non-private)")
    cut = p_fit.add_mutually_exclusive_group()
    cut.add_argument("--M", type=int, default=None, help="explicit cut-off")
    cut.add_argument("--beta", type=float, default=None, help="smoothness for the tuned cut-off")
    cut.add_argument(
        "--adaptive",
        choices=["lepskii", "penalized-bias"],
        default=None,
        help="data-driven cut-off selection",
    )
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--trace", default=None, help="selection trace JSON path (--adaptive)")
    # PenaltyConfig's defaults hold for every flag of the group not given
    lep = p_fit.add_argument_group("Lepskii constants", "with --adaptive lepskii only",
                                   argument_default=argparse.SUPPRESS)
    lep.add_argument("--constants-mode", dest="mode", choices=PenaltyConfig.MODES)
    lep.add_argument("--C", type=float, help="Lepskii threshold constant")
    lep.add_argument("--a", type=float, help="Lepskii log exponent")
    lep.add_argument("--eps", type=float, help="beta-grid step scale")
    lep.add_argument("--L", type=float, help="Sobolev radius for theory constants")
    p_fit.set_defaults(func=_cmd_fit)

    p_sample = sub.add_parser("sample", help="rejection-sample points from a density or estimate")
    p_sample.add_argument("input", help="density JSON or estimate JSON")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--out", required=True, help="output points CSV path")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=_cmd_sample)

    p_gen = sub.add_parser("generate-density", help="write a ground-truth density JSON")
    p_gen.add_argument("--kind", choices=["trig", "packing", "uniform"], required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--d", type=int, default=1)
    p_gen.add_argument("--beta", type=float, default=2.0)
    p_gen.add_argument("--L", type=float, default=2.0)
    p_gen.add_argument("--M-truth", dest="M_truth", type=int, default=20)
    p_gen.add_argument("--m", type=int, default=4, help="bumps per axis (packing)")
    p_gen.add_argument("--theta", default=None, help="packing bit string, length m^d")
    p_gen.add_argument("--floor-half", action="store_true", help="halved-h packing variant")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_generate_density)

    p_exp = sub.add_parser("experiment", help="run experiment sweeps from a JSON config")
    p_exp.add_argument("config", help="config JSON (one sweep or {'sweeps': {...}})")
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func=_cmd_experiment)

    p_rate = sub.add_parser("rate-table", help="print theoretical minimax rates")
    p_rate.add_argument("--n", type=int, nargs="+", required=True)
    p_rate.add_argument("--rho", type=float, nargs="+", required=True)
    p_rate.add_argument("--beta", type=float, nargs="+", required=True)
    p_rate.add_argument("--d", type=int, default=1)
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(func=_cmd_rate_table)

    p_cfg = sub.add_parser("print-config", help="print a default experiment config")
    p_cfg.set_defaults(func=_cmd_print_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
