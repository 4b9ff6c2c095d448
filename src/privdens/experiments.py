"""Monte-Carlo harness: MISE, rate-slope regression, adaptivity comparisons.

A sweep is described by one ExperimentConfig (parsed from a JSON document
with strict key and type checking; every violation is reported, not just
the first).
Each (n, rho) cell runs R replicates of sample -> fit -> MISE with a
generator derived from (seed, cell index, replicate), so any subset of the
sweep can be reproduced in isolation and the CSV is byte-identical across
runs regardless of execution order.

MISE has two routes: exact Parseval arithmetic for trigonometric truths
(the distance between coefficient grids, padded to a common cut-off, covers
both the stochastic error and the truncation bias), and midpoint-lattice
quadrature when the truth has no usable coefficients (bump packings). Both
routes agree within 1e-6 whenever both apply, which is one of the checks
in the test suite.

Rate slopes are fit by ordinary least squares of log(mean MISE per cell)
against log n (sampling regime) or log(n sqrt(rho)) (privacy regime). The
mean is taken before the log: log-then-mean would bias the exponent
estimate at small R.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import adaptive, densities, fourier, privacy
from .adaptive import PenaltyConfig
from .densities import PackingDensity, TrigDensity, rejection_sample
from .fourier import _is_int, _is_number
from .estimator import (
    ProjectionEstimate,
    fit,
    optimal_cutoff_adaptive_form,
    optimal_cutoff_thm,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "SlopeFit",
    "RateResult",
    "AdaptivityResult",
    "mise",
    "fit_slope",
    "run_rate_experiment",
    "run_adaptivity_experiment",
    "write_csv",
    "CSV_HEADER",
]

_MODES = ("oracle", "lepskii", "penalized-bias")
_CUTOFF_FORMS = ("adaptive", "thm")


@dataclass
class ExperimentConfig:
    """One sweep: a truth density, lists of n and rho, and an estimator mode.

    The JSON document has one key per field, named after it, except that
    the lists ns and rhos are written n and rho (the "key" metadata); the
    fields without a default are the required keys, and `constants` takes
    the fields of PenaltyConfig.

    deterministic_timings=True (the default) writes wall_ms = 0 in every
    record so that identical configs give byte-identical CSV files; set it
    to False to record real wall-clock milliseconds at the price of
    nondeterministic bytes in that one column.
    """

    density: dict
    ns: list[int] = field(metadata={"key": "n"})
    rhos: list[float] = field(metadata={"key": "rho"})
    mode: str
    replicates: int
    seed: int
    d: int
    beta: float | None = None
    cutoff_form: str = "adaptive"
    constants: dict = field(default_factory=dict)
    grid: list[int] | None = None
    deterministic_timings: bool = True
    time_limit_s: float | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Parse and validate a config document, reporting every violation.
        Values must have their JSON type (a bool is not a number); nothing
        is coerced."""
        problems = []
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
        for key in doc:
            if key not in keys:
                problems.append(f"unknown key {key!r}")
        for key, f in keys.items():
            if f.default is MISSING and f.default_factory is MISSING and key not in doc:
                problems.append(f"missing required key {key!r}")

        def typed(key, ok, kind, nullable=False):
            # doc[key] if it has the right JSON type, else None
            value = doc.get(key)
            if key not in doc or (value is None and nullable):
                return None
            if not ok(value):
                problems.append(f"{key!r} must be {kind}, got {value!r}")
                return None
            return value

        def typed_list(key, ok, kind):
            # doc[key] as a list, a scalar standing for a list of one
            value = doc.get(key, [])
            items = value if isinstance(value, list) else [value]
            if not all(ok(v) for v in items):
                problems.append(f"every {key} must be {kind}, got {value!r}")
                return []
            if not items and key in doc:
                problems.append(f"{key!r} must be {kind} or a nonempty list")
            return items

        ns = typed_list("n", _is_int, "an integer")
        if any(v < 3 for v in ns):
            problems.append("every n must be >= 3")
        rhos = [float(v) for v in typed_list("rho", _is_number, "a number")]
        if any(not v > 0 for v in rhos):
            problems.append("every rho must be > 0")
        mode = doc.get("mode", "oracle")
        if mode not in _MODES:
            problems.append(f"mode must be one of {_MODES}, got {mode!r}")
        replicates = typed("replicates", _is_int, "an integer")
        if replicates is not None and replicates < 1:
            problems.append("replicates must be >= 1")
        seed = typed("seed", _is_int, "an integer")
        d = typed("d", _is_int, "an integer")
        beta = typed("beta", _is_number, "a number", nullable=True)
        if mode == "oracle" and doc.get("beta") is None:
            problems.append("oracle mode requires 'beta'")
        if beta is not None and not beta > 0:
            problems.append("beta must be > 0")
        cutoff_form = doc.get("cutoff_form", "adaptive")
        if cutoff_form not in _CUTOFF_FORMS:
            problems.append(f"cutoff_form must be one of {_CUTOFF_FORMS}")
        constants = doc.get("constants", {})
        if not isinstance(constants, dict):
            problems.append("'constants' must be an object")
        else:
            known = {f.name for f in fields(PenaltyConfig)}
            problems += [f"unknown constants key {key!r}" for key in constants if key not in known]
        grid = typed(
            "grid",
            lambda v: isinstance(v, list) and v and all(_is_int(m) for m in v),
            "a nonempty list of integer cut-offs",
            nullable=True,
        )
        if grid is not None and any(m < 0 for m in grid):
            problems.append("grid cut-offs must be >= 0")
        truth = None
        if "density" in doc:
            try:
                truth = densities.density_from_json_dict(doc["density"])
            except (ValueError, TypeError) as exc:
                problems.append(f"bad density spec: {exc}")
        if truth is not None and d is not None and truth.dim != d:
            problems.append(f"density dimension {truth.dim} does not match d = {d}")
        time_limit = typed("time_limit_s", _is_number, "a number", nullable=True)
        if time_limit is not None and not time_limit > 0:
            problems.append("time_limit_s must be > 0 when given")
        timings = typed(
            "deterministic_timings", lambda v: isinstance(v, bool), "true or false"
        )

        if problems:
            raise ValueError(
                "invalid experiment config:\n" + "\n".join(f"  - {p}" for p in problems)
            )
        return cls(
            density=doc["density"],
            ns=ns,
            rhos=rhos,
            mode=mode,
            replicates=replicates,
            seed=seed,
            d=d,
            beta=None if beta is None else float(beta),
            cutoff_form=cutoff_form,
            constants=dict(constants),
            grid=None if grid is None else list(grid),
            deterministic_timings=True if timings is None else timings,
            time_limit_s=None if time_limit is None else float(time_limit),
        )

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        return {f.metadata.get("key", f.name): doc[f.name] for f in fields(self)}

    def penalty_config(self) -> PenaltyConfig:
        return PenaltyConfig(**self.constants)


@dataclass
class ExperimentRecord:
    n: int
    rho: float
    beta_nominal: float
    d: int
    mode: str
    replicate: int
    selected_M: int
    rho_spent: float
    mise: float
    wall_ms: float


# The CSV columns are the record's fields, in order (write_csv).
CSV_HEADER = ",".join(f.name for f in fields(ExperimentRecord))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    x_name: str
    n_cells: int


@dataclass
class RateResult:
    records: list
    slope: SlopeFit | None
    cell_means: list


@dataclass
class AdaptivityResult:
    records: list
    cells: list


def mise(estimate: ProjectionEstimate, truth) -> float:
    """Integrated squared error of an estimate against a known truth.

    Trigonometric truth: exact by Parseval (grids padded to the larger
    cut-off, so the tail of whichever grid is wider is counted as bias).
    Packing truth: midpoint quadrature at the module lattice resolution.
    """
    if isinstance(truth, TrigDensity):
        return fourier.l2_distance_sq(estimate.coefficients, truth.coefficients)
    if isinstance(truth, PackingDensity):
        lattice = densities.midpoint_lattice(truth.dim)
        diff = truth.evaluate(lattice) - fourier.evaluate(estimate.coefficients, lattice)
        return float(np.mean(diff * diff))
    raise TypeError(f"no MISE route for truth of type {type(truth).__name__}")


def fit_slope(log_x, log_y, x_name: str = "log n") -> SlopeFit | None:
    """OLS slope of log_y on log_x with its standard error.

    Returns None with fewer than two points (slope undefined); the standard
    error is NaN with fewer than three.
    """
    x = np.asarray(log_x, dtype=float)
    y = np.asarray(log_y, dtype=float)
    if len(x) < 2:
        return None
    slope, intercept = np.polyfit(x, y, 1)
    if len(x) > 2:
        resid = y - (slope * x + intercept)
        s2 = float(resid @ resid) / (len(x) - 2)
        denom = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(s2 / denom)
    else:
        stderr = float("nan")
    return SlopeFit(slope=float(slope), stderr=stderr, x_name=x_name, n_cells=len(x))


def _oracle_cutoff(cfg: ExperimentConfig, n: int, rho: float) -> int:
    form = optimal_cutoff_adaptive_form if cfg.cutoff_form == "adaptive" else optimal_cutoff_thm
    return form(n, rho, cfg.beta, cfg.d)


def _run_one(cfg, mode, data, rho, rng):
    """Fit one replicate's data per mode; returns (estimate, trace), with
    trace None for an oracle fit."""
    if mode == "oracle":
        return fit(data, _oracle_cutoff(cfg, len(data), rho), rho, rng), None
    if mode == "lepskii":
        return adaptive.lepskii_select(data, rho, cfg.penalty_config(), rng)
    return adaptive.penalized_bias_select(data, rho, cfg.grid, rng)


def _sweep(cfg: ExperimentConfig, truth, compare: bool = False):
    """The cell and replicate loop of both experiments.

    Replicate rep of cell c samples and fits per cfg.mode with one generator,
    derived_rng(seed, c, rep). compare adds an oracle fit of the same sample
    with derived_rng(seed, c, rep, 1) and scores every selection candidate.
    Each fit gives one record. A cell running over time_limit_s ends with
    one flagged record (replicate -1, mise NaN). Returns the records and,
    per cell with a completed replicate, (n, rho, its records, its candidate
    MISEs by cut-off).
    """
    beta_nom = cfg.beta if cfg.beta is not None else float(getattr(truth, "beta", math.nan))
    records, cells = [], []
    for cell_idx, (n, rho) in enumerate((n, rho) for n in cfg.ns for rho in cfg.rhos):
        cell_records, candidate_mises = [], {}
        cell_start = time.perf_counter()
        for rep in range(cfg.replicates):
            if (
                cfg.time_limit_s is not None
                and time.perf_counter() - cell_start > cfg.time_limit_s
            ):
                records.append(
                    ExperimentRecord(n, rho, beta_nom, cfg.d, cfg.mode, -1, -1, 0.0, math.nan, 0.0)
                )
                break
            rng = privacy.derived_rng(cfg.seed, cell_idx, rep)
            fits = [(cfg.mode, rng)]
            if compare:
                fits.append(("oracle", privacy.derived_rng(cfg.seed, cell_idx, rep, 1)))
            t0 = time.perf_counter()
            data = rejection_sample(truth, n, rng)
            for mode, fit_rng in fits:
                est, trace = _run_one(cfg, mode, data, rho, fit_rng)
                err = mise(est, truth)
                wall = 0.0 if cfg.deterministic_timings else (time.perf_counter() - t0) * 1e3
                rec = ExperimentRecord(
                    n, rho, beta_nom, cfg.d, mode, rep, est.cutoff, est.rho_spent, err, wall
                )
                records.append(rec)
                cell_records.append(rec)
                if compare and trace is not None:
                    for m_val, cand in zip(trace.cutoffs, trace.candidates):
                        candidate_mises.setdefault(m_val, []).append(mise(cand, truth))
                t0 = time.perf_counter()
        if cell_records:
            cells.append((n, rho, cell_records, candidate_mises))
    return records, cells


def run_rate_experiment(cfg: ExperimentConfig) -> RateResult:
    """Sweep all (n, rho) cells, R replicates each, and fit the rate slope.

    The slope regressor is log n when rho is a single value, and
    log(n sqrt(rho)) when n is a single value; with one cell the slope is
    reported as None.
    """
    truth = densities.density_from_json_dict(cfg.density)
    records, cells = _sweep(cfg, truth)
    cell_means = [
        (n, rho, float(np.mean([r.mise for r in recs]))) for n, rho, recs, _ in cells
    ]

    slope = None
    if len(cell_means) >= 2:
        if len(cfg.rhos) == 1:
            xs = [math.log(n) for n, _r, _m in cell_means]
            name = "log n"
        elif len(cfg.ns) == 1:
            xs = [math.log(n * math.sqrt(r)) for n, r, _m in cell_means]
            name = "log(n sqrt(rho))"
        else:
            xs = None
            name = ""
        if xs is not None:
            ys = [math.log(m) for _n, _r, m in cell_means]
            slope = fit_slope(xs, ys, name)
    return RateResult(records=records, slope=slope, cell_means=cell_means)


def run_adaptivity_experiment(cfg: ExperimentConfig) -> AdaptivityResult:
    """Compare an adaptive rule against the oracle-beta estimator.

    Per replicate two records are written: one for the adaptive rule
    (mode as configured) and one for the oracle fit at the same total
    budget (mode "oracle"), on the same sample. A cell with no completed
    replicate gets no summary.

    The per-cell summary carries median MISEs, their ratio, the selected
    cut-offs, and the median MISE of every fixed-M candidate at the split
    budget (best_fixed_M is the cut-off with the smallest one), for
    oracle-inequality checks. A Lepskii grid can hold several candidates
    with the same cut-off; their MISEs are pooled under that cut-off.
    Lepskii cells also report within_factor4_fraction, the share of
    replicates whose selected cut-off is within factor 4 of best_fixed_M,
    and, for information, oracle_split_cutoff, the tuned cut-off for the
    nominal beta at the per-candidate budget.
    """
    if cfg.mode not in ("lepskii", "penalized-bias"):
        raise ValueError("adaptivity experiments need mode lepskii or penalized-bias")
    if cfg.beta is None:
        raise ValueError("adaptivity experiments need 'beta' for the oracle comparison")
    truth = densities.density_from_json_dict(cfg.density)
    records, cells = _sweep(cfg, truth, compare=True)
    summaries = []
    for n, rho, recs, candidate_mises in cells:
        adaptive_mises = [r.mise for r in recs if r.mode == cfg.mode]
        oracle_mises = [r.mise for r in recs if r.mode == "oracle"]
        selected = [r.selected_M for r in recs if r.mode == cfg.mode]
        cell = {
            "n": n,
            "rho": rho,
            "adaptive_median_mise": float(np.median(adaptive_mises)),
            "oracle_median_mise": float(np.median(oracle_mises)),
            "selected_cutoffs": selected,
            "oracle_cutoff": _oracle_cutoff(cfg, n, rho),
        }
        if cell["oracle_median_mise"] > 0:
            cell["ratio"] = cell["adaptive_median_mise"] / cell["oracle_median_mise"]
        else:
            cell["ratio"] = float("inf")
        med = {m_val: float(np.median(v)) for m_val, v in candidate_mises.items()}
        cell["candidate_median_mise"] = med
        best = min(med, key=med.get)
        cell["best_fixed_M"] = best
        cell["best_fixed_median_mise"] = med[best]
        if cfg.mode == "lepskii":
            pc = cfg.penalty_config()
            ln = math.log(n)
            rho_split = rho * pc.eps / (ln * ln)
            cell["oracle_split_cutoff"] = optimal_cutoff_adaptive_form(
                n, rho_split, cfg.beta, cfg.d
            )
            within = [
                s <= 4 * max(best, 1) and best <= 4 * max(s, 1) for s in selected
            ]
            cell["within_factor4_fraction"] = float(np.mean(within))
        summaries.append(cell)
    return AdaptivityResult(records=records, cells=summaries)


def _g17(x) -> str:
    return f"{float(x):.17g}"


def write_csv(records, path) -> None:
    """Write records in the fixed column order with a mandatory header.

    Floats use 17 significant digits so a re-run of the same config is
    byte-identical (given deterministic_timings).
    """
    columns = [(f.name, f.type == "float") for f in fields(ExperimentRecord)]
    lines = [CSV_HEADER] + [
        ",".join(_g17(getattr(r, key)) if real else str(getattr(r, key)) for key, real in columns)
        for r in records
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
