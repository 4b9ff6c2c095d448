"""Monte-Carlo harness: MISE, rate-slope regression, adaptivity comparisons.

A sweep is described by one ExperimentConfig, checked field by field
whenever it is built, from a JSON document or by keyword; every violation
is reported, not just the first.
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
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import adaptive, densities, fourier, privacy
from .adaptive import PenaltyConfig
from .densities import PackingDensity, TrigDensity, rejection_sample
from .fourier import _is_finite, _is_int, _is_number
from .estimator import ProjectionEstimate, fit, optimal_cutoff_adaptive_form

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "SlopeFit",
    "SweepResult",
    "mise",
    "fit_slope",
    "run_rate_experiment",
    "run_adaptivity_experiment",
    "write_csv",
    "CSV_HEADER",
]

_MODES = ("oracle", "lepskii", "penalized-bias")


def _check_fields(v: dict, problems: list[str]):
    """Raise one ValueError listing problems and every bad value in v, a map
    from field names to values in which an absent field goes unchecked.
    Return the truth density parsed from v["density"]."""

    def typed(key, ok, kind, nullable=False):
        # v[key] if it has the right type, else None
        value = v.get(key)
        if key in v and not (value is None and nullable) and not ok(value):
            problems.append(f"{key!r} must be {kind}, got {value!r}")
            return None
        return value

    def listed(name, key, ok, kind):
        # v[name] if it is a list of the right items, else []
        value = v.get(name, [])
        if isinstance(value, list) and all(map(ok, value)):
            if not value and name in v:
                problems.append(f"{key!r} must be {kind} or a nonempty list")
            return value
        problems.append(f"{key!r} must be a list, got {value!r}" if ok(value)
                        else f"every {key} must be {kind}, got {value!r}")
        return []

    ns = listed("ns", "n", _is_int, "an integer")
    if any(n < 3 for n in ns):
        problems.append("every n must be >= 3")
    rhos = listed("rhos", "rho", _is_number, "a number")
    if any(not r > 0 for r in rhos):
        problems.append("every rho must be > 0")
    elif not all(map(_is_finite, rhos)):
        problems.append("every rho must be finite")
    mode = v.get("mode")
    if "mode" in v and mode not in _MODES:
        problems.append(f"mode must be one of {_MODES}, got {mode!r}")
    replicates = typed("replicates", _is_int, "an integer")
    if replicates is not None and replicates < 1:
        problems.append("replicates must be >= 1")
    seed = typed("seed", _is_int, "an integer")
    if seed is not None and seed < 0:
        problems.append("seed must be >= 0")
    d = typed("d", _is_int, "an integer")
    cap = densities._MAX_SAMPLE_VALUES
    if d is not None and d >= 1 and any(int(n) * int(d) > cap for n in ns):
        problems.append(f"n * d must be at most {cap}, the coordinates this package samples")
    beta = typed("beta", _is_number, "a number", nullable=True)
    if mode == "oracle" and v.get("beta") is None:
        problems.append("oracle mode requires 'beta'")
    if beta is not None and not _is_finite(beta):
        problems.append(f"beta must be a finite number, got {beta!r}")
    elif beta is not None and not beta > 0:
        problems.append("beta must be > 0")
    constants = v.get("constants")
    if "constants" in v and not isinstance(constants, dict):
        problems.append("'constants' must be an object")
    elif constants:
        known = {f.name for f in fields(PenaltyConfig)}
        unknown = [f"unknown constants key {key!r}" for key in constants if key not in known]
        problems += unknown
        if not unknown:
            try:
                penalty = PenaltyConfig(**constants)
                if mode == "lepskii" and d is not None:
                    with warnings.catch_warnings():  # eps > 1/2 warns once, when the sweep runs
                        warnings.simplefilter("ignore")
                        penalty.resolved_C(d)
            except ValueError as exc:
                problems.append(f"bad constants: {exc}")
    grid = typed("grid", lambda g: isinstance(g, list) and g and all(map(_is_int, g)),
                 "a nonempty list of integer cut-offs", nullable=True)
    if grid is not None and any(m < 0 for m in grid):
        problems.append("grid cut-offs must be >= 0")
    truth = None
    if "density" in v:
        try:
            truth = densities.density_from_json_dict(v["density"])
        except (ValueError, TypeError) as exc:
            problems.append(f"bad density spec: {exc}")
    if truth is not None and d is not None and truth.dim != d:
        problems.append(f"density dimension {truth.dim} does not match d = {d}")
    time_limit = typed("time_limit_s", _is_number, "a number", nullable=True)
    if time_limit is not None and not time_limit > 0:
        problems.append("time_limit_s must be > 0 when given")
    elif time_limit is not None and not _is_finite(time_limit):
        problems.append(f"time_limit_s must be a finite number, got {time_limit!r}")
    # a mode refuses a setting it does not read; the defaults {} and null set nothing
    for key, owner, given in (("constants", "lepskii", bool(v.get("constants"))),
                              ("grid", "penalized-bias", v.get("grid") is not None)):
        if given and mode in _MODES and mode != owner:
            problems.append(f"{key!r} is read only in {owner} mode")
    if problems:
        raise ValueError(
            "invalid experiment config:\n" + "\n".join(f"  - {p}" for p in problems)
        )
    return truth


def _refuse(self, *args, **kwargs):
    raise TypeError("an ExperimentConfig cannot change; vary it with dataclasses.replace")


class _FrozenList(list):  # a list of a config: copied by value, changed never
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    __reduce__ = lambda self: (type(self), (list(self),))  # noqa: E731


class _FrozenDict(dict):  # a dict of a config: copied by value, changed never
    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = __ior__ = _refuse
    __reduce__ = lambda self: (type(self), (dict(self),))  # noqa: E731


def _recast(value, seq=list, mapping=dict):
    """value with every list in it made a seq, and every dict a mapping."""
    if isinstance(value, list):  # one call copies a list with no list or dict in it
        flat = not any(issubclass(t, (list, dict)) for t in set(map(type, value)))
        return seq(value if flat else (_recast(v, seq, mapping) for v in value))
    if isinstance(value, dict):
        return mapping((k, _recast(v, seq, mapping)) for k, v in value.items())
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a truth density, lists of n and rho, and an estimator mode.

    The JSON document has one key per field, named after it, except that
    the lists ns and rhos are written n and rho (the "key" metadata); the
    fields without a default are the required keys. Only lepskii mode reads
    `constants` (the fields of PenaltyConfig), only penalized-bias mode
    `grid`; other modes refuse them unless they keep the defaults {} and None.

    Keyword and JSON construction are checked alike, every bad field in one
    ValueError; nothing is coerced, but rhos, beta and time_limit_s must be
    finite and are stored as floats. The density is parsed once, into the
    truth sampled. A config is frozen, its lists and dicts too, so that
    neither that truth nor to_json_dict can go stale: vary one with
    dataclasses.replace, which checks again.
    """

    density: dict
    ns: list[int] = field(metadata={"key": "n"})
    rhos: list[float] = field(metadata={"key": "rho"})
    mode: str
    replicates: int
    seed: int
    d: int
    beta: float | None = None
    constants: dict = field(default_factory=dict)
    grid: list[int] | None = None
    time_limit_s: float | None = None

    def __post_init__(self):
        vars(self).update(  # frozen: set once, here, past __setattr__
            {key: _recast(value, _FrozenList, _FrozenDict) for key, value in vars(self).items()},
            _truth=_check_fields(vars(self), []),
            rhos=_FrozenList(float(v) for v in self.rhos),
            beta=None if self.beta is None else float(self.beta),
            time_limit_s=None if self.time_limit_s is None else float(self.time_limit_s),
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON document: the field checks of
        construction, plus known and required keys, in one error. A single
        n or rho stands for a list of one."""
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
        required = [k for k, f in keys.items() if MISSING is f.default is f.default_factory]
        problems = [f"unknown key {key!r}" for key in doc if key not in keys]
        problems += [f"missing required key {key!r}" for key in required if key not in doc]
        values = {f.name: doc[key] for key, f in keys.items() if key in doc}
        for name, ok in (("ns", _is_int), ("rhos", _is_number)):
            if ok(values.get(name)):
                values[name] = [values[name]]
        if problems:  # raises, listing the field problems after the key problems
            _check_fields(values, problems)
        return cls(**values)

    def to_json_dict(self) -> dict:
        return {f.metadata.get("key", f.name): _recast(getattr(self, f.name)) for f in fields(self)}

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


# The CSV columns are the record's fields, in order (write_csv).
CSV_HEADER = ",".join(f.name for f in fields(ExperimentRecord))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    x_name: str
    n_cells: int


@dataclass
class SweepResult:
    """What both runners return: the records, the slope fit of a rate sweep
    (None when it is undefined, and for an adaptivity sweep), and the sweep's
    summary.json entry, {"mode", "cells"} and for a rate sweep "slope"."""

    records: list
    summary: dict
    slope: SlopeFit | None = None

    @property
    def cells(self) -> list:
        """One summary dict per cell with a completed replicate."""
        return self.summary["cells"]


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
        diff = truth.evaluate(lattice) - fourier.evaluate_lattice(estimate.coefficients)
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


def _run_one(cfg, mode, data, rho, rng):
    """Fit one replicate's data per mode; returns (estimate, trace), with
    trace None for an oracle fit."""
    if mode == "oracle":
        cutoff = optimal_cutoff_adaptive_form(len(data), rho, cfg.beta, cfg.d)
        return fit(data, cutoff, rho, rng), None
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
                    ExperimentRecord(n, rho, beta_nom, cfg.d, cfg.mode, -1, -1, 0.0, math.nan)
                )
                break
            rng = privacy.derived_rng(cfg.seed, cell_idx, rep)
            fits = [(cfg.mode, rng)]
            if compare:
                fits.append(("oracle", privacy.derived_rng(cfg.seed, cell_idx, rep, 1)))
            data = rejection_sample(truth, n, rng)
            for mode, fit_rng in fits:
                est, trace = _run_one(cfg, mode, data, rho, fit_rng)
                err = mise(est, truth)
                rec = ExperimentRecord(
                    n, rho, beta_nom, cfg.d, mode, rep, est.cutoff, est.rho_spent, err
                )
                records.append(rec)
                cell_records.append(rec)
                if compare and trace is not None and isinstance(truth, TrigDensity):
                    for m_val, block in trace.blocks:  # one Parseval sum per block, mise's bits
                        candidate_mises.setdefault(m_val, []).extend(
                            fourier._sq_distances(block, m_val, truth.coefficients).tolist())
                elif compare and trace is not None:
                    for cand in trace.candidates:
                        candidate_mises.setdefault(cand.cutoff, []).append(mise(cand, truth))
        if cell_records:
            cells.append((n, rho, cell_records, candidate_mises))
    return records, cells


def run_rate_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Sweep all (n, rho) cells, R replicates each, and fit the rate slope.

    A cell's summary is its n, rho and mean_mise. The slope regressor is
    log n when rho is a single value, and log(n sqrt(rho)) when n is a
    single value; with one cell, or neither, the slope is None.
    """
    records, cells = _sweep(cfg, cfg._truth)
    means = [(n, rho, float(np.mean([r.mise for r in recs]))) for n, rho, recs, _ in cells]
    by_n, slope = len(cfg.rhos) == 1, None
    if len(means) >= 2 and (by_n or len(cfg.ns) == 1):
        xs = [math.log(n if by_n else n * math.sqrt(r)) for n, r, _m in means]
        ys = [math.log(m) for _n, _r, m in means]
        slope = fit_slope(xs, ys, "log n" if by_n else "log(n sqrt(rho))")
    summary = {
        "mode": cfg.mode,
        "cells": [{"n": n, "rho": r, "mean_mise": m} for n, r, m in means],
        "slope": None if slope is None else {
            "value": slope.slope, "stderr": slope.stderr, "x": slope.x_name},
    }
    return SweepResult(records, summary, slope)


def _check_adaptivity(cfg: ExperimentConfig) -> None:
    """Raise unless cfg can run as an adaptivity experiment."""
    if cfg.mode not in ("lepskii", "penalized-bias"):
        raise ValueError("adaptivity experiments need mode lepskii or penalized-bias")
    if cfg.beta is None:
        raise ValueError("adaptivity experiments need 'beta' for the oracle comparison")


def run_adaptivity_experiment(cfg: ExperimentConfig) -> SweepResult:
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
    _check_adaptivity(cfg)
    records, cells = _sweep(cfg, cfg._truth, compare=True)
    summaries = []
    for n, rho, recs, candidate_mises in cells:
        adaptive_med = float(np.median([r.mise for r in recs if r.mode == cfg.mode]))
        oracle_med = float(np.median([r.mise for r in recs if r.mode == "oracle"]))
        selected = [r.selected_M for r in recs if r.mode == cfg.mode]
        med = {m_val: float(np.median(v)) for m_val, v in candidate_mises.items()}
        best = min(med, key=med.get)
        cell = {
            "n": n,
            "rho": rho,
            "adaptive_median_mise": adaptive_med,
            "oracle_median_mise": oracle_med,
            "ratio": adaptive_med / oracle_med if oracle_med > 0 else math.inf,
            "selected_cutoffs": selected,
            "oracle_cutoff": optimal_cutoff_adaptive_form(n, rho, cfg.beta, cfg.d),
            "candidate_median_mise": med,
            "best_fixed_M": best,
            "best_fixed_median_mise": med[best],
        }
        if cfg.mode == "lepskii":
            _betas, rho_split = adaptive._lepskii_budget(n, rho, cfg.penalty_config().eps)
            cell["oracle_split_cutoff"] = optimal_cutoff_adaptive_form(
                n, rho_split, cfg.beta, cfg.d)
            within = [s <= 4 * max(best, 1) and best <= 4 * max(s, 1) for s in selected]
            cell["within_factor4_fraction"] = float(np.mean(within))
        summaries.append(cell)
    return SweepResult(records, {"mode": cfg.mode, "cells": summaries})


def write_csv(records, path) -> None:
    """Write records in the fixed column order with a mandatory header.

    Floats use 17 significant digits so a re-run of the same config is
    byte-identical.
    """
    columns = [(f.name, f.type == "float") for f in fields(ExperimentRecord)]
    lines = [CSV_HEADER] + [
        ",".join(f"{float(getattr(r, key)):.17g}" if real else str(getattr(r, key))
                 for key, real in columns)
        for r in records
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
