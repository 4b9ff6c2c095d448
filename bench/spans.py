"""Span recorder that times privdens layers from outside.

`Recorder.install()` replaces every public function of the seven layer
modules, wherever a privdens module holds it by name, with a wrapper that
records a span (name, start, end, parent, count) while the recorder is
active. A handful of methods whose work the per-layer table needs are wrapped
on their classes. Nothing in the package changes on disk; `uninstall()` puts
the original objects back. Spans stay in memory until the run ends, and
`layer_metrics()` turns them into the per-layer table.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("fourier", "privacy", "estimator", "adaptive", "densities", "experiments", "cli")

# Methods wrapped on their classes: (module, class, method).
METHODS = (
    ("densities", "ClippedDensity", "__init__"),
    ("densities", "ClippedDensity", "evaluate"),
    ("densities", "PackingDensity", "evaluate"),
    ("densities", "TrigDensity", "evaluate"),
)

SELECTORS = ("adaptive.lepskii_select", "adaptive.penalized_bias_select")
LOOPS = ("experiments.run_rate_experiment", "experiments.run_adaptivity_experiment")
FIXTURES = ("densities.make_trig_density", "densities.make_packing_density")
SAMPLER = "densities.rejection_sample"
LATTICE_CALLERS = ("experiments.mise", "densities.ClippedDensity.__init__")

# name, unit, better; in the order they are printed
PER_LAYER = (
    ("fourier.coeff_s", "s", "lower"),
    ("fourier.coeff_terms", "count", "lower"),
    ("fourier.coeff_peak_mb", "MB", "lower"),
    ("fourier.eval_points_s", "s", "lower"),
    ("fourier.eval_terms", "count", "lower"),
    ("fourier.eval_lattice_s", "s", "lower"),
    ("fourier.eval_lattice_setup_s", "s", "lower"),
    ("fourier.project_s", "s", "lower"),
    ("fourier.project_calls", "count", "lower"),
    ("privacy.add_noise_s", "s", "lower"),
    ("privacy.noise_draws", "count", "lower"),
    ("estimator.fit_s", "s", "lower"),
    ("adaptive.select_self_s", "s", "lower"),
    ("adaptive.candidates", "count", "lower"),
    ("densities.sample_self_s", "s", "lower"),
    ("densities.proposals", "count", "lower"),
    ("densities.acceptance_rate", "ratio", "higher"),
    ("densities.packing_eval_s", "s", "lower"),
    ("densities.fixture_s", "s", "lower"),
    ("experiments.mise_s", "s", "lower"),
    ("experiments.loop_self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    op: object
    start: float = 0.0
    end: float = 0.0
    count: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) >= 2 else int(np.size(x))


def _coeff_terms(args, kwargs, result) -> float:
    return float(_rows(args[0])) * result.size


def _eval_terms(args, kwargs, result) -> float:
    return float(np.size(result)) * args[0].size


def _noise_draws(args, kwargs, result) -> float:
    return 2.0 * result.size


def _candidates(args, kwargs, result) -> float:
    return float(len(result[1].cutoffs))


def _one(args, kwargs, result) -> float:
    return 1.0


COUNTERS = {
    "fourier.empirical_coefficients": _coeff_terms,
    "fourier.evaluate_complex": _eval_terms,
    "fourier.project": _one,
    "privacy.add_noise": _noise_draws,
    "adaptive.lepskii_select": _candidates,
    "adaptive.penalized_bias_select": _candidates,
}


class Recorder:
    """Collects spans from wrapped privdens functions while `active`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op: object = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._peak_calls: list[tuple[int, object, tuple, dict]] = []
        self._peaks: dict[tuple, float] = {}

    # -- wrapping -----------------------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        holders = [package, *modules.values()]
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or hasattr(fn, "__wrapped__"):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._undo.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        if name == SAMPLER:
            call = _call_sampler
        elif name == "cli.main":
            call = _call_cli
        else:
            call = _call_plain
        counter = COUNTERS.get(name)
        probe = name == "fourier.empirical_coefficients"
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span = Span(name, rec._stack[-1] if rec._stack else None, rec.op)
            rec.spans.append(span)
            rec._stack.append(len(rec.spans) - 1)
            if probe:
                rec._peak_calls.append((len(rec.spans) - 1, fn, args, kwargs))
            span.start = time.perf_counter()
            try:
                result = call(fn, args, kwargs, span)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        return wrapper

    def start(self, op) -> None:
        """Record spans for `op` until `stop()`."""
        self.op, self.active = op, True
        self._peak_calls.clear()

    def stop(self) -> None:
        self.active = False

    def measure_peaks(self) -> None:
        """Replay the kernel calls recorded since the last `start()` under
        tracemalloc and store each call's allocation peak on its span.

        Call it after the op's clock has stopped: the timed call runs without
        tracemalloc's hooks, so `fourier.coeff_s` does not include them. The
        kernel's allocations depend only on the shapes of its arguments, so
        each shape is replayed once per run."""
        for idx, fn, args, kwargs in self._peak_calls:
            key = _shape_key(args, kwargs)
            if key not in self._peaks:
                self._peaks[key] = _traced_peak_mb(fn, args, kwargs)
            self.spans[idx].extra["peak_mb"] = self._peaks[key]
        self._peak_calls.clear()

    # -- derivation -----------------------------------------------------------

    def layer_metrics(self, traced_ops: list, op_seconds: dict, setup_reps: list,
                      overhead_pct: float) -> tuple[dict, list]:
        """Per-layer values (median over traced ops; set-up figures median
        over set-ups) and the per-layer self-time table of the traced ops."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration

        def self_time(i):
            return spans[i].duration - child_time[i]

        def ancestors(i):
            p = spans[i].parent
            while p is not None:
                yield spans[p].name
                p = spans[p].parent

        per_op = {op: {name: 0.0 for name, _u, _b in PER_LAYER} for op in traced_ops}
        accepted = {op: 0.0 for op in traced_ops}
        self_by_layer = {op: {} for op in traced_ops}
        per_setup = {rep: {"fixture": 0.0, "lattice": 0.0} for rep in setup_reps}
        for i, s in enumerate(spans):
            if s.op in per_setup:
                anc = set(ancestors(i))
                if s.name in FIXTURES and not anc & set(FIXTURES):
                    per_setup[s.op]["fixture"] += s.duration
                if s.name == "fourier.evaluate_complex" and "densities.make_trig_density" in anc:
                    per_setup[s.op]["lattice"] += s.duration
                continue
            if s.op not in per_op:
                continue
            m = per_op[s.op]
            layer = s.name.split(".", 1)[0]
            self_by_layer[s.op][layer] = self_by_layer[s.op].get(layer, 0.0) + self_time(i)
            name = s.name
            if name == "fourier.empirical_coefficients":
                m["fourier.coeff_s"] += s.duration
                m["fourier.coeff_terms"] += s.count
                m["fourier.coeff_peak_mb"] = max(m["fourier.coeff_peak_mb"], s.extra["peak_mb"])
            elif name == "fourier.evaluate_complex":
                anc = set(ancestors(i))
                if SAMPLER in anc:
                    m["fourier.eval_points_s"] += s.duration
                    m["fourier.eval_terms"] += s.count
                elif anc & set(LATTICE_CALLERS):
                    m["fourier.eval_lattice_s"] += s.duration
            elif name == "fourier.project":
                m["fourier.project_s"] += s.duration
                m["fourier.project_calls"] += s.count
            elif name == "privacy.add_noise":
                m["privacy.add_noise_s"] += s.duration
                m["privacy.noise_draws"] += s.count
            elif name == "estimator.fit":
                m["estimator.fit_s"] += s.duration
            elif name in SELECTORS:
                m["adaptive.select_self_s"] += self_time(i)
                m["adaptive.candidates"] += s.count
            elif name == SAMPLER:
                m["densities.sample_self_s"] += self_time(i)
                m["densities.proposals"] += s.extra["proposals"]
                accepted[s.op] += s.extra["accepted"]
            elif name == "densities.PackingDensity.evaluate":
                m["densities.packing_eval_s"] += s.duration
            elif name == "experiments.mise":
                m["experiments.mise_s"] += s.duration
            elif name in LOOPS:
                m["experiments.loop_self_s"] += self_time(i)
            elif name == "cli.main":
                m["cli.self_s"] += self_time(i)
                m["cli.bytes_written"] += s.extra["bytes"]
        for op in traced_ops:
            props = per_op[op]["densities.proposals"]
            per_op[op]["densities.acceptance_rate"] = accepted[op] / props if props else 0.0

        out = {}
        for name, unit, _b in PER_LAYER:
            vals = [per_op[op][name] for op in traced_ops]
            out[name] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
        if setup_reps:
            out["densities.fixture_s"]["value"] = statistics.median(
                per_setup[r]["fixture"] for r in setup_reps
            )
            out["fourier.eval_lattice_setup_s"]["value"] = statistics.median(
                per_setup[r]["lattice"] for r in setup_reps
            )
        out["trace.overhead_pct"]["value"] = overhead_pct

        table = []
        for layer in (*LAYERS, "outside privdens"):
            selfs, shares = [], []
            for op in traced_ops:
                total = op_seconds[op]
                if layer == "outside privdens":
                    v = total - sum(self_by_layer[op].values())
                else:
                    v = self_by_layer[op].get(layer, 0.0)
                selfs.append(v)
                shares.append(v / total if total > 0 else 0.0)
            calls = sum(
                1 for s in spans if s.op in per_op and s.name.split(".", 1)[0] == layer
            ) / max(len(traced_ops), 1)
            if selfs:
                table.append((layer, statistics.median(selfs), calls, statistics.median(shares)))
        return out, table


def _call_plain(fn, args, kwargs, span):
    return fn(*args, **kwargs)


def _shape_key(args, kwargs) -> tuple:
    def key(x):
        return ("array", np.shape(x), str(np.asarray(x).dtype)) if np.ndim(x) else repr(x)

    return tuple(key(a) for a in args) + tuple((k, key(v)) for k, v in sorted(kwargs.items()))


def _traced_peak_mb(fn, args, kwargs) -> float:
    # tracemalloc sees numpy's buffers; the peak is measured from the call's start
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _call_sampler(fn, args, kwargs, span):
    # The statistics come back only on request; asking for them changes
    # nothing else (the same draws in the same order), and the caller gets
    # the return value it asked for.
    wanted = kwargs.get("return_stats", False)
    points, stats = fn(*args, **{**kwargs, "return_stats": True})
    span.extra["proposals"] = float(stats["proposals"])
    span.extra["accepted"] = float(stats["accepted"])
    return (points, stats) if wanted else points


def _call_cli(fn, args, kwargs, span):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    result = fn(*args, **kwargs)
    outputs = [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok in ("--out", "--trace")]
    span.extra["bytes"] = float(sum(Path(p).stat().st_size for p in outputs if Path(p).is_file()))
    return result
