"""privdens benchmark: three closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload adaptive-release --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads: adaptive-release, rate-sweep, multidim (see README.md). The
package is imported from ./src; no install is needed. --trace 0 prints the
end-to-end metrics (set-up time, operation time, peak RSS); --trace 1 times
every layer through wrappers around privdens's public functions and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Scratch files go to
.bench_tmp/ under the checkout and are removed at exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("adaptive-release", "rate-sweep", "multidim")


def import_package():
    """Import privdens from ./src of this checkout and nowhere else."""
    if not (SRC / "privdens" / "__init__.py").is_file():
        raise SystemExit(f"bench: no privdens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    import privdens

    for layer in ("fourier", "privacy", "estimator", "adaptive", "densities", "experiments", "cli"):
        importlib.import_module(f"privdens.{layer}")
    if Path(privdens.__file__).resolve().parent != (SRC / "privdens").resolve():
        raise SystemExit(f"bench: privdens was imported from {privdens.__file__}, not {SRC}")
    return privdens


def machine_block() -> list[str]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [
        f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}",
        f"blas {blas.get('name', '?')} {blas.get('version', '?')}, threads {_blas_threads()}",
    ]


def _blas_threads() -> str:
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return "unknown"


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pd = import_package()
    from spans import PER_LAYER, Recorder

    from workloads import WORKLOADS

    for line in machine_block():
        print(line)
    tmp = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    recorder = Recorder() if trace else None
    if recorder:
        recorder.install(pd)
    try:
        wl = WORKLOADS[name](pd, seed, tmp)
        print(f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")

        setup_times = []
        for rep in range(wl.setup_reps):
            if recorder:
                recorder.start(("setup", rep))
            t0 = time.perf_counter()
            wl.setup(rep)
            setup_times.append(time.perf_counter() - t0)
            if recorder:
                recorder.stop()

        attempted = failed = 0
        op_seconds: dict[int, float] = {}
        traced_ops: list[int] = []
        steps = {k: [] for k in wl.steps}
        min_ops = 2 if trace else 1
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds:
            wl.prepare(i)
            gc.collect()  # so a collection of earlier garbage does not land inside the op
            traced = bool(recorder) and i % 2 == 1
            attempted += 1
            try:
                if traced:
                    recorder.start(i)
                t0 = time.perf_counter()
                step_times, payload = wl.op(i)
                op_seconds[i] = time.perf_counter() - t0
            except Exception:
                failed += 1
                print(f"op {i} failed:\n{traceback.format_exc()}")
                i += 1
                continue
            finally:
                if recorder:
                    recorder.stop()
            if traced:
                traced_ops.append(i)
                recorder.measure_peaks()  # after the op's clock has stopped
            for k, v in step_times.items():
                steps[k].append(v)
            try:
                problems = wl.check(i, payload) + wl.check_sampler(i)
            except Exception:
                problems = [f"check raised:\n{traceback.format_exc()}"]
            if problems:
                failed += 1
                print(f"op {i} output check failed:")
                for p in problems:
                    print(f"  {p}")
            i += 1

        run_problems = wl.finish()
        for p in run_problems:
            print(f"run check failed: {p}")
        for line in wl.describe():
            print(line)
        correct = failed == 0 and not run_problems
        untraced = [t for j, t in op_seconds.items() if j not in traced_ops]
        print(f"ops attempted {attempted}, failed {failed}, timed {len(untraced)} untraced"
              f" + {len(traced_ops)} traced")
        print(f"setup_s {_median(setup_times):.6f} s (median of {len(setup_times)} set-ups)")
        if untraced:
            print(f"op_s {_median(untraced):.6f} s (median of {len(untraced)} ops;"
                  f" each: {' '.join(f'{t:.3f}' for t in untraced)})")
        for k, v in steps.items():
            if v:
                print(f"  {k} {_median(v):.6f} s (median of {len(v)}, traced ops included)"
                      if trace else f"  {k} {_median(v):.6f} s (median of {len(v)})")

        if not trace:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"peak_rss_mb {rss_mb:.3f} MB")
            values = {"setup_s": _median(setup_times), "op_s": _median(untraced),
                      "peak_rss_mb": rss_mb}
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        else:
            traced_med = _median([op_seconds[j] for j in traced_ops])
            base = _median(untraced)
            overhead = 100.0 * (traced_med / base - 1.0) if traced_med and base else 0.0
            metrics, table = recorder.layer_metrics(traced_ops, op_seconds, [
                ("setup", r) for r in range(wl.setup_reps)
            ], overhead)
            print(f"traced op median {traced_med} s vs untraced {base} s:"
                  f" tracing overhead {overhead:.2f} %")
            print("layer self time per op (median over traced ops), calls per op, share of op:")
            for layer, self_s, calls, share in table:
                print(f"  {layer:<17} {self_s:10.6f} s  {calls:9.1f} calls  {100 * share:6.2f} %")
            print("per-layer metrics:")
            for key, unit, _b in PER_LAYER:
                print(f"  {key} {metrics[key]['value']:.6g} {unit}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        if recorder:
            recorder.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    import_package()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"[{name}] exited {proc.returncode} without a result")
            return 1
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, val in result["metrics"].items():
            metrics[f"{name}.{key}"] = val
            print(f"{name} {key} {val['value']} {val['unit']}")
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
