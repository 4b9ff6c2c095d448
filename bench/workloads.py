"""The three benchmark workloads.

Each workload is a closed loop in one process. `setup(rep)` builds what every
operation needs and is timed as set-up; `prepare(i)` makes operation i's fresh
input outside the timed region; `op(i)` is the timed operation and returns
its step times and what the checks need; `check(i, payload)` compares the
outputs with computations from `reference` and returns a list of problems;
`check_sampler(i)`, shared by all three, tests `rejection_sample` on its own;
`finish()` makes the checks that need the whole run. privdens functions are
always looked up on their modules at call time, so a traced run sees them
through its wrappers.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import reference as ref

N_RELEASE = 2**14
SWEEP_NS = [2**k for k in range(8, 16)]
SWEEP_RHOS = [2.0**-k for k in range(10, -1, -1)]
N_MULTIDIM = 4096
# Per-axis midpoint lattice of the package's quadrature MISE (documented in
# privdens.densities): 2^7 points per axis in d = 2, 2^5 in d = 3.
LATTICE = {2: 2**7, 3: 2**5}
# Slack on the per-cell expected-MISE bound bias + K/n + 2 K sigma^2 (README).
MISE_SLACK = 3.0
KERNEL_TOL = 1e-12
# The sampler check's target, prod_j (1 + 2a cos(2 pi x_j)), and its sample sizes.
SAMPLER_A = 0.45
SAMPLER_N = {1: 2**16, 2: 2**15}
REL_TOL = 1e-12
MISE_TOL = 1e-9


def sub_seed(seed: int, *indices: int) -> int:
    """A 32-bit seed for privdens calls, derived from the benchmark seed."""
    return int(np.random.SeedSequence([int(seed), *map(int, indices)]).generate_state(1)[0])


def _close(a, b, rel=REL_TOL) -> bool:
    return abs(float(a) - float(b)) <= rel * abs(float(b))


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


class OpFailed(RuntimeError):
    """An operation that did not complete (non-zero exit or exception)."""


class Workload:
    name = ""
    setup_reps = 3
    steps: tuple[str, ...] = ()

    def __init__(self, pd, seed: int, tmp: Path):
        self.pd = pd
        self.seed = int(seed)
        self.tmp = tmp

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, payload) -> list[str]:
        raise NotImplementedError

    def check_sampler(self, i: int) -> list[str]:
        """rejection_sample on a density far from uniform whose sup bound is
        tight: prod_j (1 + 2a cos(2 pi x_j)) in d = 1 and 2, as a
        ClippedDensity (clipping changes nothing, since it is positive). The
        sample's coefficients over {-2..2}^d must match the exact ones within
        five standard errors (5/sqrt(n)). Every workload times the sampler,
        and the data of the other checks comes from the same sampler, so
        this is the check that sees it."""
        dens = self.pd.densities
        problems = []
        for d, n in SAMPLER_N.items():
            grid = self.pd.fourier.CoefficientGrid(d, 1, ref.cosine_product_cube(SAMPLER_A, 1, d))
            pts = dens.rejection_sample(dens.ClippedDensity(grid), n,
                                        ref.derived_rng(self.seed, i, 1 << 21, d))
            if pts.shape != (n, d) or pts.min() < 0.0 or pts.max() > 1.0:
                problems.append(f"sampler d={d}: shape {pts.shape}, range [{pts.min()}, {pts.max()}]")
                continue
            worst = _max_abs(ref.coefficients(pts, 2), ref.cosine_product_cube(SAMPLER_A, 2, d))
            if worst * math.sqrt(n) > 5.0:
                problems.append(f"sampler d={d}: coefficients off by "
                                f"{worst * math.sqrt(n):.2f} standard errors")
        return problems

    def finish(self) -> list[str]:
        return []

    def describe(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# shared checks of a selection trace
# ---------------------------------------------------------------------------


def check_selection(trace: dict, n: int, d: int, rho: float) -> list[str]:
    """Release calibration and an independent replay of the selection rule.

    trace is the JSON form of a SelectionTrace."""
    problems = []
    method = trace["method"]
    cutoffs = [int(c) for c in trace["cutoffs"]]
    if trace["n"] != n or trace["d"] != d:
        problems.append(f"{method}: trace n/d {trace['n']}/{trace['d']} != {n}/{d}")
    if method == "penalized-bias":
        own_cutoffs = ref.dyadic_grid(n, d)
        rho_prime = rho / len(own_cutoffs)
        expected_spent = rho
    else:
        c = trace["constants"]
        betas, rho_prime, own_cutoffs = ref.lepskii_grid(n, c["eps"], rho, d)
        expected_spent = len(own_cutoffs) * rho_prime
        if expected_spent > rho * (1 + REL_TOL):
            problems.append(f"lepskii: k_n rho' = {expected_spent} exceeds rho = {rho}")
    if cutoffs != own_cutoffs:
        return problems + [f"{method}: cut-offs {cutoffs[:8]}... differ from {own_cutoffs[:8]}..."]
    if not _close(trace["rho_per_candidate"], rho_prime):
        problems.append(f"{method}: rho' {trace['rho_per_candidate']} != {rho_prime}")
    bad = [
        m for m, (s, c) in enumerate(zip(trace["sigmas"], cutoffs))
        if not _close(s, ref.sigma(n, rho_prime, c, d))
    ]
    if bad:
        problems.append(f"{method}: sigma off 2 sqrt(K)/(n sqrt(rho')) at candidates {bad[:5]}")
    entries = trace["ledger"]["entries"]
    if len(entries) != len(cutoffs) or any(not _close(r, rho_prime) for _l, r in entries):
        problems.append(f"{method}: ledger has {len(entries)} entries, want {len(cutoffs)} of rho'")
    if trace["rho_spent"] is None or not _close(trace["rho_spent"], expected_spent):
        problems.append(f"{method}: rho_spent {trace['rho_spent']} != {expected_spent}")

    if method == "penalized-bias":
        idx, lam1, lam2 = ref.penalized_bias_index(trace["proj_distances"], cutoffs, n, rho_prime, d)
        if _max_abs(lam1, trace["lambda1"]) > REL_TOL * max(lam1) or _max_abs(
            lam2, trace["lambda2"]
        ) > REL_TOL * max(lam2):
            problems.append("penalized-bias: Lambda1/Lambda2 differ from their formulas")
    else:
        c = trace["constants"]
        idx, thr = ref.lepskii_index(
            trace["distances"], trace["sigmas"], cutoffs, betas, n, rho_prime, d, c["C"], c["a"]
        )
        if _max_abs(thr, trace["thresholds"]) > REL_TOL * max(thr):
            problems.append("lepskii: thresholds differ from C (log n)^a r(beta)")
    if idx != trace["selected_index"] or cutoffs[idx] != trace["selected_cutoff"]:
        problems.append(
            f"{method}: selected index {trace['selected_index']}, the rule gives {idx}"
        )
    return problems


def replayed_noise(rng: np.random.Generator, cutoffs, d: int) -> list[np.ndarray]:
    """Each candidate's noise, drawn in candidate order from a replayed generator."""
    return [ref.noise_draws(rng, ref.cube_size(c, d)) for c in cutoffs]


# ---------------------------------------------------------------------------
# adaptive-release
# ---------------------------------------------------------------------------


class AdaptiveRelease(Workload):
    """One op is one CLI session on a fresh points file of n = 2^14."""

    name = "adaptive-release"
    setup_reps = 10
    steps = ("pb_release_s", "lepskii_release_s", "fixed_release_s", "synth_sample_s")

    def __init__(self, pd, seed, tmp):
        super().__init__(pd, seed, tmp)
        self.points: dict[int, np.ndarray] = {}

    def _points_path(self, i: int) -> Path:
        return self.tmp / f"points_{i}.csv"

    def _draw(self, i: int) -> None:
        pts = self.pd.densities.rejection_sample(
            self.truth, N_RELEASE, ref.derived_rng(self.seed, i)
        )
        np.savetxt(self._points_path(i), pts, fmt="%.17g", delimiter=",")
        self.points[i] = pts

    def setup(self, rep: int) -> None:
        # the beta = 2, d = 1 fixture of acceptance criteria 8 and 9a
        self.truth = self.pd.densities.make_trig_density(
            2.0, 2.0, M_truth=20, d=1, rng=np.random.default_rng(7)
        )
        self._draw(rep)

    def prepare(self, i: int) -> None:
        if i not in self.points:
            self._draw(i)

    def _argv(self, i: int):
        p = self.tmp
        s = str(sub_seed(self.seed, i))
        data = str(self._points_path(i))
        return (
            ("pb_release_s", ["fit", data, "--adaptive", "penalized-bias", "--rho", "1",
                              "--trace", str(p / "pb_trace.json"), "--out", str(p / "pb.json"),
                              "--seed", s]),
            ("lepskii_release_s", ["fit", data, "--adaptive", "lepskii", "--rho", "1",
                                   "--trace", str(p / "lp_trace.json"),
                                   "--out", str(p / "lp.json"), "--seed", s]),
            ("fixed_release_s", ["fit", data, "--beta", "0.5", "--rho", "1",
                                 "--out", str(p / "fixed.json"), "--seed", s]),
            ("synth_sample_s", ["sample", str(p / "fixed.json"), "--n", str(N_RELEASE),
                                "--out", str(p / "synth.csv"), "--seed", s]),
        )

    def op(self, i: int):
        steps = {}
        for key, argv in self._argv(i):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = self.pd.cli.main(argv)
                steps[key] = time.perf_counter() - t0
            if code != 0:
                raise OpFailed(f"privdens {argv[0]} exited {code}: {err.getvalue().strip()}")
        return steps, int(argv[-1])

    def check(self, i: int, cli_seed) -> list[str]:
        pts = self.points.pop(i)
        self._points_path(i).unlink()
        p = self.tmp
        problems = []
        for est_name, trace_name in (("pb.json", "pb_trace.json"), ("lp.json", "lp_trace.json")):
            est = json.loads((p / est_name).read_text())
            trace = json.loads((p / trace_name).read_text())
            found = check_selection(trace, N_RELEASE, 1, 1.0)
            problems += found
            if found:
                continue
            sel = trace["selected_index"]
            cut = trace["cutoffs"][sel]
            if est["M"] != cut or not _close(est["sigma"], trace["sigmas"][sel]) or not _close(
                est["rho_spent"], trace["rho_spent"]
            ):
                problems.append(f"{est_name}: estimate disagrees with its trace")
                continue
            # undo the selected candidate's noise; what is left is the kernel's output
            noise = replayed_noise(np.random.default_rng(cli_seed), trace["cutoffs"][: sel + 1], 1)
            raw = np.asarray(est["re"]) + 1j * np.asarray(est["im"]) - est["sigma"] * noise[sel]
            err = _max_abs(raw, ref.coefficients(pts, cut))
            if err > KERNEL_TOL:
                problems.append(f"{est_name}: coefficients off the direct sum by {err:.3g}")

        fixed = json.loads((p / "fixed.json").read_text())
        cut = ref.tuned_cutoff(N_RELEASE, 1.0, 0.5, 1)
        sigma = ref.sigma(N_RELEASE, 1.0, cut, 1)
        values = np.asarray(fixed["re"]) + 1j * np.asarray(fixed["im"])
        if fixed["M"] != cut or not _close(fixed["sigma"], sigma) or fixed["rho_spent"] != 1.0:
            problems.append(f"fixed release: M/sigma/rho_spent {fixed['M']}/{fixed['sigma']}/"
                            f"{fixed['rho_spent']}, want {cut}/{sigma}/1")
        else:
            raw = values - sigma * ref.noise_draws(np.random.default_rng(cli_seed), values.size)
            err = _max_abs(raw, ref.coefficients(pts, cut))
            if err > KERNEL_TOL:
                problems.append(f"fixed release: coefficients off the direct sum by {err:.3g}")

        problems += self._check_kernels(pts, values, cut)
        problems += self._check_synthetic(values, cut)
        return problems

    def _check_kernels(self, pts, values, cut) -> list[str]:
        """The large-K coefficient path and evaluation at points, on a subset."""
        problems = []
        fourier = self.pd.fourier
        big = max(ref.dyadic_grid(N_RELEASE, 1))
        sub = pts[:1024]
        ks = np.concatenate([np.arange(-big, -big + 24), np.arange(-8, 9), np.arange(big - 23, big + 1)])
        got = fourier.empirical_coefficients(sub, big).values[ks + big]
        err = _max_abs(got, ref.coefficients_at(sub, ks[:, None]))
        if err > KERNEL_TOL:
            problems.append(f"empirical_coefficients at M={big}: off the direct sum by {err:.3g}")
        x = ref.derived_rng(self.seed, 1 << 20).random((256, 1))
        got = fourier.evaluate_complex(fourier.CoefficientGrid(1, cut, values), x)
        err = _max_abs(got, ref.evaluate_at(values, cut, 1, x))
        if err > KERNEL_TOL:
            problems.append(f"evaluate_complex at M={cut}: off the direct sum by {err:.3g}")
        return problems

    def _check_synthetic(self, values, cut) -> list[str]:
        """n points in [0,1] whose first Fourier coefficients match those of the
        normalized max(Re f_hat, 0) within five standard errors."""
        syn = np.loadtxt(self.tmp / "synth.csv", delimiter=",", ndmin=2)
        if syn.shape != (N_RELEASE, 1) or syn.min() < 0.0 or syn.max() > 1.0:
            return [f"synthetic points: shape {syn.shape}, range [{syn.min()}, {syn.max()}]"]
        grid_n = 2**13
        clipped = np.maximum(ref.evaluate_lattice(values, cut, 1, grid_n).real, 0.0)
        x = (np.arange(grid_n) + 0.5) / grid_n
        ks = np.arange(1, 5)
        target = np.array([np.mean(clipped * np.exp(-2j * np.pi * k * x)) for k in ks])
        target /= np.mean(clipped)
        got = ref.coefficients_at(syn, ks[:, None].astype(float))
        worst = float(np.max(np.abs(got - target)) * math.sqrt(N_RELEASE))
        if worst > 5.0:
            return [f"synthetic points: low-frequency coefficients off by {worst:.2f} standard errors"]
        return []

    def describe(self):
        return [
            f"inputs: points of the beta=2, d=1 criteria-8/9a fixture (M_truth=20, rng 7), "
            f"n={N_RELEASE}, op i draws from SeedSequence([seed, i]); CLI seed per op derived "
            f"from (seed, i)"
        ]


# ---------------------------------------------------------------------------
# rate-sweep
# ---------------------------------------------------------------------------


class RateSweep(Workload):
    """One op is one replicate of each of the 19 cells of criteria 6 and 7."""

    name = "rate-sweep"
    # a set-up takes about 4 ms; many of them spread the median over about
    # half a second, so one short slow spell of the machine does not set it
    setup_reps = 150
    steps = ("sampling_cells_s", "privacy_cells_s")

    def __init__(self, pd, seed, tmp):
        super().__init__(pd, seed, tmp)
        self.cell_mises: dict[tuple, list] = {}

    def setup(self, rep: int) -> None:
        # the beta = 1 fixture of acceptance criteria 6 and 7
        self.truth = self.pd.densities.make_trig_density(
            1.0, 2.0, M_truth=32, d=1, rng=np.random.default_rng(11)
        )
        self.density = self.truth.to_json_dict()

    def _configs(self, i: int):
        cfg = self.pd.experiments.ExperimentConfig
        common = dict(density=self.density, mode="oracle", replicates=1, d=1, beta=1.0)
        return (
            cfg(ns=SWEEP_NS, rhos=[10.0], seed=sub_seed(self.seed, i, 0), **common),
            cfg(ns=[2**14], rhos=SWEEP_RHOS, seed=sub_seed(self.seed, i, 1), **common),
        )

    def op(self, i: int):
        sampling, privacy_cfg = self._configs(i)
        run = self.pd.experiments.run_rate_experiment
        t0 = time.perf_counter()
        res_s = run(sampling)
        t1 = time.perf_counter()
        res_p = run(privacy_cfg)
        t2 = time.perf_counter()
        return (
            {"sampling_cells_s": t1 - t0, "privacy_cells_s": t2 - t1},
            ((sampling, res_s.records), (privacy_cfg, res_p.records)),
        )

    def check(self, i: int, payload) -> list[str]:
        problems = []
        cells = []
        for cfg, records in payload:
            expected = [(n, r) for n in cfg.ns for r in cfg.rhos]
            got = [(rec.n, rec.rho) for rec in records]
            if got != expected:
                return [f"records cover cells {got}, want {expected}"]
            for idx, rec in enumerate(records):
                cut = ref.tuned_cutoff(rec.n, rec.rho, 1.0, 1)
                if rec.replicate != 0 or rec.selected_M != cut or rec.rho_spent != rec.rho:
                    problems.append(f"cell n={rec.n} rho={rec.rho}: M {rec.selected_M} != {cut}")
                if not (math.isfinite(rec.mise) and rec.mise > 0):
                    problems.append(f"cell n={rec.n} rho={rec.rho}: MISE {rec.mise}")
                self.cell_mises.setdefault((rec.n, rec.rho), []).append(rec.mise)
                cells.append((cfg, idx, rec))
        if problems:
            return problems
        # rebuild one cell per pass, rotating through the 19
        cfg, idx, rec = cells[(i + self.seed) % len(cells)]
        return self._rebuild(cfg, idx, rec)

    def _rebuild(self, cfg, idx, rec) -> list[str]:
        rng = ref.derived_rng(cfg.seed, idx, 0)
        data = self.pd.densities.rejection_sample(self.truth, rec.n, rng)
        cut = rec.selected_M
        own = ref.coefficients(data, cut)
        problems = []
        err = _max_abs(self.pd.fourier.empirical_coefficients(data, cut).values, own)
        if err > KERNEL_TOL:
            problems.append(f"empirical_coefficients n={rec.n}: off the direct sum by {err:.3g}")
        tv = self.truth.coefficients.values
        x = data[:256]
        err = _max_abs(self.pd.fourier.evaluate_complex(self.truth.coefficients, x),
                       ref.evaluate_at(tv, 32, 1, x))
        if err > KERNEL_TOL:
            problems.append(f"evaluate_complex on the fixture: off the direct sum by {err:.3g}")
        est = own + ref.sigma(rec.n, rec.rho, cut, 1) * ref.noise_draws(rng, own.size)
        mise = ref.padded_distance_sq(est, cut, tv, 32, 1)
        if not _close(mise, rec.mise, rel=MISE_TOL):
            problems.append(f"cell n={rec.n} rho={rec.rho}: MISE {rec.mise}, rebuilt {mise}")
        return problems

    def finish(self) -> list[str]:
        problems = []
        tv = self.truth.coefficients.values
        worst = 0.0
        for (n, rho), mises in self.cell_mises.items():
            cut = ref.tuned_cutoff(n, rho, 1.0, 1)
            size = ref.cube_size(cut, 1)
            bound = ref.tail_energy(tv, 32, cut, 1) + size / n + 2 * size * ref.sigma(n, rho, cut, 1) ** 2
            ratio = float(np.mean(mises)) / bound
            worst = max(worst, ratio)
            if ratio > MISE_SLACK:
                problems.append(f"cell n={n} rho={rho}: mean MISE {ratio:.2f} x the bound")
        self.worst_ratio = worst
        return problems

    def describe(self):
        lines = [
            "inputs: beta=1, d=1 criteria-6/7 fixture (M_truth=32, rng 11); cells "
            "n=2^8..2^15 at rho=10 and n=2^14 at rho=2^-10..1, one replicate each; "
            "config seeds per op derived from (seed, i)"
        ]
        if hasattr(self, "worst_ratio"):
            lines.append(
                f"largest per-cell mean MISE / (bias + K/n + 2 K sigma^2): {self.worst_ratio:.3f} "
                f"(limit {MISE_SLACK})"
            )
        return lines


# ---------------------------------------------------------------------------
# multidim
# ---------------------------------------------------------------------------


class _SelectorTap:
    """Keeps what each selector call received and returned, for the checks.

    It stands in front of whatever `privdens.adaptive` holds (the traced
    wrapper in a traced run) and copies the generator state on entry, so the
    candidates' noise can be replayed."""

    def __init__(self, adaptive):
        self.calls = []
        for name in ("lepskii_select", "penalized_bias_select"):
            setattr(adaptive, name, self._tap(getattr(adaptive, name)))

    def _tap(self, fn):
        def tapped(data, rho, *args, **kwargs):
            rng = kwargs.get("rng", args[-1] if args else None)
            state = copy.deepcopy(rng.bit_generator.state)
            est, trace = fn(data, rho, *args, **kwargs)
            self.calls.append((data, rho, type(rng.bit_generator), state, est, trace))
            return est, trace

        return tapped


class Multidim(Workload):
    """One op: adaptivity at n = 4096 on d = 2 and d = 3 trig fixtures in both
    modes, then oracle fits on d = 2 and d = 3 packing fixtures."""

    name = "multidim"
    setup_reps = 3
    steps = ("md_select_s", "md_packing_s")

    def setup(self, rep: int) -> None:
        dens = self.pd.densities
        self.trig = {
            2: dens.make_trig_density(2.0, 2.0, M_truth=8, d=2, rng=np.random.default_rng(21)),
            3: dens.make_trig_density(2.0, 2.0, M_truth=4, d=3, rng=np.random.default_rng(31)),
        }
        self.packing = {
            d: dens.make_packing_density(
                np.random.default_rng(40 + d).integers(0, 2, size=4**d), 4, 1.0, d=d
            )
            for d in (2, 3)
        }
        self.trig_json = {d: t.to_json_dict() for d, t in self.trig.items()}
        self.packing_json = {d: p.to_json_dict() for d, p in self.packing.items()}
        if not hasattr(self, "tap"):
            self.tap = _SelectorTap(self.pd.adaptive)

    def _configs(self, i: int):
        cfg = self.pd.experiments.ExperimentConfig
        select = [
            cfg(density=self.trig_json[d], ns=[N_MULTIDIM], rhos=[1.0], mode=mode, replicates=1,
                seed=sub_seed(self.seed, i, j), d=d, beta=2.0)
            for j, (d, mode) in enumerate(
                (d, mode) for d in (2, 3) for mode in ("penalized-bias", "lepskii")
            )
        ]
        packing = [
            cfg(density=self.packing_json[d], ns=[N_MULTIDIM], rhos=[1.0], mode="oracle",
                replicates=1, seed=sub_seed(self.seed, i, 4 + d), d=d, beta=1.0)
            for d in (2, 3)
        ]
        return select, packing

    def op(self, i: int):
        select, packing = self._configs(i)
        exp = self.pd.experiments
        self.tap.calls.clear()
        t0 = time.perf_counter()
        sel_res = [exp.run_adaptivity_experiment(c) for c in select]
        t1 = time.perf_counter()
        pack_res = [exp.run_rate_experiment(c) for c in packing]
        t2 = time.perf_counter()
        calls = list(self.tap.calls)
        return (
            {"md_select_s": t1 - t0, "md_packing_s": t2 - t1},
            (list(zip(select, sel_res)), list(zip(packing, pack_res)), calls),
        )

    def check(self, i: int, payload) -> list[str]:
        selected, packed, calls = payload
        if len(calls) != len(selected):
            return [f"{len(calls)} selector calls seen, want {len(selected)}"]
        problems = []
        for (cfg, res), call in zip(selected, calls):
            problems += self._check_adaptive(cfg, res, call)
        for cfg, res in packed:
            problems += self._check_packing(cfg, res)
        return problems

    def _check_adaptive(self, cfg, res, call) -> list[str]:
        data, rho, bitgen, state, est, trace = call
        d = cfg.d
        tag = f"d={d} {cfg.mode}"
        tj = trace.to_json_dict()
        problems = [f"{tag}: {p}" for p in check_selection(tj, N_MULTIDIM, d, 1.0)]
        if problems:
            return problems
        rec, oracle = res.records
        truth = self.trig[d].coefficients
        if rec.selected_M != trace.selected_cutoff or rec.rho_spent != trace.rho_spent:
            problems.append(f"{tag}: record disagrees with its trace")
        mise = ref.padded_distance_sq(est.coefficients.values, est.cutoff, truth.values,
                                      truth.cutoff, d)
        if not _close(mise, rec.mise, rel=MISE_TOL):
            problems.append(f"{tag}: MISE {rec.mise}, recomputed {mise}")
        if oracle.selected_M != ref.tuned_cutoff(N_MULTIDIM, 1.0, 2.0, d) or oracle.rho_spent != 1.0:
            problems.append(f"{tag}: oracle record M {oracle.selected_M}")
        # every candidate minus its replayed noise is the d-dimensional kernel's output
        rng = np.random.Generator(bitgen())
        rng.bit_generator.state = state
        noise = replayed_noise(rng, trace.cutoffs, d)
        top = max(trace.cutoffs)
        master = ref.coefficients(data, top).reshape((2 * top + 1,) * d)
        err = 0.0
        for cand, s, c, z in zip(trace.candidates, trace.sigmas, trace.cutoffs, noise):
            sl = (slice(top - c, top + c + 1),) * d
            err = max(err, _max_abs(cand.coefficients.values - s * z, master[sl].reshape(-1)))
        if err > KERNEL_TOL:
            problems.append(f"{tag}: candidate coefficients off the direct sum by {err:.3g}")
        x = data[:256]
        err = _max_abs(self.pd.fourier.evaluate_complex(truth, x),
                       ref.evaluate_at(truth.values, truth.cutoff, d, x))
        if err > KERNEL_TOL:
            problems.append(f"{tag}: evaluate_complex off the direct sum by {err:.3g}")
        return problems

    def _check_packing(self, cfg, res) -> list[str]:
        d = cfg.d
        (rec,) = res.records
        cut = ref.tuned_cutoff(N_MULTIDIM, 1.0, 1.0, d)
        if rec.selected_M != cut or rec.rho_spent != 1.0:
            return [f"packing d={d}: M {rec.selected_M} != {cut}"]
        truth = self.packing[d]
        rng = ref.derived_rng(cfg.seed, 0, 0)
        data = self.pd.densities.rejection_sample(truth, N_MULTIDIM, rng)
        est = ref.coefficients(data, cut)
        est = est + ref.sigma(N_MULTIDIM, 1.0, cut, d) * ref.noise_draws(rng, est.size)
        lattice = ref.midpoint_lattice(d, LATTICE[d])
        f = ref.packing_values(lattice, truth.theta, truth.m, truth.h, truth.beta,
                               truth.amplitude, truth.offset)
        diff = f - ref.evaluate_lattice(est, cut, d, LATTICE[d]).real
        mise = float(np.mean(diff * diff))
        if not _close(mise, rec.mise, rel=MISE_TOL):
            return [f"packing d={d}: MISE {rec.mise}, recomputed {mise}"]
        return []

    def describe(self):
        return [
            "inputs: beta=2 trig fixtures d=2 (M_truth=8, rng 21) and d=3 (M_truth=4, rng 31); "
            "beta=1 packing fixtures m=4, d=2 and d=3 (bits from rng 42, 43); n=4096, rho=1, "
            "one replicate; config seeds per op derived from (seed, i)"
        ]


WORKLOADS = {w.name: w for w in (AdaptiveRelease, RateSweep, Multidim)}
