"""Acceptance suite: one test per release criterion, run at full scale.

Each test prints a single ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the same condition.  Criteria that share an
expensive computation reuse module-scoped fixtures, so the suite stays well
inside its runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

import poisson_cs as pcs
from poisson_cs import solvers
from poisson_cs.divergences import jsd_rowwise
from poisson_cs.experiments import (
    ExperimentSpec,
    make_test_image,
    run_image_recon,
    run_sweep,
    run_verify_stats,
    write_sweep_csv,
)
from poisson_cs.solvers import (
    FitKind,
    FitTerm,
    SolverConfig,
    fit_value_and_gradient,
    gradient_scale,
    solve_penalized,
)
from poisson_cs.sqjsd_stats import ks_gaussian_test, monte_carlo_sqjsd
from poisson_cs.transforms import identity_basis, write_pgm


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _dense_signal(m, intensity, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, m)
    return x * (intensity / x.sum())


# Split 10^4 trials across a few dimensions, rest vectorized per batch.
_TRIAL_DIMS = (1, 2, 3, 5, 10, 50)


def _batches(total=10_000):
    per = total // len(_TRIAL_DIMS)
    return [(d, per) for d in _TRIAL_DIMS[:-1]] + [
        (_TRIAL_DIMS[-1], total - per * (len(_TRIAL_DIMS) - 1))
    ]


class TestCriterion1DivergenceInequalities:
    def test_sqjsd_triangle_inequality(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = -np.inf
        for dim, count in _batches():
            P = rng.uniform(0, 10, (count, dim))
            Q = rng.uniform(0, 10, (count, dim))
            R = rng.uniform(0, 10, (count, dim))
            spq = np.sqrt(jsd_rowwise(P, Q))
            spr = np.sqrt(jsd_rowwise(P, R))
            sqr = np.sqrt(jsd_rowwise(Q, R))
            worst = max(worst, float(np.max(spq - spr - sqr)))
            # Symmetry is exact; identity of indiscernibles in both
            # directions (equal-within-1e-14 pairs sit below 1e-12,
            # macroscopically distinct pairs sit above it).
            assert np.array_equal(jsd_rowwise(P, Q), jsd_rowwise(Q, P))
            assert np.all(np.sqrt(jsd_rowwise(P, P)) < 1e-12)
            near = P * (1.0 + 1e-15) + 1e-16
            assert np.all(np.sqrt(jsd_rowwise(P, near)) < 1e-12)
            macro = np.max(np.abs(P - Q), axis=1) > 1e-6
            assert np.all(spq[macro] > 1e-12)
        # Spot-check the scalar API on a subsample.
        for _ in range(200):
            p, q, r = (rng.uniform(0, 10, 4) for _ in range(3))
            assert (
                pcs.sqjsd(p, q)
                <= pcs.sqjsd(p, r) + pcs.sqjsd(q, r) + 1e-10
            )
        elapsed = time.perf_counter() - t0
        _report(1, worst <= 1e-10 and elapsed < 10.0,
                f"sqjsd triangle inequality: worst violation {worst:.2e}, {elapsed:.1f}s")

    def test_tv_delta_jsd_chain(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(102)
        worst_lo = worst_hi = -np.inf
        for dim, count in _batches():
            P = rng.uniform(0, 1, (count, dim))
            Q = rng.uniform(0, 1, (count, dim))
            P *= (rng.uniform(0, 1, count) / np.maximum(P.sum(axis=1), 1e-300))[:, None]
            Q *= (rng.uniform(0, 1, count) / np.maximum(Q.sum(axis=1), 1e-300))[:, None]
            V = np.sum(np.abs(P - Q), axis=1)
            S = P + Q
            with np.errstate(invalid="ignore"):
                D = np.where(S > 0, (P - Q) ** 2 / np.where(S > 0, S, 1.0), 0.0).sum(axis=1)
            J = jsd_rowwise(P, Q)
            worst_lo = max(worst_lo, float(np.max(0.5 * V**2 - D)))
            worst_hi = max(worst_hi, float(np.max(D - 4.0 * J)))
        elapsed = time.perf_counter() - t0
        ok = worst_lo <= 1e-10 and worst_hi <= 1e-10 and elapsed < 10.0
        _report(1, ok,
                f"V^2/2 <= Delta <= 4J chain: slack {worst_lo:.2e}, {worst_hi:.2e}, "
                f"{elapsed:.1f}s")

    def test_jsd_quarter_sym_kl_bound(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(103)
        worst = -np.inf
        for dim, count in _batches():
            U = rng.uniform(1e-3, 10, (count, dim))
            V = rng.uniform(1e-3, 10, (count, dim))
            Ds = np.sum((U - V) * np.log(U / V), axis=1)
            J = jsd_rowwise(U, V)
            worst = max(worst, float(np.max(J - 0.25 * Ds)))
        elapsed = time.perf_counter() - t0
        _report(1, worst <= 1e-10 and elapsed < 10.0,
                f"J <= Ds/4: worst excess {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def stats_grid_report():
    spec = ExperimentSpec(
        kind="verify-stats",
        grid={"n_measurements": [50, 100, 500], "intensity": [1e3, 1e4, 1e6]},
        trials=1000,
        master_seed=42,
    )
    return run_verify_stats(spec)


class TestCriterion2MeanBound:
    def test_mean_bound_every_cell(self, stats_grid_report):
        t0 = time.perf_counter()
        cells = stats_grid_report["cells"]
        assert len(cells) == 9
        bad = [
            (c["N"], c["I"], c["mean"], c["bounds"]["mean_bound"])
            for c in cells
            if c["mean"] > c["bounds"]["mean_bound"]
        ]
        margin = min(c["bounds"]["mean_bound"] - c["mean"] for c in cells)
        _report(2, not bad,
                f"mean of sqjsd <= sqrt(N/4) in 9/9 cells (min margin {margin:.3f}), "
                f"{time.perf_counter() - t0 + stats_grid_report['wall_clock_s']:.1f}s")


class TestCriterion3VarianceBound:
    def test_variance_bound_high_rate_cells(self, stats_grid_report):
        cells = [c for c in stats_grid_report["cells"] if c["bounds"]["s_min"] > 5.0]
        assert cells, "no cells with every s_i > 5"
        cap = 11.0 / 8.0 * 1.2
        worst = max(c["var"] for c in cells)
        _report(3, worst <= cap,
                f"variance {worst:.3f} <= {cap:.3f} in {len(cells)} qualifying cells")


class TestCriterion4Gaussianity:
    def test_ks_at_one_percent(self):
        t0 = time.perf_counter()
        results = []
        for seed in (0, 1):  # one retry allowed: the KS test is stochastic
            phi = pcs.build_phi(pcs.sample_rip_matrix(100, 500, 0.5, seed=3 * seed))
            ss = monte_carlo_sqjsd(phi.rates(_dense_signal(500, 1e4, 3 * seed + 1)),
                                   1000, seed=3 * seed + 2)
            res = ks_gaussian_test(ss.samples, alpha=0.01)
            results.append(res)
            if res.passed:
                break
        ok = any(r.passed for r in results)
        _report(4, ok,
                f"KS statistic {results[-1].statistic:.4f} vs critical "
                f"{results[-1].critical:.4f} (attempts: {len(results)}), "
                f"{time.perf_counter() - t0:.1f}s")


class TestCriterion5SqrtNScaling:
    def test_p99_loglog_slope(self):
        t0 = time.perf_counter()
        Ns = [25, 50, 100, 200, 400]
        p99 = []
        for i, N in enumerate(Ns):
            phi = pcs.build_phi(pcs.sample_rip_matrix(N, 2 * N, 0.5, seed=10 + i))
            ss = monte_carlo_sqjsd(phi.rates(_dense_signal(2 * N, 1e6, 20 + i)),
                                   1000, seed=30 + i)
            p99.append(ss.percentile(99.0))
        slope = float(np.polyfit(np.log(Ns), np.log(p99), 1)[0])
        elapsed = time.perf_counter() - t0
        _report(5, 0.40 <= slope <= 0.55 and elapsed < 120.0,
                f"p99 log-log slope {slope:.3f} in [0.40, 0.55], {elapsed:.1f}s")


class TestCriterion6GradientOracle:
    def test_all_fits_match_finite_differences(self):
        # Every fit is a sum of per-coordinate terms, so component i is held
        # against the five-point central difference of its own term.  (A
        # difference of two full sums of about 1e4 is mostly rounding where
        # u_i ~ y_i and the component is near 0.)
        t0 = time.perf_counter()
        worst = 0.0
        for seed, kind in enumerate(FitKind):
            rng = np.random.default_rng(seed)
            fit = FitTerm(kind)
            for _ in range(100):
                n = int(rng.integers(2, 30))
                y = rng.integers(1, 400, n).astype(float)
                u = rng.uniform(0.5, 500.0, n)
                _, grad = fit_value_and_gradient(fit, y, u)
                h = 1e-3 * np.maximum(np.abs(u), 1.0)
                for i in range(n):
                    def term(k):
                        return fit_value_and_gradient(fit, y[i:i + 1], u[i:i + 1] + k * h[i])[0]
                    fd = (8.0 * (term(1) - term(-1)) - (term(2) - term(-2))) / (12.0 * h[i])
                    rel = abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-8)
                    worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        _report(6, worst < 1e-5 and elapsed < 5.0,
                f"worst relative gradient error {worst:.2e} over 3x100 points, "
                f"{elapsed:.1f}s")


class TestCriterion7SmallInstanceOracle:
    def test_lattice_brute_force(self, monkeypatch):
        t0 = time.perf_counter()
        m, N, s, intensity = 6, 8, 2, 200.0
        rng = np.random.default_rng(0)
        x = np.zeros(m)
        x[rng.choice(m, s, replace=False)] = rng.uniform(0.5, 1.5, s)
        x *= intensity / x.sum()
        phi = pcs.build_phi(pcs.sample_rip_matrix(N, m, 0.5, seed=1))
        mv = pcs.measure(phi, x, seed=2)
        basis = identity_basis(m)
        fit = FitTerm(FitKind.JSD)
        lam = 0.05 * gradient_scale(phi.entries, basis, mv, fit)
        # A tighter flat stop than the library's, for a solve near the optimum.
        monkeypatch.setattr(solvers, "_OBJECTIVE_TOL", 1e-12)
        res = solve_penalized(phi.entries, basis, mv, fit, lam, SolverConfig(max_iters=4000))
        y = mv.astype(float)
        A = phi.entries

        def objective(thetas):
            # Independent evaluation of lam*||.||_1 + J(y, A theta).
            U = thetas @ A.T
            S = y[None, :] + U
            with np.errstate(invalid="ignore", divide="ignore"):
                ty = np.where(y[None, :] > 0, y[None, :] * np.log1p((y - U) / S), 0.0)
                tu = np.where(U > 0, U * np.log1p((U - y) / S), 0.0)
            J = 0.5 * np.sum(np.where(S > 0, ty + tu, 0.0), axis=1)
            return lam * np.sum(np.abs(thetas), axis=1) + J

        f_solver = float(objective(res.theta_star[None, :])[0])
        # Multi-resolution lattice over [0, 2*intensity]^m, refined below 1e-3.
        K = 7
        center = np.full(m, intensity)
        half = np.full(m, intensity)
        f_oracle = np.inf
        while half.max() > 2.5e-4:
            axes = [np.linspace(c - h, c + h, K) for c, h in zip(center, half)]
            grid = np.maximum(np.array(list(itertools.product(*axes))), 0.0)
            vals = objective(grid)
            i = int(np.argmin(vals))
            f_oracle = min(f_oracle, float(vals[i]))
            center = grid[i]
            half = half * (2.0 / (K - 1))
        diff = abs(f_solver - f_oracle)
        elapsed = time.perf_counter() - t0
        _report(7, diff <= 1e-2 and elapsed < 30.0,
                f"|F(solver) - F(lattice)| = {diff:.2e} <= 1e-2, {elapsed:.1f}s")


def _intensity_sweep_spec():
    return ExperimentSpec(
        kind="intensity",
        grid={"intensity": [1e4, 1e6, 1e8]},
        trials=10,
        master_seed=1,
        solver="P2",
        epsilon_mode="theory",
    )


@pytest.fixture(scope="module")
def intensity_sweep_manifest():
    return run_sweep(_intensity_sweep_spec())


class TestCriterion8IntensityTrend:
    def test_median_rrmse_decreasing_in_intensity(self, intensity_sweep_manifest):
        cells = intensity_sweep_manifest["cells"]
        meds = [c["rrmse"]["median"] for c in cells]
        decreasing = meds[0] > meds[1] > meds[2]
        ok = decreasing and meds[2] < 0.1
        _report(8, ok,
                "P2/theory-eps median RRMSE over I=1e4,1e6,1e8: "
                + ", ".join(f"{v:.4f}" for v in meds)
                + f" (strictly decreasing: {decreasing}, final < 0.1)")


class TestCriterion9FlatTrendInN:
    def test_median_rrmse_flat_in_measurements(self):
        t0 = time.perf_counter()
        spec = ExperimentSpec(
            kind="measurements",
            grid={"n_measurements": [20, 50, 100]},
            trials=10,
            master_seed=1,
            solver="P2",
            epsilon_mode="theory",
            intensity=1e8,
        )
        meds = [c["rrmse"]["median"] for c in run_sweep(spec)["cells"]]
        ratio = max(meds) / min(meds)
        _report(9, ratio <= 2.0,
                "median RRMSE over N=20,50,100 at I=1e8: "
                + ", ".join(f"{v:.4f}" for v in meds)
                + f"; max/min {ratio:.2f} <= 2.0, {time.perf_counter() - t0:.0f}s")


class TestCriterion10EstimatorAgreement:
    def test_p4_p5_p6_medians_close(self):
        t0 = time.perf_counter()
        medians = {}
        for solver in ("P4", "P5", "P6"):
            spec = ExperimentSpec(
                kind="intensity",
                grid={"intensity": [1e8]},
                trials=10,
                master_seed=1,
                solver=solver,
            )
            medians[solver] = run_sweep(spec)["cells"][0]["rrmse"]["median"]
        spread = max(medians.values()) - min(medians.values())
        _report(10, spread <= 0.05,
                "omniscient-lambda medians "
                + ", ".join(f"{k}={v:.4f}" for k, v in medians.items())
                + f"; spread {spread:.4f} <= 0.05, {time.perf_counter() - t0:.0f}s")


class TestCriterion11ImagePipeline:
    def test_patchwise_reconstruction_trend(self, tmp_path):
        t0 = time.perf_counter()
        src = tmp_path / "scene.pgm"
        write_pgm(src, make_test_image(64, 64))
        spec = ExperimentSpec(
            kind="image",
            grid={"intensity": [1e4, 1e8]},
            solver="P4",
            n_measurements=25,
            patch=7,
            stride=3,
            image_size=64,
            master_seed=0,
            max_iters=800,
        )
        report = run_image_recon(spec, src, tmp_path / "out")
        err = {c["intensity"]: c["rrmse"] for c in report["cells"]}
        elapsed = time.perf_counter() - t0
        ok = err[1e4] > 3.0 * err[1e8] and err[1e8] < 0.1 and elapsed < 1200.0
        _report(11, ok,
                f"RRMSE(I=1e4)={err[1e4]:.4f} > 3x RRMSE(I=1e8)={err[1e8]:.4f}, "
                f"RRMSE(1e8) < 0.1, {elapsed:.0f}s")


class TestCriterion12Determinism:
    def test_sweep_repeats_bit_identical(self, intensity_sweep_manifest, tmp_path):
        rerun = run_sweep(_intensity_sweep_spec())
        p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        write_sweep_csv(intensity_sweep_manifest, p1)
        write_sweep_csv(rerun, p2)
        ok = p1.read_bytes() == p2.read_bytes()
        _report(12, ok, "criterion-8 sweep repeated with the same master seed "
                        "produced byte-identical CSV output")
