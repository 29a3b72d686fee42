"""Unit tests for the reconstruction solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poisson_cs import solvers
from poisson_cs.divergences import gen_kl, jsd, snll
from poisson_cs.errors import (
    DomainError,
    InfeasibleEpsilonError,
    InvalidParamError,
    LengthMismatchError,
)
from poisson_cs.sensing import build_phi, sample_rip_matrix
from poisson_cs.simulate import measure
from poisson_cs.solvers import (
    FitKind,
    FitTerm,
    SolverConfig,
    fit_value_and_gradient,
    gradient_scale,
    rrmse,
    soft_threshold,
    solve_p2,
    solve_p2_batch,
    solve_penalized,
    solve_penalized_batch,
)
from poisson_cs.sqjsd_stats import choose_epsilon
from poisson_cs.transforms import dct2_basis, identity_basis


def sparse_instance(m=100, N=50, s=5, intensity=1e8, seed=0):
    rng = np.random.default_rng(seed)
    x = np.zeros(m)
    support = rng.choice(m, s, replace=False)
    x[support] = rng.uniform(0.5, 1.5, s)
    x *= intensity / x.sum()
    phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=seed + 1))
    mv = measure(phi, x, seed=seed + 2)
    return x, phi, mv


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        v = np.array([3.0, -0.5, 0.0])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_componentwise(self):
        assert np.array_equal(soft_threshold([3.0, -0.5], 1.0), [2.0, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidParamError):
            soft_threshold([1.0], -0.1)

    def test_prox_property_1d_grid(self):
        # argmin_z t|z| + (z - v)^2 / 2 checked against a dense grid.
        grid = np.linspace(-6, 6, 240001)
        for v in (-3.3, -0.4, 0.0, 0.7, 2.9):
            for t in (0.0, 0.5, 1.7):
                objective = t * np.abs(grid) + 0.5 * (grid - v) ** 2
                best = grid[np.argmin(objective)]
                got = soft_threshold([v], t)[0]
                assert got == pytest.approx(best, abs=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(v=hnp.arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                        elements=st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                                           st.floats(-1e-300, 1e-300),
                                           st.floats(-1e300, 1e300))),
           t=st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e300)),
           per_row=st.data())
    def test_two_op_maps_are_the_definition(self, v, t, per_row):
        # The solvers' proximal maps take two elementwise operations each:
        # v - clip(v, -t, t) on the DCT basis (and in soft_threshold) and
        # max(v - t, 0) on the identity basis.  They must equal the
        # definition sign(v) * max(|v| - t, 0), and its clamp at 0, in every
        # bit but the sign of a zero; np.array_equal does not tell -0.0 from
        # 0.0, and the bits that differ must be those of zeros.  The
        # threshold is a scalar or, as in the line search, one per row.
        if per_row.draw(st.booleans()):
            t = per_row.draw(hnp.arrays(float, (v.shape[0], 1),
                                        elements=st.floats(0.0, 1e300)))
        want = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        for got, ref in ((solvers._shrink(v, t), want),
                         (solvers._shrink_nonneg(v, t), np.maximum(want, 0.0))):
            assert np.array_equal(got, ref)
            differ = got.view(np.int64) != ref.view(np.int64)
            assert not np.any(got[differ])
        if np.ndim(t) == 0:
            assert np.array_equal(soft_threshold(v, t), want)


class TestFitValueAndGradient:
    def test_jsd_minimum_at_counts(self):
        y = np.array([3.0, 8.0, 1.0])
        val, grad = fit_value_and_gradient(FitTerm(FitKind.JSD), y, y.copy())
        assert val == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_gen_kl_reference_gradient(self):
        _, grad = fit_value_and_gradient(FitTerm(FitKind.GEN_KL), [4.0], [2.0])
        assert grad[0] == pytest.approx(-1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fit_value_and_gradient(FitTerm(FitKind.JSD), [1.0], [-0.5])
        with pytest.raises(DomainError):
            fit_value_and_gradient(FitTerm(FitKind.SNLL), [0.0, 2.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            fit_value_and_gradient(FitTerm(FitKind.GEN_KL), [0.0], [1.0])

    def test_beta_lifts_zero_counts(self):
        val, grad = fit_value_and_gradient(FitTerm(FitKind.GEN_KL, beta=0.5), [0.0], [1.0])
        assert math.isfinite(val) and math.isfinite(grad[0])

    @pytest.mark.parametrize("kind", list(FitKind))
    def test_value_is_the_divergence_bit_for_bit(self, kind):
        # The solvers' fit table sums the terms of ``divergences``.
        divergence = {FitKind.JSD: jsd, FitKind.SNLL: snll, FitKind.GEN_KL: gen_kl}[kind]
        rng = np.random.default_rng(list(FitKind).index(kind))
        for intensity in 10.0 ** np.arange(9):
            for beta in (0.0, 0.5):
                for _ in range(25):
                    u = intensity * rng.uniform(0.5, 1.5, int(rng.integers(1, 60)))
                    y = rng.poisson(u).astype(float)
                    if kind is not FitKind.JSD and beta == 0.0:
                        y = np.maximum(y, 1.0)
                    value, _ = fit_value_and_gradient(FitTerm(kind, beta), y, u)
                    assert value == divergence(y + beta, u + beta)

    FD_BETAS = [0.0, 0.3]

    @pytest.mark.parametrize("kind", list(FitKind))
    @pytest.mark.parametrize("beta", FD_BETAS)
    def test_gradient_matches_finite_differences(self, kind, beta):
        # Seeded by parameter position, so a failure reproduces in any process.
        rng = np.random.default_rng([list(FitKind).index(kind), self.FD_BETAS.index(beta)])
        for _ in range(25):
            n = int(rng.integers(2, 25))
            y = rng.integers(1, 300, n).astype(float)
            u = rng.uniform(0.5, 400.0, n)
            fit = FitTerm(kind, beta)
            _, grad = fit_value_and_gradient(fit, y, u)
            h = 1e-6 * np.maximum(np.abs(u), 1.0)
            for i in rng.choice(n, size=min(3, n), replace=False):
                up, um = u.copy(), u.copy()
                up[i] += h[i]
                um[i] -= h[i]
                fd = (
                    fit_value_and_gradient(fit, y, up)[0]
                    - fit_value_and_gradient(fit, y, um)[0]
                ) / (2 * h[i])
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestSolvePenalized:
    def test_near_noiseless_recovery(self):
        x, phi, mv = sparse_instance(intensity=1e10, seed=10)
        basis = identity_basis(100)
        cfg = SolverConfig(max_iters=1500)
        fit = FitTerm(FitKind.JSD)
        lam = 1e-6 * gradient_scale(phi.entries, basis, mv, fit)
        res = solve_penalized(phi.entries, basis, mv, fit, lam, cfg)
        assert rrmse(x, basis.synthesize(res.theta_star)) < 1e-2

    def test_huge_lambda_collapses_to_zero(self):
        x, phi, mv = sparse_instance(intensity=1e6, seed=11)
        basis = identity_basis(100)
        fit = FitTerm(FitKind.JSD)
        lam = 1e6 * gradient_scale(phi.entries, basis, mv, fit)
        res = solve_penalized(phi.entries, basis, mv, fit, lam)
        assert np.sum(np.abs(res.theta_star)) <= 1e-6 * x.sum()

    def test_capped_solves_are_prefixes_of_a_monotone_run(self):
        # A solve capped at k iterations runs the first k iterations of the
        # uncapped solve, so the capped solves walk its iterates, and the
        # objective must not rise along them.
        _, phi, mv = sparse_instance(intensity=1e6, seed=12)
        basis = identity_basis(100)
        fit = FitTerm(FitKind.JSD)
        lam = 1e-3 * gradient_scale(phi.entries, basis, mv, fit)
        full = solve_penalized(phi.entries, basis, mv, fit, lam)
        assert full.converged and full.iterations > 20
        objective, theta = [], None
        for k in range(1, full.iterations + 1):
            res = solve_penalized(phi.entries, basis, mv, fit, lam, SolverConfig(max_iters=k))
            assert res.iterations == k
            theta = res.theta_star
            u = phi.entries @ theta
            objective.append(lam * float(np.sum(np.abs(theta))) + jsd(mv, u))
        assert np.all(np.diff(objective) <= 1e-9)
        assert np.array_equal(theta, full.theta_star)

    def test_deterministic(self):
        _, phi, mv = sparse_instance(intensity=1e6, seed=13)
        basis = identity_basis(100)
        fit = FitTerm(FitKind.SNLL)
        lam = 1e-3 * gradient_scale(phi.entries, basis, mv, fit)
        a = solve_penalized(phi.entries, basis, mv, fit, lam)
        b = solve_penalized(phi.entries, basis, mv, fit, lam)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert a.iterations == b.iterations

    def test_zero_count_rows_dropped_for_gen_kl(self):
        # Low intensity forces zero counts; GenKL at beta=0 must still run.
        x, phi, mv = sparse_instance(intensity=50.0, seed=16)
        assert np.any(mv == 0)
        basis = identity_basis(100)
        fit = FitTerm(FitKind.GEN_KL)
        lam = 1e-2 * gradient_scale(phi.entries, basis, mv, fit)
        res = solve_penalized(phi.entries, basis, mv, fit, lam)
        assert np.all(np.isfinite(res.theta_star))

    def test_invalid_lambda(self):
        _, phi, mv = sparse_instance(seed=17)
        with pytest.raises(InvalidParamError):
            solve_penalized(phi.entries, identity_basis(100), mv,
                            FitTerm(FitKind.JSD), 0.0)


    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        # Such a weight used to stop after one iteration and return the start
        # as converged.
        _, phi, mv = sparse_instance(seed=17)
        basis, fit = identity_basis(100), FitTerm(FitKind.JSD)
        with pytest.raises(InvalidParamError, match="lam"):
            solve_penalized(phi.entries, basis, mv, fit, lam)
        with pytest.raises(InvalidParamError, match="lam"):
            solve_penalized_batch([phi.entries] * 2, basis, [mv] * 2, fit, [1.0, lam])

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -0.1])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(InvalidParamError, match="beta"):
            FitTerm(FitKind.SNLL, beta)

    @pytest.mark.parametrize("value", [2.5, True, False, 0, -3, "10", float("nan")])
    def test_bad_max_iters_rejected(self, value):
        # 2.5 used to fail later in np.empty, and True ran as one iteration.
        with pytest.raises(InvalidParamError, match="max_iters"):
            SolverConfig(max_iters=value)

    def test_numpy_integer_max_iters_accepted(self):
        assert SolverConfig(max_iters=np.int64(7)).max_iters == 7


class TestSolveP2:
    def test_huge_epsilon_returns_zero(self):
        _, phi, mv = sparse_instance(intensity=1e4, seed=18)
        basis = identity_basis(100)
        eps = 1e3 * math.sqrt(50)
        res = solve_p2(phi.entries, basis, mv, eps)
        assert np.all(res.theta_star == 0.0)
        assert res.constraint_residual <= 0.0
        assert res.lambda_used is None

    def test_infeasible_epsilon_raises(self):
        # Overdetermined system: the fit minimum is strictly positive, so a
        # tiny radius is unreachable.
        rng = np.random.default_rng(19)
        x = rng.uniform(10, 50, 4)
        phi = build_phi(sample_rip_matrix(12, 4, 0.5, seed=20))
        mv = measure(phi, x, seed=21)
        with pytest.raises(InfeasibleEpsilonError):
            solve_p2(phi.entries, identity_basis(4), mv, 1e-6)

    def test_constraint_active_and_consistent(self):
        x, phi, mv = sparse_instance(intensity=1e6, seed=22)
        basis = identity_basis(100)
        eps = choose_epsilon("theory", 50)
        cfg = SolverConfig(max_iters=1500)
        res = solve_p2(phi.entries, basis, mv, eps, cfg)
        # Feasible from below, within the 1% search tolerance of epsilon.
        assert -0.01 * eps - 1e-9 <= res.constraint_residual <= 1e-9
        # Reported residual is consistent with recomputing sqjsd at theta*.
        from poisson_cs.divergences import sqjsd

        u = phi.entries @ basis.synthesize(res.theta_star)
        s_val = sqjsd(mv.astype(float), np.maximum(u, 0.0))
        assert s_val == pytest.approx(eps + res.constraint_residual, abs=1e-8)

    def test_p2_p4_lambda_consistency(self):
        x, phi, mv = sparse_instance(intensity=1e4, seed=23)
        basis = identity_basis(100)
        eps = choose_epsilon("theory", 50)
        cfg = SolverConfig(max_iters=1500)
        res = solve_p2(phi.entries, basis, mv, eps, cfg)
        assert res.lambda_used is not None
        rerun = solve_penalized(phi.entries, basis, mv, FitTerm(FitKind.JSD),
                                res.lambda_used, cfg)
        from poisson_cs.divergences import jsd

        u = phi.entries @ basis.synthesize(rerun.theta_star)
        s_rerun = math.sqrt(jsd(mv.astype(float), np.maximum(u, 0.0)))
        # The penalized solution at lambda_used sits on the feasible side of
        # the constraint; before the final scaling step it is the search's
        # own iterate, so it cannot exceed epsilon by more than the tolerance.
        assert s_rerun <= eps * (1.0 + 0.01) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 3), log_intensity=st.floats(2.0, 8.0),
           canonical=st.booleans())
    def test_result_meets_the_radius(self, seed, log_intensity, canonical):
        # The contract of solve_p2: sqjsd at the result is at most epsilon
        # and within _CONSTRAINT_RTOL * epsilon of it, on either basis,
        # unless the origin meets the radius and is the result.
        intensity = 10.0**log_intensity
        if canonical:
            _, phi, mv = sparse_instance(m=40, N=20, s=3, intensity=intensity, seed=seed)
            basis, A = identity_basis(40), phi.entries
        else:
            # A dense positive 5x5 patch, sparse in no basis.
            basis, rng = dct2_basis(5), np.random.default_rng(seed)
            x = rng.uniform(0.2, 1.0, basis.dim)
            phi = build_phi(sample_rip_matrix(20, basis.dim, 0.5, seed=seed + 1))
            mv = measure(phi, x * (intensity / x.sum()), seed=seed + 2)
            A = phi.entries @ basis.matrix()
        eps = choose_epsilon("theory", 20)
        res = solve_p2(A, basis, mv, eps)
        tol = solvers._CONSTRAINT_RTOL * eps
        assert res.constraint_residual <= 1e-12
        if res.lambda_used is None:
            assert res.n_solves == 0 and not np.any(res.theta_star)
        else:
            assert res.constraint_residual >= -tol - 1e-12

    def test_counts_every_solve_of_the_search(self, monkeypatch):
        # Every solve each radius search is sent, on one problem (a stack of
        # one) and on three at once (a stack of three).
        sent, stacked = [], []
        search, lockstep = solvers._radius_search, solvers._lockstep

        def recorded(*args):
            solves = []
            sent.append(solves)
            chain, res = search(*args), None
            while True:
                try:
                    request = chain.send(res)
                except StopIteration as stop:
                    return stop.value
                res = yield request
                solves.append(res)

        monkeypatch.setattr(solvers, "_radius_search", recorded)
        monkeypatch.setattr(solvers, "_lockstep",
                            lambda models, *a: stacked.append(len(models)) or lockstep(models, *a))
        problems = [sparse_instance(intensity=1e6, seed=seed)[1:] for seed in (28, 29, 30)]
        basis, eps = identity_basis(100), choose_epsilon("theory", 50)
        cfg = SolverConfig(max_iters=400)
        alone = solve_p2(problems[0][0].entries, basis, problems[0][1], eps, cfg)
        together = solve_p2_batch([phi.entries for phi, _ in problems], basis,
                                  [mv for _, mv in problems], [eps] * 3, cfg)
        assert stacked == [1, 3] and len(sent) == 4
        for res, solves in zip([alone, *together], sent):
            assert res.n_solves == len(solves) >= 2
            assert res.total_iterations == sum(r.iterations for r in solves)
            assert res.iterations in [r.iterations for r in solves]

    def test_beta_smoothing_runs(self):
        _, phi, mv = sparse_instance(intensity=1e4, seed=24)
        basis = identity_basis(100)
        eps = choose_epsilon("theory", 50)
        res = solve_p2(phi.entries, basis, mv, eps, beta=0.1)
        assert np.all(np.isfinite(res.theta_star))

    def test_epsilon_validated(self):
        _, phi, mv = sparse_instance(seed=25)
        with pytest.raises(InvalidParamError):
            solve_p2(phi.entries, identity_basis(100), mv, 0.0)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_non_finite_epsilon_rejected(self, eps):
        _, phi, mv = sparse_instance(seed=25)
        with pytest.raises(InvalidParamError, match="epsilon"):
            solve_p2(phi.entries, identity_basis(100), mv, eps)

    def test_all_zero_counts(self):
        # Dark frame: y = 0 everywhere, so theta = 0 satisfies any radius.
        phi = build_phi(sample_rip_matrix(10, 20, 0.5, seed=26))
        mv = measure(phi, np.zeros(20), seed=27)
        res = solve_p2(phi.entries, identity_basis(20), mv, 1.0)
        assert np.all(res.theta_star == 0.0)
        fit = FitTerm(FitKind.JSD)
        pen = solve_penalized(phi.entries, identity_basis(20), mv, fit, 1e-3)
        assert np.sum(np.abs(pen.theta_star)) < 1e-6


class TestSignalConstraint:
    """On the identity basis the coefficients are the signal, a photon flux:
    every estimate is clamped at 0, with no option to set."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 3), log_intensity=st.floats(2.0, 8.0),
           log_lam=st.floats(-4.0, -1.0), kind=st.sampled_from(list(FitKind)),
           beta=st.sampled_from([0.0, 0.3]))
    def test_identity_basis_estimates_are_non_negative(self, seed, log_intensity, log_lam,
                                                       kind, beta):
        _, phi, mv = sparse_instance(m=40, N=20, s=3, intensity=10.0**log_intensity,
                                     seed=seed)
        basis, cfg = identity_basis(40), SolverConfig()
        fit = FitTerm(kind, beta)
        lam = 10.0**log_lam * gradient_scale(phi.entries, basis, mv, fit)
        pen = solve_penalized(phi.entries, basis, mv, fit, lam, cfg)
        assert np.all(pen.theta_star >= 0.0)
        try:
            p2 = solve_p2(phi.entries, basis, mv, choose_epsilon("theory", 20), cfg, beta=beta)
        except InfeasibleEpsilonError:
            # A known defect of the radius search, not of the sign: at
            # beta > 0 and I >= 1e6 its first, nearly unregularized solve
            # runs into max_iters far from the fit minimum.
            assert beta > 0.0
        else:
            assert np.all(p2.theta_star >= 0.0)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_readme_pattern_radius_is_feasible(self, k):
        # The README quick start with other seeds.  Without the clamp, 6 of
        # these 7 radii were reported infeasible (achievable sqjsd 35-65
        # against epsilon 6.47).
        m, N, s = 100, 50, 5
        rng = np.random.default_rng(k)
        x = np.zeros(m)
        x[rng.choice(m, s, replace=False)] = rng.uniform(0.5, 1.5, s)
        x *= 1e6 / x.sum()
        phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=10 + k))
        y = measure(phi, x, seed=20 + k)
        res = solve_p2(phi.entries, identity_basis(m), y, choose_epsilon("theory", N))
        assert np.all(res.theta_star >= 0.0)
        assert rrmse(x, res.theta_star) < 0.1


class TestRrmse:
    def test_exact(self):
        assert rrmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_zero_estimate(self):
        assert rrmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_unit_off_support(self):
        assert rrmse([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(InvalidParamError):
            rrmse([0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("estimate", [[1.0], np.ones((2, 3))])
    def test_shape_mismatch_rejected(self, estimate):
        # Both used to broadcast: 0.598 and 0.0.
        with pytest.raises(LengthMismatchError, match="shape"):
            rrmse([1.0, 2.0, 3.0], estimate)
