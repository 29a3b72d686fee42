"""The batched penalized and P2 solvers against plain one-problem references, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_cs import solvers
from poisson_cs.errors import (
    InfeasibleEpsilonError,
    InfeasibleStartError,
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
    solve_chains,
    solve_p2,
    solve_p2_batch,
    solve_penalized,
    solve_penalized_batch,
)
from poisson_cs.sqjsd_stats import choose_epsilon
from poisson_cs.transforms import dct2_basis, identity_basis


def make_problems(basis, seed, K=7, N=15, intensities=None):
    """K measured signals of varied intensity; the last one is dim enough
    that some counts are zero.  ``intensities`` replaces the drawn ones."""
    rng = np.random.default_rng(seed)
    if intensities is None:
        intensities = list(10 ** rng.uniform(3.0, 7.0, K - 1)) + [40.0]
    psi = basis.matrix()
    A, ys = [], []
    for k, intensity in enumerate(intensities):
        x = rng.uniform(0.2, 1.0, basis.dim)
        x *= intensity / x.sum()
        phi = build_phi(sample_rip_matrix(N, basis.dim, 0.5, seed=1000 * seed + k))
        ys.append(measure(phi, x, seed=1000 * seed + 500 + k))
        A.append(phi.entries @ psi)
    return np.stack(A), ys, rng


def count_stacks(monkeypatch):
    """Record the size of every stack the vectorized loop starts with."""
    stacked = []
    lockstep = solvers._lockstep
    monkeypatch.setattr(solvers, "_lockstep",
                        lambda models, *args: stacked.append(len(models))
                        or lockstep(models, *args))
    return stacked


def reference_norm_sq(A, iters=40):
    """Largest squared singular value of one operator by the power iteration
    of ``solvers._spectral_norms_sq``, one matrix at a time."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(A @ v) ** 2)


@np.errstate(divide="ignore", invalid="ignore")
def reference_descend(A, basis, y, fit, lam, cfg, theta0=None):
    """The penalized solve on one problem, one plain iteration at a time: the
    reference for the rows of ``solvers._lockstep``, with the proximal map
    of its basis.  Raises InfeasibleStartError when the start violates the
    fit domain."""
    prox = solvers._prox_of(basis)
    counts = np.asarray(y, dtype=float)
    model = solvers._FitModel.of(np.asarray(A, dtype=float), counts, fit)
    if theta0 is None:
        theta0 = solvers._default_start(basis, counts)
    x = np.asarray(theta0, dtype=float).copy()
    u = model.rates(x)
    f_x = model.value(u)
    if not math.isfinite(f_x):
        raise InfeasibleStartError("starting point violates the fit domain")

    L = reference_norm_sq(model.A) * model.curvature_scale(u)
    eta = 1.0 / L if L > 0.0 else 1.0
    F_cur = f_x + lam * float(np.sum(np.abs(x)))
    z = x.copy()
    t_momentum = 1.0
    converged = False
    flat_count = 0
    iterations = 0

    for iterations in range(1, cfg.max_iters + 1):
        eta = min(eta / solvers._BACKTRACK, 1e18)  # let the step recover after conservative phases

        u_base = model.rates(z)
        f_base = model.value(u_base)
        if math.isfinite(f_base):
            base = z
        else:
            base, u_base, f_base = x, u, f_x
            z = x.copy()
            t_momentum = 1.0
        g_base = model.grad_theta(u_base)

        accepted = None
        for attempt in range(2):  # second pass restarts from x on non-monotone step
            eta_try = eta
            for _ in range(solvers._MAX_TRIES):
                cand = prox(base - eta_try * g_base, eta_try * lam)
                d = cand - base
                u_cand = model.rates(cand)
                f_cand = model.value(u_cand)
                if math.isfinite(f_cand):
                    quad = f_base + float(g_base @ d) + float(d @ d) / (2.0 * eta_try)
                    if f_cand <= quad + 1e-12 * max(1.0, abs(quad)):
                        break
                eta_try *= solvers._BACKTRACK
            else:
                cand = None
            if cand is None:
                break
            F_cand = f_cand + lam * float(np.sum(np.abs(cand)))
            if F_cand <= F_cur:
                accepted = (cand, u_cand, f_cand, F_cand, d, eta_try)
                break
            # Monotone restart: drop the momentum point and retry from x.
            if base is x:
                break
            base, u_base, f_base = x, u, f_x
            g_base = model.grad_theta(u_base)
            z = x.copy()
            t_momentum = 1.0

        if accepted is None:
            converged = True  # no descent step exists at any step size
            break
        cand, u_cand, f_cand, F_cand, d, eta = accepted

        grad_map = float(np.linalg.norm(d)) / eta
        rel_change = abs(F_cur - F_cand) / max(1.0, abs(F_cand))
        flat_count = flat_count + 1 if rel_change < solvers._OBJECTIVE_TOL else 0

        t_next = solvers._next_momentum(t_momentum)
        z = cand + ((t_momentum - 1.0) / t_next) * (cand - x)
        t_momentum = t_next
        x, u, f_x, F_cur = cand, u_cand, f_cand, F_cand

        if flat_count >= 5 or grad_map < solvers._GRAD_TOL:
            converged = True
            break

    return solvers.SolveResult(theta_star=x, iterations=iterations, converged=converged,
                               lambda_used=lam)


def scalar_reference(A, basis, y, fit, lam, cfg, warm):
    """The reference solve from ``warm``, or from the default start when it is infeasible."""
    if warm is not None:
        try:
            return reference_descend(A, basis, y, fit, lam, cfg, theta0=warm), False
        except InfeasibleStartError:
            pass
    return reference_descend(A, basis, y, fit, lam, cfg), warm is not None


# (kind, beta, seed, canonical, shape): every fit on the desk shapes, K 7 of
# (N 15, dim 30) or (N 15, 5x5 DCT), and the JSD fit on the benchmark's,
# K 15 of (N 50, dim 100) and K 9 of (N 25, 7x7 DCT), since the tails of the
# BLAS kernels depend on the shape.
_BATCH_CASES = [
    pytest.param(kind, beta, seed, canonical, "desk",
                 id=f"{canonical}-{seed}-{beta}-{kind}")
    for canonical in (False, True) for seed in (1, 2, 3) for beta in (0.0, 0.4)
    for kind in FitKind
] + [
    pytest.param(FitKind.JSD, 0.0, 1, canonical, "benchmark", id=f"benchmark-{canonical}")
    for canonical in (False, True)
]


@pytest.mark.parametrize("kind, beta, seed, canonical, shape", _BATCH_CASES)
def test_batch_matches_scalar_bit_for_bit(kind, beta, seed, canonical, shape, monkeypatch):
    K, N, size = 7, 15, (30 if canonical else 5)
    if shape == "benchmark":
        K, N, size = (15, 50, 100) if canonical else (9, 25, 7)
    basis = identity_basis(size) if canonical else dct2_basis(size)
    cfg = SolverConfig(max_iters=300)
    fit = FitTerm(kind, beta)
    A, ys, rng = make_problems(basis, seed, K=K, N=N)
    K = len(ys)
    lams = [float(10 ** rng.uniform(-3.5, -1.0) * gradient_scale(A[k], basis, ys[k], fit))
            for k in range(K)]
    # Warm starts from a sparser solve, as on a lambda path; row 0 starts at
    # the default point and row 1 from outside the fit domain.
    warms = [solve_penalized(A[k], basis, ys[k], fit, 4.0 * lams[k], cfg).theta_star
             for k in range(K)]
    warms[0] = None
    warms[1] = basis.analyze(np.full(basis.dim, -1e3 * (beta + 1.0)))

    stacked = count_stacks(monkeypatch)
    batch = solve_penalized_batch(A, basis, ys, fit, lams, cfg, theta0=warms)
    assert stacked and max(stacked) >= 2  # the vectorized loop ran

    fell_back = []
    for k in range(K):
        ref, fallback = scalar_reference(A[k], basis, ys[k], fit, lams[k], cfg, warms[k])
        fell_back.append(fallback)
        got = batch[k]
        assert np.array_equal(got.theta_star, ref.theta_star), k
        assert got.iterations == ref.iterations, k
        assert got.converged == ref.converged, k
        assert got.lambda_used == ref.lambda_used
    assert fell_back[1]
    assert len({r.iterations for r in batch}) > 1  # rows stopped at different iterations


@pytest.mark.parametrize("kind", list(FitKind))
@pytest.mark.parametrize("canonical", [False, True])
def test_one_problem_falls_back_from_an_infeasible_start_as_its_batch_row(kind, canonical):
    # solve_penalized used to raise InfeasibleStartError for a start that
    # solve_penalized_batch replaces by the default start.
    basis = identity_basis(30) if canonical else dct2_basis(5)
    cfg = SolverConfig(max_iters=300)
    fit = FitTerm(kind, 0.4)
    A, ys, _ = make_problems(basis, 4, K=3)
    lams = [1e-2 * gradient_scale(A[k], basis, ys[k], fit) for k in range(3)]
    outside = basis.analyze(np.full(basis.dim, -1e3))
    batch = solve_penalized_batch(A, basis, ys, fit, lams, cfg, theta0=[None, outside, None])
    alone = solve_penalized(A[1], basis, ys[1], fit, lams[1], cfg, theta0=outside)
    fields = ("iterations", "converged", "lambda_used")
    assert same_result(alone, batch[1], fields)
    assert same_result(alone, solve_penalized(A[1], basis, ys[1], fit, lams[1], cfg), fields)


def sequential_backtrack(stack, base, f_base, G, eta, lam, prox):
    """The stacked backtracking search one step size per pass: the reference
    for ``solvers._backtrack``.  Also returns each row's number of tries."""
    searching = np.ones(base.shape[0], dtype=bool)
    tries = np.zeros(base.shape[0], dtype=int)
    eta_try = eta.copy()
    tried = None
    for _ in range(solvers._MAX_TRIES):
        cand = prox(base - eta_try[:, None] * G, (eta_try * lam)[:, None])
        d = cand - base
        dd = solvers._rowdot(d, d)
        u_cand = stack.rates(cand)
        f_cand = stack.value(u_cand)
        quad = f_base + solvers._rowdot(G, d) + dd / (2.0 * eta_try)
        ok = np.isfinite(f_cand) & (f_cand <= quad + 1e-12 * np.maximum(1.0, np.abs(quad)))
        tries += searching
        if tried is None:
            tried = [cand, dd, u_cand, f_cand]
        else:
            for old, new in zip(tried, (cand, dd, u_cand, f_cand)):
                old[searching] = new[searching]
        searching &= ~ok
        if not searching.any():
            break
        eta_try[searching] *= solvers._BACKTRACK
    return (~searching, *tried, eta_try), tries


@pytest.mark.parametrize("kind", list(FitKind))
@pytest.mark.parametrize("factor", [solvers._BACKTRACK])
def test_block_backtracking_matches_one_try_per_pass(kind, factor):
    # At the solver's factor, a halving, the block's powers of the factor
    # are the step sizes that repeated multiplication makes.
    basis = dct2_basis(5)
    fit = FitTerm(kind, 0.4)
    tries = []
    for seed in (8, 9, 10):
        A, ys, rng = make_problems(basis, seed, K=12)
        K = len(ys)
        stack = solvers._FitModel.stack([solvers._FitModel.of(A[k], ys[k], fit)
                                         for k in range(K)])
        # Bases near each problem's default start, and first step sizes
        # 2 factor^-u times the curvature estimate, u in [0, 8], so that rows
        # stop before, at and after the end of a block of step sizes.
        base = np.stack([basis.analyze(rng.uniform(0.7, 1.3, basis.dim) * ys[k].sum()
                                       / basis.dim) for k in range(K)])
        U = stack.rates(base)
        f_base, G = stack.value(U), stack.grad_theta(U)
        L = solvers._spectral_norms_sq(stack.A) * stack.curvature_scale(U)
        eta = 2.0 * factor ** -rng.uniform(0.0, 8.0, K) / L
        lam = 10 ** rng.uniform(-3.0, -1.0, K) * np.abs(G).max(axis=1)
        # No step size can meet the last row's lowered bound: it uses every try.
        f_base[-1] -= 1e6
        args = (base, f_base, G, eta, lam, solvers._prox_of(basis))
        with np.errstate(divide="ignore", invalid="ignore"):
            got = solvers._backtrack(stack.widen(), *args)
            want, row_tries = sequential_backtrack(stack, *args)
        for name, g, w in zip(("found", "cand", "dd", "u_cand", "f_cand", "eta"), got, want):
            assert np.array_equal(g, w, equal_nan=True), name
        assert not got[0][-1] and row_tries[-1] == solvers._MAX_TRIES
        tries += row_tries[:-1].tolist()
    assert min(tries) < solvers._BLOCK < max(tries)
    assert solvers._BLOCK in tries


def test_rows_hitting_the_iteration_cap():
    basis = dct2_basis(5)
    fit = FitTerm(FitKind.JSD)
    A, ys, _ = make_problems(basis, 4, K=5)
    cfg = SolverConfig(max_iters=12)
    lams = [1e-4 * gradient_scale(A[k], basis, ys[k], fit) for k in range(5)]
    batch = solve_penalized_batch(A, basis, ys, fit, lams, cfg)
    for k in range(5):
        ref = reference_descend(A[k], basis, ys[k], fit, lams[k], cfg)
        assert np.array_equal(batch[k].theta_star, ref.theta_star)
        assert (batch[k].iterations, batch[k].converged) == (ref.iterations, ref.converged)
    assert not all(r.converged for r in batch)


@pytest.mark.parametrize("kind", [FitKind.SNLL, FitKind.GEN_KL])
@pytest.mark.parametrize("canonical", [False, True])
def test_rows_masked_for_zero_counts_share_one_stack(kind, canonical, monkeypatch):
    # At beta = 0 these fits leave zero-count rows out, and one operator row
    # is zeroed; the problems mask different numbers of rows, yet run as one
    # stack, and each solve is the solve of its problem alone.
    basis = identity_basis(30) if canonical else dct2_basis(5)
    cfg = SolverConfig(max_iters=300)
    fit = FitTerm(kind)
    A, ys, rng = make_problems(basis, 12, intensities=[15.0, 25.0, 40.0, 60.0, 1e3, 1e5])
    A[4, 3] = 0.0
    K = len(ys)
    masked = [int(np.sum((y == 0) | ~np.any(a != 0.0, axis=1))) for a, y in zip(A, ys)]
    assert len(set(masked)) >= 4 and 0 in masked
    lams = [float(10 ** rng.uniform(-3.0, -1.0) * gradient_scale(A[k], basis, ys[k], fit))
            for k in range(K)]

    stacked = count_stacks(monkeypatch)
    batch = solve_penalized_batch(A, basis, ys, fit, lams, cfg)
    assert stacked == [K]
    for k in range(K):
        alone = solve_penalized(A[k], basis, ys[k], fit, lams[k], cfg)
        for ref in (reference_descend(A[k], basis, ys[k], fit, lams[k], cfg), alone):
            got = batch[k]
            assert np.array_equal(got.theta_star, ref.theta_star), k
            assert (got.iterations, got.converged) == (ref.iterations, ref.converged), k
            assert got.lambda_used == ref.lambda_used, k
    assert len({r.iterations for r in batch}) > 1


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_intensity=st.floats(0.0, 8.0),
       zero_rate=st.floats(0.0, 0.9), dead_rate=st.floats(0.0, 0.3),
       kind=st.sampled_from(list(FitKind)), beta=st.sampled_from([0.0, 0.3]))
@np.errstate(divide="ignore", invalid="ignore")
def test_masked_model_is_the_fit_on_the_kept_rows(seed, log_intensity, zero_rate, dead_rate,
                                                  kind, beta):
    rng = np.random.default_rng(seed)
    N, m = 24, 12
    fit = FitTerm(kind, beta)
    problems = []
    for _ in range(2):
        A = rng.uniform(0.0, 1.0, (N, m)) * (rng.uniform(size=(N, m)) < 0.6)
        A[rng.uniform(size=N) < dead_rate] = 0.0
        theta = rng.uniform(0.5, 1.5, m) * 10.0 ** log_intensity / m
        u = A @ theta
        counts = rng.poisson(u).astype(float)
        counts[rng.uniform(size=N) < zero_rate] = 0.0
        problems.append((A, counts, u))

    models = []
    for A, counts, u in problems:
        model = solvers._FitModel.of(A, counts, fit)
        models.append(model)
        keep = np.any(A != 0.0, axis=1)
        if beta == 0.0 and kind is not FitKind.JSD:
            keep &= counts > 0
        if not keep.any():
            assert model.value(u) == 0.0 and not np.any(model.grad_theta(u))
            continue
        value, gu = fit_value_and_gradient(fit, counts[keep], u[keep])
        assert model.value(u) == pytest.approx(value, rel=1e-12)
        # Relative to the size of the summed terms: a coordinate whose terms
        # cancel has no relative accuracy to compare.
        grad = model.grad_theta(u)
        want = A[keep].T @ gu
        assert np.all(np.abs(grad - want) <= 1e-12 * (np.abs(A[keep].T) @ np.abs(gu)))
    # In a stack with a problem of another mask, each row keeps its own bits.
    stack = solvers._FitModel.stack(models)
    U = np.stack([u for _, _, u in problems])
    values, grads = stack.value(U), stack.grad_theta(U)
    for k, model in enumerate(models):
        assert values[k] == model.value(U[k])
        assert np.array_equal(grads[k], model.grad_theta(U[k]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_intensity=st.floats(0.0, 8.0),
       zero_counts=st.booleans(), rates=st.sampled_from(["positive", "zeros", "negative"]),
       dead_row=st.booleans(), beta=st.sampled_from([0.0, 0.3]))
@np.errstate(divide="ignore", invalid="ignore")
def test_jsd_model_marks_keep_the_law_bits(seed, log_intensity, zero_counts, rates, dead_row,
                                           beta):
    # A JSD model hands _jsd_terms its zero counts, or False for none, and
    # its rates' zeros, or False when every rate is positive; the law's own
    # value marks both sides itself.  With and without zero counts, on one
    # problem, a stack and a widened stack, the model's values must be the
    # law's, bit for bit, and +inf on a row with a negative kept rate.
    rng = np.random.default_rng(seed)
    N, m, K = 16, 10, 3
    law = solvers._FITS[FitKind.JSD]
    models = []
    for _ in range(K):
        A = rng.uniform(0.0, 1.0, (N, m))
        if dead_row:
            A[rng.integers(N)] = 0.0
        counts = rng.poisson(A @ rng.uniform(0.5, 1.5, m) * 10.0 ** log_intensity / m)
        counts = counts.astype(float)
        if zero_counts:
            counts[(rng.uniform(size=N) < 0.3) | (np.arange(N) == 0)] = 0.0
        else:
            counts = np.maximum(counts, 1.0)
        models.append(solvers._FitModel.of(A, counts, FitTerm(FitKind.JSD, beta)))
    assert (models[0].zero_counts is False) == (not zero_counts or beta > 0.0)
    stack = solvers._FitModel.stack(models)
    for model in (*models, stack, stack.widen()):
        U = rng.uniform(0.0, 2.0, model.yb.shape) * 10.0 ** log_intensity
        if rates != "positive":
            U[rng.uniform(size=U.shape) < 0.3] = 0.0
        if rates == "negative":
            U.reshape(-1, N)[0, np.flatnonzero(model.keep.reshape(-1, N)[0])[0]] = -1.0
        ub = U + beta if beta else U
        want = np.asarray(law.value(model.yb, ub, model.mask), dtype=float)
        outside = np.any((ub < 0.0) & model.keep, axis=-1)
        want[outside] = math.inf
        got = np.asarray(model.value(U), dtype=float)
        assert got.tobytes() == want.tobytes()
        assert np.any(outside) == (rates == "negative")


def logged_chain(log, steps):
    """A chain of solves, one per (lam, warm rule) step; the rule makes the
    warm start from the previous result (None before the first solve).
    Logs every solve as (lam, warm start, result); returns its solve count."""
    res = None
    for lam, warm_of in steps:
        warm = warm_of(res)
        res = yield lam, warm
        log.append((lam, warm, res))
    return len(log)


def stops_without_descent(A, basis, y, fit, lam, cfg, warm):
    """Whether the reference solve ends on an iteration that finds no descent
    step: the solve capped one iteration earlier returns the same point."""
    ref, _ = scalar_reference(A, basis, y, fit, lam, cfg, warm)
    if not ref.converged or ref.iterations < 2:
        return False
    early, _ = scalar_reference(A, basis, y, fit, lam,
                                SolverConfig(max_iters=ref.iterations - 1), warm)
    return np.array_equal(early.theta_star, ref.theta_star)


def test_refilled_rows_match_the_scalar_loop(monkeypatch):
    # Chains of unequal length in one stack: every solve after a chain's
    # first starts on the row its previous solve left, in the same pass.
    # Some solves stop without a descent step, and the row then holds the
    # point its solve returns: a successor warm-started from that result
    # starts from the row's bits, and only a cold start or another warm start
    # goes through ``_start``.
    basis = dct2_basis(5)
    fit = FitTerm(FitKind.JSD)
    cfg = SolverConfig(max_iters=60)
    A, ys, _ = make_problems(basis, 11, K=5)
    scale = [gradient_scale(A[k], basis, ys[k], fit) for k in range(5)]
    cold = lambda res: None  # noqa: E731
    warm = lambda res: res.theta_star  # noqa: E731
    outside = basis.analyze(np.full(basis.dim, -1e3))
    steps = [
        [(1e-2 * scale[0], cold)],
        # A lambda path, each solve from the one before.
        [(1e-1 * scale[1], cold)] + [(f * scale[1], warm) for f in (3e-2, 1e-2, 3e-3)],
        # Re-seeded outside the fit domain: falls back to the default start.
        [(1e-2 * scale[2], cold), (3e-3 * scale[2], lambda res: outside),
         (1e-3 * scale[2], warm)],
        # Re-seeded with a weight so low that the solve runs into max_iters.
        [(1e-1 * scale[3], cold), (1e-6 * scale[3], warm)],
        # A radius slack at the origin, say: returns before any solve.
        [],
    ]
    logs = [[] for _ in steps]
    stacked = count_stacks(monkeypatch)
    # The warm start of every _start call.
    starts = []
    plain_start = solvers._start
    monkeypatch.setattr(solvers, "_start",
                        lambda *args: starts.append(args[-1]) or plain_start(*args))
    got = solve_chains(A, basis, ys, fit,
                       [logged_chain(log, chain) for log, chain in zip(logs, steps)], cfg)
    assert got == [len(chain) for chain in steps]
    # One stack ran every solve of the four chains, and held the chain that
    # returns at once too: it is sent its first None in the stack, where its
    # row leaves before the first pass.
    assert stacked == [5]

    fell_back = []
    for k, log in enumerate(logs):
        for lam, start, res in log:
            ref, fallback = scalar_reference(A[k], basis, ys[k], fit, lam, cfg, start)
            fell_back.append(fallback)
            assert np.array_equal(res.theta_star, ref.theta_star), k
            assert (res.iterations, res.converged) == (ref.iterations, ref.converged), k
            assert res.lambda_used == lam
    assert fell_back == [False] * 6 + [True] + [False] * 3
    # A solve whose warm start is its chain's last result starts from the
    # row; _start runs for every other solve.  Two of those rows hold a
    # solve that stopped without a descent step (problems 1 and 3).
    others, stopped = [], 0
    for k, log in enumerate(logs):
        others += log[:1]
        for (lam, start, prev), entry in zip(log, log[1:]):
            if entry[1] is not prev.theta_star:
                others.append(entry)
            else:
                stopped += stops_without_descent(A[k], basis, ys[k], fit, lam, cfg, start)
    assert stopped == 2
    assert sorted(map(id, starts)) == sorted(id(start) for _, start, _ in others)
    # The capped solve started after its chain's first solve had stopped, so
    # its iterations count from its own start pass.
    first, capped = logs[3][0][2], logs[3][1][2]
    assert first.converged and first.iterations < cfg.max_iters
    assert capped.iterations == cfg.max_iters and not capped.converged


def test_batch_validates_its_inputs():
    basis = dct2_basis(5)
    fit = FitTerm(FitKind.JSD)
    A, ys, _ = make_problems(basis, 5, K=3)
    with pytest.raises(LengthMismatchError):
        solve_penalized_batch(A, basis, ys[:2], fit, [1.0, 1.0, 1.0])
    with pytest.raises(InvalidParamError):
        solve_penalized_batch(A, basis, ys, fit, [1.0, 0.0, 1.0])


def p2_setting(canonical):
    # A cap that some inner solves of the brighter problems reach.
    return identity_basis(30) if canonical else dct2_basis(5), SolverConfig(max_iters=120)


@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("canonical", [False, True])
def test_p2_batch_matches_one_at_a_time(beta, seed, canonical, monkeypatch):
    basis, cfg = p2_setting(canonical)
    A, ys, _ = make_problems(basis, seed, intensities=[1e2, 1e4, 1e6, 1e8, 1e2])
    eps = choose_epsilon("theory", A.shape[1])
    # The last radius is slack at the origin.
    epsilons = [eps] * 4 + [1e3]
    singles = [solve_p2(A[k], basis, ys[k], epsilons[k], cfg, beta=beta) for k in range(5)]

    stacked = count_stacks(monkeypatch)
    batch = solve_p2_batch(A, basis, ys, epsilons, cfg, beta=beta)
    assert stacked and max(stacked) >= 2  # the searches ran in lockstep

    for k, (got, ref) in enumerate(zip(batch, singles)):
        assert np.array_equal(got.theta_star, ref.theta_star), k
        assert got.lambda_used == ref.lambda_used, k
        assert got.constraint_residual == ref.constraint_residual, k
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged), k
        assert (got.n_solves, got.total_iterations) == (ref.n_solves, ref.total_iterations), k
    assert batch[4].lambda_used is None and not np.any(batch[4].theta_star)
    assert (batch[4].n_solves, batch[4].total_iterations) == (0, 0)
    searched = [r for r in batch[:4] if r.n_solves]
    assert len(searched) >= 3 and min(r.n_solves for r in searched) >= 2
    # The searches ended in different passes.
    assert len({r.total_iterations for r in searched}) > 1


@pytest.mark.parametrize("canonical", [False, True])
def test_p2_batch_raises_for_an_infeasible_radius(canonical):
    basis, cfg = p2_setting(canonical)
    A, ys, _ = make_problems(basis, 4, intensities=[1e4, 1e6])
    # Overdetermined, so the fit minimum is strictly positive and a tiny
    # radius is unreachable; its operator has another shape than the rest.
    A_over, y_over, _ = make_problems(basis, 5, N=2 * basis.dim, intensities=[1e6])
    eps = choose_epsilon("theory", A.shape[1])
    with pytest.raises(InfeasibleEpsilonError) as single:
        solve_p2(A_over[0], basis, y_over[0], 1e-6, cfg)
    with pytest.raises(InfeasibleEpsilonError) as batched:
        solve_p2_batch([A[0], A_over[0], A[1]], basis, [ys[0], y_over[0], ys[1]],
                       [eps, 1e-6, eps], cfg)
    assert str(batched.value) == str(single.value)


def test_p2_batch_validates_its_inputs(monkeypatch):
    basis, cfg = p2_setting(False)
    A, ys, _ = make_problems(basis, 6, K=2)
    stacked = count_stacks(monkeypatch)
    with pytest.raises(LengthMismatchError):
        solve_p2_batch(A, basis, ys, [1.0], cfg)
    with pytest.raises(InvalidParamError, match="epsilon"):
        solve_p2_batch(A, basis, ys, [1.0, float("nan")], cfg)
    assert stacked == []



@pytest.mark.parametrize("case", ["all counts NaN", "a negative count", "a NaN count",
                                  "an infinite count", "a count short", "a basis too small",
                                  "a start too short"])
def test_bad_inputs_fail_before_any_stack(case, monkeypatch):
    # Each is refused by name, through every entry point, before any stack
    # starts: no solve can run on it, and a NaN count would otherwise pass
    # for a slack radius or an infeasible start.
    basis = identity_basis(20)
    A, ys, _ = make_problems(basis, 13, K=2, N=10)
    counts = [y.astype(float) for y in ys]
    starts = [np.ones(20), np.ones(20)]
    error, match = InvalidParamError, "counts"
    if case == "all counts NaN":
        counts[1][:] = np.nan
    elif case == "a negative count":
        counts[1][3] = -5.0
    elif case == "a NaN count":
        counts[1][3] = np.nan
    elif case == "an infinite count":
        counts[1][3] = np.inf
    elif case == "a count short":
        error, match, counts[1] = LengthMismatchError, "9 counts", counts[1][:9]
    elif case == "a basis too small":
        error, match = LengthMismatchError, "20 columns"
        basis, starts = identity_basis(19), [np.ones(19), np.ones(19)]
    else:
        error, match, starts[1] = LengthMismatchError, "start", np.ones(19)
    fit = FitTerm(FitKind.JSD)
    stacked = count_stacks(monkeypatch)
    with pytest.raises(error, match=match):
        solve_penalized(A[1], basis, counts[1], fit, 1.0, theta0=starts[1])
    with pytest.raises(error, match=match):
        solve_penalized_batch(A, basis, counts, fit, [1.0, 1.0], theta0=starts)
    if case != "a start too short":
        with pytest.raises(error, match=match):
            solve_penalized(A[1], basis, counts[1], fit, 1.0)
        with pytest.raises(error, match=match):
            solve_p2_batch(A, basis, counts, [1.0, 1.0])
    assert stacked == []


def same_result(got, ref, fields):
    return (np.array_equal(got.theta_star, ref.theta_star)
            and all(getattr(got, f) == getattr(ref, f) for f in fields))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20),
       shapes=st.lists(st.sampled_from([6, 9]), min_size=2, max_size=6),
       canonical=st.booleans(), kind=st.sampled_from(list(FitKind)),
       beta=st.sampled_from([0.0, 0.3]), data=st.data())
def test_results_do_not_depend_on_the_batch(seed, shapes, canonical, kind, beta, data):
    # Each problem's result is the same alone, at any place of a shuffled
    # batch and in any sub-batch, for a penalized solve and a P2 search.
    # Some radii are slack at the origin, so their searches return at once
    # and their rows leave a stack that live rows share before its first pass.
    basis = identity_basis(9) if canonical else dct2_basis(3)
    K = len(shapes)
    intensities = data.draw(st.lists(st.floats(2.0, 5.0), min_size=K, max_size=K))
    problems = [make_problems(basis, seed + k, K=1, N=N, intensities=[10.0 ** log_i])
                for k, (N, log_i) in enumerate(zip(shapes, intensities))]
    A, ys = [p[0][0] for p in problems], [p[1][0] for p in problems]
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(max_iters=80)
    fit = FitTerm(kind, beta)
    lams = [float(10 ** rng.uniform(-3.0, -1.0) * gradient_scale(A[k], basis, ys[k], fit))
            for k in range(K)]
    slack = data.draw(st.lists(st.booleans(), min_size=K, max_size=K))
    # sqjsd(y, 0) = sqrt(log(2) / 2 * sum(y)), below sqrt(sum(y)) + 1.
    epsilons = [math.sqrt(ys[k].sum()) + 1.0 if slack[k]
                else 2.0 * choose_epsilon("theory", N) for k, N in enumerate(shapes)]
    order = data.draw(st.permutations(range(K)))
    subset = data.draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=K, unique=True))

    def penalized(ks):
        return solve_penalized_batch([A[k] for k in ks], basis, [ys[k] for k in ks], fit,
                                     [lams[k] for k in ks], cfg)

    def p2(ks):
        return solve_p2_batch([A[k] for k in ks], basis, [ys[k] for k in ks],
                              [epsilons[k] for k in ks], cfg, beta=beta)

    for solve, fields in [(penalized, ("iterations", "converged", "lambda_used")),
                          (p2, ("iterations", "converged", "lambda_used",
                                "constraint_residual", "n_solves", "total_iterations"))]:
        alone = [solve([k])[0] for k in range(K)]
        if solve is p2:
            assert all(alone[k].n_solves == 0 for k in range(K) if slack[k])
        for ks in (order, subset):
            for k, got in zip(ks, solve(ks)):
                assert same_result(got, alone[k], fields), (k, ks)
