"""The batched penalized solver against the scalar one, bit for bit."""

import numpy as np
import pytest

from poisson_cs import solvers
from poisson_cs.errors import InfeasibleStartError, InvalidParamError, LengthMismatchError
from poisson_cs.sensing import build_phi, sample_rip_matrix
from poisson_cs.simulate import measure
from poisson_cs.solvers import (
    FitKind,
    FitTerm,
    SolverConfig,
    gradient_scale,
    solve_penalized,
    solve_penalized_batch,
)
from poisson_cs.transforms import dct2_basis, identity_basis


def make_problems(basis, seed, K=7, N=15):
    """K measured signals of varied intensity; the last one is dim enough
    that some counts are zero."""
    rng = np.random.default_rng(seed)
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


def scalar_reference(A, basis, y, fit, lam, cfg, warm):
    """The scalar solve from ``warm``, or from the default start when it is infeasible."""
    if warm is not None:
        try:
            return solve_penalized(A, basis, y, fit, lam, cfg, theta0=warm), False
        except InfeasibleStartError:
            pass
    return solve_penalized(A, basis, y, fit, lam, cfg), warm is not None


@pytest.mark.parametrize("kind", list(FitKind))
@pytest.mark.parametrize("beta", [0.0, 0.4])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("canonical", [False, True])
def test_batch_matches_scalar_bit_for_bit(kind, beta, seed, canonical, monkeypatch):
    if canonical:
        basis, cfg = identity_basis(30), SolverConfig(max_iters=300, nonneg_signal=True)
    else:
        basis, cfg = dct2_basis(5), SolverConfig(max_iters=300)
    fit = FitTerm(kind, beta)
    A, ys, rng = make_problems(basis, seed)
    K = len(ys)
    lams = [float(10 ** rng.uniform(-3.5, -1.0) * gradient_scale(A[k], basis, ys[k], fit))
            for k in range(K)]
    # Warm starts from a sparser solve, as on a lambda path; row 0 starts at
    # the default point and row 1 from outside the fit domain.
    warms = [solve_penalized(A[k], basis, ys[k], fit, 4.0 * lams[k], cfg).theta_star
             for k in range(K)]
    warms[0] = None
    warms[1] = basis.analyze(np.full(basis.dim, -1e3 * (beta + 1.0)))

    stacked = []
    lockstep = solvers._solve_lockstep
    monkeypatch.setattr(solvers, "_solve_lockstep",
                        lambda models, *args: stacked.append(len(models))
                        or lockstep(models, *args))
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
        assert got.objective_trace == ref.objective_trace, k
        assert got.lambda_used == ref.lambda_used
    assert fell_back[1]
    assert len({r.iterations for r in batch}) > 1  # rows stopped at different iterations


def test_rows_hitting_the_iteration_cap():
    basis = dct2_basis(5)
    fit = FitTerm(FitKind.JSD)
    A, ys, _ = make_problems(basis, 4, K=5)
    cfg = SolverConfig(max_iters=12)
    lams = [1e-4 * gradient_scale(A[k], basis, ys[k], fit) for k in range(5)]
    batch = solve_penalized_batch(A, basis, ys, fit, lams, cfg)
    for k in range(5):
        ref = solve_penalized(A[k], basis, ys[k], fit, lams[k], cfg)
        assert np.array_equal(batch[k].theta_star, ref.theta_star)
        assert (batch[k].iterations, batch[k].converged) == (ref.iterations, ref.converged)
    assert not all(r.converged for r in batch)


def test_batch_validates_its_inputs():
    basis = dct2_basis(5)
    fit = FitTerm(FitKind.JSD)
    A, ys, _ = make_problems(basis, 5, K=3)
    with pytest.raises(LengthMismatchError):
        solve_penalized_batch(A, basis, ys[:2], fit, [1.0, 1.0, 1.0])
    with pytest.raises(InvalidParamError):
        solve_penalized_batch(A, basis, ys, fit, [1.0, 0.0, 1.0])
