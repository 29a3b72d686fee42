"""Sparse recovery from Poisson-corrupted compressive measurements.

Compares the constrained estimator (minimal l1 norm subject to a sqjsd
ball whose radius needs no tuning) against the penalized JSD / SNLL /
generalized-KL estimators with oracle-picked regularization.

Run:  python3 demos/04_sparse_recovery.py    (about a minute)
"""

import numpy as np

from poisson_cs import (
    FitKind,
    FitTerm,
    SolverConfig,
    build_phi,
    choose_epsilon,
    measure,
    rrmse,
    sample_rip_matrix,
    solve_p2,
    solve_penalized,
)
from poisson_cs.solvers import gradient_scale
from poisson_cs.transforms import identity_basis

m, N, s = 100, 50, 5
basis = identity_basis(m)
cfg = SolverConfig(max_iters=1500)
rng = np.random.default_rng(0)

print(f"signal: {s}-sparse, dim {m}; measurements: {N}")
print()
print("== constrained estimator, radius from the tail bound ==")
eps = choose_epsilon("theory", N)
print(f"epsilon = sqrt(N) (1/2 + sqrt(11)/8) = {eps:.3f}")
for intensity in (1e4, 1e6, 1e8):
    errs = []
    for trial in range(5):
        x = np.zeros(m)
        x[rng.choice(m, s, replace=False)] = rng.uniform(0.5, 1.5, s)
        x *= intensity / x.sum()
        phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=100 + trial))
        y = measure(phi, x, seed=200 + trial)
        res = solve_p2(phi.entries, basis, y, eps, cfg)
        errs.append(rrmse(x, basis.synthesize(res.theta_star)))
    print(f"  I={intensity:8.0e}  median RRMSE over 5 trials: {np.median(errs):.4f}")

print()
print("== penalized estimators, oracle lambda, I = 1e8 ==")
x = np.zeros(m)
x[rng.choice(m, s, replace=False)] = rng.uniform(0.5, 1.5, s)
x *= 1e8 / x.sum()
phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=7))
y = measure(phi, x, seed=8)
for kind in (FitKind.JSD, FitKind.SNLL, FitKind.GEN_KL):
    fit = FitTerm(kind)
    scale = gradient_scale(phi.entries, basis, y, fit)
    best = np.inf
    for lam in scale * np.geomspace(1e-4, 0.3, 10):
        res = solve_penalized(phi.entries, basis, y, fit, float(lam), cfg)
        best = min(best, rrmse(x, basis.synthesize(res.theta_star)))
    print(f"  {kind.value:8s} best RRMSE over the lambda grid: {best:.5f}")
print("(the three data-fit terms give nearly identical reconstructions)")
