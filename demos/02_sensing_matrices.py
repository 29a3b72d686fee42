"""Physically-realizable sensing matrices and their RIP-bearing companions.

Run:  python3 demos/02_sensing_matrices.py
"""

import numpy as np

from poisson_cs import build_phi, compose_effective, estimate_ric, sample_rip_matrix
from poisson_cs.transforms import dct2_basis

N, m = 40, 12
zt = sample_rip_matrix(N, m, p=0.5, seed=0)
phi = build_phi(zt)

print("== construction ==")
print(f"Phi_tilde entries: {[float(v) for v in np.unique(zt)]}  (= +-1/sqrt(N))")
print(f"Phi entries:       {[float(v) for v in np.unique(phi.entries)]}  (= 0 or 1/N)")
print(f"column sums of Phi: min {phi.entries.sum(axis=0).min():.3f}, "
      f"max {phi.entries.sum(axis=0).max():.3f}  (all <= 1: flux preservation)")

rng = np.random.default_rng(1)
x = rng.uniform(0, 100, m)
print(f"||Phi x||_1 = {np.sum(phi.entries @ x):.2f} <= ||x||_1 = {np.sum(x):.2f}")

print()
print("== measured restricted isometry constant (exhaustive, small scale) ==")
est = estimate_ric(zt, s=2)
print(f"delta_4 of Phi_tilde over {est.supports_checked} supports: {est.delta:.4f}")
print("(Phi itself, being non-negative, does not satisfy the RIP;"
      " its companion does.)")

print()
print("== effective operators through an orthonormal basis ==")
phi49 = build_phi(sample_rip_matrix(25, 49, p=0.5, seed=2))
A, B = compose_effective(phi49, dct2_basis(7))
print(f"A = Phi Psi:        {A.shape}, B = Phi_tilde Psi: {B.shape}")
print(f"mean squared column norm of B: {np.mean(np.sum(B**2, axis=0)):.4f}  (~ 1)")
