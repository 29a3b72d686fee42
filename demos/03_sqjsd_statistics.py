"""Concentration of sqrt(J(y, Phi x)) across Poisson realizations.

The statistic's mean stays below sqrt(N/4) at every intensity, its variance
stays near-constant, the distribution looks Gaussian to a KS test, and the
99th percentile scales like sqrt(N) - which is what makes it usable as a
constraint radius that needs no tuning.

Run:  python3 demos/03_sqjsd_statistics.py
"""

import numpy as np

from poisson_cs import (
    build_phi,
    choose_epsilon,
    ks_gaussian_test,
    monte_carlo_sqjsd,
    sample_rip_matrix,
    concentration_bounds,
)

rng = np.random.default_rng(0)


def dense_signal(m, intensity):
    x = rng.uniform(0.5, 1.5, m)
    return x * (intensity / x.sum())


print("== mean and variance vs intensity (N = 100 fixed) ==")
N, m = 100, 200
phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=1))
for intensity in (1e3, 1e4, 1e6, 1e8):
    rates = phi.rates(dense_signal(m, intensity))
    ss = monte_carlo_sqjsd(rates, trials=1000, seed=2)
    b = concentration_bounds(rates)
    print(f"  I={intensity:8.0e}  mean={ss.mean:6.3f} (bound {b.mean_bound:.3f})"
          f"  var={ss.var:6.3f} (bound {min(b.var_bound, 99.0):.3f})"
          f"  p99={ss.percentile(99):6.3f}")

print()
print("== sqrt(N) scaling of the 99th percentile (I = 1e6 fixed) ==")
p99 = {}
for i, N in enumerate((25, 50, 100, 200, 400)):
    phi = build_phi(sample_rip_matrix(N, 2 * N, 0.5, seed=10 + i))
    ss = monte_carlo_sqjsd(phi.rates(dense_signal(2 * N, 1e6)), trials=1000, seed=20 + i)
    p99[N] = ss.percentile(99)
    print(f"  N={N:4d}  p99={p99[N]:7.3f}   p99/sqrt(N)={p99[N] / np.sqrt(N):.3f}")
slope = np.polyfit(np.log(list(p99)), np.log(list(p99.values())), 1)[0]
print(f"log-log slope: {slope:.3f}")

print()
print("== Gaussianity (KS at 1% significance) and the two epsilon rules ==")
N, m = 100, 500
phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=30))
ss = monte_carlo_sqjsd(phi.rates(dense_signal(m, 1e4)), trials=1000, seed=31)
ks = ks_gaussian_test(ss.samples, alpha=0.01)
print(f"KS statistic {ks.statistic:.4f} vs critical {ks.critical:.4f}"
      f" -> {'pass' if ks.passed else 'fail'}")
print(f"epsilon (theory)     = {choose_epsilon('theory', N):.3f}")
print(f"epsilon (percentile) = {choose_epsilon('percentile', N, ss):.3f}")
