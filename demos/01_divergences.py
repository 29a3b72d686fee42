"""Tour of the divergence functionals and the inequalities relating them.

Run:  python3 demos/01_divergences.py
"""

import numpy as np

from poisson_cs import delta, gen_kl, jsd, kl, snll, sqjsd, sym_kl, total_variation

rng = np.random.default_rng(0)

print("== basic values ==")
p, q = [0.2, 0.8], [0.6, 0.4]
print(f"kl({p}, {q})       = {kl(p, q):.6f}")
print(f"jsd([1,0], [0,1])          = {jsd([1, 0], [0, 1]):.6f}  (= log 2)")
print(f"sqjsd([1,0], [0,1])        = {sqjsd([1, 0], [0, 1]):.6f}")
print(f"gen_kl([4], [2])           = {gen_kl([4], [2]):.6f}  (= 4 log 2 - 2)")
print(f"snll([1], [1])             = {snll([1], [1]):.6f}  (= log 2 pi)")

print()
print("== sqjsd is a metric: triangle inequality on random triples ==")
worst = -np.inf
for _ in range(2000):
    a, b, c = (rng.uniform(0, 10, 8) for _ in range(3))
    worst = max(worst, sqjsd(a, b) - sqjsd(a, c) - sqjsd(b, c))
print(f"worst (d(a,b) - d(a,c) - d(b,c)) over 2000 triples: {worst:.3e}  (<= 0)")

print()
print("== chain V^2/2 <= Delta <= 4J for l1-bounded vectors ==")
for _ in range(3):
    a = rng.uniform(0, 1, 6)
    b = rng.uniform(0, 1, 6)
    a *= rng.uniform(0, 1) / a.sum()
    b *= rng.uniform(0, 1) / b.sum()
    v = total_variation(a, b)
    print(f"  V^2/2 = {0.5 * v * v:.5f}  <=  Delta = {delta(a, b):.5f}"
          f"  <=  4J = {4 * jsd(a, b):.5f}")

print()
print("== J <= Ds/4 on strictly positive pairs ==")
for _ in range(3):
    a = rng.uniform(0.1, 10, 6)
    b = rng.uniform(0.1, 10, 6)
    print(f"  J = {jsd(a, b):.5f}  <=  Ds/4 = {0.25 * sym_kl(a, b):.5f}")
