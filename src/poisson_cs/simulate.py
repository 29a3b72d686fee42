"""Poisson measurement generation y ~ Poisson(Phi x).

A measurement is its count vector alone: a read-only int64 array, which
every solver takes as is; ``SensingMatrix.rates`` gives the rates it was
drawn from.  Sampling uses numpy's ``Generator.poisson``, which draws by the
multiplication method (counting uniforms until their product falls below
exp(-rate)) at rates below 10 and by the PTRS transformed-rejection sampler
at 10 and above, so rates spanning 1e0 to 1e8+ are exact and fast.  (The
Monte-Carlo statistics invert per-column CDF tables instead; a measurement
draws one vector per trial, so building a table would not pay off.)  Every
consumer of randomness owns its own PCG64 stream; parallel trials derive
child streams from a master seed through ``derive_seed``,
``SeedSequence([master, *path])`` (the documented splitting rule used
throughout the experiment harness).

No rate may exceed ``MAX_RATE``: above it ``Generator.poisson``'s draws are
no longer Poisson, so ``measure`` and ``sqjsd_stats.monte_carlo_sqjsd``
refuse such rates, and the experiment spec an intensity above it (no rate
exceeds its signal's intensity, as Phi's entries are 0 or 1/N).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .sensing import SensingMatrix

__all__ = ["measure", "derive_seed", "MAX_RATE"]

# The largest rate whose Generator.poisson draws stay Poisson.  Above it the
# PTRS acceptance test, a log-density built by cancelling terms near
# rate * log(rate), has too few digits left to compare.  Over 10^7 draws,
# z = (k - rate) / sqrt(rate) reads variance 1.0001 and excess kurtosis
# -0.001 at every rate from 1e10 to 2e12 and passes a KS test against
# N(0, 1) (sqrt(n) D = 0.53-0.62); at 3e12 the figures begin to move
# (1.0002, -0.002, 0.85), at 5e12 the test rejects at 1 % (1.91), at 1e13
# by far (4.57), and at 3e13 the variance reads 1.018.
MAX_RATE = 1e12


def _below_max_rate(rates: np.ndarray) -> np.ndarray:
    """``rates``, or a DomainError naming them if one is above MAX_RATE."""
    top = float(np.max(rates))
    if top > MAX_RATE:
        raise DomainError(f"rates must be at most MAX_RATE = {MAX_RATE:g}, above which "
                          f"Generator.poisson's draws are not Poisson; got {top:g}")
    return rates


def derive_seed(master_seed, *path) -> np.random.SeedSequence:
    """Seed of stream ``path`` under ``master_seed``: the library's one
    splitting rule, ``SeedSequence([master_seed, *path])``.  Identical
    (master_seed, path) pairs give identical streams, distinct paths
    statistically independent ones."""
    return np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])


def measure(phi: SensingMatrix, x, seed) -> np.ndarray:
    """Draw y_i ~ Poisson((Phi x)_i) independently per coordinate; return
    the counts as a read-only int64 vector.  A rate above ``MAX_RATE``
    raises ``DomainError`` before any draw.

    ``seed`` is anything ``np.random.default_rng`` takes: an integer or a
    SeedSequence creates a fresh PCG64 stream, so repeated calls are
    reproducible, and a Generator is used as is.
    """
    rates = _below_max_rate(phi.rates(x))
    counts = np.random.default_rng(seed).poisson(rates).astype(np.int64)
    counts.setflags(write=False)
    return counts
