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
"""

from __future__ import annotations

import numpy as np

from .sensing import SensingMatrix

__all__ = ["measure", "derive_seed"]


def derive_seed(master_seed, *path) -> np.random.SeedSequence:
    """Seed of stream ``path`` under ``master_seed``: the library's one
    splitting rule, ``SeedSequence([master_seed, *path])``.  Identical
    (master_seed, path) pairs give identical streams, distinct paths
    statistically independent ones."""
    return np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])


def measure(phi: SensingMatrix, x, seed) -> np.ndarray:
    """Draw y_i ~ Poisson((Phi x)_i) independently per coordinate; return
    the counts as a read-only int64 vector.

    ``seed`` is anything ``np.random.default_rng`` takes: an integer or a
    SeedSequence creates a fresh PCG64 stream, so repeated calls are
    reproducible, and a Generator is used as is.
    """
    counts = np.random.default_rng(seed).poisson(phi.rates(x)).astype(np.int64)
    counts.setflags(write=False)
    return counts
