"""Poisson measurement generation y ~ Poisson(Phi x).

Sampling uses numpy's ``Generator.poisson``, which switches between direct
inversion at small rates and the PTRS transformed-rejection sampler at large
ones, so rates spanning 1e0 to 1e8+ are exact and fast.  Every consumer of
randomness owns its own PCG64 stream; parallel trials derive child streams
from a master seed through ``derive_seed``, ``SeedSequence([master, *path])``
(the documented splitting rule used throughout the experiment harness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError
from .sensing import SensingMatrix

__all__ = ["MeasurementVector", "measure", "derive_seed", "derive_rng"]


@dataclass(frozen=True)
class MeasurementVector:
    """Photon counts, the rates they were drawn from, and the seed used."""

    counts: np.ndarray
    rates: np.ndarray
    seed: object

    def __post_init__(self):
        if self.counts.shape != self.rates.shape:
            raise LengthMismatchError("counts and rates differ in length")

    def __len__(self) -> int:
        return self.counts.size


def derive_seed(master_seed, *path) -> np.random.SeedSequence:
    """Seed of stream ``path`` under ``master_seed``: the library's one
    splitting rule, ``SeedSequence([master_seed, *path])``."""
    return np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])


def derive_rng(master_seed, *path) -> np.random.Generator:
    """Child generator for stream ``path`` under ``master_seed``.

    Identical (master_seed, path) pairs always yield identical streams;
    distinct paths yield statistically independent ones.
    """
    return np.random.default_rng(derive_seed(master_seed, *path))


def measure(phi: SensingMatrix, x, seed) -> MeasurementVector:
    """Draw y_i ~ Poisson((Phi x)_i) independently per coordinate.

    ``seed`` is anything ``np.random.default_rng`` takes: an integer or a
    SeedSequence creates a fresh PCG64 stream, so repeated calls are
    reproducible, and a Generator is used as is.
    """
    rates = phi.rates(x)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rates).astype(np.int64)
    counts.setflags(write=False)
    rates.setflags(write=False)
    return MeasurementVector(counts=counts, rates=rates, seed=seed)
