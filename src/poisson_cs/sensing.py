"""Physically-realizable sensing matrices and small-scale RIP measurement.

The measurement operator is built in two stages.  A random sign matrix

    Z_ij = -sqrt((1-p)/p)  with probability p,
           +sqrt(p/(1-p))  with probability 1-p,

scaled to ``Phi_tilde = Z / sqrt(N)``, a read-only array, is the RIP-bearing
companion.  The optical system's matrix is the affine push-forward

    Phi = sqrt(p(1-p)/N) * Phi_tilde + ((1-p)/N) * ones,

whose entries collapse to exactly {0, 1/N}: zero where Z is negative and
1/N where it is positive, for any p in (0,1).  Phi is entrywise
non-negative and every column sums to at most 1 (flux preservation).

Randomness comes from numpy's PCG64 generator so that seeded experiments
are bit-reproducible across platforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParamError,
    LengthMismatchError,
    TooManySupportsError,
    check_integer,
)

__all__ = [
    "SensingMatrix",
    "RicEstimate",
    "sample_rip_matrix",
    "build_phi",
    "estimate_ric",
    "compose_effective",
]


@dataclass(frozen=True)
class SensingMatrix:
    """Non-negative, flux-preserving measurement matrix with entries in {0, 1/N}."""

    entries: np.ndarray
    # The Phi_tilde draw it was built from.
    source: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    def rates(self, x) -> np.ndarray:
        """Measurement rates ``Phi x`` of the signal ``x``, which must be 1-D
        of length ``dim``, finite and non-negative."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.dim:
            raise LengthMismatchError(
                f"signal length {x.size} does not match matrix dim {self.dim}"
            )
        if not np.all(np.isfinite(x)):
            raise InvalidParamError("signal must be finite")
        if np.any(x < 0.0):
            raise InvalidParamError("signal must be non-negative")
        # einsum sums each row in one fixed order, where a BLAS gemv's order
        # (and so the last bits) may follow its thread count.
        return np.einsum("ij,j->i", self.entries, x)


@dataclass(frozen=True)
class RicEstimate:
    """Exhaustively measured restricted isometry constant of order 2s."""

    order: int
    delta: float
    supports_checked: int


def sample_rip_matrix(N: int, m: int, p: float = 0.5, seed: int | None = 0) -> np.ndarray:
    """Draw the N x m two-point sign matrix, scaled by 1/sqrt(N), read-only.

    Entries are i.i.d.: -sqrt((1-p)/p) with probability p and
    +sqrt(p/(1-p)) with probability 1-p, all divided by sqrt(N).  For
    p = 1/2 every entry is exactly +-1/sqrt(N).  Deterministic given seed.
    """
    check_integer("N", N, 1)
    check_integer("m", m, 1)
    if not (0.0 < p < 1.0):
        raise InvalidParamError(f"p must lie in (0,1), got {p}")
    rng = np.random.default_rng(seed)
    negative = rng.random((N, m)) < p
    lo = -math.sqrt((1.0 - p) / p) / math.sqrt(N)
    hi = math.sqrt(p / (1.0 - p)) / math.sqrt(N)
    entries = np.where(negative, lo, hi)
    entries.setflags(write=False)
    return entries


def build_phi(zt: np.ndarray) -> SensingMatrix:
    """Map the RIP matrix to the optical sensing matrix.

    The affine combination sqrt(p(1-p)/N)*Phi_tilde + ((1-p)/N)*ones sends the
    negative level to exactly 0 and the positive level to exactly 1/N, so the
    entries are written directly from the sign pattern rather than through
    floating-point subtraction.
    """
    entries = np.where(zt < 0.0, 0.0, 1.0 / zt.shape[0])
    entries.setflags(write=False)
    return SensingMatrix(entries=entries, source=zt)


def estimate_ric(B: np.ndarray, s: int, max_supports: int = 10**6) -> RicEstimate:
    """Exhaustive restricted isometry constant of order 2s.

    Enumerates every 2s-column submatrix G of B and returns

        delta = max over supports of max(|lmax(G^T G) - 1|, |1 - lmin(G^T G)|).

    Being exhaustive, the result is exact (a sampled delta would only lower
    bound the true constant and silently weaken downstream tests).  Raises
    TooManySupportsError if C(m, 2s) exceeds ``max_supports``.
    """
    B = np.asarray(B, dtype=float)
    m = B.shape[1]
    order = 2 * s
    if order < 1 or order > m:
        raise InvalidParamError(f"order 2s={order} must lie in [1, {m}]")
    n_supports = math.comb(m, order)
    if n_supports > max_supports:
        raise TooManySupportsError(
            f"C({m},{order}) = {n_supports} exceeds cap {max_supports}"
        )
    delta = 0.0
    for support in itertools.combinations(range(m), order):
        G = B[:, support]
        eigs = np.linalg.eigvalsh(G.T @ G)
        delta = max(delta, abs(eigs[-1] - 1.0), abs(1.0 - eigs[0]))
    return RicEstimate(order=order, delta=delta, supports_checked=n_supports)


def compose_effective(phi: SensingMatrix, basis) -> tuple[np.ndarray, np.ndarray]:
    """Dense effective operators (A, B) = (Phi @ Psi, Phi_tilde @ Psi).

    A maps sparse coefficients to measurement rates; B is the companion whose
    RIC governs the reconstruction bound.
    """
    psi = basis.matrix()
    A = phi.entries @ psi
    B = phi.source @ psi
    return A, B
