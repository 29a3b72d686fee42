"""Scalar divergences between non-negative vectors.

All functions operate on non-negative real vectors (not necessarily
normalized), use natural logarithms, and apply the conventions

    0 * log(0)   = 0
    0 * log(0/0) = 0   (the term is skipped)

so that the Jensen-Shannon divergence is finite on the whole closed
non-negative orthant.  A support violation in the plain KL direction
(p_i > 0 while q_i = 0) raises :class:`DomainError` instead of returning
infinity: in this library that situation always indicates a caller bug.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LengthMismatchError

__all__ = [
    "DivergenceKind",
    "DivergenceValue",
    "as_nonneg_vector",
    "kl",
    "jsd",
    "sqjsd",
    "gen_kl",
    "total_variation",
    "delta",
    "sym_kl",
    "nll_approx",
    "snll",
    "jsd_rowwise",
]

LOG_2PI = math.log(2.0 * math.pi)

# The error state of every evaluation of a term with a discarded branch.
_QUIET = {"divide": "ignore", "invalid": "ignore"}

# Above this length, plain pairwise summation is replaced by compensated
# summation: sweep experiments sum many near-cancelling terms.
_FSUM_THRESHOLD = 10_000


class DivergenceKind(enum.Enum):
    KL = "kl"
    GEN_KL = "gen_kl"
    JSD = "jsd"
    SQJSD = "sqjsd"
    TV = "tv"
    DELTA = "delta"
    SNLL = "snll"
    NLL_APPROX = "nll_approx"
    SYM_KL = "sym_kl"


# Kinds that are non-negative by construction on arbitrary non-negative
# vectors.  Plain KL is excluded: without normalization it can go negative
# (its symmetrized form cannot).  SNLL / NLL_APPROX carry additive log-terms
# and may be negative as well.
_NONNEG_KINDS = frozenset(
    {
        DivergenceKind.GEN_KL,
        DivergenceKind.JSD,
        DivergenceKind.SQJSD,
        DivergenceKind.TV,
        DivergenceKind.DELTA,
        DivergenceKind.SYM_KL,
    }
)

# Rounding can leave values like -1e-17 where the exact result is 0; anything
# more negative than this on a non-negative kind is a genuine bug.
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class DivergenceValue:
    """A computed divergence together with the functional it came from."""

    value: float
    kind: DivergenceKind

    def __post_init__(self):
        if self.kind in _NONNEG_KINDS:
            if self.value < -_NEG_TOL:
                raise DomainError(
                    f"{self.kind.value} produced negative value {self.value!r}"
                )
            if self.value < 0.0:
                object.__setattr__(self, "value", 0.0)

    def __float__(self) -> float:
        return self.value


def as_nonneg_vector(values, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D float64 array with entries >= 0."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size < 1:
        raise DomainError(f"{name} must have length >= 1")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    if np.any(arr < 0.0):
        raise DomainError(f"{name} contains negative entries")
    return arr


def _pair(p, q):
    p = as_nonneg_vector(p, "p")
    q = as_nonneg_vector(q, "q")
    if p.shape != q.shape:
        raise LengthMismatchError(f"length {p.size} vs {q.size}")
    return p, q


def _accumulate(terms: np.ndarray) -> float:
    if terms.size > _FSUM_THRESHOLD:
        return math.fsum(terms.tolist())
    return float(np.sum(terms))


def _xlog_ratio(x: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Termwise x * log(x/other) for x > 0.

    Computed as -x*log1p((other-x)/x), which is exact algebraically and does
    not lose the small difference when x ~ other (the high-intensity Poisson
    regime).
    """
    return -x * np.log1p((other - x) / x)


def _xlog_self_ratio(x: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Termwise x * log(x/other) with 0*log(0) = 0.

    Caller guarantees other > 0 wherever x > 0; the discarded branch at
    x = 0 may be nan, so callers hold ``np.errstate(**_QUIET)``.
    """
    return np.where(x > 0.0, _xlog_ratio(x, other), 0.0)


def _gen_kl_terms(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Termwise y log(y/u) - y + u."""
    return _xlog_self_ratio(y, u) + (u - y)


def _snll_terms(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Termwise symmetrized Stirling NLL, defined where y > 0 and u > 0 (so
    no zero convention applies)."""
    return (
        _xlog_ratio(y, u)
        + _xlog_ratio(u, y)
        + 0.5 * np.log(y)
        + 0.5 * np.log(u)
        + LOG_2PI
    )


def kl(p, q) -> DivergenceValue:
    """Kullback-Leibler divergence sum_i p_i log(p_i / q_i).

    Requires q_i > 0 wherever p_i > 0; terms with p_i = 0 contribute 0.
    """
    p, q = _pair(p, q)
    pos = p > 0.0
    if np.any(q[pos] == 0.0):
        raise DomainError("kl undefined: p_i > 0 where q_i = 0")
    with np.errstate(**_QUIET):
        terms = _xlog_self_ratio(p, q)
    return DivergenceValue(_accumulate(terms), DivergenceKind.KL)


def _jsd_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # 2 J(p,q) = sum_i [ p log(2p/(p+q)) + q log(2q/(p+q)) ], termwise on
    # arrays of any shape; callers halve the sum (exact in floating point).
    # log(2p/(p+q)) = log1p(d) with d = (p-q)/(p+q) keeps full precision when
    # p ~ q, which is the regime of every high-intensity Poisson experiment;
    # the q-term's argument is -d, since q-p = -(p-q) exactly.  Each product
    # is kept only where its front factor is positive (then the log1p argument
    # is strictly above -1); the discarded branch may be -inf or nan, so
    # callers hold np.errstate(**_QUIET).
    d = p - q
    d /= p + q
    out = np.where(p > 0.0, p * np.log1p(d), 0.0)
    np.negative(d, out=d)
    np.log1p(d, out=d)
    d *= q
    out += np.where(q > 0.0, d, 0.0)
    return out


def jsd(p, q) -> DivergenceValue:
    """Jensen-Shannon divergence (D(p,m) + D(q,m)) / 2 with m = (p+q)/2.

    Finite for any pair of non-negative vectors and symmetric in (p, q).
    """
    p, q = _pair(p, q)
    with np.errstate(**_QUIET):
        terms = _jsd_terms(p, q)
    return DivergenceValue(0.5 * _accumulate(terms), DivergenceKind.JSD)


def sqjsd(p, q) -> DivergenceValue:
    """Square root of the Jensen-Shannon divergence (a metric)."""
    return DivergenceValue(math.sqrt(jsd(p, q).value), DivergenceKind.SQJSD)


def jsd_rowwise(P, q) -> np.ndarray:
    """Jensen-Shannon divergence of each row of ``P`` against ``q``.

    ``P`` is (k, n); ``q`` is (n,) or (k, n).  Returns a (k,) array.  This is
    the vectorized path used by the Monte-Carlo machinery; entries must be
    non-negative (not re-validated here).

    Integer counts ``P`` against a 1-D ``q`` take a table path: column ``i``
    only holds counts in ``lo[i] .. hi[i]``, so ``_jsd_terms`` is evaluated
    once per count in that range (an ``(n, width)`` table) and each entry's
    term is gathered from it.  The table is used only when ``width <= k``,
    so it is never larger than ``P``; wider count ranges (few rows, or very
    high rates) and float input take the elementwise path.  Both paths
    evaluate the same formula at the same points and sum each row in the
    same order, so their results are bit-identical.
    """
    P = np.asarray(P)
    q = np.asarray(q, dtype=float)
    if P.dtype.kind == "i" and P.ndim == 2 and q.ndim == 1 and P.size:
        lo = P.min(axis=0)
        width = int(np.max(P.max(axis=0) - lo)) + 1
        if width <= P.shape[0]:
            # Row i of the table holds the terms of counts lo[i] .. lo[i] +
            # width - 1 against q[i]; entry (r, i) is at flat position
            # i * width + P[r, i] - lo[i].
            with np.errstate(**_QUIET):
                table = _jsd_terms(lo[:, None] + np.arange(width, dtype=float), q[:, None])
            terms = table.ravel().take(P + (np.arange(P.shape[1]) * width - lo))
            return np.maximum(0.5 * np.sum(terms, axis=-1), 0.0)
    P = P.astype(float, copy=False)
    Q = np.broadcast_to(q, P.shape)
    with np.errstate(**_QUIET):
        terms = _jsd_terms(P, Q)
    return np.maximum(0.5 * np.sum(terms, axis=-1), 0.0)


def gen_kl(y, u) -> DivergenceValue:
    """Generalized KL divergence sum_i y_i log(y_i/u_i) - y_i + u_i (>= 0)."""
    y, u = _pair(y, u)
    pos = y > 0.0
    if np.any(u[pos] == 0.0):
        raise DomainError("gen_kl undefined: y_i > 0 where u_i = 0")
    with np.errstate(**_QUIET):
        terms = _gen_kl_terms(y, u)
    return DivergenceValue(_accumulate(terms), DivergenceKind.GEN_KL)


def total_variation(p, q) -> DivergenceValue:
    """l1 distance sum_i |p_i - q_i| (the paper-style unhalved V)."""
    p, q = _pair(p, q)
    return DivergenceValue(_accumulate(np.abs(p - q)), DivergenceKind.TV)


def delta(p, q) -> DivergenceValue:
    """Triangular discrimination sum_i |p_i - q_i|^2 / (p_i + q_i).

    Indices with p_i + q_i = 0 contribute 0 (there |p_i - q_i| = 0 as well).
    """
    p, q = _pair(p, q)
    s = p + q
    d = p - q
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = d[pos] ** 2 / s[pos]
    return DivergenceValue(_accumulate(out), DivergenceKind.DELTA)


def sym_kl(u, v) -> DivergenceValue:
    """Symmetrized KL divergence D(u,v) + D(v,u).

    Requires mutual absolute continuity: both KL directions must be defined.
    """
    return DivergenceValue(kl(u, v).value + kl(v, u).value, DivergenceKind.SYM_KL)


def nll_approx(y, u) -> DivergenceValue:
    """Stirling-approximated Poisson negative log-likelihood.

    gen_kl(y, u) + sum_i (log(y_i)/2 + log(2*pi)/2); requires y_i > 0 for
    every i (the log y_i term) and u_i > 0.  Callers with zero counts must
    filter them out first.
    """
    y, u = _pair(y, u)
    if np.any(y == 0.0):
        raise DomainError("nll_approx undefined for zero counts (log y_i term)")
    if np.any(u == 0.0):
        raise DomainError("nll_approx requires u_i > 0")
    with np.errstate(**_QUIET):
        terms = _gen_kl_terms(y, u) + 0.5 * np.log(y) + 0.5 * LOG_2PI
    return DivergenceValue(_accumulate(terms), DivergenceKind.NLL_APPROX)


def snll(y, u) -> DivergenceValue:
    """Symmetrized, Stirling-approximated Poisson negative log-likelihood.

    gen_kl(y,u) + gen_kl(u,y) + sum_i (log(y_i)/2 + log(u_i)/2 + log(2*pi)).
    """
    y, u = _pair(y, u)
    if np.any(y == 0.0) or np.any(u == 0.0):
        raise DomainError("snll requires y_i > 0 and u_i > 0")
    return DivergenceValue(_accumulate(_snll_terms(y, u)), DivergenceKind.SNLL)
