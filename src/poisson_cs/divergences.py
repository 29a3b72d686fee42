"""Scalar divergences between non-negative vectors.

All functions operate on non-negative real 1-D vectors (not necessarily
normalized), use natural logarithms, and apply the conventions

    0 * log(0)   = 0
    0 * log(0/0) = 0   (the term is skipped)

so that the Jensen-Shannon divergence is finite on the whole closed
non-negative orthant.  A support violation in the plain KL direction
(p_i > 0 while q_i = 0) raises :class:`DomainError` instead of returning
infinity: in this library that situation always indicates a caller bug.

Each function returns a Python ``float``, the ``np.sum`` of its terms.
The divergences that are non-negative by construction (generalized KL,
JSD, SQJSD, total variation, triangular discrimination and symmetrized KL)
return rounding below 0 as 0.0; plain KL and the two Stirling NLLs may be
negative and come back as summed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, LengthMismatchError

__all__ = [
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

# Rounding can leave values like -1e-17 where the exact result is 0; anything
# more negative than this on a non-negative divergence is a genuine bug.
_NEG_TOL = 1e-12


def _nonneg(name: str, value: float) -> float:
    """``value`` of the non-negative divergence ``name``, with rounding below
    0 returned as 0.0; below ``-_NEG_TOL`` it raises :class:`DomainError`."""
    if value < -_NEG_TOL:
        raise DomainError(f"{name} produced negative value {value!r}")
    return 0.0 if value < 0.0 else value


def as_nonneg_vector(values, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D float64 array with entries >= 0.

    A scalar is a vector of length 1; an array of more than one dimension
    is refused.
    """
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise DomainError(f"{name} must be 1-D, got shape {arr.shape}")
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


def kl(p, q) -> float:
    """Kullback-Leibler divergence sum_i p_i log(p_i / q_i).

    Requires q_i > 0 wherever p_i > 0; terms with p_i = 0 contribute 0.
    """
    p, q = _pair(p, q)
    pos = p > 0.0
    if np.any(q[pos] == 0.0):
        raise DomainError("kl undefined: p_i > 0 where q_i = 0")
    with np.errstate(**_QUIET):
        terms = _xlog_self_ratio(p, q)
    return float(np.sum(terms))


def _where_positive(term: np.ndarray, side: np.ndarray, zero) -> np.ndarray:
    """``term`` where ``side`` > 0, and 0 elsewhere.  ``zero`` marks where
    ``side`` is not positive when the caller knows it: an array of those
    places, zeroed in ``term`` itself, or False for nowhere, which leaves
    ``term`` as it is, since np.where(True, t, 0.0) is t.  With None the
    select is made here."""
    if zero is None:
        return np.where(side > 0.0, term, 0.0)
    if zero is not False:
        np.copyto(term, 0.0, where=zero)
    return term


def _jsd_terms(p: np.ndarray, q: np.ndarray, p_zero=None, q_zero=None) -> np.ndarray:
    # 2 J(p,q) = sum_i [ p log(2p/(p+q)) + q log(2q/(p+q)) ], termwise on
    # arrays of any shape; callers halve the sum (exact in floating point).
    # log(2p/(p+q)) = log1p(d) with d = (p-q)/(p+q) keeps full precision when
    # p ~ q, which is the regime of every high-intensity Poisson experiment;
    # the q-term's argument is -d, since q-p = -(p-q) exactly.  Each product
    # is kept only where its front factor is positive (then the log1p argument
    # is strictly above -1), by ``_where_positive`` with the caller's
    # ``p_zero`` and ``q_zero``; the discarded branch may be -inf or nan, so
    # callers hold np.errstate(**_QUIET).
    d = p - q
    d /= p + q
    out = np.log1p(d)
    out *= p
    out = _where_positive(out, p, p_zero)
    np.negative(d, out=d)
    np.log1p(d, out=d)
    d *= q
    out += _where_positive(d, q, q_zero)
    return out


def jsd(p, q) -> float:
    """Jensen-Shannon divergence (D(p,m) + D(q,m)) / 2 with m = (p+q)/2.

    Finite for any pair of non-negative vectors and symmetric in (p, q).
    """
    p, q = _pair(p, q)
    with np.errstate(**_QUIET):
        terms = _jsd_terms(p, q)
    return _nonneg("jsd", 0.5 * float(np.sum(terms)))


def sqjsd(p, q) -> float:
    """Square root of the Jensen-Shannon divergence (a metric)."""
    return _nonneg("sqjsd", math.sqrt(jsd(p, q)))


def jsd_rowwise(P, q) -> np.ndarray:
    """Jensen-Shannon divergence of each row of ``P`` against ``q``.

    ``P`` is (k, n); ``q`` is (n,) or (k, n).  Returns a (k,) array.  This is
    the vectorized path used by the Monte-Carlo machinery; entries must be
    non-negative (not re-validated here).  Integer counts are evaluated as
    floats, so they give the same bits as the same counts passed as floats.
    """
    P = np.asarray(P, dtype=float)
    Q = np.broadcast_to(np.asarray(q, dtype=float), P.shape)
    with np.errstate(**_QUIET):
        terms = _jsd_terms(P, Q)
    return np.maximum(0.5 * np.sum(terms, axis=-1), 0.0)


def gen_kl(y, u) -> float:
    """Generalized KL divergence sum_i y_i log(y_i/u_i) - y_i + u_i (>= 0)."""
    y, u = _pair(y, u)
    pos = y > 0.0
    if np.any(u[pos] == 0.0):
        raise DomainError("gen_kl undefined: y_i > 0 where u_i = 0")
    with np.errstate(**_QUIET):
        terms = _gen_kl_terms(y, u)
    return _nonneg("gen_kl", float(np.sum(terms)))


def total_variation(p, q) -> float:
    """l1 distance sum_i |p_i - q_i| (the paper-style unhalved V)."""
    p, q = _pair(p, q)
    return _nonneg("tv", float(np.sum(np.abs(p - q))))


def delta(p, q) -> float:
    """Triangular discrimination sum_i |p_i - q_i|^2 / (p_i + q_i).

    Indices with p_i + q_i = 0 contribute 0 (there |p_i - q_i| = 0 as well).
    """
    p, q = _pair(p, q)
    s = p + q
    d = p - q
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = d[pos] ** 2 / s[pos]
    return _nonneg("delta", float(np.sum(out)))


def sym_kl(u, v) -> float:
    """Symmetrized KL divergence D(u,v) + D(v,u).

    Requires mutual absolute continuity: both KL directions must be defined.
    """
    return _nonneg("sym_kl", kl(u, v) + kl(v, u))


def nll_approx(y, u) -> float:
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
    return float(np.sum(terms))


def snll(y, u) -> float:
    """Symmetrized, Stirling-approximated Poisson negative log-likelihood.

    gen_kl(y,u) + gen_kl(u,y) + sum_i (log(y_i)/2 + log(u_i)/2 + log(2*pi)).
    """
    y, u = _pair(y, u)
    if np.any(y == 0.0) or np.any(u == 0.0):
        raise DomainError("snll requires y_i > 0 and u_i > 0")
    return float(np.sum(_snll_terms(y, u)))
