"""Statistical behavior of sqrt(J(y, Phi x)) across Poisson realizations.

The square root of the Jensen-Shannon divergence between a Poisson
measurement vector and its rate vector concentrates: its mean is at most
sqrt(N/4), its variance is bounded by (11 + 5*sum(1/s_i)) / max(0, 4*(2 -
sum(1/s_i))) with s_i = N*(Phi x)_i (about 11/8 when every s_i is large),
and sqrt(N)*(1/2 + sqrt(11)/8) is exceeded with probability at most
2*exp(-N/2).  This module samples the statistic, evaluates those bounds,
KS-tests an array of samples against a moment-matched Gaussian, and turns
the quantiles into the constraint radius used by the constrained
reconstruction problem.  ``EPSILON_MODES`` names the two radius rules,
``"theory"`` (the tail bound) and ``"percentile"`` (the 99th percentile of
a sample set); the experiment spec checks its ``epsilon_mode`` against it.

Sampling runs in blocks of trials of about ``_BLOCK_ENTRIES`` counts each:
a block's integer counts go straight to ``jsd_rowwise``, which evaluates
the JSD term of each distinct count of a column once (its table path), so
memory stays a few MB whatever the number of trials.  The blocks draw from
one generator in the order a single ``(trials, N)`` draw would, so every
sample is bit-identical to drawing all counts at once, whatever the block
size.  The count budget is per run: threads that sample at once split it
(``_shared_blocks``), each drawing blocks of ``_BLOCK_ENTRIES // threads``
counts, so the counts in flight stay at ``_BLOCK_ENTRIES``.

Both statistics take the rates ``Phi x`` (``SensingMatrix.rates``) and make
no BLAS call, so ``verify-stats`` samples on threads from rates it made once
on the calling thread.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .divergences import as_nonneg_vector, jsd_rowwise
from .errors import InvalidParamError, MissingSamplesError, check_integer

__all__ = [
    "SqjsdSampleSet",
    "ConcentrationBounds",
    "KsResult",
    "monte_carlo_sqjsd",
    "concentration_bounds",
    "ks_gaussian_test",
    "choose_epsilon",
    "TAIL_COEFFICIENT",
    "KS_MIN_SAMPLES",
    "EPSILON_MODES",
]

# 1/2 + sqrt(11)/8 = 0.914578...; the sqrt(N)-scaled tail radius.
TAIL_COEFFICIENT = 0.5 + math.sqrt(11.0) / 8.0

# Fewest samples the KS test accepts.
KS_MIN_SAMPLES = 30

# The radius rules of ``choose_epsilon``.
EPSILON_MODES = ("theory", "percentile")

# Counts drawn per block of Monte-Carlo trials: 2^19 entries, 4 MB of int64
# counts, whatever the number of trials.  It is the budget of a whole run,
# which threads sampling at once split between them.
_BLOCK_ENTRIES = 1 << 19

# This thread's share of _BLOCK_ENTRIES, while _shared_blocks holds one.
_block_share = threading.local()


@contextlib.contextmanager
def _shared_blocks(threads: int):
    """Draw this thread's blocks at ``_BLOCK_ENTRIES // threads`` counts
    inside the ``with`` block, so that ``threads`` threads sampling at once
    hold no more counts in flight than one thread alone."""
    _block_share.entries = _BLOCK_ENTRIES // threads
    try:
        yield
    finally:
        del _block_share.entries


@dataclass(frozen=True)
class SqjsdSampleSet:
    """Monte-Carlo draws of sqrt(J(y, Phi x)) for one fixed rate vector."""

    samples: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.samples.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def var(self) -> float:
        return float(np.var(self.samples, ddof=1))

    def percentile(self, q: float) -> float:
        # Linear interpolation between closest order statistics.
        return float(np.percentile(self.samples, q))


@dataclass(frozen=True)
class ConcentrationBounds:
    """Mean/variance/tail bounds evaluated at one concrete rate vector."""

    mean_bound: float
    var_bound: float
    tail_epsilon: float
    tail_prob: float
    s_min: float


def monte_carlo_sqjsd(rates, trials: int, seed) -> SqjsdSampleSet:
    """Sample sqrt(J(y, rates)) over independent Poisson realizations y of
    the rate vector ``rates``.

    Trials are drawn and reduced in row blocks (see the module docstring);
    the samples equal those of one ``(trials, N)`` draw from ``seed``.
    """
    rates = as_nonneg_vector(rates, "rates")
    check_integer("trials", trials, 2)
    rng = np.random.default_rng(seed)
    rows = max(1, getattr(_block_share, "entries", _BLOCK_ENTRIES) // rates.size)
    samples = np.empty(trials)
    for start in range(0, trials, rows):
        block = samples[start:start + rows]
        counts = rng.poisson(lam=rates, size=(block.size, rates.size))
        block[:] = jsd_rowwise(counts, rates)
    np.sqrt(samples, out=samples)
    samples.setflags(write=False)
    return SqjsdSampleSet(samples=samples)


def concentration_bounds(rates) -> ConcentrationBounds:
    """Evaluate the concentration bounds at s_i = N * rates_i, one rate per
    measurement."""
    rates = as_nonneg_vector(rates, "rates")
    N = rates.size
    s = N * rates
    if np.any(s == 0.0):
        inv_sum = math.inf
    else:
        inv_sum = float(np.sum(1.0 / s))
    if inv_sum >= 2.0:
        var_bound = math.inf
    else:
        var_bound = (11.0 + 5.0 * inv_sum) / (4.0 * (2.0 - inv_sum))
    return ConcentrationBounds(
        mean_bound=math.sqrt(N / 4.0),
        var_bound=var_bound,
        tail_epsilon=choose_epsilon("theory", N),
        tail_prob=1.0 - 2.0 * math.exp(-N / 2.0),
        s_min=float(np.min(s)),
    )


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical: float
    passed: bool


def _ks_critical(alpha: float, n: int) -> float:
    # Asymptotic one-sample critical value c(alpha)/sqrt(n),
    # c(alpha) = sqrt(-ln(alpha/2)/2); c(0.01) = 1.6276.
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_gaussian_test(samples, alpha: float = 0.01) -> KsResult:
    """One-sample KS test of the sample array ``samples`` against a
    Gaussian with the sample's own moments.

    Follows the plain moment-matched procedure (no small-sample correction
    for the estimated parameters): statistic D_n against the fitted normal
    CDF, pass iff D_n < c(alpha)/sqrt(n).  Degenerate (zero-variance)
    samples are rejected with an error.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidParamError(f"alpha must lie in (0,1), got {alpha}")
    vals = np.sort(np.asarray(samples, dtype=float))
    n = vals.size
    if n < KS_MIN_SAMPLES:
        raise InvalidParamError(f"need at least {KS_MIN_SAMPLES} samples, got {n}")
    mu = float(np.mean(vals))
    sd = float(np.std(vals, ddof=1))
    if sd == 0.0:
        raise InvalidParamError("zero-variance samples: KS test degenerate")
    # Imported here, so that importing the package loads numpy only.
    from scipy.special import ndtr

    cdf = ndtr((vals - mu) / sd)
    idx = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(idx / n - cdf)
    d_minus = np.max(cdf - (idx - 1.0) / n)
    statistic = float(max(d_plus, d_minus))
    critical = _ks_critical(alpha, n)
    return KsResult(statistic=statistic, critical=critical, passed=statistic < critical)


def choose_epsilon(mode: str, N: int, samples: SqjsdSampleSet | None = None) -> float:
    """Constraint radius for the constrained reconstruction problem.

    ``mode`` is one of ``EPSILON_MODES``: "theory" uses the tail bound
    sqrt(N)*(1/2 + sqrt(11)/8); "percentile" uses the empirical 99th
    percentile of a sample set (>= 100 trials), an oracle when it is drawn
    around the true signal, as the experiments draw it.
    """
    if mode not in EPSILON_MODES:
        raise InvalidParamError(
            f"mode must be {' or '.join(map(repr, EPSILON_MODES))}, got {mode!r}")
    check_integer("N", N, 1)
    if mode == "theory":
        return math.sqrt(N) * TAIL_COEFFICIENT
    if samples is None or samples.trials < 100:
        raise MissingSamplesError("percentile mode needs a sample set with >= 100 trials")
    return samples.percentile(99.0)
