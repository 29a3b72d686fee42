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

Each count is drawn by inverting its column's Poisson CDF (Chen & Asau
1974; Devroye 1986, section III.2).  A cell builds one table: for each
column, the counts outside which the Poisson mass is below 2^-53, their CDF,
their JSD term and a guide table.  The CDF sums the pmf of ``_poisson_pmf``,
which takes the ratio recurrence p(k) = p(k - 1) * rate / k and no special
function: against 40-digit arithmetic it is within 3e-15 relative at rates
up to 1e4 and 2e-14 at 1e6, and an entry takes about 11 ns.  Each block of
trials draws one
``rng.random`` uniform per count, in C order; the guide and a short search
turn each uniform into a table index, and the count's JSD term is gathered
from that same index, so the counts are never made.

The fallback rule: a cell draws its counts with ``Generator.poisson`` and
sums them through ``jsd_rowwise``, as it did before the tables, where its
trials are fewer than twice its widest column or its table would hold more
than ``_TABLE_ENTRIES`` entries.  A table entry takes 50-80 ns to build.
Timed against ``Generator.poisson`` at rates 1 to 1e4 and N = 50 and 500,
the table broke even where the trials were 1 to 3 times the widest column,
and about 2 times for every rate from 100 up.  The rule reads only the rates
and the trial count, so a cell draws the same way on any number of threads
and in any block.  ``simulate.measure`` keeps ``Generator.poisson``: it
draws one vector per trial, so a table would not pay off.

One run holds at most ``_BLOCK_ENTRIES`` counts and table entries in flight,
whatever the number of trials or threads: the threads that sample at once
share that budget (``_SharedBlocks``), and a cell waits while its table and
blocks do not fit.  The blocks draw from one generator in the order a
single ``(trials, N)`` draw would, so every sample is bit-identical to
drawing all uniforms (or counts) at once, whatever the block size, and
waiting changes no sample.

Both statistics take the rates ``Phi x`` (``SensingMatrix.rates``) and make
no BLAS call, so ``verify-stats`` samples on threads from rates it made once
on the calling thread.  The module needs numpy alone: the KS test's normal
CDF (``_normal_cdf``) follows scipy's ``ndtr`` over ``math.erf`` and
``math.erfc``.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .divergences import _QUIET, _jsd_terms, as_nonneg_vector, jsd_rowwise
from .errors import InvalidParamError, MissingSamplesError, check_integer
from .simulate import _below_max_rate

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

# sqrt(1/2): the scale of ``_normal_cdf``'s argument and its branches' edge.
_SQRT_HALF = math.sqrt(0.5)

# Counts and table entries in flight per run of Monte-Carlo trials: 2^19,
# about 13 MB at 25 bytes a count and 24 a table entry (its CDF, JSD term
# and guide slot), whatever the number of trials or threads.
_BLOCK_ENTRIES = 1 << 19

# -log of the Poisson mass a column's table leaves out on each side, so
# that it is below 2^-53, the spacing of the uniforms it inverts.
_TAIL_LOG = 53.0 * math.log(2.0)

# Most entries an inversion table holds: what the budget leaves once one
# thread alone has its least blocks, an eighth of the budget.
_TABLE_ENTRIES = _BLOCK_ENTRIES - _BLOCK_ENTRIES // 8

# Padded table entries built at once.
_BUILD_ENTRIES = 1 << 13

# The _SharedBlocks this thread samples in, inside its ``with`` block.
_current = threading.local()


class _SharedBlocks:
    """One run's budget of ``_BLOCK_ENTRIES`` counts and table entries in
    flight, shared by the ``threads`` threads that sample inside ``with``
    blocks of it.

    A cell holds its table and its blocks while it is sampled.  Its blocks
    take ``share``, a thread's part of the budget, less the table, and at
    least an eighth of ``share``; a cell waits until that much is free, and
    takes less than ``share`` where less is free.  ``_TABLE_ENTRIES`` leaves
    room for the least blocks, so no cell waits for more than the budget.
    """

    def __init__(self, threads: int = 1):
        self.share = _BLOCK_ENTRIES // threads
        self.free = _BLOCK_ENTRIES
        self.freed = threading.Condition()

    def __enter__(self):
        _current.blocks = self
        return self

    def __exit__(self, *exc):
        del _current.blocks

    @contextlib.contextmanager
    def hold(self, table: int):
        """Hold ``table`` entries and this cell's blocks inside the ``with``
        block; yield the block entries."""
        least = table + self.share // 8
        with self.freed:
            self.freed.wait_for(lambda: self.free >= least)
            held = min(self.free, max(self.share, least))
            self.free -= held
        try:
            yield held - table
        finally:
            with self.freed:
                self.free += held
                self.freed.notify_all()


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


def _poisson_pmf(rates: np.ndarray, low: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each rate's Poisson pmf over its counts ``low .. low + width - 1``
    (``_count_ranges``), as the rows of a ``(rates.size, width.max())`` array
    that is 0 past each row's width.

    By the recurrence p(k) = p(k - 1) * rate / k (Devroye 1986, section
    X.3): the cumulative product of ``[1, rate/(low + 1), rate/(low + 2),
    ...]``, divided by its row sum.  The range leaves out less than 2^-53 of
    the mass on either side, so the sum is 1 to within about 2e-16.  Against
    40-digit arithmetic its relative error is below 3e-15 at rates up to 1e4
    and 2e-14 at 1e6 (a rounding per factor, over the width of the range);
    no special function is called, and an entry takes about 11 ns to build.
    """
    w = int(width.max())
    pmf = np.empty((rates.size, w))
    pmf[:, 0] = 1.0
    np.divide(rates[:, None], low[:, None] + np.arange(1.0, w), out=pmf[:, 1:])
    pmf[np.arange(w) >= width[:, None]] = 0.0
    np.cumprod(pmf, axis=1, out=pmf)
    pmf /= pmf.sum(axis=1, keepdims=True)
    return pmf


def _count_ranges(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each rate's first count and number of counts, as floats, such that
    the Poisson mass on either side of them is below exp(-_TAIL_LOG) = 2^-53.

    From the tail bounds P(X <= r - t) <= exp(-t^2 / (2r)) and
    P(X >= r + t) <= exp(-t^2 / (2(r + t/3))), solved for t (written so that
    no finite rate overflows).
    """
    spread = math.sqrt(2.0 * _TAIL_LOG) * np.sqrt(rates)
    third = _TAIL_LOG / 3.0
    low = np.floor(np.maximum(rates - spread, 0.0))
    high = np.ceil(rates + third + np.hypot(third, spread))
    return low, high - low + 1.0


class _InversionTable:
    """Every column's counts, for drawing them by inversion of their CDF.

    Column ``i`` holds the counts ``low[i] .. low[i] + width[i] - 1``, laid
    end to end from ``start[i]``: their Poisson CDF ``cdf``, 1.0 at the last
    count (which takes the mass above it), and their JSD term ``terms``.
    Its ``width[i] + 1`` guide slots, from ``slots[i]``, hold for slot ``j``
    the first count whose ``floor(cdf * width[i])`` is not below ``j``: no
    uniform ``u`` with ``floor(u * width[i]) == j`` inverts to a count
    before it, nor to one after slot ``j + 1``'s (Chen & Asau 1974).
    """

    def __init__(self, rates: np.ndarray, low: np.ndarray, width: np.ndarray):
        n = rates.size
        self.width = width
        self.start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(width.astype(np.intp), out=self.start[1:])
        self.slots = self.start + np.arange(n + 1)
        self.cdf = np.empty(self.start[-1])
        self.terms = np.empty(self.start[-1])
        self.guide = np.empty(self.slots[-1], dtype=np.intp)
        # Built a few columns at a time, padded to the widest of them.
        step = max(1, _BUILD_ENTRIES // int(width.max()))
        for a in range(0, n, step):
            b = min(a + step, n)
            w, rate = width[a:b, None], rates[a:b, None]
            k = low[a:b, None] + np.arange(w.max())
            keep = k < low[a:b, None] + w
            cdf = np.cumsum(_poisson_pmf(rates[a:b], low[a:b], width[a:b]), axis=1)
            np.minimum(cdf, 1.0, out=cdf)
            cdf[np.arange(b - a), width[a:b].astype(np.intp) - 1] = 1.0
            entries = slice(self.start[a], self.start[b])
            self.cdf[entries] = cdf[keep]
            with np.errstate(**_QUIET):
                self.terms[entries] = _jsd_terms(k, rate)[keep]
            # Count the counts in each slot; a slot's guide is the sum of
            # those before it, across columns, since every count of an
            # earlier column lies in an earlier slot.
            slot = (cdf * w).astype(np.intp)
            slot += (self.slots[a:b] - self.slots[a])[:, None]
            per_slot = np.bincount(slot[keep], minlength=self.slots[b] - self.slots[a])
            guide = self.guide[self.slots[a]:self.slots[b]]
            np.cumsum(per_slot, out=guide)
            guide -= per_slot
            guide += self.start[a]
        self.start, self.slots = self.start[:-1], self.slots[:-1]

    def invert(self, u: np.ndarray, index: np.ndarray, work: np.ndarray,
               ahead: np.ndarray) -> None:
        """Set ``index`` to the table index of each uniform of the (rows, N)
        array ``u``: in column ``i``, that of the first count whose CDF is
        above ``u``.  ``work`` (intp) and ``ahead`` (bool) are scratch
        arrays of the same shape."""
        # floor(u * width): the C cast of a non-negative double truncates.
        np.multiply(u, self.width, out=work, casting="unsafe")
        work += self.slots
        self.guide.take(work, out=index, mode="clip")
        cdf = work.view(float)
        # Step past each count whose CDF is not above u, twice: about one
        # uniform in seven steps once, and one in forty twice.
        for _ in range(2):
            self.cdf.take(index, out=cdf, mode="clip")
            np.less_equal(cdf, u, out=ahead)
            index += ahead
        # The count of a uniform that stepped twice lies between there and
        # its next slot's guide: bisect.
        flat, pos = index.reshape(-1), np.flatnonzero(ahead)
        column = pos % self.width.size
        u = u.reshape(-1)[pos]
        low = flat[pos]
        high = self.guide.take((u * self.width[column]).astype(np.intp) + self.slots[column] + 1)
        while pos.size:
            mid = (low + high) >> 1
            above = self.cdf.take(mid) > u
            np.copyto(high, mid, where=above)
            np.add(mid, 1, out=low, where=~above)
            flat[pos] = low
            open_ = low < high
            pos, low, high, u = pos[open_], low[open_], high[open_], u[open_]

    def fill(self, rng: np.random.Generator, samples: np.ndarray, rows: int) -> None:
        """Set ``samples`` to 2J of independent count vectors, ``rows`` at a
        time, from one ``rng.random`` uniform per count in C order."""
        shape = (rows, self.width.size)
        u, index, work = np.empty(shape), np.empty(shape, np.intp), np.empty(shape, np.intp)
        ahead = np.empty(shape, bool)
        for start in range(0, samples.size, rows):
            block = samples[start:start + rows]
            k = block.size
            self.invert(rng.random(out=u[:k]), index[:k], work[:k], ahead[:k])
            np.sum(self.terms.take(index[:k], out=u[:k], mode="clip"), axis=-1, out=block)


def _table_ranges(rates: np.ndarray, trials: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each column's first count and number of counts in the inversion table
    of ``rates``, or None where the fallback rule (see the module docstring)
    draws the cell with ``Generator.poisson``."""
    low, width = _count_ranges(rates)
    if 2.0 * width.max() > trials or width.sum() > _TABLE_ENTRIES:
        return None
    return low, width


def monte_carlo_sqjsd(rates, trials: int, seed) -> SqjsdSampleSet:
    """Sample sqrt(J(y, rates)) over independent Poisson realizations y of
    the rate vector ``rates``.

    Each count is the inverse of its column's Poisson CDF at one
    ``rng.random`` uniform, drawn in C order, unless the fallback rule
    draws the counts with ``Generator.poisson`` (see the module docstring).
    Either way trials are drawn and reduced in row blocks, and the samples
    equal those of one ``(trials, N)`` draw from ``seed``.  A rate above
    ``simulate.MAX_RATE`` raises ``DomainError`` before any draw.
    """
    rates = _below_max_rate(as_nonneg_vector(rates, "rates"))
    check_integer("trials", trials, 2)
    rng = np.random.default_rng(seed)
    ranges = _table_ranges(rates, trials)
    table = 0 if ranges is None else int(ranges[1].sum())
    samples = np.empty(trials)
    with (getattr(_current, "blocks", None) or _SharedBlocks()).hold(table) as entries:
        if ranges is None:
            # The elementwise JSD holds about twice a count's bytes per count,
            # so the blocks take half the entries in counts.
            rows = max(1, entries // 2 // rates.size)
            for start in range(0, trials, rows):
                block = samples[start:start + rows]
                counts = rng.poisson(lam=rates, size=(block.size, rates.size))
                block[:] = jsd_rowwise(counts, rates)
        else:
            rows = max(1, entries // rates.size)
            _InversionTable(rates, *ranges).fill(rng, samples, rows)
            np.maximum(0.5 * samples, 0.0, out=samples)
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


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each entry of ``z``, by the branches of
    cephes' ``ndtr`` (scipy's) over ``math.erf`` and ``math.erfc``: with
    x = z / sqrt(2), 1/2 + erf(x)/2 where |x| < sqrt(1/2), else y =
    erfc(|x|)/2, or 1 - y where x > 0.  For |z| < 9 about 70 % of values
    are bit-equal to ``ndtr``'s and the rest within 2e-15 relative (6e-14
    at z = -37, where the two erfc part further); it takes about 65 ns an
    entry."""
    x = z * _SQRT_HALF
    near = np.abs(x) < _SQRT_HALF
    cdf = np.empty_like(x)
    cdf[near] = 0.5 + 0.5 * np.fromiter(map(math.erf, x[near].tolist()), float)
    tail = 0.5 * np.fromiter(map(math.erfc, np.abs(x[~near]).tolist()), float)
    cdf[~near] = np.where(x[~near] > 0.0, 1.0 - tail, tail)
    return cdf


def ks_gaussian_test(samples, alpha: float = 0.01) -> KsResult:
    """One-sample KS test of the sample array ``samples`` against a
    Gaussian with the sample's own moments.

    Follows the plain moment-matched procedure (no small-sample correction
    for the estimated parameters): statistic D_n against the fitted normal
    CDF, pass iff D_n < c(alpha)/sqrt(n).  Samples that are not a 1-D
    array, non-finite or degenerate (zero-variance) are rejected with an
    error.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidParamError(f"alpha must lie in (0,1), got {alpha}")
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 1:
        raise InvalidParamError(f"samples must be a 1-D array, got shape {vals.shape}")
    vals = np.sort(vals)
    n = vals.size
    if not np.all(np.isfinite(vals)):
        raise InvalidParamError(f"samples must be finite, got {n - np.isfinite(vals).sum()} "
                                f"non-finite of {n}")
    if n < KS_MIN_SAMPLES:
        raise InvalidParamError(f"need at least {KS_MIN_SAMPLES} samples, got {n}")
    mu = float(np.mean(vals))
    sd = float(np.std(vals, ddof=1))
    if sd == 0.0:
        raise InvalidParamError("zero-variance samples: KS test degenerate")
    cdf = _normal_cdf((vals - mu) / sd)
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
