"""Unit tests for the sqjsd concentration statistics."""

import math
import re
import tracemalloc
from contextlib import nullcontext
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_cs import experiments, sqjsd_stats
from poisson_cs.divergences import jsd_rowwise
from poisson_cs.errors import (
    DomainError,
    InvalidParamError,
    LengthMismatchError,
    MissingSamplesError,
)
from poisson_cs.sensing import build_phi, sample_rip_matrix
from poisson_cs.simulate import MAX_RATE
from poisson_cs.sqjsd_stats import (
    TAIL_COEFFICIENT,
    choose_epsilon,
    ks_gaussian_test,
    monte_carlo_sqjsd,
    concentration_bounds,
)


def dense_signal(m, intensity, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, m)
    return x * (intensity / x.sum())


def table_of(rates, trials):
    """The cell's inversion table, or None where it falls back."""
    ranges = sqjsd_stats._table_ranges(rates, trials)
    return None if ranges is None else sqjsd_stats._InversionTable(rates, *ranges)


def one_shot_sqjsd(rates, trials, seed):
    """Reference: every uniform drawn at once and inverted column by column
    by binary search in the cell's CDF table, with no guide; or, in a cell
    that draws with Generator.poisson, every count drawn at once as float."""
    rng = np.random.default_rng(seed)
    table = table_of(rates, trials)
    if table is None:
        counts = rng.poisson(lam=rates, size=(trials, rates.size)).astype(float)
        return np.sqrt(jsd_rowwise(counts, rates))
    u = rng.random((trials, rates.size))
    terms = np.empty_like(u)
    for i, (start, width) in enumerate(zip(table.start, table.width.astype(int))):
        found = np.searchsorted(table.cdf[start:start + width], u[:, i], side="right")
        terms[:, i] = table.terms[start + found]
    return np.sqrt(np.maximum(0.5 * np.sum(terms, axis=-1), 0.0))


def invert_counts(rates, u):
    """The counts that the (rows, N) uniforms ``u`` invert to through the
    table of ``rates``."""
    table = table_of(rates, u.shape[0])
    index = np.empty(u.shape, np.intp)
    table.invert(u.copy(), index, np.empty_like(index), np.empty(u.shape, bool))
    low, _ = sqjsd_stats._count_ranges(rates)
    return (low + (index - table.start)).astype(np.int64)


def exact_jsd_mean(table):
    """E J = sum over columns and counts of pmf * term / 2, the pmf being the
    steps of each column's CDF."""
    total = 0.0
    for start, width in zip(table.start, table.width.astype(int)):
        cdf = table.cdf[start:start + width]
        total += 0.5 * np.dot(np.diff(cdf, prepend=0.0), table.terms[start:start + width])
    return total


def exact_poisson_pmf(rate, low, width):
    """Poisson(``rate``) pmf of the counts ``low .. low + width - 1`` in
    40-digit decimal arithmetic, each exp(k ln(rate) - rate - ln k!): ln k!
    summed term by term below 1000, and by Stirling's series from there
    (its first omitted term is below 1e-30)."""
    with localcontext() as ctx:
        ctx.prec = 40
        if rate == 0.0:
            return [Decimal(int(k == 0)) for k in range(low, low + width)]
        log_small = [Decimal(0)]
        for j in range(1, 1000):
            log_small.append(log_small[-1] + Decimal(j).ln())
        two_pi = 2 * Decimal("3.141592653589793238462643383279502884197")

        def log_factorial(k):
            if k < 1000:
                return log_small[k]
            k = Decimal(k)
            return (k * k.ln() - k + (two_pi * k).ln() / 2 + 1 / (12 * k)
                    - 1 / (360 * k**3) + 1 / (1260 * k**5) - 1 / (1680 * k**7))

        r = Decimal(rate)
        return [(k * r.ln() - r - log_factorial(k)).exp() for k in range(low, low + width)]


class TestMonteCarlo:
    def test_zero_signal_all_zero_samples(self):
        phi = build_phi(sample_rip_matrix(20, 40, 0.5, seed=0))
        ss = monte_carlo_sqjsd(phi.rates(np.zeros(40)), trials=50, seed=1)
        assert np.all(ss.samples == 0.0)

    def test_mean_bound_large_cell(self):
        phi = build_phi(sample_rip_matrix(500, 1000, 0.5, seed=2))
        x = dense_signal(1000, 1e4, 3)
        ss = monte_carlo_sqjsd(phi.rates(x), trials=300, seed=4)
        assert ss.mean <= math.sqrt(500 / 4.0)

    def test_variance_small_at_high_intensity(self):
        phi = build_phi(sample_rip_matrix(500, 1000, 0.5, seed=5))
        x = dense_signal(1000, 1e6, 6)
        ss = monte_carlo_sqjsd(phi.rates(x), trials=300, seed=7)
        assert ss.var <= 11.0 / 8.0 * 1.2

    def test_trials_validated(self):
        phi = build_phi(sample_rip_matrix(5, 10, 0.5, seed=8))
        with pytest.raises(InvalidParamError):
            monte_carlo_sqjsd(phi.rates(np.ones(10)), trials=1, seed=9)

    def test_deterministic(self):
        phi = build_phi(sample_rip_matrix(30, 60, 0.5, seed=10))
        rates = phi.rates(dense_signal(60, 1e4, 11))
        a = monte_carlo_sqjsd(rates, trials=64, seed=12)
        b = monte_carlo_sqjsd(rates, trials=64, seed=12)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("N, intensity", [(10, 1e8), (50, 1e2), (500, 1e4)])
    def test_row_blocks_match_one_shot_draws(self, N, intensity, monkeypatch):
        rows, paths = [], set()
        invert, reduce = sqjsd_stats._InversionTable.invert, sqjsd_stats.jsd_rowwise
        monkeypatch.setattr(sqjsd_stats._InversionTable, "invert",
                            lambda self, u, *work: rows.append(u.shape[0]) or invert(self, u, *work))
        monkeypatch.setattr(sqjsd_stats, "jsd_rowwise",
                            lambda P, q: rows.append(P.shape[0]) or reduce(P, q))
        phi = build_phi(sample_rip_matrix(N, 2 * N, 0.5, seed=60))
        rates = phi.rates(dense_signal(2 * N, intensity, 61))
        _, width = sqjsd_stats._count_ranges(rates)
        assert width.sum() <= sqjsd_stats._TABLE_ENTRIES
        # The whole budget, or one thread's share of it, as each thread of a
        # verify-stats run takes; the table path's blocks give the table its
        # entries, the fallback's take half the share.  Trials on either
        # side of the fallback rule's edge reach both paths.
        edge = 2 * int(width.max())
        for threads in (1, 2, 3):
            share = sqjsd_stats._BLOCK_ENTRIES // threads
            blocks = {"table": max(share - int(width.sum()), share // 8) // N,
                      "poisson": share // 2 // N}
            for trials in sorted({2, edge - 1, edge, *(t for b in blocks.values()
                                                       for t in (b - 1, b, b + 1, 3 * b + 7))}):
                rows.clear()
                path = "table" if edge <= trials else "poisson"
                paths.add(path)
                with sqjsd_stats._SharedBlocks(threads) if threads > 1 else nullcontext():
                    got = monte_carlo_sqjsd(rates, trials=trials, seed=62 + trials).samples
                assert np.array_equal(got, one_shot_sqjsd(rates, trials, 62 + trials))
                assert max(rows) == min(trials, blocks[path])
                assert sum(rows) == trials
        assert paths == {"table", "poisson"}
        assert not hasattr(sqjsd_stats._current, "blocks")

    def test_traced_peak_bounded_by_blocks(self):
        # Drawing all 10^7 counts at once peaked near 410 MB.
        phi = build_phi(sample_rip_matrix(500, 1000, 0.5, seed=63))
        x = dense_signal(1000, 1e4, 64)
        tracemalloc.start()
        try:
            monte_carlo_sqjsd(phi.rates(x), trials=20_000, seed=65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_traced_peak_bounded_across_threads(self, monkeypatch):
        # The threads of a verify-stats run split one count budget, so two
        # hold no more counts in flight than one; a full budget per thread
        # peaked near 34 MB here.
        spec = experiments.ExperimentSpec(
            kind="verify-stats", grid={"n_measurements": [500], "intensity": [1e3, 1e4]},
            trials=20_000, master_seed=66)
        peaks = {}
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                experiments.run_verify_stats(spec)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] < 32e6
        assert peaks[2] < 1.1 * peaks[1]

    def test_traced_peak_bounded_when_a_table_outgrows_a_share(self, monkeypatch):
        # At four threads the N = 500, I = 1e6 cell's table is larger than a
        # thread's share of the budget; the threads still hold no more in
        # flight than one thread alone.  With each thread's table held on
        # top of its share, four threads peaked 1.16 times as high as one.
        sizes = []

        class Recorded(sqjsd_stats._InversionTable):
            def __init__(self, *args):
                super().__init__(*args)
                sizes.append(self.cdf.size)

        monkeypatch.setattr(sqjsd_stats, "_InversionTable", Recorded)
        spec = experiments.ExperimentSpec(
            kind="verify-stats", grid={"n_measurements": [500], "intensity": [1e3, 1e4, 1e5, 1e6]},
            trials=10_000, master_seed=67)
        peaks = {}
        for cpus in (1, 4):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                experiments.run_verify_stats(spec)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(sizes) == 8
        assert max(sizes) > sqjsd_stats._BLOCK_ENTRIES // 4
        assert peaks[4] < 1.1 * peaks[1]


class TestInversionSampler:
    RATES = [0.0, 0.05, 0.7, 9.99, 10.0, 57.3, 2500.0]

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.7, 9.99, 57.3, 2500.0, 1e4, 1e6])
    def test_pmf_matches_40_digit_arithmetic(self, rate):
        # Over the table's whole range: within 1e-13 relative, and 0 where
        # the pmf is.  The pmf of exp(k log(rate) - rate - log k!) in double
        # precision was 3e-9 off at rate 1e6.
        rates = np.array([rate])
        low, width = sqjsd_stats._count_ranges(rates)
        got = sqjsd_stats._poisson_pmf(rates, low, width)
        assert got.shape == (1, int(width[0]))
        exact = exact_poisson_pmf(rate, int(low[0]), int(width[0]))
        with localcontext() as ctx:
            ctx.prec = 40
            error = max(abs(Decimal(g) - e) / e if e else abs(Decimal(g))
                        for g, e in zip(got[0].tolist(), exact))
        assert error <= Decimal("1e-13"), (rate, error)

    def test_pmf_rows_stop_at_their_width(self):
        # Rows of one padded block: each row is its own rate's pmf, 0 past
        # its width.
        rates = np.array([57.3, 0.0, 2500.0, 0.7])
        low, width = sqjsd_stats._count_ranges(rates)
        block = sqjsd_stats._poisson_pmf(rates, low, width)
        assert block.shape == (4, int(width.max()))
        for i, w in enumerate(width.astype(int)):
            alone = sqjsd_stats._poisson_pmf(rates[i:i + 1], low[i:i + 1], width[i:i + 1])
            assert np.array_equal(block[i, :w], alone[0])
            assert np.all(block[i, w:] == 0.0)

    def test_counts_follow_the_poisson_pmf(self):
        # Chi-square of 200 000 inverted counts per rate against scipy's pmf,
        # bins pooled from each tail until they expect at least 5 counts.
        from scipy import stats

        rates = np.array(self.RATES)
        counts = invert_counts(rates, np.random.default_rng(70).random((200_000, rates.size)))
        assert np.all(counts[:, 0] == 0)
        for i, rate in enumerate(rates[1:], start=1):
            k = np.arange(counts[:, i].max() + 1)
            expected = stats.poisson.pmf(k, rate) * counts.shape[0]
            observed = np.bincount(counts[:, i], minlength=k.size).astype(float)
            lo = np.searchsorted(np.cumsum(expected), 5.0)
            hi = k.size - np.searchsorted(np.cumsum(expected[::-1]), 5.0)
            obs = np.r_[observed[:lo + 1].sum(), observed[lo + 1:hi - 1], observed[hi - 1:].sum()]
            exp = np.r_[stats.poisson.cdf(lo, rate), expected[lo + 1:hi - 1] / counts.shape[0],
                        stats.poisson.sf(hi - 2, rate)] * counts.shape[0]
            p = stats.chisquare(obs, exp).pvalue
            assert p > 1e-3, (rate, p)

    def test_counts_cover_the_whole_table(self):
        # Uniforms at every CDF value of the table and either side of it,
        # and at 0 and the largest uniform below 1, invert as a binary
        # search does.
        rates = np.array(self.RATES + [1e4])
        table = table_of(rates, 10**6)
        u = []
        for start, width in zip(table.start, table.width.astype(int)):
            cdf = table.cdf[start:start + width]
            edges = np.r_[cdf, np.nextafter(cdf, 0.0), np.arange(width + 1) / width,
                          0.0, 1.0 - 2.0**-53]
            u.append(np.resize(edges[edges < 1.0], 3 * 3000))
        u = np.array(u).T.copy()
        index = np.empty(u.shape, np.intp)
        table.invert(u.copy(), index, np.empty_like(index), np.empty(u.shape, bool))
        for i, (start, width) in enumerate(zip(table.start, table.width.astype(int))):
            found = np.searchsorted(table.cdf[start:start + width], u[:, i], side="right")
            assert np.array_equal(index[:, i], start + found)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 60), rate=st.floats(1e-2, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_sampled_jsd_mean_matches_the_exact_mean(self, n, rate, seed):
        # The exact mean is the table's pmf-weighted sum of JSD terms; 2000
        # samples of J lie within 4 standard errors of it.
        rates = rate * np.random.default_rng(seed).uniform(0.5, 1.5, n)
        trials = 2000
        table = table_of(rates, trials)
        assert table is not None
        j = monte_carlo_sqjsd(rates, trials, seed).samples ** 2
        error = math.sqrt(np.var(j, ddof=1) / trials)
        assert abs(np.mean(j) - exact_jsd_mean(table)) <= 4.0 * error + 1e-12

    def test_fallback_rule_on_both_sides(self):
        # A cell inverts a table unless its trials are fewer than twice its
        # widest column, or the table holds more than _TABLE_ENTRIES entries;
        # then its samples are those of Generator.poisson, as before the
        # tables.
        rates = np.full(4, 400.0)
        width = int(sqjsd_stats._count_ranges(rates)[1].max())
        edge = 2 * width
        assert sqjsd_stats._table_ranges(rates, edge) is not None
        assert sqjsd_stats._table_ranges(rates, edge - 1) is None
        per_column = sqjsd_stats._TABLE_ENTRIES // width
        assert sqjsd_stats._table_ranges(np.full(per_column, 400.0), edge) is not None
        assert sqjsd_stats._table_ranges(np.full(per_column + 1, 400.0), edge) is None
        # The rule does not read the thread's share of the budget.
        with sqjsd_stats._SharedBlocks(3):
            assert sqjsd_stats._table_ranges(rates, edge) is not None
            assert sqjsd_stats._table_ranges(rates, edge - 1) is None
        for trials in (edge - 1, edge):
            got = monte_carlo_sqjsd(rates, trials, 71).samples
            counts = np.random.default_rng(71).poisson(rates, size=(trials, 4)).astype(float)
            assert np.array_equal(got, np.sqrt(jsd_rowwise(counts, rates))) == (trials < edge)

    @pytest.mark.parametrize("N", [50, 100, 500])
    def test_samples_match_numpy_poisson_in_distribution(self, N):
        # Two-sample KS on the desk cells: the inverted samples against those
        # of Generator.poisson on the same rates.
        from scipy import stats

        phi = build_phi(sample_rip_matrix(N, 2 * N, 0.5, seed=72))
        for level, intensity in enumerate((1e3, 1e4, 1e6)):
            rates = phi.rates(dense_signal(2 * N, intensity, 73 + level))
            trials = 4000
            assert sqjsd_stats._table_ranges(rates, trials) is not None
            ours = monte_carlo_sqjsd(rates, trials, 74 + level).samples
            rng = np.random.default_rng(75 + level)
            counts = rng.poisson(rates, size=(trials, N)).astype(float)
            assert stats.ks_2samp(ours, np.sqrt(jsd_rowwise(counts, rates))).pvalue > 1e-3


class TestConcentrationBounds:
    def test_reference_values_n100(self):
        phi = build_phi(sample_rip_matrix(100, 200, 0.5, seed=13))
        x = dense_signal(200, 1e6, 14)
        b = concentration_bounds(phi.rates(x))
        assert b.mean_bound == pytest.approx(5.0)
        assert b.tail_epsilon == pytest.approx(10 * TAIL_COEFFICIENT)
        assert 0.914 < b.tail_epsilon / 10.0 < 0.915
        assert b.tail_prob == pytest.approx(1 - 2 * math.exp(-50.0))

    def test_var_bound_limit(self):
        # Every s_i enormous: the bound collapses to 11/8.
        phi = build_phi(sample_rip_matrix(50, 100, 0.5, seed=15))
        x = dense_signal(100, 1e10, 16)
        b = concentration_bounds(phi.rates(x))
        assert b.var_bound == pytest.approx(11.0 / 8.0, rel=1e-4)

    def test_var_bound_degenerate_branch(self):
        # sum(1/s_i) >= 2 flips the max(0, .) denominator to zero.
        phi = build_phi(sample_rip_matrix(50, 100, 0.5, seed=17))
        x = dense_signal(100, 20.0, 18)  # s_i ~ 10, sum(1/s_i) ~ 5
        b = concentration_bounds(phi.rates(x))
        assert math.isinf(b.var_bound)

    def test_zero_rate_row_gives_inf(self):
        phi = build_phi(sample_rip_matrix(30, 60, 0.5, seed=19))
        x = np.zeros(60)
        x[0] = 100.0
        if np.all(phi.entries[:, 0] > 0):
            pytest.skip("no zero-rate row in this draw")
        b = concentration_bounds(phi.rates(x))
        assert math.isinf(b.var_bound)
        assert b.s_min == 0.0


BAD_SIGNALS = {
    "negative": (-np.ones(20), InvalidParamError),
    "NaN": (np.full(20, np.nan), InvalidParamError),
    "short": (np.ones(19), LengthMismatchError),
    "2-D": (np.ones((1, 20)), LengthMismatchError),
}
BAD_RATES = {
    "negative": np.array([1.0, -1.0, 2.0]),
    "NaN": np.array([1.0, np.nan, 2.0]),
    "inf": np.array([1.0, np.inf, 2.0]),
    "2-D": np.ones((2, 3)),
    "empty": np.array([]),
}
ENTRIES = {
    "monte_carlo_sqjsd": lambda rates: monte_carlo_sqjsd(rates, trials=50, seed=41),
    "concentration_bounds": concentration_bounds,
}


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("bad", list(BAD_SIGNALS))
def test_bad_signal_refused(entry, bad):
    # On the way to either statistic, a bad signal is named as the signal by
    # SensingMatrix.rates, the one signal rule, and not as the rates it would
    # make: a negative signal used to reach concentration_bounds as a
    # negative s_min.
    phi = build_phi(sample_rip_matrix(10, 20, 0.5, seed=40))
    x, error = BAD_SIGNALS[bad]
    with pytest.raises(error, match="signal"):
        ENTRIES[entry](phi.rates(x))


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("bad", list(BAD_RATES))
def test_bad_rates_refused_before_any_draw(entry, bad, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw may start
    with pytest.raises(DomainError, match="^rates "):
        ENTRIES[entry](BAD_RATES[bad])


def test_rates_above_max_rate_refused_before_any_draw(monkeypatch):
    # Above MAX_RATE Generator.poisson's draws are not Poisson: at I = 1e16
    # verify-stats read var 0.079 against 0.06, and at 1e300 _count_ranges
    # collapsed into a broadcast error.
    sample = lambda rates: monte_carlo_sqjsd(rates, trials=50, seed=41)  # noqa: E731
    assert sample(np.full(3, MAX_RATE)).trials == 50
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw may start
    for top in (np.nextafter(MAX_RATE, np.inf), 1e16, 1e300):
        with pytest.raises(DomainError, match="^rates must be at most MAX_RATE = 1e.12"):
            sample(np.array([1.0, top, 2.0]))


class TestKsGaussian:
    def test_gaussian_calibration(self):
        passes = 0
        reps = 40
        for rep in range(reps):
            rng = np.random.default_rng(100 + rep)
            samples = rng.normal(3.0, 0.7, 1000)
            passes += ks_gaussian_test(samples, alpha=0.01).passed
        assert passes >= 0.95 * reps

    def test_uniform_fails(self):
        rng = np.random.default_rng(20)
        samples = rng.uniform(0, 1, 2000)
        assert not ks_gaussian_test(samples, alpha=0.01).passed

    def test_constant_vector_rejected(self):
        with pytest.raises(InvalidParamError):
            ks_gaussian_test(np.full(100, 2.0), alpha=0.01)

    def test_alpha_validated(self):
        rng = np.random.default_rng(21)
        with pytest.raises(InvalidParamError):
            ks_gaussian_test(rng.normal(size=100), alpha=1.5)

    def test_critical_value_constant(self):
        res = ks_gaussian_test(np.random.default_rng(22).normal(size=400), alpha=0.01)
        assert res.critical == pytest.approx(
            math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(400)
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_refused(self, bad):
        # A NaN sample used to give statistic nan and passed False, silently.
        samples = np.random.default_rng(29).normal(size=100)
        samples[17] = bad
        with pytest.raises(InvalidParamError, match="^samples must be finite, got 1 non-finite"):
            ks_gaussian_test(samples)

    @pytest.mark.parametrize("shape", [(1000, 1), (1, 1000), (20, 50), ()])
    def test_samples_not_1d_refused(self, shape):
        # A (1000, 1) column of Gaussian samples went unsorted and broadcast
        # against the ranks into a (1000, 1000) table: statistic 0.99996,
        # passed False, silently.
        samples = np.random.default_rng(28).normal(size=shape)
        with pytest.raises(InvalidParamError, match=r"^samples must be a 1-D array, got shape"):
            ks_gaussian_test(samples)

    def test_normal_cdf_matches_ndtr(self):
        # Within 4e-15 relative of scipy's ndtr for |z| <= 9, both sides of
        # each branch's edge |z| = 1 included, and 1e-13 down to z = -37 (the
        # CDF 6e-300), where the two erfc part by up to 6e-14, growing as z^2.
        # So the statistic of a KS test moves by no more than 1e-14 relative.
        from scipy.special import ndtr

        edge = np.array([1.0, -1.0])
        z = np.r_[np.random.default_rng(30).normal(0.0, 2.0, 100_000), np.linspace(-9.0, 9.0, 1801),
                  edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0 * edge), 0.0]
        np.testing.assert_allclose(sqjsd_stats._normal_cdf(z), ndtr(z), rtol=4e-15, atol=0.0)
        tail = np.linspace(-37.0, -9.0, 2801)
        np.testing.assert_allclose(sqjsd_stats._normal_cdf(tail), ndtr(tail), rtol=1e-13, atol=0.0)
        for seed in range(10):
            vals = np.sort(np.random.default_rng(31 + seed).gamma(9.0, size=1000))
            cdf = ndtr((vals - vals.mean()) / np.std(vals, ddof=1))
            k = np.arange(1.0, 1001.0)
            statistic = max(np.max(k / 1000 - cdf), np.max(cdf - (k - 1.0) / 1000))
            got = ks_gaussian_test(vals).statistic
            assert got == pytest.approx(statistic, rel=1e-14, abs=0.0)

    def test_needs_30_samples(self):
        with pytest.raises(InvalidParamError):
            ks_gaussian_test(np.arange(10.0), alpha=0.01)

    def test_sqjsd_samples_look_gaussian(self):
        phi = build_phi(sample_rip_matrix(100, 500, 0.5, seed=23))
        x = dense_signal(500, 1e4, 24)
        ss = monte_carlo_sqjsd(phi.rates(x), trials=1000, seed=25)
        assert ks_gaussian_test(ss.samples, alpha=0.01).passed


class TestChooseEpsilon:
    def test_theory_value(self):
        assert choose_epsilon("theory", 50) == pytest.approx(
            math.sqrt(50) * (0.5 + math.sqrt(11) / 8), rel=1e-12
        )
        assert choose_epsilon("theory", 50) == pytest.approx(6.467, abs=2e-3)

    def test_percentile_interpolation(self):
        phi = build_phi(sample_rip_matrix(10, 20, 0.5, seed=26))
        ss = monte_carlo_sqjsd(phi.rates(dense_signal(20, 1e4, 27)), trials=100, seed=28)
        object.__setattr__(ss, "samples", np.arange(1.0, 101.0))
        assert choose_epsilon("percentile", 10, ss) == pytest.approx(99.01)

    def test_unknown_mode_refused_by_name(self):
        # It used to raise a bare ValueError from the mode's enum.
        with pytest.raises(InvalidParamError, match="mode must be 'theory' or 'percentile'"):
            choose_epsilon("bogus", 50)

    @pytest.mark.parametrize("mode, accepted", [
        ("theory", True), ("percentile", True), ("Theory", False), ("PERCENTILE", False),
        (" theory", False), ("", False), ("tail", False), (None, False), (0, False),
    ])
    def test_spec_and_choose_epsilon_take_the_same_modes(self, mode, accepted):
        phi = build_phi(sample_rip_matrix(10, 20, 0.5, seed=26))
        ss = monte_carlo_sqjsd(phi.rates(dense_signal(20, 1e4, 27)), trials=100, seed=28)
        if accepted:
            assert experiments.ExperimentSpec(epsilon_mode=mode).epsilon_mode == mode
            assert choose_epsilon(mode, 10, ss) > 0.0
            return
        with pytest.raises(InvalidParamError, match="epsilon_mode"):
            experiments.ExperimentSpec(epsilon_mode=mode)
        with pytest.raises(InvalidParamError, match=re.escape(f"got {mode!r}")):
            choose_epsilon(mode, 10, ss)

    def test_percentile_requires_samples(self):
        with pytest.raises(MissingSamplesError):
            choose_epsilon("percentile", 50, None)

    def test_percentile_requires_enough_trials(self):
        phi = build_phi(sample_rip_matrix(10, 20, 0.5, seed=29))
        ss = monte_carlo_sqjsd(phi.rates(dense_signal(20, 1e3, 30)), trials=50, seed=31)
        with pytest.raises(MissingSamplesError):
            choose_epsilon("percentile", 10, ss)

    def test_percentile_independent_of_intensity_above_threshold(self):
        phi = build_phi(sample_rip_matrix(50, 100, 0.5, seed=32))
        eps = {}
        for intensity in (1e6, 1e8):
            ss = monte_carlo_sqjsd(
                phi.rates(dense_signal(100, intensity, 33)), trials=500, seed=34
            )
            eps[intensity] = choose_epsilon("percentile", 50, ss)
        assert 0.9 <= eps[1e6] / eps[1e8] <= 1.1

    def test_percentile_grows_like_sqrt_n(self):
        eps = {}
        for i, N in enumerate((100, 400)):
            phi = build_phi(sample_rip_matrix(N, 2 * N, 0.5, seed=40 + i))
            ss = monte_carlo_sqjsd(
                phi.rates(dense_signal(2 * N, 1e6, 42 + i)), trials=500, seed=44 + i
            )
            eps[N] = choose_epsilon("percentile", N, ss)
        # Quadrupling N should roughly double the radius.
        assert 1.8 <= eps[400] / eps[100] <= 2.2


class TestConcentrationProperties:
    def test_variance_flat_across_intensity(self):
        # At fixed N the spread of sqjsd varies by less than a factor 3
        # across four decades of intensity.
        phi = build_phi(sample_rip_matrix(100, 200, 0.5, seed=50))
        variances = []
        for i, intensity in enumerate((1e4, 1e6, 1e8)):
            ss = monte_carlo_sqjsd(
                phi.rates(dense_signal(200, intensity, 51)), trials=500, seed=52 + i
            )
            variances.append(ss.var)
        assert max(variances) / min(variances) < 3.0

    def test_tail_radius_never_exceeded_at_scale(self):
        # With N = 50 the 2 exp(-N/2) tail mass is ~3e-11: no exceedances
        # expected in 10^4 draws.
        phi = build_phi(sample_rip_matrix(50, 100, 0.5, seed=53))
        x = dense_signal(100, 1e6, 54)
        rates = phi.rates(x)
        ss = monte_carlo_sqjsd(rates, trials=10_000, seed=55)
        radius = concentration_bounds(rates).tail_epsilon
        assert np.count_nonzero(ss.samples > radius) == 0
