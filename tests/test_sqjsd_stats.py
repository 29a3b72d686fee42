"""Unit tests for the sqjsd concentration statistics."""

import math
import re
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from poisson_cs import experiments, sqjsd_stats
from poisson_cs.divergences import jsd_rowwise
from poisson_cs.errors import (
    DomainError,
    InvalidParamError,
    LengthMismatchError,
    MissingSamplesError,
)
from poisson_cs.sensing import build_phi, sample_rip_matrix
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


def one_shot_sqjsd(phi, x, trials, seed):
    """Reference: every count drawn at once, as float, then one jsd_rowwise."""
    rates = phi.entries @ np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam=rates, size=(trials, rates.size)).astype(float)
    return np.sqrt(jsd_rowwise(counts, rates))


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
        rows = []
        reduce = sqjsd_stats.jsd_rowwise
        monkeypatch.setattr(sqjsd_stats, "jsd_rowwise",
                            lambda P, q: rows.append(P.shape[0]) or reduce(P, q))
        phi = build_phi(sample_rip_matrix(N, 2 * N, 0.5, seed=60))
        x = dense_signal(2 * N, intensity, 61)
        # The whole budget, or one thread's share of it, as each thread of a
        # verify-stats run takes.
        for threads in (1, 2, 3):
            block = sqjsd_stats._BLOCK_ENTRIES // threads // N
            for trials in (2, block - 1, block, block + 1, 3 * block + 7):
                rows.clear()
                with sqjsd_stats._shared_blocks(threads) if threads > 1 else nullcontext():
                    got = monte_carlo_sqjsd(phi.rates(x), trials=trials, seed=62 + trials).samples
                assert np.array_equal(got, one_shot_sqjsd(phi, x, trials, 62 + trials))
                assert max(rows) == min(trials, block)
        assert not hasattr(sqjsd_stats._block_share, "entries")

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
        from scipy.special import ndtr  # noqa: F401  (ks_gaussian_test imports it lazily)

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
