"""Unit tests for Poisson measurement generation."""

import math

import numpy as np
import pytest

from poisson_cs.errors import InvalidParamError, LengthMismatchError
from poisson_cs.sensing import build_phi, sample_rip_matrix
from poisson_cs.simulate import derive_rng, measure


def draws_at(rate, n, seed):
    """Poisson draws ``measure`` makes at one rate.

    The one-column sensing matrix has rows of 0 and 1/n, and the signal puts
    ``rate`` on the 1/n rows.  Returns the rate, the counts of the rows at
    that rate and the counts of the rows at rate 0.
    """
    phi = build_phi(sample_rip_matrix(n, 1, 0.5, seed=seed))
    x = np.array([rate * n])
    counts = measure(phi, x, seed=seed + 1)
    rates = phi.rates(x)
    lit = rates > 0.0
    return rates[lit][0], counts[lit], counts[~lit]


class TestPoissonDraw:
    """The draws of ``measure``, looked at one rate at a time."""

    def test_zero_rate_always_zero(self):
        _, _, dark = draws_at(1e4, 200, seed=0)
        assert dark.size >= 50 and np.all(dark == 0)

    def test_invalid_rates(self):
        phi = build_phi(sample_rip_matrix(5, 3, 0.5, seed=0))
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParamError):
                measure(phi, np.array([1.0, bad, 1.0]), seed=0)

    def test_mean_at_high_rate(self):
        rate, draws, _ = draws_at(1e4, 200_000, seed=1)
        n = draws.size
        # CLT band: 3 sigma = 3 * sqrt(rate) / sqrt(n)
        assert abs(draws.mean() - rate) <= 3 * math.sqrt(rate) / math.sqrt(n)

    def test_equidispersion(self):
        _, draws, _ = draws_at(1e4, 200_000, seed=2)
        assert 0.97 <= draws.var() / draws.mean() <= 1.03

    def test_huge_rate_fast_and_sane(self):
        rate, draws, _ = draws_at(1e8, 400, seed=3)
        n = draws.size
        assert abs(draws.mean() - 1e8) <= 5 * math.sqrt(rate) / math.sqrt(n)


class TestMeasure:
    @pytest.fixture()
    def phi(self):
        return build_phi(sample_rip_matrix(15, 30, 0.5, seed=4))

    def test_zero_signal(self, phi):
        assert np.all(measure(phi, np.zeros(30), seed=5) == 0)

    def test_reproducible(self, phi):
        x = np.arange(30.0)
        a = measure(phi, x, seed=6)
        b = measure(phi, x, seed=6)
        assert np.array_equal(a, b)
        c = measure(phi, x, seed=7)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 12, 13])
    def test_returns_the_read_only_count_vector(self, phi, seed):
        x = np.linspace(0.0, 300.0, 30)
        y = measure(phi, x, seed=seed)
        assert y.dtype == np.int64 and y.shape == (15,)
        assert not y.flags.writeable
        assert np.array_equal(y, np.random.default_rng(seed).poisson(phi.rates(x)))

    def test_counts_are_integers(self, phi):
        y = measure(phi, np.full(30, 100.0), seed=8)
        assert y.dtype == np.int64
        assert np.all(y >= 0)

    def test_mean_matches_rates(self, phi):
        x = np.linspace(10, 500, 30)
        rates = phi.entries @ x
        reps = 10_000
        rng = derive_rng(9)
        total = np.zeros(15)
        for _ in range(reps):
            total += rng.poisson(rates)
        emp = total / reps
        band = 3 * np.sqrt(rates / reps) + 1e-9
        assert np.all(np.abs(emp - rates) <= band)

    def test_total_flux_bounded(self, phi):
        x = np.full(30, 1000.0)
        assert phi.rates(x).sum() <= x.sum() + 1e-9

    def test_coordinate_independence(self, phi):
        x = np.full(30, 200.0)
        rates = phi.entries @ x
        rng = derive_rng(11)
        draws = rng.poisson(rates, size=(10_000, 15)).astype(float)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 0.05

    def test_dimension_mismatch(self, phi):
        with pytest.raises(LengthMismatchError):
            measure(phi, np.ones(7), seed=0)

    def test_negative_signal_rejected(self, phi):
        x = np.ones(30)
        x[3] = -1.0
        with pytest.raises(InvalidParamError):
            measure(phi, x, seed=0)


class TestDeriveRng:
    def test_paths_are_independent_streams(self):
        a = derive_rng(0, 1, 2).standard_normal(5)
        b = derive_rng(0, 1, 2).standard_normal(5)
        c = derive_rng(0, 1, 3).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
