"""Unit tests for sensing-matrix construction and RIC measurement."""

import itertools
import math

import numpy as np
import pytest

from poisson_cs.errors import InvalidParamError, TooManySupportsError
from poisson_cs.sensing import (
    build_phi,
    compose_effective,
    estimate_ric,
    sample_rip_matrix,
)
from poisson_cs.transforms import dct2_basis, identity_basis


class TestRipMatrix:
    def test_half_p_two_point_exact(self):
        zt = sample_rip_matrix(40, 12, 0.5, seed=0)
        vals = np.unique(zt)
        assert set(vals) == {-1 / math.sqrt(40), 1 / math.sqrt(40)}

    def test_determinism(self):
        a = sample_rip_matrix(30, 20, 0.5, seed=123)
        b = sample_rip_matrix(30, 20, 0.5, seed=123)
        assert np.array_equal(a, b)
        c = sample_rip_matrix(30, 20, 0.5, seed=124)
        assert not np.array_equal(a, c)

    def test_positive_fraction_concentrates(self):
        zt = sample_rip_matrix(400, 100, 0.5, seed=7)
        frac = np.mean(zt > 0)
        assert 0.45 <= frac <= 0.55

    def test_general_p_levels(self):
        p = 0.3
        zt = sample_rip_matrix(50, 10, p, seed=1)
        lo = -math.sqrt((1 - p) / p) / math.sqrt(50)
        hi = math.sqrt(p / (1 - p)) / math.sqrt(50)
        assert set(np.unique(zt)) <= {lo, hi}

    def test_invalid_params(self):
        with pytest.raises(InvalidParamError):
            sample_rip_matrix(0, 5, 0.5, seed=0)
        with pytest.raises(InvalidParamError):
            sample_rip_matrix(5, 5, 1.0, seed=0)
        with pytest.raises(InvalidParamError):
            sample_rip_matrix(5, 5, 0.0, seed=0)


class TestBuildPhi:
    def test_entries_exact(self):
        N = 25
        zt = sample_rip_matrix(N, 60, 0.5, seed=2)
        phi = build_phi(zt)
        # Negative level maps to exactly 0.0, positive to exactly 1/N.
        assert set(np.unique(phi.entries)) == {0.0, 1.0 / N}
        neg = zt < 0
        assert np.all(phi.entries[neg] == 0.0)
        assert np.all(phi.entries[~neg] == 1.0 / N)

    def test_general_p_also_two_point(self):
        N = 30
        phi = build_phi(sample_rip_matrix(N, 40, 0.25, seed=3))
        assert set(np.unique(phi.entries)) == {0.0, 1.0 / N}

    def test_column_sums_at_most_one(self):
        phi = build_phi(sample_rip_matrix(10, 200, 0.5, seed=4))
        assert np.all(phi.entries.sum(axis=0) <= 1.0 + 1e-12)

    def test_flux_preservation_random_signals(self):
        phi = build_phi(sample_rip_matrix(20, 50, 0.5, seed=5))
        rng = np.random.default_rng(6)
        for _ in range(1000):
            x = rng.uniform(0, 100, 50)
            assert np.sum(phi.entries @ x) <= np.sum(x) + 1e-12


class TestEstimateRic:
    def test_orthonormal_matrix_zero_delta(self):
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        est = estimate_ric(Q, s=2)
        assert est.delta <= 1e-10
        assert est.order == 4
        assert est.supports_checked == math.comb(8, 4)

    def test_duplicated_column_breaks_rip(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((10, 6))
        B /= np.linalg.norm(B, axis=0)
        B[:, 3] = B[:, 0]
        est = estimate_ric(B, s=1)
        assert est.delta >= 1.0

    def test_against_svd_oracle(self):
        # Independent oracle: per-support extreme singular values squared.
        for trial in range(20):
            zt = sample_rip_matrix(40, 12, 0.5, seed=100 + trial)
            est = estimate_ric(zt, s=2)
            delta_oracle = 0.0
            for support in itertools.combinations(range(12), 4):
                sv = np.linalg.svd(zt[:, support], compute_uv=False)
                delta_oracle = max(
                    delta_oracle, abs(sv[0] ** 2 - 1.0), abs(1.0 - sv[-1] ** 2)
                )
            assert est.delta == pytest.approx(delta_oracle, abs=1e-10)
            assert est.supports_checked == 495

    def test_support_cap(self):
        B = np.eye(30)
        with pytest.raises(TooManySupportsError):
            estimate_ric(B, s=8, max_supports=1000)

    def test_invalid_order(self):
        with pytest.raises(InvalidParamError):
            estimate_ric(np.eye(4), s=3)


class TestComposeEffective:
    def test_identity_basis_passthrough(self):
        phi = build_phi(sample_rip_matrix(10, 16, 0.5, seed=10))
        A, B = compose_effective(phi, identity_basis(16))
        assert np.array_equal(A, phi.entries)
        assert np.array_equal(B, phi.source)

    def test_companion_columns_unit_norm_on_average(self):
        # At p = 1/2 every column of Phi_tilde has unit norm exactly, and an
        # orthonormal Psi preserves the Frobenius mass, so the mean squared
        # column norm of B stays within 10% of 1.
        phi = build_phi(sample_rip_matrix(200, 49, 0.5, seed=11))
        _, B = compose_effective(phi, dct2_basis(7))
        mean_sq = np.mean(np.sum(B**2, axis=0))
        assert abs(mean_sq - 1.0) < 0.1

    def test_associativity(self):
        phi = build_phi(sample_rip_matrix(12, 49, 0.5, seed=12))
        basis = dct2_basis(7)
        A, _ = compose_effective(phi, basis)
        rng = np.random.default_rng(13)
        for _ in range(20):
            theta = rng.standard_normal(49)
            direct = A @ theta
            via_signal = phi.entries @ basis.synthesize(theta)
            assert np.allclose(direct, via_signal, atol=1e-10)

    def test_affine_identity_for_equal_intensity(self):
        # With ||Psi a||_1 = ||Psi b||_1 and both signals non-negative, the
        # all-ones part of Phi cancels on the difference.
        N, m = 20, 49
        phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=14))
        basis = dct2_basis(7)
        A, B = compose_effective(phi, basis)
        rng = np.random.default_rng(15)
        for _ in range(20):
            xa = rng.uniform(0.0, 5.0, m)
            xb = rng.uniform(0.0, 5.0, m)
            xb *= xa.sum() / xb.sum()
            ta, tb = basis.analyze(xa), basis.analyze(xb)
            lhs = A @ (ta - tb)
            rhs = math.sqrt(0.25 / N) * (B @ (ta - tb))
            assert np.allclose(lhs, rhs, atol=1e-10)
