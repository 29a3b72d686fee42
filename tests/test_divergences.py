"""Unit tests for the divergence functionals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poisson_cs.divergences import (
    delta,
    gen_kl,
    jsd,
    jsd_rowwise,
    kl,
    nll_approx,
    snll,
    sqjsd,
    sym_kl,
    total_variation,
)
from poisson_cs.divergences import _jsd_terms, _nonneg
from poisson_cs.errors import DomainError, LengthMismatchError

LOG2 = math.log(2.0)


# Scalar oracles, written out term by term so they stay independent of the
# library's vectorized implementations.

def kl_oracle(p, q):
    return math.fsum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def jsd_oracle(p, q):
    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]
    return 0.5 * (kl_oracle(p, m) + kl_oracle(q, m))


def gen_kl_oracle(y, u):
    return math.fsum(
        (yi * math.log(yi / ui) if yi > 0 else 0.0) - yi + ui for yi, ui in zip(y, u)
    )


class TestKL:
    def test_identity(self):
        assert kl([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_half_support(self):
        assert kl([1, 0], [0.5, 0.5]) == pytest.approx(LOG2, rel=1e-12)

    def test_scalar_oracle(self):
        expect = 0.2 * math.log(0.2 / 0.6) + 0.8 * math.log(0.8 / 0.4)
        assert expect == pytest.approx(0.3347952867143343)
        assert kl([0.2, 0.8], [0.6, 0.4]) == pytest.approx(expect, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            kl([1.0, 2.0], [1.0])

    def test_support_violation(self):
        with pytest.raises(DomainError):
            kl([0.5, 0.5], [1.0, 0.0])

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            kl([-0.1, 1.1], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            kl([], [])

    def test_two_dimensional_rejected(self):
        # A 2-D input used to be flattened: a 2x2 array against its own four
        # entries had jsd 0.0.  A scalar is still a vector of length 1.
        with pytest.raises(DomainError, match="p must be 1-D"):
            jsd([[1, 2], [3, 4]], [1, 2, 3, 4])
        with pytest.raises(DomainError, match="q must be 1-D"):
            gen_kl([1, 2], [[1], [2]])
        assert kl(1.0, 0.5) == pytest.approx(LOG2, rel=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 40)
            p = rng.uniform(0.0, 10.0, n)
            q = rng.uniform(0.1, 10.0, n)
            assert kl(p, q) == pytest.approx(kl_oracle(p, q), rel=1e-10, abs=1e-12)


class TestJSD:
    def test_identity(self):
        assert jsd([3, 7], [3, 7]) == 0.0

    def test_disjoint_support(self):
        assert jsd([1, 0], [0, 1]) == pytest.approx(LOG2, rel=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = rng.integers(1, 30)
            p = rng.uniform(0, 10, n)
            q = rng.uniform(0, 10, n)
            assert jsd(p, q) == jsd(q, p)

    def test_always_finite_on_boundary(self):
        # m dominates both supports, so zeros anywhere are fine.
        v = jsd([0, 2, 0], [1, 0, 0])
        assert math.isfinite(v) and v > 0

    def test_against_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(1, 25)
            p = rng.uniform(0, 5, n)
            q = rng.uniform(0, 5, n)
            assert jsd(p, q) == pytest.approx(jsd_oracle(p, q), rel=1e-10, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 10, 20)
        q = rng.uniform(0, 10, 20)
        perm = rng.permutation(20)
        assert jsd(p[perm], q[perm]) == pytest.approx(jsd(p, q), rel=1e-12)

    def test_high_intensity_precision(self):
        # p ~ q ~ 1e8: the log1p formulation must keep the small difference.
        rng = np.random.default_rng(4)
        p = rng.uniform(0.9e8, 1.1e8, 50)
        q = p + rng.normal(0, 1e4, 50)
        got = jsd(p, q)
        # Reference accumulated in extended precision from the definition.
        pl, ql = np.array(p, dtype=np.longdouble), np.array(q, dtype=np.longdouble)
        ml = (pl + ql) / 2
        ref = float(0.5 * (np.sum(pl * np.log(pl / ml)) + np.sum(ql * np.log(ql / ml))))
        assert got == pytest.approx(ref, rel=1e-9)


def two_quotient_jsd_terms(p, q):
    """The JSD terms with one quotient per term, (p-q)/s and (q-p)/s: the
    formula ``_jsd_terms`` replaced, and the reference it must match bit for
    bit."""
    s = p + q
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p > 0.0, p * np.log1p((p - q) / s), 0.0)
        out += np.where(q > 0.0, q * np.log1p((q - p) / s), 0.0)
    return out


# Zeros, subnormal and tiny values, and everything up to 1e12; and the same
# without the zeros.
_entries = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e12))
_positive = st.one_of(st.floats(0.0, 1e-300, exclude_min=True),
                      st.floats(0.0, 1e12, exclude_min=True))


@st.composite
def _term_operands(draw):
    """(p, q, p_zero, q_zero) with p and q of shape (n,), (K, n) or (K, W, n);
    q may be broadcast along its next-to-last axis, as a count vector is
    against a block of rates.  Either side, or both, may be strictly
    positive; its mark is then False (the select is skipped), and otherwise
    None or the mark ~(side > 0) as a caller holds it."""
    shape = draw(st.sampled_from([(7,), (3, 7), (3, 4, 7), (1, 1), (2, 5, 1)]))
    q_shape = shape
    if len(shape) >= 2 and draw(st.booleans()):
        q_shape = shape[:-2] + (1, shape[-1])
    sides = []
    for side_shape in (shape, q_shape):
        positive = draw(st.booleans())
        side = draw(hnp.arrays(float, side_shape, elements=_positive if positive else _entries))
        zero = False if positive else draw(st.sampled_from([None, ~(side > 0.0)]))
        sides.append((side, zero))
    (p, p_zero), (q, q_zero) = sides if draw(st.booleans()) else sides[::-1]
    return p, q, p_zero, q_zero


@settings(max_examples=300, deadline=None)
@given(_term_operands())
def test_jsd_terms_match_the_two_quotient_formula_bit_for_bit(operands):
    # The q-term's log1p argument is -d: q-p = -(p-q) and (-a)/s = -(a/s)
    # exactly, so every term keeps its bits, signed zeros included.  A side
    # marked as holding no zero skips its select, which keeps every bit too.
    p, q, p_zero, q_zero = operands
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _jsd_terms(p, q, p_zero, q_zero)
    want = two_quotient_jsd_terms(p, q)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSqjsd:
    def test_identity(self):
        assert sqjsd([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_disjoint(self):
        assert sqjsd([1, 0], [0, 1]) == pytest.approx(math.sqrt(LOG2), rel=1e-12)

    def test_triangle_spot(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = rng.integers(1, 20)
            p, q, r = (rng.uniform(0, 10, n) for _ in range(3))
            assert (
                sqjsd(p, q)
                <= sqjsd(p, r) + sqjsd(q, r) + 1e-10
            )


class TestGenKL:
    def test_identity(self):
        assert gen_kl([2, 5], [2, 5]) == 0.0

    def test_zero_counts_reduce_to_sum(self):
        assert gen_kl([0, 0], [1, 2]) == pytest.approx(3.0, rel=1e-12)

    def test_scalar_oracle(self):
        assert gen_kl([4], [2]) == pytest.approx(4 * LOG2 - 2, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = rng.integers(1, 30)
            y = rng.uniform(0, 20, n)
            u = rng.uniform(0.05, 20, n)
            assert gen_kl(y, u) >= 0.0

    def test_support_violation(self):
        with pytest.raises(DomainError):
            gen_kl([1.0], [0.0])


class TestTotalVariationAndDelta:
    def test_tv(self):
        assert total_variation([1, 1], [1, 1]) == 0.0
        assert total_variation([1, 0], [0, 1]) == 2.0
        assert total_variation([0.3], [0.7]) == pytest.approx(0.4)

    def test_delta(self):
        assert delta([1, 2], [1, 2]) == 0.0
        assert delta([1, 0], [0, 1]) == pytest.approx(2.0)
        assert delta([0, 0], [0, 0]) == 0.0

    def test_chain_boundary_tightness(self):
        # p=[1,0], q=[0,1]: V^2/2 = 2 = Delta < 4J = 4 log 2.
        p, q = [1, 0], [0, 1]
        v = total_variation(p, q)
        d = delta(p, q)
        j = jsd(p, q)
        assert 0.5 * v**2 == pytest.approx(2.0)
        assert d == pytest.approx(2.0)
        assert 4 * j == pytest.approx(4 * LOG2)
        assert 0.5 * v**2 <= d <= 4 * j


class TestSymKL:
    def test_identity(self):
        assert sym_kl([1, 2], [1, 2]) == 0.0

    def test_sum_of_directions(self):
        u, v = [0.2, 0.8], [0.6, 0.4]
        expect = kl_oracle(u, v) + kl_oracle(v, u)
        assert expect == pytest.approx(0.7167037876912219)
        assert sym_kl(u, v) == pytest.approx(expect, rel=1e-12)

    def test_quarter_bound_on_jsd(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = rng.integers(1, 25)
            u = rng.uniform(0.01, 10, n)
            v = rng.uniform(0.01, 10, n)
            assert jsd(u, v) <= 0.25 * sym_kl(u, v) + 1e-10


class TestNllApprox:
    def test_unit(self):
        assert nll_approx([1], [1]) == pytest.approx(0.5 * math.log(2 * math.pi))

    def test_scalar(self):
        expect = 0.5 * math.log(5) + 0.5 * math.log(2 * math.pi)
        assert nll_approx([5], [5]) == pytest.approx(expect, rel=1e-12)

    def test_difference_from_gen_kl_independent_of_u(self):
        rng = np.random.default_rng(8)
        y = rng.integers(1, 50, 10).astype(float)
        u1 = rng.uniform(0.5, 40, 10)
        u2 = rng.uniform(0.5, 40, 10)
        d1 = nll_approx(y, u1) - gen_kl(y, u1)
        d2 = nll_approx(y, u2) - gen_kl(y, u2)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(DomainError):
            nll_approx([0, 2], [1, 1])


class TestSnll:
    def test_unit(self):
        assert snll([1], [1]) == pytest.approx(math.log(2 * math.pi), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        y = rng.uniform(0.5, 30, 15)
        u = rng.uniform(0.5, 30, 15)
        assert snll(y, u) == pytest.approx(snll(u, y), rel=1e-12)

    def test_dominates_sym_kl_under_condition(self):
        # y_i >= 1/(4 pi^2 u_i) makes the parenthesized log terms nonnegative.
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = rng.integers(1, 20)
            u = rng.uniform(0.2, 20, n)
            lo = 1.0 / (4 * math.pi**2 * u)
            y = lo + rng.uniform(0.1, 20, n)
            assert snll(y, u) >= sym_kl(y, u) - 1e-10

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            snll([1.0, 0.0], [1.0, 1.0])


class TestDivergenceValue:
    def test_nonneg_kinds_clamp_rounding(self):
        assert _nonneg("jsd", -1e-15) == 0.0
        assert _nonneg("jsd", 0.25) == 0.25

    def test_nonneg_kinds_reject_negative(self):
        with pytest.raises(DomainError, match="jsd produced negative value"):
            _nonneg("jsd", -1.0)

    def test_signed_kinds_allow_negative(self):
        # Plain KL of unnormalized vectors and the Stirling NLLs at rates
        # below 1/(2 pi) are negative, and come back as summed.
        assert kl([0.2], [0.8]) == pytest.approx(0.2 * math.log(0.25), rel=1e-12)
        assert nll_approx([0.01], [0.01]) == pytest.approx(
            0.5 * math.log(0.01) + 0.5 * math.log(2 * math.pi), rel=1e-12)
        assert snll([0.01], [0.01]) == pytest.approx(
            math.log(0.01) + math.log(2 * math.pi), rel=1e-12)

    def test_float_protocol(self):
        p, q = [1.0, 2.0], [2.0, 1.0]
        for divergence in (kl, jsd, sqjsd, gen_kl, total_variation, delta, sym_kl,
                           nll_approx, snll):
            assert type(divergence(p, q)) is float
        assert jsd([1, 0], [0, 1]) == pytest.approx(LOG2)


class TestRowwise:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        P = rng.uniform(0, 10, (40, 13))
        qv = rng.uniform(0, 10, 13)
        got = jsd_rowwise(P, qv)
        for i in range(40):
            assert got[i] == jsd(P[i], qv)

    def test_zero_rows(self):
        assert jsd_rowwise(np.zeros((3, 4)), np.zeros(4)).tolist() == [0, 0, 0]

    @staticmethod
    def table_width(P):
        return int(np.max(P.max(axis=0) - P.min(axis=0))) + 1

    @pytest.mark.parametrize("rate", [1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e6, 1e8])
    def test_integer_counts_match_float_path(self, rate):
        # Integer counts give the bits of the same counts as floats, with
        # rows enough to hold each column's whole count range (the width a
        # per-column table of terms would need); zero counts everywhere at
        # low rates, and a zero-rate column whose counts are all 0.
        rows = int(16 * math.sqrt(rate)) + 64
        for seed in range(8):
            rng = np.random.default_rng(seed)
            q = rate * rng.uniform(0.5, 1.5, 5)
            q[seed % 5] = 0.0
            P = rng.poisson(q, size=(rows, 5))
            assert self.table_width(P) <= rows
            assert np.array_equal(jsd_rowwise(P, q), jsd_rowwise(P.astype(float), q))

    @pytest.mark.parametrize("rate", [1e2, 1e4, 1e8])
    def test_wide_count_range_takes_elementwise_path(self, rate):
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            q = rate * rng.uniform(0.5, 1.5, 40)
            P = rng.poisson(q, size=(5, 40))
            assert self.table_width(P) > 5
            tracemalloc.start()
            try:
                got = jsd_rowwise(P, q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # No (40, width) table of terms is built: the temporaries are a
            # few (5, 40) arrays.
            assert peak < 64_000
            assert np.array_equal(got, jsd_rowwise(P.astype(float), q))

    def test_integer_zeros(self):
        P = np.zeros((3, 4), dtype=np.int64)
        assert jsd_rowwise(P, np.zeros(4)).tolist() == [0, 0, 0]
        P[1, 2] = 5
        q = np.array([0.0, 1.5, 0.0, 2.0])
        assert np.array_equal(jsd_rowwise(P, q), jsd_rowwise(P.astype(float), q))
        assert jsd_rowwise(P, q)[1] == jsd(P[1], q)


def test_compensated_summation_large_n():
    # Plain np.sum of many nearly-cancelling terms, against an
    # extended-precision reference.
    rng = np.random.default_rng(12)
    n = 20001
    y = rng.uniform(1e6, 2e6, n)
    u = y * (1 + rng.normal(0, 1e-7, n))
    got = gen_kl(y, u)
    yl, ul = y.astype(np.longdouble), u.astype(np.longdouble)
    ref = float(np.sum(yl * np.log(yl / ul) - yl + ul))
    assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)
