"""Iterated logarithm evaluation, weights, domains and expansions."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demorgan.errors import DomainError, UnsupportedLevel
from demorgan.iterlog import (
    K_MAX_NUMERIC,
    expansion_increment,
    iterlog,
    iterlog_product,
    min_domain,
    zeta_weight,
)

import oracle as hp

EPS = 2.0**-52

# Frozen from an independent mpmath run at 60 digits.
ITERLOG_3_100 = 0.42342265246030381422
ZETA_2_16 = 45.238952338971588521


class TestIterlog:
    def test_single_log_of_e(self):
        assert math.isclose(iterlog(1, math.e), 1.0, rel_tol=1e-15)

    def test_double_log_of_e_to_e(self):
        assert math.isclose(iterlog(2, math.e**math.e), 1.0, rel_tol=1e-12)

    def test_triple_log_of_100(self):
        assert abs(iterlog(3, 100) - ITERLOG_3_100) < 1e-12

    def test_negative_result_is_allowed(self):
        # ln ln 2 < 0 but every intermediate is positive.
        assert iterlog(2, 2.0) < 0.0

    def test_monotone_in_x(self):
        assert iterlog(3, 200) > iterlog(3, 100)

    @pytest.mark.parametrize("k,x", [(1, 0.0), (1, -3.0), (2, 1.0), (2, 0.5), (3, 2.0)])
    def test_domain_errors(self, k, x):
        with pytest.raises(DomainError):
            iterlog(k, x)

    def test_level_validation(self):
        with pytest.raises(DomainError):
            iterlog(0, 10.0)
        with pytest.raises(UnsupportedLevel):
            iterlog(K_MAX_NUMERIC + 1, 10.0)
        for level in (2.0, True):
            with pytest.raises(DomainError, match=f"^level must be an integer, got {level!r}$"):
                iterlog(level, 10.0)

    def test_rejects_huge_integer_argument(self):
        with pytest.raises(DomainError):
            iterlog(1, 2**53)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            iterlog(1, math.inf)


class TestProductsAndWeights:
    def test_product_depth_one(self):
        assert math.isclose(iterlog_product(1, 10), math.log(10.0), rel_tol=1e-15)

    def test_empty_product(self):
        assert iterlog_product(0, 7) == 1.0

    def test_product_at_e_to_e_neighbourhood(self):
        # ln(16)*lnln(16), frozen via the weight value below.
        assert math.isclose(iterlog_product(2, 16) * 16.0, ZETA_2_16, rel_tol=1e-13)

    def test_zeta_examples(self):
        assert math.isclose(zeta_weight(1, 10), 23.02585092994045684, rel_tol=1e-14)
        assert math.isclose(zeta_weight(2, 16), ZETA_2_16, rel_tol=1e-13)
        assert math.isclose(zeta_weight(1, 3), 3.2958368660043290742, rel_tol=1e-14)

    def test_zeta_below_domain(self):
        with pytest.raises(DomainError):
            zeta_weight(2, 2)
        with pytest.raises(DomainError):
            zeta_weight(4, 3_814_279)

    def test_zeta_level_zero_rejected(self):
        with pytest.raises(DomainError):
            zeta_weight(0, 10)

    def test_index_guards(self):
        with pytest.raises(DomainError):
            zeta_weight(1, 2**53)
        with pytest.raises(DomainError):
            iterlog_product(1, 0)
        with pytest.raises(DomainError):
            iterlog_product(1, 2.0)  # non-integer index

    @given(
        K=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=10_000_000),
    )
    @settings(max_examples=300)
    def test_zeta_strictly_increasing(self, K, n):
        n = max(n, min_domain(K))
        assert zeta_weight(K, n + 1) > zeta_weight(K, n)


class TestMinDomain:
    def test_table(self):
        assert min_domain(1) == 2
        assert min_domain(2) == 3
        assert min_domain(3) == 16
        assert min_domain(4) == 3_814_280

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_boundary(self, K):
        lo = min_domain(K)
        assert iterlog(K, lo) > 0.0
        below = lo - 1
        try:
            assert iterlog(K, below) <= 0.0
        except DomainError:
            pass  # an intermediate already left the domain, also fine

    def test_unsupported(self):
        with pytest.raises(UnsupportedLevel):
            min_domain(5)


class TestExpansionIncrement:
    def test_depth_one_is_inverse_index(self):
        assert expansion_increment(1, 100) == 1.0 / 100

    def test_depth_two(self):
        assert math.isclose(
            expansion_increment(2, 100), 1.0 / (100 * math.log(100)), rel_tol=1e-15
        )

    def test_predicts_increment(self):
        pred = expansion_increment(2, 100)
        actual = iterlog(2, 101) - iterlog(2, 100)
        assert abs(actual - pred) < 1e-4

    def test_below_domain(self):
        with pytest.raises(DomainError):
            expansion_increment(2, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_residual_envelope_small_grid(self, k):
        # Residual of the predicted increment stays under n**-1.9; evaluated
        # in extended precision so the measurement is not double-round noise.
        # The full geometric grid to 1e6 runs in the acceptance suite.
        lo = max(min_domain(k), 100)
        for n in (lo, 4 * lo, 1000, 31_623, 1_000_000):
            if n < lo:
                continue
            with mp.workdps(50):
                actual = hp.iterlog(k, n + 1) - hp.iterlog(k, n)
                residual = abs(actual - hp.expansion_increment(k, n))
                assert residual <= mp.mpf(n) ** mp.mpf("-1.9"), (k, n, float(residual))


class TestCompositionIdentity:
    @given(
        k=st.integers(min_value=2, max_value=4),
        x=st.floats(min_value=4.0, max_value=700.0),
    )
    @settings(max_examples=300)
    def test_iterlog_of_exp(self, k, x):
        # iterlog(k, exp(x)) == iterlog(k-1, x).  With every intermediate of
        # the depth-(k-1) chain at least lnln(4), the outer logs contract and
        # the comparison holds to ~2 units of working precision; closer to
        # the domain edge the conditioning of composed logs makes any fixed
        # bound unattainable for any implementation.
        lhs = iterlog(k, math.exp(x))
        rhs = iterlog(k - 1, x)
        tol = 2 * EPS * max(1.0, x, abs(rhs))
        assert abs(lhs - rhs) <= tol

    @given(x=st.floats(min_value=0.05, max_value=4.0))
    @settings(max_examples=200)
    def test_iterlog_of_exp_small_arguments(self, x):
        lhs = iterlog(2, math.exp(x))
        rhs = iterlog(1, x)
        assert abs(lhs - rhs) <= 32 * EPS * max(1.0, abs(rhs))


class TestIntegralTracking:
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_partial_sums_track_next_level_log(self, K):
        # D(N) = sum_{n=A}^{N} 1/zeta - (ln_(K+1) N - ln_(K+1) A) decreases
        # monotonically from its maximum 1/zeta(A) and stays positive: the
        # discrete sum brackets the integral of d(ln_(K+1)).
        A = min_domain(K)
        bound = 1.0 / zeta_weight(K, A)
        total = 0.0
        checkpoints = sorted({int(A * 1.5**i) for i in range(1, 26)} | {100_000})
        prev_diff = None
        n = A
        for N in [c for c in checkpoints if A < c <= 100_000]:
            while n <= N:
                total += 1.0 / zeta_weight(K, n)
                n += 1
            diff = total - (iterlog(K + 1, N) - iterlog(K + 1, A))
            assert 0.0 < diff < bound
            if prev_diff is not None:
                assert diff < prev_diff
            prev_diff = diff
