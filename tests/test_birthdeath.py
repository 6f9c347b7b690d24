"""Birth-death chain classification via the product-series reduction."""

import math
import re
from fractions import Fraction

import numpy
import pytest

from demorgan.birthdeath import BirthDeathRates, Fate, bdp_classify, recurrence_ratio
from demorgan.convergence import ClassifyConfig, Decision
from demorgan.errors import DomainError
from demorgan.families import bd_power


class TestRecurrenceRatio:
    def test_symmetric_chain_has_unit_ratio(self):
        rates = BirthDeathRates(lam=lambda n: 3.0, mu=lambda n: 3.0)
        spec = recurrence_ratio(rates)
        for n in (1, 10, 12345):
            assert spec.ratio(n) == 1.0

    def test_index_shift(self):
        # lambda/mu = 1 + 2/n evaluated at n+1.
        spec = recurrence_ratio(bd_power(2.0).rates)
        assert spec.ratio(10) == 1.0 + 2.0 / 11.0
        assert spec.delta(10) == 2.0 / 11.0

    def test_drifted_rates_example(self):
        rates = BirthDeathRates(
            lam=lambda n: 0.5 + 0.4 / n,
            mu=lambda n: 0.5 - 0.4 / n,
        )
        spec = recurrence_ratio(rates)
        # Exact rational value of (1/2 + 2/(5*11)) / (1/2 - 2/(5*11)).
        exact = Fraction(1, 2) + Fraction(2, 55), Fraction(1, 2) - Fraction(2, 55)
        assert exact[0] / exact[1] == Fraction(59, 51)
        assert math.isclose(spec.ratio(10), 59.0 / 51.0, rel_tol=1e-12)

    def test_positivity_enforced(self):
        rates = BirthDeathRates(lam=lambda n: 1.0 - 0.2 * n, mu=lambda n: 1.0)
        spec = recurrence_ratio(rates)
        with pytest.raises(DomainError):
            spec.ratio(5)  # lambda(6) < 0


class TestFirstIndex:
    @pytest.mark.parametrize("bad", [1.5, True, numpy.int64(5), "5"], ids=repr)
    def test_non_integer_rejected_when_built(self, bad):
        message = re.escape(f"first_index must be an integer, got {bad!r}") + "$"
        with pytest.raises(ValueError, match=f"^{message}"):
            BirthDeathRates(lam=lambda n: 2.0, mu=lambda n: 1.0, first_index=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_index_below_one_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^first_index must be >= 1, got {bad}$"):
            BirthDeathRates(lam=lambda n: 2.0, mu=lambda n: 1.0, first_index=bad)

    def test_first_index_passes_through(self):
        rates = BirthDeathRates(lam=lambda n: 2.0, mu=lambda n: 1.0, first_index=7)
        assert recurrence_ratio(rates).first_index == 7


class TestCriterionFidelity:
    def test_ratio_matches_closed_form_products(self):
        # For lambda/mu = 1 + c/n the product terms are a_n = prod 1/(1+c/k);
        # a_n/a_{n+1} = 1 + c/(n+1) exactly.  Verified in exact rationals.
        c = 2
        for n in (1, 7, 100, 4321):
            a_n = math.prod([Fraction(k, k + c) for k in range(1, n + 1)])
            a_n1 = math.prod([Fraction(k, k + c) for k in range(1, n + 2)])
            assert a_n / a_n1 == 1 + Fraction(c, n + 1)
        spec = recurrence_ratio(bd_power(float(c)).rates)
        for n in (1, 7, 100, 4321):
            assert math.isclose(spec.ratio(n), float(1 + Fraction(c, n + 1)), rel_tol=1e-15)


class TestClassification:
    @pytest.mark.parametrize("c,expected", [
        (2.0, Fate.TRANSIENT),
        (1.0, Fate.RECURRENT),
        (0.5, Fate.RECURRENT),
    ])
    def test_power_rates(self, c, expected):
        result = bdp_classify(bd_power(c).rates)
        assert result.decision is expected

    def test_symmetric_chain_recurrent(self):
        rates = BirthDeathRates(lam=lambda n: 2.0, mu=lambda n: 2.0)
        result = bdp_classify(rates)
        assert result.decision is Fate.RECURRENT

    def test_verdict_mapping(self):
        transient = bdp_classify(bd_power(2.0).rates)
        assert transient.series_verdict.decision is Decision.CONVERGES
        recurrent = bdp_classify(bd_power(1.0).rates)
        assert recurrent.series_verdict.decision is Decision.DIVERGES

    def test_evidence_retained(self):
        result = bdp_classify(bd_power(2.0).rates)
        assert result.series_verdict.samples
        assert result.series_verdict.trace


class TestScaleInvariance:
    def test_common_factor_cancels(self):
        base = BirthDeathRates(
            lam=lambda n: 0.5 + 0.3 / n,
            mu=lambda n: 0.5 - 0.3 / n,
        )

        def g(n):
            return 3.0 + 1.0 / n

        scaled = BirthDeathRates(
            lam=lambda n: g(n) * (0.5 + 0.3 / n),
            mu=lambda n: g(n) * (0.5 - 0.3 / n),
        )
        a = bdp_classify(base)
        b = bdp_classify(scaled)
        assert a.decision is b.decision
        spec_a, spec_b = recurrence_ratio(base), recurrence_ratio(scaled)
        for n in (1, 10, 1000, 10**6):
            ra, rb = spec_a.ratio(n), spec_b.ratio(n)
            assert abs(ra - rb) <= 4 * math.ulp(ra)


class TestPartialSumOracle:
    def test_convergent_products_settle(self):
        # c = 2: a_n = 2/((n+1)(n+2)) so the partial sum is 1 - 2/(N+2);
        # the numeric product accumulation must match the closed form, and
        # the N=1e5 sum must sit within 1% of the N=1e6 sum.
        c = 2.0
        total = 0.0
        term = 1.0
        checkpoints = {10**5: None, 10**6: None}
        for n in range(1, 10**6 + 1):
            term *= n / (n + c)
            total += term
            if n in checkpoints:
                checkpoints[n] = total
        for N, value in checkpoints.items():
            assert math.isclose(value, 1.0 - 2.0 / (N + 2), rel_tol=1e-9)
        assert abs(checkpoints[10**5] - checkpoints[10**6]) <= 0.01 * checkpoints[10**6]

    def test_divergent_products_grow(self):
        # c = 1: a_n = 1/(n+1), partial sums are harmonic and keep growing.
        total_small = sum(1.0 / (n + 1) for n in range(1, 10**4))
        total_big = sum(1.0 / (n + 1) for n in range(1, 10**6))
        assert total_big > total_small + 4.0


class TestConfigPassthrough:
    def test_custom_window(self):
        config = ClassifyConfig(window_hi=10**5, margin=0.3)
        result = bdp_classify(bd_power(2.0).rates, config)
        assert result.decision is Fate.TRANSIENT
        assert result.series_verdict.window[1] == 10**5
