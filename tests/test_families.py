"""Catalog families: closed-form truth, delta consistency, expression agreement."""

import math
import re

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demorgan.birthdeath import Fate, bdp_classify, recurrence_ratio
from demorgan.convergence import (
    ClassifyConfig,
    Decision,
    adaptive_classify,
    extended_bdm_test,
    extract_sn,
    sample_grid,
)
from demorgan.errors import DomainError
from demorgan.expr import parse_expression
from demorgan.families import (
    ACCEPTANCE_CATALOG,
    alpha_const,
    alpha_threshold,
    bd_iterlog,
    bd_log,
    bd_power,
    geometric,
    iterlog_power,
    log_power,
    make_rate_family,
    make_series_family,
    p_series,
)
from demorgan.iterlog import INDEX_LIMIT, iterlog_product, min_domain
from demorgan.convergence import RatioSpec
from demorgan.walk import rw_classify
from oracle import catalog_truth


class TestCatalogTruth:
    @pytest.mark.parametrize("name,params", ACCEPTANCE_CATALOG)
    def test_families_classify_to_ground_truth(self, name, params):
        fam = make_series_family(name, **params)
        verdict = adaptive_classify(fam.ratio_spec)
        assert verdict.decision.value == catalog_truth(name, params), (fam.name, fam.params)

    def test_factory_validation(self):
        with pytest.raises(ValueError):
            make_series_family("nope", p=1.0)
        with pytest.raises(ValueError):
            make_series_family("p-series")  # missing p
        with pytest.raises(ValueError):
            make_series_family("p-series", p=1.0, x=2.0)  # stray parameter
        with pytest.raises(ValueError):
            geometric(-1.0)
        with pytest.raises(ValueError):
            iterlog_power(4, 1.0)  # depth+1 would exceed the numeric cap


class TestDeltaConsistency:
    @given(
        case=st.sampled_from([
            ("p-series", {"p": 0.5}), ("p-series", {"p": 1.0}), ("p-series", {"p": 2.0}),
            ("log-power", {"r": 0.5}), ("log-power", {"r": 1.0}), ("log-power", {"r": 2.0}),
            ("iterlog-power", {"K": 1, "r": 0.5}), ("iterlog-power", {"K": 1, "r": 2.0}),
            ("iterlog-power", {"K": 2, "r": 0.5}), ("iterlog-power", {"K": 2, "r": 2.0}),
            ("geometric", {"x": 0.5}), ("geometric", {"x": 2.0}),
        ]),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_ratio_minus_one_matches_delta(self, case, u):
        # The cancellation-free delta and the raw ratio describe the same
        # series: |ratio - 1 - delta| stays within 4 ulps of the ratio over
        # the sampled index range (windows start at 100).  The nested log
        # chains of iterlog-power compound term rounding to ~6.8 ulps at
        # worst (exhaustive scan), so those get double the budget; terms
        # must stay representable for the raw ratio, so geometric families
        # sample a bounded range.
        fam = make_series_family(case[0], **case[1])
        spec = fam.ratio_spec
        lo = max(spec.first_index, 100)
        hi = 700 if fam.name == "geometric" else 10**7
        n = int(round(lo * (hi / lo) ** u))
        n = min(max(n, lo), hi)
        r = spec.ratio_at(n)
        d = spec.delta(n)
        budget = 8 if fam.name == "iterlog-power" else 4
        assert abs(r - 1.0 - d) <= budget * math.ulp(r), (fam.name, fam.params, n)

    @given(u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_hp_term_matches_float_scale(self, u):
        fam = log_power(2.0)
        n = int(round(2 * (10**6 / 2) ** u))
        n = max(n, 2)
        f = parse_expression(fam.expression)
        assert math.isclose(f(n), float(fam.hp_term(n)), rel_tol=1e-12)


# The parameter grids the benchmark draws from (bench/workloads.py).
SERIES_GRID = [round(0.3 + 0.005 * i, 6) for i in range(141)] + [
    round(1.25 + 0.005 * i, 6) for i in range(351)]
RATE_GRID = [round(0.005 * i, 6) for i in range(201)] + SERIES_GRID[141:]


def _chain(n: int, length: int) -> list[float]:
    """u_1 = log1p(1/n), u_{k+1} = log1p(u_k / ln_(k)(n)), for k < length."""
    u, v = [math.log1p(1.0 / n)], float(n)
    for _ in range(length - 1):
        v = math.log(v)
        u.append(math.log1p(u[-1] / v))
    return u


def _closed_p_series(p, n):
    return math.expm1(p * math.log1p(1.0 / n))


def _closed_log_power(r, n):
    u = math.log1p(1.0 / n)
    return math.expm1(u + r * math.log1p(u / math.log(n)))


def _closed_iterlog_power(K, r, n):
    u = _chain(n, K + 2)
    total = u[0]
    for k in range(1, K + 1):
        total += u[k]
    return math.expm1(total + r * u[K + 1])


def _closed_bd_log(c, n):
    return 1.0 / n + c / (n * math.log(n))


class TestMergedDeltas:
    """The shared log-scale delta equals, bit for bit, each closed form it replaced."""

    @given(p=st.sampled_from(SERIES_GRID), u=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_p_series(self, p, u):
        n = int(10 ** (12 * u))
        assert p_series(p).ratio_spec.delta(n).hex() == _closed_p_series(p, n).hex()

    @given(r=st.sampled_from(SERIES_GRID), u=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_log_power(self, r, u):
        n = max(2, int(10 ** (12 * u)))
        assert log_power(r).ratio_spec.delta(n).hex() == _closed_log_power(r, n).hex()

    @given(K=st.integers(1, 3), r=st.sampled_from(SERIES_GRID), u=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_iterlog_power(self, K, r, u):
        first = min_domain(K + 1)
        n = int(first * (10**12 / first) ** u)
        got = iterlog_power(K, r).ratio_spec.delta(n)
        assert got.hex() == _closed_iterlog_power(K, r, n).hex()

    @given(c=st.sampled_from(RATE_GRID), u=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_bd_log(self, c, u):
        n = max(2, int(10 ** (12 * u)))
        assert bd_log(c).rates.ratio_delta(n).hex() == _closed_bd_log(c, n).hex()


class TestExpressionAgreement:
    @pytest.mark.parametrize("name,params", ACCEPTANCE_CATALOG)
    def test_family_equals_expression_route(self, name, params):
        # Classifying through the family and through its canonical expression
        # gives identical verdicts, and coefficient samples agree within 4
        # ulps (they are bit-equal here: the family evaluates its terms with
        # the same parsed expression).  Comparison runs without delta forms
        # on a window where raw terms are representable.
        fam = make_series_family(name, **params)
        term = parse_expression(fam.expression)

        def expr_ratio(n: int) -> float:
            return term(n) / term(n + 1)

        expr_spec = RatioSpec(ratio=expr_ratio, first_index=fam.ratio_spec.first_index)
        hi = 700 if fam.name == "geometric" else 8192  # raw x^n floats die past ~2^1024
        window = (max(fam.ratio_spec.first_index, 16), hi)
        margin = 0.2
        v_fam = extended_bdm_test(1, fam.ratio_spec, window, margin, use_delta=False)
        v_expr = extended_bdm_test(1, expr_spec, window, margin, use_delta=False)
        assert v_fam.decision == v_expr.decision
        assert len(v_fam.samples) == len(v_expr.samples)
        for a, b in zip(v_fam.samples, v_expr.samples):
            assert a.n == b.n
            if math.isnan(a.value):
                assert math.isnan(b.value)
            else:
                assert abs(a.value - b.value) <= 4 * math.ulp(max(abs(a.value), 1.0)), (
                    fam.name, fam.params, a.n,
                )


class TestRateFamilies:
    @pytest.mark.parametrize("c,expected", [
        (2.0, Fate.TRANSIENT), (1.0, Fate.RECURRENT), (0.5, Fate.RECURRENT),
    ])
    def test_bd_power_thresholds(self, c, expected):
        assert bdp_classify(bd_power(c).rates).decision is expected

    @pytest.mark.parametrize("c,expected", [
        (2.0, Fate.TRANSIENT), (0.5, Fate.RECURRENT),
    ])
    def test_bd_log_thresholds(self, c, expected):
        assert bdp_classify(bd_log(c).rates).decision is expected

    @pytest.mark.parametrize("depth,c", [(1, 0.5), (1, 2.0), (2, 0.5), (2, 2.0)])
    def test_boundary_rates_recover_coefficient(self, depth, c):
        # Rates shaped exactly like the depth-K boundary with deepest weight
        # c: the depth-K extraction sees c, up to the index-shift drift.
        fam = bd_iterlog(depth, c)
        spec = recurrence_ratio(fam.rates)
        lo = max(min_domain(depth), spec.first_index, 10**6)
        for n in sample_grid(lo, 10**7, 8):
            s = extract_sn(depth, spec, n).value
            assert abs(s - c) <= 0.1, (depth, c, n, s)

    @given(depth=st.integers(1, 4), c=st.sampled_from(RATE_GRID), u=st.floats(0.0, 1.0))
    @settings(max_examples=400)
    def test_boundary_rates_match_per_level_formula(self, depth, c, u):
        # Reference: 1/n, then one validated iterlog_product per level.
        first = min_domain(depth)
        n = min(int(first * (2**53 / first) ** u), 2**53 - 1)
        expected = 1.0 / n
        for k in range(1, depth):
            expected += 1.0 / (n * iterlog_product(k, n))
        expected += c / (n * iterlog_product(depth, n))
        rates = bd_iterlog(depth, c).rates
        assert rates.ratio_delta(n).hex() == expected.hex()
        assert rates.lam(n).hex() == (1.0 + expected).hex()
        # bd-power is the depth-0 shape, bd-log the depth-1 one.
        power = bd_power(c).rates
        assert power.ratio_delta(n).hex() == (c / n).hex()
        assert power.lam(n).hex() == (1.0 + c / n).hex()
        log_rates, iterlog_rates = bd_log(c).rates, bd_iterlog(1, c).rates
        assert log_rates.ratio_delta(n).hex() == iterlog_rates.ratio_delta(n).hex()
        assert log_rates.lam(n).hex() == iterlog_rates.lam(n).hex()
        for name, fam, below in [("bd-power", bd_power(c), 0), ("bd-log", bd_log(c), 1),
                                 ("bd-iterlog", bd_iterlog(depth, c), first - 1)]:
            with pytest.raises(DomainError, match=f"^{name}: index {below} below"):
                fam.rates.ratio_delta(below)

    @pytest.mark.parametrize("make,n", [(bd_log, 1), (lambda c: bd_iterlog(3, c), 15)])
    def test_delta_below_domain_raises(self, make, n):
        with pytest.raises(DomainError):
            make(2.0).rates.ratio_delta(n)

    def test_registry(self):
        fam = make_rate_family("bd-iterlog", K=2, c=1.5)
        assert fam.params == {"K": 2, "c": 1.5}
        with pytest.raises(ValueError):
            make_rate_family("bd-power")
        with pytest.raises(ValueError, match="^depth must be an integer, got 2.0$"):
            make_rate_family("bd-iterlog", K=2.0, c=1.5)  # no silent int(): 2.5 was depth 2


class TestWalkFamilies:
    @pytest.mark.parametrize("a,expected", [
        (0.4, Fate.TRANSIENT), (0.25, Fate.RECURRENT), (0.1, Fate.RECURRENT),
    ])
    def test_constant_drift_thresholds(self, a, expected):
        fam = alpha_const(a)
        assert fam.drift.C == 0.5
        assert rw_classify(fam.drift).decision is expected

    def test_constant_drift_validation(self):
        with pytest.raises(ValueError):
            alpha_const(0.5)
        with pytest.raises(ValueError):
            alpha_const(0.0)

    @given(
        depth=st.integers(min_value=1, max_value=2),
        c=st.sampled_from([0.5, 2.0]),
        n=st.integers(min_value=1, max_value=10**7),
    )
    @settings(max_examples=200)
    def test_threshold_drift_respects_invariant(self, depth, c, n):
        fam = alpha_threshold(depth, c)
        a = fam.drift.alpha_at(n)  # raises InvalidDrift on violation
        assert 0.0 < a < min(fam.drift.C, 0.5 * n)

    @given(depth=st.integers(1, 3), c=st.sampled_from(RATE_GRID), u=st.floats(0.0, 1.0))
    @settings(max_examples=400)
    def test_threshold_drift_matches_per_level_formula(self, depth, c, u):
        # Reference: one validated iterlog_product per level.
        n = min(max(1, int(2 ** (53 * u))), INDEX_LIMIT - 1)
        m = max(n, min_domain(depth + 1))
        value = 1.0
        for k in range(1, depth):
            value += 1.0 / iterlog_product(k, m)
        value += c / iterlog_product(depth, m)
        expected = min(0.25 * value, 0.999 * min(1.0, 0.5 * n))
        assert alpha_threshold(depth, c).drift.alpha(n).hex() == expected.hex()

    def test_threshold_drift_rejects_unconvertible_index(self):
        alpha = alpha_threshold(2, 0.5).drift.alpha
        for n in (INDEX_LIMIT, 10**7 + 0.5):
            with pytest.raises(DomainError):
                alpha(n)



def _decision(fam, config):
    """The decision on a catalog family of any kind."""
    if hasattr(fam, "ratio_spec"):
        return adaptive_classify(fam.ratio_spec, config).decision
    if hasattr(fam, "rates"):
        return bdp_classify(fam.rates, config).decision
    return rw_classify(fam.drift, config).decision


WRONG_NEAR_THRESHOLD = [
    (p_series(1.01), None), (p_series(1.05), None),
    (log_power(1.05), None), (log_power(1.1), None),
    (bd_power(1.01), None), (bd_power(1.05), None),
    (alpha_const(0.251), None), (alpha_const(0.26), None),
    (alpha_threshold(3, 0.5), None), (alpha_threshold(3, 0.9), None),
    (log_power(2.0), ClassifyConfig(k_start=4)),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: wrong decisive verdict near the threshold")
@pytest.mark.parametrize("fam,config", WRONG_NEAR_THRESHOLD, ids=[
    "-".join([fam.name, *map(str, fam.params.values())] + (["k_start=4"] if config else []))
    for fam, config in WRONG_NEAR_THRESHOLD
])
def test_no_wrong_decisive_verdict_near_threshold(fam, config):
    decision = _decision(fam, config)
    truth = catalog_truth(fam.name, fam.params)
    assert decision.value in (truth, "inconclusive"), (fam.name, fam.params, decision)


@pytest.mark.parametrize("make,name,params", [
    (make_series_family, "p-series", {"p": 2.0}),
    (make_rate_family, "bd-power", {"c": 2.0}),
])
def test_registries_validate_alike(make, name, params):
    with pytest.raises(ValueError, match="unknown .* family 'nope'"):
        make("nope", **params)
    with pytest.raises(ValueError, match="needs parameter"):
        make(name)
    with pytest.raises(ValueError, match="does not take: K"):
        make(name, K=3, **params)
    assert make(name, K=None, **params).params == params


# Every factory with its parameter given as a Python float; the sources below
# are compared bit for bit with the same factory given a numpy float.
FACTORIES = [
    (p_series, (), 1.25), (log_power, (), 1.25), (iterlog_power, (2,), 1.25),
    (geometric, (), 0.5), (bd_power, (), 1.25), (bd_log, (), 1.25),
    (bd_iterlog, (3,), 1.25), (alpha_const, (), 0.3), (alpha_threshold, (2,), 1.25),
]


def _source(fam):
    """The delta, rate ratio or drift function of a family of any kind."""
    if hasattr(fam, "ratio_spec"):
        return fam.ratio_spec.delta
    if hasattr(fam, "rates"):
        return fam.rates.ratio_delta
    return fam.drift.alpha


@pytest.mark.parametrize("make,depth,value", FACTORIES, ids=[f[0].__name__ for f in FACTORIES])
def test_numpy_float_parameter_builds_the_same_family(make, depth, value):
    plain, wrapped = make(*depth, value), make(*depth, numpy.float64(value))
    assert repr(wrapped.params) == repr(plain.params)
    assert getattr(wrapped, "expression", None) == getattr(plain, "expression", None)
    for n in (10**4, 5 * 10**6):
        assert type(_source(wrapped)(n)) is float
        assert _source(wrapped)(n).hex() == _source(plain)(n).hex()


@pytest.mark.parametrize("make", [iterlog_power, bd_iterlog, alpha_threshold])
@pytest.mark.parametrize("depth", [True, numpy.int64(2), 2.0, 0, 5], ids=repr)
def test_depth_must_be_an_int_in_range(make, depth):
    with pytest.raises(ValueError, match=f"^depth must be an integer.*got {re.escape(repr(depth))}$"):
        make(depth, 1.5)
