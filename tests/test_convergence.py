"""Coefficient extraction, fixed-depth and adaptive verdicts, and the Kummer oracle."""

import gc
import math
import re
from collections import Counter
from dataclasses import replace

import mpmath as mp
import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demorgan import cli, convergence
from demorgan.birthdeath import recurrence_ratio
from demorgan.convergence import (
    ClassifyConfig,
    Decision,
    RatioSpec,
    SamplePoint,
    adaptive_classify,
    extended_bdm_test,
    extract_sn,
    sample_grid,
)
from demorgan.errors import DomainError, EvalError, InvalidWindow
from demorgan.expr import parse_expression
from demorgan.families import (
    ACCEPTANCE_CATALOG,
    RATE_FACTORIES,
    _term_ratio,
    geometric,
    iterlog_power,
    log_power,
    make_rate_family,
    make_series_family,
    p_series,
)
from demorgan.iterlog import INDEX_LIMIT, iterlog_product, min_domain, zeta_weight
from demorgan.tables import ratio_spec_from_rows
from demorgan.walk import DriftSpec, rw_to_bdp

import oracle as hp
from oracle import KummerWeight, kummer_rho, kummer_test, reconstruct_ratio


def harmonic_spec() -> RatioSpec:
    # a_n = 1/n with the exact delta 1/n.
    return RatioSpec(
        ratio=lambda n: (n + 1.0) / n,
        delta=lambda n: 1.0 / n,
        first_index=1,
    )


def inverse_square_spec() -> RatioSpec:
    return RatioSpec(
        ratio=lambda n: ((n + 1.0) / n) ** 2,
        delta=lambda n: (2.0 * n + 1.0) / (n * n),
        first_index=1,
    )


LINEAR_WEIGHT = KummerWeight(
    zeta=lambda n: float(n), reciprocal_sum_diverges=True, first_index=1
)
UNIT_WEIGHT = KummerWeight(
    zeta=lambda n: 1.0, reciprocal_sum_diverges=False, first_index=1
)


class TestKummerRho:
    def test_inverse_square_with_linear_weight(self):
        # rho_n = n((n+1)/n)^2 - (n+1) = (n+1)/n, so rho_10 = 1.1.
        rho = kummer_rho(LINEAR_WEIGHT, inverse_square_spec(), 10, use_delta=False)
        assert math.isclose(rho, 1.1, rel_tol=1e-12)

    def test_geometric_with_unit_weight(self):
        spec = RatioSpec(ratio=lambda n: 2.0, delta=lambda n: 1.0, first_index=1)
        for n in (1, 10, 1000):
            assert kummer_rho(UNIT_WEIGHT, spec, n) == 1.0

    def test_log_series_with_depth_two_weight(self):
        # a_n = 1/(n ln n): the statistic approaches the coefficient gap -1.
        fam = log_power(1.0)
        weight = KummerWeight.from_level(2)
        rho = kummer_rho(weight, fam.ratio_spec, 10**5)
        assert abs(rho - (-1.0)) < 0.05
        # Frozen from the 60-digit oracle: -1.00000543428.
        assert abs(rho - (-1.00000543428)) < 1e-4

    def test_domain_checks(self):
        weight = KummerWeight.from_level(2)
        with pytest.raises(DomainError):
            kummer_rho(weight, harmonic_spec(), 2)  # below weight domain


class TestKummerTest:
    def test_inverse_square_converges(self):
        v = kummer_test(LINEAR_WEIGHT, inverse_square_spec(), (10, 10_000), margin=0.1)
        assert v.decision is Decision.CONVERGES
        assert v.s_min > 0.1

    def test_constant_terms_inconclusive(self):
        spec = RatioSpec(ratio=lambda n: 1.0, delta=lambda n: 0.0, first_index=1)
        v = kummer_test(UNIT_WEIGHT, spec, (10, 10_000), margin=1e-6)
        assert v.decision is Decision.INCONCLUSIVE

    def test_harmonic_with_linear_weight_inconclusive(self):
        # rho collapses to 0 identically: Raabe cannot decide the harmonic
        # series at any positive margin.
        v = kummer_test(LINEAR_WEIGHT, harmonic_spec(), (10, 10_000), margin=0.05)
        assert v.decision is Decision.INCONCLUSIVE
        assert abs(v.s_min) < 1e-9 and abs(v.s_max) < 1e-9

    def test_divergence_needs_reciprocal_flag(self):
        # Same negative statistic; only the flagged weight may declare it.
        spec = RatioSpec(ratio=lambda n: 0.5, delta=lambda n: -0.5, first_index=1)
        flagged = kummer_test(UNIT_WEIGHT, spec, (10, 1000), margin=0.1)
        assert flagged.decision is Decision.INCONCLUSIVE
        ok = kummer_test(
            KummerWeight(zeta=lambda n: 1.0, reciprocal_sum_diverges=True),
            spec, (10, 1000), margin=0.1,
        )
        assert ok.decision is Decision.DIVERGES

    def test_invalid_window(self):
        with pytest.raises(InvalidWindow):
            kummer_test(LINEAR_WEIGHT, harmonic_spec(), (100, 100), margin=0.1)

    def test_margin_must_be_positive(self):
        for margin in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="margin"):
                kummer_test(LINEAR_WEIGHT, harmonic_spec(), (10, 100), margin=margin)
            with pytest.raises(ValueError, match="margin"):
                extended_bdm_test(1, p_series(2.0).ratio_spec, margin=margin)


class TestTailRules:
    """The rules that differ between the Kummer test and the depth test."""

    def test_one_tail_sample_decides_kummer_but_not_depth_test(self):
        # Four samples leave a one-sample tail: enough for Kummer, too few
        # for the depth test, which needs two.
        v = kummer_test(LINEAR_WEIGHT, inverse_square_spec(), (10, 10_000), margin=0.1,
                        samples=4)
        assert v.decision is Decision.CONVERGES and v.note == ""
        assert v.s_min == v.s_max
        v = extended_bdm_test(1, p_series(2.0).ratio_spec, (10, 10_000), margin=0.2,
                              samples=4)
        assert v.decision is Decision.INCONCLUSIVE
        assert v.note == "too few usable tail samples"
        assert v.s_min is None and v.s_max is None and v.dropped == 0

    def test_no_usable_samples_notes(self):
        spec = RatioSpec(ratio=lambda n: -1.0, first_index=1)
        v = kummer_test(LINEAR_WEIGHT, spec, (10, 1000), margin=0.1, samples=8)
        assert v.decision is Decision.INCONCLUSIVE
        assert v.note == "no usable tail samples"
        assert v.s_min is None and v.dropped == len(v.samples) == 8
        v = extended_bdm_test(1, spec, (10, 1000), margin=0.1, samples=8)
        assert v.decision is Decision.INCONCLUSIVE
        assert v.note == "too few usable tail samples"
        assert v.s_min is None and v.dropped == len(v.samples) == 8


ONE_PASS_SPECS = [
    harmonic_spec(),
    p_series(2.0).ratio_spec,
    log_power(1.1).ratio_spec,
    iterlog_power(1, 0.9).ratio_spec,
    iterlog_power(3, 2.0).ratio_spec,
]


def _per_level_sn(K, spec, n, use_delta):
    """s_n with one validated iterlog_product per level, then zeta_weight."""
    if use_delta and spec.delta is not None:
        d, exact = float(spec.delta(n)), True
    else:
        d, exact = spec.ratio_at(n) - 1.0, False
    t = d - 1.0 / n
    for i in range(1, K):
        t -= 1.0 / (float(n) * iterlog_product(i, n))
    return t * zeta_weight(K, n), (not exact) and abs(t) < 2.0**-26


class TestExtraction:
    def test_harmonic_cancels_exactly(self):
        for n in (2, 17, 10_000, 9_999_991):
            sample = extract_sn(1, harmonic_spec(), n)
            assert sample.value == 0.0
            assert sample.usable

    def test_log_power_two_at_depth_one(self):
        # Frozen oracle: 2.00000107238 at n = 1e6.
        s = extract_sn(1, log_power(2.0).ratio_spec, 10**6).value
        assert abs(s - 2.0) < 0.05
        assert abs(s - 2.00000107238) < 1e-6

    def test_log_series_at_depth_two(self):
        # Frozen oracle: 1.31289551961e-6 at n = 1e6.
        s = extract_sn(2, log_power(1.0).ratio_spec, 10**6).value
        assert abs(s) < 0.1
        assert abs(s - 1.31289551961e-6) < 1e-6

    def test_below_domain(self):
        with pytest.raises(DomainError):
            extract_sn(2, harmonic_spec(), 2)
        with pytest.raises(DomainError):
            extract_sn(1, log_power(1.0).ratio_spec, 1)  # below first_index

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_index_checks_at_every_depth(self, K):
        spec = harmonic_spec()
        capped = RatioSpec(ratio=spec.ratio, delta=spec.delta, last_index=10**7)
        for bad_spec, n in [
            (spec, min_domain(K) - 1),  # below the depth's domain
            (capped, 10**7 + 1),  # beyond last_index
            (spec, 10**7 + 0.5),  # not an integer
            (spec, INDEX_LIMIT),  # not exactly convertible to float
            (spec, 2**60),
        ]:
            with pytest.raises(DomainError):
                extract_sn(K, bad_spec, n)

    def test_source_is_called_before_the_index_check(self):
        n = 10**7 + 0.5
        failing = _CountingDelta(lambda m: 1 / m, fail_at=n)
        with pytest.raises(EvalError):
            extract_sn(1, RatioSpec(ratio=lambda m: 2.0, delta=failing), n)
        counted = _CountingDelta(lambda m: 1 / m)
        with pytest.raises(DomainError, match="^index must be an integer"):
            extract_sn(1, RatioSpec(ratio=lambda m: 2.0, delta=counted), n)
        assert failing.calls == counted.calls == {n: 1}

    def test_extract_sn_leaves_the_module_caches_alone(self):
        cached = [name for name, obj in vars(convergence).items() if hasattr(obj, "cache_info")]
        assert cached == ["_geometric_grid"]
        before = convergence._geometric_grid.cache_info().currsize
        spec = p_series(2.0).ratio_spec
        for n in range(10**6 + 1, 10**6 + 201):
            extract_sn(1, spec, n)
        assert convergence._geometric_grid.cache_info().currsize == before

    @given(
        K=st.integers(1, 4),
        spec=st.sampled_from(ONE_PASS_SPECS),
        use_delta=st.booleans(),
        u=st.floats(0.0, 1.0),
    )
    @settings(max_examples=400)
    def test_one_pass_matches_per_level_formula(self, K, spec, use_delta, u):
        lo = max(spec.first_index, min_domain(K))
        n = min(int(lo * (INDEX_LIMIT / lo) ** u), INDEX_LIMIT - 1)
        sample = extract_sn(K, spec, n, use_delta)
        s, warned = _per_level_sn(K, spec, n, use_delta)
        assert sample.value.hex() == s.hex()
        assert (not sample.usable) == warned

    def test_precision_warning_without_delta(self):
        # Raw ratio equal to the depth-2 boundary shape: the depth-2 bracket
        # is O(1/n^2), far below the cancellation floor at n = 1e7.
        raw = RatioSpec(
            ratio=lambda n: 1.0 + 1.0 / n + 1.0 / (n * math.log(n)),
            first_index=2,
        )
        warned = extract_sn(2, raw, 10**7)
        assert not warned.usable
        with_delta = RatioSpec(
            ratio=lambda n: 1.0 + 1.0 / n + 1.0 / (n * math.log(n)),
            delta=lambda n: 1.0 / n + 1.0 / (n * math.log(n)),
            first_index=2,
        )
        assert extract_sn(2, with_delta, 10**7).usable

    def test_extraction_matches_extended_precision(self):
        # Float-path extraction with a delta form stays within 1e-6 of the
        # 50-digit computation across depths and the catalog families.
        cases = [
            (1, log_power(2.0)),
            (2, iterlog_power(1, 2.0)),
            (3, iterlog_power(2, 0.5)),
        ]
        for K, fam in cases:
            n = 10**6
            s_float = extract_sn(K, fam.ratio_spec, n).value

            def delta_mp(m, fam=fam):
                return fam.hp_term(m) / fam.hp_term(m + 1) - 1

            s_hp = hp.extract_coefficient(K, n, delta_mp)
            assert abs(s_float - float(s_hp)) < 1e-6, (K, fam.name, fam.params)


class TestRoundTrip:
    @given(
        case=st.sampled_from([
            ("p-series", {"p": 0.5}), ("p-series", {"p": 2.0}),
            ("log-power", {"r": 0.5}), ("log-power", {"r": 2.0}),
            ("iterlog-power", {"K": 1, "r": 2.0}), ("geometric", {"x": 0.5}),
        ]),
        K=st.integers(min_value=1, max_value=4),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_reconstruction_within_8_ulps(self, case, K, u):
        # Each extraction route inverts against the ratio representation it
        # consumed: raw extraction against ratio(n), delta extraction
        # against 1 + delta(n).
        fam = make_series_family(case[0], **case[1])
        spec = fam.ratio_spec
        lo = max(min_domain(K), spec.first_index)
        hi = 10**7
        n = int(round(lo * (hi / lo) ** u))
        n = min(max(n, lo), hi)
        raw = extract_sn(K, spec, n, use_delta=False)
        target = spec.ratio_at(n)
        assert abs(reconstruct_ratio(K, raw.value, n) - target) <= 8 * math.ulp(target), (
            fam.name, fam.params, K, n,
        )
        viadelta = extract_sn(K, spec, n)
        target_d = 1.0 + spec.delta(n)
        assert abs(reconstruct_ratio(K, viadelta.value, n) - target_d) <= 8 * math.ulp(target_d), (
            fam.name, fam.params, K, n,
        )


class TestExtendedTest:
    def test_inverse_square_converges_depth_one(self):
        v = extended_bdm_test(1, p_series(2.0).ratio_spec, (10, 100_000), margin=0.5)
        assert v.decision is Decision.CONVERGES

    def test_harmonic_diverges_depth_one(self):
        v = extended_bdm_test(1, harmonic_spec(), (10, 100_000), margin=0.5)
        assert v.decision is Decision.DIVERGES
        assert v.s_max == 0.0

    def test_deep_log_family_at_depth_two(self):
        # a_n = 1/(n ln n (lnln n)^2): coefficient tends to 2 at depth 2.
        v = extended_bdm_test(
            2, iterlog_power(1, 2.0).ratio_spec, (10_000, 10_000_000), margin=0.3
        )
        assert v.decision is Decision.CONVERGES
        assert abs(v.s_min - 2.0) < 0.1

    def test_verdict_margin_invariants(self):
        for fam in (p_series(2.0), p_series(0.5), log_power(2.0)):
            v = extended_bdm_test(1, fam.ratio_spec, margin=0.2)
            if v.decision is Decision.CONVERGES:
                assert v.s_min > 1.2
            elif v.decision is Decision.DIVERGES:
                assert v.s_max < 0.8

    def test_window_below_domain_collapses(self):
        with pytest.raises(InvalidWindow):
            extended_bdm_test(4, harmonic_spec(), (100, 1000), margin=0.2)

    def test_nan_from_an_exact_delta_is_dropped(self):
        bad = 6938568
        spec = RatioSpec(ratio=lambda n: 1 + 2 / n,
                         delta=lambda n: math.nan if n == bad else 2 / n)
        v = extended_bdm_test(1, spec)
        assert _points(p for p in v.samples if p.n == bad) == [(bad, math.nan.hex(), False)]
        assert v.dropped == 1 and v.usable == len(v.samples) - 1
        assert v.decision is Decision.CONVERGES and not math.isnan(v.s_min)
        assert extract_sn(1, spec, bad).usable is False

    def test_infinite_coefficient_stays_usable(self):
        spec = RatioSpec(ratio=lambda n: 1 + 2 / n,
                         delta=lambda n: math.inf if n == 10**7 else 2 / n)
        v = extended_bdm_test(1, spec)
        assert v.samples[-1] == (10**7, math.inf, True)
        assert v.dropped == 0 and v.s_max == math.inf

    @pytest.mark.parametrize("margin", [0.0, -1.0, math.nan, math.inf])
    def test_margin_rule_is_checked_before_sampling(self, margin):
        counted = _CountingDelta(lambda n: 2 / n)
        message = rf"^margin must be finite and positive, got {margin}$"
        with pytest.raises(ValueError, match=message):
            extended_bdm_test(1, RatioSpec(ratio=lambda n: 1 + 2 / n, delta=counted),
                              margin=margin)
        with pytest.raises(ValueError, match=message):
            ClassifyConfig(margin=margin)
        assert counted.calls == {}

    @pytest.mark.parametrize("field,kwargs,value", [
        ("samples", {"samples": 10.0}, 10.0), ("samples", {"samples": True}, True),
        ("window end", {"window": (100.5, 10**7)}, 100.5),
        ("window end", {"window": (100, 1e7)}, 1e7),
        ("window end", {"window": (numpy.int64(100), 10**7)}, numpy.int64(100)),
    ])
    def test_non_integer_window_or_samples_rejected(self, field, kwargs, value):
        counted = _CountingDelta(lambda n: 2 / n)
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            extended_bdm_test(1, RatioSpec(ratio=lambda n: 1 + 2 / n, delta=counted), **kwargs)
        assert counted.calls == {}


class TestRatioSpec:
    @pytest.mark.parametrize("bad", [1.5, True, numpy.int64(5), "5"])
    def test_non_integer_index_rejected(self, bad, tmp_path):
        message = re.escape(f" must be an integer, got {bad!r}") + "$"
        for field, value in (("first_index", bad), ("last_index", bad), ("support", (2, bad))):
            with pytest.raises(ValueError, match=f"^{field}.*{message}"):
                RatioSpec(ratio=lambda n: 2.0, **{field: value})
        # Every source the package builds passes the rule.
        for name, params in ACCEPTANCE_CATALOG:
            make_series_family(name, **params)
        for name in RATE_FACTORIES:
            for depth in (1, 4) if name == "bd-iterlog" else (None,):
                recurrence_ratio(make_rate_family(name, c=2.0, K=depth).rates)
        recurrence_ratio(rw_to_bdp(DriftSpec(alpha=lambda n: 0.3, C=0.5)))
        for kind in ("terms", "ratios"):
            ratio_spec_from_rows([(n, 1.0 / n**2) for n in range(3, 40)], kind)
        table = tmp_path / "table.txt"
        table.write_text("".join(f"{n} {1.0 / n**2!r}\n" for n in range(3, 40)))
        parser = cli.build_parser()
        for argv in (["--a-n", "1/n^2"], ["--a-n", "1/n^2", "--first-index", "5"],
                     ["--delta-n", "2/n"], ["--table", str(table)]):
            spec, _ = cli._series_source(parser.parse_args(["classify-series", *argv]))
            assert type(spec.first_index) is int
        rates, _ = cli._rates_source(parser.parse_args(["classify-bdp", "--lambda", "1 + 2/n",
                                                        "--mu", "1"]))
        recurrence_ratio(rates)


class TestAdaptive:
    def test_log_series_escalates_to_depth_two(self):
        v = adaptive_classify(log_power(1.0).ratio_spec)
        assert v.decision is Decision.DIVERGES
        assert v.level == 2
        assert len(v.trace) == 2
        assert v.trace[0].decision is Decision.INCONCLUSIVE

    def test_double_log_series_decides_at_depth_three(self):
        # a_n = 1/(n ln n lnln n): depths 1 and 2 cannot settle it.
        v = adaptive_classify(iterlog_power(1, 1.0).ratio_spec)
        assert v.decision is Decision.DIVERGES
        assert v.level == 3

    def test_inverse_square_no_escalation(self):
        v = adaptive_classify(p_series(2.0).ratio_spec)
        assert v.decision is Decision.CONVERGES
        assert v.level == 1
        assert len(v.trace) == 1

    def test_decaying_margin_is_not_trusted(self):
        # a_n = 1/(n ln n lnln n sqrt(lnlnln n)) diverges, yet its depth-1
        # tail sits comfortably above 1 + margin; the growth guard must force
        # escalation instead of accepting the fake margin.
        fam = iterlog_power(2, 0.5)
        v = adaptive_classify(fam.ratio_spec)
        assert v.decision is Decision.DIVERGES
        assert v.level == 3
        assert any(r.guard is not None and not r.guard.passed for r in v.trace)

    def test_guard_can_be_disabled(self):
        fam = iterlog_power(2, 0.5)
        v = adaptive_classify(fam.ratio_spec, ClassifyConfig(guard=False))
        # Without the guard the depth-1 margin is taken at face value; this
        # documents why the guard is on by default.
        assert v.decision is Decision.CONVERGES

    def test_k_start_above_one(self):
        v = adaptive_classify(log_power(1.0).ratio_spec, ClassifyConfig(k_start=2))
        assert v.decision is Decision.DIVERGES
        assert v.level == 2
        assert len(v.trace) == 1

    def test_determinism(self):
        config = ClassifyConfig()
        a = adaptive_classify(iterlog_power(2, 2.0).ratio_spec, config)
        b = adaptive_classify(iterlog_power(2, 2.0).ratio_spec, config)
        assert a == b

    @pytest.mark.parametrize("field,value", [
        ("near_one_band", -1.0), ("near_one_band", math.nan),
        ("guard_threshold", 0.0), ("guard_threshold", -3.0), ("guard_threshold", 1.5),
        ("guard_threshold", math.nan), ("window_hi", 50),
        ("margin", 0.0), ("margin", math.nan), ("margin", math.inf),
    ])
    def test_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClassifyConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("k_start", 1.5), ("k_start", True), ("k_max", 3.0), ("window_lo", 100.5),
        ("window_hi", 1e7), ("samples", 10.0), ("samples", False), ("samples", "64"),
    ])
    def test_config_rejects_non_integer_counts(self, field, value):
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClassifyConfig(**{field: value})

    @pytest.mark.parametrize("tail_fraction", [math.nan, math.inf, 0.0, -1.0, 5.0])
    def test_tail_fraction_must_be_in_unit_interval(self, tail_fraction):
        message = r"^tail_fraction must be in \(0, 1\]$"
        with pytest.raises(ValueError, match=message):
            extended_bdm_test(1, p_series(2.0).ratio_spec, tail_fraction=tail_fraction)
        with pytest.raises(ValueError, match=message):
            ClassifyConfig(tail_fraction=tail_fraction)

    def test_inconclusive_out_of_band_stops(self):
        # Oscillating tabulated ratios: tail straddles the critical value far
        # outside the near-one band, so no escalation and no verdict.
        def ratio(n):
            return 1.0 + (2.0 if n % 2 == 0 else 0.25) / n

        spec = RatioSpec(ratio=ratio, first_index=2)
        v = adaptive_classify(spec, ClassifyConfig(window_hi=10_000))
        assert v.decision is Decision.INCONCLUSIVE
        assert v.level == 1


class TestAdaptiveExits:
    """The note and trace of every way the adaptive walk stops undecided."""

    def test_band_escalation_with_no_depth_left(self):
        v = adaptive_classify(log_power(1.0).ratio_spec, ClassifyConfig(k_max=1))
        assert v.decision is Decision.INCONCLUSIVE
        assert v.level == 1
        assert v.note == "stopped at depth 1 (tail hovers near the critical value, no depth left)"
        assert [r.escalated for r in v.trace] == ["tail hovers near the critical value"]

    def test_failed_guard_with_no_depth_left(self):
        v = adaptive_classify(iterlog_power(2, 0.5).ratio_spec, ClassifyConfig(k_max=2))
        assert v.decision is Decision.INCONCLUSIVE
        assert v.level == 2
        assert v.note == "decisive at depth 2 but next-level growth check failed"
        assert [(r.level, r.decision) for r in v.trace] == [
            (1, Decision.CONVERGES), (2, Decision.CONVERGES)]
        assert [r.guard.passed for r in v.trace] == [False, False]
        assert all(r.escalated == "next-level growth check failed" for r in v.trace)

    def test_next_depth_without_a_window(self):
        v = adaptive_classify(iterlog_power(2, 1.0).ratio_spec,
                              ClassifyConfig(window_hi=1_000_000))
        assert v.decision is Decision.INCONCLUSIVE
        assert v.level == 3
        assert len(v.trace) == 3
        assert v.trace[-1].escalated == "tail hovers near the critical value"
        assert v.note == ("depth 4 not reachable: no admissible window at depth 4: "
                          "need indices above 3814280, have up to 1000000")

    def test_first_depth_without_a_window(self):
        v = adaptive_classify(RatioSpec(ratio=lambda n: 1.0 + 2.0 / n, last_index=50))
        assert v.decision is Decision.INCONCLUSIVE
        assert v.level == 1
        assert v.trace == ()
        assert v.samples == ()
        assert v.note == ("depth 1 not reachable: no admissible window at depth 1: "
                          "need indices above 100, have up to 50")


class TestEscalationConsistency:
    def test_convergent_family_grows_at_next_depth(self):
        spec = p_series(2.0).ratio_spec
        v = extended_bdm_test(1, spec, margin=0.2)
        assert v.decision is Decision.CONVERGES
        tail = [p for p in v.samples if p.usable and p.n >= min_domain(2)][-8:]
        values = [extract_sn(2, spec, p.n).value for p in tail]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_divergent_family_falls_at_next_depth(self):
        spec = harmonic_spec()
        v = extended_bdm_test(1, spec, margin=0.2)
        assert v.decision is Decision.DIVERGES
        tail = [p for p in v.samples if p.usable and p.n >= min_domain(2)][-8:]
        values = [extract_sn(2, spec, p.n).value for p in tail]
        assert all(b < a for a, b in zip(values, values[1:]))


def _table_spec() -> RatioSpec:
    """Terms 1/n^1.5 tabulated in (n, n+1) pairs at 40 indices up to 10^7."""
    starts = {int(2 * 5e6 ** (k / 39)) for k in range(40)}
    rows = sorted({(m, m ** -1.5) for n in starts for m in (n, n + 1)})
    return ratio_spec_from_rows(rows, "terms")


def _delta_expression_spec(text: str, first_index: int) -> RatioSpec:
    delta = parse_expression(text)
    return RatioSpec(ratio=lambda n: 1.0 + delta(n), delta=delta, first_index=first_index)


SAMPLER_SPECS = [
    p_series(2.0).ratio_spec,
    log_power(1.1).ratio_spec,
    iterlog_power(1, 1.0).ratio_spec,
    iterlog_power(3, 0.5).ratio_spec,
    geometric(0.5).ratio_spec,
    RatioSpec(ratio=_term_ratio(parse_expression("1/(n*ln(n)^1.5)")), first_index=2),
    _delta_expression_spec("1/n + 1/(n*ln(n)) + 0.9/(n*ln(n)*iterlog(2,n))", 16),
    _table_spec(),
]


def _points(samples):
    return [(p.n, p.value.hex(), p.usable) for p in samples]


def _extracted(K, spec, n, use_delta):
    """The SamplePoint a fixed-depth test must record at n."""
    try:
        sample = extract_sn(K, spec, n, use_delta)
    except (DomainError, EvalError, ArithmeticError):
        return n, math.nan.hex(), False
    return n, sample.value.hex(), sample.usable


def _calls_per_distinct_grid(trace):
    """The source calls per index a trace costs: one per index of each new grid."""
    grids = [tuple(p.n for p in r.samples) for r in trace]
    return Counter(n for i, g in enumerate(grids) if not i or g != grids[i - 1] for n in g)


class _CountingDelta:
    """A source that counts its calls per index and raises ``error`` at ``fail_at``."""

    def __init__(self, delta, fail_at=None, error=EvalError):
        self.delta, self.fail_at, self.error, self.calls = delta, fail_at, error, {}

    def __call__(self, n):
        self.calls[n] = self.calls.get(n, 0) + 1
        if n == self.fail_at:
            raise self.error(f"no value at n={n}")
        return self.delta(n)


def _per_level_point(K, spec, n, use_delta):
    """The SamplePoint at n by the per-level formula, (n, nan, False) where it raises."""
    try:
        s, warned = _per_level_sn(K, spec, n, use_delta)
    except (DomainError, EvalError, ArithmeticError):
        return n, math.nan.hex(), False
    return n, s.hex(), not warned


# The default window; one whose depth 4 meets indices that depths 1-3 did not
# sample (min_domain(4) = 3,814,280); and one reaching past 2**53.
SAMPLER_WINDOWS = [(100, 10**7), (10**6, 2 * 10**7), (100, 10**19)]


class TestSampler:
    """One source call per index of each sampled grid, with s_n as extract_sn gives it."""

    @given(K=st.integers(1, 4), spec=st.sampled_from(SAMPLER_SPECS), use_delta=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_fixed_depth_samples_are_extract_sn(self, K, spec, use_delta):
        v = extended_bdm_test(K, spec, use_delta=use_delta)
        assert _points(v.samples) == [_extracted(K, spec, p.n, use_delta) for p in v.samples]

    @given(spec=st.sampled_from(SAMPLER_SPECS), use_delta=st.booleans(),
           window_lo=st.sampled_from([4, 100, 10**4]))
    @settings(max_examples=60, deadline=None)
    def test_adaptive_verdict_samples_are_the_fixed_depth_test(self, spec, use_delta, window_lo):
        config = ClassifyConfig(use_delta=use_delta, window_lo=window_lo)
        v = adaptive_classify(spec, config)
        fixed = extended_bdm_test(v.level, spec, (config.window_lo, config.window_hi),
                                  config.margin, config.samples, config.tail_fraction,
                                  use_delta)
        assert _points(v.samples) == _points(fixed.samples)
        # Each trace entry is the fixed-depth test at its depth.
        for r in v.trace:
            fixed = extended_bdm_test(r.level, spec, (config.window_lo, config.window_hi),
                                      config.margin, config.samples, config.tail_fraction,
                                      use_delta)
            assert _points(r.samples) == _points(fixed.samples)
            assert (r.decision, r.window, r.s_min, r.s_max, r.usable, r.dropped) == (
                fixed.decision, fixed.window, fixed.s_min, fixed.s_max, fixed.usable,
                fixed.dropped)
            assert r.usable + r.dropped == len(r.samples)
        if v.trace and v.trace[-1].escalated == "":
            assert v.guard is v.trace[-1].guard

    @given(spec=st.sampled_from(SAMPLER_SPECS), use_delta=st.booleans(),
           window=st.sampled_from(SAMPLER_WINDOWS), k_start=st.integers(1, 4),
           fail=st.one_of(st.none(), st.floats(0.0, 1.0)))
    @example(spec=iterlog_power(2, 1.0).ratio_spec, use_delta=True, window=SAMPLER_WINDOWS[1],
             k_start=1, fail=0.0)
    @example(spec=SAMPLER_SPECS[-1], use_delta=False, window=SAMPLER_WINDOWS[0], k_start=1,
             fail=0.5)
    @example(spec=SAMPLER_SPECS[0], use_delta=False, window=SAMPLER_WINDOWS[2], k_start=1,
             fail=None)
    @settings(max_examples=60, deadline=None)
    def test_trace_samples_match_per_level_formula(self, spec, use_delta, window, k_start,
                                                   fail):
        # Every trace entry's samples, bit for bit, against the per-level
        # formula; the source is called once per index of each distinct grid
        # the trace samples, and an index whose source raised is unusable at
        # every depth.
        config = ClassifyConfig(k_start=k_start, use_delta=use_delta, window_lo=window[0],
                                window_hi=window[1])
        route = "delta" if use_delta and spec.delta is not None else "ratio"
        fail_at = None
        if fail is not None:
            first = adaptive_classify(spec, config).trace[:1]
            indices = [p.n for r in first for p in r.samples]
            fail_at = indices[round(fail * (len(indices) - 1))] if indices else None
        counted = _CountingDelta(getattr(spec, route), fail_at, DomainError)
        v = adaptive_classify(replace(spec, **{route: counted}), config)
        for r in v.trace:
            expected = [(p.n, math.nan.hex(), False) if p.n == fail_at
                        else _per_level_point(r.level, spec, p.n, use_delta) for p in r.samples]
            assert _points(r.samples) == expected, r.level
        assert counted.calls == _calls_per_distinct_grid(v.trace)

    def test_source_called_once_per_distinct_index(self):
        # Depths 1 and 2 share the grid over [4, 10^7]; depth 3 starts at
        # min_domain(3) = 16 and samples a new one afresh.
        spec = iterlog_power(1, 1.0).ratio_spec
        counted = _CountingDelta(spec.delta)
        config = ClassifyConfig(window_lo=4)
        v = adaptive_classify(RatioSpec(ratio=spec.ratio, delta=counted,
                                        first_index=spec.first_index), config)
        assert [r.level for r in v.trace] == [1, 2, 3]
        grids = [sample_grid(*r.window, config.samples) for r in v.trace]
        assert grids[0] == grids[1] != grids[2]
        assert counted.calls == Counter(grids[0] + grids[2])
        assert set(counted.calls.values()) == {1, 2}

    def test_default_window_changes_grid_only_at_depth_4(self):
        # Depths 1-3 share the default window's grid; depth 4's window is
        # clipped at min_domain(4) = 3,814,280 and shares only 10^7 with it.
        spec = p_series(2.0).ratio_spec
        grids = [tuple(p.n for p in extended_bdm_test(K, spec).samples) for K in (1, 2, 3, 4)]
        assert grids[0] == grids[1] == grids[2]
        assert grids[3][0] == min_domain(4) == 3_814_280
        assert set(grids[3]) & set(grids[0]) == {10**7}

    def test_failing_index_is_called_once_and_unusable_at_every_depth(self):
        spec = iterlog_power(1, 1.0).ratio_spec
        bad = sample_grid(100, 10**7)[-3]
        counted = _CountingDelta(spec.delta, fail_at=bad)
        failing = RatioSpec(ratio=spec.ratio, delta=counted, first_index=spec.first_index)
        v = adaptive_classify(failing)
        assert [r.level for r in v.trace] == [1, 2, 3]
        assert [r.dropped for r in v.trace] == [1, 1, 1]
        assert counted.calls[bad] == 1
        assert [p for p in v.samples if p.n == bad][0].usable is False
        for K in (1, 2, 3):
            point = [p for p in extended_bdm_test(K, failing).samples if p.n == bad][0]
            assert not point.usable and math.isnan(point.value)

    def test_failing_source_leaves_no_reference_cycle(self):
        spec = iterlog_power(1, 1.0).ratio_spec
        failing = RatioSpec(ratio=spec.ratio, first_index=spec.first_index,
                            delta=_CountingDelta(spec.delta, fail_at=sample_grid(100, 10**7)[-3]))
        gc.collect()
        gc.disable()
        try:
            adaptive_classify(failing)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_other_exceptions_propagate(self):
        def delta(n):
            raise KeyError(n)

        with pytest.raises(KeyError):
            adaptive_classify(RatioSpec(ratio=lambda n: 2.0, delta=delta))

    @pytest.mark.parametrize("error", [DomainError, EvalError, ZeroDivisionError])
    @pytest.mark.parametrize("where", [0, 31, 63])
    @pytest.mark.parametrize("use_delta", [True, False])
    def test_sampling_resumes_after_a_caught_error(self, error, where, use_delta):
        # The source raises at the first, a middle or the last grid index:
        # every other index is still called once and sampled by the
        # per-level formula, and nothing keeps the error alive.
        spec = iterlog_power(1, 1.0).ratio_spec
        route = "delta" if use_delta else "ratio"
        bad = sample_grid(100, 10**7)[where]
        counted = _CountingDelta(getattr(spec, route), bad, error)
        failing = replace(spec, **{route: counted})
        gc.collect()
        gc.disable()
        try:
            v = adaptive_classify(failing, ClassifyConfig(use_delta=use_delta))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert [r.level for r in v.trace] == [1, 2, 3]
        sampled = {p.n for r in v.trace for p in r.samples}
        assert counted.calls == dict.fromkeys(sampled, 1)
        for r in v.trace:
            assert r.dropped >= 1
            assert _points(r.samples) == [
                (p.n, math.nan.hex(), False) if p.n == bad
                else _per_level_point(r.level, spec, p.n, use_delta) for p in r.samples]

    def test_errors_at_every_index_leave_every_sample_unusable(self):
        calls = []

        def delta(n):
            calls.append(n)
            raise EvalError(f"no value at n={n}")

        v = extended_bdm_test(1, RatioSpec(ratio=lambda n: 2.0, delta=delta))
        assert v.usable == 0 and v.dropped == len(v.samples) == 64
        assert all(math.isnan(p.value) and not p.usable for p in v.samples)
        assert calls == [p.n for p in v.samples]

    def test_error_outside_the_caught_ones_propagates_mid_grid(self):
        spec = iterlog_power(1, 1.0).ratio_spec
        grid = sample_grid(100, 10**7)
        counted = _CountingDelta(spec.delta, grid[31], KeyError)
        with pytest.raises(KeyError):
            adaptive_classify(replace(spec, delta=counted))
        assert list(counted.calls) == list(grid[:32])


class TestKummerReduction:
    @pytest.mark.parametrize("fam,limit", [
        (log_power(1.0), 0.0),
        (iterlog_power(1, 0.5), 0.5),
        (iterlog_power(1, 2.0), 2.0),
    ])
    def test_rho_approaches_coefficient_gap(self, fam, limit):
        # |rho_n - (s_n - 1)| -> 0 along a decade grid, in extended
        # precision; the statistic and the extracted coefficient agree in
        # the limit.
        def delta_mp(m):
            return fam.hp_term(m) / fam.hp_term(m + 1) - 1

        def ratio_mp(m):
            return fam.hp_term(m) / fam.hp_term(m + 1)

        gaps = []
        for n in (10**3, 10**4, 10**5, 10**6):
            with mp.workdps(40):
                rho = hp.kummer_rho_level(2, n, ratio_mp)
                s = hp.extract_coefficient(2, n, delta_mp)
                gaps.append(abs(float(rho - (s - 1))))
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 0.02
        # And the coefficient itself heads to its analytic limit.
        with mp.workdps(40):
            assert abs(float(hp.extract_coefficient(2, 10**6, delta_mp)) - limit) < 0.05

    def test_float_rho_tracks_extracted_coefficient(self):
        # With the depth-K weight, rho^(K)_n = s^(K)_n - 1 - (zeta(n+1) -
        # zeta(n) - zeta'(n)), whatever the family: the two formulas agree to
        # about zeta''(n)/2, under 2K/n here (1.7e-4 at n = 10^4 and 2e-6 at
        # 10^6 at depth 2).
        for name, params in ACCEPTANCE_CATALOG:
            spec = make_series_family(name, **params).ratio_spec
            for K in (1, 2, 3, 4):
                weight = KummerWeight.from_level(K)
                for n in (10**4, 10**5, 10**6, 10**7):
                    if n < max(min_domain(K), spec.first_index):
                        continue
                    gap = kummer_rho(weight, spec, n) - (extract_sn(K, spec, n).value - 1.0)
                    assert abs(gap) <= 2 * K / n, (name, params, K, n, gap)


class TestSamplePoint:
    def test_fields_repr_and_tuple_equality(self):
        p = SamplePoint(100, 1.5, True)
        assert SamplePoint._fields == ("n", "value", "usable")
        assert repr(p) == "SamplePoint(n=100, value=1.5, usable=True)"
        assert (p.n, p.value, p.usable) == p == (100, 1.5, True)
        assert type(extract_sn(1, p_series(2.0).ratio_spec, 100)) is SamplePoint


class TestSampleGrid:
    def test_grid_bounds_and_order(self):
        g = sample_grid(100, 10_000_000, 64)
        assert g[0] == 100 and g[-1] == 10_000_000
        assert list(g) == sorted(set(g))

    def test_support_passthrough(self):
        g = sample_grid(5, 50, 64, support=tuple(range(1, 100, 7)))
        assert all(5 <= n <= 50 for n in g)
        assert set(g) == {8, 15, 22, 29, 36, 43, 50}

    def test_support_thinning(self):
        g = sample_grid(1, 100_000, 10, support=tuple(range(1, 100_001)))
        assert len(g) == 10
        assert g[0] == 1 and g[-1] == 100_000

    def test_support_sorted_and_deduplicated(self):
        assert sample_grid(5, 50, 64, support=(43, 8, 22, 8, 50, 15, 22, 100, 1)) == (
            8, 15, 22, 43, 50)
        assert sample_grid(400, 1000, 64, support=(500, 500, 600, 700, 700)) == (500, 600, 700)
        support = tuple(range(10**6, 10**4, -1000))
        assert sample_grid(100, 10**7, 64, support=support) == sample_grid(
            100, 10**7, 64, support=support[::-1])

    def test_descending_support_decides_on_the_largest_indices(self):
        support = tuple(range(10**6, 10**4, -1000))
        spec = RatioSpec(ratio=lambda n: 1.0 + 2.0 / n, first_index=2, support=support)
        v = extended_bdm_test(1, spec, (100, 10**7))
        ascending = extended_bdm_test(1, replace(spec, support=support[::-1]), (100, 10**7))
        assert [p.n for p in v.samples] == sorted(p.n for p in v.samples)
        assert v.samples[-1].n == 10**6
        assert (v.decision, v.s_min, v.s_max) == (
            ascending.decision, ascending.s_min, ascending.s_max)

    def test_duplicate_support_index_sampled_once(self):
        spec = p_series(2.0).ratio_spec
        counted = _CountingDelta(spec.delta)
        support = (500, 500, 600, 600, 700, 800, 900, 1000)
        v = extended_bdm_test(1, replace(spec, delta=counted, support=support), (100, 10**7))
        assert [p.n for p in v.samples] == [500, 600, 700, 800, 900, 1000]
        assert set(counted.calls.values()) == {1}

    def test_support_as_list(self):
        support = list(range(1, 100, 7))
        assert sample_grid(5, 50, 64, support=support) == sample_grid(
            5, 50, 64, support=tuple(support))

    def test_empty_window(self):
        for _ in range(2):
            with pytest.raises(InvalidWindow):
                sample_grid(10, 10, 8)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_samples_rejected(self, count):
        message = f"^need at least 2 samples, got {count}$"
        for support in (None, (2, 3, 4)):
            with pytest.raises(ValueError, match=message):
                sample_grid(1, 10, count, support=support)
        with pytest.raises(ValueError, match=message):
            sample_grid(100, 1000, count)
        # Checked before the window, which is empty here.
        with pytest.raises(ValueError, match=message):
            sample_grid(10, 10, count)
        spec = p_series(2.0).ratio_spec
        with pytest.raises(ValueError, match=message):
            extended_bdm_test(1, spec, samples=count)
        with pytest.raises(ValueError, match=message):
            kummer_test(LINEAR_WEIGHT, spec, (10, 1000), margin=0.1, samples=count)
