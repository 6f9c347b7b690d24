"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each criterion is a single test, so the pytest verdict column is the
pass/fail record.
"""

import math
import random
import string
import time

import mpmath as mp
import numpy as np
import pytest

from demorgan import walk
from demorgan.birthdeath import Fate, bdp_classify
from demorgan.convergence import Decision, adaptive_classify, extract_sn
from demorgan.errors import EvalError, ExpressionSyntaxError
from demorgan.expr import parse_expression
from demorgan.families import (
    ACCEPTANCE_CATALOG,
    alpha_const,
    bd_power,
    iterlog_power,
    log_power,
    make_series_family,
)
from demorgan.iterlog import min_domain, zeta_weight
from demorgan.walk import simulate

import oracle as hp
from oracle import catalog_truth, reconstruct_ratio


def _line(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")


def test_criterion_01_catalog_soundness():
    t0 = time.perf_counter()
    wrong, decisive = [], 0
    for name, params in ACCEPTANCE_CATALOG:
        fam = make_series_family(name, **params)
        verdict = adaptive_classify(fam.ratio_spec)
        if verdict.decision is Decision.INCONCLUSIVE:
            continue
        decisive += 1
        if verdict.decision.value != catalog_truth(name, params):
            wrong.append(((fam.name, fam.params), verdict.decision.value))
    elapsed = time.perf_counter() - t0
    ok = not wrong and decisive >= 10 and elapsed < 60.0
    _line(1, "catalog soundness", ok,
          f"{12 - len(wrong)}/12 correct-or-open, {decisive}/12 decisive, {elapsed:.2f}s")
    assert not wrong, wrong
    assert decisive >= 10
    assert elapsed < 60.0


def test_criterion_02_coefficient_limit_recovery():
    # Extended-precision extraction at n = 1e6 recovers the limit 2.0 for
    # the two quadratic-weight families, each at its decisive depth.
    n = 10**6
    results = []
    for fam, depth in ((log_power(2.0), 1), (iterlog_power(2, 2.0), 3)):
        def delta_mp(m, fam=fam):
            return fam.hp_term(m) / fam.hp_term(m + 1) - 1

        with mp.workdps(50):
            s = float(hp.extract_coefficient(depth, n, delta_mp))
        results.append(((fam.name, fam.params), depth, s))
    ok = all(abs(s - 2.0) <= 0.05 for _, _, s in results)
    _line(2, "coefficient limit recovery", ok,
          "; ".join(f"{which} depth {d}: s={s:.6f}" for which, d, s in results))
    for which, depth, s in results:
        assert abs(s - 2.0) <= 0.05, (which, depth, s)


def test_criterion_03_kummer_reduction():
    # |rho_n - (s_n - 1)| shrinks along the decade grid and ends below 0.02
    # for the depth-2 families, in extended precision.
    grid = (10**3, 10**4, 10**5, 10**6)
    worst_final = 0.0
    for fam in (log_power(1.0), iterlog_power(1, 0.5), iterlog_power(1, 2.0)):
        def ratio_mp(m, fam=fam):
            return fam.hp_term(m) / fam.hp_term(m + 1)

        def delta_mp(m, fam=fam):
            return fam.hp_term(m) / fam.hp_term(m + 1) - 1

        gaps = []
        for n in grid:
            with mp.workdps(40):
                rho = hp.kummer_rho_level(2, n, ratio_mp)
                s = hp.extract_coefficient(2, n, delta_mp)
                gaps.append(abs(float(rho - (s - 1))))
        assert all(b < a for a, b in zip(gaps, gaps[1:])), (fam.name, fam.params, gaps)
        assert gaps[-1] < 0.02, (fam.name, fam.params, gaps[-1])
        worst_final = max(worst_final, gaps[-1])
    _line(3, "kummer reduction", True, f"worst final gap {worst_final:.2e}")


def test_criterion_04_integral_tracking():
    # |sum_{n=A}^{N} 1/zeta_K(n) - (ln_(K+1) N - ln_(K+1) A)| < 1.0 at
    # N = 1e6 with A = min_domain(K), for K in {1, 2, 3}.
    #
    # At depth 2 this bound is not attainable from the smallest admissible
    # start: A = 3 gives a first reciprocal 1/zeta_2(3) = 3.2262, and the
    # settled difference measures 2.2999 (it would drop below 1.0 only if
    # the sum started at A + 1, or at any A >= 4).  The assertion is kept
    # at its stated strength rather than loosened, so the depth-2 case
    # fails and records that boundary honestly.
    results = {}
    for K in (1, 2, 3):
        A = min_domain(K)
        n = np.arange(A, 10**6 + 1, dtype=np.float64)
        factor = np.log(n)
        z = n * factor
        for _ in range(K - 1):
            factor = np.log(factor)
            z *= factor
        total = float(np.sum(1.0 / z))
        d = abs(total - (hp_iterlog_float(K + 1, 10**6) - hp_iterlog_float(K + 1, A)))
        results[K] = d
    ok = all(d < 1.0 for d in results.values())
    _line(4, "integral tracking", ok,
          ", ".join(f"K={K}: |D|={d:.4f}" for K, d in results.items()))
    for K, d in results.items():
        assert d < 1.0, (
            f"depth {K}: tracking difference {d:.4f} from A=min_domain({K})"
        )


def hp_iterlog_float(k: int, x: float) -> float:
    from demorgan.iterlog import iterlog

    return iterlog(k, x)


def test_criterion_05_expansion_residuals():
    # Increment-prediction residual under n**-1.9 for k <= 3 over a
    # geometric grid in [1e2, 1e6], in extended precision.
    worst = 0.0
    grid = sorted({int(round(10 ** (2 + 4 * i / 32))) for i in range(33)})
    for k in (1, 2, 3):
        lo = max(min_domain(k), 100)
        for n in grid:
            if n < lo:
                continue
            with mp.workdps(50):
                actual = hp.iterlog(k, n + 1) - hp.iterlog(k, n)
                residual = abs(actual - hp.expansion_increment(k, n))
                ratio = float(residual / mp.mpf(n) ** mp.mpf("-1.9"))
            assert ratio <= 1.0, (k, n, ratio)
            worst = max(worst, ratio)
    _line(5, "expansion residuals", True, f"worst residual/envelope = {worst:.3f}")


def test_criterion_06_birth_death_criterion():
    verdicts = {c: bdp_classify(bd_power(c).rates).decision for c in (2.0, 1.0, 0.5)}
    assert verdicts[2.0] is Fate.TRANSIENT
    assert verdicts[1.0] is Fate.RECURRENT
    assert verdicts[0.5] is Fate.RECURRENT
    # Partial-sum oracle for the convergent case: accumulate the rate
    # products directly and check the N=1e5 sum sits within 1% of N=1e6.
    total, term = 0.0, 1.0
    checkpoint = None
    for n in range(1, 10**6 + 1):
        term *= n / (n + 2.0)
        total += term
        if n == 10**5:
            checkpoint = total
    assert abs(checkpoint - total) <= 0.01 * total
    _line(6, "birth-death criterion", True,
          f"verdicts {{2: transient, 1: recurrent, 0.5: recurrent}}, "
          f"sum(1e5)/sum(1e6) = {checkpoint / total:.6f}")


def test_criterion_07_walk_thresholds():
    from demorgan.birthdeath import Fate
    from demorgan.walk import rw_classify

    expected = {0.4: Fate.TRANSIENT, 0.1: Fate.RECURRENT, 0.25: Fate.RECURRENT}
    got = {}
    for a, want in expected.items():
        result = rw_classify(alpha_const(a).drift)
        got[a] = result.decision
        assert result.decision is want, (a, result.decision)
        assert result.decision is not Fate.INCONCLUSIVE
    _line(7, "walk thresholds", True,
          ", ".join(f"alpha={a}: {d.value}" for a, d in got.items()))


SIM_SEED = 20260808


def test_criterion_08_simulation_corroboration(monkeypatch):
    recurrent = alpha_const(0.1).drift
    transient = alpha_const(0.4).drift
    rec_a = simulate(recurrent, seed=SIM_SEED, horizon=10**5, n_paths=10**4)
    rec_b = simulate(recurrent, seed=SIM_SEED, horizon=10**5, n_paths=10**4)
    # A different partition of the paths into blocks must not change the report:
    # three blocks of 3,334, 3,333 and 3,333 paths, one per thread.
    monkeypatch.setattr(walk, "_THREADS", 3)
    rec_c = simulate(recurrent, seed=SIM_SEED, horizon=10**5, n_paths=10**4)
    tra = simulate(transient, seed=SIM_SEED, horizon=10**5, n_paths=10**4)
    assert rec_a == rec_b == rec_c, "reports must be bit-identical across runs/schedules"
    assert rec_a.returned_fraction >= 0.95
    assert tra.returned_fraction <= 0.9
    assert tra.returned_fraction < rec_a.returned_fraction
    # Frozen counts pin the portable RNG contract.
    assert rec_a.returned_paths == 9765
    assert tra.returned_paths == 2411
    _line(8, "simulation corroboration", True,
          f"returned fractions: alpha=0.1 -> {rec_a.returned_fraction:.4f}, "
          f"alpha=0.4 -> {tra.returned_fraction:.4f}; bit-identical across schedules")


def test_criterion_09_reconstruction_round_trip():
    # Feeding the extracted coefficient back into the expansion reproduces
    # the ratio it came from within 8 ulps.  Both extraction routes are
    # exercised, each against the ratio representation it consumed: the raw
    # route against ratio(n), the delta route against 1 + delta(n).
    rng = random.Random(1905)
    families = [make_series_family(name, **params) for name, params in ACCEPTANCE_CATALOG]
    checked = 0
    worst = 0.0
    while checked < 10**4:
        fam = rng.choice(families)
        K = rng.randint(1, 4)
        spec = fam.ratio_spec
        lo = max(min_domain(K), spec.first_index)
        hi = 10**7
        n = int(round(lo * (hi / lo) ** rng.random()))
        n = min(max(n, lo), hi)

        raw = extract_sn(K, spec, n, use_delta=False)
        target = spec.ratio_at(n)
        ulps = abs(reconstruct_ratio(K, raw.value, n) - target) / math.ulp(target)
        worst = max(worst, ulps)
        assert ulps <= 8.0, ("raw", fam.name, fam.params, K, n, ulps)

        viadelta = extract_sn(K, spec, n)
        target_d = 1.0 + spec.delta(n)
        ulps_d = abs(reconstruct_ratio(K, viadelta.value, n) - target_d) / math.ulp(target_d)
        worst = max(worst, ulps_d)
        assert ulps_d <= 8.0, ("delta", fam.name, fam.params, K, n, ulps_d)
        checked += 1
    _line(9, "reconstruction round trip", True,
          f"{checked} triples, both routes, worst {worst:.2f} ulps")


def test_criterion_10_parser_robustness():
    pool = list("n()+-*/^,. 0123456789eE") + ["ln", "exp", "iterlog", "$", "@", "\\", "é"]
    rng = random.Random(424242)
    crashes = 0
    for _ in range(10**5):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 24)))
        try:
            f = parse_expression(text)
        except ExpressionSyntaxError:
            continue
        except Exception:
            crashes += 1
            continue
        try:
            f(13)
        except EvalError:
            pass
        except Exception:
            crashes += 1
    _line(10, "parser robustness", crashes == 0, f"100000 inputs, {crashes} crashes")
    assert crashes == 0
