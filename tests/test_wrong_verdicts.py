"""Wrong-verdict ratchet over the full parameter ranges of the catalog and shapes.

Every series, rate and walk family and every expression shape is classified
on a fixed grid that crosses its threshold: series exponents 0.3-3 in steps
of 0.01, rate coefficients 0-3 in steps of 0.01, drifts 0.05-0.45 in steps
of 0.002 and geometric x 0.5-1.5 in steps of 0.01.  Each truth comes from
the analytic threshold, never from the program's own ``truth`` fields.  A
decisive verdict against the truth is wrong; an inconclusive one never is.

``tests/wrong_verdicts.json`` holds the keys that are wrong today.  The test
fails when any other key comes out wrong, and when a stored key is no longer
wrong: a change that mends a verdict removes its key (``tests/ratchet.py``).
Run ``PYTHONPATH=src python tests/test_wrong_verdicts.py`` to drop the mended
keys from the file; it never adds one.
"""

from pathlib import Path

import ratchet
from demorgan import families
from demorgan.birthdeath import BirthDeathRates, bdp_classify
from demorgan.convergence import RatioSpec, adaptive_classify
from demorgan.expr import parse_expression
from demorgan.walk import DriftSpec, rw_classify

WRONG_PATH = Path(__file__).with_name("wrong_verdicts.json")


def _grid(lo: float, hi: float, step: float) -> list[float]:
    return [round(lo + i * step, 3) for i in range(round((hi - lo) / step) + 1)]


EXPONENTS = _grid(0.3, 3.0, 0.01)
COEFFICIENTS = _grid(0.0, 3.0, 0.01)
DRIFTS = _grid(0.05, 0.45, 0.002)
GEOMETRIC = _grid(0.5, 1.5, 0.01)


def series_truth(x):
    return "converges" if x > 1.0 else "diverges"


def geometric_truth(x):
    return "converges" if x < 1.0 else "diverges"


def chain_truth(x):
    return "transient" if x > 1.0 else "recurrent"


def drift_truth(a):  # Lamperti: the reflected walk is transient iff its drift exceeds 1/4
    return "transient" if a > 0.25 else "recurrent"


def _series(build):
    return lambda x: adaptive_classify(build(x).ratio_spec).decision.value


def _rates(build):
    return lambda x: bdp_classify(build(x).rates).decision.value


def _walk(build):
    return lambda x: rw_classify(build(x).drift).decision.value


# name: (classify(x), grid, truth(x))
FAMILIES = {
    "p-series": (_series(families.p_series), EXPONENTS, series_truth),
    "log-power": (_series(families.log_power), EXPONENTS, series_truth),
    **{f"iterlog-power K={K}": (_series(lambda r, K=K: families.iterlog_power(K, r)),
                                EXPONENTS, series_truth) for K in (1, 2, 3)},
    "geometric": (_series(families.geometric), GEOMETRIC, geometric_truth),
    "bd-power": (_rates(families.bd_power), COEFFICIENTS, chain_truth),
    "bd-log": (_rates(families.bd_log), COEFFICIENTS, chain_truth),
    **{f"bd-iterlog K={K}": (_rates(lambda c, K=K: families.bd_iterlog(K, c)),
                             COEFFICIENTS, chain_truth) for K in (1, 2, 3, 4)},
    "alpha-const": (_walk(families.alpha_const), DRIFTS, drift_truth),
    **{f"alpha-threshold K={K}": (_walk(lambda c, K=K: families.alpha_threshold(K, c)),
                                  COEFFICIENTS, chain_truth) for K in (1, 2, 3)},
}


def _a_n(text, first):
    def classify(x):
        term = parse_expression(text.format(x=x))
        spec = RatioSpec(ratio=lambda n: term(n) / term(n + 1), first_index=first)
        return adaptive_classify(spec).decision.value
    return classify


def _delta_n(text, first):
    def classify(x):
        delta = parse_expression(text.format(x=x))
        spec = RatioSpec(ratio=lambda n: 1.0 + delta(n), delta=delta, first_index=first)
        return adaptive_classify(spec).decision.value
    return classify


def _lambda(text, first):
    def classify(x):
        rates = BirthDeathRates(lam=parse_expression(text.format(x=x)),
                                mu=parse_expression("1"), first_index=first)
        return bdp_classify(rates).decision.value
    return classify


def _alpha(text):
    def classify(x):
        return rw_classify(DriftSpec(alpha=parse_expression(text.format(x=x)), C=1.0)).decision.value
    return classify


SHAPES = {
    "a_n-power": (_a_n("1/n^{x!r}", 1), EXPONENTS, series_truth),
    "a_n-log": (_a_n("1/(n*ln(n)^{x!r})", 2), EXPONENTS, series_truth),
    "a_n-iterlog": (_a_n("1/(n*ln(n)*iterlog(2,n)^{x!r})", 3), EXPONENTS, series_truth),
    "delta_n-raabe": (_delta_n("{x!r}/n", 1), COEFFICIENTS, series_truth),
    "delta_n-bertrand": (_delta_n("1/n + {x!r}/(n*ln(n))", 2), COEFFICIENTS, series_truth),
    "delta_n-depth3": (_delta_n("1/n + 1/(n*ln(n)) + {x!r}/(n*ln(n)*iterlog(2,n))", 3),
                       COEFFICIENTS, series_truth),
    "rates-power": (_lambda("1 + {x!r}/n", 1), COEFFICIENTS, chain_truth),
    "rates-log": (_lambda("1 + 1/n + {x!r}/(n*ln(n))", 2), COEFFICIENTS, chain_truth),
    "alpha-const": (_alpha("{x!r}"), DRIFTS, drift_truth),
    "alpha-decay": (_alpha("{x!r} + 0.05/n"), DRIFTS, drift_truth),
    "alpha-slow": (_alpha("{x!r} + 0.05/ln(n+1)"), DRIFTS, drift_truth),
}


def audit() -> tuple[set[str], int, int]:
    """(wrong keys, inconclusive count, verdict count) over every family and shape."""
    wrong, inconclusive, total = set(), 0, 0
    for kind, table in (("family", FAMILIES), ("shape", SHAPES)):
        for name, (classify, grid, truth) in table.items():
            for x in grid:
                decision = classify(x)
                total += 1
                if decision == "inconclusive":
                    inconclusive += 1
                elif decision != truth(x):
                    wrong.add(f"{kind} {name} {x!r}")
    return wrong, inconclusive, total


def test_no_new_wrong_verdict():
    wrong, inconclusive, total = audit()
    print(f"{total} verdicts: {len(wrong)} wrong, {inconclusive} inconclusive")
    ratchet.check(wrong, WRONG_PATH)


if __name__ == "__main__":
    wrong, inconclusive, total = audit()
    kept = ratchet.prune(wrong, WRONG_PATH)
    print(f"{total} verdicts: {len(wrong)} wrong, {inconclusive} inconclusive; "
          f"kept {kept} keys in {WRONG_PATH}")
