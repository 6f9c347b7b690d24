"""Generated Bertrand-scale audit: random log-monomial series near their threshold.

A draw is the series sum_n n^-p_0 * ln_1(n)^-p_1 * ... * ln_d(n)^-p_d,
whose truth its exponents alone decide: the first p_j that is not 1
converges iff it exceeds 1 (Hardy, *Orders of Infinity*, 1910; Knopp,
ch. IX).  The deciding level j is uniform in 0..3, p_i = 1 for i < j,
p_j = 1 +- 10^U(-3, 0), and the later exponents are U(-2, 2) up to a depth
d uniform in j..3.  The series starts at max(3, min_domain(d + 1)).  Its
delta a_n/a_{n+1} - 1 = expm1(sum_k p_k * D_k(n)), with D_0 = log1p(1/n)
and D_k = log1p(D_(k-1) / ln_k(n)), is free of cancellation; it is pinned
against 60-digit mpmath below.

The same draws are also fed to ``bdp_classify`` as a birth-death chain
with raw rates lambda_n = 1 + delta(n - 1) and mu_n = 1, from the same first
index and with no ``ratio_delta``: the product series of that chain is the
drawn series, so it is transient iff the series converges.  Its rate ratio
takes the raw-ratio route and its cancellation monitor, which the series
audit's exact delta never reaches.

The walk audit draws its own (K, c, b): K uniform in 1..3, c = 1 +- 10^U(-3, 0)
and b = U(-0.5, 0.5), for the reflected walk with drift
alpha(n) = (1/4)(1 + sum_{k<K} 1/prod_k(n) + c/prod_K(n)) + b/sqrt(n), where
prod_k = ln(n) * ... * ln_(k)(n), under ``DriftSpec(C=1.0)``.  Its rate
ratio lambda/mu - 1 = 4 alpha/n + O(n^-2) is the depth-K shape of
bd-iterlog plus 4b n^(-3/2), a summable term, so the walk is transient iff
c > 1.  On the sampled window n >= 100, alpha stays in [0.2, 0.56].

The draws are fixed: ``random.Random(SEED)``, ``COUNT`` of them per audit.
``tests/generated_verdicts.json`` (series),
``tests/generated_chain_verdicts.json`` (chains) and
``tests/generated_walk_verdicts.json`` (walks) hold the keys, the ``repr``
of each draw, that are wrong today, under the ratchet of
``tests/ratchet.py``: any other wrong key fails, and so does a stored key
that is mended.  Run ``PYTHONPATH=src python tests/test_generated_verdicts.py``
to drop the mended keys from all three files; it never adds one.
"""

import math
import random
from pathlib import Path

import mpmath as mp
import pytest

import oracle as hp
import ratchet
from demorgan.birthdeath import BirthDeathRates, bdp_classify
from demorgan.convergence import RatioSpec, adaptive_classify
from demorgan.iterlog import min_domain
from demorgan.walk import DriftSpec, rw_classify

SEED, COUNT = 1, 2000
WRONG_PATH = Path(__file__).with_name("generated_verdicts.json")
CHAIN_WRONG_PATH = Path(__file__).with_name("generated_chain_verdicts.json")
WALK_WRONG_PATH = Path(__file__).with_name("generated_walk_verdicts.json")


def draw(rng: random.Random) -> tuple[float, ...]:
    """One exponent vector (p_0, ..., p_d)."""
    j = rng.randint(0, 3)
    p_j = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 0.0)
    depth = rng.randint(j, 3)
    return (1.0,) * j + (p_j,) + tuple(rng.uniform(-2.0, 2.0) for _ in range(depth - j))


def truth(p: tuple[float, ...]) -> str:
    deciding = next(x for x in p if x != 1.0)
    return "converges" if deciding > 1.0 else "diverges"


def fate(p: tuple[float, ...]) -> str:
    """The truth of the chain whose product series is the draw."""
    return "transient" if truth(p) == "converges" else "recurrent"


def delta_of(p: tuple[float, ...]):
    def delta(n: int) -> float:
        d = math.log1p(1.0 / n)
        total, v = p[0] * d, n
        for p_k in p[1:]:
            v = math.log(v)
            d = math.log1p(d / v)
            total += p_k * d
        return math.expm1(total)
    return delta


def first_index(p: tuple[float, ...]) -> int:
    return max(3, min_domain(len(p)))


def series_decision(p: tuple[float, ...]) -> str:
    delta = delta_of(p)
    spec = RatioSpec(ratio=lambda n: 1.0 + delta(n), delta=delta, first_index=first_index(p))
    return adaptive_classify(spec).decision.value


def chain_decision(p: tuple[float, ...]) -> str:
    delta = delta_of(p)
    rates = BirthDeathRates(lam=lambda n: 1.0 + delta(n - 1), mu=lambda n: 1.0,
                            first_index=first_index(p))
    return bdp_classify(rates).decision.value


def walk_draw(rng: random.Random) -> tuple[int, float, float]:
    """One walk (K, c, b)."""
    K = rng.randint(1, 3)
    c = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 0.0)
    return K, c, rng.uniform(-0.5, 0.5)


def walk_fate(walk: tuple[int, float, float]) -> str:
    return "transient" if walk[1] > 1.0 else "recurrent"


def walk_decision(walk: tuple[int, float, float]) -> str:
    K, c, b = walk
    weights = (1.0,) * (K - 1) + (c,)

    def alpha(n: int) -> float:
        value, v, prod = 1.0, float(n), 1.0
        for w in weights:
            v = math.log(v)
            prod *= v
            value += w / prod
        return 0.25 * value + b / math.sqrt(n)
    return rw_classify(DriftSpec(alpha=alpha, C=1.0)).decision.value


# kind: (draw(rng), decision(draw), truth(draw), stored wrong keys)
AUDITS = {
    "series": (draw, series_decision, truth, WRONG_PATH),
    "chain": (draw, chain_decision, fate, CHAIN_WRONG_PATH),
    "walk": (walk_draw, walk_decision, walk_fate, WALK_WRONG_PATH),
}


def audit(kind: str = "series", seed: int = SEED, count: int = COUNT) -> tuple[set[str], int]:
    """(wrong keys, inconclusive count) of one kind over the draws of ``seed``."""
    make, decide, right, _ = AUDITS[kind]
    rng = random.Random(seed)
    wrong, inconclusive = set(), 0
    for _ in range(count):
        x = make(rng)
        decision = decide(x)
        if decision == "inconclusive":
            inconclusive += 1
        elif decision != right(x):
            wrong.add(repr(x))
    return wrong, inconclusive


def exact_delta(p: tuple[float, ...], n: int, dps: int = 60) -> mp.mpf:
    with mp.workdps(dps):
        ratio = mp.mpf(1)
        for k, p_k in enumerate(p):
            ratio *= (hp.iterlog(k, n + 1, dps) / hp.iterlog(k, n, dps)) ** mp.mpf(p_k)
        return ratio - 1


@pytest.mark.parametrize("p", [
    (0.999,), (1.0, 1.5), (1.0, 1.0, 0.2, -1.7), (1.0, 1.0, 1.0, 1.001), (0.3, 2.0, -2.0),
], ids=repr)
@pytest.mark.parametrize("n", [10**4, 5 * 10**6])
def test_delta_matches_mpmath(p, n):
    with mp.workdps(60):
        exact = exact_delta(p, n)
        assert abs((delta_of(p)(n) - exact) / exact) <= 1e-15


def test_no_new_wrong_generated_verdict():
    wrong, inconclusive = audit("series")
    print(f"{COUNT} generated verdicts: {len(wrong)} wrong, {inconclusive} inconclusive")
    ratchet.check(wrong, WRONG_PATH)


def test_no_new_wrong_generated_chain_verdict():
    wrong, inconclusive = audit("chain")
    print(f"{COUNT} generated chains: {len(wrong)} wrong, {inconclusive} inconclusive")
    ratchet.check(wrong, CHAIN_WRONG_PATH)


def test_no_new_wrong_generated_walk_verdict():
    wrong, inconclusive = audit("walk")
    print(f"{COUNT} generated walks: {len(wrong)} wrong, {inconclusive} inconclusive")
    ratchet.check(wrong, WALK_WRONG_PATH)


if __name__ == "__main__":
    for kind, (*_, path) in AUDITS.items():
        wrong, inconclusive = audit(kind)
        kept = ratchet.prune(wrong, path)
        print(f"{COUNT} generated {kind} verdicts: {len(wrong)} wrong, "
              f"{inconclusive} inconclusive; kept {kept} keys in {path}")
