"""Extended-precision mirrors of the core evaluations, backed by mpmath.

The float implementations in :mod:`demorgan.iterlog` and
:mod:`demorgan.convergence` are the production path.  This test-side module
is the oracle: the same quantities computed in software multiprecision,
used wherever double precision would sit too close to the quantity being
measured (expansion residuals, coefficient extraction at n = 10**6,
Kummer-reduction gaps).  The package never imports it.

Callables passed to the multiprecision functions must accept an int and
return an ``mpmath.mpf`` (plain floats are also fine; they convert exactly).

The module also holds Kummer's test in floats, the general form that the
Raabe, Bertrand and depth-K tests specialise: with the weight
zeta_K(n) = n * ln(n) * ... * ln_(K)(n) its statistic rho^(K)_n equals
s^(K)_n - 1 + O(1/n), so it checks :func:`demorgan.convergence.extract_sn`
by a different formula.  ``reconstruct_ratio`` inverts the extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from demorgan.convergence import (
    DEFAULT_SAMPLES,
    DEFAULT_TAIL_FRACTION,
    Decision,
    RatioSpec,
    SamplePoint,
    Verdict,
    _effective_window,
    sample_grid,
)
from demorgan.errors import DomainError, EvalError
from demorgan.iterlog import iterlog_product as float_iterlog_product
from demorgan.iterlog import min_domain
from demorgan.iterlog import zeta_weight as float_zeta_weight

DEFAULT_DPS = 50


def iterlog(k: int, x, dps: int = DEFAULT_DPS) -> mp.mpf:
    with mp.workdps(dps):
        v = mp.mpf(x)
        for i in range(k):
            if v <= 0:
                raise DomainError(f"hp.iterlog({k}, {x}): intermediate at depth {i} not positive")
            v = mp.ln(v)
        return +v


def iterlog_product(K: int, n: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    with mp.workdps(dps):
        v = mp.mpf(n)
        p = mp.mpf(1)
        for _ in range(K):
            if v <= 0:
                raise DomainError(f"hp.iterlog_product({K}, {n}): chain left the domain")
            v = mp.ln(v)
            p *= v
        return +p


def zeta_weight(K: int, n: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    with mp.workdps(dps):
        return +(mp.mpf(n) * iterlog_product(K, n, dps=dps))


def expansion_increment(k: int, n: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    with mp.workdps(dps):
        return +(1 / (mp.mpf(n) * iterlog_product(k - 1, n, dps=dps)))


def extract_coefficient(
    K: int,
    n: int,
    delta: Callable[[int], mp.mpf],
    dps: int = DEFAULT_DPS,
) -> mp.mpf:
    """Deepest-correction coefficient of the ratio expansion, in multiprecision.

    ``delta(n)`` must return a_n/a_{n+1} - 1.  Mirrors
    :func:`demorgan.convergence.extract_sn` exactly, term for term.
    """
    if n < min_domain(K):
        raise DomainError(f"hp.extract_coefficient: n={n} below min_domain({K})")
    with mp.workdps(dps):
        t = mp.mpf(delta(n))
        t -= mp.mpf(1) / n
        for i in range(1, K):
            t -= 1 / (mp.mpf(n) * iterlog_product(i, n, dps=dps))
        return +(t * zeta_weight(K, n, dps=dps))


def kummer_rho_level(
    K: int,
    n: int,
    ratio: Callable[[int], mp.mpf],
    dps: int = DEFAULT_DPS,
) -> mp.mpf:
    """Kummer statistic zeta_n * ratio(n) - zeta_{n+1} with the depth-K weight."""
    with mp.workdps(dps):
        zn = zeta_weight(K, n, dps=dps)
        zn1 = zeta_weight(K, n + 1, dps=dps)
        return +(zn * mp.mpf(ratio(n)) - zn1)


# ---------------------------------------------------------------------------
# Kummer's test and the inverse of the extraction, in floats.


@dataclass(frozen=True)
class KummerWeight:
    """Positive weight sequence for Kummer's test.

    A divergence verdict is only sound when the reciprocal sum of the weights
    diverges; that side condition is not machine-checkable, so constructors
    must assert it explicitly.  The built-in iterated-log weights carry the
    flag because their reciprocal sums diverge by integral comparison.
    """

    zeta: Callable[[int], float]
    reciprocal_sum_diverges: bool
    first_index: int = 1

    @classmethod
    def from_level(cls, K: int) -> "KummerWeight":
        return cls(
            zeta=lambda n: float_zeta_weight(K, n),
            reciprocal_sum_diverges=True,
            first_index=min_domain(K),
        )

    def zeta_at(self, n: int) -> float:
        z = float(self.zeta(n))
        if not z > 0.0:
            raise DomainError(f"weight at n={n} is {z}, must be > 0")
        return z


def kummer_rho(weight: KummerWeight, ratio: RatioSpec, n: int, use_delta: bool = True) -> float:
    """Kummer statistic zeta_n * (a_n/a_{n+1}) - zeta_{n+1}.

    With a cancellation-free delta available this is computed as
    zeta_n * delta(n) - (zeta_{n+1} - zeta_n), which avoids differencing two
    nearly equal products.
    """
    if n < max(weight.first_index, ratio.first_index):
        raise DomainError(f"kummer_rho: n={n} precedes the weight/ratio domain")
    if ratio.last_index is not None and n > ratio.last_index:
        raise DomainError(f"kummer_rho: n={n} beyond ratio domain end {ratio.last_index}")
    zn = weight.zeta_at(n)
    zn1 = weight.zeta_at(n + 1)
    if use_delta and ratio.delta is not None:
        return zn * float(ratio.delta(n)) - (zn1 - zn)
    return zn * ratio.ratio_at(n) - zn1


def kummer_test(
    weight: KummerWeight,
    ratio: RatioSpec,
    window: tuple[int, int],
    margin: float,
    samples: int = DEFAULT_SAMPLES,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    use_delta: bool = True,
) -> Verdict:
    """Tail-window Kummer test.

    Converges when the tail minimum of rho exceeds +margin; diverges when the
    tail maximum is below -margin *and* the weight declares a divergent
    reciprocal sum; otherwise inconclusive.  One usable tail sample decides;
    a sample whose statistic raised is recorded as unusable.
    """
    window = _effective_window(ratio, window, weight.first_index)
    if not 0 < margin < math.inf:
        raise ValueError(f"margin must be finite and positive, got {margin}")
    points = []
    for n in sample_grid(*window, samples, ratio.support):
        try:
            points.append(SamplePoint(n, kummer_rho(weight, ratio, n, use_delta), True))
        except (DomainError, EvalError, ArithmeticError):
            points.append(SamplePoint(n, math.nan, False))
    usable = [p for p in points if p.usable]
    tail = usable[len(usable) - max(1, math.ceil(len(usable) * tail_fraction)):]
    dropped = len(points) - len(usable)
    if not tail:
        return Verdict(Decision.INCONCLUSIVE, None, window, None, None, margin, tuple(points),
                       dropped, note="no usable tail samples", usable=len(usable))
    s_min = min(p.value for p in tail)
    s_max = max(p.value for p in tail)
    if s_min > margin:
        decision = Decision.CONVERGES
    elif s_max < -margin and weight.reciprocal_sum_diverges:
        decision = Decision.DIVERGES
    else:
        decision = Decision.INCONCLUSIVE
    return Verdict(decision, None, window, s_min, s_max, margin, tuple(points), dropped,
                   usable=len(usable))


def reconstruct_ratio(K: int, s: float, n: int) -> float:
    """Right side of the depth-K expansion evaluated at (s, n).

    Inverse of :func:`demorgan.convergence.extract_sn` up to rounding:
    feeding an extracted s back reproduces the ratio to within a few ulps.
    """
    t = s / float_zeta_weight(K, n)
    for i in range(K - 1, 0, -1):
        t += 1.0 / (float(n) * float_iterlog_product(i, n))
    t += 1.0 / n
    return 1.0 + t
