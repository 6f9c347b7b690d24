"""Extended-precision mirrors of the core evaluations, backed by mpmath.

The float implementations in :mod:`demorgan.iterlog` and
:mod:`demorgan.convergence` are the production path.  This test-side module
is the oracle: the same quantities computed in software multiprecision,
used wherever double precision would sit too close to the quantity being
measured (expansion residuals, coefficient extraction at n = 10**6,
Kummer-reduction gaps).  The package never imports it.

Callables passed in must accept an int and return an ``mpmath.mpf`` (plain
floats are also fine; they convert exactly).
"""

from __future__ import annotations

from typing import Callable

import mpmath as mp

from demorgan.errors import DomainError
from demorgan.iterlog import min_domain

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
