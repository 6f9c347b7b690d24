"""Iterated natural logarithms and the weight sequences built from them.

``iterlog(k, x)`` is the k-fold composition ln(ln(...ln(x)...)).  The Kummer
weight ``zeta_weight(K, n) = n * ln(n) * ... * ln_(K)(n)``, admissible because
its reciprocal sum diverges, is what ``eval-iterlog --what zeta`` prints.

Sampled numeric evaluation is capped at depth ``K_MAX_NUMERIC = 4``: the
smallest integer where a depth-5 chain is positive exceeds exp(3.8 million),
far beyond any float.  All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math

from .errors import DomainError, UnsupportedLevel

# Deepest level with a float-representable domain: min_domain(5) ~ exp(3.8e6).
K_MAX_NUMERIC = 4

# Largest index that converts to float exactly.
INDEX_LIMIT = 2**53


def _check_index(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"index must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    if n >= INDEX_LIMIT:
        raise DomainError(f"index {n} >= 2**53 cannot be converted to float exactly")


def _check_level(k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int):
        raise DomainError(f"level must be an integer, got {k!r}")
    if k < 1:
        raise DomainError(f"level must be >= 1, got {k}")
    if k > K_MAX_NUMERIC:
        raise UnsupportedLevel(
            f"level {k} exceeds K_MAX_NUMERIC={K_MAX_NUMERIC}; "
            f"the domain threshold is not float-representable"
        )


def iterlog(k: int, x: float) -> float:
    """k-fold natural logarithm of x.

    Every intermediate value must be strictly positive; the final value may
    be negative or zero.  Monotone increasing in x on its domain.

    Raises DomainError if any intermediate value (including x itself) is <= 0.
    """
    _check_level(k)
    if isinstance(x, int) and abs(x) >= INDEX_LIMIT:
        raise DomainError(f"integer argument {x} is too large for exact float conversion")
    v = float(x)
    if math.isnan(v) or math.isinf(v):
        raise DomainError(f"argument must be finite, got {v}")
    for i in range(k):
        if v <= 0.0:
            raise DomainError(
                f"iterlog({k}, {x}): intermediate value {v} at depth {i} is not positive"
            )
        v = math.log(v)
    return v


def iterlog_product(K: int, n: int) -> float:
    """Product ln(n) * ln_(2)(n) * ... * ln_(K)(n); 1.0 when K == 0.

    Requires n >= min_domain(K) for K >= 1 so every factor is positive.
    """
    if K == 0:
        _check_index(n)
        return 1.0
    _check_level(K)
    _check_index(n)
    if n < min_domain(K):
        raise DomainError(
            f"iterlog_product({K}, {n}): index below min_domain({K}) = {min_domain(K)}"
        )
    v = float(n)
    p = 1.0
    for _ in range(K):
        v = math.log(v)
        p *= v
    return p


def zeta_weight(K: int, n: int) -> float:
    """The ``eval-iterlog --what zeta`` weight n * ln(n) * ... * ln_(K)(n); positive, increasing."""
    _check_level(K)
    return float(n) * iterlog_product(K, n)


def expansion_increment(k: int, n: int) -> float:
    """Leading-order prediction of ``iterlog(k, n+1) - iterlog(k, n)``.

    Equals 1 / (n * ln(n) * ... * ln_(k-1)(n)); for k = 1 this is 1/n.  The
    true increment differs by O(1/n^2), which the test suite checks against
    a 1/n**1.9 envelope in extended precision.
    """
    _check_level(k)
    _check_index(n)
    if n < min_domain(k):
        raise DomainError(
            f"expansion_increment({k}, {n}): index below min_domain({k}) = {min_domain(k)}"
        )
    return 1.0 / (float(n) * iterlog_product(k - 1, n))


# Smallest integer n with ln_(K)(n) > 0, for K = 1..K_MAX_NUMERIC: one more than
# the floor of the towers 1, e, e^e and e^e^e.
_MIN_DOMAIN = (2, 3, 16, 3_814_280)


def min_domain(K: int) -> int:
    """Smallest integer n with ln_(K)(n) > 0: the integer just above the tower e^e^...^e."""
    _check_level(K)
    return _MIN_DOMAIN[K - 1]
