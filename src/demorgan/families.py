"""Built-in parametric families whose fate is known in closed form.

These back the acceptance suite and the CLI.  A family builds a source with
a cancellation-free delta form for accurate extraction at large n; a series
evaluates its terms through the same expression engine a user formula uses,
so the family and expression routes agree bit for bit, and its ``hp_term``
is that expression compiled over mpmath.  The fates listed below are
mathematics: the tests take them from ``tests/oracle.py``.

Series catalog:

    p-series        1/n^p                      converges iff p > 1
    log-power       1/(n ln(n)^r)              converges iff r > 1
    iterlog-power   1/(n ln(n)...ln_(K)(n) ln_(K+1)(n)^r)   converges iff r > 1
    geometric       x^n                        converges iff x < 1

Birth-death rate families perturb lambda/mu around 1 with the boundary
shape of the depth-K test: bd-iterlog at depth K, bd-log at depth 1 and
bd-power, lambda/mu = 1 + c/n, at depth 0.  Walk families supply the
position-dependent drift alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import mpmath as mp

from .birthdeath import BirthDeathRates
from .convergence import RatioSpec, _check_integers
from .errors import DomainError
from .expr import _FLOAT_OPS, _compile, parse_expression
from .iterlog import K_MAX_NUMERIC, _check_index, min_domain
from .walk import DriftSpec


@dataclass(frozen=True)
class _Family:
    name: str
    params: dict[str, float]


def _mp_iterlog(k: int, x: mp.mpf) -> mp.mpf:
    v = x
    for i in range(k):
        if v <= 0:  # mp.ln would return a complex, where iterlog.iterlog raises
            raise DomainError(f"iterlog({k}, {x}): intermediate {v} at depth {i} is not positive")
        v = mp.ln(v)
    return v


# The expression operations over mpmath numbers, at mpmath's working precision.
_MP_OPS = {**_FLOAT_OPS, "^": mp.power, "ln": mp.ln, "exp": mp.exp, "iterlog": _mp_iterlog}


@dataclass(frozen=True)
class SeriesFamily(_Family):
    expression: str
    ratio_spec: RatioSpec

    @cached_property  # built on first use: only the high-precision checks call it
    def hp_term(self) -> Callable[[int], mp.mpf]:
        """The term a_n at mpmath's working precision: ``expression`` over ``_MP_OPS``."""
        term = _compile(parse_expression(self.expression).ast, _MP_OPS)
        return lambda n: term(mp.mpf(n))


def _term_ratio(term: Callable[[float], float]) -> Callable[[int], float]:
    def ratio(n: int) -> float:
        a, b = term(n), term(n + 1)
        if not (a > 0.0 and b > 0.0):
            raise DomainError(f"series terms must be positive, got a({n})={a}, a({n+1})={b}")
        return a / b
    return ratio


def _check_depth(depth: object, top: int) -> None:
    """Reject a family depth that is not an int (a bool is not one) in 1..top."""
    _check_integers("depth", depth)
    if not 1 <= depth <= top:
        raise ValueError(f"depth must be an integer in 1..{top}, got {depth!r}")


def _log_scale(name: str, depth: int, params: dict[str, float]) -> SeriesFamily:
    """1/(n * ln(n) * ... * ln_(depth)(n) * ln_(depth+1)(n)^r), where ln_(0)(n) = n.

    Depth -1 is the p-series n^-p and depth 0 the log-power 1/(n ln(n)^r).
    """
    key = "p" if depth < 0 else "r"
    r = params[key]
    if not math.isfinite(r):
        raise ValueError(f"{key} must be finite")
    factors = ["n", "ln(n)"] + [f"iterlog({k},n)" for k in range(2, depth + 2)]
    body = "*".join(factors[:depth + 1] + [f"{factors[depth + 1]}^{r!r}"])
    expression = f"1/({body})" if depth >= 0 else f"1/{body}"
    first, *rest = (1.0,) * (depth + 1) + (r,)

    def delta(n: int) -> float:
        # ln(ratio) telescopes through the log chain: with u_1 = log1p(1/n)
        # and u_{k+1} = log1p(u_k / ln_(k)(n)), the factor ln_(k)(n) adds
        # u_{k+1}, and the power factor r * u_{depth+2}.
        u = math.log1p(1.0 / n)
        total, v = first * u, n
        for w in rest:
            v = math.log(v)
            u = math.log1p(u / v)
            total += w * u
        return math.expm1(total)

    return SeriesFamily(
        name=name, params=params, expression=expression,
        ratio_spec=RatioSpec(
            ratio=_term_ratio(parse_expression(expression)), delta=delta,
            first_index=1 if depth < 0 else min_domain(depth + 1),
        ),
    )


def p_series(p: float) -> SeriesFamily:
    # float(): a numpy float would print its type into the expression text.
    return _log_scale("p-series", -1, {"p": float(p)})


def log_power(r: float) -> SeriesFamily:
    return _log_scale("log-power", 0, {"r": float(r)})


def iterlog_power(K: int, r: float) -> SeriesFamily:
    """1 / (n * ln(n) * ... * ln_(K)(n) * ln_(K+1)(n)^r)."""
    _check_depth(K, K_MAX_NUMERIC - 1)
    return _log_scale("iterlog-power", K, {"K": K, "r": float(r)})


def geometric(x: float) -> SeriesFamily:
    """x^n for x > 0.  The ratio is the constant 1/x; terms under- or
    overflow floats at large n, so the ratio is supplied algebraically."""
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise ValueError("x must be finite and positive")
    return SeriesFamily(
        name="geometric", params={"x": x}, expression=f"{x!r}^n",
        ratio_spec=RatioSpec(ratio=lambda n: 1.0 / x, delta=lambda n: (1.0 - x) / x,
                             first_index=1),
    )


SERIES_FACTORIES: dict[str, tuple[Callable[..., SeriesFamily], tuple[str, ...]]] = {
    "p-series": (p_series, ("p",)),
    "log-power": (log_power, ("r",)),
    "iterlog-power": (iterlog_power, ("K", "r")),
    "geometric": (geometric, ("x",)),
}


def _make_family(factories: dict, kind: str, name: str, params: dict):
    """Build a family from a registry; unknown names and missing or extra
    parameters are rejected."""
    if name not in factories:
        raise ValueError(f"unknown {kind} family {name!r}; known: {', '.join(sorted(factories))}")
    factory, wanted = factories[name]
    missing = [w for w in wanted if params.get(w) is None]
    if missing:
        raise ValueError(f"family {name!r} needs parameter(s): {', '.join(missing)}")
    extra = [k for k, v in params.items() if k not in wanted and v is not None]
    if extra:
        raise ValueError(f"family {name!r} does not take: {', '.join(extra)}")
    return factory(**{w: params[w] for w in wanted})


def make_series_family(name: str, **params: float) -> SeriesFamily:
    return _make_family(SERIES_FACTORIES, "series", name, params)


# The canonical 12-family acceptance catalog.
ACCEPTANCE_CATALOG: tuple[tuple[str, dict[str, float]], ...] = (
    ("p-series", {"p": 0.5}),
    ("p-series", {"p": 1.0}),
    ("p-series", {"p": 2.0}),
    ("log-power", {"r": 0.5}),
    ("log-power", {"r": 1.0}),
    ("log-power", {"r": 2.0}),
    ("iterlog-power", {"K": 1, "r": 0.5}),
    ("iterlog-power", {"K": 1, "r": 2.0}),
    ("iterlog-power", {"K": 2, "r": 0.5}),
    ("iterlog-power", {"K": 2, "r": 2.0}),
    ("geometric", {"x": 0.5}),
    ("geometric", {"x": 2.0}),
)


# ---------------------------------------------------------------------------
# Birth-death rate families: perturbations of lambda/mu around 1 whose
# recurrence behaviour is known in closed form.


@dataclass(frozen=True)
class RateFamily(_Family):
    rates: BirthDeathRates


def _boundary_rates(name: str, depth: int, params: dict[str, float]) -> RateFamily:
    """lambda/mu = 1 + sum_{k<=depth} w_k/(n prod_k), with w = (1, ..., 1, c),
    prod_k = ln(n) * ... * ln_(k)(n) and prod_0 = 1.

    The boundary shape of the depth-``depth`` test with the deepest term
    weighted by c; transient iff c > 1.  Depth 0 is lambda/mu = 1 + c/n.
    """
    c = params["c"]
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("c must be finite and non-negative")
    first = min_domain(depth) if depth else 1
    w0, *rest = (1.0,) * depth + (c,)

    def delta(n: int) -> float:
        if n < first:
            raise DomainError(f"{name}: index {n} below min_domain({depth}) = {first}")
        # One pass down the log chain; prod is ln(n) * ... * ln_(k)(n).
        total, v, prod = w0 / n, n, 1.0
        for w in rest:
            v = math.log(v)
            prod *= v
            total += w / (n * prod)
        return total

    rates = BirthDeathRates(
        lam=lambda n: 1.0 + delta(n),
        mu=lambda n: 1.0,
        first_index=first,
        ratio_delta=delta,
    )
    return RateFamily(name=name, params=params, rates=rates)


def bd_power(c: float) -> RateFamily:
    """lambda/mu = 1 + c/n; transient iff c > 1 (products decay like n^-c)."""
    return _boundary_rates("bd-power", 0, {"c": float(c)})


def bd_log(c: float) -> RateFamily:
    """lambda/mu = 1 + 1/n + c/(n ln n), bd-iterlog at depth 1; transient iff c > 1."""
    return _boundary_rates("bd-log", 1, {"c": float(c)})


def bd_iterlog(K: int, c: float) -> RateFamily:
    """lambda/mu = 1 + 1/n + sum_{k<K} 1/(n prod_k) + c/(n prod_K);
    transient iff c > 1."""
    _check_depth(K, K_MAX_NUMERIC)
    return _boundary_rates("bd-iterlog", K, {"K": K, "c": float(c)})


RATE_FACTORIES: dict[str, tuple[Callable[..., RateFamily], tuple[str, ...]]] = {
    "bd-power": (bd_power, ("c",)),
    "bd-log": (bd_log, ("c",)),
    "bd-iterlog": (bd_iterlog, ("K", "c")),
}


def make_rate_family(name: str, **params: float) -> RateFamily:
    return _make_family(RATE_FACTORIES, "rate", name, params)


# ---------------------------------------------------------------------------
# Walk drift families.


@dataclass(frozen=True)
class WalkFamily(_Family):
    drift: DriftSpec


def alpha_const(a: float) -> WalkFamily:
    """Constant drift alpha(n) = a, 0 < a < 1/2.

    The induced rate ratio is 1 + 4a/n + O(1/n^2): transient for a > 1/4,
    recurrent for a <= 1/4 (at a = 1/4 the depth-1 coefficient collapses to
    zero, which still lands on the divergent side).
    """
    a = float(a)
    if not (math.isfinite(a) and 0.0 < a < 0.5):
        raise ValueError(f"need 0 < a < 1/2, got {a}")
    return WalkFamily(name="alpha-const", params={"a": a},
                      drift=DriftSpec(alpha=lambda n: a, C=0.5))


def alpha_threshold(K: int, c: float) -> WalkFamily:
    """Boundary-shaped drift (1/4)(1 + sum_{k<K} 1/prod_k + c/prod_K).

    Below the first index where every log factor exceeds 1 the formula is
    frozen at that index and capped under min(C, n/2); the tail, which is
    all that classification sees, is the exact boundary shape.  Transient
    iff c > 1.
    """
    _check_depth(K, K_MAX_NUMERIC - 1)
    c = float(c)
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("c must be finite and non-negative")
    cap = 1.0
    floor_index = min_domain(K + 1)
    weights = (1.0,) * (K - 1) + (c,)

    def alpha(n: int) -> float:
        m = max(n, floor_index)
        _check_index(m)
        value, v, prod = 1.0, float(m), 1.0
        for w in weights:
            v = math.log(v)
            prod *= v
            value += w / prod
        value *= 0.25
        return min(value, 0.999 * min(cap, 0.5 * n))

    return WalkFamily(name="alpha-threshold", params={"K": K, "c": c},
                      drift=DriftSpec(alpha=alpha, C=cap))
