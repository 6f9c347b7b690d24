"""Recurrence vs transience of birth-death chains, by series reduction.

A birth-death chain with rates lambda_n (up) and mu_n (down) is recurrent
exactly when the series of products mu_1...mu_n / lambda_1...lambda_n
diverges.  Writing a_n for that product gives a_n/a_{n+1} =
lambda_{n+1}/mu_{n+1}, so the whole convergence-test hierarchy applies to
the rate ratio directly: a convergent series means the chain escapes to
infinity with positive probability (transient), a divergent one means it
keeps coming back (recurrent).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .convergence import (ClassifyConfig, Decision, RatioSpec, Verdict, _check_integers,
                          adaptive_classify)
from .errors import DomainError


class Fate(str, Enum):
    RECURRENT = "recurrent"
    TRANSIENT = "transient"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BirthDeathRates:
    """Birth and death rate supplier; both rates must be strictly positive.

    ``ratio_delta``, when present, gives lambda(n)/mu(n) - 1 in a
    cancellation-free form and is forwarded to the series machinery.
    ``first_index`` must be an int of at least 1, not a bool or numpy integer.
    """

    lam: Callable[[int], float]
    mu: Callable[[int], float]
    first_index: int = 1
    ratio_delta: Callable[[int], float] | None = None

    def __post_init__(self):
        _check_integers("first_index", self.first_index)
        if self.first_index < 1:
            raise ValueError(f"first_index must be >= 1, got {self.first_index}")

    def rates_at(self, n: int) -> tuple[float, float]:
        lam = float(self.lam(n))
        mu = float(self.mu(n))
        if not (lam > 0.0 and mu > 0.0):
            raise DomainError(f"rates at n={n} must be positive, got lambda={lam}, mu={mu}")
        return lam, mu


@dataclass(frozen=True)
class Classification:
    decision: Fate
    series_verdict: Verdict


_FATE_OF = {
    Decision.CONVERGES: Fate.TRANSIENT,
    Decision.DIVERGES: Fate.RECURRENT,
    Decision.INCONCLUSIVE: Fate.INCONCLUSIVE,
}


def recurrence_ratio(rates: BirthDeathRates) -> RatioSpec:
    """Term ratio of the product series: ratio(n) = lambda(n+1) / mu(n+1).

    The one-index shift (the series term at n divides rates at n+1) is left
    in place; over the sampled windows its effect on the extracted
    coefficient is an O(1/n) drift, far below any decision margin.
    """

    def ratio(n: int) -> float:
        lam, mu = rates.rates_at(n + 1)
        return lam / mu

    delta = None
    if rates.ratio_delta is not None:
        shifted = rates.ratio_delta

        def delta(n: int) -> float:
            return float(shifted(n + 1))

    return RatioSpec(ratio=ratio, delta=delta, first_index=rates.first_index)


def bdp_classify(rates: BirthDeathRates, config: ClassifyConfig | None = None) -> Classification:
    """Classify the chain: series converges -> transient, diverges -> recurrent."""
    verdict = adaptive_classify(recurrence_ratio(rates), config)
    return Classification(decision=_FATE_OF[verdict.decision], series_verdict=verdict)
