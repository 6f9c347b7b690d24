"""Ratio-test hierarchy: Kummer's test, coefficient extraction, verdicts.

The central object is the expansion

    a_n/a_{n+1} = 1 + 1/n + (1/n) * sum_{i=1}^{K-1} 1/(ln(n)*...*ln_(i)(n))
                  + s_n / (n * ln(n) * ... * ln_(K)(n))

``extract_sn`` solves this for s_n at a given depth K.  A positive series
converges when s_n stays above 1 and diverges when it stays below 1; the
machinery here replaces those asymptotic statements with tail-window extrema
over a geometric sample grid plus a caller-set margin, reporting Inconclusive
whenever the samples cannot separate the tail from the critical value.

At depth K = 1 the coefficient is the classical Bertrand statistic r_n; the
Raabe and d'Alembert regimes fall out of the same formula for rapidly
converging or diverging ratios.  ``adaptive_classify`` walks the depth
hierarchy, escalating whenever the current level either hovers near the
critical value or shows a margin that the next level reveals to be a slowly
decaying correction rather than a genuine limit gap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

from .errors import DomainError, EvalError, InvalidWindow
from .iterlog import K_MAX_NUMERIC, _check_index, iterlog, iterlog_product, min_domain, zeta_weight

# A no-delta subtraction that lost more than half the significand of the
# unit-scale term is unreliable; 2**-26 marks that point.
_CANCEL_THRESHOLD = 2.0**-26

# Default sampling policy: geometric grid, tail = last quarter.
DEFAULT_WINDOW_FLOOR = 100
DEFAULT_WINDOW_HI = 10_000_000
DEFAULT_SAMPLES = 64
DEFAULT_TAIL_FRACTION = 0.25


class Decision(str, Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RatioSpec:
    """Supplier of the term ratio a_n/a_{n+1} of a positive series.

    ``ratio(n)`` must be strictly positive for n >= first_index.  ``delta``,
    when supplied, must give a_n/a_{n+1} - 1 in a cancellation-free form;
    extraction prefers it because subtracting 1 from a ratio near 1 in double
    precision poisons the deepest correction term.  ``support`` restricts
    sampling to an explicit index set (tabulated input); ``last_index`` caps
    the domain.
    """

    ratio: Callable[[int], float]
    first_index: int = 1
    delta: Callable[[int], float] | None = None
    last_index: int | None = None
    support: tuple[int, ...] | None = None

    def ratio_at(self, n: int) -> float:
        r = float(self.ratio(n))
        if not r > 0.0:
            raise DomainError(f"ratio at n={n} is {r}, must be > 0")
        return r


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
            zeta=lambda n: zeta_weight(K, n),
            reciprocal_sum_diverges=True,
            first_index=min_domain(K),
        )

    def zeta_at(self, n: int) -> float:
        z = float(self.zeta(n))
        if not z > 0.0:
            raise DomainError(f"weight at n={n} is {z}, must be > 0")
        return z


@dataclass(frozen=True)
class SamplePoint:
    """One sampled statistic; not ``usable`` when it raised or cancellation ate its bits."""

    n: int
    value: float
    usable: bool


@dataclass(frozen=True)
class GuardReport:
    """Next-level growth check behind a tentatively decisive verdict.

    For a genuine limit gap at depth K, the depth-(K+1) coefficient
    (s_n - 1) * ln_(K+1)(n) must grow (shrink) roughly like the gap times
    ln_(K+1); a flat next level means the apparent margin is a decaying
    correction term and the verdict cannot be trusted at this depth.
    """

    passed: bool
    growth: float
    required: float
    n_lo: int
    n_hi: int


@dataclass(frozen=True)
class Verdict:
    """One depth's tail-window test, with the evidence that produced it.

    ``s_min``/``s_max`` are the extrema of the usable tail samples (the
    Kummer statistic rho for :func:`kummer_test`, the extracted coefficient
    for the depth tests).  A Converges decision implies s_min > threshold +
    margin over the tail; Diverges implies s_max < threshold - margin.
    Of the ``samples``, ``usable`` can enter the tail and ``dropped`` raised
    or lost their bits to cancellation.  :func:`adaptive_classify` keeps one
    Verdict per depth tried in ``trace``, with the next-level ``guard`` run
    on a decisive depth and the reason it ``escalated`` past that depth (""
    where it stopped), and returns the last one with the trace attached.
    """

    decision: Decision
    level: int | None
    window: tuple[int, int]
    s_min: float | None
    s_max: float | None
    margin: float
    samples: tuple[SamplePoint, ...] = ()
    dropped: int = 0
    trace: tuple[Verdict, ...] = ()
    note: str = ""
    usable: int = 0
    guard: GuardReport | None = None
    escalated: str = ""


@dataclass(frozen=True)
class ClassifyConfig:
    """Knobs for the adaptive classifier.

    ``window_lo`` is a floor: the effective start of each level's window is
    max(window_lo, min_domain(K), first_index).  ``near_one_band`` controls
    escalation from an inconclusive level: only when the tail samples sit
    within this band of 1 can the next level's correction term plausibly
    account for the gap.  ``guard_threshold`` is the fraction of the ideal
    next-level growth a decisive verdict must exhibit to be accepted below
    ``k_max``.
    """

    k_start: int = 1
    k_max: int = K_MAX_NUMERIC
    margin: float = 0.2
    near_one_band: float = 0.5
    window_lo: int = DEFAULT_WINDOW_FLOOR
    window_hi: int = DEFAULT_WINDOW_HI
    samples: int = DEFAULT_SAMPLES
    tail_fraction: float = DEFAULT_TAIL_FRACTION
    use_delta: bool = True
    guard: bool = True
    guard_threshold: float = 0.5

    def __post_init__(self):
        if not 1 <= self.k_start <= self.k_max:
            raise ValueError(f"need 1 <= k_start <= k_max, got {self.k_start}..{self.k_max}")
        if self.k_max > K_MAX_NUMERIC:
            raise ValueError(f"k_max {self.k_max} exceeds numeric cap {K_MAX_NUMERIC}")
        if not 0 < self.margin < math.inf:
            raise ValueError(f"margin must be finite and positive, got {self.margin}")
        if not self.near_one_band >= 0:
            raise ValueError(f"near_one_band must be non-negative, got {self.near_one_band}")
        if not 0 < self.guard_threshold <= 1:
            raise ValueError(f"guard_threshold must be in (0, 1], got {self.guard_threshold}")
        if not self.window_lo < self.window_hi:
            raise ValueError(f"need window_lo < window_hi, got {self.window_lo}..{self.window_hi}")
        if not 0 < self.tail_fraction <= 1:
            raise ValueError("tail_fraction must be in (0, 1]")
        if self.samples < 4:
            raise ValueError("need at least 4 samples")


def sample_grid(
    lo: int,
    hi: int,
    count: int = DEFAULT_SAMPLES,
    support: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Geometric grid of integer indices in [lo, hi], deduplicated and sorted.

    With explicit support, returns the supported indices in range, thinned
    geometrically when there are more than ``count`` of them.
    """
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    if hi <= lo:
        raise InvalidWindow(f"window [{lo}, {hi}] is empty")
    if support is not None:
        inside = [n for n in support if lo <= n <= hi]
        if len(inside) <= count:
            return tuple(inside)
        picks = sorted({round(i * (len(inside) - 1) / (count - 1)) for i in range(count)})
        return tuple(inside[i] for i in picks)
    return _geometric_grid(lo, hi, count)


@functools.lru_cache(maxsize=128, typed=True)  # every test of one window reuses its grid
def _geometric_grid(lo: int, hi: int, count: int) -> tuple[int, ...]:
    la, lb = math.log(lo), math.log(hi)
    raw = (math.exp(la + (lb - la) * i / (count - 1)) for i in range(count))
    grid = sorted({min(max(int(round(v)), lo), hi) for v in raw})
    return tuple(grid)


def _usable_tail(points: Sequence[SamplePoint], tail_fraction: float) -> list[SamplePoint]:
    """Last quarter (by default) of the usable samples.

    Samples that tripped a precision warning or failed to evaluate are
    excluded before the tail is taken: a poisoned sample must not decide a
    verdict, and a run of poisoned samples at the top of the window must not
    blind the test to the believable evidence below them.
    """
    usable = [p for p in points if p.usable]
    k = max(1, math.ceil(len(usable) * tail_fraction))
    return usable[len(usable) - k:]


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
    reciprocal sum; otherwise inconclusive.
    """
    return _tail_window_test(
        lambda n: SamplePoint(n, kummer_rho(weight, ratio, n, use_delta=use_delta), True),
        _effective_window(ratio, window, weight.first_index), ratio.support,
        margin, samples, tail_fraction,
        threshold=0.0, min_tail=1, may_diverge=weight.reciprocal_sum_diverges, level=None,
    )


def extract_sn(K: int, ratio: RatioSpec, n: int, use_delta: bool = True) -> SamplePoint:
    """Solve the depth-K ratio expansion for the coefficient s_n.

    s_n = [delta(n) - 1/n - sum_{i=1}^{K-1} 1/(n * prod_(i))] * zeta_K(n),
    with delta(n) := ratio(n) - 1 when no exact delta form is supplied.  The
    empty sum at K = 1 contributes nothing.  The result is the
    ``SamplePoint(n, s_n, usable)`` that a depth-K test records at n;
    ``usable`` is False when the subtraction chain, starting from a raw
    ratio, lost more than half the significand.  This is one call of a
    fresh :func:`_sampler`, through which the fixed-depth and adaptive tests
    evaluate the source once per sampled index per verdict.
    """
    lo = max(ratio.first_index, min_domain(K))
    if n < lo:
        raise DomainError(f"extract_sn: n={n} below first admissible index {lo} at depth {K}")
    if ratio.last_index is not None and n > ratio.last_index:
        raise DomainError(f"extract_sn: n={n} beyond ratio domain end {ratio.last_index}")
    return _sampler(ratio, use_delta)(K, n)


def _sampler(ratio: RatioSpec, use_delta: bool) -> Callable[[int, int], SamplePoint]:
    """The SamplePoint of s_n at depth K, for depths that never fall.

    Each index calls the source once and keeps the loop state (k, t, v, p);
    one more depth then costs one subtraction, one log and one multiply, in
    iterlog_product's operation order, so s_n is bit-identical at any depth
    (n < 2^53, so n * p rounds as float(n) * p does).  An index whose source
    raised is unusable at every later depth, with no second call; it keeps
    an empty state, not the exception, whose traceback would tie this state
    into a reference cycle.
    """
    states: dict[int, list] = {}
    exact = use_delta and ratio.delta is not None

    def sample(K: int, n: int) -> SamplePoint:
        state = states.get(n)
        if state is None:
            states[n] = []  # stays empty if the source raises
            t = (float(ratio.delta(n)) if exact else ratio.ratio_at(n) - 1.0) - 1.0 / n
            _check_index(n)
            state = states[n] = [0, t, float(n), 1.0]
        elif not state:
            return SamplePoint(n, math.nan, False)
        k, t, v, p = state
        for i in range(k, K):
            if i:
                t -= 1.0 / (n * p)
            v = math.log(v)
            p *= v
        state[:] = K, t, v, p
        return SamplePoint(n, t * (n * p), exact or not abs(t) < _CANCEL_THRESHOLD)
    return sample


def reconstruct_ratio(K: int, s: float, n: int) -> float:
    """Right side of the depth-K expansion evaluated at (s, n).

    Inverse of :func:`extract_sn` up to rounding: feeding an extracted s back
    reproduces the ratio to within a few ulps.
    """
    t = s / zeta_weight(K, n)
    for i in range(K - 1, 0, -1):
        t += 1.0 / (float(n) * iterlog_product(i, n))
    t += 1.0 / n
    return 1.0 + t


def _effective_window(
    ratio: RatioSpec,
    window: tuple[int, int],
    first: int,
    where: str = "",
) -> tuple[int, int]:
    """Clip ``window`` to the indices where both ``first`` and ``ratio`` are defined."""
    lo, hi = window
    if hi <= lo:
        raise InvalidWindow(f"window [{lo}, {hi}] has n_hi <= n_lo")
    lo = max(lo, first, ratio.first_index)
    if ratio.last_index is not None:
        hi = min(hi, ratio.last_index)
    if hi <= lo:
        raise InvalidWindow(
            f"no admissible window{where}: need indices above {lo}, have up to {hi}"
        )
    return lo, hi


def _tail_window_test(
    statistic: Callable[[int], SamplePoint],
    window: tuple[int, int],
    support: Sequence[int] | None,
    margin: float,
    samples: int,
    tail_fraction: float,
    *,
    threshold: float,
    min_tail: int,
    may_diverge: bool,
    level: int | None,
) -> Verdict:
    """Sample ``statistic`` over the clipped window and decide on its usable tail.

    ``statistic(n)`` gives the SamplePoint at n; a sample that raised is
    kept as unusable, like one that lost its bits to cancellation.  Converges
    when the tail minimum exceeds threshold + margin; diverges when the tail
    maximum is below threshold - margin and ``may_diverge`` holds;
    inconclusive otherwise or when fewer than ``min_tail`` usable samples
    fall in the tail.  Excluding a poisoned sample can only widen
    Inconclusive; keeping it could flip a verdict.
    """
    if not 0 < margin < math.inf:
        raise ValueError(f"margin must be finite and positive, got {margin}")
    pts = []
    for n in sample_grid(*window, samples, support):
        try:
            pts.append(statistic(n))
        except (DomainError, EvalError, ArithmeticError):
            pts.append(SamplePoint(n, math.nan, False))
    tail = _usable_tail(pts, tail_fraction)
    usable = sum(p.usable for p in pts)
    dropped = len(pts) - usable
    if len(tail) < min_tail:
        note = "too few usable tail samples" if min_tail > 1 else "no usable tail samples"
        return Verdict(Decision.INCONCLUSIVE, level, window, None, None, margin,
                       tuple(pts), dropped, note=note, usable=usable)
    s_min = min(p.value for p in tail)
    s_max = max(p.value for p in tail)
    if s_min > threshold + margin:
        decision = Decision.CONVERGES
    elif s_max < threshold - margin and may_diverge:
        decision = Decision.DIVERGES
    else:
        decision = Decision.INCONCLUSIVE
    return Verdict(decision, level, window, s_min, s_max, margin, tuple(pts), dropped,
                   usable=usable)


def extended_bdm_test(
    K: int,
    ratio: RatioSpec,
    window: tuple[int, int] | None = None,
    margin: float = 0.2,
    samples: int = DEFAULT_SAMPLES,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    use_delta: bool = True,
) -> Verdict:
    """Fixed-depth test: tail extrema of the extracted s_n against 1 +- margin.

    At K = 1 this is the classical Bertrand r_n test.  Samples whose
    extraction raised a domain error or tripped the cancellation warning are
    recorded but excluded from the tail extrema.
    """
    return _depth_test(K, ratio, _sampler(ratio, use_delta), window, margin, samples,
                       tail_fraction)


def _depth_test(K: int, ratio: RatioSpec, sample: Callable[[int, int], SamplePoint],
                window: tuple[int, int] | None, margin: float, samples: int,
                tail_fraction: float) -> Verdict:
    window = _effective_window(ratio, window or (DEFAULT_WINDOW_FLOOR, DEFAULT_WINDOW_HI),
                               min_domain(K), f" at depth {K}")
    return _tail_window_test(
        lambda n: sample(K, n), window, ratio.support, margin, samples, tail_fraction,
        threshold=1.0, min_tail=2, may_diverge=True, level=K,
    )


def _consistency_guard(
    K: int,
    verdict: Verdict,
    config: ClassifyConfig,
) -> GuardReport | None:
    """Check that a decisive depth-K verdict is consistent with depth K+1.

    Uses the exact identity s^(K+1)_n = (s^(K)_n - 1) * ln_(K+1)(n): when the
    depth-K tail genuinely settles away from 1, the next-level coefficient
    must grow (Converges) or fall (Diverges) by about gap * d(ln_(K+1));
    requires at least ``guard_threshold`` of that ideal change.  Returns None
    when depth K+1 is out of numeric reach for the sampled window.
    """
    if K + 1 > K_MAX_NUMERIC:
        return None
    cutoff = min_domain(K + 1)
    tail = [p for p in _usable_tail(verdict.samples, config.tail_fraction)
            if p.n >= cutoff]
    if len(tail) < 2:
        return None
    first, last = tail[0], tail[-1]
    l_lo = iterlog(K + 1, first.n)
    l_hi = iterlog(K + 1, last.n)
    span = l_hi - l_lo
    if span <= 1e-9:
        return None
    growth = (last.value - 1.0) * l_hi - (first.value - 1.0) * l_lo
    if verdict.decision is Decision.CONVERGES:
        required = config.guard_threshold * (verdict.s_min - 1.0) * span
        passed = growth >= required
    else:
        required = config.guard_threshold * (verdict.s_max - 1.0) * span
        passed = growth <= required
    return GuardReport(passed, growth, required, first.n, last.n)


def adaptive_classify(ratio: RatioSpec, config: ClassifyConfig | None = None) -> Verdict:
    """Walk the depth hierarchy until a trustworthy decisive verdict appears.

    At each depth K the fixed-depth test runs over the policy window.  A
    decisive verdict is accepted once the next-level consistency guard passes
    (or cannot be evaluated at the numeric cap); a failed guard escalates,
    because the apparent margin is then a slowly decaying correction term
    that the next depth resolves.  An inconclusive verdict escalates only
    when the tail hovers inside the near-one band.  The returned verdict
    carries the full escalation trace, one Verdict per depth tried.  The
    depths share one sampler, so the source is evaluated once per sampled
    index, whatever the depth reached.
    """
    config = config or ClassifyConfig()
    trace: list[Verdict] = []
    verdict: Verdict | None = None
    sample = _sampler(ratio, config.use_delta)
    for K in range(config.k_start, config.k_max + 1):
        try:
            verdict = _depth_test(
                K, ratio, sample, (config.window_lo, config.window_hi), config.margin,
                config.samples, config.tail_fraction,
            )
        except InvalidWindow as exc:
            base = verdict or Verdict(Decision.INCONCLUSIVE, K, (0, 0), None, None, config.margin)
            return replace(base, decision=Decision.INCONCLUSIVE, trace=tuple(trace),
                           note=f"depth {K} not reachable: {exc}")
        decisive = verdict.decision is not Decision.INCONCLUSIVE
        guard = _consistency_guard(K, verdict, config) if decisive and config.guard else None
        if decisive:
            reason = "" if guard is None or guard.passed else "next-level growth check failed"
        else:
            in_band = (
                verdict.s_min is not None
                and abs(verdict.s_min - 1.0) <= config.near_one_band
                and abs(verdict.s_max - 1.0) <= config.near_one_band
            )
            reason = "tail hovers near the critical value" if in_band else ""
        verdict = replace(verdict, guard=guard, escalated=reason)
        trace.append(verdict)
        if not reason:
            return replace(verdict, trace=tuple(trace))
    note = (f"decisive at depth {K} but {reason}" if decisive
            else verdict.note or f"stopped at depth {K} ({reason}, no depth left)")
    return replace(verdict, decision=Decision.INCONCLUSIVE, trace=tuple(trace), note=note)
