"""Ratio-test hierarchy: coefficient extraction, fixed-depth and adaptive verdicts.

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
from itertools import repeat
from operator import and_, eq, lt, mul, sub, truediv
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, EvalError, InvalidWindow
from .iterlog import INDEX_LIMIT, K_MAX_NUMERIC, _check_index, iterlog, min_domain

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
    the domain.  Every index must be an int, not a bool or numpy integer.
    """

    ratio: Callable[[int], float]
    first_index: int = 1
    delta: Callable[[int], float] | None = None
    last_index: int | None = None
    support: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_integers("first_index", self.first_index)
        if self.last_index is not None:
            _check_integers("last_index", self.last_index)
        _check_integers("support entry", *(self.support or ()))

    def ratio_at(self, n: int) -> float:
        r = float(self.ratio(n))
        if not r > 0.0:
            raise DomainError(f"ratio at n={n} is {r}, must be > 0")
        return r


class SamplePoint(NamedTuple):
    """One sampled coefficient; not ``usable`` when it reads nan or cancellation ate its bits."""

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

    ``s_min``/``s_max`` are the extrema of the extracted coefficient over the
    usable tail samples.  A Converges decision implies s_min > 1 + margin
    over the tail; Diverges implies s_max < 1 - margin.
    Of the ``samples``, ``usable`` can enter the tail and ``dropped`` read nan
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
        for name in ("k_start", "k_max", "window_lo", "window_hi", "samples"):
            _check_integers(name, getattr(self, name))
        if not 1 <= self.k_start <= self.k_max:
            raise ValueError(f"need 1 <= k_start <= k_max, got {self.k_start}..{self.k_max}")
        if self.k_max > K_MAX_NUMERIC:
            raise ValueError(f"k_max {self.k_max} exceeds numeric cap {K_MAX_NUMERIC}")
        _check_decision_rule(self.margin, self.tail_fraction)
        if not self.near_one_band >= 0:
            raise ValueError(f"near_one_band must be non-negative, got {self.near_one_band}")
        if not 0 < self.guard_threshold <= 1:
            raise ValueError(f"guard_threshold must be in (0, 1], got {self.guard_threshold}")
        if not self.window_lo < self.window_hi:
            raise ValueError(f"need window_lo < window_hi, got {self.window_lo}..{self.window_hi}")
        if self.samples < 4:
            raise ValueError("need at least 4 samples")


def _check_integers(name: str, *values: object) -> None:
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_decision_rule(margin: float, tail_fraction: float) -> None:
    """Reject a margin that is not finite and positive, or a tail fraction outside (0, 1]."""
    if not 0 < margin < math.inf:
        raise ValueError(f"margin must be finite and positive, got {margin}")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")


def sample_grid(
    lo: int,
    hi: int,
    count: int = DEFAULT_SAMPLES,
    support: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Geometric grid of integer indices in [lo, hi], deduplicated and sorted.

    With explicit support, returns the supported indices in range, sorted
    and deduplicated, thinned geometrically when there are more than
    ``count`` of them.  The window ends and ``count`` must be ints, with lo >= 1.
    """
    _check_integers("window end", lo, hi)
    _check_integers("count", count)
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    if hi <= lo:
        raise InvalidWindow(f"window [{lo}, {hi}] is empty")
    if lo < 1:
        raise InvalidWindow(f"window [{lo}, {hi}] starts below index 1")
    if support is not None:
        inside = [n for n in support if lo <= n <= hi]
        inside = inside if all(map(lt, inside, inside[1:])) else sorted(set(inside))
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


def _sample(K: int, grid: tuple[int, ...], ratio: RatioSpec, use_delta: bool,
            memo: list, d: Sequence[float] = ()) -> tuple[SamplePoint, ...]:
    """The depth-K SamplePoint of s_n at each index of ``grid``, computed as columns.

    ``memo`` is a verdict's last grid's columns ``[k, grid, x, t, v, p]``
    (empty before its first depth): x is float(n), t is delta(n) - 1/n less
    1/(n * ln(n) * ... * ln_(i)(n)) for 0 < i < k, v is ln_(k)(n) and p is
    ln(n) * ... * ln_(k)(n), with delta(n) := ratio(n) - 1 without an exact
    delta.  A new grid is sampled afresh: one ``map`` calls the source once
    per index (``d`` is that column when the caller has it), resuming past an
    index whose error it catches and keeping no error.  A depth then costs
    one ``map`` per operation in iterlog_product's order, so s_n is
    bit-identical at any depth.  The grid, built from checked indices, is a
    sorted tuple of ints >= 2; a lane whose source failed, or whose index is
    2**53 or more, reads nan.  A sample is usable when its s_n is a number
    and, from a raw ratio, its subtraction kept half the significand.
    """
    exact = use_delta and ratio.delta is not None
    if memo and memo[1] == grid:  # the depths of a verdict only rise
        k, _, x, t, v, p = memo
    else:
        if not d:
            d = []
            source = ratio.delta if exact else ratio.ratio_at
            while len(d) < len(grid):
                try:
                    d.extend(map(float, map(source, grid[len(d):])))
                except (DomainError, EvalError, ArithmeticError):
                    d.append(math.nan)
        x = ([float(n) if n < INDEX_LIMIT else math.nan for n in grid]
             if grid and grid[-1] >= INDEX_LIMIT else list(map(float, grid)))
        t = list(map(sub, d if exact else map(sub, d, repeat(1.0)),
                     map(truediv, repeat(1.0), x)))
        k, v = 1, list(map(math.log, x))
        p = v
    for _ in range(k, K):
        t = list(map(sub, t, map(truediv, repeat(1.0), map(mul, x, p))))
        v = list(map(math.log, v))
        p = list(map(mul, p, v))
    memo[:] = K, grid, x, t, v, p
    s = list(map(mul, t, map(mul, x, p)))
    usable = map(eq, s, s) if math.isnan(sum(s)) else repeat(True)  # a nan spreads to the sum
    if not exact:
        usable = map(and_, usable, map(_CANCEL_THRESHOLD.__le__, map(abs, t)))
    return tuple(map(tuple.__new__, repeat(SamplePoint), zip(grid, s, usable)))


def extract_sn(K: int, ratio: RatioSpec, n: int, use_delta: bool = True) -> SamplePoint:
    """Solve the depth-K ratio expansion for the coefficient s_n.

    s_n = [delta(n) - 1/n - sum_{i=1}^{K-1} 1/(n * prod_(i))] * zeta_K(n),
    with delta(n) := ratio(n) - 1 when no exact delta form is supplied.  The
    empty sum at K = 1 contributes nothing.  The result is the
    ``SamplePoint(n, s_n, usable)`` that a depth-K test records at n;
    ``usable`` is False when s_n is nan or the subtraction chain, starting
    from a raw ratio, lost more than half the significand.  The domain
    checks come first, then the source call, then the index check, and an
    error of any of them propagates; the source value then goes through the
    whole-grid pass :func:`_sample` of the fixed-depth and adaptive tests on
    a grid of one.
    """
    lo = max(ratio.first_index, min_domain(K))
    if n < lo:
        raise DomainError(f"extract_sn: n={n} below first admissible index {lo} at depth {K}")
    if ratio.last_index is not None and n > ratio.last_index:
        raise DomainError(f"extract_sn: n={n} beyond ratio domain end {ratio.last_index}")
    d = float((ratio.delta if use_delta and ratio.delta is not None else ratio.ratio_at)(n))
    _check_index(n)
    return _sample(K, (n,), ratio, use_delta, [], [d])[0]


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
        raise InvalidWindow(f"no admissible window{where}: need indices above {lo}, "
                            f"have up to {hi}")
    return lo, hi


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

    At K = 1 this is the classical Bertrand r_n test.  Samples that read nan
    or lost their bits to cancellation are recorded but left out of the tail
    extrema.  ``window``'s ends and ``samples`` must be ints, as in RatioSpec.
    """
    _check_decision_rule(margin, tail_fraction)
    window = window or (DEFAULT_WINDOW_FLOOR, DEFAULT_WINDOW_HI)
    _check_integers("window end", *window)
    _check_integers("samples", samples)
    return _depth_test(K, ratio, window, margin, samples, tail_fraction, use_delta, [])


def _depth_test(K: int, ratio: RatioSpec, window: tuple[int, int], margin: float,
                samples: int, tail_fraction: float, use_delta: bool, memo: list,
                config: ClassifyConfig | None = None) -> Verdict:
    """Sample s_n at depth K over the clipped window and decide on its usable tail.

    Converges when the tail minimum exceeds 1 + margin; diverges when the
    tail maximum is below 1 - margin; inconclusive otherwise or when fewer
    than two usable samples fall in the tail.  The tail is the last
    ``tail_fraction`` of the usable samples: one that reads nan or lost its
    bits to cancellation is recorded but left out before the tail is taken,
    so a poisoned sample cannot decide a verdict, and a run of them at the
    top of the window cannot blind the test to the believable samples below.
    Leaving one out can only widen Inconclusive.  The whole grid is sampled
    in one pass of :func:`_sample`; ``memo`` carries the verdict's last
    grid's columns from depth to depth.  With the adaptive walk's
    ``config``, the verdict also carries the guard run on a decisive depth
    and the reason to escalate past it.
    """
    window = _effective_window(ratio, window, min_domain(K), f" at depth {K}")
    points = _sample(K, sample_grid(*window, samples, ratio.support), ratio, use_delta, memo)
    usable = [p for p in points if p.usable]
    tail = usable[len(usable) - max(1, math.ceil(len(usable) * tail_fraction)):]
    dropped = len(points) - len(usable)
    if len(tail) < 2:
        return Verdict(Decision.INCONCLUSIVE, K, window, None, None, margin, points, dropped,
                       note="too few usable tail samples", usable=len(usable))
    s_min, s_max = min(p.value for p in tail), max(p.value for p in tail)
    if s_min > 1.0 + margin:
        decision = Decision.CONVERGES
    elif s_max < 1.0 - margin:
        decision = Decision.DIVERGES
    else:
        decision = Decision.INCONCLUSIVE
    guard, reason = (None, "") if config is None else _escalation(
        K, decision, tail, s_min, s_max, config)
    return Verdict(decision, K, window, s_min, s_max, margin, points, dropped,
                   usable=len(usable), guard=guard, escalated=reason)


def _escalation(K: int, decision: Decision, tail: list[SamplePoint], s_min: float,
                s_max: float, config: ClassifyConfig) -> tuple[GuardReport | None, str]:
    """The guard run on a decisive depth, and the reason to escalate past it ("" to stop).

    A decisive depth escalates when its guard fails; an inconclusive one
    when its tail hovers inside the near-one band, where the next level's
    correction term can plausibly account for the gap.
    """
    if decision is Decision.INCONCLUSIVE:
        band = config.near_one_band
        in_band = abs(s_min - 1.0) <= band and abs(s_max - 1.0) <= band
        return None, "tail hovers near the critical value" if in_band else ""
    guard = _consistency_guard(K, decision, tail, s_min, s_max, config) if config.guard else None
    return guard, "" if guard is None or guard.passed else "next-level growth check failed"


def _consistency_guard(K: int, decision: Decision, tail: list[SamplePoint], s_min: float,
                       s_max: float, config: ClassifyConfig) -> GuardReport | None:
    """Check that a decisive depth-K verdict is consistent with depth K+1.

    Uses the exact identity s^(K+1)_n = (s^(K)_n - 1) * ln_(K+1)(n): when the
    depth-K tail genuinely settles away from 1, the next-level coefficient
    must grow (Converges) or fall (Diverges) by about gap * d(ln_(K+1));
    requires at least ``guard_threshold`` of that ideal change.  Returns None
    when depth K+1 is out of numeric reach for the sampled tail.
    """
    if K + 1 > K_MAX_NUMERIC:
        return None
    cutoff = min_domain(K + 1)
    tail = [p for p in tail if p.n >= cutoff]
    if len(tail) < 2:
        return None
    first, last = tail[0], tail[-1]
    l_lo = iterlog(K + 1, first.n)
    l_hi = iterlog(K + 1, last.n)
    span = l_hi - l_lo
    if span <= 1e-9:
        return None
    growth = (last.value - 1.0) * l_hi - (first.value - 1.0) * l_lo
    if decision is Decision.CONVERGES:
        required = config.guard_threshold * (s_min - 1.0) * span
        passed = growth >= required
    else:
        required = config.guard_threshold * (s_max - 1.0) * span
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
    carries the full escalation trace, one Verdict per depth tried.  Each
    depth samples its whole grid in one pass, and the depths share one memo
    of the last grid's columns, so the source is called once per index of
    each distinct grid: depths on the same window cost one log per index
    more, and a depth whose window is clipped higher samples its new grid
    afresh.  Nothing of the memo outlives the verdict.
    """
    config = config or ClassifyConfig()
    trace: list[Verdict] = []
    memo: list = []
    for K in range(config.k_start, config.k_max + 1):
        try:
            verdict = _depth_test(K, ratio, (config.window_lo, config.window_hi), config.margin,
                                  config.samples, config.tail_fraction, config.use_delta,
                                  memo, config)
        except InvalidWindow as exc:
            base = trace[-1] if trace else Verdict(Decision.INCONCLUSIVE, K, (0, 0), None, None,
                                                   config.margin)
            return replace(base, decision=Decision.INCONCLUSIVE, trace=tuple(trace),
                           note=f"depth {K} not reachable: {exc}")
        trace.append(verdict)
        if not verdict.escalated:
            return replace(verdict, trace=tuple(trace))
    note = (f"decisive at depth {K} but {verdict.escalated}"
            if verdict.decision is not Decision.INCONCLUSIVE
            else verdict.note or f"stopped at depth {K} ({verdict.escalated}, no depth left)")
    return replace(verdict, decision=Decision.INCONCLUSIVE, trace=tuple(trace), note=note)
