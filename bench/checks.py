"""Output checks computed apart from the program under test.

Nothing here calls into ``demorgan``: the truths come from the analytic
thresholds of the catalog and from Lamperti's a = 1/4 criterion for the
alpha/S walk, the walk reports are rebuilt from an own scalar SplitMix64
(Steele, Lea and Flood, OOPSLA 2014) following the stream rule the README
states, and the return probabilities come from propagating the exact
position distribution in numpy.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# Families and shapes whose truth flips at the threshold from below to above
# ("converges"/"transient" above it); geometric is the one that flips the
# other way.
SERIES_TRUTH = ("diverges", "converges")
CHAIN_TRUTH = ("recurrent", "transient")


def series_truth(x: float, threshold: float = 1.0) -> str:
    return SERIES_TRUTH[x > threshold]


def geometric_truth(x: float) -> str:
    return SERIES_TRUTH[x < 1.0]


def chain_truth(x: float, threshold: float = 1.0) -> str:
    return CHAIN_TRUTH[x > threshold]


def verdict_wrong(decision: str, truth: str) -> bool:
    """A decisive verdict that contradicts the truth; inconclusive is never wrong."""
    return decision != "inconclusive" and decision != truth


def catalog_gate(outcomes: list[tuple[str, str]]) -> str | None:
    """At least 10 of the 12 acceptance families must be decided, and rightly.

    Without this gate a program could buy speed by giving up decisions.
    """
    right = sum(1 for decision, truth in outcomes if decision == truth)
    if right < 10:
        return f"only {right} of {len(outcomes)} acceptance families decided rightly"
    return None


# ---------------------------------------------------------------------------
# SplitMix64 streams, one per path:
#   state_i(0) = mix(seed + (i + 1) * GAMMA)
#   draw t:      state += GAMMA;  u_t = mix(state) >> 11
# The step goes up iff u_t < int(p_up * 2**53), with p_up = 1/2 + alpha(S)/S
# and p_up = 1 at the origin.

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def scalar_walk_report(alpha, seed: int, horizon: int, n_paths: int) -> dict:
    """The simulator's report, rebuilt one path and one step at a time."""
    seed &= _M64
    thresholds = {0: 1 << 53}
    returned = first_sum = 0
    max_excursion = 1
    finals = []
    for i in range(n_paths):
        state = _mix((seed + (i + 1) * _GAMMA) & _M64)
        pos, first, top = 1, 0, 1
        for t in range(1, horizon + 1):
            thr = thresholds.get(pos)
            if thr is None:
                thr = thresholds[pos] = int((0.5 + alpha(pos) / pos) * (1 << 53))
            state = (state + _GAMMA) & _M64
            pos += 1 if (_mix(state) >> 11) < thr else -1
            if pos == 0 and not first:
                first = t
            top = max(top, pos)
        if first:
            returned += 1
            first_sum += first
        finals.append(pos)
        max_excursion = max(max_excursion, top)
    return {
        "n_paths": n_paths,
        "horizon": horizon,
        "seed": seed,
        "returned_paths": returned,
        "returned_fraction": returned / n_paths,
        "mean_first_return": first_sum / returned if returned else None,
        "max_excursion": max_excursion,
        "final_positions": {
            "mean": float(sum(finals)) / n_paths,
            "median": float(statistics.median(finals)),
            "min": min(finals),
            "max": max(finals),
        },
    }


def report_mismatch(got: dict, want: dict) -> str | None:
    """First field where a simulate report differs from the rebuilt one."""
    for key, value in want.items():
        if key == "final_positions":
            for sub, v in value.items():
                if got[key][sub] != v:
                    return f"final_positions.{sub}: got {got[key][sub]!r}, want {v!r}"
        elif got[key] != value:
            return f"{key}: got {got[key]!r}, want {value!r}"
    return None


def return_probability(alpha, horizon: int) -> float:
    """P(the walk from 1 visits 0 within ``horizon`` steps), exactly.

    The sub-probability of paths that have not yet returned is propagated
    step by step.  Positions above 10 * sqrt(horizon) + 64 are cut off; the
    mass that reaches the cut is accumulated and must stay negligible.
    """
    size = min(horizon + 2, int(10 * math.sqrt(horizon)) + 64)
    p_up = np.array([1.0] + [0.5 + alpha(s) / s for s in range(1, size)])
    mass = np.zeros(size)
    mass[1] = 1.0
    returned = lost = 0.0
    for t in range(1, horizon + 1):
        top = min(t, size - 2)  # highest occupied position before step t
        cur = mass[1:top + 1].copy()
        up = cur * p_up[1:top + 1]
        down = cur - up
        mass[1:top + 1] = 0.0
        returned += down[0]
        mass[1:top] += down[1:]
        mass[2:top + 2] += up
        lost += mass[size - 1]
        mass[size - 1] = 0.0
    if lost > 1e-12:
        raise ArithmeticError(f"position cut-off lost {lost:.3g} of the mass")
    return float(returned)


def walk_report_problem(report: dict, p_exact: float) -> str | None:
    """Distribution and parity checks on one simulate report."""
    n, h = report["n_paths"], report["horizon"]
    se = math.sqrt(p_exact * (1.0 - p_exact) / n)
    if abs(report["returned_fraction"] - p_exact) > 5.0 * se:
        return (f"returned fraction {report['returned_fraction']:.5f} is more than 5 "
                f"standard errors ({se:.5f}) from the exact {p_exact:.5f}")
    if report["returned_fraction"] != report["returned_paths"] / n:
        return "returned_fraction does not match returned_paths / n_paths"
    parity = (1 + h) % 2
    fp = report["final_positions"]
    if fp["min"] % 2 != parity or fp["max"] % 2 != parity:
        return f"final positions {fp['min']}..{fp['max']} do not have the parity of 1 + {h}"
    if round(fp["mean"] * n) % 2 != (n * parity) % 2:
        return "sum of final positions has the wrong parity"
    if not fp["min"] <= fp["median"] <= fp["max"] or fp["min"] < 0:
        return "final position statistics are out of order"
    if report["max_excursion"] < fp["max"] or report["max_excursion"] > 1 + h:
        return "max_excursion is inconsistent with the final positions"
    return None


# ---------------------------------------------------------------------------
# CLI replies.

EXIT_DECISIVE, EXIT_INCONCLUSIVE = 0, 2


def iterlog_chain(k: int, x: float) -> float:
    v = float(x)
    for _ in range(k):
        v = math.log(v)
    return v


def zeta_chain(k: int, n: int) -> float:
    v, p = float(n), float(n)
    for _ in range(k):
        v = math.log(v)
        p *= v
    return p


def cli_reply_problem(code: int, doc: dict | None, expect: dict) -> str | None:
    """Check one CLI reply (exit code and JSON document) against ``expect``.

    ``expect`` holds either ``truth`` (a verdict), ``value`` (an
    eval-iterlog result) or ``walk`` (a rebuilt simulate report with its
    exact return probability).
    """
    if doc is None:
        return f"exit code {code} with no JSON reply"
    result = doc.get("result", {})
    if "truth" in expect:
        decision = result.get("decision")
        want = EXIT_INCONCLUSIVE if decision == "inconclusive" else EXIT_DECISIVE
        if code != want:
            return f"decision {decision!r} came with exit code {code}, want {want}"
        if verdict_wrong(decision, expect["truth"]):
            return f"decision {decision!r} contradicts the truth {expect['truth']!r}"
        return None
    if code != EXIT_DECISIVE:
        return f"exit code {code}, want {EXIT_DECISIVE}"
    if "value" in expect:
        got = result.get("value")
        if not isinstance(got, (int, float)) or not math.isclose(got, expect["value"],
                                                                 rel_tol=1e-12):
            return f"value {got!r}, want {expect['value']!r}"
        return None
    walk, p_exact = expect["walk"]
    return report_mismatch(result, walk) or walk_report_problem(result, p_exact)
