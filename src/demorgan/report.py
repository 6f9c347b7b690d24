"""Structured analysis reports, rendered as JSON or as text.

A report is a plain JSON-compatible document: the echoed input (enough to
re-run the exact analysis), the verdict or simulation results with their
evidence, the tool version, and a timing field, left out when the report
has no timing.  Two runs of the same analysis produce byte-identical JSON
except for ``timing_ms``; numbers are serialized with full round-trip
precision, and a non-finite number (an infinite coefficient, a NaN sample)
as ``null``, since JSON has no NaN or Infinity.

This module alone knows a result's layout: it builds the result dicts and
renders them.  Text is the short form (decision, tail range, note and one
line per depth, or the simulation summary), with ``inf`` and ``nan`` kept.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any

from . import __version__
from .birthdeath import Classification
from .convergence import Verdict
from .walk import RWClassification

SCHEMA_VERSION = 1
TOOL_NAME = "demorgan"


@dataclass
class Report:
    mode: str  # series | bdp | rwalk | simulate | iterlog
    input: dict[str, Any]
    result: dict[str, Any]
    timing_ms: float | None = None  # None leaves the field out

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "mode": self.mode,
            "input": self.input,
            "result": self.result,
        }
        if self.timing_ms is not None:
            doc["timing_ms"] = self.timing_ms
        return doc

    def to_json(self) -> str:
        return json.dumps(_finite_or_null(self.to_dict()), indent=2, allow_nan=False)

    def to_text(self) -> str:
        r = self.result
        lines = [f"mode: {self.mode}"]
        if self.mode == "series":
            lines += _verdict_lines(r)
        elif self.mode in ("bdp", "rwalk"):  # a walk reports its induced chain
            verdict = (r if self.mode == "bdp" else r["chain"])["series_verdict"]
            prefix = "  series " if self.mode == "bdp" else "  chain series "
            lines += [f"decision: {r['decision']}", *_verdict_lines(verdict, prefix)]
        elif self.mode == "simulate":
            mfr, fp = r["mean_first_return"], r["final_positions"]
            lines += [
                f"paths: {r['n_paths']}  horizon: {r['horizon']}  seed: {r['seed']}",
                f"returned: {r['returned_paths']} ({r['returned_fraction']:.4f})",
                f"mean first return: {'n/a' if mfr is None else f'{mfr:.2f}'}",
                f"max excursion: {r['max_excursion']}",
                f"final positions: mean={fp['mean']:.2f} median={fp['median']:.1f} "
                f"min={fp['min']} max={fp['max']}",
            ]
        elif self.mode == "iterlog":
            lines.append(f"value: {r['value']!r}")
        if self.timing_ms is not None:
            lines.append(f"elapsed: {self.timing_ms:.1f} ms")
        return "\n".join(lines)


def _finite_or_null(value: Any) -> Any:
    """``value`` with every non-finite float, however deeply nested, made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def verdict_to_dict(v: Verdict) -> dict[str, Any]:
    return {
        "decision": v.decision.value,
        "level": v.level,
        "window": list(v.window),
        "s_min": v.s_min,
        "s_max": v.s_max,
        "margin": v.margin,
        "dropped_samples": v.dropped,
        "note": v.note,
        "samples": [[p.n, p.value, p.usable] for p in v.samples],
        "trace": [
            {
                "level": r.level,
                "window": list(r.window),
                "decision": r.decision.value,
                "s_min": r.s_min,
                "s_max": r.s_max,
                "usable": r.usable,
                "dropped": r.dropped,
                "escalated": r.escalated,
                "guard": None if r.guard is None else asdict(r.guard),
            }
            for r in v.trace
        ],
    }


def _verdict_lines(v: dict[str, Any], prefix: str = "") -> list[str]:
    """A verdict dict as text lines: decision, range, note, then one line per depth."""
    lines = [f"{prefix}decision: {v['decision']}",
             f"{prefix}level: {v['level']}  window: {v['window']}  margin: {v['margin']}"]
    if v["s_min"] is not None:
        lines.append(f"{prefix}tail coefficient range: [{v['s_min']:.6g}, {v['s_max']:.6g}]")
    if v["note"]:
        lines.append(f"{prefix}note: {v['note']}")
    for step in v["trace"]:
        rng = "" if step["s_min"] is None else f"  s in [{step['s_min']:.6g}, {step['s_max']:.6g}]"
        guard = step["guard"]
        guard_txt = "" if guard is None else f"  guard={'pass' if guard['passed'] else 'FAIL'}"
        esc = f"  -> {step['escalated']}" if step["escalated"] else ""
        lines.append(f"{prefix}  depth {step['level']}: {step['decision']}{rng}{guard_txt}{esc}")
    return lines


def classification_to_dict(c: Classification) -> dict[str, Any]:
    return {
        "decision": c.decision.value,
        "series_verdict": verdict_to_dict(c.series_verdict),
    }


def rw_classification_to_dict(c: RWClassification) -> dict[str, Any]:
    return {
        "decision": c.decision.value,
        "chain": classification_to_dict(c.chain),
    }
