"""Structured analysis reports.

A report is a plain JSON-compatible document: the echoed input (enough to
re-run the exact analysis), the verdict or simulation results with their
evidence, the tool version, and a timing field, left out when the report
has no timing.  Two runs of the same analysis produce byte-identical JSON
except for ``timing_ms``; numbers are serialized with full round-trip
precision, and a non-finite number (an infinite coefficient, a NaN sample)
as ``null``, since JSON has no NaN or Infinity.
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
